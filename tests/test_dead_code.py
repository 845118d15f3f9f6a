"""Dead-code guard: every module-level function, every method and every
module-level UPPER_CASE constant of the package is named by the code of
``src/`` or ``perfbench/``.

A function no pipeline path reaches is deleted, or moved into the tests
when a test uses it as an oracle.  A name counts as a reference when code
uses it: an identifier that is read, an attribute, an imported name, or an
attribute that ``perfbench/spans.py``'s ``TRACED`` table patches by name.
Assigning a name does not count, and neither do words in comments,
docstrings and other strings.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public API that only tests reach, kept on purpose: (module, function).
ALLOWED = {
    ("artifacts", "seal"),     # payload + CRC trailer, to build damaged files
    ("distill", "bc_loss"),    # the BC objective over (control graph, action) pairs
}


def referenced_names(sources) -> set[str]:
    """Every identifier, attribute and imported name used in sources, plus
    the attributes of the span table in perfbench/spans.py."""
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (traced,) = [ast.literal_eval(node.value) for node in spans.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TRACED"]
    names.update(part for _, _, attr in traced for part in attr.split("."))
    return names


def _package_names() -> set[str]:
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    return referenced_names(sources)


def test_every_module_function_has_a_caller():
    names = _package_names()
    dead = []
    for path in sorted((ROOT / "src" / "morphtask").rglob("*.py")):
        tree = ast.parse(path.read_text())
        methods = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in tree.body + methods:
            name = getattr(node, "name", "")
            if not isinstance(node, ast.FunctionDef) or \
                    (name.startswith("__") and name.endswith("__")) or \
                    (path.stem, name) in ALLOWED:
                continue
            if name not in names:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, "functions nothing calls: " + ", ".join(dead)


def test_every_module_constant_is_read():
    names = _package_names()
    unread = []
    for path in sorted((ROOT / "src" / "morphtask").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper() and \
                            name.id not in names:
                        unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {name.id}")
    assert not unread, "constants nothing reads: " + ", ".join(unread)


def test_words_in_strings_are_not_references(tmp_path):
    # "behavior-clone" in a help text once kept an uncalled ``clone`` alive
    src = tmp_path / "m.py"
    src.write_text('"""clone the policy."""\nHELP = "behavior-clone it"  # clone\n'
                   'import a.b as c\nc.d(e, HELP)\nUNREAD = 1\n')
    assert {"clone", "HELP", "UNREAD"} & referenced_names([src]) == {"HELP"}
    assert {"a", "b", "d", "e", "c"} <= referenced_names([src])
