"""Dead-code guard: every module-level function and every method of the
package is named by the code of ``src/`` or ``perfbench/``.

A function no pipeline path reaches is deleted, or moved into the tests
when a test uses it as an oracle.  A name counts as a reference when code
uses it: an identifier, an attribute, an imported name, or an attribute
that ``perfbench/spans.py``'s ``TRACED`` table patches by name.  Words in
comments, docstrings and other strings do not count.
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
            if isinstance(node, ast.Name):
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


def test_every_module_function_has_a_caller():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    names = referenced_names(sources)
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


def test_words_in_strings_are_not_references(tmp_path):
    # "behavior-clone" in a help text once kept an uncalled ``clone`` alive
    src = tmp_path / "m.py"
    src.write_text('"""clone the policy."""\nHELP = "behavior-clone it"  # clone\n'
                   'import a.b as c\nc.d(e)\n')
    assert {"clone", "HELP"} & referenced_names([src]) == {"HELP"}
    assert {"a", "b", "d", "e", "c"} <= referenced_names([src])
