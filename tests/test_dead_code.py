"""Dead-code guard: every module-level function of the package is named by
some other line of ``src/`` or ``perfbench/``.

A function no pipeline path reaches is deleted, or moved into the tests
when a test uses it as an oracle.  The check is textual (a whole-word
match), so a name mentioned anywhere else counts as a reference.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public API that only tests reach, kept on purpose: (module, function).
ALLOWED = {
    ("artifacts", "seal"),     # payload + CRC trailer, to build damaged files
    ("distill", "bc_loss"),    # the BC objective over (control graph, action) pairs
}


def test_every_module_function_has_a_caller():
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    lines = [(path, no, line) for path in sources
             for no, line in enumerate(path.read_text().splitlines(), start=1)]
    dead = []
    for path in sorted((ROOT / "src" / "morphtask").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "")
            if not isinstance(node, ast.FunctionDef) or \
                    (name.startswith("__") and name.endswith("__")) or \
                    (path.stem, name) in ALLOWED:
                continue
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) and (other, no) != (path, node.lineno)
                       for other, no, line in lines):
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, "functions nothing calls: " + ", ".join(dead)
