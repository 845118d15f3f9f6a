"""Every Python file of the repository parses as Python 3.10, the oldest
version pyproject.toml declares (``requires-python >= 3.10``).

This checks syntax only, through ``ast.parse(..., feature_version=(3, 10))``
on the running interpreter; it does not catch a standard-library function or
argument that 3.10 lacks.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    sources = sorted(p for d in ("src", "perfbench", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(sources) > 20
    errors = []
    for path in sources:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            errors.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not errors, "not Python 3.10 syntax: " + "; ".join(errors)
