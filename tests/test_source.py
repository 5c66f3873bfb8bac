import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "superchar"


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so a load-bearing check must raise
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
