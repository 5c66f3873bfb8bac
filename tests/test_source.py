import ast
import importlib.util
from pathlib import Path

import superchar

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "superchar"


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


def test_bench_tracer_hooks_name_live_callables():
    # perfbench/tracer.py wraps the package by name and refuses to run when a
    # name it hooks is gone: deleting such a name would break `--trace 1`
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    ring = dict(vars(superchar.charring.FormalChar))
    assert tracer.Tracer(superchar).run(lambda: None) is None
    assert dict(vars(superchar.charring.FormalChar)) == ring  # every original restored
