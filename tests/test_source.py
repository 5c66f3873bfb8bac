import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


def _modules_loaded_by(statement):
    """The names in sys.modules after a fresh interpreter runs `statement`
    with the package's src/ on its path."""
    code = f"{statement}\nimport sys\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    return set(out.stdout.split())


def test_import_loads_no_introspection_modules():
    # the value classes are written out by hand: importing the package and
    # its CLI pulls in neither dataclasses nor what it imports to generate
    # code, which a cold start would pay for on every process
    added = _modules_loaded_by("import superchar, superchar.cli") - _modules_loaded_by("pass")
    assert {"superchar.rootdata", "superchar.cli"} <= added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def _layers_loaded_by(statement):
    return {name.removeprefix("superchar.") for name in _modules_loaded_by(statement)
            if name.startswith("superchar.")}


def test_each_import_loads_only_the_layers_it_names():
    # the package re-exports nothing, so importing one layer loads only what
    # it imports; the closed formulas (charring) and the PBW calculus
    # (vermacalc) are two independent routes and never load each other
    assert _layers_loaded_by("import superchar") == set()
    assert _layers_loaded_by("import superchar.rootdata") == {"rootdata"}
    assert _layers_loaded_by("import superchar.charring") & {"vermacalc", "linalg", "bggcheck", "cli"} == set()
    assert _layers_loaded_by("import superchar.vermacalc") & {"charring", "diagrams", "bggcheck", "cli"} == set()


FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
"""


def test_a_failing_property_test_does_not_end_the_run(tmp_path):
    # the project's warnings-as-errors setting must not turn hypothesis's own
    # failure report into an INTERNALERROR that stops the remaining tests
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(ROOT), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr


def _private_imports(tree):
    """Each `_`-prefixed name that a module imports from a package module,
    or reads as an attribute of one it imported with `from . import`."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("superchar")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name
                if node.module is None:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            yield node.lineno, f"{node.value.id}.{node.attr}"


def test_no_module_imports_a_private_name_of_another():
    # a private name stays private to its module: a second module that needs
    # it needs a public name
    found = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _private_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def _load_bench(name):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_hooks_name_live_callables():
    # perfbench/tracer.py wraps the package by name and refuses to run when a
    # name it hooks is gone: deleting such a name would break `--trace 1`
    lib, tracer = _load_bench("workloads").load_library(), _load_bench("tracer")
    ring = dict(vars(lib.charring.FormalChar))
    assert tracer.Tracer(lib).run(lambda: None) is None
    assert dict(vars(lib.charring.FormalChar)) == ring  # every original restored


def test_bench_workloads_pass_their_checks_plain_and_traced():
    # a library change that would make a benchmark run end `incorrect`, or
    # break its traced run, fails here: seed 0's first input, run both ways
    workloads, tracer = _load_bench("workloads"), _load_bench("tracer")
    lib = workloads.load_library()
    expected = workloads.load_expected()
    for name, wl in workloads.WORKLOADS.items():
        inp = next(wl.inputs(lib, 0, 0))
        assert wl.validate(lib, inp, brute=True) is None
        traced = tracer.Tracer(lib)
        for result in (wl.call(lib, inp), traced.run(lambda: wl.call(lib, inp))):
            assert wl.check(wl.summarize(lib, inp, result), expected[name]) == []
        assert traced.check_closure()[0]


# Public names that nothing in the package calls, each kept for one reason.
UNCALLED_BY_DESIGN = {
    "FormalChar.mul": "perfbench/tracer.py hooks it (RING_OUTPUTS)",
    "weyl_group": "the tests' reference for weyl_window",
}


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _names_used(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_every_public_name_has_a_caller_in_the_package():
    # a name counts as used when the package refers to it outside its own
    # definition; re-exports from __init__.py do not count
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = Counter(name for tree in trees.values() for name in _names_used(tree))
    defined, dead = set(), []
    for module, tree in trees.items():
        for qualified, node in _public_definitions(tree):
            defined.add(qualified)
            name = qualified.rsplit(".", 1)[-1]
            own = Counter(_names_used(node))[name]
            if used[name] == own and qualified not in UNCALLED_BY_DESIGN:
                dead.append(f"{module}:{qualified}")
    assert dead == []
    assert set(UNCALLED_BY_DESIGN) <= defined
