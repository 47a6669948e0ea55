"""The module layout that the checks and the benchmark rely on.

bigreal owns BigReal and the fixed-point kernels, so the routes that check
the series route (hypergeometric, elliptic_oracle) and the exact layer
(exact_series) depend on it and not on the series route's own module;
exact_series, which takes rational exponents only, does not load the
symbolic layer (weierstrass) either; regulator evaluates the period table
it is given and imports neither period route (bigreal_periods,
hypergeometric).  No module imports anything outside the standard
library, as pyproject.toml declares, nor json or typing, and none reaches into
another's private names.  The
benchmark names modules and traced functions in bench/; a move that loses
one would zero its per-layer metrics without failing, so the names are
resolved here.  The bench files are read as source, not imported.  Only
the arithmetic types define their own equality and hashing.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "reglab").glob("*.py"))

# the functions the benchmark's tracer times, each in the module bench/traced_op.py names
TRACED_FUNCTIONS = ("eval_IJ", "regulator_closed_form", "direct_periods", "compute_payload",
                    "fiber_list", "euler_epsilon", "hodge_and_dims", "picard_fuchs",
                    "pf_relation")


def _imports_from(path):
    """(module, name) for every `from M import name` in path, M as written,
    with a leading dot for a relative import."""
    tree = ast.parse(path.read_text())
    return [("." * node.level + (node.module or ""), alias.name)
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def _literal(path, name):
    """The value of the module-level assignment name = <literal> in path."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("{} assigns no {}".format(path.name, name))


def test_no_private_name_crosses_a_module():
    crossing = [(path.name, module, name) for path in SRC
                for module, name in _imports_from(path)
                if (module.startswith(".") or module.startswith("reglab"))
                and name.startswith("_") and name != "__version__"]
    assert crossing == []


def test_bigreal_names_come_from_bigreal():
    tree = ast.parse((ROOT / "src" / "reglab" / "bigreal.py").read_text())
    owned = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    owned |= {t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    assert {"BigReal", "PeriodPair", "GUARD", "agreement_digits", "fixed_constants"} <= owned
    files = SRC + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    via_series = [(path.name, name) for path in files
                  for module, name in _imports_from(path)
                  if module in (".bigreal_periods", "reglab.bigreal_periods") and name in owned]
    assert via_series == []


@pytest.mark.parametrize("module", ("reglab.hypergeometric", "reglab.elliptic_oracle",
                                    "reglab.exact_series"))
def test_checks_do_not_load_the_series_route(module):
    # nor mpmath: each check runs on the kernels of bigreal
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, {}; print('reglab.bigreal_periods' in sys.modules, "
         "'reglab.bigreal' in sys.modules, 'mpmath' in sys.modules)".format(module)],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False", "True", "False"]


def test_exact_series_does_not_load_the_symbolic_layer():
    # the q-series take rational exponents only, so no Polynomial is needed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, reglab.exact_series; print('reglab.weierstrass' in sys.modules)"],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False"]


def test_regulator_evaluates_the_table_it_is_given():
    # no period route of its own, and gcd(l, 6) = 1 is checked by integer_kernel.require_lj
    imports = _imports_from(ROOT / "src" / "reglab" / "regulator.py")
    names = {name for _, name in imports}
    assert names & {"eval_IJ", "UnsupportedL"} == set()
    assert "require_lj" in names
    assert {module for module, _ in imports} & {".bigreal_periods", ".hypergeometric"} == set()


def _importers(package):
    """The names of the modules of src/reglab that import package or a submodule of it."""
    return {
        path.name for path in SRC for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == package for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == package}


def test_imports_only_the_standard_library():
    # mpmath, the tests' reference, among the rest
    outside = set()
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names}
    assert outside == set()


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("mpmath") for req in project["optional-dependencies"]["test"])


def test_no_module_imports_json():
    # cli writes --format json with _json, and its cache files hold that text verbatim
    assert _importers("json") == set()


def test_no_module_imports_typing():
    # an interpreter whose site does not load typing would pay for it in every fibers and pf op;
    # -S starts one without site, and the exact layer loads no typing through the stdlib either
    assert _importers("typing") == set()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, reglab.cli, reglab.gauss_manin; print('typing' in sys.modules)"],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False"]


def test_benchmark_modules_import():
    setup = _literal(ROOT / "bench" / "workloads.py", "SETUP_MODULES")
    modules = set(_literal(ROOT / "bench" / "run.py", "ALL_MODULES"))
    modules.update(*setup.values())
    assert modules
    for name in sorted(modules):
        importlib.import_module(name)


def test_traced_functions_resolve_where_the_tracer_looks():
    traced = _literal(ROOT / "bench" / "traced_op.py", "TRACED")
    where = {fn: module for module, fns in traced.items() for fn in fns}
    for fn in TRACED_FUNCTIONS:
        assert fn in where, fn
        assert callable(getattr(importlib.import_module("reglab." + where[fn]), fn, None)), fn


def test_no_future_import_and_no_typing_namedtuple():
    # a fresh process pays for importing __future__ and for building each
    # typing.NamedTuple class; collections.namedtuple makes the same records
    found = [(path.name, module, name) for path in SRC for module, name in _imports_from(path)
             if module == "__future__" or (module == "typing" and name == "NamedTuple")]
    found += [(path.name, "typing", "NamedTuple") for path in SRC
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and node.attr == "NamedTuple"]
    assert found == []


def test_only_the_arithmetic_types_define_equality_or_hashing():
    # a record is a collections.namedtuple, which compares and hashes by value
    found = {node.name for path in SRC for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef)
             and any(isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
                     for item in node.body)}
    assert found == {"Polynomial", "RationalFunction"}
