"""The module layout that the checks and the benchmark rely on.

bigreal owns BigReal and the fixed-point kernels, so the routes that check
the series route (hypergeometric, elliptic_oracle) and the exact layer
(exact_series) depend on it and not on the series route's own module.  No
module reaches into another's private names.  The benchmark names modules
and traced functions in bench/; a move that loses one would zero its
per-layer metrics without failing, so the names are resolved here.  The
bench files are read as source, not imported.
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
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, {}; print('reglab.bigreal_periods' in sys.modules, "
         "'reglab.bigreal' in sys.modules)".format(module)],
        capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().split() == ["False", "True"]


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
