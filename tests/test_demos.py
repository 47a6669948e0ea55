"""Every demo runs to exit 0 in a fresh process in which mpmath cannot be
imported, and every name any demo imports from reglab exists.

The demos import names from across the package, so a moved or renamed name
shows here, both when a demo runs and when its imports are resolved from the
source without running it.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 7


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo, env_without_mpmath):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env_without_mpmath, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_imports_resolve(demo):
    tree = ast.parse((ROOT / "demos" / demo).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("reglab")
               for alias in node.names]
    assert imports, "no reglab import found"
    missing = [(module, name) for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
