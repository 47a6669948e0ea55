import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def env_without_mpmath(tmp_path_factory):
    """The environment for a fresh process that runs reglab from src with mpmath
    unimportable: first on PYTHONPATH is a package mpmath that raises ImportError."""
    shadow = tmp_path_factory.mktemp("shadow")
    (shadow / "mpmath").mkdir()
    (shadow / "mpmath" / "__init__.py").write_text('raise ImportError("mpmath is shadowed")\n')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(shadow), str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", "import mpmath"], capture_output=True,
                           env=env, timeout=120)
    assert b"mpmath is shadowed" in probe.stderr, probe.stderr
    return env
