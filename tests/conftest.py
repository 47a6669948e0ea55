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


@pytest.fixture
def fresh_kernel(monkeypatch):
    """integer_kernel with a new _IntegerBases and both caches empty; the caches are
    cleared again at teardown, so no later test gets a power built on these bases."""
    from reglab import integer_kernel

    def clear():
        integer_kernel.scaled_power.cache_clear()
        integer_kernel._scale_lists.cache_clear()

    monkeypatch.setattr(integer_kernel, "_BASES", integer_kernel._IntegerBases())
    clear()
    yield
    clear()
