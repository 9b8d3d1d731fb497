import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Put first on the child's meta path, this finder makes scipy and every
# scipy.* module raise ModuleNotFoundError, so the child runs the numpy-only
# path that a `pip install .` without the test extras gives, though the tests
# themselves need scipy as an oracle.
_NO_SCIPY = """\
import sys
class _NoScipy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, _NoScipy)
del _NoScipy
"""


@pytest.fixture(scope="session")
def run_fresh():
    """``run(code, env=None)`` runs ``code`` in a fresh interpreter with scipy
    unimportable and ``src`` first on ``PYTHONPATH``, in ``env`` (default: this
    process's environment).  It returns the completed process, with text
    output, and raises if the child exits non-zero or runs over 300 s."""
    def run(code, env=None):
        env = dict(os.environ if env is None else env)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", _NO_SCIPY + code], capture_output=True,
                              text=True, env=env, check=True, timeout=300)
    return run
