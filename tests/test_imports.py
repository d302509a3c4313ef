"""Cold start: importing cylcov loads numpy and scipy.special, nothing heavier."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# scipy subpackages whose import costs about 0.6 s of a cold start
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = (
        "import sys\n"
        "import cylcov\n"
        f"loaded = [name for name in {HEAVY!r} if name in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
