import os
import subprocess
import sys

import singlepull


def test_import_does_not_load_scipy_optimize():
    """scipy.optimize is imported inside simplex.solve, on the first LP solve only."""
    src = os.path.dirname(os.path.dirname(singlepull.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, singlepull; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"
