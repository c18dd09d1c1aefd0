"""Importing fbcsf loads numpy and scipy.linalg only: the heavy scipy
subpackages cost more start-up time than a short run."""

import os
import subprocess
import sys
from pathlib import Path

import fbcsf

_PROBE = """
import pkgutil, sys
import fbcsf
for mod in pkgutil.iter_modules(fbcsf.__path__):
    __import__("fbcsf." + mod.name)
print(" ".join(m for m in ("scipy.interpolate", "scipy.optimize",
                           "scipy.special") if m in sys.modules))
"""


def test_fbcsf_does_not_import_heavy_scipy_subpackages():
    src = str(Path(fbcsf.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
