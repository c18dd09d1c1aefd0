"""Importing fbcsf loads no scipy package: the one LAPACK routine it calls,
dgtsv, comes from scipy's compiled extension loaded by itself, and
importing scipy.linalg around it costs more start-up time than a short
run.  The extension is loaded by the first tridiagonal solve, so a process
that only builds ovals never maps it.  Loading it leaves sys.modules as it
was found, whichever of fbcsf and scipy.linalg is imported first."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fbcsf
from fbcsf import flow

_IMPORT_ALL = """
import pkgutil
import fbcsf
for mod in pkgutil.iter_modules(fbcsf.__path__):
    __import__("fbcsf." + mod.name)
"""

_SCIPY_MODULES = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

# one tridiagonal solve, the first of the process unless one ran before
_SOLVE = """
import numpy as np
from fbcsf import flow
flow._tridiag_solve(np.ones(1), np.full(2, 4.0), np.ones(1),
                    np.ones((2, 1), order="F"))
"""

_FLAPACK_CHECKS = """
import json, sys
import scipy.linalg
""" + _SOLVE + """
print(json.dumps({
    "same_dgtsv": flow.dgtsv is scipy.linalg.lapack.dgtsv,
    "flapack_attribute": "_flapack" in vars(scipy.linalg),
    "scipy_modules": sorted(m for m in sys.modules
                            if m == "scipy" or m.startswith("scipy.")),
}))
"""


def _fresh(code):
    """Run code in a fresh interpreter that finds fbcsf; its stdout as
    JSON."""
    src = str(Path(fbcsf.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_fbcsf_imports_no_scipy_module():
    assert _fresh(_IMPORT_ALL + _SCIPY_MODULES) == []


# the first solve loads the extension before or after scipy.linalg does
@pytest.mark.parametrize("first", [_SOLVE, "import scipy.linalg\n"],
                         ids=["fbcsf_first", "scipy_first"])
def test_dgtsv_is_scipys_and_sys_modules_is_left_alone(first):
    alone = _fresh("import scipy.linalg\n" + _SCIPY_MODULES)
    got = _fresh(first + _FLAPACK_CHECKS)
    assert got["same_dgtsv"]
    assert got["flapack_attribute"]
    assert got["scipy_modules"] == alone


# a fresh interpreter, with one BLAS thread as the benchmark runs, that
# imports every fbcsf module, normalizes the egg's longest diameter and
# builds its rho = 0.1 oval: its peak RSS in MB (VmHWM: the ru_maxrss of a
# child counts its parent's peak at the fork) and whether the LAPACK
# extension is mapped, each None without /proc/self to read them from
_OVAL_ONLY = """
import json, os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"
""" + _IMPORT_ALL + """
from fbcsf import geometry, oval


def proc_self(name):
    path = "/proc/self/" + name
    if os.path.exists(path):
        with open(path) as f:
            return f.read()


def flapack_mapped():
    maps = proc_self("maps")
    return None if maps is None else "_flapack" in maps


egg = geometry.ConvexDomain([1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.1])
oval.construct_orthogonal_oval(
    geometry.normalize(egg, geometry.find_diameters(egg)[0]), 0.1)
status = proc_self("status") or ""
footprint = {
    "peak_rss_mb": next((round(int(line.split()[1]) / 1024, 2)
                         for line in status.splitlines()
                         if line.startswith("VmHWM:")), None),
    "flapack_mapped": flapack_mapped(),
}
"""


def oval_only_footprint():
    """The oval-only process's peak RSS in MB and whether it maps LAPACK."""
    return _fresh(_OVAL_ONLY + "print(json.dumps(footprint))")


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="no /proc/self/maps to read the mappings from")
def test_only_a_solve_maps_the_lapack_extension():
    got = _fresh(_OVAL_ONLY + _SOLVE + """
print(json.dumps([footprint["flapack_mapped"], flapack_mapped()]))
""")
    assert got == [False, True]


def test_missing_extension_raises_import_error(monkeypatch, tmp_path):
    # a scipy whose linalg directory holds no _flapack extension
    (tmp_path / "linalg").mkdir()
    spec = importlib.util.spec_from_loader("scipy", loader=None,
                                           is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    with pytest.raises(ImportError, match="_flapack"):
        flow._load_dgtsv()
    assert "scipy.linalg._flapack" not in sys.modules
