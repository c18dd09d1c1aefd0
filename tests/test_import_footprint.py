"""Importing fbcsf loads no scipy package: the one LAPACK routine it calls,
dgtsv, and the compiled Brent loop behind safe_brentq, _brentq, come from
scipy's compiled extensions, each loaded by itself (solve._load_extension),
and importing scipy.linalg or scipy.optimize around them costs more
start-up time than a short run.  The LAPACK extension is loaded by the
first tridiagonal solve, so a process that only builds ovals never maps
it; the Brent one by the first bracketed solve.  Loading either leaves
sys.modules as it was found, whichever of fbcsf and scipy is imported
first."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbcsf
from fbcsf import flow, solve

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


# one bracketed solve, the first of the process unless one ran before
_BRENT = """
import math
from fbcsf import solve
solve.safe_brentq(math.cos, 1.0, 2.0)
"""

_ZEROS_CHECKS = """
import json, sys
import scipy.optimize
""" + _BRENT + """
print(json.dumps({
    "same_brentq": solve._brentq is scipy.optimize._zeros._brentq,
    "zeros_attribute": "_zeros" in vars(scipy.optimize),
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


# the mappings of the process, None without /proc/self/maps; whether an
# extension is mapped, by its file's stem
_MAPPED = """
import os


def mapped(stem):
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as f:
            return stem in f.read()
"""

_needs_maps = pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"),
    reason="no /proc/self/maps to read the mappings from")


@_needs_maps
def test_fbcsf_imports_map_neither_extension():
    got = _fresh(_IMPORT_ALL + _MAPPED + """
import json
print(json.dumps([mapped("_flapack"), mapped("_zeros")]))
""")
    assert got == [False, False]


# the first solve loads the extension before or after scipy.linalg does
@pytest.mark.parametrize("first", [_SOLVE, "import scipy.linalg\n"],
                         ids=["fbcsf_first", "scipy_first"])
def test_dgtsv_is_scipys_and_sys_modules_is_left_alone(first):
    alone = _fresh("import scipy.linalg\n" + _SCIPY_MODULES)
    got = _fresh(first + _FLAPACK_CHECKS)
    assert got["same_dgtsv"]
    assert got["flapack_attribute"]
    assert got["scipy_modules"] == alone


# the first bracketed solve loads _zeros before or after scipy.optimize does
@pytest.mark.parametrize("first", [_BRENT, "import scipy.optimize\n"],
                         ids=["fbcsf_first", "scipy_first"])
def test_brentq_is_scipys_and_sys_modules_is_left_alone(first):
    alone = _fresh("import scipy.optimize\n" + _SCIPY_MODULES)
    got = _fresh(first + _ZEROS_CHECKS)
    assert got["same_brentq"]
    assert got["zeros_attribute"]
    assert got["scipy_modules"] == alone


# a fresh interpreter, with one BLAS thread as the benchmark runs, that
# imports every fbcsf module, normalizes the egg's longest diameter and
# builds its rho = 0.1 oval: its peak RSS in MB (VmHWM: the ru_maxrss of a
# child counts its parent's peak at the fork) and whether the LAPACK and
# the Brent extensions are mapped, each None without /proc/self to read
# them from
_OVAL_ONLY = """
import json, os
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"
""" + _IMPORT_ALL + _MAPPED + """
from fbcsf import geometry, oval

egg = geometry.ConvexDomain([1.0, 0.0, 0.2], [0.0, 0.0, 0.0, 0.1])
oval.construct_orthogonal_oval(
    geometry.normalize(egg, geometry.find_diameters(egg)[0]), 0.1)
status = ""
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as f:
        status = f.read()
footprint = {
    "peak_rss_mb": next((round(int(line.split()[1]) / 1024, 2)
                         for line in status.splitlines()
                         if line.startswith("VmHWM:")), None),
    "flapack_mapped": mapped("_flapack"),
    "zeros_mapped": mapped("_zeros"),
}
"""


def oval_only_footprint():
    """The oval-only process's peak RSS in MB and whether it maps the LAPACK
    and the Brent extensions."""
    return _fresh(_OVAL_ONLY + "print(json.dumps(footprint))")


@_needs_maps
def test_only_a_solve_maps_the_lapack_extension():
    got = _fresh(_OVAL_ONLY + _SOLVE + """
print(json.dumps([footprint["flapack_mapped"], mapped("_flapack")]))
""")
    assert got == [False, True]


@_needs_maps
def test_an_oval_build_maps_the_brent_extension_alone():
    got = oval_only_footprint()
    assert (got["zeros_mapped"], got["flapack_mapped"]) == (True, False)


def _scipy_without(monkeypatch, tmp_path, name):
    """A scipy whose subpackage directory holds no extension `name`."""
    (tmp_path / name.split(".")[1]).mkdir()
    spec = importlib.util.spec_from_loader("scipy", loader=None,
                                           is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda _: spec)
    monkeypatch.delitem(sys.modules, name, raising=False)


def test_missing_extension_raises_import_error(monkeypatch, tmp_path):
    # the first tridiagonal solve of a scipy without _flapack
    _scipy_without(monkeypatch, tmp_path, flow._FLAPACK)
    monkeypatch.setattr(flow, "dgtsv", None)
    with pytest.raises(ImportError, match="_flapack"):
        flow._tridiag_solve(np.ones(1), np.full(2, 4.0), np.ones(1),
                            np.ones((2, 1), order="F"))
    assert flow._FLAPACK not in sys.modules


def test_missing_brent_extension_raises_import_error(monkeypatch, tmp_path):
    # the first bracketed solve of a scipy without _zeros
    _scipy_without(monkeypatch, tmp_path, solve._ZEROS)
    monkeypatch.setattr(solve, "_brentq", None)
    with pytest.raises(ImportError, match="_zeros"):
        solve.safe_brentq(math.cos, 1.0, 2.0)
    assert solve._ZEROS not in sys.modules
