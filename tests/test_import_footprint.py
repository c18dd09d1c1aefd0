"""Importing fbcsf loads no scipy package: the one LAPACK routine it calls,
dgtsv, comes from scipy's compiled extension loaded by itself, and
importing scipy.linalg around it costs more start-up time than a short
run.  Loading the extension leaves sys.modules as it was found, whichever
of fbcsf and scipy.linalg is imported first."""

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

_FLAPACK_CHECKS = """
import json, sys
import scipy.linalg
from fbcsf import flow
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


@pytest.mark.parametrize("first", ["import fbcsf.flow\n",
                                   "import scipy.linalg\n"],
                         ids=["fbcsf_first", "scipy_first"])
def test_dgtsv_is_scipys_and_sys_modules_is_left_alone(first):
    alone = _fresh("import scipy.linalg\n" + _SCIPY_MODULES)
    got = _fresh(first + _FLAPACK_CHECKS)
    assert got["same_dgtsv"]
    assert got["flapack_attribute"]
    assert got["scipy_modules"] == alone


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
