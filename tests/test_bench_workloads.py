"""The benchmark's own correctness gates, run on the library: the
egg_analysis checks on the shared egg run, and the oval family's set-up,
accuracy and checks on one diameter.  They guard every library call that
bench/workloads.py makes.  The oval family's builds are also compared
with builds on upper arcs synthesized in one call."""

import sys
import types
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from fbcsf import flow, geometry
from test_geometry import _one_call_point

BENCH = Path(__file__).resolve().parents[1] / "bench"


@contextmanager
def bench_modules():
    """bench/workloads.py as a module, for the duration of the block."""
    # executed from source so nothing is written next to the bench scripts;
    # workloads.py imports tracing.py by its plain module name
    with pytest.MonkeyPatch.context() as mp:
        mods = {}
        for name in ("tracing", "workloads"):
            path = BENCH / f"{name}.py"
            mod = types.ModuleType(name)
            mod.__file__ = str(path)
            mp.setitem(sys.modules, name, mod)
            exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
                 mod.__dict__)
            mods[name] = mod
        yield mods["workloads"]


@pytest.fixture(scope="module")
def workloads():
    with bench_modules() as mod:
        yield mod


def _failed(checks):
    return [(name, detail) for name, ok, detail in checks if not ok]


def test_egg_analysis_gate(workloads, runs, negg):
    wl = workloads.WORKLOADS["egg_analysis"]
    # the shared run is the benchmark's egg input
    assert (wl.rho, wl.cfg) == (0.1, flow.SolverConfig(n_nodes=100,
                                                       dt_safety=0.8))
    traj = runs("egg_r01_n100")
    checks = wl.checks(traj, workloads.analysis_chain(traj, negg))
    assert len(checks) == 6
    assert not _failed(checks)


def test_oval_family_gate_on_one_diameter(workloads):
    fam = workloads.WORKLOADS["oval_family"]
    diameters = fam.setup()
    label, index, _ = workloads.ACCURACY_ATTEMPT
    one = [d for d in diameters if d[:2] == (label, index)]
    _, results = fam.sweep(fam.attempts(one, workloads.DEFAULT_SEED))
    assert [r.rho for r in results] == list(workloads.RHO_GRID)
    unexpected, checks = fam.checks(diameters, results)
    assert not unexpected
    assert not _failed(checks)
    metrics, checks = fam.accuracy(diameters)
    assert set(metrics) == {"rate_relerr", "profile_c_abserr"}
    assert not _failed(checks)


def _one_call_arc(dom):
    """ConvexDomain.upper_arc from the one-call synthesis of the arc."""
    om = np.linspace(np.pi / 2, 3 * np.pi / 2, geometry._UPPER_ARC_SAMPLES)
    pts = _one_call_point(dom, om)
    out = (om, pts[:, 0].copy(), pts[:, 1].copy())
    for arr in out:
        arr.flags.writeable = False
    return out


def test_oval_family_builds_are_those_on_one_call_arcs(workloads,
                                                       monkeypatch):
    # the 45 default attempts and a drawn grid: the same lam, xi and node
    # bytes (Attempt.key) on blocked arcs as on one-call arcs
    fam = workloads.WORKLOADS["oval_family"]
    seeds = (workloads.DEFAULT_SEED, 7)

    def keys():
        diameters = fam.setup()
        return [[r.key() for r in fam.sweep(fam.attempts(diameters, seed))[1]]
                for seed in seeds]

    blocked = keys()
    arc = cached_property(_one_call_arc)
    arc.__set_name__(geometry.ConvexDomain, "upper_arc")
    monkeypatch.setattr(geometry.ConvexDomain, "upper_arc", arc)
    one_call = keys()
    assert [len(k) for k in blocked] == [45, 45]
    assert blocked == one_call
