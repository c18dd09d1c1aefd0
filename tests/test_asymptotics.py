"""Analysis layer: estimate reports on a recorded run, the Robin spectrum
against closed forms, and the mirror run used for uniqueness."""

import dataclasses

import numpy as np
import pytest

from fbcsf import asymptotics, flow, oval
from fbcsf.solve import safe_brentq


def test_estimate_report_on_disk_run(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    report = asymptotics.verify_estimates(traj, 0.25, lam0)
    assert all(type(rec.passed) is bool for rec in report.records)
    # on the disk the height-ratio defect is positive on fewer than eight
    # states, so both pinches hold outright and report the required rate
    for name in ("height_ratio_lower", "height_ratio_upper"):
        rec = report.record(name)
        assert rec.extras["vacuous"] is True
        assert rec.passed
        assert rec.fitted_rate == rec.required_rate


def test_estimates_same_with_curvature_recomputed(runs, ndisk):
    # the stored states carry the curvature the run computed; a copy with
    # that cache cleared must give the same records bit for bit
    traj = runs("disk_r03_n100")
    bare = dataclasses.replace(traj, states=[
        flow.CurveState(nodes=s.nodes, time=s.time, om_minus=s.om_minus,
                        om_plus=s.om_plus) for s in traj.states])
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    cached = asymptotics.verify_estimates(traj, 0.25, lam0)
    fresh = asymptotics.verify_estimates(bare, 0.25, lam0)
    assert ([dataclasses.asdict(r) for r in cached.records]
            == [dataclasses.asdict(r) for r in fresh.records])


# ---------------------------------------------------------------------------
# Robin eigenproblem


def test_robin_disk_single_negative_eigenvalue():
    # kappa1 = kappa2 = 1: mu = -lambda0^2 with lambda0 tanh lambda0 = 1
    lam = safe_brentq(lambda s: s * np.tanh(s) - 1.0, 0.5, 2.0)
    eig = asymptotics.robin_eigen(1.0, 1.0)
    assert len(eig.negative_eigenvalues) == 1
    mu = eig.negative_eigenvalues[0].mu
    assert abs(mu + lam * lam) < 1e-13
    assert abs(mu + 1.4392288398906) < 1e-12
    assert eig.convexity_flags == [True]


def test_robin_egg_second_negative_eigenvalue(negg):
    eig = asymptotics.robin_eigen(negg.kappa1, negg.kappa2)
    mus = [p.mu for p in eig.negative_eigenvalues]
    assert len(mus) == 2
    assert abs(mus[1] - (-0.979876009738524)) < 1e-9
    # the principal eigenfunction is positive, the second changes sign
    assert eig.convexity_flags == [True, False]


@pytest.mark.parametrize("domain", ["ndisk", "negg"])
def test_robin_eigen_residuals(domain, request):
    ndom = request.getfixturevalue(domain)
    k1, k2 = ndom.kappa1, ndom.kappa2
    eig = asymptotics.robin_eigen(k1, k2)
    assert len(eig.positive_eigenvalues) == 3
    for p in eig.negative_eigenvalues + eig.positive_eigenvalues:
        # the ODE residual differences two O(mu) terms
        scale = 1.0 + max(p.mu, 0.0)
        assert max(asymptotics.eigen_residuals(p, k1, k2)) / scale <= 1e-14


# ---------------------------------------------------------------------------
# mirror run


def test_reflect_trajectory_leaves_the_run_unchanged(runs):
    traj = runs("disk_r03_n100")
    nodes = [s.nodes.copy() for s in traj.states]
    kaps = [s._kap for s in traj.states]
    monitors = {k: np.array(v, copy=True) for k, v in traj.monitors.items()}
    ext = np.array(traj.extinction_point, copy=True)

    mirror = asymptotics.reflect_trajectory(traj)

    for s, x, k in zip(traj.states, nodes, kaps):
        assert np.array_equal(s.nodes, x)
        assert s._kap is k
    for key, val in monitors.items():
        assert np.array_equal(traj.monitors[key], val, equal_nan=True)
    assert np.array_equal(traj.extinction_point, ext)
    for s, m in zip(traj.states, mirror.states):
        assert np.array_equal(m.nodes[:, 1], -s.nodes[:, 1])
        assert m._kap is None
    assert np.array_equal(mirror.monitors["y_at_x2"],
                          -traj.monitors["y_at_x2"], equal_nan=True)
    assert np.array_equal(mirror.extinction_point, ext * [1.0, -1.0])


def test_reflect_twice_gives_back_the_heights(runs):
    traj = runs("disk_r03_n100")
    back = asymptotics.reflect_trajectory(asymptotics.reflect_trajectory(traj))
    xs = np.linspace(-0.85, 0.85, 41)
    for t in np.linspace(traj.alpha, -0.3, 9):
        assert np.array_equal(back.heights_at_time(t, xs),
                              traj.heights_at_time(t, xs), equal_nan=True)
    for key in traj.monitors:
        assert np.array_equal(back.monitors[key], traj.monitors[key],
                              equal_nan=True)
