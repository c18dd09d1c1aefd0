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


def test_estimates_build_no_wall_on_a_recorded_run(runs, ndisk, monkeypatch):
    # run_to_extinction caches every stored state's curvature, so the
    # analysis needs no wall table; a state without it still gets one
    traj = runs("disk_r03_n100")
    built = []
    init = flow.ConvexWall.__init__

    def counting_init(self, ndom):
        built.append(ndom)
        init(self, ndom)

    monkeypatch.setattr(flow.ConvexWall, "__init__", counting_init)
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    asymptotics.verify_estimates(traj, 0.25, lam0)
    assert built == []
    bare = dataclasses.replace(traj, states=[
        flow.CurveState(nodes=s.nodes, time=s.time, om_minus=s.om_minus,
                        om_plus=s.om_plus) for s in traj.states])
    asymptotics.verify_estimates(bare, 0.25, lam0)
    assert built == [ndisk]


def test_turning_angle_rate_is_sharp(disk_sweep, ndisk):
    # the fitted rate tends to lambda0^2 as rho falls (measured relative
    # errors 1.36e-3, 7.46e-4, 4.63e-4 at rho = 0.2, 0.1, 0.05); the error
    # follows rho, not n (2.25e-3 and 2.29e-3 at rho = 0.3, n = 100, 200)
    lam2 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2) ** 2
    errs = []
    for traj in disk_sweep.trajectories:
        report = asymptotics.verify_estimates(traj, 0.25, np.sqrt(lam2))
        rate = report.record("turning_angle_decay").fitted_rate
        errs.append(abs(rate - lam2) / lam2)
    assert disk_sweep.rhos == [0.2, 0.1, 0.05]
    assert max(errs) < 2e-3
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------------
# limiting profile and uniqueness


def test_disk_profile_is_an_even_cosh(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    prof = asymptotics.fit_profile(traj, lam0, ndisk.kappa1, ndisk.kappa2)
    # mirror symmetry: no sinh part (measured -1.25e-12), A = 0.5706
    assert prof.c_closed_form == 0.0
    assert abs(prof.c) < 1e-9
    assert prof.A > 0.0


def test_egg_profile_matches_closed_form_c(runs, negg):
    traj = runs("egg_r01_n100")
    lam0 = oval.solve_lambda0(negg.kappa1, negg.kappa2)
    prof = asymptotics.fit_profile(traj, lam0, negg.kappa1, negg.kappa2)
    c_cf = asymptotics.closed_form_c(lam0, negg.kappa1, negg.kappa2)
    assert prof.c_closed_form == c_cf
    assert abs(prof.c - c_cf) < 2e-3      # measured 6.9e-4


def test_rescaled_increments_shrink_toward_the_past(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    mids, diffs = asymptotics.rescaled_increments(traj, lam0)
    assert len(mids) == len(diffs) >= 5
    assert np.all(np.diff(mids) > 0.0)
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) > 0.0)


def test_uniqueness_of_a_run_with_itself_and_its_mirror(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    same = asymptotics.uniqueness_evidence(traj, traj, lam0)
    assert same.tau_star == 0.0 and same.distance == 0.0
    # the mirror run lies on the other side of the diameter: O(1) apart
    # (measured 0.935)
    mirror = asymptotics.reflect_trajectory(traj)
    apart = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    assert 0.25 <= apart.distance <= 4.0


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
        # the Robin residuals difference slopes that grow with mu
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
