"""Analysis layer: estimate reports on a recorded run, the Robin spectrum
against closed forms, and the mirror run used for uniqueness."""

import collections.abc
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from fbcsf import asymptotics, flow, geometry, oval
from fbcsf.errors import ConfigError
from fbcsf.solve import safe_brentq
from test_analysis_passes import _reference_uniqueness, _same_bits


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


def test_fits_are_sampling_independent(runs, negg):
    # the fits weight each sample by its share of the window's time, so
    # dropping every second state barely moves them (measured: rate by
    # 1.2e-6, c by 3.0e-8; unweighted fits moved by 8.1e-5 and 7.2e-7)
    traj = runs("egg_r01_n100")
    half = dataclasses.replace(
        traj, states=traj.states[::2], state_times=traj.state_times[::2],
        monitors={key: np.asarray(val)[::2]
                  for key, val in traj.monitors.items()})
    lam0 = oval.solve_lambda0(negg.kappa1, negg.kappa2)
    k = (negg.kappa1, negg.kappa2)
    rates, cs = [], []
    for tr in (traj, half):
        report = asymptotics.verify_estimates(tr, 0.25, lam0)
        rates.append(report.record("turning_angle_decay").fitted_rate)
        cs.append(asymptotics.fit_profile(tr, lam0, *k).c)
    assert abs(rates[1] - rates[0]) < 1e-3
    assert abs(cs[1] - cs[0]) < 2e-5


def test_rescaled_increments_shrink_toward_the_past(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    mids, diffs = asymptotics.rescaled_increments(traj, lam0)
    assert len(mids) == len(diffs) >= 5
    assert np.all(np.diff(mids) > 0.0)
    assert np.all(diffs > 0.0)
    assert np.all(np.diff(diffs) > 0.0)


# each analysis entry point with one of its rates replaced by `bad`
_RATE_INPUTS = {
    "verify_estimates_r": lambda traj, lam0, k, bad:
        asymptotics.verify_estimates(traj, bad, lam0),
    "verify_estimates_lambda0": lambda traj, lam0, k, bad:
        asymptotics.verify_estimates(traj, 0.25, bad),
    "fit_profile_lambda0": lambda traj, lam0, k, bad:
        asymptotics.fit_profile(traj, bad, *k),
    "rescaled_increments_lambda0": lambda traj, lam0, k, bad:
        asymptotics.rescaled_increments(traj, bad),
}


@pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(_RATE_INPUTS))
def test_analysis_rejects_rates_that_are_not_finite_and_positive(
        runs, ndisk, call, bad):
    # r = 0 or -0.25 and lambda0 = NaN used to pass verify_estimates, and
    # fit_profile ended in scipy's LinAlgError for lambda0 in {0, NaN, inf}
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    with pytest.raises(ConfigError):
        _RATE_INPUTS[call](traj, lam0, (ndisk.kappa1, ndisk.kappa2), bad)


def test_uniqueness_of_a_run_with_itself_and_its_mirror(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    same = asymptotics.uniqueness_evidence(traj, traj, lam0)
    assert same.tau_star == 0.0 and same.distance == 0.0
    assert not same.tau_at_edge
    # the mirror run lies on the other side of the diameter: O(1) apart
    # (measured 0.935)
    mirror = asymptotics.reflect_trajectory(traj)
    apart = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    assert 0.25 <= apart.distance <= 4.0


@pytest.mark.parametrize("name,dom", [("disk_r03_n100", "ndisk"),
                                      ("egg_r01_n100", "negg")])
def test_mirror_shift_is_labelled_at_the_scan_edge(runs, name, dom,
                                                   request):
    # the distance to the mirror run falls towards earlier shifts all the
    # way to the edge of the scan (measured tau* = -0.5 on both runs), so
    # it is an upper bound on the minimum over shifts, and says so
    ndom = request.getfixturevalue(dom)
    traj = runs(name)
    lam0 = oval.solve_lambda0(ndom.kappa1, ndom.kappa2)
    apart = asymptotics.uniqueness_evidence(
        traj, asymptotics.reflect_trajectory(traj), lam0)
    assert apart.tau_at_edge and apart.tau_star < 0.0


def test_uniqueness_reads_each_run_once(runs, ndisk, monkeypatch):
    # the first run's heights at the sample times are read once for all
    # the shifts, the mirror's once for the whole scan (its best shift is
    # the scan's edge, so no refinement reads it again), and the report is
    # the one that reading both runs at every shift, one sample time at a
    # time, gives, bit for bit
    traj = runs("disk_r03_n100")
    mirror = asymptotics.reflect_trajectory(traj)
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    readers = []
    read = flow.Trajectory.heights_at_time

    def counting_read(self, t_offsets, xs):
        readers.append(self)
        return read(self, t_offsets, xs)

    monkeypatch.setattr(flow.Trajectory, "heights_at_time", counting_read)
    once = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    assert sum(r is traj for r in readers) == 1
    assert sum(r is mirror for r in readers) == 1
    tau, dist, window = _reference_uniqueness(traj, mirror)
    assert ([float(v).hex() for v in (once.tau_star, once.distance,
                                      *once.window)]
            == [float(v).hex() for v in (tau, dist, *window)])


def test_uniqueness_at_the_scan_edge_reads_only_the_scan(runs, ndisk,
                                                          monkeypatch):
    # the best shift to the mirror run is the scan's first (tau* = -0.5),
    # so the report is the scanned value, with no golden-section reads;
    # refining there would not have lowered it
    traj = runs("disk_r03_n100")
    mirror = asymptotics.reflect_trajectory(traj)
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    reads = []
    read = asymptotics.matched_distance

    def counting_read(ya, yb):
        reads.append(1)
        return read(ya, yb)

    monkeypatch.setattr(asymptotics, "matched_distance", counting_read)
    rep = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    assert len(reads) == 41
    assert rep.tau_at_edge and rep.tau_star == -asymptotics._TAU_SPAN
    tau, dist, window = _reference_uniqueness(traj, mirror)
    assert ([float(v).hex() for v in (rep.tau_star, rep.distance,
                                      *rep.window)]
            == [float(v).hex() for v in (tau, dist, *window)])


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


# the minor axis of ellipse(1.5, 1) and the major axis of ellipse(2.4, 1):
# on a symmetric chord every mode is even or odd, and the odd ones used to
# come back with NaN coefficients and a RuntimeWarning
@pytest.mark.parametrize("kappa", [4 / 9, 5.76])
def test_robin_symmetric_chord_modes_are_finite_and_even_or_odd(kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = asymptotics.robin_eigen(kappa, kappa)
    pairs = eig.negative_eigenvalues + eig.positive_eigenvalues
    assert np.all(np.isfinite([p.coeffs for p in pairs]))
    assert all(p.coeffs[0] >= 0.0 for p in pairs)
    # at 5.76 the second negative eigenvalue lies 2.6e-3 above the
    # principal one; that mode stays ill-conditioned (residual 7.1e-11,
    # the same before the even/odd basis), so it is left out.  Elsewhere
    # the smaller coefficient measured at most 3.1e-12 of the larger
    for p in eig.negative_eigenvalues[:1] + eig.positive_eigenvalues:
        small, large = sorted(abs(c) for c in p.coeffs)
        assert small <= 1e-10 * large
        scale = 1.0 + max(p.mu, 0.0)
        assert max(asymptotics.eigen_residuals(p, kappa, kappa)) <= \
            1e-14 * scale


@pytest.mark.parametrize("a", [1.5, 2.4])
def test_robin_spectrum_on_every_ellipse_diameter(a):
    dom = geometry.ConvexDomain.ellipse(a, 1.0)
    for d in geometry.find_diameters(dom):
        ndom = geometry.normalize(dom, d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = asymptotics.robin_eigen(ndom.kappa1, ndom.kappa2)
        pairs = eig.negative_eigenvalues + eig.positive_eigenvalues
        assert np.all(np.isfinite([p.coeffs for p in pairs]))


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


def test_mirror_states_are_a_read_only_view(runs):
    traj = runs("disk_r03_n100")
    states = asymptotics.reflect_trajectory(traj).states
    flip = np.array([1.0, -1.0])
    n = len(traj.states)
    assert isinstance(states, collections.abc.Sequence)
    assert len(states) == n
    for k in (0, 7, n - 1, -1, -n):
        assert _same_bits(states[k].nodes, traj.states[k].nodes * flip)
        assert states[k].time == traj.states[k].time
    # every read builds a new state
    assert states[3] is not states[3]
    for part, want in ((states[10:20:3], traj.states[10:20:3]),
                       (states[-3:], traj.states[-3:])):
        assert len(part) == len(want)
        for m, s in zip(part, want):
            assert _same_bits(m.nodes, s.nodes * flip)
    count = 0
    for m, s in zip(states, traj.states):
        assert _same_bits(m.nodes, s.nodes * flip)
        count += 1
    assert count == n
    with pytest.raises(IndexError):
        states[n]
    with pytest.raises(TypeError):
        states[0] = traj.states[0]
    back = asymptotics.reflect_trajectory(
        asymptotics.reflect_trajectory(traj)).states
    assert len(back) == n
    for k in (0, 7, -1):
        assert _same_bits(back[k].nodes, traj.states[k].nodes)


def test_making_the_mirror_reads_and_copies_no_state(runs, monkeypatch):
    # the states are mirrored when read: making the mirror allocates only
    # its height monitors (2,095 KB when it copied every state)
    traj = runs("disk_r03_n100")
    reads = []
    read = flow.CurveState.heights_at

    def counting_read(self, xs):
        reads.append(1)
        return read(self, xs)

    monkeypatch.setattr(flow.CurveState, "heights_at", counting_read)
    asymptotics.reflect_trajectory(traj)
    tracemalloc.start()
    try:
        mirror = asymptotics.reflect_trajectory(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(mirror.states) == len(traj.states)
    assert not reads
    assert peak < 128 * 1024


def test_reflect_twice_gives_back_the_heights(runs):
    traj = runs("disk_r03_n100")
    back = asymptotics.reflect_trajectory(asymptotics.reflect_trajectory(traj))
    xs = np.linspace(-0.85, 0.85, 41)
    ts = np.linspace(traj.alpha, -0.3, 9)
    assert np.array_equal(back.heights_at_time(ts, xs),
                          traj.heights_at_time(ts, xs), equal_nan=True)
    for key in traj.monitors:
        assert np.array_equal(back.monitors[key], traj.monitors[key],
                              equal_nan=True)
