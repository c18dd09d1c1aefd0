"""Analysis layer: estimate reports on a recorded run, the Robin spectrum
against closed forms, and the mirror run used for uniqueness."""

import collections.abc
import dataclasses
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from fbcsf import asymptotics, flow, geometry, oval
from fbcsf.errors import AnalysisError, ConfigError, UnknownRecord
from fbcsf.solve import safe_brentq
from test_analysis_passes import _same_bits
from test_flow import _READ_X, _linear_trajectory


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


def test_unknown_record_is_a_typed_key_error(runs, ndisk):
    # a name no record carries raises UnknownRecord: an AnalysisError, and
    # a KeyError with the name as its key, so except KeyError still works
    traj = runs("disk_r03_n100")
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    report = asymptotics.verify_estimates(traj, 0.25, lam0)
    with pytest.raises(UnknownRecord) as info:
        report.record("no_such_estimate")
    assert isinstance(info.value, AnalysisError)
    assert isinstance(info.value, KeyError)
    assert info.value.args == ("no_such_estimate",)
    try:
        report.record("")
    except KeyError as exc:
        assert type(exc) is UnknownRecord
    else:
        pytest.fail("no KeyError")


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
    # analysis needs no wall table; a state without it reads the domain's
    # wall (flow.wall_for), built once for the domain, here emptied first
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
    monkeypatch.setattr(flow, "_WALLS", weakref.WeakKeyDictionary())
    for _ in range(2):
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
        traj, states=traj.states[::2], monitors={key: np.asarray(val)[::2]
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
    # (measured 1.329)
    mirror = asymptotics.reflect_trajectory(traj)
    apart = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    assert 0.25 <= apart.distance <= 4.0


@pytest.mark.parametrize("name,dom", [("disk_r03_n100", "ndisk"),
                                      ("egg_r01_n100", "negg")])
def test_mirror_shift_is_labelled_at_the_scan_edge(runs, name, dom,
                                                   request):
    # the distance to the mirror run falls towards earlier shifts all the
    # way to the edge of the bracket (measured tau* = -9.98e-4 on the
    # disk), so it is an upper bound on the minimum over shifts, and says so
    ndom = request.getfixturevalue(dom)
    traj = runs(name)
    lam0 = oval.solve_lambda0(ndom.kappa1, ndom.kappa2)
    apart = asymptotics.uniqueness_evidence(
        traj, asymptotics.reflect_trajectory(traj), lam0)
    assert apart.tau_at_edge and apart.tau_star < 0.0


def test_matched_distance_rejects_unmatched_or_empty_rows():
    ya = np.zeros((3, 5))
    for yb in (np.zeros((3, 4)), np.zeros((2, 5)), np.zeros(5)):
        with pytest.raises(ConfigError):
            asymptotics.matched_distance(ya, yb)
    for empty in (np.zeros((0, 5)), np.zeros((2, 0, 5)), np.float64(0.0)):
        with pytest.raises(ConfigError):
            asymptotics.matched_distance(empty, empty)


def test_matched_distance_of_a_run_with_itself_is_zero():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    ts = np.linspace(-1.9, -0.1, 7)
    rows = traj.heights_at_time(ts, _READ_X)
    assert asymptotics.matched_distance(
        rows, traj.heights_at_time(ts, _READ_X)) == 0.0
    # a sample time at which the curves share no abscissa
    off = traj.heights_at_time(ts, np.array([2.0]))
    assert asymptotics.matched_distance(off, off) == np.inf


def test_matched_distance_reads_entries_finite_in_both_rows():
    ya = np.array([[0.0, 1.0, np.nan], [2.0, 2.5, 3.0]])
    yb = np.array([[0.5, 1.25, 9.0], [np.nan, 2.0, 3.0]])
    # the NaN in each row masks its column in that row only
    assert asymptotics.matched_distance(ya, yb) == 0.5
    assert asymptotics.matched_distance(yb, ya) == 0.5
    # the first sample time keeps no abscissa finite in both rows
    yb[0, :2] = np.nan
    assert asymptotics.matched_distance(ya, yb) == np.inf


def test_mirror_search_reads_each_state_once(runs, ndisk, monkeypatch):
    # the first run is read once, at the sample times, and shared by every
    # shift; the mirror is read through one height_reader for all 15
    # shifts (the first two, 12 golden-section steps that narrow the
    # bracket [-1e-3, 1e-3] below 1e-5, and tau = 0), so no stored state
    # of either run is read twice (both runs: 512 state reads when each
    # shift read the mirror anew, 74 with the reader)
    traj = runs("disk_r03_n100")
    mirror = asymptotics.reflect_trajectory(traj)
    lam0 = oval.solve_lambda0(ndisk.kappa1, ndisk.kappa2)
    times = traj.monitors["t"]
    # a mirrored state is a new CurveState at its run state's raw time
    run_states = {id(s) for s in traj.states}
    at_time = {s.time: k for k, s in enumerate(traj.states)}
    assert len(at_time) == len(times)
    reads = Counter()
    compared = []
    read = flow.CurveState.heights_at
    distance = asymptotics.matched_distance

    def counting_read(self, xs):
        side = "run" if id(self) in run_states else "mirror"
        reads[side, at_time[self.time]] += 1
        return read(self, xs)

    def counting_distance(ya, yb):
        compared.append(1)
        return distance(ya, yb)

    monkeypatch.setattr(flow.CurveState, "heights_at", counting_read)
    monkeypatch.setattr(asymptotics, "matched_distance", counting_distance)
    report = asymptotics.uniqueness_evidence(traj, mirror, lam0)
    assert len(compared) == 15
    assert set(reads.values()) == {1}
    # the first run reads the states that bracket its sample times
    brackets = set()
    for t in np.linspace(*report.window, asymptotics._UNIQUENESS_TIMES):
        i = int(np.searchsorted(times, t))
        brackets |= {i} if times[i] == t else {i - 1, i}
    assert {k for side, k in reads if side == "run"} == brackets
    # the shifts reach states past the first run's brackets, each once
    mirrored = {k for side, k in reads if side == "mirror"}
    assert brackets < mirrored


@pytest.mark.parametrize("name,dom", [("disk_r03_n100", "ndisk"),
                                      ("egg_r01_n100", "negg")])
def test_verify_estimates_rejects_a_mirror(runs, name, dom, request):
    # a mirrored state keeps the run's contacts, so its curvature against
    # the wall is not the run's: the mirror serves height reads only, and
    # verify_estimates on it returns no numbers
    ndom = request.getfixturevalue(dom)
    lam0 = oval.solve_lambda0(ndom.kappa1, ndom.kappa2)
    with pytest.raises(AnalysisError):
        asymptotics.verify_estimates(
            asymptotics.reflect_trajectory(runs(name)), 0.25, lam0)


# ---------------------------------------------------------------------------
# the sweep over rho


def test_sweep_needs_three_rho_values(ndisk):
    with pytest.raises(ConfigError):
        asymptotics.ancient_sweep(ndisk, [0.2, 0.1],
                                  flow.SolverConfig(n_nodes=200,
                                                    dt_safety=0.4))


def test_sweep_pair_distances_small_and_decreasing(disk_sweep):
    # the best shift is tau = 0 on both disk pairs (measured 1.795e-6 and
    # 1.133e-6, the distances there)
    pairs = disk_sweep.pairs
    assert len(pairs) == 2
    assert all(p.tau_star == 0.0 and not p.tau_at_edge for p in pairs)
    d = [p.distance for p in pairs]
    assert d[0] < 5e-5 and d[1] < 5e-5
    assert d[1] < d[0]


# the egg pairs' distances at the best shift that a scan of 41 shifts on
# +-0.5, refined by golden section, found: the search on the small bracket
# must come within 2% of them (measured 1.883e-4 and 3.979e-5, within
# 0.43% and 0.30%)
_EGG_SCANNED = (1.875e-4, 3.967e-5)


@pytest.mark.parametrize("k", [0, 1])
def test_egg_sweep_shift_lies_inside_the_bracket(egg_sweep, k):
    # extinction alignment leaves the egg runs a few 1e-5 apart in time
    # (measured tau* = -3.2e-5 and -9.3e-6)
    p = egg_sweep.pairs[k]
    assert abs(p.tau_star) < asymptotics._TAU_SPAN - asymptotics._TAU_TOL
    assert not p.tau_at_edge


@pytest.mark.parametrize("k", [0, 1])
def test_egg_sweep_shift_lowers_the_distance(egg_sweep, k):
    a, b = egg_sweep.trajectories[k:k + 2]
    p = egg_sweep.pairs[k]
    ts = np.linspace(*p.window, asymptotics._UNIQUENESS_TIMES)
    xs = asymptotics.MATCH_XS
    unshifted = asymptotics.matched_distance(a.heights_at_time(ts, xs),
                                             b.heights_at_time(ts, xs))
    assert p.distance < unshifted
    assert p.distance <= 1.02 * _EGG_SCANNED[k]


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


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_robin_eigen_rejects_a_bad_curvature(bad):
    # each used to end otherwise: 0 and -1 in AnalysisError, NaN in
    # ConfigError only after the root scans, inf in a RuntimeWarning
    for k1, k2 in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(ConfigError):
            asymptotics.robin_eigen(k1, k2)


def test_robin_egg_second_negative_eigenvalue(negg):
    eig = asymptotics.robin_eigen(negg.kappa1, negg.kappa2)
    mus = [p.mu for p in eig.negative_eigenvalues]
    assert len(mus) == 2
    assert abs(mus[1] - (-0.979876009738524)) < 1e-9
    # the principal eigenfunction is positive, the second changes sign
    assert eig.convexity_flags == [True, False]


def test_robin_disk_principal_mode_is_cosh():
    # kappa1 = kappa2 = 1: phi = cosh(lambda0 x) / cosh(lambda0), whose sup
    # on [-1, 1] is 1 at the ends (measured 3.3e-15 off)
    lam = oval.solve_lambda0(1.0, 1.0)
    x = np.linspace(-1.0, 1.0, 2001)
    phi = asymptotics.robin_eigen(1.0, 1.0).negative_eigenvalues[0].phi(x)
    assert np.max(np.abs(phi - np.cosh(lam * x) / np.cosh(lam))) < 1e-14


def _sign_changes(values):
    signs = np.sign(values)
    signs = signs[signs != 0.0]
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


def test_robin_egg_modes_oscillate_as_sturm_predicts(negg):
    # Sturm oscillation: the k-th mode in increasing mu changes sign k times
    eig = asymptotics.robin_eigen(negg.kappa1, negg.kappa2)
    x = np.linspace(-1.0, 1.0, 2001)
    assert [_sign_changes(p.phi(x)) for p in eig.negative_eigenvalues] \
        == [0, 1]
    assert [_sign_changes(p.phi(x)) for p in eig.positive_eigenvalues] \
        == [2, 3, 4]


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
    # principal one (residual 7.1e-11 when it was a root of the whole
    # secular equation); the other part's coefficient is exactly 0 (it
    # measured up to 3.1e-12 of the larger before it was set to 0)
    for p in pairs:
        small, large = sorted(abs(c) for c in p.coeffs)
        assert small == 0.0 < large
        scale = 1.0 + max(p.mu, 0.0)
        assert max(asymptotics.eigen_residuals(p, kappa, kappa)) <= \
            1e-14 * scale


def test_robin_second_mode_on_every_steep_ellipse_major_axis():
    # the major axes of ellipse(a, 1), a = 1.05 ... 3.00 (kappa1 = kappa2 =
    # a^2): the second mode is odd, the root of s - kappa tanh s.  As a
    # root of the whole secular equation, flat beside the principal root,
    # 29 of them read residuals above 1e-14, up to 5.3e-8 (a = 3, mu =
    # -80.9999946 against the principal -81.0000049).  The principal mode
    # is exactly even and the second exactly odd: the other coefficient,
    # once up to 3.4e-9 of the sup there, is 0; residuals measure at most
    # 2.4e-15 (4.8e-15 before it was set to 0)
    x = np.linspace(-1.0, 1.0, 2001)
    for a in np.arange(1.05, 3.01, 0.05):
        dom = geometry.ConvexDomain.ellipse(float(a), 1.0)
        ndom = geometry.normalize(dom, geometry.find_diameters(dom)[0])
        k1, k2 = ndom.kappa1, ndom.kappa2
        eig = asymptotics.robin_eigen(k1, k2)
        first, second = eig.negative_eigenvalues
        s = np.sqrt(-second.mu)
        assert s < k1 < np.sqrt(-first.mu)
        assert abs(s - k1 * np.tanh(s)) <= 4e-15 * k1
        assert _sign_changes(second.phi(x)) == 1
        assert first.coeffs[1] == 0.0 and second.coeffs[0] == 0.0
        for p in (first, second):
            assert max(asymptotics.eigen_residuals(p, k1, k2)) <= 1e-14


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
        assert m._kap is None and m._seg is None
        assert not np.shares_memory(m.nodes, s.nodes)
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
