"""The block passes of verify_estimates and the many-time reads of
heights_at_time against the per-state and per-time loops they replaced,
kept here as references: every record and every distance must match them
bit for bit."""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fbcsf import asymptotics, flow, oval
from fbcsf.errors import (AnalysisError, ConfigError, NonPositiveAmplitude,
                          WindowTooShort)

RATE = 0.25
BLOCK = flow._BLOCK_STATES

# verify_estimates' tracemalloc peak may be at most this multiple of the
# per-state reference loop's, each measured after one warm-up call on the
# shared disk run (rho 0.3, n 100, about 105 window states): measured
# 363,712 B against 214,484 to 214,852 B, 1.70 times, since a block stacks
# up to _BLOCK_STATES states at once
PEAK_OVER_LOOP = 2.5

# the tracemalloc peak of one uniqueness_evidence of the shared disk run
# and its mirror, after one warm-up call, may not exceed its measured peak
# when each of the 15 shifts read the mirror anew (257,604 B; one reader
# for all shifts measured 246,745 B)
MIRROR_PEAK = 257_604


# ---------------------------------------------------------------------------
# references: the per-state loop, the pinch loop and the per-time reads


def _reference_state_fields(state, wall):
    kap = state.kappa_cached(wall)
    pts = state.nodes
    e = pts[1:] - pts[:-1]
    h = np.hypot(e[:, 0], e[:, 1])
    tx = np.empty(len(pts))
    ty = np.empty(len(pts))
    tx[1:-1] = e[:-1, 0] / h[:-1] + e[1:, 0] / h[1:]
    ty[1:-1] = e[:-1, 1] / h[:-1] + e[1:, 1] / h[1:]
    tx[0], ty[0] = e[0, 0] / h[0], e[0, 1] / h[0]
    tx[-1], ty[-1] = e[-1, 0] / h[-1], e[-1, 1] / h[-1]
    norm = np.hypot(tx, ty)
    tx /= norm
    ty /= norm
    sup = np.abs(pts[:, 0] * ty - pts[:, 1] * tx)
    kap_s = (kap[2:] - kap[:-2]) / (h[:-1] + h[1:])
    return kap, pts[:, 1], sup, kap_s


def _reference_verify_estimates(traj, r, lambda0):
    t = np.asarray(traj.monitors["t"])
    window, win = asymptotics._window(traj, 8)
    lam2 = lambda0 * lambda0
    records = []
    Rec = asymptotics.EstimateRecord

    th = np.asarray(traj.monitors["theta_plus"]) + \
        np.asarray(traj.monitors["theta_minus"])
    rate, ok, n = asymptotics._fit_decay(t, np.sin(0.5 * th), r, win)
    records.append(Rec("turning_angle_decay", rate, r, ok, window, n))
    kmin = np.asarray(traj.monitors["kappa_min"])
    rate, ok, n = asymptotics._fit_decay(t, kmin, r, win)
    records.append(Rec("min_curvature_decay", rate, r, ok, window, n))
    kmax = np.asarray(traj.monitors["kappa_max"])
    rate, ok, n = asymptotics._fit_decay(t, kmax, r, win)
    rec_kmax = Rec("max_curvature_decay", rate, r, ok, window, n)

    states = [s for s in traj.states if window[0] <= s.time <= window[1]]
    assert len(states) == win.stop - win.start >= 8
    wall = (flow.ConvexWall(traj.ndom) if any(s._kap is None for s in states)
            else None)
    st_t = np.array([s.time for s in states])
    sup_ratio = np.empty(len(states))
    grad_ratio = np.empty(len(states))
    ratio_minmax = np.empty(len(states))
    ratio_pairs = []
    for j, s in enumerate(states):
        kap, y, sup, kap_s = _reference_state_fields(s, wall)
        pos = np.maximum(kap, 1e-300)
        sup_ratio[j] = float(np.max(sup / pos))
        grad_ratio[j] = float(np.max(np.abs(kap_s) / pos[1:-1]))
        ratio_minmax[j] = float(np.max(kap) / max(np.min(kap), 1e-300))
        good = y > 1e-12
        ratio_pairs.append((kap[good] / y[good], y[good]))

    C2 = float(np.max(grad_ratio))
    rec_kmax.extras["grad_ratio_C2"] = C2
    rec_kmax.extras["ratio_max_over_min"] = float(np.max(ratio_minmax))
    records.append(rec_kmax)
    slope = np.polyfit(st_t, sup_ratio, 1,
                       w=asymptotics._time_weights(st_t))[0]
    sup_ok = bool(np.all(np.isfinite(sup_ratio)) and slope <= 0.05)
    records.append(Rec("support_ratio", float(slope), 0.0, sup_ok, window,
                       len(states)))
    grid = np.array([1.0, 2.0, 5.0, 10.0, 20.0]) * max(C2, 1e-3) / r

    def pinch(signed, required):
        best = None
        for nwt in grid:
            defect = np.empty(len(states))
            for j, (base, y) in enumerate(ratio_pairs):
                q = base * np.exp(signed * nwt * y)
                if signed > 0:
                    defect[j] = lam2 - float(np.min(q))
                else:
                    defect[j] = float(np.max(q)) - lam2
            pos = defect > 1e-12
            vacuous = int(np.sum(pos)) < 8
            if not vacuous:
                rate = np.polyfit(st_t[pos], np.log(defect[pos]), 1,
                                  w=asymptotics._time_weights(st_t[pos]))[0]
                ok = bool(np.isfinite(rate)) and rate >= required * 0.95
            else:
                rate, ok = required, True
            cand = (ok, float(rate), float(nwt), vacuous)
            if best is None or (cand[0] and not best[0]):
                best = cand
            if cand[0]:
                break
        ok, rate, nwt, vacuous = best
        return Rec(
            "height_ratio_lower" if signed > 0 else "height_ratio_upper",
            rate, required, ok, window, len(states),
            extras={"weight": nwt, "vacuous": vacuous})

    records.append(pinch(+1.0, r))
    records.append(pinch(-1.0, 2.0 * r))
    order = ["turning_angle_decay", "support_ratio", "min_curvature_decay",
             "max_curvature_decay", "height_ratio_lower",
             "height_ratio_upper"]
    records.sort(key=lambda rec: order.index(rec.name))
    return asymptotics.EstimateReport(records=records, r=r, lambda0=lambda0)


def _reference_heights_at_time(traj, t_offset, xs):
    times = traj.monitors["t"]
    i = int(np.searchsorted(times, t_offset))
    if i <= 0:
        return traj.states[0].heights_at(xs)
    if i >= len(times):
        return traj.states[-1].heights_at(xs)
    t0, t1 = times[i - 1], times[i]
    y0 = traj.states[i - 1].heights_at(xs)
    y1 = traj.states[i].heights_at(xs)
    w = (t_offset - t0) / (t1 - t0)
    return (1.0 - w) * y0 + w * y1


def _reference_matched_distance(trajA, trajB, tau, sample_times, xs):
    worst = 0.0
    for t in sample_times:
        ya = _reference_heights_at_time(trajA, t, xs)
        yb = _reference_heights_at_time(trajB, t + tau, xs)
        m = np.isfinite(ya) & np.isfinite(yb)
        if not np.any(m):
            return np.inf
        worst = max(worst, float(np.max(np.abs(ya[m] - yb[m]))))
    return worst


def _reference_uniqueness(trajA, trajB):
    """uniqueness_evidence's (tau_star, distance, window), with every
    distance from _reference_matched_distance: both runs read at every
    shift, one sample time at a time.  Golden section on the bracket
    [-_TAU_SPAN, _TAU_SPAN] down to a width below _TAU_TOL, and tau = 0
    read once besides, winning a tie."""
    xs = asymptotics.MATCH_XS
    lo = max(float(trajA.monitors["t"][0]), float(trajB.monitors["t"][0]))
    lo = lo + 0.15 * abs(lo)
    hi = -0.3
    ts = np.linspace(lo, hi, asymptotics._UNIQUENESS_TIMES)

    def dist(tau):
        return _reference_matched_distance(trajA, trajB, tau, ts, xs)

    a, b = -asymptotics._TAU_SPAN, asymptotics._TAU_SPAN
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = dist(c), dist(d)
    while b - a >= asymptotics._TAU_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = dist(d)
    tau, best = (c, fc) if fc < fd else (d, fd)
    unshifted = dist(0.0)
    if unshifted <= best:
        tau, best = 0.0, unshifted
    return float(tau), float(best), (lo, hi)


# ---------------------------------------------------------------------------
# helpers


def _bits(x):
    """x with every float replaced by its type and hex form, so == compares
    bit patterns (NaN equal to itself, -0.0 unequal to 0.0)."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(_bits(v) for v in x)
    if isinstance(x, (float, np.floating)):
        return type(x).__name__, float(x).hex()
    return type(x).__name__, x


def _record_bits(report):
    return [_bits(dataclasses.asdict(rec)) for rec in report.records]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _bare(traj):
    """The run with every stored state's cached curvature and edge lengths
    dropped."""
    return dataclasses.replace(traj, states=[
        flow.CurveState(nodes=s.nodes, time=s.time, om_minus=s.om_minus,
                        om_plus=s.om_plus) for s in traj.states])


def _resampled(state, count):
    """The stored state resampled to count nodes, without cached curvature
    or edge lengths."""
    return flow.CurveState(nodes=flow._resample([state.nodes], count)[0],
                           time=state.time, om_minus=state.om_minus,
                           om_plus=state.om_plus)


def _lambda0(ndom):
    return oval.solve_lambda0(ndom.kappa1, ndom.kappa2)


def _window_count(traj):
    (lo, hi), _ = asymptotics._window(traj, 8)
    t = traj.monitors["t"]
    return int(np.sum((t >= lo) & (t <= hi)))


def _synthetic(scale, kappa, empty_at=None):
    """120 stored states of y = scale e^{t/2} (1.5 - x^2) on 40 nodes,
    state j at time t caching the curvature kappa(j, t, y).  The state at
    index empty_at lies flat on y = 0."""
    t = np.linspace(-7.0, -0.5, 120)
    x = np.linspace(-1.0, 1.0, 40)
    states = []
    for j, tj in enumerate(t):
        y = scale * np.exp(0.5 * tj) * (1.5 - x * x)
        if j == empty_at:
            y = np.zeros_like(x)
        s = flow.CurveState(nodes=np.column_stack([x, y]), time=tj,
                            om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
        s._kap = kappa(j, tj, y)
        states.append(s)
    decay = np.exp(1.5 * t)
    monitors = {"t": t, "theta_plus": decay, "theta_minus": decay,
                "kappa_min": decay, "kappa_max": 2.0 * decay}
    ys = np.array([s.heights_at(flow.SolverConfig.abscissas) for s in states])
    for k in range(ys.shape[1]):
        monitors[f"y_at_x{k}"] = ys[:, k]
    return flow.Trajectory(
        monitors=monitors, states=states, time_offset=0.0,
        config=flow.SolverConfig(n_nodes=200, dt_safety=0.4), ndom=None)


def _from(traj, first):
    """The run cut to its stored states from index first on."""
    return dataclasses.replace(
        traj, states=traj.states[first:],
        monitors={k: v[first:] for k, v in traj.monitors.items()})


def _holding(traj, count):
    """The run cut so that its fit window holds count stored states."""
    last = int(np.searchsorted(traj.monitors["t"], -1.0, side="right"))
    return _from(traj, last - count)


# ---------------------------------------------------------------------------
# verify_estimates


@pytest.mark.parametrize("name, domain", [("disk_r03_n100", "ndisk"),
                                          ("egg_r01_n100", "negg")])
def test_estimates_match_the_per_state_loop(name, domain, runs, request):
    traj = runs(name)
    lam0 = _lambda0(request.getfixturevalue(domain))
    assert _window_count(traj) % BLOCK != 0
    assert (_record_bits(asymptotics.verify_estimates(traj, RATE, lam0))
            == _record_bits(_reference_verify_estimates(traj, RATE, lam0)))


def test_estimates_without_cached_curvature_match_the_loop(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = _lambda0(ndisk)
    assert all(s._kap is None and s._seg is None
               for s in _bare(traj).states)
    assert (_record_bits(asymptotics.verify_estimates(_bare(traj), RATE,
                                                      lam0))
            == _record_bits(_reference_verify_estimates(_bare(traj), RATE,
                                                        lam0)))


@pytest.mark.parametrize("count", [8, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK])
def test_estimates_match_at_every_block_remainder(count, runs, ndisk):
    # the run cut so that its window holds count states
    traj = runs("disk_r03_n100")
    lam0 = _lambda0(ndisk)
    (lo, _), _ = asymptotics._window(traj, 8)
    first = int(np.searchsorted(traj.monitors["t"], lo))
    cut = dataclasses.replace(
        traj, states=traj.states[:first + count],
        monitors={k: v[:first + count] for k, v in traj.monitors.items()})
    assert _window_count(cut) == count
    assert (_record_bits(asymptotics.verify_estimates(cut, RATE, lam0))
            == _record_bits(_reference_verify_estimates(cut, RATE, lam0)))


@pytest.mark.parametrize("c, scale, d, name, vacuous, weight_index", [
    # every weight fits and fails, so the first weight's fit is reported
    (0.5, 0.01, 0.0, "height_ratio_lower", False, 0),
    # fits fail until the largest weight holds outright
    (0.8, 0.05, 0.0, "height_ratio_lower", True, 4),
    # the defect decays at rate 1/2 toward the past: both fits pass
    (1.0, 0.001, 0.5, "height_ratio_lower", False, 0),
    (1.0, 0.001, -0.5, "height_ratio_upper", False, 0),
])
def test_pinch_fits_match_the_per_state_loop(c, scale, d, name, vacuous,
                                             weight_index):
    # the height ratio kappa/y is c lambda0^2 (1 - d e^{t/2}) on every node
    lam0 = 1.2

    def kappa(j, t, y):
        return c * lam0 * lam0 * (1.0 - d * np.exp(0.5 * t)) * y

    report = asymptotics.verify_estimates(_synthetic(scale, kappa), RATE,
                                          lam0)
    assert _record_bits(report) == _record_bits(_reference_verify_estimates(
        _synthetic(scale, kappa), RATE, lam0))
    rec = report.record(name)
    c2 = report.record("max_curvature_decay").extras["grad_ratio_C2"]
    grid = np.array([1.0, 2.0, 5.0, 10.0, 20.0]) * max(c2, 1e-3) / RATE
    assert rec.extras == {"weight": float(grid[weight_index]),
                          "vacuous": vacuous}
    assert rec.n_samples % BLOCK != 0


def test_state_extremes_skip_the_joins_between_states():
    # curvature constant on each state, alternating 1 and 100 from one
    # state to the next: every interior curvature derivative is 0, while a
    # difference taken across two states would read about 99
    def kappa(j, t, y):
        return np.full_like(y, 100.0 if j % 2 else 1.0)

    report = asymptotics.verify_estimates(_synthetic(0.01, kappa), RATE, 1.2)
    assert _record_bits(report) == _record_bits(_reference_verify_estimates(
        _synthetic(0.01, kappa), RATE, 1.2))
    assert report.record("max_curvature_decay").extras == {
        "grad_ratio_C2": 0.0, "ratio_max_over_min": 1.0}


@pytest.mark.parametrize("counts", [{1: 99}, {0: 99, 1: 101}],
                         ids=["one-99", "99-101"])
def test_states_of_two_node_counts_raise(counts, runs, ndisk):
    # one 99-node state among 100-node ones, and a 99- and a 101-node state
    # whose 200 nodes would reshape to two rows of 100 without the check
    traj = runs("disk_r03_n100")
    _, win = asymptotics._window(traj, 8)
    states = list(traj.states)
    for k, count in counts.items():
        states[win.start + k] = _resampled(states[win.start + k], count)
    pair = states[win.start:win.start + 2]
    with pytest.raises(ConfigError, match="nodes, the first"):
        asymptotics.verify_estimates(
            dataclasses.replace(traj, states=states), RATE, _lambda0(ndisk))
    for part in (states, pair):
        with pytest.raises(ConfigError, match="nodes, the first"):
            flow._block_monitors(part, flow.wall_for(ndisk))


def test_pinch_state_without_a_height_raises_analysis_error():
    traj = _synthetic(0.01, lambda j, t, y: y, empty_at=60)
    t_flat = traj.states[60].time
    assert -6.0 <= t_flat <= -1.0
    with pytest.raises(AnalysisError, match=f"{t_flat:.6g}"):
        asymptotics.verify_estimates(traj, RATE, 1.2)


def _traced_peak(fn):
    """tracemalloc's peak in bytes over a call of fn, after one warm-up
    call."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_estimates_peak_memory(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = _lambda0(ndisk)
    loop = _traced_peak(lambda: _reference_verify_estimates(traj, RATE, lam0))
    peak = _traced_peak(lambda: asymptotics.verify_estimates(traj, RATE, lam0))
    assert peak <= PEAK_OVER_LOOP * loop, (peak, loop)


def test_mirror_comparison_peak_memory(runs, ndisk):
    # a reader that kept the whole run would hold 593 rows of 241 heights
    # (1.1 MB); the search's reader keeps the states it read
    traj = runs("disk_r03_n100")
    mirror = asymptotics.reflect_trajectory(traj)
    lam0 = _lambda0(ndisk)
    peak = _traced_peak(
        lambda: asymptotics.uniqueness_evidence(traj, mirror, lam0))
    assert peak <= MIRROR_PEAK, peak


# ---------------------------------------------------------------------------
# the fit window

_ANALYSES = {
    "verify_estimates":
        lambda traj: asymptotics.verify_estimates(traj, RATE, 1.2),
    "fit_profile": lambda traj: asymptotics.fit_profile(traj, 1.2, 1.0, 1.0),
    "rescaled_increments":
        lambda traj: asymptotics.rescaled_increments(traj, 1.2),
}


@pytest.mark.parametrize("name", sorted(_ANALYSES))
def test_a_run_after_the_window_raises(name):
    # every stored time lies after -1, so the window's bounds cross
    traj = _synthetic(0.01, lambda j, t, y: y)
    late = _from(traj, int(np.searchsorted(traj.monitors["t"], -1.0,
                                           side="right")))
    assert late.alpha > -1.0
    with pytest.raises(WindowTooShort):
        _ANALYSES[name](late)


@pytest.mark.parametrize("name, floor", [("verify_estimates", 8),
                                         ("fit_profile", 8),
                                         ("rescaled_increments", 10)])
def test_a_window_one_state_short_raises(name, floor):
    traj = _synthetic(0.01, lambda j, t, y: y)
    _ANALYSES[name](_holding(traj, floor))
    with pytest.raises(WindowTooShort):
        _ANALYSES[name](_holding(traj, floor - 1))


def test_a_negative_profile_amplitude_raises():
    # lambda0^2 = 1/2 is the synthetic run's own rate, so the extrapolated
    # amplitude is the scale's sign times 1.07
    lam0 = np.sqrt(0.5)
    prof = asymptotics.fit_profile(_synthetic(1.0, lambda j, t, y: y), lam0,
                                   1.0, 1.0)
    assert 1.0 < prof.A < 1.1
    with pytest.raises(NonPositiveAmplitude, match="-1.07"):
        asymptotics.fit_profile(_synthetic(-1.0, lambda j, t, y: y), lam0,
                                1.0, 1.0)


def test_runs_without_a_shared_late_window_raise():
    # the same run 6.7 later: it starts at -0.3, where the shared window ends
    traj = _synthetic(0.01, lambda j, t, y: y)
    later = dataclasses.replace(
        traj, monitors={**traj.monitors, "t": traj.monitors["t"] + 6.7})
    assert asymptotics.uniqueness_evidence(traj, traj, 1.2).distance == 0.0
    with pytest.raises(WindowTooShort):
        asymptotics.uniqueness_evidence(traj, later, 1.2)


# ---------------------------------------------------------------------------
# heights_at_time and matched_distance


@pytest.mark.parametrize("name", ["disk_r03_n100", "egg_r01_n100"])
def test_heights_and_distances_match_the_per_time_loop(name, runs):
    traj = runs(name)
    mirror = asymptotics.reflect_trajectory(traj)
    xs = asymptotics.MATCH_XS
    # before the first state, inside, on a stored time, and after the last
    ts = np.concatenate([[traj.alpha - 1.0, traj.monitors["t"][5]],
                         np.linspace(traj.alpha * 0.85, -0.3, 16), [0.7]])
    rows = traj.heights_at_time(ts, xs)
    assert rows.shape == (len(ts), len(xs))
    for t, row in zip(ts, rows):
        assert _same_bits(row, _reference_heights_at_time(traj, t, xs))
    for other in (traj, mirror):
        for tau in (-0.5, -0.013, 0.0, 0.2, 0.5):
            got = asymptotics.matched_distance(
                rows, other.heights_at_time(ts + tau, xs))
            want = _reference_matched_distance(traj, other, tau, ts, xs)
            assert float(got).hex() == float(want).hex()


@pytest.mark.parametrize("xs", [0.5, np.zeros((2, 3)), "0.5",
                                [[1.0], [2.0, 3.0]]],
                         ids=["float", "2-D", "string", "ragged"])
def test_abscissas_not_a_1d_array_of_reals_raise(xs, runs):
    traj = runs("disk_r03_n100")
    with pytest.raises(ConfigError, match="not a 1-D array of reals"):
        traj.height_reader(xs)
    with pytest.raises(ConfigError, match="not a 1-D array of reals"):
        traj.heights_at_time(np.array([-1.0]), xs)


def _time_grid(traj):
    """Rows of offset times: before the first state, on a stored time,
    inside, and after the last, each row shifted as uniqueness_evidence
    shifts its sample times, and one row of stored times."""
    ts = np.concatenate([[traj.alpha - 1.0, traj.monitors["t"][5]],
                         np.linspace(traj.alpha * 0.85, -0.3, 16), [0.7]])
    taus = np.array([-0.5, -0.013, 0.0, 0.2])
    return np.vstack([taus[:, None] + ts, traj.monitors["t"][3:3 + len(ts)]])


def _bracketing_states(traj, t):
    """The indices of the stored states that offset time t reads."""
    times = traj.monitors["t"]
    if t <= times[0]:
        return {0}
    if t >= times[-1]:
        return {len(times) - 1}
    i = int(np.searchsorted(times, t))
    return {i} if times[i] == t else {i - 1, i}


@pytest.mark.parametrize("name", ["disk_r03_n100", "egg_r01_n100"])
def test_a_time_grid_matches_the_per_time_loop(name, runs):
    traj = runs(name)
    xs = asymptotics.MATCH_XS
    grid = _time_grid(traj)
    rows = traj.heights_at_time(grid, xs)
    assert rows.shape == grid.shape + (len(xs),)
    for ts, block in zip(grid, rows):
        assert _same_bits(block, traj.heights_at_time(ts, xs))
        for t, row in zip(ts, block):
            assert _same_bits(row, _reference_heights_at_time(traj, t, xs))
    # a third axis reads the same rows
    deep = traj.heights_at_time(grid.reshape(len(grid), 1, -1), xs)
    assert _same_bits(deep.reshape(rows.shape), rows)


@pytest.mark.parametrize("shape", ["grid", "flat"])
@pytest.mark.parametrize("name", ["disk_r03_n100", "egg_r01_n100"])
def test_a_call_reads_each_bracketing_state_once(name, shape, runs,
                                                 monkeypatch):
    traj = runs(name)
    grid = _time_grid(traj)
    if shape == "flat":
        grid = grid.ravel()
    index = {id(s): k for k, s in enumerate(traj.states)}
    reads = Counter()
    read = flow.CurveState.heights_at

    def counting_read(self, xs):
        reads[index[id(self)]] += 1
        return read(self, xs)

    monkeypatch.setattr(flow.CurveState, "heights_at", counting_read)
    traj.heights_at_time(grid, asymptotics.MATCH_XS)
    per_time = [_bracketing_states(traj, t) for t in grid.ravel()]
    # the shifted rows share states, which a per-time read repeats
    assert sum(map(len, per_time)) > len(set().union(*per_time))
    assert set(reads) == set().union(*per_time)
    assert set(reads.values()) == {1}


def _report_bits(rep):
    return _bits(dataclasses.astuple(rep))


@pytest.mark.parametrize("other", ["self", "mirror"])
@pytest.mark.parametrize("name,domain", [("disk_r03_n100", "ndisk"),
                                         ("egg_r01_n100", "negg")])
def test_uniqueness_matches_the_per_time_search(name, domain, other, runs,
                                                request):
    traj = runs(name)
    partner = (traj if other == "self"
               else asymptotics.reflect_trajectory(traj))
    rep = asymptotics.uniqueness_evidence(
        traj, partner, _lambda0(request.getfixturevalue(domain)))
    tau, dist, window = _reference_uniqueness(traj, partner)
    assert _report_bits(rep)[:3] == _bits((tau, dist, window))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("name,domain", [("disk_sweep", "ndisk"),
                                         ("egg_sweep", "negg")])
def test_sweep_pairs_match_the_per_time_search(name, domain, k, request):
    # the disk pairs' best shift is 0, the egg pairs' is not (-3.2e-5 and
    # -9.3e-6): there the shifted rows are interpolated between states
    sweep = request.getfixturevalue(name)
    a, b = sweep.trajectories[k:k + 2]
    got = sweep.pairs[k]
    assert len(sweep.pairs) == len(sweep.trajectories) - 1
    assert (_report_bits(got)
            == _report_bits(asymptotics.uniqueness_evidence(
                a, b, _lambda0(request.getfixturevalue(domain)))))
    tau, dist, window = _reference_uniqueness(a, b)
    assert _report_bits(got)[:3] == _bits((tau, dist, window))
