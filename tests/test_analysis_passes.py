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
from fbcsf.errors import AnalysisError, WindowTooShort

RATE = 0.25
BLOCK = asymptotics._BLOCK_STATES

# tracemalloc peak of the per-state verify_estimates loop on the shared
# disk run (rho 0.3, n 100, 907 window states), in bytes, after one warm-up
# call; the block passes peak at about 1,643,000
LOOP_PEAK_BYTES = 1_773_247


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
    rate, const, ok, n = asymptotics._fit_decay(t, np.sin(0.5 * th), r, win)
    records.append(Rec("turning_angle_decay", rate, r, const, ok, window, n))
    kmin = np.asarray(traj.monitors["kappa_min"])
    rate, const, ok, n = asymptotics._fit_decay(t, kmin, r, win)
    records.append(Rec("min_curvature_decay", rate, r, const, ok, window, n))
    kmax = np.asarray(traj.monitors["kappa_max"])
    rate, const, ok, n = asymptotics._fit_decay(t, kmax, r, win)
    rec_kmax = Rec("max_curvature_decay", rate, r, const, ok, window, n)

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
    records.append(Rec("support_ratio", float(slope), 0.0,
                       float(np.max(sup_ratio)), sup_ok, window,
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
                rate, logc = np.polyfit(st_t[pos], np.log(defect[pos]), 1,
                                        w=asymptotics._time_weights(st_t[pos]))
                resid = np.log(defect[pos]) - (rate * st_t[pos] + logc)
                const = float(np.exp(logc + np.max(resid)))
                ok = bool(np.isfinite(rate)) and rate >= required * 0.95
            else:
                rate, const, ok = required, 0.0, True
            cand = (ok, float(rate), const, float(nwt), vacuous)
            if best is None or (cand[0] and not best[0]):
                best = cand
            if cand[0]:
                break
        ok, rate, const, nwt, vacuous = best
        return Rec(
            "height_ratio_lower" if signed > 0 else "height_ratio_upper",
            rate, required, const, ok, window, len(states),
            extras={"weight": nwt, "vacuous": vacuous})

    records.append(pinch(+1.0, r))
    records.append(pinch(-1.0, 2.0 * r))
    order = ["turning_angle_decay", "support_ratio", "min_curvature_decay",
             "max_curvature_decay", "height_ratio_lower",
             "height_ratio_upper"]
    records.sort(key=lambda rec: order.index(rec.name))
    return asymptotics.EstimateReport(records=records, r=r, lambda0=lambda0)


def _reference_heights_at_time(traj, t_offset, xs):
    times = traj.state_times
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
    shift, one sample time at a time.  It refines a best shift on the
    scan's edge too, where uniqueness_evidence reports the scanned one."""
    xs = flow.MATCH_XS
    lo = max(float(trajA.monitors["t"][0]), float(trajB.monitors["t"][0]))
    lo = lo + 0.15 * abs(lo)
    hi = -0.3
    ts = np.linspace(lo, hi, asymptotics._UNIQUENESS_TIMES)

    def dist(tau):
        return _reference_matched_distance(trajA, trajB, tau, ts, xs)

    span = asymptotics._TAU_SPAN
    taus = np.linspace(-span, span, 41)
    taus[np.argmin(np.abs(taus))] = 0.0
    dists = np.array([dist(tau) for tau in taus])
    j = int(np.argmin(dists))
    a, b = taus[max(j - 1, 0)], taus[min(j + 1, len(taus) - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - gr * (b - a), a + gr * (b - a)
    fc, fd = dist(c), dist(d)
    for _ in range(60):
        if b - a < 1e-5:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = dist(d)
    tau, best = (c, fc) if fc < fd else (d, fd)
    if dists[j] < best:
        tau, best = taus[j], dists[j]
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


def _lambda0(ndom):
    return oval.solve_lambda0(ndom.kappa1, ndom.kappa2)


def _window_count(traj):
    (lo, hi), _ = asymptotics._window(traj, 8)
    return int(np.sum((traj.state_times >= lo) & (traj.state_times <= hi)))


def _synthetic(scale, kappa, empty_at=None):
    """120 stored states of y = scale e^{t/2} (1.5 - x^2) on 40 to 42
    nodes, state j at time t caching the curvature kappa(j, t, y).  The
    state at index empty_at lies flat on y = 0."""
    t = np.linspace(-7.0, -0.5, 120)
    states = []
    for j, tj in enumerate(t):
        x = np.linspace(-1.0, 1.0, 40 + j % 3)
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
        monitors=monitors, states=states, state_times=t, time_offset=0.0,
        alpha=float(t[0]), extinction_point=np.zeros(2),
        config=flow.SolverConfig(), ndom=None, extinction_fit_fallback=False)


def _from(traj, first):
    """The run cut to its stored states from index first on."""
    return dataclasses.replace(
        traj, states=traj.states[first:],
        state_times=traj.state_times[first:],
        monitors={k: v[first:] for k, v in traj.monitors.items()},
        alpha=float(traj.state_times[first]))


def _holding(traj, count):
    """The run cut so that its fit window holds count stored states."""
    last = int(np.searchsorted(traj.state_times, -1.0, side="right"))
    return _from(traj, last - count)


# ---------------------------------------------------------------------------
# verify_estimates


@pytest.mark.parametrize("name, domain", [("disk_r03_n100", "ndisk"),
                                          ("egg_r01_n100", "negg")])
def test_estimates_match_the_per_state_loop(name, domain, runs, request):
    traj = runs(name)
    lam0 = _lambda0(request.getfixturevalue(domain))
    assert _window_count(traj) % BLOCK != 0
    if name.startswith("egg"):
        (lo, hi), _ = asymptotics._window(traj, 8)
        assert {len(s.nodes) for s in traj.states
                if lo <= s.time <= hi} == {99, 100}
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
    first = int(np.searchsorted(traj.state_times, lo))
    cut = dataclasses.replace(
        traj, states=traj.states[:first + count],
        state_times=traj.state_times[:first + count])
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


def test_pinch_state_without_a_height_raises_analysis_error():
    traj = _synthetic(0.01, lambda j, t, y: y, empty_at=60)
    t_flat = traj.states[60].time
    assert -6.0 <= t_flat <= -1.0
    with pytest.raises(AnalysisError, match=f"{t_flat:.6g}"):
        asymptotics.verify_estimates(traj, RATE, 1.2)


def test_verify_estimates_peak_memory(runs, ndisk):
    traj = runs("disk_r03_n100")
    lam0 = _lambda0(ndisk)
    asymptotics.verify_estimates(traj, RATE, lam0)
    tracemalloc.start()
    try:
        asymptotics.verify_estimates(traj, RATE, lam0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LOOP_PEAK_BYTES


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
    late = _from(traj, int(np.searchsorted(traj.state_times, -1.0,
                                           side="right")))
    assert late.state_times[0] > -1.0
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


def test_runs_without_a_shared_late_window_raise():
    # the same run 6.7 later: it starts at -0.3, where the shared window ends
    traj = _synthetic(0.01, lambda j, t, y: y)
    later = dataclasses.replace(
        traj, state_times=traj.state_times + 6.7, alpha=traj.alpha + 6.7,
        monitors={**traj.monitors, "t": traj.monitors["t"] + 6.7})
    assert asymptotics.uniqueness_evidence(traj, traj, 1.2).distance == 0.0
    with pytest.raises(WindowTooShort):
        asymptotics.uniqueness_evidence(traj, later, 1.2)


# ---------------------------------------------------------------------------
# heights_at_time and matched_distance


@pytest.mark.parametrize("name", ["disk_r03_n100", "egg_r01_n100"])
def test_heights_and_distances_match_the_per_time_loop(name, runs):
    traj = runs(name)
    mirror = asymptotics.reflect_trajectory(traj)
    xs = flow.MATCH_XS
    # before the first state, inside, on a stored time, and after the last
    ts = np.concatenate([[traj.alpha - 1.0, traj.state_times[5]],
                         np.linspace(traj.alpha * 0.85, -0.3, 16), [0.7]])
    rows = traj.heights_at_time(ts, xs)
    assert rows.shape == (len(ts), len(xs))
    for t, row in zip(ts, rows):
        assert _same_bits(row, _reference_heights_at_time(traj, t, xs))
    for other in (traj, mirror):
        for tau in (-0.5, -0.013, 0.0, 0.2, 0.5):
            got = flow.matched_distance(rows,
                                        other.heights_at_time(ts + tau, xs))
            want = _reference_matched_distance(traj, other, tau, ts, xs)
            assert float(got).hex() == float(want).hex()


def _time_grid(traj):
    """Rows of offset times: before the first state, on a stored time,
    inside, and after the last, each row shifted as uniqueness_evidence
    shifts its sample times, and one row of stored times."""
    ts = np.concatenate([[traj.alpha - 1.0, traj.state_times[5]],
                         np.linspace(traj.alpha * 0.85, -0.3, 16), [0.7]])
    taus = np.array([-0.5, -0.013, 0.0, 0.2])
    return np.vstack([taus[:, None] + ts, traj.state_times[3:3 + len(ts)]])


def _bracketing_states(traj, t):
    """The indices of the stored states that offset time t reads."""
    times = traj.state_times
    if t <= times[0]:
        return {0}
    if t >= times[-1]:
        return {len(times) - 1}
    i = int(np.searchsorted(times, t))
    return {i} if times[i] == t else {i - 1, i}


@pytest.mark.parametrize("name", ["disk_r03_n100", "egg_r01_n100"])
def test_a_time_grid_matches_the_per_time_loop(name, runs):
    traj = runs(name)
    xs = flow.MATCH_XS
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
    traj.heights_at_time(grid, flow.MATCH_XS)
    per_time = [_bracketing_states(traj, t) for t in grid.ravel()]
    # the shifted rows share states, which a per-time read repeats
    assert sum(map(len, per_time)) > len(set().union(*per_time))
    assert set(reads) == set().union(*per_time)
    assert set(reads.values()) == {1}


def test_sweep_pair_distances_match_the_per_time_loop(disk_sweep):
    trajs = disk_sweep.trajectories
    for a, b, got in zip(trajs[:-1], trajs[1:], disk_sweep.pair_distances):
        ts = np.linspace(max(a.alpha, b.alpha) * 0.85, -0.3, 24)
        want = _reference_matched_distance(a, b, 0.0, ts, flow.MATCH_XS)
        assert float(got).hex() == float(want).hex()
