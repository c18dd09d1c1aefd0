"""Flow solver tests: exact-solution validation, structural identities
along production runs, reading runs in time, and failure modes."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbcsf.barrier as b
import fbcsf.flow as f
from fbcsf.asymptotics import (MATCH_XS, WINDOW_CEIL, reflect_trajectory,
                                verify_estimates)
import fbcsf.geometry as g
import fbcsf.oval as ov
from fbcsf.errors import ConfigError, NonExtinction, StepRejected
from exact_solutions import (_DRIFT_NODES, StraightWall, grim_reaper_error,
                             semicircle_wall_error, stationary_diameter_drift)


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_tiny_node_count():
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=8, dt_safety=0.4)


def test_config_rejects_bad_safety():
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=200, dt_safety=0.0)
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=200, dt_safety=1.5)


@pytest.mark.parametrize("n_nodes", [64.5, 100.0, "100", None])
def test_config_rejects_non_integer_node_count(n_nodes):
    # 64.5 used to end in a TypeError deep inside the first resample
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=n_nodes, dt_safety=0.4)


@pytest.mark.parametrize("dt_safety", ["0.5", None, 0.5 + 0j])
def test_config_rejects_non_real_safety(dt_safety):
    # each used to end in a bare TypeError from the range comparison
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=100, dt_safety=dt_safety)


def test_config_accepts_numpy_integers():
    cfg = f.SolverConfig(n_nodes=np.int64(64), dt_safety=0.4)
    assert cfg.n_nodes == 64


# ---------------------------------------------------------------------------
# exact solutions


@pytest.fixture(scope="module")
def grim_runs():
    # the tolerance shrinks with the mesh, dt_safety = 0.4 * 100 / n, so
    # that the time error cannot floor the slope (at dt_safety 0.4 for all
    # n it read 2.23, and 1.61 when the count tracked the length); measured
    # height errors 2.6e-5, 6.6e-6, 1.6e-6 (slope 2.01)
    return [grim_reaper_error(n, 0.2, 0.4 * 100 / n)
            for n in (100, 200, 400)]


def test_grim_reaper_second_order(grim_runs):
    errs = [run[0] for run in grim_runs]
    slope = -np.polyfit(np.log([100, 200, 400]), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3, (errs, slope)


def test_grim_reaper_contacts_follow_the_walls(grim_runs):
    # the contacts sit at -+arctan(e^-t); measured errors 1.3e-5, 3.2e-6,
    # 8.0e-7 (orders 2.01 and 2.00)
    errs = []
    for _, state in grim_runs:
        x0 = np.arctan(np.exp(-state.time))
        errs.append(max(abs(state.om_minus + x0), abs(state.om_plus - x0)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 1.7 for p in orders), (errs, orders)


def test_semicircle_on_wall_second_order():
    # the regular polygon's arc-length Laplacian is exactly -1/r and its
    # spacing never drifts, so the error is the contacts' and the time
    # stepping's.  The tolerance shrinks with the mesh, dt_safety = 0.4 *
    # 100 / n, or the time error would floor the finer runs (6.9e-7 and
    # 7.2e-7 at n = 200 and 400 with dt_safety 0.4); measured orders 3.22
    # and 3.65 (errors 4.43e-6, 4.75e-7, 3.79e-8)
    errs = [semicircle_wall_error(n, 0.3, 0.4 * 100 / n)[0]
            for n in (100, 200, 400)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 1.7 for p in orders), (errs, orders)
    assert errs[-1] <= 1e-6, errs


def _semicircle_radius_defect(dt_safety):
    """Node radii less the exact radius, at the end of a n = 100 run."""
    _, state = semicircle_wall_error(100, 0.3, dt_safety=dt_safety)
    center = 0.5 * (state.om_minus + state.om_plus)
    r = np.hypot(state.nodes[:, 0] - center, state.nodes[:, 1])
    return r - np.sqrt(1.0 - 2.0 * state.time)


def test_semicircle_on_wall_second_order_in_time():
    # at fixed n the spatial part of the defect is common to every run,
    # so the distance to a dt_safety 0.05 run is the time-stepping error
    # (measured 4.1e-6, 1.0e-6, 2.4e-7: orders 2.03 and 2.09)
    ref = _semicircle_radius_defect(0.05)
    errs = [float(np.max(np.abs(_semicircle_radius_defect(s) - ref)))
            for s in (0.8, 0.4, 0.2)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 1.7 for p in orders), (errs, orders)


def test_stationary_diameter_does_not_drift(ndisk):
    assert stationary_diameter_drift(ndisk) < 1e-10


def test_length_cap_holds_the_stationary_diameter(ndisk, monkeypatch):
    # the flat diameter's error estimate is about zero, so only the length
    # cap keeps its step from doubling every step (with no cap the drift
    # was measured at 2.1e-5)
    step = f.step
    taken = []

    def recording_step(state, *args):
        new = step(state, *args)
        taken.append((new.time - state.time,
                      f._LENGTH_STEP_CAP * state.length ** 2))
        return new

    monkeypatch.setattr(f, "step", recording_step)
    stationary_diameter_drift(ndisk)
    assert len(taken) == 50
    # a step is read back as a difference of times, within a rounding
    assert all(dt <= cap * (1.0 + 1e-12) for dt, cap in taken), taken
    assert taken[-1][0] == pytest.approx(taken[-1][1], rel=1e-12)


# ---------------------------------------------------------------------------
# single steps


@pytest.fixture(scope="module")
def disk_wall(ndisk):
    return f.ConvexWall(ndisk)


def _oval_state(ndom, rho, n):
    o = ov.construct_orthogonal_oval(ndom, rho)
    return f.initial_state_from_oval(o, n)


# the upper half of each normalized domain: semi-axes 1 along the
# diameter and 1, 1/2 or 2 across it
# (measured errors 1.2e-13, 2.9e-14, 5.0e-13)
@pytest.mark.parametrize("fix, half_area", [
    ("ndisk", np.pi / 2), ("nellipse_major", np.pi / 4),
    ("nellipse_minor", np.pi)],
    ids=["disk", "ellipse_major", "ellipse_minor"])
def test_flat_diameter_encloses_half_the_domain(fix, half_area, request):
    wall = f.ConvexWall(request.getfixturevalue(fix))
    xs = np.linspace(-1.0, 1.0, 64)
    state = f.CurveState(nodes=np.column_stack([xs, np.zeros_like(xs)]),
                         time=0.0, om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
    assert abs(f.enclosed_area(state, wall) - half_area) < 1e-11
    assert abs(wall.arc_area(np.pi / 2, 3 * np.pi / 2) - half_area) < 1e-11


def test_step_pins_contacts_to_wall(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    new = f.step(state, cfg, disk_wall, state.length / 99)
    assert new.time > state.time
    for node, om in ((new.nodes[0], new.om_minus), (new.nodes[-1], new.om_plus)):
        px, py = disk_wall.point_xy(om)
        assert np.hypot(node[0] - px, node[1] - py) < 1e-12


def test_step_keeps_orthogonal_contact(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    new = f.step(state, cfg, disk_wall, state.length / 99)
    for pts, om in ((new.nodes[:3], new.om_minus),
                    (new.nodes[::-1][:3], new.om_plus)):
        h1 = np.hypot(*(pts[1] - pts[0]))
        h2 = np.hypot(*(pts[2] - pts[1]))
        c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
        c1 = (h1 + h2) / (h1 * h2)
        c2 = -h1 / (h2 * (h1 + h2))
        tang = c0 * pts[0] + c1 * pts[1] + c2 * pts[2]
        nx, ny = disk_wall.jet_xy(om)[4:6]
        cross = tang[0] * ny - tang[1] * nx
        assert abs(cross) / np.hypot(*tang) < 1e-8


def _pinned_solve(rhs, h, dt, new):
    """The interior solve with the ends pinned where a step put them."""
    return f._implicit_interior(rhs, h, dt, ends=(new.nodes[0], new.nodes[-1]))


def test_steps_solve_the_interior_with_the_new_contacts(ndisk, disk_wall):
    # the start step is backward Euler, the next one BDF2 on the edges
    # extrapolated to the new time; each is one linear solve whose pinned
    # ends are the contacts it returns
    s0 = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    h0 = s0.length / 99
    s1 = f.step(s0, cfg, disk_wall, h0)
    s2 = f.step(s1, cfg, disk_wall, h0)
    # no resample: each newest level holds the stepped state's own nodes
    assert s1._prev[0][0].nodes is s0.nodes
    assert s2._prev[0][0].nodes is s1.nodes
    # a level is a new state without history, never the stepped state
    level = s2._prev[0][0]
    assert level is not s1 and level._prev is None and level._kap is None
    assert s2._prev[0][1] is s1._prev[0][0]
    seg0, seg1 = s0.seg_cached(), s1.seg_cached()
    be = _pinned_solve(s0.nodes, seg0, s1.time - s0.time, s1)
    assert np.max(np.abs(be - s1.nodes)) < 1e-13
    dt = s2.time - s1.time
    w = dt / (s1.time - s0.time)
    rhs = ((1 + w) ** 2 * s1.nodes - w ** 2 * s0.nodes) / (1 + 2 * w)
    bdf2 = _pinned_solve(rhs, (1 + w) * seg1 - w * seg0,
                         dt * (1 + w) / (1 + 2 * w), s2)
    assert np.max(np.abs(bdf2 - s2.nodes)) < 1e-13


@pytest.fixture(scope="module")
def drift_resample(ndisk, disk_wall):
    """(prev, new, cfg, h0): the first step of a disk run (rho 0.3, n 100)
    whose spacing drifted, so that it resampled (measured: the 366th);
    prev keeps its history, so the step can be taken again."""
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    h0 = state.length / 99
    prev, new = state, f.step(state, cfg, disk_wall, h0)
    for _ in range(600):
        if new._prev[0][0].nodes is not prev.nodes:
            return prev, new, cfg, h0
        prev, new = new, f.step(new, cfg, disk_wall, h0)
    pytest.fail("no step resampled its levels")


def test_resampled_step_keeps_the_history(drift_resample, disk_wall):
    # a step whose spacing drifted resamples the curve it came from and the
    # two before that at the same count, their ends on their own contacts,
    # and the next step is the BDF2 solve built from that history
    prev, new, cfg, h0 = drift_resample
    levels, _, _ = new._prev
    assert len(levels) == 3
    p1 = levels[0]
    n_out = len(new.nodes)
    assert n_out == len(prev.nodes) == 100
    for p, q in zip(levels, (prev,) + prev._prev[0][:2]):
        assert (p.time, p.om_minus, p.om_plus) == (q.time, q.om_minus,
                                                   q.om_plus)
        assert np.array_equal(p.nodes, f._resample([q.nodes], n_out)[0])
    assert tuple(p1.nodes[0]) == disk_wall.point_xy(prev.om_minus)
    assert tuple(p1.nodes[-1]) == disk_wall.point_xy(prev.om_plus)
    seg1 = p1.seg_cached()
    assert np.array_equal(seg1, np.hypot(*np.diff(p1.nodes, axis=0).T))
    nxt = f.step(new, cfg, disk_wall, h0)
    assert nxt._prev[0][0].nodes is new.nodes         # no resample
    dt = nxt.time - new.time
    w = dt / (new.time - p1.time)
    rhs = ((1 + w) ** 2 * new.nodes - w ** 2 * p1.nodes) / (1 + 2 * w)
    bdf2 = _pinned_solve(rhs, (1 + w) * new.seg_cached() - w * seg1,
                         dt * (1 + w) / (1 + 2 * w), nxt)
    assert np.max(np.abs(bdf2 - nxt.nodes)) < 1e-13


def test_a_resample_event_is_one_spline_solve(ndisk, drift_resample,
                                             monkeypatch):
    # the wall's point and area tables share one spline solve, and a step
    # that resamples makes two tridiagonal solves: the interior's, and one
    # packed spline for the new curve and its three levels
    solve, calls = f._tridiag_solve, []

    def counting_solve(*args):
        calls.append(len(args[1]))
        return solve(*args)

    monkeypatch.setattr(f, "_tridiag_solve", counting_solve)
    wall = f.ConvexWall(ndisk)
    assert calls == [f._WALL_GRID]
    prev, _, cfg, h0 = drift_resample
    calls.clear()
    new = f.step(prev, cfg, wall, h0)
    assert new._prev[0][0].nodes is not prev.nodes
    n = len(prev.nodes)
    assert calls == [n, 4 * n]
    assert len(new._prev[0]) == 3


def test_a_resample_event_reuses_the_step_edge_lengths(drift_resample,
                                                       disk_wall,
                                                       monkeypatch):
    # the step hands its resample the edge lengths it holds, the new
    # curve's and each level's cached ones, so the event forms none again
    prev, new, cfg, h0 = drift_resample
    assert prev._seg is not None
    assert all(p._seg is not None for p in prev._prev[0][:2])
    edge_lengths, calls = f._edge_lengths, []

    def counting(nodes):
        calls.append(len(nodes))
        return edge_lengths(nodes)

    monkeypatch.setattr(f, "_edge_lengths", counting)
    again = f.step(prev, cfg, disk_wall, h0)
    assert again._prev[0][0].nodes is not prev.nodes
    assert calls == []
    assert again.nodes.tobytes() == new.nodes.tobytes()


def _semicircle_estimate(dt, n=100, t_end=0.02):
    """The error estimate of the last of the fixed steps dt that take the
    unit semicircle on the x-axis wall to t_end.  The regular polygon's
    spacing does not drift, so nothing is resampled; by t_end the start
    step's and the first contact solve's effects on the history have
    decayed."""
    th = np.linspace(np.pi, 0.0, n)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    pts[0, 1] = pts[-1, 1] = 0.0
    state = f.CurveState(nodes=pts, time=0.0, om_minus=-1.0, om_plus=1.0)
    while state.time < t_end - 0.5 * dt:
        prev, state = state, f._attempt_step(state, StraightWall(), dt, 2)
        assert state._prev[0][0].nodes is prev.nodes
    return state._prev[1]


def test_step_error_estimate_is_third_order():
    # BDF2's local error and the quadratic extrapolation's both go as dt^3
    # (measured estimates 3.4e-9, 4.2e-10, 5.3e-11: ratios 7.99 and 7.99)
    errs = [_semicircle_estimate(dt) for dt in (1e-3, 5e-4, 2.5e-4)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(6.0 <= q <= 10.0 for q in ratios), (errs, ratios)


def _semicircle_level(state):
    """A state's nodes, time and contacts, without history."""
    return f.CurveState(nodes=state.nodes, time=state.time,
                        om_minus=state.om_minus, om_plus=state.om_plus)


@pytest.fixture(scope="module")
def semicircle_collapse_steps():
    """(dts, node errors, error estimates) of fixed collapse-phase steps dt
    that take the unit semicircle on the x-axis wall from 0.024 to 0.096,
    against a run at a step eight times finer than the finest.  Each run
    starts from the reference's states at 0.024 and the three times dt
    after it, so that every run shares the reference's history, started
    once the start step's and the first contact solve's effects have
    decayed; the regular polygon's spacing does not drift, so nothing is
    resampled."""
    wall, dts, t0, t_end = StraightWall(), (4e-3, 2e-3, 1e-3), 0.024, 0.096
    ref_dt = dts[-1] / 8
    th = np.linspace(np.pi, 0.0, 100)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    pts[0, 1] = pts[-1, 1] = 0.0
    ref = [f.CurveState(nodes=pts, time=0.0, om_minus=-1.0, om_plus=1.0)]
    for k in range(round(t_end / ref_dt)):
        ref.append(f._attempt_step(ref[-1], wall, ref_dt,
                                   3 if k >= 3 else 2))
    errs, ests = [], []
    for dt in dts:
        m, k0 = round(dt / ref_dt), round(t0 / ref_dt)
        state = _semicircle_level(ref[k0 + 3 * m])
        state._prev = (tuple(_semicircle_level(ref[k0 + k * m])
                             for k in (2, 1, 0)), None, None)
        for _ in range(round((t_end - t0) / dt) - 3):
            prev, state = state, f._attempt_step(state, wall, dt, 3)
            assert state._prev[0][0].nodes is prev.nodes
        assert state.time == pytest.approx(t_end, abs=1e-12)
        errs.append(float(np.max(np.abs(state.nodes - ref[-1].nodes))))
        ests.append(state._prev[1])
    return dts, errs, ests


def test_collapse_steps_converge_at_third_order(semicircle_collapse_steps):
    # BDF3 with its Laplacian at the edge lengths extrapolated
    # quadratically (measured errors 1.41e-8, 1.96e-9, 2.56e-10: orders
    # 2.85 and 2.93)
    _, errs, _ = semicircle_collapse_steps
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 2.7 for p in orders), (errs, orders)


def test_collapse_error_estimate_is_fourth_order(semicircle_collapse_steps):
    # BDF3's local error and the cubic extrapolation's both go as dt^4
    # (measured estimates 7.6e-9, 4.9e-10, 3.1e-11: ratios 15.5 and 15.7)
    _, _, ests = semicircle_collapse_steps
    ratios = [ests[i] / ests[i + 1] for i in range(2)]
    assert all(14.0 <= q <= 18.0 for q in ratios), (ests, ratios)


def _lagrange_derivatives(t):
    """The derivative at the new time t[0] of each Lagrange basis
    polynomial through the times t, in their order."""
    a = [sum(1.0 / (t[0] - s) for s in t[1:])]
    for j in range(1, len(t)):
        others = [s for k, s in enumerate(t) if k not in (0, j)]
        a.append(np.prod([t[0] - s for s in others])
                 / np.prod([t[j] - s for k, s in enumerate(t) if k != j]))
    return a


def test_a_collapse_step_is_the_bdf3_solve(ndisk, disk_wall):
    # from a state with three levels, a collapse step (h0 None) is one
    # linear solve: the variable-step BDF3 combination of the state and its
    # two newest levels, the Laplacian at the edge lengths extrapolated
    # quadratically, and the pinned ends the contacts it returns
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    h0 = state.length / 99
    for _ in range(4):
        state = f.step(state, cfg, disk_wall, h0)
    p1, p2, p3 = state._prev[0]
    new = f.step(state, cfg, disk_wall, None)
    assert new._prev[0][0].nodes is state.nodes
    assert new._prev[0][1:] == (p1, p2)
    t = [new.time, state.time, p1.time, p2.time]
    a = _lagrange_derivatives(t)
    rhs = -(a[1] * state.nodes + a[2] * p1.nodes + a[3] * p2.nodes) / a[0]
    # the quadratic through the edge lengths at the three times, at t[0]
    segs = [state.seg_cached(), p1.seg_cached(), p2.seg_cached()]
    h = sum(np.prod([(t[0] - t[k]) / (t[j] - t[k]) for k in (1, 2, 3)
                     if k != j]) * seg for j, seg in zip((1, 2, 3), segs))
    bdf3 = _pinned_solve(rhs, h, 1.0 / a[0], new)
    assert np.max(np.abs(bdf3 - new.nodes)) < 1e-13


def test_a_run_takes_one_backward_euler_step(ndisk, monkeypatch):
    # every state a step returns carries its history, resampled ones too,
    # so only the initial state takes a backward-Euler start step
    step, resample = f.step, f._resample
    starts, events = [], []

    def counting_step(state, *args, **kwargs):
        if state._prev is None:
            starts.append(state.time)
        return step(state, *args, **kwargs)

    def counting_resample(*args):
        events.append(len(args[0]))
        return resample(*args)

    monkeypatch.setattr(f, "step", counting_step)
    monkeypatch.setattr(f, "_resample", counting_resample)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    f.old_but_not_ancient(ndisk, 0.3, cfg)
    assert starts == [0.0]
    # the run resampled a drifted spacing, each time with all three levels
    # (measured 7 events)
    assert events and set(events) == {4}


def test_bdf2_steps_keep_orthogonal_contact(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    h0 = state.length / 99
    for _ in range(5):
        state = f.step(state, cfg, disk_wall, h0)
    assert state._prev is not None
    for pts, om in ((state.nodes[:3], state.om_minus),
                    (state.nodes[::-1][:3], state.om_plus)):
        h1 = np.hypot(*(pts[1] - pts[0]))
        h2 = np.hypot(*(pts[2] - pts[1]))
        tang = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * pts[0]
                + (h1 + h2) / (h1 * h2) * pts[1]
                - h1 / (h2 * (h1 + h2)) * pts[2])
        nx, ny = disk_wall.jet_xy(om)[4:6]
        assert abs(tang[0] * ny - tang[1] * nx) / np.hypot(*tang) < 1e-10


def test_step_grows_at_most_twofold(ndisk, disk_wall):
    # after a short step (as a halving leaves) the next one is capped at
    # twice its length, inside BDF2's zero-stability limit 1 + sqrt(2)
    s0 = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    h0 = s0.length / 99
    full = f.step(s0, cfg, disk_wall, h0).time - s0.time
    s1 = f._attempt_step(s0, disk_wall, 0.1 * full, 2)
    s2 = f.step(s1, cfg, disk_wall, h0)
    assert s2.time - s1.time == pytest.approx(2.0 * (s1.time - s0.time),
                                              rel=1e-12)


class _StepTaken(Exception):
    pass


@pytest.mark.parametrize("held", [False, True], ids=["h0", "None"])
def test_length_cap_scales_with_the_tolerance(ndisk, disk_wall, monkeypatch,
                                              held):
    # an estimate far under the tolerance after a step of 1: neither the
    # controller nor the twofold limit binds, so the cap sets the step.  In
    # the uniform phase it is _LENGTH_STEP_CAP * L^2 exactly, and in the
    # collapse phase (h0 None), at 256 times the tolerance, 256^(1/4) = 4
    # times that, exactly, as the controller's step scales at BDF3's
    # fourth order; the attempt is told the phase's BDF order
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    level = f.CurveState(nodes=state.nodes, time=state.time - 1.0,
                         om_minus=state.om_minus, om_plus=state.om_plus)
    state._prev = ((level,), 1e-30, 1e-30)
    taken = []

    def attempt(state, wall, dt, order):
        taken.append((dt, order))
        raise _StepTaken

    monkeypatch.setattr(f, "_attempt_step", attempt)
    with pytest.raises(_StepTaken):
        f.step(state, cfg, disk_wall, None if held else state.length / 99)
    cap = f._LENGTH_STEP_CAP * state.length ** 2
    assert taken == [(4.0 * cap, 3) if held else (cap, 2)]


def test_step_preserves_convexity(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    h0 = state.length / 99
    for _ in range(20):
        state = f.step(state, cfg, disk_wall, h0)
    assert float(np.min(state.kappa_cached(disk_wall))) > 0.0


def test_step_rejects_nonconvex_curve(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    nodes = state.nodes.copy()
    nodes[1:-1, 1] += 0.03 * np.sin(40.0 * np.pi * nodes[1:-1, 0])
    bad = f.CurveState(nodes=nodes, time=0.0,
                       om_minus=state.om_minus, om_plus=state.om_plus)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(StepRejected):
        f.step(bad, cfg, disk_wall, bad.length / 99)


def test_step_with_a_nan_node_is_rejected(ndisk, disk_wall):
    # the non-finite implicit system is a FlowError, so every halving fails
    # and the step ends typed; it used to end in a ValueError
    state = _oval_state(ndisk, 0.3, 100)
    nodes = state.nodes.copy()
    nodes[40, 1] = np.nan
    bad = f.CurveState(nodes=nodes, time=0.0,
                       om_minus=state.om_minus, om_plus=state.om_plus)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(StepRejected):
        f.step(bad, cfg, disk_wall, state.length / 99)


@pytest.mark.parametrize("h0", [0.0, np.nan, -0.03, np.inf, True],
                         ids=["zero", "nan", "negative", "inf", "bool"])
def test_step_rejects_a_bad_target_spacing(ndisk, disk_wall, h0):
    # 0 used to end in a ZeroDivisionError, NaN in StepRejected after 21
    # attempts; -0.03 stepped back in time, inf took a step of dt = 0 and
    # True, a numbers.Real, stepped with spacing 1.0
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(ConfigError):
        f.step(state, cfg, disk_wall, h0)


def test_run_with_nothing_to_step_is_rejected(ndisk, disk_wall):
    # a chord of the disk about 5e-4 long, under _EXTINCTION_LENGTH: the
    # run would store it alone, with no step to record
    om = np.pi / 2
    ends = [disk_wall.point_xy(om + 5e-4), disk_wall.point_xy(om)]
    nodes = np.linspace(*np.array(ends), 40)
    state = f.CurveState(nodes=nodes, time=0.0, om_minus=om + 5e-4,
                         om_plus=om)
    assert state.length < f._EXTINCTION_LENGTH
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(ConfigError):
        f.run_to_extinction(state, cfg, ndisk)


def test_step_budget_raises_with_partial(ndisk, monkeypatch):
    monkeypatch.setattr(f, "_MAX_STEPS", 50)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(NonExtinction) as exc:
        f.old_but_not_ancient(ndisk, 0.3, cfg)
    partial = exc.value.partial
    m = partial.monitors
    assert len(m["t"]) == 51
    assert float(np.min(m["kappa_min"])) > 0.0
    # fifty steps are far from extinction: the area law puts it
    # A / (theta+ + theta-) after the last state, as at the end of a run
    assert abs(m["t"][-1] + m["area"][-1] / (
        m["theta_plus"][-1] + m["theta_minus"][-1])) < 1e-14
    assert m["t"][-1] < -0.5
    assert partial.states[-1].time == m["t"][-1]
    assert len(partial.states) == 51


def test_step_budget_partial_ends_at_the_current_state(ndisk, monkeypatch):
    # every state is stored, so the partial holds the initial state and all
    # 51 stepped ones, and ends at the state the budget ran out at
    step, stepped = f.step, []

    def recording_step(*args):
        stepped.append(step(*args))
        return stepped[-1]

    monkeypatch.setattr(f, "step", recording_step)
    monkeypatch.setattr(f, "_MAX_STEPS", 51)
    cfg = f.SolverConfig(n_nodes=200, dt_safety=0.8)
    with pytest.raises(NonExtinction) as exc:
        f.old_but_not_ancient(ndisk, 0.1, cfg)
    partial = exc.value.partial
    assert len(partial.states) == 52
    assert partial.states[-1] is stepped[-1]
    assert np.all(np.diff(partial.monitors["t"]) > 0.0)


def _assert_ends_at_the_stop_length(traj):
    # every state is stored, so the run's last state is the first one
    # shorter than _EXTINCTION_LENGTH
    length = traj.monitors["length"]
    assert np.all(length[:-1] >= f._EXTINCTION_LENGTH)
    assert length[-1] < f._EXTINCTION_LENGTH


def test_lobed_domain_runs_to_extinction(nlobed):
    # no mirror symmetry, and the oval starts with shift xi = +0.20
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    traj = f.old_but_not_ancient(nlobed, 0.2, cfg)
    assert -1.4 < traj.alpha < -1.15          # measured -1.272
    assert float(np.min(traj.monitors["kappa_min"])) > 0.0
    _assert_ends_at_the_stop_length(traj)


# ---------------------------------------------------------------------------
# production run structure (shared session run on the disk)


class TestDiskRun:
    @pytest.fixture(autouse=True)
    def _run(self, runs, ndisk):
        self.traj = runs("disk_r03_n100")
        self.ndom = ndisk

    def test_extinction_at_the_top(self):
        x, y = self.traj.extinction_point
        assert abs(x) < 5e-3
        assert abs(y - 1.0) < 1e-2

    def test_monitor_times_end_near_zero(self):
        # the last state is about a half disk meeting the wall, whose
        # A / (theta+ + theta-) is L^2 / (2 pi^2): the stop length gives
        # -5.07e-6 (measured -4.69e-6 at L = 0.0096)
        t = np.asarray(self.traj.monitors["t"])
        assert t[0] == self.traj.alpha
        assert -f._EXTINCTION_LENGTH ** 2 / (2.0 * np.pi ** 2) < t[-1] < 0.0

    def test_run_ends_at_the_first_state_below_the_stop_length(self):
        _assert_ends_at_the_stop_length(self.traj)

    def test_area_strictly_decreasing(self):
        area = np.asarray(self.traj.monitors["area"])
        assert np.all(np.diff(area) < 0.0)

    def test_turning_angles_increase_to_extinction(self):
        th = np.asarray(self.traj.monitors["theta_plus"]) + \
            np.asarray(self.traj.monitors["theta_minus"])
        assert np.all(np.diff(th) > -1e-9)
        assert th[0] < np.pi / 2 < th[-1]

    def test_halfpi_crossing_bound(self):
        # the crossing time is bounded by twice the domain area over pi
        t = np.asarray(self.traj.monitors["t"])
        th = np.asarray(self.traj.monitors["theta_plus"]) + \
            np.asarray(self.traj.monitors["theta_minus"])
        i = int(np.argmax(th >= np.pi / 2))
        t0 = t[i]
        assert t0 < 0.0
        assert -t0 <= 2.0 * self.ndom.domain.area / np.pi * 1.05
        assert self.traj.alpha < t0

    def test_curvature_positive_throughout(self):
        assert float(np.min(self.traj.monitors["kappa_min"])) > 0.0

    def test_curvature_minimum_unique_per_state(self):
        counts = set(int(c) for c in self.traj.monitors["min_count"])
        assert counts == {1}

    def test_area_law_residual(self):
        t = np.asarray(self.traj.monitors["t"])
        area = np.asarray(self.traj.monitors["area"])
        th = np.asarray(self.traj.monitors["theta_plus"]) + \
            np.asarray(self.traj.monitors["theta_minus"])
        dadt = np.gradient(area, t)
        mask = (t > t[0] + 0.02) & (t < -0.05)
        rel = np.abs(dadt + th)[mask] / th[mask]
        assert float(np.max(rel)) < 6e-3

    def test_barrier_margin_nonnegative(self):
        # the arc barrier tangent to the horizontal line through the initial
        # curve's highest point, read on a fixed grid of raw run times over
        # its lifetime [0, -t_hat); the curve at each time is its finite
        # heights on MATCH_XS (measured margins 0.030 to 0.100)
        bcfg = b.BarrierConfig.from_domain(self.ndom)
        h_max = float(np.max(self.traj.states[0].nodes[:, 1]))
        t_hat = b.tangency_time(h_max * (1.0 + 1e-9), bcfg.r)
        raw = np.linspace(0.0, -t_hat, 16, endpoint=False)
        rows = self.traj.heights_at_time(raw - self.traj.time_offset,
                                         MATCH_XS)
        margin = []
        for t, y in zip(t_hat + raw, rows):
            m = np.isfinite(y)
            curve = np.column_stack([MATCH_XS[m], y[m]])
            margin.append(b.below_barrier(curve, b.barrier_at(t, bcfg))[1])
        assert len(margin) > 10
        assert min(margin) >= -1e-9

    def test_stored_states_cover_the_run(self):
        st = self.traj.monitors["t"]
        assert st[0] == self.traj.alpha
        assert len(st) > 200
        assert np.all(np.diff(st) > 0.0)


def test_every_step_is_stored(runs):
    # the stored states are the initial state and every state a step
    # returned, in order; the run takes 556 steps (592 with the former L^2
    # switch rule, 606 with that rule stopping at the curvature cap 1e3
    # near L = 0.003, 717 with BDF2 steps after the switch as well, 816
    # with the count also tracking the length until the switch, 889 with it
    # tracking the length throughout, 1,752 with the uniform tolerance
    # throughout, 4,006 under the mesh-only step rule)
    traj = runs("disk_r03_n100")
    stepped = runs.stepped("disk_r03_n100")
    assert len(traj.states) == len(stepped) + 1
    assert all(s is t for s, t in zip(traj.states[1:], stepped))
    assert np.all(np.diff(traj.monitors["t"]) > 0.0)
    assert len(stepped) <= 630


def test_states_and_runs_compare_by_identity(runs):
    # a field-wise == compares arrays, and raised "the truth value of an
    # array ... is ambiguous" on two states, in `in`, index and count, and
    # on two runs; neither could be hashed
    traj = runs("disk_r03_n100")
    s, t = traj.states[3], traj.states[4]
    assert s == s and s != t
    assert s != f.CurveState(nodes=s.nodes, time=s.time,
                             om_minus=s.om_minus, om_plus=s.om_plus)
    assert t in traj.states and traj.states.index(t) == 4
    assert len({s, t, s}) == 2
    assert traj == traj and len({traj, traj}) == 1
    # a mirror builds each of its states when it is read, so none is a
    # state of the run
    mirror = reflect_trajectory(traj)
    assert s not in mirror.states and mirror.states.count(s) == 0


def test_a_replaced_state_carries_no_cache():
    # a state's fields are its nodes, time and contacts; its caches are
    # not, so dataclasses.replace reads the new nodes (the edge lengths
    # were a field, and the halved semicircle kept the length 3.1407)
    th = np.linspace(np.pi, 0.0, 40)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    pts[0, 1] = pts[-1, 1] = 0.0
    s = f.CurveState(nodes=pts, time=0.0, om_minus=-1.0, om_plus=1.0)
    wall = StraightWall()
    s.length, s.seg_cached(), s.kappa_cached(wall)
    assert [x.name for x in dataclasses.fields(f.CurveState)] == [
        "nodes", "time", "om_minus", "om_plus"]
    half = dataclasses.replace(s, nodes=0.5 * s.nodes)
    fresh = f.CurveState(nodes=0.5 * pts, time=0.0, om_minus=-1.0,
                         om_plus=1.0)
    assert half.length == fresh.length == 0.5 * s.length
    assert half.seg_cached().tobytes() == fresh.seg_cached().tobytes()
    assert half.kappa_cached(wall).tobytes() == \
        fresh.kappa(wall).tobytes()
    with pytest.raises(TypeError):
        f.CurveState(nodes=pts, time=0.0, om_minus=-1.0, om_plus=1.0,
                     _seg=s.seg_cached())


@pytest.mark.parametrize("name, fix", [("disk_r03_n100", "ndisk"),
                                       ("egg_r01_n100", "negg")])
def test_monitors_are_read_from_the_stored_states(runs, name, fix, request):
    traj = runs(name)
    wall = f.ConvexWall(request.getfixturevalue(fix))
    xs = np.asarray(traj.config.abscissas)
    keys = ["t", "theta_plus", "theta_minus", "kappa_min", "kappa_max",
            "area", "length", "min_count"]
    assert sorted(traj.monitors) == sorted(
        keys + [f"y_at_x{j}" for j in range(len(xs))])
    for i, s in enumerate(traj.states):
        kap = s.kappa_cached(wall)
        row = [s.time, s.theta_plus, s.theta_minus, kap[1:-1].min(),
               kap.max(), f.enclosed_area(s, wall), s.length,
               f._local_min_count(kap[1:-1])]
        want = dict(zip(keys, row))
        want.update((f"y_at_x{j}", y) for j, y in enumerate(s.heights_at(xs)))
        for key, value in want.items():
            assert np.array_equal(traj.monitors[key][i], value,
                                  equal_nan=True), (key, i)


@pytest.mark.parametrize("name, fix", [("disk_r03_n100", "ndisk"),
                                       ("egg_r01_n100", "negg")])
def test_step_caches_match_a_fresh_state(runs, name, fix, request):
    # the step forms its curve's edges once and caches the lengths, their
    # sum and the curvature; each must be what a state without caches
    # computes from its nodes, bit for bit, on the states right after a
    # resample too, where edges formed before it would be stale
    traj = runs(name)
    wall = f.ConvexWall(request.getfixturevalue(fix))
    assert any(runs.resampled(name))
    for i, s in enumerate(traj.states):
        fresh = f.CurveState(nodes=s.nodes, time=s.time,
                             om_minus=s.om_minus, om_plus=s.om_plus)
        assert s._kap.tobytes() == fresh.kappa(wall).tobytes(), i
        seg = f._edge_lengths(s.nodes)
        assert s._seg.tobytes() == seg.tobytes(), i
        assert s.length == float(seg.sum()), i


# ---------------------------------------------------------------------------
# endpoint identities, resolution scaling


def _angle_ode_error(traj, ndom, wall, window=(-0.9, -0.35)):
    tm = np.asarray(traj.monitors["t"])
    dthp = np.gradient(np.asarray(traj.monitors["theta_plus"]), tm)
    errs = []
    for s, t in zip(traj.states, traj.monitors["t"]):
        if not (window[0] <= t <= window[1]):
            continue
        kap = s.kappa_cached(wall)
        k_wall = float(ndom.domain.curvature(s.om_plus))
        errs.append(abs(float(np.interp(t, tm, dthp)) - kap[-1] * k_wall))
    return max(errs)


def _contact_kappa_s_error(traj, ndom, wall, window=(-0.9, -0.35)):
    # line fit over six interior vertices, skipping the closure layer of
    # three nodes nearest the contact, read off at the wall
    errs = []
    for s, t in zip(traj.states, traj.monitors["t"]):
        if not (window[0] <= t <= window[1]):
            continue
        kap = s.kappa_cached(wall)
        e = s.nodes[1:] - s.nodes[:-1]
        h = np.hypot(e[:, 0], e[:, 1])
        sv = np.concatenate([-(np.cumsum(h[::-1])[::-1]), [0.0]])
        idx = np.arange(len(kap) - 9, len(kap) - 3)
        slope = np.polyfit(sv[idx], kap[idx], 1)[0]
        k_wall = float(ndom.domain.curvature(s.om_plus))
        errs.append(abs(abs(slope) - kap[-1] * k_wall))
    return max(errs)


def test_angle_ode_matches_at_first_order(runs, ndisk):
    wall = f.ConvexWall(ndisk)
    e100 = _angle_ode_error(runs("disk_r03_n100"), ndisk, wall)
    e200 = _angle_ode_error(runs("disk_r03_n200"), ndisk, wall)
    assert e100 < 0.03
    assert 1.4 < e100 / e200 < 2.8


def _area_ledger(traj):
    """max |D| of D(t) = A(t) - A(alpha) + the integral of theta+ + theta-
    from alpha to t, by the trapezoid rule over the stored states at or
    before -_ANALYSIS_END: zero for the exact flow, whose contacts meet the
    wall at right angles (dA/dt = -(theta+ + theta-))."""
    m = traj.monitors
    keep = m["t"] <= -f._ANALYSIS_END
    t, area = m["t"][keep], m["area"][keep]
    th = (m["theta_plus"] + m["theta_minus"])[keep]
    swept = np.concatenate([[0.0], np.cumsum(0.5 * (th[1:] + th[:-1])
                                             * np.diff(t))])
    return float(np.max(np.abs(area - area[0] + swept)))


def test_area_law_ledger_falls_with_the_mesh(runs):
    # the identity the extinction time is read from (_finalize); measured
    # 1.68e-4 at n_nodes 100 and 4.05e-5 at 200, a factor of 4.14
    d100 = _area_ledger(runs("disk_r03_n100"))
    d200 = _area_ledger(runs("disk_r03_n200"))
    assert d100 / d200 >= 3.5, (d100, d200)


def test_contact_curvature_gradient_identity(runs, ndisk):
    wall = f.ConvexWall(ndisk)
    e100 = _contact_kappa_s_error(runs("disk_r03_n100"), ndisk, wall)
    e200 = _contact_kappa_s_error(runs("disk_r03_n200"), ndisk, wall)
    assert e100 < 0.2
    assert 1.5 < e100 / e200 < 2.7


# ---------------------------------------------------------------------------
# comparison principle at desk scale


def test_nested_initial_curves_stay_ordered(runs):
    upper = runs("disk_r03_n100")
    lower = runs("disk_r015_n100")
    t_up = np.asarray(upper.monitors["t"]) + upper.time_offset
    t_lo = np.asarray(lower.monitors["t"]) + lower.time_offset
    tgrid = np.linspace(0.0, min(t_up[-1], t_lo[-1]) * 0.999, 600)
    first_gap = np.inf
    min_gap = np.inf
    for k in range(5):
        yu = np.interp(tgrid, t_up, upper.monitors[f"y_at_x{k}"])
        yl = np.interp(tgrid, t_lo, lower.monitors[f"y_at_x{k}"])
        m = np.isfinite(yu) & np.isfinite(yl)
        first_gap = min(first_gap, float(yu[0] - yl[0]))
        min_gap = min(min_gap, float(np.min((yu - yl)[m])))
    assert first_gap > 0.03
    assert min_gap > 0.0
    assert min_gap > first_gap - 1e-3


def test_alpha_strictly_more_negative_for_smaller_rho(disk_sweep):
    a = [tr.alpha for tr in disk_sweep.trajectories]
    assert a[0] > a[1] > a[2]


def test_disk_run_step_count(disk_sweep):
    # rho = 0.1, n_nodes 200, dt_safety 0.8: measured 703 steps (740 with
    # the former L^2 switch rule, 754 with that rule stopping at the
    # curvature cap 1e3 near L = 0.003, 864 with BDF2 steps after the
    # switch as well, 1,066 with the count also tracking the length until
    # the switch, 1,212 with it tracking the length throughout, 2,250 at
    # the uniform tolerance)
    assert disk_sweep.rhos[1] == 0.1
    assert len(disk_sweep.trajectories[1].states) - 1 <= 740


def test_minor_axis_run_step_count(runs):
    # a long chord's slow early phase, where the length cap binds:
    # measured 1,904 steps (1,953 with the former L^2 switch rule, 1,967
    # with that rule stopping at the curvature cap 1e3 near L = 0.003,
    # 2,082 with BDF2 steps after the switch as well, 2,156 with the count
    # also tracking the length until the switch, 2,183 with it tracking
    # the length throughout, 2,995 at the uniform tolerance, 1,318 of them
    # at the length cap)
    assert len(runs("minor_r01_n100").states) - 1 <= 2000


# ---------------------------------------------------------------------------
# the collapse phase: h0 None, the tolerance loosened

_SWITCH_RUNS = ["disk_r01_n200", "egg_r01_n100", "minor_r01_n100"]


def _first_held_step(runs, name):
    """The index of the first step in the collapse phase (h0 None): the
    stored state it starts from."""
    return runs.held(name).index(True)


@pytest.mark.parametrize("name", _SWITCH_RUNS)
def test_tolerance_loosens_once_after_every_analysis_window(runs, name):
    # measured: the first held step starts at offset -0.231 (disk),
    # -0.231 (egg) and -0.225 (ellipse(2,1) minor axis), and 104, 110 and
    # 99 BDF3 steps follow it to the stop length (with the former L^2
    # switch rule -0.189, -0.191 and -0.171, and 102, 102 and 92 steps)
    traj, held = runs(name), runs.held(name)
    t = traj.monitors["t"]
    k = _first_held_step(runs, name)
    assert WINDOW_CEIL < -f._ANALYSIS_END
    assert t[k] > -f._ANALYSIS_END
    # the switch latches
    assert held[k:] == [True] * (len(held) - k)
    # the switch fires well before the end, and the collapse after it is
    # short
    assert t[k] < -0.2
    assert len(held) - k <= 130


@pytest.mark.parametrize("name", _SWITCH_RUNS)
def test_area_law_bounds_the_time_left_up_to_the_switch(runs, name):
    # the switch's premise: dA/dt = -(theta+ + theta-), so while theta+ +
    # theta- does not fall, the area A runs out within A / (theta+ +
    # theta-), and the switch, which fires once the area clock over
    # theta+ + theta- is below _ANALYSIS_END, comes after -_ANALYSIS_END.
    # Measured: theta+ + theta- never falls before the switch, and A /
    # (theta+ + theta-) exceeds the time left by at least 0.068 (disk),
    # 0.068 (egg) and 0.074 (ellipse(2,1) minor axis)
    m = runs(name).monitors
    k = _first_held_step(runs, name)
    turn = (m["theta_plus"] + m["theta_minus"])[:k + 1]
    assert np.all(np.diff(turn) >= 0.0)
    assert np.all(m["area"][:k + 1] / turn >= -m["t"][:k + 1])


def test_collapse_steps_keep_bdf3_zero_stable(runs):
    # at a constant step ratio, variable-step BDF3 is zero-stable only up
    # to 1.618 (Calvo, Grande and Grigorieff, Numer. Math. 57, 1990); the
    # collapse steps pass that twice on this run (ratios up to 1.654, under
    # _MAX_STEP_RATIO 2), so the BDF3 recursion on y' = 0 is held instead:
    # the product of its companion matrices over the collapse steps' times
    # has a 2-norm that peaks at 7.34, three steps after the switch, and
    # ends at 5.25 (7.33 and 6.69 on the egg, 7.85 and 5.81 on the
    # ellipse(2,1) minor axis, at rho 0.1)
    name = "disk_r01_n200"
    t = runs(name).monitors["t"]
    prod, norms = np.eye(3), []
    for k in range(_first_held_step(runs, name), len(t) - 1):
        a = _lagrange_derivatives(t[[k + 1, k, k - 1, k - 2]])
        comp = np.array([[-a[1] / a[0], -a[2] / a[0], -a[3] / a[0]],
                         [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        prod = comp @ prod
        norms.append(np.linalg.norm(prod, 2))
    assert max(norms) < 8.0 and norms[-1] < 6.5, (max(norms), norms[-1])


@pytest.mark.parametrize("name", _SWITCH_RUNS)
def test_every_state_keeps_the_initial_node_count(runs, name):
    # in both phases, so that only a drifted spacing resamples
    traj = runs(name)
    counts = [len(s.nodes) for s in traj.states]
    assert counts == [traj.config.n_nodes] * len(counts)


@pytest.mark.parametrize("name", _SWITCH_RUNS)
def test_only_a_drifted_spacing_resamples(runs, name):
    # measured 7, 9 and 7 resample events (65, 34 and 51 with the count
    # tracking the length until the switch)
    assert 1 <= sum(runs.resampled(name)) <= 12


@pytest.mark.parametrize("name, fix", [
    ("disk_r03_n100", "ndisk"), ("disk_r03_n200", "ndisk"),
    ("disk_r015_n100", "ndisk"), ("disk_r01_n200", "ndisk"),
    ("egg_r01_n100", "negg"), ("minor_r01_n100", "nellipse_minor")])
def test_sign_test_accepts_only_convex_states_of_the_runs(runs, name, fix,
                                                         request):
    # a state whose every turn is positive has no negative curvature, and
    # the convexity check would accept it too; measured, every stored state
    # of these runs passes the sign test, so no step reads a curvature
    traj = runs(name)
    wall = f.wall_for(request.getfixturevalue(fix))
    accepted = 0
    for s in traj.states:
        if f._turns_positive(s, s.nodes[1:] - s.nodes[:-1], wall):
            accepted += 1
            assert float(s._kap.min()) >= 0.0
            assert f._convexity_defect(s, wall) >= 0.0
    assert accepted >= 0.99 * len(traj.states)


def test_stationary_diameter_takes_the_curvature_check(ndisk):
    # a flat curve has no positive turn, so every step reads its curvature,
    # and the convexity check accepts it: each curvature is 0 up to
    # rounding of either sign
    xs = np.linspace(-1.0, 1.0, _DRIFT_NODES)
    state = f.CurveState(nodes=np.column_stack([xs, np.zeros_like(xs)]),
                         time=0.0, om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
    wall = f.wall_for(ndisk)
    cfg = f.SolverConfig(n_nodes=_DRIFT_NODES, dt_safety=0.4)
    h0 = state.length / (_DRIFT_NODES - 1)
    for _ in range(10):
        assert not f._turns_positive(state, state.nodes[1:] - state.nodes[:-1],
                                     wall)
        state = f.step(state, cfg, wall, h0)
        assert state._kap is not None
        assert f._convexity_defect(state, wall) >= -1e-8


def test_uniqueness_window_ends_where_the_tolerance_may_loosen(disk_sweep):
    assert all(p.window[1] == -f._ANALYSIS_END for p in disk_sweep.pairs)


@pytest.mark.parametrize("name", ["disk_r01_n200", "egg_r01_n100"])
def test_states_before_the_switch_are_the_uniform_runs(runs, name):
    # a plain loop of steps from the same initial state, in the uniform
    # phase until the recorded switch and with h0 None from it on,
    # reproduces every stored state, bit for bit: before the switch they
    # are a uniform run's
    traj = runs(name)
    ndom, rho, n = runs.spec(name)
    cfg = traj.config
    state = _oval_state(ndom, rho, n)
    wall = f.ConvexWall(ndom)
    h0 = state.length / (n - 1)
    switch = _first_held_step(runs, name)
    assert np.array_equal(state.nodes, traj.states[0].nodes)
    for k, stored in enumerate(traj.states[1:]):
        if k == switch:
            h0 = None
        state = f.step(state, cfg, wall, h0)
        assert np.array_equal(state.nodes, stored.nodes)
        assert (state.om_minus, state.om_plus) == (stored.om_minus,
                                                   stored.om_plus)


# (2 pi A / L^2 - 1) / L of the lens that a small circle meeting the unit
# circle orthogonally cuts from the unit disk tends to this as L -> 0
_LENS_LIMIT = 4.0 / (3.0 * np.pi ** 2)


def test_collapse_phase_approaches_the_lens_limit(runs):
    # the curve shrinks to a boundary point of the unit disk, meeting the
    # wall orthogonally, so the last states (all in the collapse phase) are
    # near such lenses; read from the area and length monitors at
    # L = 0.1, 0.03 and 0.01 (measured 0.1367, 0.1329 and 0.1268, the same
    # with BDF2 collapse steps; 0.1373, 0.1350 and 0.1332 at rho 0.1,
    # n_nodes 200, where the space error is smaller)
    m = runs("disk_r03_n100").monitors
    area, length = m["area"], m["length"]
    assert np.all(np.diff(length) < 0.0)
    ratio = (2.0 * np.pi * area / length ** 2 - 1.0) / length
    reads = np.interp([0.1, 0.03, 0.01], length[::-1], ratio[::-1])
    assert np.all(np.abs(reads - _LENS_LIMIT) < 0.01), reads


# measured 2.7e-8 (disk), 1.4e-8 (egg) and 1.2e-7 (ellipse(2,1) minor
# axis, whose reading at the stop is within 5e-10 of the one at L = 0.003)
@pytest.mark.parametrize("name, bound", [
    ("disk_r01_n200", 1e-7), ("egg_r01_n100", 1e-7),
    ("minor_r01_n100", 2e-7)])
def test_extinction_estimate_has_settled_before_the_stop(runs, name, bound):
    # read at the first state shorter than 0.03 the area law's extinction
    # time is already that of the last state, so stopping at
    # _EXTINCTION_LENGTH = 0.01 loses nothing the estimate could still gain
    m = runs(name).monitors
    est = m["t"] + m["area"] / (m["theta_plus"] + m["theta_minus"])
    first = int(np.argmax(m["length"] < 0.03))
    assert 0 < first < len(est) - 1
    assert abs(est[first] - est[-1]) < bound, est[first] - est[-1]


def test_collapse_step_needs_an_error_estimate(ndisk, disk_wall):
    # the collapse phase has no mesh step, so a state whose history holds
    # no error estimate, as an initial state, cannot take one
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(ConfigError):
        f.step(state, cfg, disk_wall, None)


def test_switch_waits_for_the_first_error_estimate(ndisk, monkeypatch):
    # with the switch rule holding from the start, the fourth step, the
    # first from a state with an error estimate, is the first held one
    step, held = f.step, []

    def recording_step(*args):
        held.append(args[3] is None)
        return step(*args)

    monkeypatch.setattr(f, "step", recording_step)
    monkeypatch.setattr(f, "_ANALYSIS_END", 1e6)
    monkeypatch.setattr(f, "_MAX_STEPS", 8)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(NonExtinction):
        f.old_but_not_ancient(ndisk, 0.3, cfg)
    assert held == [False] * 3 + [True] * 5


# alpha and the fitted turning-angle rate at the uniform tolerance
# throughout: the switch moves alpha by 3.1e-5 (disk) and 3.0e-5 (egg)
# and leaves each rate's bits (2.6e-5 and 2.7e-5, and each rate by up to
# three units in its last place, with the former L^2 switch rule; 4.1e-5
# and 4.1e-5 with BDF2 steps after that switch)
@pytest.mark.parametrize("name, alpha, rate", [
    ("disk_r01_n200", -2.1119084075776646, 1.438269784572755),
    ("egg_r01_n100", -1.589492086741772, 2.3595748259159244)])
def test_looser_collapse_keeps_alpha_and_the_rate(runs, name, alpha, rate):
    traj = runs(name)
    ndom = runs.spec(name)[0]
    lam0 = ov.solve_lambda0(ndom.kappa1, ndom.kappa2)
    report = verify_estimates(traj, 0.25, lam0)
    fitted = report.record("turning_angle_decay").fitted_rate
    assert abs(traj.alpha - alpha) < 1e-4
    assert abs(fitted - rate) <= 1e-12 * rate


# ---------------------------------------------------------------------------
# reading stored states in time

_NODE_X = np.linspace(-1.0, 1.0, 9)
_READ_X = np.array([-0.75, -0.5, 0.0, 0.5, 0.75])   # on nodes: exact in x


def _linear_trajectory(times, offsets=None):
    """Stored states of the graphs y = (3 + t + offset)(1 - x/4)."""
    offsets = [0.0] * len(times) if offsets is None else offsets
    shape = 1.0 - 0.25 * _NODE_X
    states = [f.CurveState(
        nodes=np.column_stack([_NODE_X, (3.0 + t + c) * shape]),
        time=t, om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
        for t, c in zip(times, offsets)]
    return f.Trajectory(
        monitors={"t": np.asarray(times)}, states=states, time_offset=0.0,
        config=f.SolverConfig(n_nodes=200, dt_safety=0.4), ndom=None)


def _reads():
    """The two ways to read a run in time, through which every case below
    must hold bit for bit: one heights_at_time call per read, and calls of
    one height_reader kept per run and abscissas, so that later calls
    gather rows of states that an earlier call read."""
    readers = {}

    def through_one_reader(traj, ts, xs):
        key = (id(traj), np.asarray(xs).tobytes())
        if key not in readers:
            readers[key] = traj, traj.height_reader(xs)
        return readers[key][1](ts)

    return (lambda traj, ts, xs: traj.heights_at_time(ts, xs),
            through_one_reader)


def test_heights_at_time_exact_at_stored_times():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    for read in _reads():
        rows = read(traj, traj.monitors["t"], _READ_X)
        assert rows.shape == (len(traj.states), len(_READ_X))
        for s, row in zip(traj.states, rows):
            assert np.array_equal(row, s.heights_at(_READ_X))


def test_heights_at_time_midpoint_is_the_average():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    y0, y1 = (s.heights_at(_READ_X) for s in traj.states[:2])
    for read in _reads():
        (mid,) = read(traj, [-1.5], _READ_X)
        assert np.array_equal(mid, 0.5 * (y0 + y1))
        assert np.allclose(mid, 1.5 * (1.0 - 0.25 * _READ_X), rtol=0,
                           atol=1e-15)


def test_heights_at_time_clamps_outside_the_stored_times():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    first, last = traj.states[0], traj.states[-1]
    for read in _reads():
        rows = read(traj, [-7.0, -2.0 - 1e-9, 1e-9, 3.0], _READ_X)
        for row in rows[:2]:
            assert np.array_equal(row, first.heights_at(_READ_X))
        for row in rows[2:]:
            assert np.array_equal(row, last.heights_at(_READ_X))


def test_heights_at_time_equal_time_pair():
    # two stored states at t = 0; past it the later one starts the next
    # interval, at t = 0 itself the bracket ending there returns the first
    traj = _linear_trajectory([-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 5.0, 5.0])
    first, later, after = traj.states[1:]
    for read in _reads():
        at0, past0 = read(traj, [0.0, 0.5], _READ_X)
        assert np.array_equal(at0, first.heights_at(_READ_X))
        assert np.array_equal(past0, 0.5 * (later.heights_at(_READ_X)
                                            + after.heights_at(_READ_X)))


def test_heights_at_time_reads_a_stored_time_from_its_state_alone():
    # the state before spans less of the chord, so it has no height at
    # x = 0.7; reading t = 0 used to weight it by 0 and return 0 * NaN
    spans = {-1.0: 0.5, 0.0: 0.9}
    states = [f.CurveState(
        nodes=np.column_stack([np.linspace(-w, w, 5), np.ones(5)]),
        time=t, om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
        for t, w in spans.items()]
    traj = f.Trajectory(
        monitors={"t": np.array(list(spans))}, states=states,
        time_offset=0.0, config=f.SolverConfig(n_nodes=200, dt_safety=0.4),
        ndom=None)
    xs = np.array([0.0, 0.7])
    for read in _reads():
        (row,) = read(traj, [0.0], xs)
        assert np.array_equal(row, [1.0, 1.0])
        (mid,) = read(traj, [-0.5], xs)
        assert mid[0] == 1.0 and np.isnan(mid[1])


def test_heights_at_time_takes_times_of_any_shape():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    ts = np.array([[-3.0, -1.5, -1.0], [-0.75, 0.0, 2.0]])
    for read in _reads():
        rows = read(traj, ts, _READ_X)
        assert rows.shape == (2, 3, len(_READ_X))
        assert np.array_equal(rows.reshape(6, -1),
                              read(traj, ts.ravel(), _READ_X))
        # a 0-d time reads one row
        (mid,) = read(traj, [-1.5], _READ_X)
        assert np.array_equal(read(traj, -1.5, _READ_X), mid)
        # no time: no row and no state read
        assert read(traj, [], _READ_X).shape == (0, len(_READ_X))
        assert read(traj, np.empty((3, 0)), _READ_X).shape == \
            (3, 0, len(_READ_X))


def test_heights_at_time_rejects_nan_and_clamps_infinities():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    for read in _reads():
        for ts in ([np.nan], [[-1.0, np.nan]], np.nan):
            with pytest.raises(ConfigError):
                read(traj, ts, _READ_X)
        lo, hi = read(traj, [-np.inf, np.inf], _READ_X)
        assert np.array_equal(lo, traj.states[0].heights_at(_READ_X))
        assert np.array_equal(hi, traj.states[-1].heights_at(_READ_X))


def test_a_reader_reads_each_state_once(monkeypatch):
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    index = {id(s): k for k, s in enumerate(traj.states)}
    reads = []
    read = f.CurveState.heights_at

    def counting_read(self, xs):
        reads.append(index[id(self)])
        return read(self, xs)

    monkeypatch.setattr(f.CurveState, "heights_at", counting_read)
    reader = traj.height_reader(_READ_X)
    first = reader([-1.5, -0.75])
    assert reads == [0, 1, 2]       # state 1 brackets both times
    want = traj.heights_at_time([-1.75, -0.25], _READ_X)
    # a second call at the same times reads no state again, and gives the
    # same rows
    reads.clear()
    assert np.array_equal(reader([-1.5, -0.75]), first)
    assert reads == []
    # a call whose times bracket one new state reads that state alone
    assert np.array_equal(reader([[-1.75], [-0.25]]).reshape(2, -1), want)
    assert reads == [3]


def test_reflected_domain_gives_the_mirror_solution(ellipse):
    # the solution on the other side of the diameter comes from running
    # the reflected domain; normalization folds the mirror image back
    a1, b1 = g._rotate_coeffs(ellipse.a, ellipse.b, 0.4)
    dom1 = g.ConvexDomain(a1, b1)
    dom2 = dom1.reflect_x()
    nd1 = g.normalize(dom1, g.find_diameters(dom1)[0])
    nd2 = g.normalize(dom2, g.find_diameters(dom2)[0])
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    tr1 = f.old_but_not_ancient(nd1, 0.2, cfg)
    tr2 = f.old_but_not_ancient(nd2, 0.2, cfg)
    tgrid = np.linspace(max(tr1.alpha, tr2.alpha) * 0.9, -0.05, 40)
    worst = 0.0
    compared = 0
    for k in range(5):
        ya = np.interp(tgrid, tr1.monitors["t"], tr1.monitors[f"y_at_x{k}"])
        yb = np.interp(tgrid, tr2.monitors["t"], tr2.monitors[f"y_at_x{k}"])
        m = np.isfinite(ya) & np.isfinite(yb)
        compared += int(np.sum(m))
        worst = max(worst, float(np.max(np.abs(ya[m] - yb[m]))))
    assert compared > 100
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# local minimum counting


@given(st.integers(2, 40), st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_min_count_single_vee(n_down, n_up):
    vals = np.concatenate([np.linspace(1.0, 0.0, n_down),
                           np.linspace(0.0, 1.0, n_up)[1:]])
    assert f._local_min_count(vals) == 1


@given(st.integers(2, 30), st.integers(1, 10), st.integers(2, 30))
@settings(max_examples=60, deadline=None)
def test_min_count_ignores_flat_bottom(n_down, n_flat, n_up):
    vals = np.concatenate([np.linspace(1.0, 0.3, n_down),
                           np.full(n_flat, 0.3),
                           np.linspace(0.3, 1.0, n_up)[1:]])
    assert f._local_min_count(vals) == 1


def test_min_count_two_wells():
    vals = np.array([3.0, 1.0, 2.0, 2.5, 0.5, 2.0])
    assert f._local_min_count(vals) == 2


def test_min_count_monotone_is_zero():
    assert f._local_min_count(np.linspace(0.0, 1.0, 9)) == 0
    assert f._local_min_count(np.linspace(1.0, 0.0, 9)) == 0


# ---------------------------------------------------------------------------
# one wall per domain


def _disk_domain():
    dom = g.ConvexDomain.disk(1.0)
    return dom, g.normalize(dom, g.find_diameters(dom)[0])


def _same_run(a, b):
    """Whether two runs hold the same states and monitors, bit for bit."""
    return (len(a.states) == len(b.states)
            and all(s.nodes.tobytes() == t.nodes.tobytes()
                    and (s.om_minus, s.om_plus) == (t.om_minus, t.om_plus)
                    for s, t in zip(a.states, b.states))
            and all(a.monitors[k].tobytes() == b.monitors[k].tobytes()
                    for k in a.monitors))


def test_a_domain_builds_its_wall_once(monkeypatch):
    # a repeated run on one domain reads the wall the first built; another
    # domain gets a wall of its own; and a run through the kept wall is the
    # run through a fresh ConvexWall, bit for bit
    built = []
    init = f.ConvexWall.__init__

    def counting_init(self, ndom):
        built.append(ndom)
        init(self, ndom)

    monkeypatch.setattr(f.ConvexWall, "__init__", counting_init)
    _, ndom = _disk_domain()
    cfg = f.SolverConfig(n_nodes=40, dt_safety=0.8)
    first = f.old_but_not_ancient(ndom, 0.3, cfg)
    again = f.old_but_not_ancient(ndom, 0.3, cfg)
    assert built == [ndom]
    assert stationary_diameter_drift(ndom) < 1e-10
    assert built == [ndom]
    _, other = _disk_domain()
    assert f.wall_for(other) is not f.wall_for(ndom)
    assert built == [ndom, other]
    monkeypatch.setattr(f, "wall_for", f.ConvexWall)
    fresh = f.old_but_not_ancient(ndom, 0.3, cfg)
    assert len(built) == 3
    assert _same_run(first, again) and _same_run(first, fresh)


def test_a_wall_is_freed_with_its_domain():
    dom, ndom = _disk_domain()
    wall = weakref.ref(f.wall_for(ndom))
    assert wall() is f.wall_for(ndom)
    del dom, ndom
    gc.collect()
    assert wall() is None
