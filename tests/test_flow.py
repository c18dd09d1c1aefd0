"""Flow solver tests: exact-solution validation, structural identities
along production runs, sweep reporting, and failure modes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fbcsf.flow as f
import fbcsf.geometry as g
import fbcsf.oval as ov
from fbcsf.errors import ConfigError, NonExtinction, StepRejected


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_tiny_node_count():
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=8)


def test_config_rejects_bad_safety():
    with pytest.raises(ConfigError):
        f.SolverConfig(dt_safety=0.0)
    with pytest.raises(ConfigError):
        f.SolverConfig(dt_safety=1.5)


@pytest.mark.parametrize("n_nodes", [64.5, 100.0, "100", None])
def test_config_rejects_non_integer_node_count(n_nodes):
    # 64.5 used to end in a TypeError deep inside the first resample
    with pytest.raises(ConfigError):
        f.SolverConfig(n_nodes=n_nodes)


@pytest.mark.parametrize("max_steps", [0, -3, 2.5, float("nan")])
def test_config_rejects_empty_step_budget(max_steps):
    # 0 and -3 used to end in numpy's divide warning in the extinction fit
    with pytest.raises(ConfigError):
        f.SolverConfig(max_steps=max_steps)


def test_config_accepts_numpy_integers():
    cfg = f.SolverConfig(n_nodes=np.int64(64), max_steps=np.int32(10))
    assert cfg.n_nodes == 64 and cfg.max_steps == 10


# ---------------------------------------------------------------------------
# exact solutions


def test_grim_reaper_second_order():
    errs = [f.grim_reaper_error(n, 0.2) for n in (100, 200, 400)]
    slope = -np.polyfit(np.log([100, 200, 400]), np.log(errs), 1)[0]
    assert 1.7 <= slope <= 2.3, (errs, slope)


def test_semicircle_on_wall_second_order():
    # the regular polygon's arc-length Laplacian is exactly -1/r, so the
    # error is the contacts' and the time stepping's; with dt ~ h the
    # measured orders are 3.1 and 3.3 (errors 5.1e-6, 5.7e-7, 5.9e-8)
    errs = [f.semicircle_wall_error(n, 0.3)[0] for n in (100, 200, 400)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 1.7 for p in orders), (errs, orders)
    assert errs[-1] <= 1e-6, errs


def _semicircle_radius_defect(dt_safety):
    """Node radii less the exact radius, at the end of a n = 100 run."""
    _, state = f.semicircle_wall_error(100, 0.3, dt_safety=dt_safety)
    center = 0.5 * (state.om_minus + state.om_plus)
    r = np.hypot(state.nodes[:, 0] - center, state.nodes[:, 1])
    return r - np.sqrt(1.0 - 2.0 * state.time)


def test_semicircle_on_wall_second_order_in_time():
    # at fixed n the spatial part of the defect is common to every run,
    # so the distance to a dt_safety 0.05 run is the time-stepping error
    # (measured 1.6e-6, 3.9e-7, 9.3e-8: orders 2.02 and 2.06)
    ref = _semicircle_radius_defect(0.05)
    errs = [float(np.max(np.abs(_semicircle_radius_defect(s) - ref)))
            for s in (0.8, 0.4, 0.2)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(p >= 1.7 for p in orders), (errs, orders)


def test_stationary_diameter_does_not_drift(ndisk):
    assert f.stationary_diameter_drift(ndisk) < 1e-10


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
    new = f.step(state, cfg, disk_wall)
    assert new.time > state.time
    for node, om in ((new.nodes[0], new.om_minus), (new.nodes[-1], new.om_plus)):
        px, py = disk_wall.point_xy(om)
        assert np.hypot(node[0] - px, node[1] - py) < 1e-12


def test_step_keeps_orthogonal_contact(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    new = f.step(state, cfg, disk_wall)
    for pts, om in ((new.nodes[:3], new.om_minus),
                    (new.nodes[::-1][:3], new.om_plus)):
        h1 = np.hypot(*(pts[1] - pts[0]))
        h2 = np.hypot(*(pts[2] - pts[1]))
        c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
        c1 = (h1 + h2) / (h1 * h2)
        c2 = -h1 / (h2 * (h1 + h2))
        tang = c0 * pts[0] + c1 * pts[1] + c2 * pts[2]
        nx, ny = disk_wall.normal_xy(om)
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
    s1 = f.step(s0, cfg, disk_wall)
    s2 = f.step(s1, cfg, disk_wall)
    assert s1._prev is not None and s2._prev is not None   # no resample
    seg0, seg1 = s0.seg_cached(), s1.seg_cached()
    be = _pinned_solve(s0.nodes, seg0, s1.time - s0.time, s1)
    assert np.max(np.abs(be - s1.nodes)) < 1e-13
    dt = s2.time - s1.time
    w = dt / (s1.time - s0.time)
    rhs = ((1 + w) ** 2 * s1.nodes - w ** 2 * s0.nodes) / (1 + 2 * w)
    bdf2 = _pinned_solve(rhs, (1 + w) * seg1 - w * seg0,
                         dt * (1 + w) / (1 + 2 * w), s2)
    assert np.max(np.abs(bdf2 - s2.nodes)) < 1e-13


def test_bdf2_steps_keep_orthogonal_contact(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    for _ in range(5):
        state = f.step(state, cfg, disk_wall)
    assert state._prev is not None
    for pts, om in ((state.nodes[:3], state.om_minus),
                    (state.nodes[::-1][:3], state.om_plus)):
        h1 = np.hypot(*(pts[1] - pts[0]))
        h2 = np.hypot(*(pts[2] - pts[1]))
        tang = (-(2 * h1 + h2) / (h1 * (h1 + h2)) * pts[0]
                + (h1 + h2) / (h1 * h2) * pts[1]
                - h1 / (h2 * (h1 + h2)) * pts[2])
        nx, ny = disk_wall.normal_xy(om)
        assert abs(tang[0] * ny - tang[1] * nx) / np.hypot(*tang) < 1e-10


def test_step_grows_at_most_twofold(ndisk, disk_wall):
    # after a short step (as a halving leaves) the next one is capped at
    # twice its length, inside BDF2's zero-stability limit 1 + sqrt(2)
    s0 = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    full = f.step(s0, cfg, disk_wall).time - s0.time
    s1 = f._attempt_step(s0, cfg, disk_wall, 0.1 * full, None)
    s2 = f.step(s1, cfg, disk_wall)
    assert s2.time - s1.time == pytest.approx(2.0 * (s1.time - s0.time),
                                              rel=1e-12)


def test_step_preserves_convexity(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    for _ in range(20):
        state = f.step(state, cfg, disk_wall)
    assert float(np.min(state.kappa_cached(disk_wall))) > 0.0


def test_step_rejects_nonconvex_curve(ndisk, disk_wall):
    state = _oval_state(ndisk, 0.3, 100)
    nodes = state.nodes.copy()
    nodes[1:-1, 1] += 0.03 * np.sin(40.0 * np.pi * nodes[1:-1, 0])
    bad = f.CurveState(nodes=nodes, time=0.0,
                       om_minus=state.om_minus, om_plus=state.om_plus)
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    with pytest.raises(StepRejected):
        f.step(bad, cfg, disk_wall)


def test_step_budget_raises_with_partial(ndisk):
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8, max_steps=50)
    with pytest.raises(NonExtinction) as exc:
        f.old_but_not_ancient(ndisk, 0.3, cfg)
    partial = exc.value.partial
    assert len(partial.monitors["t"]) == 51
    assert float(np.min(partial.monitors["kappa_min"])) > 0.0
    # fifty steps are far from extinction: the L^2 fit lands well past
    # t_end + 0.5, so the offset falls back to the last recorded time
    assert partial.extinction_fit_fallback is True
    assert partial.monitors["t"][-1] == 0.0


def test_lobed_domain_runs_to_extinction(nlobed):
    # no mirror symmetry, and the oval starts with shift xi = +0.20
    cfg = f.SolverConfig(n_nodes=100, dt_safety=0.8)
    traj = f.old_but_not_ancient(nlobed, 0.2, cfg)
    assert -1.4 < traj.alpha < -1.15          # measured -1.272
    assert float(np.min(traj.monitors["kappa_min"])) > 0.0
    assert traj.extinction_fit_fallback is False


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
        t = np.asarray(self.traj.monitors["t"])
        assert t[0] == self.traj.alpha
        assert -2e-2 < t[-1] <= 0.0

    def test_extinction_fit_lands_in_range(self):
        assert self.traj.extinction_fit_fallback is False

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
        margin = np.asarray(self.traj.monitors["barrier_margin"])
        finite = margin[np.isfinite(margin)]
        assert len(finite) > 10
        assert float(np.min(finite)) >= -1e-9

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "run.csv"
        self.traj.to_csv(path)
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
        assert header == ("t,theta_plus,theta_minus,kappa_min,kappa_max,"
                          "area,dA_dt,y_at_x0,y_at_x1,y_at_x2,y_at_x3,"
                          "y_at_x4,barrier_margin")
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (len(self.traj.monitors["t"]), 13)
        # %.17g survives the float round trip bit for bit
        for j, c in enumerate(header.split(",")):
            assert np.array_equal(
                data[:, j], np.asarray(self.traj.monitors[c]), equal_nan=True)

    def test_stored_states_cover_the_run(self):
        st = self.traj.state_times
        assert st[0] == self.traj.alpha
        assert len(st) > 200
        assert np.all(np.diff(st) > 0.0)


# ---------------------------------------------------------------------------
# endpoint identities, resolution scaling


def _angle_ode_error(traj, ndom, wall, window=(-0.9, -0.35)):
    tm = np.asarray(traj.monitors["t"])
    dthp = np.gradient(np.asarray(traj.monitors["theta_plus"]), tm)
    errs = []
    for s, t in zip(traj.states, traj.state_times):
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
    for s, t in zip(traj.states, traj.state_times):
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
    a = disk_sweep.alphas
    assert a[0] > a[1] > a[2]


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
        monitors={}, states=states, state_times=np.asarray(times),
        time_offset=0.0, alpha=times[0],
        extinction_point=np.zeros(2), config=f.SolverConfig())


def test_heights_at_time_exact_at_stored_times():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    for s in traj.states:
        assert np.array_equal(traj.heights_at_time(s.time, _READ_X),
                              s.heights_at(_READ_X))


def test_heights_at_time_midpoint_is_the_average():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    y0, y1 = (s.heights_at(_READ_X) for s in traj.states[:2])
    mid = traj.heights_at_time(-1.5, _READ_X)
    assert np.array_equal(mid, 0.5 * (y0 + y1))
    assert np.allclose(mid, 1.5 * (1.0 - 0.25 * _READ_X), rtol=0, atol=1e-15)


def test_heights_at_time_clamps_outside_the_stored_times():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    first, last = traj.states[0], traj.states[-1]
    for t in (-7.0, -2.0 - 1e-9):
        assert np.array_equal(traj.heights_at_time(t, _READ_X),
                              first.heights_at(_READ_X))
    for t in (1e-9, 3.0):
        assert np.array_equal(traj.heights_at_time(t, _READ_X),
                              last.heights_at(_READ_X))


def test_heights_at_time_equal_time_pair():
    # two stored states at t = 0; past it the later one starts the next
    # interval, at t = 0 itself the bracket ending there returns the first
    traj = _linear_trajectory([-1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 5.0, 5.0])
    first, later = traj.states[1], traj.states[2]
    assert np.array_equal(traj.heights_at_time(0.0, _READ_X),
                          first.heights_at(_READ_X))
    assert np.array_equal(traj.heights_at_time(0.5, _READ_X),
                          0.5 * (later.heights_at(_READ_X)
                                 + traj.states[3].heights_at(_READ_X)))


def test_matched_distance_of_a_run_with_itself_is_zero():
    traj = _linear_trajectory([-2.0, -1.0, -0.5, 0.0])
    ts = np.linspace(-1.9, -0.1, 7)
    assert f.matched_distance(traj, traj, 0.0, ts, _READ_X) == 0.0
    # a sample time at which the curves share no abscissa
    assert f.matched_distance(traj, traj, 0.0, ts, np.array([2.0])) == np.inf


# ---------------------------------------------------------------------------
# sweep report


class TestSweep:
    def test_needs_three_rho_values(self, ndisk):
        with pytest.raises(ConfigError):
            f.ancient_sweep(ndisk, [0.2, 0.1], f.SolverConfig())

    def test_pair_distances_small_and_decreasing(self, disk_sweep):
        d = disk_sweep.pair_distances
        assert len(d) == 2
        assert d[0] < 5e-5 and d[1] < 5e-5
        assert d[1] < d[0]

    def test_heights_settle_to_positive_limit(self, disk_sweep):
        h = disk_sweep.heights_at_tm2
        # rho = 0.2 starts after t = -2 (alpha = -1.63): no height there
        assert np.isnan(h[0])
        assert h[1] > 0.0 and h[2] > 0.0
        assert abs(h[2] - h[1]) < 1e-4


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
