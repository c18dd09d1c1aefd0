"""Step-kernel tests: the tridiagonal solves against dense linear algebra,
the spline kernel and the wall tables against scipy's CubicSpline, the
local-minimum counter against its original implementation, the
analytic-slope contact Newton against finite differences and a bracketed
root, the BDF weights against polynomial exactness and BDF2's closed
form, and the slimmed flow kernels against the forms they replaced, with
no write into an input a kernel does not own and no call of numpy's
reduction wrappers or of an ABC instance check in a step."""

import copy
import os
import sys
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

import fbcsf.flow as f
import fbcsf.geometry as g
import fbcsf.oval as ov
from fbcsf.errors import FlowError
from fbcsf.solve import safe_brentq
from exact_solutions import GrimReaperWalls, StraightWall


# ---------------------------------------------------------------------------
# tridiagonal solves


def _arc_nodes(n, seed=0):
    """Unevenly spaced nodes on a wobbly upper arc."""
    rng = np.random.default_rng(seed)
    th = np.sort(rng.uniform(0.2, np.pi - 0.2, n))
    r = 1.0 + 0.05 * np.sin(3.0 * th)
    return np.column_stack([r * np.cos(th), r * np.sin(th)])


def _edges(nodes):
    e = np.diff(nodes, axis=0)
    return np.hypot(e[:, 0], e[:, 1])


def _dense_laplacian(nodes):
    """Arc-length Laplacian of an open polyline, rows 0 and n-1 zero."""
    n = len(nodes)
    h = _edges(nodes)
    L = np.zeros((n, n))
    for i in range(1, n - 1):
        hl, hr = h[i - 1], h[i]
        L[i, i - 1] = 2.0 / (hl * (hl + hr))
        L[i, i + 1] = 2.0 / (hr * (hl + hr))
        L[i, i] = -L[i, i - 1] - L[i, i + 1]
    return L


def _banded_reference(nodes, dt, rhs):
    """The original assembly, solved with solve_banded."""
    n = len(nodes)
    h = _edges(nodes)
    hl, hr = h[:-1], h[1:]
    ab = np.zeros((3, n))
    ab[1, :] = 1.0
    ab[1, 1:-1] = 1.0 + dt * (2.0 / (hl * (hl + hr)) + 2.0 / (hr * (hl + hr)))
    ab[0, 2:] = -dt * (2.0 / (hr * (hl + hr)))
    ab[2, :-2] = -dt * (2.0 / (hl * (hl + hr)))
    return solve_banded((1, 1), ab, rhs)


def test_implicit_interior_matches_dense_solve():
    nodes = _arc_nodes(40)
    dt = 3e-3
    ends = [(-1.1, 0.15), (1.05, 0.2)]
    got = f._implicit_interior(nodes, _edges(nodes), dt, ends=ends)
    rhs = nodes.copy()
    rhs[0], rhs[-1] = ends
    want = np.linalg.solve(np.eye(len(nodes)) - dt * _dense_laplacian(nodes),
                           rhs)
    assert np.max(np.abs(got - want)) < 1e-13
    # the direct gtsv call is the routine solve_banded uses for (1, 1)
    assert np.array_equal(got, _banded_reference(nodes, dt, rhs))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_implicit_interior_rejects_non_finite_nodes(bad):
    # a FlowError, which step answers by halving dt (it was a ValueError)
    nodes = _arc_nodes(20)
    nodes[7, 1] = bad
    with pytest.raises(FlowError):
        f._implicit_interior(nodes, _edges(nodes), 1e-3,
                             ends=(nodes[0], nodes[-1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_implicit_interior_rejects_repeated_node():
    # a zero-length edge gives infinite Laplacian weights
    nodes = _arc_nodes(20)
    nodes[8] = nodes[7]
    with pytest.raises(FlowError):
        f._implicit_interior(nodes, _edges(nodes), 1e-3,
                             ends=(nodes[0], nodes[-1]))


def test_tridiag_solve_rejects_singular_matrix():
    # a FlowError, which step answers by halving dt (it was scipy's
    # LinAlgError)
    n = 6
    with pytest.raises(FlowError):
        f._tridiag_solve(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1),
                         np.ones((n, 2)))


# ---------------------------------------------------------------------------
# the BDF weights

_EPS = np.finfo(float).eps


@st.composite
def _distances(draw):
    """1 to 4 distances of levels back from a new time, as a step reads
    them: the first the step, each next one further back by a step 0.1 to
    10 times the one before."""
    steps = [draw(st.floats(1e-3, 1.0))]
    for r in draw(st.lists(st.floats(0.1, 10.0), max_size=3)):
        steps.append(steps[-1] * r)
    return list(accumulate(steps))


@given(_distances())
@settings(max_examples=200, deadline=None)
def test_extrapolation_weights_reproduce_polynomials(d):
    # row r - 1 of the table, the extrapolation through the first r
    # levels, is exact, up to rounding, on every polynomial of degree
    # below r: on each monomial t^m, with the new time at t = 0 and the
    # levels at t = -d_j
    rows = f._extrapolation_weights(d)
    assert [len(w) for w in rows] == list(range(1, len(d) + 1))
    for w in rows:
        for m in range(len(w)):
            terms = [wj * (-dj) ** m for wj, dj in zip(w, d)]
            tol = 8 * len(w) * _EPS * sum(map(abs, terms))
            assert abs(sum(terms) - (m == 0)) <= tol, (m, terms)


@given(_distances())
@settings(max_examples=200, deadline=None)
def test_bdf_weights_sum_to_one(d):
    # the BDF-k right-hand side's weights beta l_j / d_j keep a constant
    # curve where it is
    beta, c = f._bdf_weights(f._extrapolation_weights(d)[-1], d)
    assert 0.0 < beta <= d[0]
    assert abs(sum(c) - 1.0) <= 8 * len(d) * _EPS * sum(map(abs, c)), c


@given(st.floats(1e-6, 1.0), st.floats(1e-3, 2.0))
@settings(max_examples=200, deadline=None)
def test_bdf2_weights_are_the_closed_form(dt, ratio):
    # two levels: BDF2 with the step ratio w = dt / dt_prev, its weights
    # (1 + w)^2 / (1 + 2w) and -w^2 / (1 + 2w), beta = dt (1 + w) / (1 + 2w)
    d = [dt, dt + dt / ratio]
    w = dt / (d[1] - d[0])
    beta, c = f._bdf_weights(f._extrapolation_weights(d)[-1], d)
    assert beta == pytest.approx(dt * (1 + w) / (1 + 2 * w), rel=1e-15)
    assert c[0] == pytest.approx((1 + w) ** 2 / (1 + 2 * w), rel=1e-15)
    assert c[1] == pytest.approx(-w * w / (1 + 2 * w), rel=1e-15)


@pytest.mark.parametrize("dt", [1e-7, 3e-3, 0.1, 1.0 / 3.0])
def test_one_level_is_backward_euler_exactly(dt):
    assert f._extrapolation_weights([dt]) == [[1.0]]
    assert f._bdf_weights([1.0], [dt]) == (dt, [1.0])


# ---------------------------------------------------------------------------
# not-a-knot spline


@st.composite
def _spline_data(draw):
    """Strictly increasing knots with gaps spread over three decades, and
    one or two columns of values."""
    n = draw(st.integers(4, 300))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-5.0, 5.0) + np.concatenate(
        [[0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 0.5, n - 1))])
    return x, rng.uniform(-10.0, 10.0, (n, m))


@given(_spline_data())
@settings(max_examples=200, deadline=None)
def test_spline_is_cubic_spline_bit_for_bit(data):
    x, y = data
    ref = CubicSpline(x, y, axis=0)
    c = f._spline([x], [y])
    assert np.array_equal(c, ref.c)
    # the knots, and points on and beyond [x0, xn] (the end pieces extend)
    for xi in (np.linspace(x[0], x[-1], 101), x,
               np.linspace(x[0] - 1.0, x[-1] + 1.0, 57)):
        assert np.array_equal(f._spline_at([x], c, [xi]), ref(xi))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spline_rejects_non_finite_input(bad):
    x = np.linspace(0.0, 1.0, 8)
    y = np.sin(x)
    y[3] = bad
    with pytest.raises(ValueError):
        f._spline([x], [y])


@pytest.mark.parametrize("sizes", [(3,), (8, 3)], ids=["alone", "packed"])
def test_spline_rejects_fewer_than_four_knots(sizes):
    # scipy's LinAlgError (a ValueError) used to come out of the solve
    xs = [np.linspace(0.0, 1.0, n) for n in sizes]
    with pytest.raises(ValueError, match="at least 4 knots"):
        f._spline(xs, [np.sin(x) for x in xs])


@pytest.mark.parametrize("packed", [False, True], ids=["alone", "packed"])
@pytest.mark.parametrize("knots", [[0.0, 1.0, 1.0, 2.0, 3.0],
                                   [0.0, 2.0, 1.0, 3.0, 4.0]],
                         ids=["repeated", "unordered"])
def test_spline_rejects_knots_that_do_not_increase(knots, packed):
    # the repeated knot ended in a divide RuntimeWarning, and the unordered
    # knots gave finite coefficients; packed, the bad block follows a good
    # one, whose join to it is no knot width
    xs = ([np.linspace(0.0, 1.0, 8)] if packed else []) + [np.array(knots)]
    with pytest.raises(ValueError, match="strictly increasing"):
        f._spline(xs, [np.sin(x) for x in xs])


@pytest.fixture(scope="module")
def nflat(flat_ellipse):
    return g.normalize(flat_ellipse, g.find_diameters(flat_ellipse)[0])


@pytest.mark.parametrize("fix", ["negg", "nflat"])
def test_wall_tables_are_cubic_spline_tables(fix, request):
    ndom = request.getfixturevalue(fix)
    # the wall's own construction, with scipy's spline and antiderivative
    om = np.linspace(np.pi / 2 - f._WALL_PAD, 3 * np.pi / 2 + f._WALL_PAD,
                     f._WALL_GRID)
    pts, dp = ndom.domain.point(om), ndom.domain.dpoint(om)
    green = 0.5 * (pts[:, 0] * dp[:, 1] - pts[:, 1] * dp[:, 0])
    pc = CubicSpline(om, pts, axis=0).c.transpose(1, 0, 2).ravel()
    gc = CubicSpline(om, green).antiderivative().c.T.ravel()
    wall = f.ConvexWall(ndom)
    assert np.array_equal(np.asarray(wall._pc), pc)
    assert np.array_equal(np.asarray(wall._gc), gc)


def _reference_wall_tables(ndom):
    """The wall tables as bytes, by the plain construction: every array
    alive to the end, and each table copied out through tobytes."""
    dom = ndom.domain
    om = np.linspace(np.pi / 2 - f._WALL_PAD, 3 * np.pi / 2 + f._WALL_PAD,
                     f._WALL_GRID)
    pts = dom.point(om)
    dp = dom.dpoint(om)
    green = 0.5 * (pts[:, 0] * dp[:, 1] - pts[:, 1] * dp[:, 0])
    c = f._spline([om], [np.column_stack([pts, green])])
    pc = c[:, :, :2].transpose(1, 0, 2).tobytes()
    gc = c[:, :, 2] / np.arange(4.0, 0.0, -1.0)[:, None]
    h = np.diff(om)
    terms = np.stack([gc[3] * h, gc[2] * (h * h), gc[1] * (h * h * h),
                      gc[0] * (h * h * h * h)], axis=1)
    const = np.zeros(f._WALL_GRID - 1)
    const[1:] = np.cumsum(terms[:-1].ravel())[3::4]
    return pc, np.vstack([gc, const]).T.tobytes()


@pytest.mark.parametrize("fix", ["negg", "nflat"])
def test_wall_tables_are_the_reference_construction_bytes(fix, request):
    ndom = request.getfixturevalue(fix)
    wall = f.ConvexWall(ndom)
    pc, gc = _reference_wall_tables(ndom)
    assert wall._pc.tobytes() == pc
    assert wall._gc.tobytes() == gc


def test_wall_set_up_frees_its_arrays_early(negg):
    # measured peak 1.05 MB on the egg wall, set inside the spline solve;
    # 1.54 MB with every array alive to the end and the tables copied out
    # through tobytes
    f.ConvexWall(negg)
    tracemalloc.start()
    try:
        f.ConvexWall(negg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


def test_steep_wall_set_up_memory_is_bounded_by_the_blocks(flat_ellipse):
    # fresh normalizations of the ellipse(3,1) major axis: measured peak
    # 1.24 MB, set by the blocked point and dpoint synthesis; 7.3 MB when
    # each built the whole 4,096 x 108 angle-harmonic matrices
    d = g.find_diameters(flat_ellipse)[0]
    f.ConvexWall(g.normalize(flat_ellipse, d))
    ndom = g.normalize(flat_ellipse, d)
    tracemalloc.start()
    try:
        f.ConvexWall(ndom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_spline_writes_its_coefficients_in_place():
    # the wall table's solve, 4,096 knots and 3 columns: a lone block is
    # read in place and c's rows are written into one array (measured peak
    # 0.86 MB; c itself is 0.39 MB)
    om = np.linspace(0.0, 4.0, 4096)
    pts = np.column_stack([np.cos(om), np.sin(om), np.sin(2.0 * om)])
    tracemalloc.start()
    try:
        f._spline([om], [pts])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.95e6


def _cubic_spline_resample(nodes, n_out):
    """_resample of one curve, with scipy's CubicSpline."""
    seg = _edges(nodes)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.concatenate([[True], seg > 1e-15])
    want = CubicSpline(s[keep], nodes[keep], axis=0)(
        np.linspace(0.0, s[-1], n_out))
    want[0], want[-1] = nodes[0], nodes[-1]
    return want


def test_resample_drops_a_zero_length_edge_as_cubic_spline(ndisk):
    nodes = ov.sample_initial_curve(ov.construct_orthogonal_oval(ndisk, 0.3),
                                    40)
    nodes = np.insert(nodes, 11, nodes[10], axis=0)
    assert _edges(nodes)[10] == 0.0
    assert np.array_equal(f._resample([nodes], 57)[0],
                          _cubic_spline_resample(nodes, 57))


@st.composite
def _resample_events(draw):
    """One to four curves of 4 to 300 distinct nodes, some with a node
    repeated, and the node count to take them all to."""
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = _arc_nodes(draw(st.integers(4, 300)),
                           draw(st.integers(0, 2**32 - 1)))
        if draw(st.booleans()):
            k = draw(st.integers(0, len(nodes) - 1))
            nodes = np.insert(nodes, k, nodes[k], axis=0)
        curves.append(nodes)
    return curves, draw(st.integers(4, 300))


@given(_resample_events())
@settings(max_examples=200, deadline=None)
def test_packed_resample_is_cubic_spline_of_each_curve(event):
    # one packed solve gives every curve the bits of its own spline
    curves, n_out = event
    out = f._resample(curves, n_out)
    assert len(out) == len(curves)
    for nodes, got in zip(curves, out):
        assert np.array_equal(got, _cubic_spline_resample(nodes, n_out))


def test_resample_rejects_fewer_than_four_distinct_nodes():
    # 41 nodes on 3 points used to come back unchanged, not at 33 nodes
    nodes = np.repeat(_arc_nodes(3), [14, 14, 13], axis=0)
    with pytest.raises(FlowError):
        f._resample([_arc_nodes(40), nodes], 33)


# ---------------------------------------------------------------------------
# local minimum counting


def _local_min_count_reference(values, rel_tol=1e-10):
    """The original implementation, kept as the reference."""
    d = np.diff(values)
    tol = rel_tol * float(np.max(np.abs(values))) + 1e-300
    sg = np.where(d > tol, 1, np.where(d < -tol, -1, 0))
    sg = sg[sg != 0]
    if len(sg) < 2:
        return 0
    return int(np.sum((sg[:-1] == -1) & (sg[1:] == 1)))


# few distinct levels make plateaus and exact ties common; the tiny
# offsets sit below the flatness tolerance
_levels = st.sampled_from([0.0, 1.0, 2.0, 2.0 + 1e-12, 3.0, -1.0, 0.5])
_samples = st.one_of(
    st.lists(_levels, min_size=0, max_size=30),
    st.lists(st.floats(-5.0, 5.0), min_size=0, max_size=30),
    st.builds(lambda v, n: [v] * n, st.floats(-5.0, 5.0),
              st.integers(0, 12)),
)


@given(_samples)
@settings(max_examples=400, deadline=None)
def test_min_count_matches_reference(vals):
    vals = np.asarray(vals, dtype=float)
    if len(vals) == 0:
        with pytest.raises(ValueError):
            _local_min_count_reference(vals)
        with pytest.raises(ValueError):
            f._local_min_count(vals)
        return
    got = f._local_min_count(vals)
    assert type(got) is int
    assert got == _local_min_count_reference(vals)


@pytest.mark.parametrize("vals", [
    [1.0], [1.0, 1.0], [2.0, 1.0], [1.0, 2.0], [1.0, 0.0, 1.0],
    [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 2.0],
    [3.0, 1.0, 1.0, 1.0 + 1e-13, 3.0], [1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
])
def test_min_count_short_plateau_and_tie_cases(vals):
    vals = np.asarray(vals)
    assert f._local_min_count(vals) == _local_min_count_reference(vals)


class _ArcAreaWall:
    """A wall whose boundary term of the area is a fixed smooth function
    of the two contact parameters, of floats or of arrays; the block pass
    reads nothing else.  It is plain arithmetic, whose bits do not depend
    on how many values one call takes (np.sin's may, by host)."""

    @staticmethod
    def arc_area(om_from, om_to):
        return om_from * (1.0 - 0.25 * om_from) - 0.5 * om_to


_CURVATURE_LEVELS = np.array([0.0, -0.0, 1.0, 2.0, 2.0 + 1e-12, 3.0, -1.0])


def _ragged_states(n, groups, seed):
    """Synthetic stored states of n nodes, as a run's are, group by group:
    each group is (states, kind), its curvature drawn from few levels
    (plateaus and exact ties), held constant, or continuous."""
    rng = np.random.default_rng(seed)
    states = []
    for count, kind in groups:
        for _ in range(count):
            if kind == "levels":
                kap = rng.choice(_CURVATURE_LEVELS, n)
            elif kind == "flat":
                kap = np.full(n, rng.uniform(-2.0, 2.0))
            else:
                kap = rng.uniform(-5.0, 5.0, n)
            state = f.CurveState(
                nodes=rng.uniform(-1.0, 1.0, (n, 2)), time=0.0,
                om_minus=float(rng.uniform(2.0, 4.0)),
                om_plus=float(rng.uniform(1.0, 2.0)))
            state._kap = kap
            states.append(state)
    return states


_groups = st.lists(st.tuples(st.integers(1, 70),
                             st.sampled_from(["levels", "flat", "floats"])),
                   min_size=1, max_size=4)


@given(st.integers(4, 9), _groups, st.integers(0, 2**32 - 1))
@example(6, [(70, "levels"), (1, "floats"), (33, "flat")], 0)
@example(4, [(1, "levels"), (32, "levels"), (1, "levels")], 1)
@example(200, [(40, "floats")], 2)   # row sums past numpy's 128-term block
@settings(max_examples=60, deadline=None)
def test_block_monitors_are_the_per_state_reads(n, groups, seed):
    # runs longer than one block (_BLOCK_STATES = 32) and of one state,
    # plateaus and exact ties: every entry is the state's own read, bit for
    # bit, with the per-state dtypes
    states = _ragged_states(n, groups, seed)
    wall = _ArcAreaWall()
    got = f._block_monitors(states, wall)
    kaps = [s._kap for s in states]
    want = (np.array([float(k[1:-1].min()) for k in kaps]),
            np.array([float(k.max()) for k in kaps]),
            np.array([f.enclosed_area(s, wall) for s in states]),
            np.array([f._local_min_count(k[1:-1]) for k in kaps]))
    for g_arr, w_arr in zip(got, want):
        assert g_arr.dtype == w_arr.dtype
        assert g_arr.tobytes() == w_arr.tobytes()
    assert got[3].tolist() == [_local_min_count_reference(k[1:-1])
                               for k in kaps]


# ---------------------------------------------------------------------------
# contact Newton with the analytic slope


@pytest.fixture(scope="module")
def egg_wall(negg):
    return f.ConvexWall(negg)


def _check_jet(wall, om, step=1e-5):
    px, py, dpx, dpy, nx, ny, dnx, dny = wall.jet_xy(om)
    assert (px, py) == wall.point_xy(om)
    assert (nx, ny) == wall.normal_xy(om)
    # the normal is a unit vector orthogonal to the point's derivative (a
    # cubic table's derivative on the egg: measured <= 1.1e-11 relative)
    assert abs(np.hypot(nx, ny) - 1.0) < 1e-15
    assert abs(nx * dpx + ny * dpy) < 1e-10 * np.hypot(dpx, dpy)
    ahead, behind = wall.point_xy(om + step), wall.point_xy(om - step)
    for k, dv in enumerate((dpx, dpy)):
        assert abs((ahead[k] - behind[k]) / (2 * step) - dv) < 1e-6
    ahead, behind = wall.jet_xy(om + step)[4:6], wall.jet_xy(om - step)[4:6]
    for k, dv in enumerate((dnx, dny)):
        assert abs((ahead[k] - behind[k]) / (2 * step) - dv) < 1e-6


# off the egg's mirror axis, all on the wall table
@pytest.mark.parametrize("om", [1.3, 2.2, 2.9, 3.6, 4.4, 4.95])
def test_convex_wall_jet_matches_central_difference(egg_wall, om):
    _check_jet(egg_wall, om)


# the table covers [pi/2 - 0.35, 3 pi/2 + 0.35] = [1.2208, 5.0624]
@pytest.mark.parametrize("om", [0.6, 5.5, np.pi / 2 - 0.351,
                                3 * np.pi / 2 + 0.351, np.nan])
def test_convex_wall_off_the_table_raises_flow_error(egg_wall, om):
    with pytest.raises(FlowError):
        egg_wall.jet_xy(om)
    with pytest.raises(FlowError):
        egg_wall.point_xy(om)
    with pytest.raises(FlowError):
        egg_wall.normal_xy(om)
    with pytest.raises(FlowError):
        egg_wall.arc_area(om, np.pi)
    with pytest.raises(FlowError):
        egg_wall.arc_area(np.pi, om)


def test_convex_wall_table_ends_are_on_the_table(egg_wall):
    for om in (np.pi / 2 - 0.35, 3 * np.pi / 2 + 0.35):
        assert np.all(np.isfinite(egg_wall.jet_xy(om)))
        assert np.isfinite(egg_wall.arc_area(om, np.pi))


def test_upper_table_end_is_clamped_to_the_last_segment(negg, egg_wall):
    # with the table's own step the upper end's offset divides to just
    # under _nseg segments; a step a few ulps shorter divides it to _nseg,
    # past the last segment, and the clamp keeps it on that segment
    wall = copy.copy(egg_wall)
    while int((wall._hi - wall._lo) / wall._hg) < wall._nseg:
        wall._hg = np.nextafter(wall._hg, 0.0)
    for w in (egg_wall, wall):
        i, u = w._segment(w._hi)
        assert i == w._nseg - 1 and u == pytest.approx(w._hg, rel=1e-9)
        point = w.point_xy(w._hi)
        assert point == w.jet_xy(w._hi)[:2]
        # the table's interpolation error there: measured 2.4e-13
        assert np.allclose(point, negg.domain.point_xy(w._hi),
                           rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("p", [-1.3, 0.0, 0.7])
def test_straight_wall_jet_matches_central_difference(p):
    _check_jet(StraightWall(), p)


# both branches of y = -log|sin x|, away from the pole at x = 0
@pytest.mark.parametrize("p", [-1.2, -0.7, 0.7, 1.2])
def test_grim_reaper_walls_jet_matches_central_difference(p):
    _check_jet(GrimReaperWalls(), p)


# the pole, where sin p = 0, and abscissas that are not finite
@pytest.mark.parametrize("p", [0.0, -0.0, np.inf, -np.inf, np.nan])
def test_grim_reaper_walls_pole_raises_flow_error(p):
    wall = GrimReaperWalls()
    with pytest.raises(FlowError):
        wall.jet_xy(p)
    with pytest.raises(FlowError):
        wall.point_xy(p)
    with pytest.raises(FlowError):
        wall.normal_xy(p)


# the wall protocol: all that step reads of a wall
WALL_PROTOCOL = {"point_xy", "jet_xy", "normal_xy"}


class _ReadingWall:
    """A wall that records the name of every attribute read from it."""

    def __init__(self, wall):
        self._wall, self.read = wall, set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._wall, name)


def test_step_reads_only_the_wall_protocol(negg, egg_wall):
    th = np.linspace(np.pi, 0.0, 40)
    semicircle = np.column_stack([np.cos(th), np.sin(th)])
    semicircle[0, 1] = semicircle[-1, 1] = 0.0
    xs = np.arctan(np.sinh(np.linspace(-np.arcsinh(1.0), np.arcsinh(1.0),
                                       40)))
    runs = [(f.CurveState(nodes=semicircle, time=0.0, om_minus=-1.0,
                          om_plus=1.0), StraightWall()),
            (f.CurveState(nodes=np.column_stack([xs, -np.log(np.cos(xs))]),
                          time=0.0, om_minus=-np.pi / 4, om_plus=np.pi / 4),
             GrimReaperWalls()),
            (f.initial_state_from_oval(ov.construct_orthogonal_oval(negg, 0.2),
                                       40), egg_wall)]
    read = []
    for state, wall in runs:
        reading = _ReadingWall(wall)
        cfg = f.SolverConfig(n_nodes=40, dt_safety=0.8)
        h0 = state.length / 39
        for _ in range(6):
            state = f.step(state, cfg, reading, h0)
        read.append(reading.read)
    # every step solves its contacts (jet_xy) and places them (point_xy);
    # the normal alone is read where a ghost edge is formed, as on the
    # semicircle, whose curvature every step reads
    assert all({"point_xy", "jet_xy"} <= names <= WALL_PROTOCOL
               for names in read)
    assert read[0] == WALL_PROTOCOL
    # each method's floats: the point, the jet (point, its derivative, the
    # normal, its derivative) and the normal, which the jet repeats
    for wall, p in ((StraightWall(), 0.7), (GrimReaperWalls(), 0.7),
                    (egg_wall, 2.2)):
        point, jet, normal = wall.point_xy(p), wall.jet_xy(p), \
            wall.normal_xy(p)
        assert (len(point), len(jet), len(normal)) == (2, 8, 2)
        assert all(type(v) is float for v in (*point, *jet, *normal))
        assert tuple(jet[:2]) == tuple(point)
        assert tuple(jet[4:6]) == tuple(normal)


def _reference_residual(wall, inner1, inner2):
    """The contact residual written directly from point and normal."""
    h2 = np.hypot(*(inner2 - inner1))

    def resid(om):
        p = np.asarray(wall.point_xy(om))
        h1 = np.hypot(*(inner1 - p))
        c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
        c1 = (h1 + h2) / (h1 * h2)
        c2 = -h1 / (h2 * (h1 + h2))
        d = c0 * p + c1 * inner1 + c2 * inner2
        nx, ny = wall.jet_xy(om)[4:6]
        return d[0] * ny - d[1] * nx

    return resid


def _no_fallback(*args, **kwargs):
    raise AssertionError("bracketed fallback called")


@pytest.mark.parametrize("offset", [1e-3, -1e-3])
def test_slave_contact_newton_reaches_bracketed_root(negg, egg_wall,
                                                     monkeypatch, offset):
    o = ov.construct_orthogonal_oval(negg, 0.2)
    state = f.initial_state_from_oval(o, 100)
    for om0, inner1, inner2 in (
            (state.om_plus, state.nodes[-2], state.nodes[-3]),
            (state.om_minus, state.nodes[1], state.nodes[2])):
        root = safe_brentq(_reference_residual(egg_wall, inner1, inner2),
                           om0 - 0.2, om0 + 0.2)
        with monkeypatch.context() as m:
            m.setattr(f, "safe_brentq", _no_fallback)
            got = f._slave_contact(egg_wall, root + offset, inner1, inner2,
                                   0.0, 0.0, (0.0, 0.0))
        assert abs(got - root) < 1e-12


def test_slave_contact_on_straight_wall(monkeypatch):
    # a quarter circle leaving the x-axis at (1, 0) meets it orthogonally
    th = np.linspace(0.0, 0.2, 3)[1:]
    inner1, inner2 = np.column_stack([np.cos(th), np.sin(th)])
    wall = StraightWall()
    root = safe_brentq(_reference_residual(wall, inner1, inner2), 0.8, 1.2)
    monkeypatch.setattr(f, "safe_brentq", _no_fallback)
    got = f._slave_contact(wall, root + 1e-3, inner1, inner2,
                           0.0, 0.0, (0.0, 0.0))
    assert abs(got - root) < 1e-12
    # from a guess a unit off, Newton's first update exceeds 0.3: the
    # solve ends in FlowError, for step to halve dt, and tries no bracket
    calls = []
    monkeypatch.setattr(f, "safe_brentq", lambda *args: calls.append(args))
    with pytest.raises(FlowError):
        f._slave_contact(wall, root + 1.0, inner1, inner2,
                         0.0, 0.0, (0.0, 0.0))
    assert calls == []


def test_slave_contact_on_grim_reaper_walls(monkeypatch):
    # the grim reaper y = -log cos x leaves the wall y = -log sin x
    # orthogonally at x = pi/4
    x = np.pi / 4 - np.array([0.02, 0.04])
    inner1, inner2 = np.column_stack([x, -np.log(np.cos(x))])
    wall = GrimReaperWalls()
    root = safe_brentq(_reference_residual(wall, inner1, inner2), 0.6, 1.0)
    monkeypatch.setattr(f, "safe_brentq", _no_fallback)
    got = f._slave_contact(wall, root + 1e-3, inner1, inner2,
                           0.0, 0.0, (0.0, 0.0))
    assert abs(got - root) < 1e-12


class _StillWall:
    """A wall whose point and normal do not move with the parameter."""

    def jet_xy(self, p):
        return 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0


def test_slave_contact_zero_slope_raises_flow_error():
    # the nodes leave (0, 0) along the wall, so the residual is not zero,
    # and a wall that stands still gives it a zero slope: Newton stops
    # with FlowError (its update would divide by zero)
    inner1, inner2 = np.array([1.0, 0.0]), np.array([2.0, 0.0])
    with pytest.raises(FlowError, match="did not converge"):
        f._slave_contact(_StillWall(), 0.5, inner1, inner2,
                         0.0, 0.0, (0.0, 0.0))


def _following_residual(wall, inner1, inner2, g1, g2, end):
    """The contact residual with the two nodes moved g_k times the end's
    move from `end` to the wall point."""
    def resid(om):
        p = np.asarray(wall.point_xy(om))
        q1 = inner1 + g1 * (p - end)
        q2 = inner2 + g2 * (p - end)
        h1 = np.hypot(*(q1 - p))
        h2 = np.hypot(*(q2 - q1))
        c0 = -(2 * h1 + h2) / (h1 * (h1 + h2))
        c1 = (h1 + h2) / (h1 * h2)
        c2 = -h1 / (h2 * (h1 + h2))
        d = c0 * p + c1 * q1 + c2 * q2
        nx, ny = wall.jet_xy(om)[4:6]
        return d[0] * ny - d[1] * nx

    return resid


@pytest.mark.parametrize("offset", [1e-3, -1e-3])
def test_slave_contact_with_following_nodes_reaches_bracketed_root(
        negg, egg_wall, monkeypatch, offset):
    # nodes 1 and 2 move by a share of the contact's move, as the step's
    # end responses make them; Newton's exact slope includes that share
    o = ov.construct_orthogonal_oval(negg, 0.2)
    state = f.initial_state_from_oval(o, 100)
    for om0, end, inner1, inner2 in (
            (state.om_plus, state.nodes[-1], state.nodes[-2],
             state.nodes[-3]),
            (state.om_minus, state.nodes[0], state.nodes[1],
             state.nodes[2])):
        root = safe_brentq(
            _following_residual(egg_wall, inner1, inner2, 0.4, 0.15, end),
            om0 - 0.2, om0 + 0.2)
        with monkeypatch.context() as m:
            m.setattr(f, "safe_brentq", _no_fallback)
            got = f._slave_contact(egg_wall, root + offset, inner1, inner2,
                                   0.4, 0.15, tuple(end))
        assert abs(got - root) < 1e-12


# ---------------------------------------------------------------------------
# the slimmed kernels: bit for bit the forms they replaced, kept here as
# references, and no write into an input a kernel does not own


def _kappa_reference(state, wall, e):
    """The curvature of one state as it was computed from the edge vectors
    e = nodes[1:] - nodes[:-1] that a step formed: the edges as the rows of
    an (n + 1, 2) array, and each dot product by einsum."""
    n = len(state.nodes)
    edges = np.empty((n + 1, 2))
    edges[1:-1] = e
    (x0, y0), (x1, y1) = state.nodes[:2].tolist()
    (xm, ym), (xn, yn) = state.nodes[-2:].tolist()
    for k, om, ex, ey, ix, iy in ((0, state.om_minus, x0, y0, x1, y1),
                                  (-1, state.om_plus, xn, yn, xm, ym)):
        nx, ny = wall.normal_xy(om)
        vx, vy = ix - ex, iy - ey
        d = 2.0 * (vy * nx - vx * ny)
        gx, gy = ex - d * ny - vx, ey + d * nx - vy
        edges[k] = (ex - gx, ey - gy) if k == 0 else (gx - ex, gy - ey)
    h = np.empty(n + 1)
    h[1:-1] = state.seg_cached()
    ghost = edges[::n]
    h[::n] = np.hypot(ghost[:, 0], ghost[:, 1])
    crossp = edges[:-1, 0] * edges[1:, 1] - edges[:-1, 1] * edges[1:, 0]
    dotp = np.einsum("ij,ij->i", edges[:-1], edges[1:])
    phi = np.arctan2(crossp, dotp)
    return 2.0 * phi / (h[:-1] + h[1:])


def _normal_defect_reference(nodes, pred, e):
    """_normal_defect as it was, on a copy of pred: the tangents as the
    rows of an (n, 2) array."""
    tan = np.empty_like(nodes)
    tan[0], tan[-1] = e[0], e[-1]
    np.add(e[:-1], e[1:], out=tan[1:-1])
    d = nodes - pred
    cross = d[:, 0] * tan[:, 1]
    cross -= d[:, 1] * tan[:, 0]
    np.abs(cross, out=cross)
    cross /= np.hypot(tan[:, 0], tan[:, 1])
    return float(cross.max())


def _implicit_interior_reference(rhs, h, dt, ends):
    """_implicit_interior as it was: each band an array of its own."""
    n = len(rhs)
    hl, hr = h[:-1], h[1:]
    hs = hl + hr
    a = 2.0 / (hl * hs)
    c = 2.0 / (hr * hs)
    d = np.ones(n)
    d[1:-1] += dt * (a + c)
    dl = np.zeros(n - 1)
    np.multiply(-dt, a, out=dl[:-1])
    du = np.zeros(n - 1)
    np.multiply(-dt, c, out=du[1:])
    rhs = np.array(rhs, order="F")
    rhs[0], rhs[-1] = ends
    return f._tridiag_solve(dl, d, du, rhs)


def _green_reference(wall, om):
    """ConvexWall's area antiderivative as it was, on one float."""
    i, u = wall._segment(om)
    a, b, c, d, e = wall._gc[5 * i:5 * i + 5]
    return (((a * u + b) * u + c) * u + d) * u + e


def _pinned_rhs(nodes, rng):
    """A right-hand side as a step's: the nodes and two end-response
    columns, here drawn, in Fortran order; and its pinned end rows."""
    rhs = np.asfortranarray(np.column_stack(
        [nodes, rng.uniform(-1.0, 1.0, (len(nodes), 2))]))
    ends = (tuple(nodes[0]) + (1.0, 0.0), tuple(nodes[-1]) + (0.0, 1.0))
    return rhs, ends


def _check_kernels(state, wall, pred, dt, rng):
    """Each slimmed kernel against its reference on one state."""
    nodes = state.nodes
    e = nodes[1:] - nodes[:-1]
    kap = _kappa_reference(state, wall, e)
    assert state.kappa(wall).tobytes() == kap.tobytes()
    assert (f._normal_defect(nodes, pred.copy(), e)
            == _normal_defect_reference(nodes, pred, e))
    rhs, ends = _pinned_rhs(nodes, rng)
    h = state.seg_cached()
    assert (f._implicit_interior(rhs, h, dt, ends).tobytes()
            == _implicit_interior_reference(rhs, h, dt, ends).tobytes())
    for om in (state.om_minus, state.om_plus):
        assert wall.point_xy(om) == wall.jet_xy(om)[:2]
    return kap


def _check_boundary_terms(wall, om_from, om_to):
    """The array pass of arc_area against the per-state reads."""
    got = wall.arc_area(om_from, om_to)
    want = np.array([_green_reference(wall, b) - _green_reference(wall, a)
                     for a, b in zip(om_from.tolist(), om_to.tolist())])
    per_state = np.array([wall.arc_area(a, b)
                          for a, b in zip(om_from.tolist(), om_to.tolist())])
    assert got.tobytes() == want.tobytes() == per_state.tobytes()


@pytest.mark.parametrize("name, fix", [("disk_r03_n100", "ndisk"),
                                       ("egg_r01_n100", "negg")])
def test_slimmed_kernels_match_their_references_on_stored_states(
        runs, name, fix, request):
    # test_flow's cache test compares a step's cached curvature with a
    # fresh state's, and both run the new kernel; here every kernel meets
    # the form it replaced, on every stored state: the previous state as
    # the prediction where the counts agree, the time to it as the step
    traj = runs(name)
    wall = f.ConvexWall(request.getfixturevalue(fix))
    rng = np.random.default_rng(0)
    states = traj.states
    for i, s in enumerate(states):
        prev = states[i - 1]
        pred = (prev.nodes if len(prev.nodes) == len(s.nodes)
                else s.nodes + 1e-6)
        kap = _check_kernels(s, wall, pred, abs(s.time - prev.time), rng)
        assert s._kap.tobytes() == kap.tobytes(), i
    # the monitors' boundary term of the area, one pass over all states
    _check_boundary_terms(wall, np.array([s.om_plus for s in states]),
                          np.array([s.om_minus for s in states]))


@st.composite
def _states_on_the_egg(draw):
    """A wobbly arc of 4 to 300 nodes with contact angles on the egg's
    wall table, a prediction near it and a time step."""
    nodes = _arc_nodes(draw(st.integers(4, 300)),
                       draw(st.integers(0, 2**32 - 1)))
    state = f.CurveState(nodes=nodes, time=0.0,
                         om_minus=draw(st.floats(3.2, 5.0)),
                         om_plus=draw(st.floats(1.25, 3.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pred = nodes + rng.normal(0.0, 10.0 ** draw(st.floats(-9.0, -2.0)),
                              nodes.shape)
    return state, pred, 10.0 ** draw(st.floats(-7.0, 0.0)), rng


@given(_states_on_the_egg())
@settings(max_examples=150, deadline=None)
def test_slimmed_kernels_match_their_references_on_draws(egg_wall, drawn):
    state, pred, dt, rng = drawn
    _check_kernels(state, egg_wall, pred, dt, rng)
    om = rng.uniform(np.pi / 2 - 0.35, 3 * np.pi / 2 + 0.35, (2, 50))
    _check_boundary_terms(egg_wall, om[0], om[1])


def _drawn_curve(rng, n, wobble):
    """A state on the egg's wall table: n nodes at sorted random angles on
    the unit circle's upper arc, each moved by noise of size wobble (a
    large one breaks convexity), the wall normals within 1e-3 of the
    arc's end tangents, so that a ghost edge nearly continues the arc."""
    th = np.sort(rng.uniform(0.2, np.pi - 0.2, n))
    nodes = np.column_stack([np.cos(th), np.sin(th)])
    nodes += rng.normal(0.0, wobble, nodes.shape)
    tilt = rng.uniform(-1e-3, 1e-3, 2)
    return f.CurveState(nodes=nodes, time=0.0,
                        om_minus=float(th[0] + np.pi + tilt[0]),
                        om_plus=float(th[-1] + tilt[1]))


@given(st.integers(4, 120), st.integers(1, 6), st.floats(-12.0, -1.0),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kappa_rows_are_each_states_own_curvature(egg_wall, n, count,
                                                  wobble, seed):
    # a row of a block is its state's curvature read alone, bit for bit,
    # whatever the other states of the block
    rng = np.random.default_rng(seed)
    states = [_drawn_curve(rng, n, 10.0 ** wobble) for _ in range(count)]
    x, y = np.array([s.nodes.T for s in states]).transpose(1, 0, 2)
    rows = f._kappa_rows(states, egg_wall, x, y)
    assert rows.shape == (count, n)
    for s, row in zip(states, rows):
        want = _kappa_reference(s, egg_wall, s.nodes[1:] - s.nodes[:-1])
        assert row.tobytes() == want.tobytes()


def test_sign_test_accepts_only_what_the_convexity_check_accepts(egg_wall):
    # a curve whose every turn is positive has no negative curvature, so
    # the convexity check (>= -1e-8) would accept it too; the draws give
    # both outcomes, and a NaN node is never accepted
    rng = np.random.default_rng(11)
    outcomes = []
    for k in range(400):
        s = _drawn_curve(rng, int(rng.integers(4, 200)),
                         10.0 ** rng.uniform(-12.0, -1.0))
        if k % 50 == 0:
            s.nodes[int(rng.integers(len(s.nodes))), 1] = np.nan
        positive = f._turns_positive(s, s.nodes[1:] - s.nodes[:-1],
                                     egg_wall)
        if positive:
            assert float(s.kappa(egg_wall).min()) >= 0.0
            assert f._convexity_defect(s, egg_wall) >= 0.0
        if k % 50 == 0:
            assert not positive
        outcomes.append(positive)
    assert 100 <= sum(outcomes) <= 300


def test_block_monitors_fill_only_the_missing_curvature(egg_wall):
    # the step leaves a curve it accepted by the sign test without its
    # curvature; the finalize pass computes each missing one, bit for bit
    # the state's own, in blocks, and leaves a cached one as it is
    rng = np.random.default_rng(5)
    states = [_drawn_curve(rng, 40, 1e-9) for _ in range(70)]
    cached = {i: np.full(40, float(i)) for i in range(0, 70, 3)}
    for i, kap in cached.items():
        states[i]._kap = kap
    got = f._block_monitors(states, egg_wall)
    for i, s in enumerate(states):
        if i in cached:
            assert s._kap is cached[i]
        else:
            fresh = f.CurveState(nodes=s.nodes, time=0.0,
                                 om_minus=s.om_minus, om_plus=s.om_plus)
            assert s._kap.tobytes() == fresh.kappa(egg_wall).tobytes()
    assert got[1].tobytes() == np.array(
        [float(s._kap.max()) for s in states]).tobytes()


def test_kappa_reads_a_repeated_node_as_einsum_did(egg_wall):
    # after an edge towards -x and -y, a repeated node's zero edge makes
    # both products of a dot product -0.0.  einsum sums from +0.0, so its
    # dot product is +0.0, and arctan2 reads the sign of a zero: pi, not
    # 0, at -0.0
    nodes = _arc_nodes(40, 3)
    nodes = np.insert(nodes, 30, nodes[30], axis=0)
    e = nodes[1:] - nodes[:-1]
    assert np.all(e[29] < 0.0) and not e[30].any()
    state = f.CurveState(nodes=nodes, time=0.0, om_minus=4.0, om_plus=2.0)
    want = _kappa_reference(state, egg_wall, e)
    assert state.kappa(egg_wall).tobytes() == want.tobytes()


def _bytes(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def test_implicit_interior_leaves_rhs_and_h_alone():
    # its copy of rhs takes the pinned end rows; writing them into rhs
    # itself would move the caller's end nodes
    nodes = _arc_nodes(60, 5)
    rhs, ends = _pinned_rhs(nodes, np.random.default_rng(1))
    h = _edges(nodes)
    before = _bytes(rhs, h)
    f._implicit_interior(rhs, h, 1e-3, ends=((-1.2, 0.1, 1.0, 0.0),
                                              (1.1, 0.2, 0.0, 1.0)))
    assert _bytes(rhs, h) == before


@pytest.mark.parametrize("sizes", [(40,), (40, 57, 33)],
                         ids=["alone", "packed"])
def test_spline_leaves_its_knots_and_values_alone(sizes):
    # a lone block is read in place, not copied
    xs = [np.cumsum(np.linspace(0.5, 1.5, n)) for n in sizes]
    ys = [np.column_stack([np.sin(x), np.cos(x)]) for x in xs]
    before = _bytes(*xs, *ys)
    f._spline(xs, ys)
    assert _bytes(*xs, *ys) == before


@pytest.mark.parametrize("order", ["C", "F"])
def test_resample_leaves_its_curves_alone(order):
    # a resample's first curve is the new one, and the others are stored
    # states' own node arrays; one has a repeated node, which the knots
    # drop
    curves = [np.asarray(_arc_nodes(n, n), order=order)
              for n in (80, 81, 79)]
    curves[1] = np.insert(curves[1], 20, curves[1][20], axis=0)
    before = _bytes(*curves)
    out = f._resample(curves, 70)
    assert _bytes(*curves) == before
    # each output owns its nodes
    assert all(o.base is None for o in out)


def test_kappa_leaves_the_nodes_and_edge_lengths_alone(egg_wall):
    state = f.CurveState(nodes=_arc_nodes(50, 7), time=0.0, om_minus=4.0,
                         om_plus=2.0)
    before = _bytes(state.nodes, state.seg_cached())
    state.kappa(egg_wall)
    assert _bytes(state.nodes, state.seg_cached()) == before


# ---------------------------------------------------------------------------
# the step off numpy's Python wrappers, the ghost edges written out, and the
# block reader's curvature rows kept as views

_SHARED_RUNS = ["disk_r03_n100", "disk_r03_n200", "disk_r015_n100",
                "disk_r01_n200", "egg_r01_n100", "minor_r01_n100"]

# _block_monitors' tracemalloc peak over the stored states of the shared
# disk run (rho 0.1, n 200; 704 states), each with its edge lengths and
# ghost edges but no curvature, as _finalize meets them: measured
# 1,910,072 B when each state kept a copy of its block's row (the bound)
# and 1,861,320 B with views of the block's array
BLOCK_MONITORS_PEAK = 1_910_072


def _ghost_edges_reference(state, wall):
    """_ghost_edges as it was: one loop over the two contacts, the ghost
    nodes gathered in a list."""
    (x0, y0), (x1, y1) = state.nodes[:2].tolist()
    (xm, ym), (xn, yn) = state.nodes[-2:].tolist()
    ghosts = []
    for om, px, py, ix, iy in ((state.om_minus, x0, y0, x1, y1),
                               (state.om_plus, xn, yn, xm, ym)):
        nx, ny = wall.normal_xy(om)
        vx, vy = ix - px, iy - py
        d = 2.0 * (vy * nx - vx * ny)
        ghosts += (px - d * ny - vx, py + d * nx - vy)
    g0x, g0y, gnx, gny = ghosts
    return x0 - g0x, y0 - g0y, gnx - xn, gny - yn


def _uncached(state):
    return f.CurveState(state.nodes, state.time, state.om_minus,
                        state.om_plus)


@pytest.mark.parametrize("name", _SHARED_RUNS)
def test_ghost_edges_are_the_loop_form_on_stored_states(runs, name):
    # the cached ghost edges of every stored state, and those of a state
    # with no caches, are the loop's floats
    traj = runs(name)
    wall = f.wall_for(runs.spec(name)[0])
    for s in traj.states:
        want = _ghost_edges_reference(s, wall)
        assert f._ghost_edges(s, wall) == want
        assert f._ghost_edges(_uncached(s), wall) == want


@pytest.mark.parametrize("name", ["disk_r03_n100", "egg_r01_n100"])
def test_state_rows_keep_views_of_their_blocks_curvature(runs, name):
    # each state of a block keeps its row of the block's one curvature
    # array, which no other block's rows share, with the reference's bytes
    traj = runs(name)
    wall = f.wall_for(runs.spec(name)[0])
    arrays = []
    for block, _, kap in f._state_rows([_uncached(s) for s in traj.states],
                                       wall):
        for s in block:
            assert s._kap.base is kap and np.shares_memory(s._kap, kap)
            want = _kappa_reference(s, wall, s.nodes[1:] - s.nodes[:-1])
            assert s._kap.tobytes() == want.tobytes()
        arrays.append(kap)
    assert len(arrays) == -(-len(traj.states) // f._BLOCK_STATES)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


def test_block_monitors_peak_memory(runs):
    traj = runs("disk_r01_n200")
    wall = f.wall_for(runs.spec("disk_r01_n200")[0])

    def finalize_states():
        out = []
        for s in traj.states:
            fresh = _uncached(s)
            fresh._seg, fresh._ghosts = s._seg, s._ghosts
            out.append(fresh)
        return out

    f._block_monitors(finalize_states(), wall)
    states = finalize_states()
    tracemalloc.start()
    try:
        f._block_monitors(states, wall)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BLOCK_MONITORS_PEAK, peak


_METHODS = os.path.join("numpy", "_core", "_methods.py")


def _profiled_step(state, cfg, wall, h0):
    """step's new state, and the names of the Python frames of numpy's
    reduction wrappers and of the C calls _abc_instancecheck that ran in
    it."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(_METHODS):
            seen.add(frame.f_code.co_name)
        elif (event == "c_call"
              and getattr(arg, "__name__", None) == "_abc_instancecheck"):
            seen.add(arg.__name__)

    sys.setprofile(profile)
    try:
        new = f.step(state, cfg, wall, h0)
    finally:
        sys.setprofile(None)
    return new, seen


def test_steps_call_no_reduction_wrapper_and_no_abc_check(runs):
    # a uniform-phase and a collapse-phase step of the shared disk run, each
    # without a resample and with every turn positive (so no curvature is
    # read), replayed from its initial state: the reductions are numpy's
    # ufunc reductions and a float h0 takes no ABC instance check
    # (ndarray.sum, max and min ran numpy/_core/_methods.py's _sum, _amax
    # and _amin, and numbers.Real ran _abc_instancecheck)
    name = "disk_r03_n100"
    traj = runs(name)
    ndom, rho, n = runs.spec(name)
    wall = f.wall_for(ndom)
    switch = runs.held(name).index(True)
    state = f.initial_state_from_oval(
        ov.construct_orthogonal_oval(ndom, rho), n)
    h0 = state.length / (n - 1)
    checked = {}
    for k in range(len(traj.states) - 1):
        phase = "uniform" if k < switch else "collapse"
        if k >= 4 and phase not in checked:
            new, seen = _profiled_step(state, traj.config, wall,
                                       h0 if phase == "uniform" else None)
            if new._kap is None and new._prev[0][0].nodes is state.nodes:
                checked[phase] = seen
        else:
            new = f.step(state, traj.config, wall,
                         h0 if phase == "uniform" else None)
        assert new.nodes.tobytes() == traj.states[k + 1].nodes.tobytes()
        state = new
        if len(checked) == 2:
            break
    assert checked == {"uniform": set(), "collapse": set()}
