"""Step-kernel tests: the tridiagonal solves against dense linear algebra,
the local-minimum counter against its original implementation, and the
analytic-slope contact Newton against finite differences and a bracketed
root."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import LinAlgError, solve_banded

import fbcsf.flow as f
import fbcsf.oval as ov
from fbcsf.errors import FlowError
from fbcsf.solve import safe_brentq


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


@pytest.mark.parametrize("pinned", [False, True])
def test_implicit_interior_matches_dense_solve(pinned):
    nodes = _arc_nodes(40)
    dt = 3e-3
    ends = [(-1.1, 0.15), (1.05, 0.2)] if pinned else None
    got = f._implicit_interior(nodes, _edges(nodes), dt, ends=ends)
    rhs = nodes.copy()
    if pinned:
        rhs[0], rhs[-1] = ends
    want = np.linalg.solve(np.eye(len(nodes)) - dt * _dense_laplacian(nodes),
                           rhs)
    assert np.max(np.abs(got - want)) < 1e-13
    # the direct gtsv call is the routine solve_banded uses for (1, 1)
    assert np.array_equal(got, _banded_reference(nodes, dt, rhs))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_implicit_interior_rejects_non_finite_nodes(bad):
    nodes = _arc_nodes(20)
    nodes[7, 1] = bad
    with pytest.raises(ValueError):
        f._implicit_interior(nodes, _edges(nodes), 1e-3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_implicit_interior_rejects_repeated_node():
    # a zero-length edge gives infinite Laplacian weights
    nodes = _arc_nodes(20)
    nodes[8] = nodes[7]
    with pytest.raises(ValueError):
        f._implicit_interior(nodes, _edges(nodes), 1e-3)


def test_tridiag_solve_rejects_singular_matrix():
    n = 6
    with pytest.raises(LinAlgError):
        f._tridiag_solve(np.zeros(n - 1), np.zeros(n), np.zeros(n - 1),
                         np.ones((n, 2)))


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


# ---------------------------------------------------------------------------
# contact Newton with the analytic slope


@pytest.fixture(scope="module")
def egg_wall(negg):
    return f.ConvexWall(negg)


def _check_jet(wall, om, step=1e-5):
    px, py, dpx, dpy, nx, ny, dnx, dny = wall.jet_xy(om)
    assert (px, py) == wall.point_xy(om)
    assert (nx, ny) == wall.normal_xy(om)
    ahead, behind = wall.point_xy(om + step), wall.point_xy(om - step)
    for k, dv in enumerate((dpx, dpy)):
        assert abs((ahead[k] - behind[k]) / (2 * step) - dv) < 1e-6
    ahead, behind = wall.normal_xy(om + step), wall.normal_xy(om - step)
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
        egg_wall.arc_area(om, np.pi)
    with pytest.raises(FlowError):
        egg_wall.arc_area(np.pi, om)


def test_convex_wall_table_ends_are_on_the_table(egg_wall):
    for om in (np.pi / 2 - 0.35, 3 * np.pi / 2 + 0.35):
        assert np.all(np.isfinite(egg_wall.jet_xy(om)))
        assert np.isfinite(egg_wall.arc_area(om, np.pi))


@pytest.mark.parametrize("p", [-1.3, 0.0, 0.7])
def test_straight_wall_jet_matches_central_difference(p):
    _check_jet(f.StraightWall(), p)


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
        nx, ny = wall.normal_xy(om)
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
            got = f._slave_contact(egg_wall, root + offset, inner1, inner2)
        assert abs(got - root) < 1e-12


def test_slave_contact_on_straight_wall(monkeypatch):
    # a quarter circle leaving the x-axis at (1, 0) meets it orthogonally
    th = np.linspace(0.0, 0.2, 3)[1:]
    inner1, inner2 = np.column_stack([np.cos(th), np.sin(th)])
    wall = f.StraightWall()
    root = safe_brentq(_reference_residual(wall, inner1, inner2), 0.8, 1.2)
    monkeypatch.setattr(f, "safe_brentq", _no_fallback)
    got = f._slave_contact(wall, root + 1e-3, inner1, inner2)
    assert abs(got - root) < 1e-12


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
        nx, ny = wall.normal_xy(om)
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
