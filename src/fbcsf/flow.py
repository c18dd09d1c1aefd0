"""Linearly implicit curvature flow with sliding orthogonal contacts.

The curve is an open polyline whose endpoints live on the domain boundary,
stored as boundary turning-angle parameters.  A step is one formula,
linearly implicit variable-step BDF in time with the arc-length
Laplacian taken at the edge lengths extrapolated to the new time, whose
order the phase sets: 2 until the last analysis window is past and 3
after it, and 1 (backward Euler) from the initial state, which has no
history.  The step is one LAPACK gtsv call, and the contacts are solved
at the new time level with the interior: the same call gives every
node's response to a move of either end, and each contact parameter is
then solved so that the discrete endpoint tangent of the resulting curve
is parallel to the boundary normal (Newton with the residual's analytic
slope, from the wall's point and normal derivatives).  Every state of a
run keeps the node count of its initial state: cubic arc-length
resampling of the new curve and of the up to three levels before it, at
that count in one packed spline solve, follows only when the spacing has
drifted.

Step lengths follow the solution, not the mesh.  Each step that has
enough node levels behind it estimates its local error by Milne's device,
and a PI controller sets the next step from that estimate, at most twice
the last step and at most the length cap _LENGTH_STEP_CAP * L^2 for the
curve length L (see step).  Its tolerance is SolverConfig.error_tol
until the area law dA/dt = -(theta+ + theta-) puts extinction less than
_ANALYSIS_END ahead (see run_to_extinction); from then on the run passes
step h0 = None, the collapse phase, which only locates the extinction
time: its steps are BDF3, its tolerance is _COLLAPSE_TOL_FACTOR = 256
times looser and its cap 256^(1/4) = 4 times longer.  The tests' exact
solutions stay in the uniform phase.  Every step is accepted; a step is
retried, at half the length, only on a FlowError, which a contact Newton
that does not converge raises, and so does a stepped curve that is not
convex.

A state's fields are its nodes, time and contacts; its caches are not,
so no constructor or dataclasses.replace carries one: a state fills a
cache on its first read, and only this module sets one otherwise.
The step that makes a state forms its edge vectors once (again only
after a resample) and derives from them what the state's geometry needs:
the error estimate's tangents, the edge lengths, cached on the state,
and the sign of each node's turn; its length is summed once.  A curve
whose every turn is positive is convex, as nearly every stepped curve is,
and the step leaves it to _finalize's block pass, whose state keeps a
view of its row; only another curve has its curvature read in the step,
by the convexity check.  The next step's time step and Laplacian and a
resample reuse the edge lengths; the monitors and the late-time analysis
read the cached curvature.  A normalized domain's wall is built once and
kept with its domain (wall_for).

A run's only record is its stored states: every state a step returns,
up to the first shorter than _EXTINCTION_LENGTH (see run_to_extinction),
its times offset by the extinction time of the area law (_finalize).  The
monitors (turning angles, curvature extremes, length, area, heights at
fixed abscissas) are derived from them once the run is over, one row per
state; the curvature extremes, the area and the minimum count in block
passes (_block_monitors).  _state_rows is the one block reader of stored
states, for those passes and asymptotics' alike: x, y and curvature rows,
one per state, as the stored states of a run share one node count (a
state of another raises ConfigError).  Stored states are read in time
only through Trajectory.height_reader, linear between the two bracketing
states; a reader takes arrays of times of any shape and returns one row
of heights per time, and it reads each stored state once at most in its
life, however many of its calls' times that state brackets.  The module
runs and reads runs but compares none: asymptotics holds every
comparison of two runs, the sweep over rho included.

Every curve advances only through step.  A wall is anything with
point_xy, jet_xy and normal_xy, the three methods step reads: ConvexWall
here, and the walls of the exact solutions that the tests step (a
semicircle on a straight wall, the grim reaper between the orthogonal
walls y = -log|sin x|).

Resampling and the wall tables use the module's not-a-knot spline (de
Boor 1978), which reproduces scipy's CubicSpline bit for bit; importing
scipy.interpolate costs about 0.3 s, about twice a short run.

The one LAPACK routine the module calls, dgtsv, is taken from scipy's
compiled extension scipy/linalg/_flapack, loaded by itself on the first
_tridiag_solve (solve._load_extension): importing scipy.linalg around it
costs about 0.3 s, the extension alone about 5 ms and 2.5 MB, which a
process that only builds ovals never pays.  It is the same compiled
function as scipy.linalg.lapack.dgtsv, so every result is scipy's bit for
bit.
"""

import math
import numbers
import weakref
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import ClassVar

import numpy as np

from . import oval as oval_mod
from .errors import ConfigError, FlowError, NonExtinction, StepRejected
from .solve import _load_extension
# uncalled: the binding that bench/tracing.py wraps as solve.safe_brentq.flow
from .solve import safe_brentq  # noqa: F401


_FLAPACK = "scipy.linalg._flapack"
# its dgtsv, set by the first _tridiag_solve
dgtsv = None

# ndarray.sum, max and min's ufunc reductions, without numpy's Python wrappers
_sum, _max, _min = np.add.reduce, np.maximum.reduce, np.minimum.reduce


# ---------------------------------------------------------------------------
# walls


# the wall table covers the turning angles [pi/2, 3 pi/2] of the upper
# boundary, padded by _WALL_PAD on each side, in _WALL_GRID samples
_WALL_PAD = 0.35
_WALL_GRID = 4096


class ConvexWall:
    """Contact handler backed by a convex domain boundary.

    Boundary positions and the cumulative area integrand are tabulated
    once per wall on _WALL_GRID turning angles covering
    [pi/2 - _WALL_PAD, 3 pi/2 + _WALL_PAD]: the upper arc with a margin on
    each side.  The per-step contact solves then evaluate flat
    piecewise-polynomial tables of Python floats instead of the Fourier
    series.  An angle off the table raises FlowError, which step answers
    by halving the time step.

    The tables are CubicSpline's and its antiderivative's, bit for bit,
    from one solve of the module's spline kernel, which spares the
    scipy.interpolate import.
    """

    def __init__(self, ndom):
        dom = ndom.domain
        om = np.linspace(np.pi / 2 - _WALL_PAD, 3 * np.pi / 2 + _WALL_PAD,
                         _WALL_GRID)
        self._lo, self._hi = float(om[0]), float(om[-1])
        self._hg = float(om[1] - om[0])
        self._nseg = _WALL_GRID - 1
        # the spline's three columns: the point and the area integrand; each
        # array is dropped as soon as it is read, to keep the set-up peak low
        vals = np.empty((_WALL_GRID, 3))
        vals[:, :2] = dom.point(om)
        dp = dom.dpoint(om)
        vals[:, 2] = 0.5 * (vals[:, 0] * dp[:, 1] - vals[:, 1] * dp[:, 0])
        del dp
        c = _spline([om], [vals])
        del vals
        # per segment: x and y coefficients of u^3, u^2, u, 1, interleaved;
        # each table is filled through a numpy view of its own buffer
        self._pc = array("d", [0.0]) * (8 * self._nseg)
        np.frombuffer(self._pc).reshape(self._nseg, 4, 2)[:] = (
            c[:, :, :2].transpose(1, 0, 2))
        # per segment: coefficients of u^4 .. 1 of the area integrand, as
        # PPoly.antiderivative: the spline's over (4, 3, 2, 1), and each
        # constant term the previous piece's value at the shared knot, summed
        # in PPoly's order (a running sum of the interleaved terms, whose
        # powers of the width h are the products h * h * ... of its code)
        self._gc = array("d", [0.0]) * (5 * self._nseg)
        gc = np.frombuffer(self._gc).reshape(self._nseg, 5)
        np.divide(c[:, :, 2].T, np.arange(4.0, 0.0, -1.0), out=gc[:, :4])
        del c
        h = np.diff(om)
        terms = gc[:-1, 3::-1] * np.cumprod(
            np.broadcast_to(h[:-1, None], (self._nseg - 1, 4)), axis=1)
        gc[0, 4] = 0.0
        gc[1:, 4] = np.cumsum(terms.ravel())[3::4]

    def _segment(self, om):
        """Table segment holding om and the offset into it; FlowError off
        the table."""
        u = om - self._lo
        if not 0.0 <= u <= self._hi - self._lo:
            raise FlowError(f"wall angle {om} is off the table "
                            f"[{self._lo:.6g}, {self._hi:.6g}]")
        i = int(u / self._hg)
        if i >= self._nseg:
            i = self._nseg - 1
        return i, u - i * self._hg

    def point_xy(self, om):
        """Scalar boundary point as a float pair: jet_xy(om)[:2] alone."""
        i, u = self._segment(om)
        ax, ay, bx, by, cx, cy, dx, dy = self._pc[8 * i:8 * i + 8]
        return (((ax * u + bx) * u + cx) * u + dx,
                ((ay * u + by) * u + cy) * u + dy)

    def jet_xy(self, om):
        """Point, its om-derivative, normal and the normal's om-derivative:
        eight floats (px, py, dpx, dpy, nx, ny, dnx, dny)."""
        i, u = self._segment(om)
        ax, ay, bx, by, cx, cy, dx, dy = self._pc[8 * i:8 * i + 8]
        px = ((ax * u + bx) * u + cx) * u + dx
        py = ((ay * u + by) * u + cy) * u + dy
        dpx = (3.0 * ax * u + 2.0 * bx) * u + cx
        dpy = (3.0 * ay * u + 2.0 * by) * u + cy
        s, c = math.sin(om), math.cos(om)
        return px, py, dpx, dpy, s, -c, c, s

    def normal_xy(self, om):
        """The wall normal alone, jet_xy(om)[4:6]; FlowError off the
        table, as jet_xy."""
        self._segment(om)
        return math.sin(om), -math.cos(om)

    def arc_area(self, om_from, om_to):
        """Green-theorem boundary term of the enclosed area, for two angles
        or two arrays of them, in one array pass over the area table, with
        _segment's operations; FlowError where an angle is off the table."""
        u = np.array([om_to, om_from], dtype=float) - self._lo
        if not ((u >= 0.0) & (u <= self._hi - self._lo)).all():
            raise FlowError(f"wall angles {om_from}, {om_to} leave the table")
        i = np.minimum((u / self._hg).astype(int), self._nseg - 1)
        u -= i * self._hg
        a, b, c, d, e = np.frombuffer(self._gc).reshape(-1, 5).T[:, i]
        g = (((a * u + b) * u + c) * u + d) * u + e
        return g[0] - g[1]


# one ConvexWall per normalized domain, keyed weakly on ndom.domain: the
# wall holds no reference to its domain, so it is freed with it
_WALLS = weakref.WeakKeyDictionary()


def wall_for(ndom):
    """The ConvexWall of a normalized domain, built on the first call for
    ndom.domain and kept until that domain is freed, so that repeated runs
    and a sweep over rho build the wall's tables once."""
    wall = _WALLS.get(ndom.domain)
    if wall is None:
        wall = _WALLS[ndom.domain] = ConvexWall(ndom)
    return wall


# ---------------------------------------------------------------------------
# state


# a run stops at its first state shorter than this, where the area law's
# extinction time (_finalize) is within 6e-9 of its value at L = 0.003
_EXTINCTION_LENGTH = 1e-2
# run_to_extinction's step budget: NonExtinction after this many steps
_MAX_STEPS = 2_000_000
# the contact Newton stops below this residual, or after an update below
# _CONTACT_STEP: it converges quadratically, with |error| about 0.7 times
# the squared update on the disk, so what an update that small leaves is
# under rounding.  _local_min_counts treats increments below
# _FLAT_REL_TOL * max|values| as flat
_CONTACT_TOL = 1e-13
_CONTACT_STEP = 1e-8
_FLAT_REL_TOL = 1e-10
# a step without an error estimate is the mesh step dt_safety *
# _STEP_SCALE * h_bar^2 / h0 (see step).  The error controller aims each
# later step's estimate at _ERROR_TOL * dt_safety^3, with the safety
# factor _CONTROL_SAFETY and the PI exponents _PI_ERR and _PI_PREV_ERR
# over the order of the local error (0.7 / 3 and 0.4 / 3 for BDF2's
# third, 0.7 / 4 and 0.4 / 4 for BDF3's fourth).  A step grows by at
# most _MAX_STEP_RATIO over the one before it, inside variable BDF2's
# zero-stability limit 1 + sqrt(2); the collapse steps pass BDF3's
# constant-ratio limit 1.618 (Calvo, Grande and Grigorieff, Numer. Math.
# 57, 1990) one or two times per run, by up to 1.654, 1.682 and 1.860 on
# the disk (n_nodes 200), the egg and the ellipse(2,1) minor axis (100) at
# rho 0.1.  A step never exceeds the length cap _LENGTH_STEP_CAP * L^2 for
# the curve length L, whatever dt_safety, scaled in the collapse phase as
# the tolerance is (see step)
_STEP_SCALE = 0.024
_MAX_STEP_RATIO = 2.0
_LENGTH_STEP_CAP = 0.002
_ERROR_TOL = 2e-7
_CONTROL_SAFETY = 0.9
_PI_ERR = 0.7
_PI_PREV_ERR = 0.4
# every analysis reads offset times at or before -_ANALYSIS_END; after that
# only the extinction-time fit reads a run, so run_to_extinction steps it in
# the collapse phase (h0 None: BDF3, the tolerance loosened by
# _COLLAPSE_TOL_FACTOR and the length cap by its fourth root,
# 256^(1/4) = 4 exactly) once the area law leaves less than _ANALYSIS_END.
# Its estimate of the time left, the area clock over theta+ + theta-, is
# an upper bound while theta+ + theta- does not fall.  On the nine
# benchmark diameters at rho 0.1 and 0.01 (n_nodes 100) it runs 1.29 to
# 1.61 times the true time left at the switch (1.30 on the disk, 1.29 on
# the egg) and 1.34 to 1.81 times it at a true 0.3 (1.37 and 1.37; the
# runs on ellipse(3,1)'s long diameter start after -0.3), so the switch
# fires at offset times -0.232 to -0.187
_ANALYSIS_END = 0.3
_COLLAPSE_TOL_FACTOR = 256.0
# _state_rows reads the stored states' nodes and curvature in blocks of at
# most this many consecutive states, for _finalize and asymptotics alike: a
# whole run, such as the disk's 704 states of 200 nodes, would raise their
# peak memory
_BLOCK_STATES = 32


@dataclass
class SolverConfig:
    """Flow run settings.

    n_nodes is the node count of old_but_not_ancient's initial state,
    which every state of its run keeps; dt_safety in (0, 1) scales the
    error tolerance error_tol = _ERROR_TOL * dt_safety^3 and the first
    steps' mesh rule dt = dt_safety * _STEP_SCALE * h_bar^2 / h0, but not
    the length cap (see step); both are required.  The class
    constant abscissas holds the x at which the monitors read each state's
    height.
    """

    n_nodes: int
    dt_safety: float
    abscissas: ClassVar[tuple] = (-0.8, -0.4, 0.0, 0.4, 0.8)

    def __post_init__(self):
        if not isinstance(self.n_nodes, numbers.Integral):
            raise ConfigError(
                f"n_nodes must be an integer, got {self.n_nodes!r}")
        if self.n_nodes < 32:
            raise ConfigError("n_nodes must be at least 32")
        if not (isinstance(self.dt_safety, numbers.Real)
                and 0.0 < self.dt_safety < 1.0):
            raise ConfigError(
                f"dt_safety must be a real number in (0, 1), got "
                f"{self.dt_safety!r}")

    @property
    def error_tol(self):
        """The uniform tolerance of the step's error controller."""
        return _ERROR_TOL * self.dt_safety ** 3


@dataclass(eq=False)
class CurveState:
    """Open curve with endpoints slaved to the wall.

    nodes[0] and nodes[-1] equal the wall points of om_minus / om_plus.
    States compare and hash by identity: arrays have no single truth value.
    """

    nodes: np.ndarray
    time: float
    om_minus: float   # left contact parameter
    om_plus: float    # right contact parameter

    # the caches, not fields: curvature (None on a state that a step
    # accepted by its turns' signs until _finalize computes it), edge
    # lengths, summed length, ghost edges (_ghost_edges), and the history
    # of a BDF step, on every state a step returns: (levels, err,
    # err_prev), levels the one to three earlier node levels, newest first,
    # each a history-free CurveState at this state's count, and err,
    # err_prev the estimates of the step that made this state and of the
    # one before, None where a step had none (a run's first three)
    _kap = _seg = _length = _ghosts = _prev = None

    def kappa_cached(self, wall):
        if self._kap is None:
            self._kap = self.kappa(wall)
        return self._kap

    def seg_cached(self):
        if self._seg is None:
            self._seg = _edge_lengths(self.nodes)
        return self._seg

    @property
    def theta_plus(self):
        return self.om_plus - np.pi / 2.0

    @property
    def theta_minus(self):
        return 3.0 * np.pi / 2.0 - self.om_minus

    @property
    def length(self):
        """The sum of the cached edge lengths, summed once per state."""
        if self._length is None:
            self._length = float(self.seg_cached().sum())
        return self._length

    def kappa(self, wall):
        """Vertex curvatures, closed at each contact by a ghost edge
        (_ghost_edges): a block of one state (_kappa_rows)."""
        return _kappa_rows([self], wall, *self.nodes.T[:, None])[0]

    def heights_at(self, xs):
        """Heights at xs, NaN off the curve, by np.interp: x must increase
        along the nodes, as up to offset time -_ANALYSIS_END it does."""
        return np.interp(xs, self.nodes[:, 0], self.nodes[:, 1],
                         left=np.nan, right=np.nan)


def _ghost_edges(state, wall):
    """The edges that close a curve at its contacts, four floats kept on
    the state: from the ghost node before the first node and to the one
    after the last, each the node next to its contact mirrored across the
    wall tangent (-ny, nx) there, written out for each contact."""
    if state._ghosts is None:
        (x0, y0), (x1, y1) = state.nodes[:2].tolist()
        (xm, ym), (xn, yn) = state.nodes[-2:].tolist()
        nx, ny = wall.normal_xy(state.om_minus)
        vx, vy = x1 - x0, y1 - y0
        d = 2.0 * (vy * nx - vx * ny)
        g0x, g0y = x0 - d * ny - vx, y0 + d * nx - vy
        nx, ny = wall.normal_xy(state.om_plus)
        vx, vy = xm - xn, ym - yn
        d = 2.0 * (vy * nx - vx * ny)
        gnx, gny = xn - d * ny - vx, yn + d * nx - vy
        state._ghosts = x0 - g0x, y0 - g0y, gnx - xn, gny - yn
    return state._ghosts


def _kappa_rows(states, wall, x, y):
    """Vertex curvatures of states of one node count, one row per state,
    from rows x and y of their nodes: twice the angle from a node's edge
    in to its edge out (the ghost edges at the contacts) over the sum of
    their lengths (seg_cached inside).  A row reads its own state's floats
    alone, so it is the same in any block."""
    m, n = x.shape
    # edge x, y and length rows, the ghost edges in the end slots; three
    # arrays, not one, to keep each allocation small
    ex, ey, h = (np.empty((m, n + 1)) for _ in range(3))
    np.subtract(x[:, 1:], x[:, :-1], out=ex[:, 1:-1])
    np.subtract(y[:, 1:], y[:, :-1], out=ey[:, 1:-1])
    ex[:, 0], ey[:, 0], ex[:, n], ey[:, n] = np.array(
        [_ghost_edges(s, wall) for s in states]).T
    h[:, 1:-1] = [s.seg_cached() for s in states]
    h[:, ::n] = np.hypot(ex[:, ::n], ey[:, ::n])
    cross = ex[:, :-1] * ey[:, 1:] - ey[:, :-1] * ex[:, 1:]
    # + 0.0 makes a -0.0 dot product +0.0: arctan2 reads a zero's sign
    dot = ex[:, :-1] * ex[:, 1:] + ey[:, :-1] * ey[:, 1:] + 0.0
    phi = np.arctan2(cross, dot, out=cross)
    phi *= 2.0
    phi /= np.add(h[:, :-1], h[:, 1:], out=dot)
    return phi


def _turns_positive(state, e, wall):
    """Whether the cross product of every node's edge in and edge out
    (e = nodes[1:] - nodes[:-1], and the ghost edges at the contacts) is
    positive, from the floats _kappa_rows forms (a - b > 0 exactly where
    a > b): then no curvature is negative.  False on a NaN."""
    ax, ay, bx, by = _ghost_edges(state, wall)
    (e0x, e0y), (enx, eny) = e[::len(e) - 1].tolist()
    if not (ax * e0y > ay * e0x and enx * by > eny * bx):
        return False
    return np.count_nonzero(e[:-1, 0] * e[1:, 1] > e[:-1, 1] * e[1:, 0]) \
        == len(e) - 1


def enclosed_area(state, wall):
    """Area between the curve and the boundary arc above it."""
    x, y = state.nodes[:, 0], state.nodes[:, 1]
    shoelace = 0.5 * float((x[:-1] * y[1:] - y[:-1] * x[1:]).sum())
    return shoelace + wall.arc_area(state.om_plus, state.om_minus)


# ---------------------------------------------------------------------------
# core step


def _tridiag_solve(dl, d, du, b):
    """Solve the tridiagonal system (sub dl, diagonal d, super du) for the
    columns of b with LAPACK gtsv, overwriting all four arrays.

    gtsv is what solve_banded((1, 1), ...) calls, so results are bitwise
    the same: dgtsv is scipy.linalg.lapack.dgtsv, loaded by the first call
    from its extension alone (solve._load_extension) and kept, so that
    importing the module loads neither scipy.linalg nor the extension.
    FlowError on a singular matrix, which step answers by halving the time
    step; the caller checks that its input is finite.
    """
    global dgtsv
    if dgtsv is None:
        dgtsv = _load_extension(_FLAPACK).dgtsv
    _, _, _, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise FlowError("singular tridiagonal matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of gtsv")
    return x


def _implicit_interior(rhs, h, dt, ends):
    """Solve (I - dt L) X = rhs, column by column, for the arc-length
    Laplacian L of a polyline whose edge lengths are h; the first and last
    rows are pinned to the two rows of `ends`.  The three bands are built
    end to end in one buffer, and rhs is copied, not written.

    FlowError on non-finite input: the bands are finite when the diagonal
    is, so the diagonal and rhs are checked (a sum that overflows counts as
    non-finite).
    """
    n = len(rhs)
    bands = np.empty(3 * n - 2)
    dl, d, du = bands[:n - 1], bands[n - 1:2 * n - 1], bands[2 * n - 1:]
    mid = np.add(h[:-1], h[1:], out=d[1:-1])
    a = np.divide(2.0, np.multiply(h[:-1], mid, out=dl[:-1]), out=dl[:-1])
    c = np.divide(2.0, np.multiply(h[1:], mid, out=du[1:]), out=du[1:])
    np.add(a, c, out=mid)
    mid *= dt
    mid += 1.0
    a *= -dt
    c *= -dt
    d[0] = d[-1] = 1.0
    dl[-1] = du[0] = 0.0
    rhs = np.array(rhs, order="F")
    rhs[0], rhs[-1] = ends
    if not math.isfinite(_sum(d, None) + _sum(rhs, None)):
        raise FlowError("non-finite implicit system")
    return _tridiag_solve(dl, d, du, rhs)


def _slave_contact(wall, om_guess, inner1, inner2, g1, g2, end):
    """Contact parameter making the one-sided curve tangent at the wall
    point P(om), through the next two nodes, parallel to the wall normal.

    The two nodes follow the contact: they sit at inner_k + g_k (P(om) -
    end), which is how a linear solve's solution answers a move of its
    pinned end from `end` to P(om).  With g1 = g2 = 0 they stay at inner1
    and inner2.  Newton's slope is the residual's exact derivative, built
    from the wall's point and normal derivatives (wall.jet_xy).  A zero
    slope, an update above 0.3 or 60 iterations raise FlowError, which
    step answers by halving the time step.
    """
    i1x, i1y = float(inner1[0]), float(inner1[1])
    i2x, i2y = float(inner2[0]), float(inner2[1])
    ex, ey = end
    # om-derivatives of the two edges are these multiples of P'(om)
    m1, m2 = g1 - 1.0, g2 - g1

    def resid(om):
        """Residual and its derivative in om."""
        px, py, dpx, dpy, nx, ny, dnx, dny = wall.jet_xy(om)
        sx, sy = px - ex, py - ey
        q1x, q1y = i1x + g1 * sx, i1y + g1 * sy
        e1x, e1y = q1x - px, q1y - py
        e2x, e2y = i2x + g2 * sx - q1x, i2y + g2 * sy - q1y
        h1 = math.hypot(e1x, e1y)
        h2 = math.hypot(e2x, e2y)
        u, v, w = 1.0 / h1, 1.0 / h2, 1.0 / (h1 + h2)
        # one-sided second-order tangent at the endpoint:
        # u e1 - v e2 + w (e1 + e2)
        dx = (u + w) * e1x + (w - v) * e2x
        dy = (u + w) * e1y + (w - v) * e2y
        f1x, f1y = m1 * dpx, m1 * dpy
        f2x, f2y = m2 * dpx, m2 * dpy
        dh1 = (e1x * f1x + e1y * f1y) * u
        dh2 = (e2x * f2x + e2y * f2y) * v
        du, dv, dw = -dh1 * u * u, -dh2 * v * v, -(dh1 + dh2) * w * w
        ddx = ((du + dw) * e1x + (dw - dv) * e2x
               + (u + w) * f1x + (w - v) * f2x)
        ddy = ((du + dw) * e1y + (dw - dv) * e2y
               + (u + w) * f1y + (w - v) * f2y)
        return (dx * ny - dy * nx,
                ddx * ny + dx * dny - ddy * nx - dy * dnx)

    # the residual's rounding floor grows with the one-sided coefficients,
    # so stopping also triggers on a small parameter update
    om = om_guess
    f, df = resid(om)
    for _ in range(60):
        if abs(f) < _CONTACT_TOL:
            return om
        if df == 0.0:
            break
        delta = f / df
        if abs(delta) > 0.3:
            break
        om -= delta
        if abs(delta) < _CONTACT_STEP:
            return om
        f, df = resid(om)
    raise FlowError(f"contact Newton did not converge from om = {om_guess}")


def _edge_lengths(nodes):
    e = nodes[1:] - nodes[:-1]
    return np.hypot(e[:, 0], e[:, 1])


def _resample(curves, n_out, segs):
    """The curves of one resample event, each at n_out points at equal
    steps of its chord length on the not-a-knot spline through its nodes,
    ends kept: CubicSpline's points, bit for bit, from one packed spline
    solve.  FlowError where fewer than 4 distinct nodes remain.  The curves
    are only read; a node that ends a zero-length edge is dropped.  segs
    holds each curve's edge lengths, which are not formed again."""
    knots, pts = [], []
    for nodes, seg in zip(curves, segs):
        s = np.zeros(len(nodes))
        np.cumsum(seg, out=s[1:])
        if not (seg > 1e-15).all():
            keep = np.concatenate([[True], seg > 1e-15])
            s, nodes = s[keep], nodes[keep]
        knots.append(s)
        pts.append(nodes)
    if min(map(len, knots)) < 4:
        raise FlowError("fewer than 4 distinct nodes to resample")
    out = _spline_at(knots, _spline(knots, pts),
                     [np.linspace(0.0, s[-1], n_out) for s in knots])
    # copies, so that a stored curve keeps no other curve's nodes alive; in
    # Fortran order, as a step's new curve is
    res = [out[k * n_out:(k + 1) * n_out].copy(order="K")
           for k in range(len(curves))]
    for o, nodes in zip(res, curves):
        o[0], o[-1] = nodes[0], nodes[-1]
    return res


def _spline(xs, ys):
    """CubicSpline(x, y, axis=0).c, bit for bit, for each pair of knots x
    and values y in xs and ys, packed: a piece sits at its left knot's index
    in the joined knots, so the piece after each spline but the last is
    filler.  CubicSpline's expressions, and one gtsv (as its solve_banded)
    for all: the bands joining two blocks are 0, so gtsv's multiplier there
    is 0 and each block's bits are its own solve's.  ValueError on
    non-finite input or knots that do not strictly increase, as
    CubicSpline, and on fewer than 4 knots."""
    if min(map(len, xs)) < 4:
        raise ValueError("a not-a-knot spline needs at least 4 knots")
    # a lone block is read in place, not copied
    x, y = ((np.asarray(xs[0]), np.asarray(ys[0])) if len(xs) == 1
            else (np.concatenate(xs), np.concatenate(ys)))
    y = y.reshape(len(x), -1)
    if not math.isfinite(x.sum() + y.sum()):
        raise ValueError("`x` and `y` must contain only finite values.")
    # each spline's first and last knot, as int lists; each filler piece
    # gets width 1
    last = [i - 1 for i in accumulate(map(len, xs))]
    first, join = [0] + [i + 1 for i in last[:-1]], last[:-1]
    dx = x[1:] - x[:-1]
    dx[join] = 1.0
    if not (dx > 0.0).all():
        raise ValueError("`x` must be strictly increasing sequence.")
    dxr = dx[:, None]
    # slope, b, s and c's rows in Fortran order, so operations run down columns
    slope = np.divide(np.subtract(y[1:], y[:-1], order="F"), dxr, order="F")
    # a last row is a first row with the knots reversed: per end knot, the
    # piece at it, the next piece, the knot beyond and the width d between
    end, near = first + last, first + [i - 1 for i in last]
    far = [i + 1 for i in first] + [i - 2 for i in last]
    tip = [i + 2 for i in first] + [i - 2 for i in last]
    d = np.abs(x[end] - x[tip])[:, None]
    b = np.empty(y.shape, order="F")
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    dn = dxr[near]
    b[end] = ((dn + 2 * d) * dxr[far] * slope[near] + dn**2 * slope[far]) / d
    diag = np.empty(len(x))
    np.add(dx[:-1], dx[1:], out=diag[1:-1])
    diag[1:-1] *= 2
    diag[end] = dx[far]
    dl, du = np.empty_like(dx), np.empty_like(dx)
    dl[:-1], du[1:] = dx[1:], dx[:-1]
    du[first], dl[near[len(xs):]] = d[:len(xs), 0], d[len(xs):, 0]
    dl[join] = du[join] = 0.0
    s = _tridiag_solve(dl, diag, du, b)
    # c's four rows written in place, each in CubicSpline's operation
    # order: t = (s[:-1] + s[1:] - 2 slope) / dx, then t / dx,
    # (slope - s[:-1]) / dx - t, s[:-1] and y[:-1]
    c = np.empty((4, y.shape[1], len(dx))).transpose(0, 2, 1)
    t = np.add(s[:-1], s[1:], out=c[0])
    t -= np.multiply(2, slope, out=c[2])
    t /= dxr
    np.subtract(slope, s[:-1], out=c[1])
    c[1] /= dxr
    c[1] -= t
    t /= dxr
    c[2] = s[:-1]
    c[3] = y[:-1]
    return c


def _spline_at(xs, c, xis):
    """CubicSpline's values at each xis[k] on the spline of knots xs[k] in
    _spline's packed c, stacked, in one evaluation in PPoly's order."""
    idx, offs, start = [], [], 0
    for x, xi in zip(xs, xis):
        # the piece of each xi, the end pieces extended as PPoly's are
        i = np.searchsorted(x[1:-1], xi, side="right")
        idx.append(start + i)
        offs.append(xi - x[i])
        start += len(x)
    # one row per column of values, so that the evaluation runs along rows
    c = c.transpose(0, 2, 1).take(np.concatenate(idx), axis=2)
    s = np.concatenate(offs)
    return ((c[3] + c[2] * s) + c[1] * (s * s) + c[0] * (s * s * s)).T


def _convexity_defect(state, wall):
    """Smallest orientation-normalized vertex curvature.  The sum that sets
    the orientation is read only where the minimum is negative."""
    kap = state.kappa_cached(wall)
    lo = float(kap.min())
    if lo >= 0.0 or kap.sum() >= 0.0:
        return lo
    return -float(kap.max())


def step(state, cfg, wall, h0):
    """One accepted step; halves dt on a FlowError, which _attempt_step
    raises on a stepped curve that is not convex too, up to 20 times, then
    raises StepRejected.

    h0 sets the phase (see run_to_extinction) and with it the BDF order
    that _attempt_step takes: 2 in the uniform phase, where h0 is the
    spacing that the mesh step reads, and 3 in the collapse phase, h0
    None, which also has a looser tolerance, the controller exponents of
    its order and a longer length cap.  A step without an error estimate,
    one of a run's first three, takes the mesh step dt_safety *
    _STEP_SCALE * h_bar^2 / h0, h_bar the mean edge; h0 None on such a
    state raises ConfigError, as does an h0 that is not None and not a
    finite positive real (a bool included; a float skips the ABC check,
    and another real is read as its float).
    A state with levels steps at most _MAX_STEP_RATIO times its last step.

    Where the step that made the state carries an error estimate err, the
    new step is chosen against the tolerance tol by the PI controller
    0.9 dt_prev (tol / err)^(0.7/p) (err_prev / tol)^(0.4/p), p = order + 1
    the order of the local error (Gustafsson, ACM TOMS 20, 1994; Hairer,
    Norsett and Wanner, Solving ODEs I, II.4), or by the elementary
    controller 0.9 dt_prev (tol / err)^(1/p) where the step before has no
    estimate err_prev.  tol is cfg.error_tol in the uniform phase and
    _COLLAPSE_TOL_FACTOR times it in the collapse phase.  The step never
    exceeds the length cap _LENGTH_STEP_CAP * L^2, L the state's length:
    the diffusion time of the whole curve, which does not scale with
    dt_safety.  In the collapse phase the cap is scaled by
    _COLLAPSE_TOL_FACTOR^(1/4) = 4, as the controller's step is (a step
    goes as tol^(1/p); Soderlind, Numer. Algorithms 31, 2002).  The cap
    binds only where the curve barely moves, as on a stationary curve
    (whose step would otherwise double every step) or a long chord early
    on.  The first collapse step reads the estimates of two BDF2 steps
    with BDF3's exponents.
    """
    if h0 is not None and not (type(h0) is float and 0.0 < h0 < math.inf):
        if (isinstance(h0, bool) or not (isinstance(h0, numbers.Real)
                                         and 0.0 < h0 < math.inf)):
            raise ConfigError(
                f"the target spacing h0 must be None or a finite positive "
                f"real (not a bool), got {h0!r}")
        h0 = float(h0)
    order = 2 if h0 is not None else 3
    length = state.length
    levels, err, err_prev = state._prev or ((), None, None)
    if levels:
        dt_prev = state.time - levels[0].time
    if err is None:
        if h0 is None:
            raise ConfigError("the collapse phase (h0 None) needs a state "
                              "with an error estimate")
        h_bar = length / (len(state.nodes) - 1)
        dt = cfg.dt_safety * _STEP_SCALE * h_bar * (h_bar / h0)
    else:
        p = order + 1
        loosen = 1.0 if h0 is not None else _COLLAPSE_TOL_FACTOR
        tol = cfg.error_tol * loosen
        dt = _LENGTH_STEP_CAP * length ** 2 * loosen ** (1.0 / p)
        if err > 0.0:
            if err_prev:
                fac = ((tol / err) ** (_PI_ERR / p)
                       * (err_prev / tol) ** (_PI_PREV_ERR / p))
            else:
                fac = (tol / err) ** (1.0 / p)
            dt = min(dt, _CONTROL_SAFETY * dt_prev * fac)
    if levels:
        dt = min(dt, _MAX_STEP_RATIO * dt_prev)
    for _ in range(21):
        try:
            return _attempt_step(state, wall, dt, order)
        except FlowError:
            dt *= 0.5
    raise StepRejected(
        f"step kept failing after 20 halvings at t = {state.time:.6g}")


def _extrapolation_weights(d):
    """Lagrange extrapolation weights to a new time through the first m
    levels at the distances d back from it, one row per m = 1 .. len(d);
    a weight is the product of dk / (dk - dj) over the other levels."""
    row = [1.0]
    rows = [row]
    for m in range(1, len(d)):
        dm, last, new = d[m], 1.0, []
        for j in range(m):
            dj = d[j]
            new.append(row[j] * (dm / (dm - dj)))
            last *= dj / (dj - dm)
        new.append(last)
        rows.append(new)
        row = new
    return rows


def _bdf_weights(w, d):
    """beta and the weights c_j = beta w_j / d_j of the BDF step
    (I - beta L) X = sum_j c_j X^j through levels at the distances d back
    from the new time, w their extrapolation weights: 1 / beta =
    sum_j 1 / d_j, summed as d_0 / sum_j (d_0 / d_j) so that one level
    gives backward Euler exactly."""
    beta = d[0] / sum([d[0] / dj for dj in d])
    return beta, [beta * wj / dj for wj, dj in zip(w, d)]


def _normal_defect(nodes, pred, e):
    """Largest component of nodes - pred along the curve normal, the
    normal at each node taken across the chords either side of it (the
    one chord at an end), from the edge vectors e = nodes[1:] - nodes[:-1].
    Tangential node motion is reparametrisation, not error, so it is left
    out.  pred is overwritten; the tangents are two rows, x and y."""
    tx, ty = tan = np.empty((2, len(nodes)))
    np.add(e[:-1].T, e[1:].T, out=tan[:, 1:-1])
    tan[:, ::len(nodes) - 1] = e[::len(e) - 1].T
    d = np.subtract(nodes, pred, out=pred)
    cross = d[:, 0] * ty
    cross -= d[:, 1] * tx
    np.abs(cross, out=cross)
    cross /= np.hypot(tx, ty, out=tx)
    return float(_max(cross, None))


def _attempt_step(state, wall, dt, order):
    """Linearly implicit step of length dt, contacts at the new time, at
    the stepped curve's node count: variable-step BDF of the order
    k = min(order, 1 + the state's level count).

    With X^j the state and its levels (_prev), newest first, d_j the
    distance of each back from the new time and l_j the weights of the
    extrapolation to the new time through the first k, the step solves
    (I - beta L*) X = sum_j (beta l_j / d_j) X^j, 1 / beta = sum_j 1 / d_j,
    L* the Laplacian of the edge lengths sum_j l_j h^j (Akrivis and
    Lubich, Numer. Math. 131, 2015): backward Euler at k = 1.  The ends
    are pinned at the old contacts and two more right-hand sides give the
    response g of every node to a unit move of each end, so the new curve
    is X + g- s- + g+ s+ for end moves s.  Each contact's Newton runs on
    that family from the contact extrapolated through up to three levels,
    with nodes 1 and 2 moving with the end; the right contact sees the
    left one's move.

    Where a level beyond the k is known, the error estimate (Milne's
    device) is the largest normal component of the new curve less the
    extrapolation through k + 1 levels, read before any resample.  The
    new state's levels are a history-free CurveState of the stepped state
    (so a level keeps no other state alive) and the stepped state's two
    newest levels.  Only a drifted spacing (longest edge over 1.25 times
    the shortest) resamples: the new curve and every level, at the same
    count, in one packed spline solve, which takes the edge lengths the
    step holds; a count change would perturb the levels, and Milne's
    estimate would read that as error.  The new state's edge lengths
    (_seg) and turns come from the edge vectors that the error estimate
    reads: a curve whose every turn is positive is accepted without its
    curvature, another only where _convexity_defect is at least -1e-8
    (FlowError where it is not).
    """
    nodes = state.nodes
    levels, err_prev, _ = state._prev or ((), None, None)
    xs = (state,) + levels
    k = min(order, len(xs))
    d = [dt + (state.time - p.time) for p in xs]
    # the weight sets the step reads, as rows of one table: k levels for
    # the BDF formula and the edge lengths, k + 1 for the predictor and up
    # to three for the contacts
    ws = _extrapolation_weights(d[:max(k + 1, 3)])
    w = ws[k - 1]
    beta, c = _bdf_weights(w, d[:k])
    rhs = np.zeros((len(nodes), 4), order="F")
    x = np.multiply(nodes, c[0], out=rhs[:, :2])
    h = w[0] * state.seg_cached()
    for j in range(1, k):
        x += c[j] * xs[j].nodes
        h += w[j] * xs[j].seg_cached()
    om_m = om_p = 0.0
    for wj, p in zip(ws[min(3, len(xs)) - 1], xs):
        om_m += wj * p.om_minus
        om_p += wj * p.om_plus
    pred = None
    if len(xs) > k:
        wp = ws[k]
        pred = wp[0] * nodes
        for j in range(1, k + 1):
            pred += wp[j] * xs[j].nodes
    (x0, y0), (xn, yn) = nodes[::len(nodes) - 1].tolist()
    sol = _implicit_interior(rhs, h, beta,
                             ends=((x0, y0, 1.0, 0.0), (xn, yn, 0.0, 1.0)))
    # rows as (x, y, g-, g+)
    (x1, y1, g1, _), (x2, y2, g2, _) = sol[1:3].tolist()
    (xl, yl, gml, gpl), (xm, ym, gmm, gpm) = sol[-3:-1].tolist()
    om_minus = _slave_contact(wall, om_m, (x1, y1), (x2, y2), g1, g2,
                              (x0, y0))
    pm = wall.point_xy(om_minus)
    smx, smy = pm[0] - x0, pm[1] - y0
    om_plus = _slave_contact(wall, om_p, (xm + gmm * smx, ym + gmm * smy),
                             (xl + gml * smx, yl + gml * smy), gpm, gpl,
                             (xn, yn))
    pp = wall.point_xy(om_plus)
    # Fortran order, as gtsv returns it, so that the next step's BDF
    # right-hand side combines contiguous columns
    new = np.dot(np.array([[1.0, 0.0, smx, pp[0] - xn],
                           [0.0, 1.0, smy, pp[1] - yn]]), sol.T).T
    new[0], new[-1] = pm, pp
    # the new curve's edge vectors, formed once (again after a resample)
    # for the error estimate, the edge lengths and the curvature
    e = new[1:] - new[:-1]
    err = None if pred is None else _normal_defect(new, pred, e)
    seg = np.hypot(e[:, 0], e[:, 1])
    level = CurveState(nodes, state.time, state.om_minus, state.om_plus)
    level._seg = state.seg_cached()
    levels = (level,) + levels[:2]
    # resample only once the mesh has actually drifted; spacing decays
    # by O(dt) per step so most steps skip the spline rebuild
    if float(_max(seg, None)) > 1.25 * float(_min(seg, None)):
        new, *lv = _resample([new] + [p.nodes for p in levels], len(new),
                             [seg] + [p.seg_cached() for p in levels])
        e = new[1:] - new[:-1]
        seg = np.hypot(e[:, 0], e[:, 1])
        levels = tuple(CurveState(q, p.time, p.om_minus, p.om_plus)
                       for p, q in zip(levels, lv))
    out = CurveState(new, state.time + dt, om_minus, om_plus)
    out._seg, out._length = seg, float(_sum(seg, None))
    out._prev = (levels, err, err_prev)
    if (not _turns_positive(out, e, wall)
            and _convexity_defect(out, wall) < -1e-8):
        raise FlowError(f"the stepped curve is not convex at "
                        f"t = {out.time:.6g}")
    return out


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """Recorded run: the stored states, and the monitor arrays derived
    from them, one entry per state; monitors["t"] holds the states' times.

    Reported times are offset so that the extinction time the area law
    reads at the last state sits at 0 (see _finalize).
    """

    monitors: dict
    states: list
    time_offset: float          # raw extinction time, subtracted from
                                # raw times
    config: SolverConfig
    ndom: object

    @property
    def alpha(self):
        """The offset start time."""
        return float(self.monitors["t"][0])

    @property
    def extinction_point(self):
        """The mean node of the last stored state."""
        return self.states[-1].nodes.mean(axis=0)

    def height_reader(self, xs):
        """A function from offset times of any shape to heights at xs: an
        array of shape t_offsets.shape + (len(xs),), one row per time,
        linear in time between the two bracketing states' heights_at, so
        their x must increase (up to offset -_ANALYSIS_END it does).

        Offset times outside the stored range, -inf and inf too, clamp to
        the first or last state; a NaN time raises ConfigError, and so
        does an xs that is not a 1-D array of reals, when the reader is
        made.  Of two states stored at the same time, that time itself
        reads the first and later times interpolate from the second.
        Nearest-state lookup would quantize time to the step sequence, and
        that noise floor would drown small distances between runs.  Each
        call locates its times in one search of the flattened times, reads
        the bracketing states that no earlier call of this reader read,
        and gathers and weights its rows from the reader's table in one
        pass, then shapes them as the times: every stored state is read at
        most once in the reader's life, so repeated calls at nearby times
        (a shift search) read only the states that are new to it.
        """
        try:
            xs = np.asarray(xs)
        except ValueError:
            # a ragged sequence, of which numpy makes no array
            raise ConfigError(
                f"xs is not a 1-D array of reals: {xs!r}") from None
        if xs.ndim != 1 or xs.dtype.kind not in "iuf":
            raise ConfigError(f"xs is not a 1-D array of reals: {xs!r}")
        times = self.monitors["t"]
        states = self.states
        last = len(times) - 1
        # each read state's row of the table, -1 for a state not read; kept
        # by state index, as sorting the indices (np.unique) would fault in
        # numpy's sort kernels, about 1 MB of resident memory no other
        # analysis needs
        slot = np.full(len(times), -1)
        table = np.empty((0, len(xs)))

        def read(t_offsets):
            nonlocal table
            t_offsets = np.asarray(t_offsets, dtype=float)
            if np.isnan(t_offsets).any():
                raise ConfigError(
                    "an offset time is NaN; no state brackets it")
            shape = t_offsets.shape + (len(xs),)
            if 0 in shape:
                return np.empty(shape)
            t = t_offsets.ravel()
            i = np.searchsorted(times, t)
            clamped = np.minimum(i, last)
            # a stored time reads its state alone: weight 1 on it would
            # still carry a NaN of the state before it into the row
            stored = times[clamped] == t
            inside = (i > 0) & (i <= last) & ~stored
            # each time's first bracketing state, and the second where the
            # time is inside
            first = np.where(inside, i - 1, clamped)
            i1 = i[inside]
            # bracketing states no earlier call read: marked -2, listed once
            both = np.concatenate((first, i1))
            unread = both[slot[both] < 0]
            if len(unread):
                slot[unread] = -2
                new = np.flatnonzero(slot == -2)
                n = len(table)
                grown = np.empty((n + len(new), len(xs)))
                grown[:n] = table
                for row, k in zip(grown[n:], new):
                    row[:] = states[k].heights_at(xs)
                slot[new] = np.arange(n, len(grown))
                table = grown
            rows = table[slot[first]]
            if len(i1):
                t0, t1 = times[i1 - 1], times[i1]
                w = ((t[inside] - t0) / (t1 - t0))[:, None]
                # (1 - w) y0 + w y1, in place: two temporaries, not four
                y0, y1 = rows[inside], table[slot[i1]]
                y0 *= 1.0 - w
                y1 *= w
                y0 += y1
                rows[inside] = y0
            return rows.reshape(shape)

        return read


def _local_min_counts(values):
    """The interior local minima of each row of a 2-D array of sampled
    functions, flat plateaus merged, in one pass.

    Exact ties between neighbouring samples would make a strict
    descent/ascent test miss the minimum, so increments smaller than
    _FLAT_REL_TOL * max|values| of their row are treated as flat and
    dropped.  The significant increments of all rows, taken in row order,
    form one sequence; a minimum is a descent followed by an ascent inside
    one row, counted per row by bincount.
    """
    d = values[:, 1:] - values[:, :-1]
    tol = _FLAT_REL_TOL * np.abs(values).max(axis=1) + 1e-300
    sig = np.abs(d) > tol[:, None]
    falls = d[sig] < 0.0
    rows = np.nonzero(sig)[0]
    turns = (falls[:-1] > falls[1:]) & (rows[:-1] == rows[1:])
    return np.bincount(rows[:-1][turns], minlength=len(values))


def _state_rows(states, wall):
    """The stored states in blocks of at most _BLOCK_STATES consecutive
    states: each block as a list, with its x and y rows (one array, x rows
    first) and its curvature rows, one row per state, so that each row's
    reduction is that state's alone, bit for bit.

    The curvature that no step cached is one _kappa_rows call per block,
    each state of the list keeping its row as a view, not a copy, of that
    call's array (a view such as the mirror's builds a new state with no
    caches on each read), for which wall is read; wall may be None where
    every state has its curvature.  A state whose node count is not the
    first state's raises ConfigError: the rows need one count.
    """
    n = len(states[0].nodes) if len(states) else 0
    for i in range(0, len(states), _BLOCK_STATES):
        block = list(states[i:i + _BLOCK_STATES])
        odd = next((s for s in block if len(s.nodes) != n), None)
        if odd is not None:
            raise ConfigError(f"the state at time {odd.time:.6g} has "
                              f"{len(odd.nodes)} nodes, the first {n}")
        m = len(block)
        xy = np.concatenate([s.nodes.T for s in block],
                            axis=1).reshape(2, m, n)
        missing = [r for r, s in enumerate(block) if s._kap is None]
        if missing:
            sub = missing if len(missing) < m else slice(None)
            kap = _kappa_rows([block[r] for r in missing], wall,
                              *xy[:, sub])
            for r, row in zip(missing, kap):
                block[r]._kap = row
        if len(missing) < m:
            kap = np.concatenate([s._kap for s in block]).reshape(m, n)
        yield block, xy, kap


def _block_monitors(states, wall):
    """kappa_min, kappa_max, area and min_count of the stored states of a
    run: bit for bit the per-state reads (the interior curvature's
    minimum, the curvature's maximum, enclosed_area and the count of the
    interior curvature's local minima), each entry reducing one row of
    _state_rows.  The rows' shoelace terms add to one arc_area pass over
    all states.  States of two node counts raise ConfigError.
    """
    area = wall.arc_area(np.array([s.om_plus for s in states]),
                         np.array([s.om_minus for s in states]))
    parts = []
    for _, (x, y), kap in _state_rows(states, wall):
        terms = x[:, :-1] * y[:, 1:]
        terms -= y[:, :-1] * x[:, 1:]
        parts.append((kap[:, 1:-1].min(axis=1), kap.max(axis=1),
                      0.5 * terms.sum(axis=1),
                      _local_min_counts(kap[:, 1:-1])))
    kmin, kmax, shoelace, count = map(np.concatenate, zip(*parts))
    return kmin, kmax, area + shoelace, count


def run_to_extinction(initial, cfg, ndom):
    """Step to the first state shorter than _EXTINCTION_LENGTH, then read
    the extinction time from the area law (_finalize).

    Every state keeps the initial state's node count, and the steps follow
    the error controller (see step); every step after the first is BDF2,
    or BDF3 in the collapse phase, across resamples too.  Steps are in the
    uniform phase (h0 the initial spacing, read by the first steps' mesh
    rule) until the run is past every analysis window, and in the collapse
    phase (h0 None) from the first step from a state with an error
    estimate (the fourth) at which the area clock, the initial state's
    enclosed area less the trapezoid integral of theta+ + theta- over the
    stored states, is below _ANALYSIS_END (theta+ + theta-).  By the law
    dA/dt = -(theta+ + theta-) (Gage and Hamilton, J. Differential Geom.
    23, 1986; Stahl, Calc. Var. PDE 4, 1996) the clock over theta+ +
    theta- bounds the time left from above while theta+ + theta- does not
    fall.  The switch latches, and it comes at offset times -0.232 to
    -0.187 on the benchmark diameters, so every state before
    -_ANALYSIS_END is that of a run in the uniform phase, bit for bit.

    Every state a step returns is stored, so the stored states are exactly
    the states stepped through: 704 states of 703 steps on the disk at
    rho = 0.1, n_nodes = 200, dt_safety 0.8, and 686 of 685 steps on the
    egg at n_nodes = 100, of which 104 and 110 come after the switch.  The
    monitors are derived from them afterwards (_finalize).  An exhausted
    step budget (_MAX_STEPS) raises NonExtinction, whose partial
    trajectory ends at the current state, its times offset in the same
    way.  An initial state already shorter than _EXTINCTION_LENGTH leaves
    nothing to step, and raises ConfigError.
    """
    wall = wall_for(ndom)
    if initial.length < _EXTINCTION_LENGTH:
        raise ConfigError(
            f"the initial state already meets the stop rule (length "
            f"{initial.length:.3g}), so there is no run to record")
    state = initial
    h0 = initial.length / (len(initial.nodes) - 1)
    states = [state]
    # the area clock: the initial area less the trapezoid integral of
    # theta+ + theta- (turn) over the stored states
    clock = enclosed_area(initial, wall)
    turn = initial.theta_plus + initial.theta_minus
    while state.length >= _EXTINCTION_LENGTH:
        if len(states) > _MAX_STEPS:
            exc = NonExtinction(
                f"step budget {_MAX_STEPS} exhausted at length "
                f"{state.length:.3g}")
            exc.partial = _finalize(states, cfg, ndom, wall)
            raise exc
        # the fourth state is the first with an error estimate; the area
        # law's time left, clock / turn, is below _ANALYSIS_END
        if h0 is not None and len(states) > 3 and clock < (
                _ANALYSIS_END * turn):
            h0 = None
        new = step(state, cfg, wall, h0)
        # the history is read by that step alone; a stored state keeps none
        state._prev = None
        last, turn = turn, new.theta_plus + new.theta_minus
        clock -= 0.5 * (last + turn) * (new.time - state.time)
        state = new
        states.append(state)
    return _finalize(states, cfg, ndom, wall)


def _finalize(states, cfg, ndom, wall):
    """The trajectory of the stored states: its monitors, one row per
    state, and every time offset by the extinction time t + A /
    (theta+ + theta-) of the last state, read from the monitors.
    The curvature extremes, the area and the minimum count come from block
    passes (_block_monitors); times, turning angles, lengths and the
    heights at the abscissas are read state by state.
    """
    t = np.array([s.time for s in states])
    kmin, kmax, area, count = _block_monitors(states, wall)
    monitors = {
        "theta_plus": np.array([s.theta_plus for s in states]),
        "theta_minus": np.array([s.theta_minus for s in states]),
        "kappa_min": kmin,
        "kappa_max": kmax,
        "area": area,
        "length": np.array([s.length for s in states]),
        "min_count": count,
    }
    xs = np.asarray(cfg.abscissas)
    ys = np.array([s.heights_at(xs) for s in states])
    for j in range(len(xs)):
        monitors[f"y_at_x{j}"] = ys[:, j]

    # dA/dt = -(theta+ + theta-) for a curve meeting the wall at right
    # angles; near a boundary point the curve is nearly a half disk whose
    # turning angle barely moves, so its area A runs out A / (theta+ +
    # theta-) later
    offset = float(t[-1] + area[-1] / (monitors["theta_plus"][-1]
                                       + monitors["theta_minus"][-1]))

    monitors["t"] = t - offset
    # stored times are offset, so the last state's step history (in raw
    # time) is dropped with the others'
    for s in states:
        s.time -= offset
        s._prev = None
    return Trajectory(
        monitors=monitors,
        states=states,
        time_offset=offset,
        config=cfg,
        ndom=ndom,
    )


# ---------------------------------------------------------------------------
# production entry points


def initial_state_from_oval(ov, n_nodes):
    nodes = oval_mod.sample_initial_curve(ov, n_nodes)
    return CurveState(nodes=nodes, time=0.0,
                      om_minus=ov.omega_hat, om_plus=ov.omega0)


def old_but_not_ancient(ndom, rho, cfg):
    """Run the orthogonal-oval initial data to extinction.

    The run records no barrier: the barrier margin is a diagnostic that
    barrier.below_barrier reads from the stored states.
    """
    ov = oval_mod.construct_orthogonal_oval(ndom, rho)
    return run_to_extinction(initial_state_from_oval(ov, cfg.n_nodes), cfg,
                             ndom)
