"""Linearly implicit curvature flow with sliding orthogonal contacts.

The curve is an open polyline whose endpoints live on the domain boundary,
stored as boundary turning-angle parameters.  A step is variable-step
BDF2 in time, with the arc-length Laplacian taken at the edge lengths
extrapolated to the new time; the initial state and every resampled state
take a backward-Euler start step instead.  Either way the step is one
LAPACK gtsv call, and the contacts are solved at the new time level with
the interior: the same call gives every node's response to a move of
either end, and each contact parameter is then solved so that the
discrete endpoint tangent of the resulting curve is parallel to the
boundary normal (Newton with the residual's analytic slope, from the
wall's point and normal derivatives).  Cubic arc-length resampling
follows when the spacing has drifted.  The node count tracks the
shrinking length so the mean spacing stays near its initial value h0, and
the step is dt = dt_safety * _STEP_SCALE * h_bar^2 / h0: proportional to
h while the count tracks the length, to h^2 once it sits at its 32-node
floor near extinction.

Each state's edge lengths are computed once, by the step that makes it,
and cached on the state; the next step's time step and Laplacian reuse
them.  Its ghost-closed curvature is likewise computed once and shared by
the convexity check, the monitors and the late-time analysis.

A run records monitors on every step but keeps only every k-th full
state, with the stride k fixed from the first step size: about 900
states per 0.35 time units while the step stays near its initial value.
The count therefore grows with the length of the run: the disk at
rho = 0.1 and n_nodes = 200 keeps 5,585 states of 11,167 steps.  Stored
states are read in time through Trajectory.heights_at_time, linear
between the two bracketing states.

Two validation modes check exact solutions, one per boundary condition: a
pinned grim-reaper graph, run by its own backward-Euler loop, and a
semicircle on a straight wall run by step.
"""

import math
import numbers
from array import array
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from . import barrier as barrier_mod
from . import oval as oval_mod
from .errors import (ConfigError, FlowError, NonExtinction, RhoTooLarge,
                     StepRejected)
from .solve import safe_brentq


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
    """

    def __init__(self, ndom):
        dom = ndom.domain
        om = np.linspace(np.pi / 2 - _WALL_PAD, 3 * np.pi / 2 + _WALL_PAD,
                         _WALL_GRID)
        pts = dom.point(om)
        point_spl = CubicSpline(om, pts, axis=0)
        dp = dom.dpoint(om)
        green = 0.5 * (pts[:, 0] * dp[:, 1] - pts[:, 1] * dp[:, 0])
        green_spl = CubicSpline(om, green).antiderivative()
        self._lo, self._hi = float(om[0]), float(om[-1])
        self._hg = float(om[1] - om[0])
        self._nseg = _WALL_GRID - 1
        # per segment: x and y coefficients of u^3, u^2, u, 1, interleaved
        self._pc = array("d", point_spl.c.transpose(1, 0, 2).tobytes())
        # per segment: coefficients of u^4 .. 1 of the area integrand
        self._gc = array("d", green_spl.c.T.tobytes())

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
        """Scalar boundary point as a float pair."""
        return self.jet_xy(om)[:2]

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

    def tangent_xy(self, om):
        return math.cos(om), math.sin(om)

    def normal_xy(self, om):
        return math.sin(om), -math.cos(om)

    def arc_area(self, om_from, om_to):
        """Green-theorem boundary term of the enclosed area."""
        return self._green_at(om_to) - self._green_at(om_from)

    def _green_at(self, om):
        i, u = self._segment(om)
        a, b, c, d, e = self._gc[5 * i:5 * i + 5]
        return (((a * u + b) * u + c) * u + d) * u + e


class StraightWall:
    """The x-axis as a wall, parametrized by abscissa (validation mode)."""

    def point_xy(self, p):
        return float(p), 0.0

    def jet_xy(self, p):
        return float(p), 0.0, 1.0, 0.0, 0.0, -1.0, 0.0, 0.0

    def tangent_xy(self, p):
        return 1.0, 0.0

    def normal_xy(self, p):
        return 0.0, -1.0


# ---------------------------------------------------------------------------
# state


# full states kept per 0.35 time units at the first step size; the stride
# derived from it stays fixed for the whole run
_THINNING_STATES = 900
# a run stops once the curve is shorter than this, or once its curvature
# exceeds the cap
_EXTINCTION_LENGTH = 1e-3
_KAPPA_CAP = 1e3
# the contact Newton stops below this residual, or after an update below
# _CONTACT_STEP: it converges quadratically, with |error| about 0.7 times
# the squared update on the disk, so what an update that small leaves is
# under rounding.  _local_min_count treats increments below
# _FLAT_REL_TOL * max|values| as flat
_CONTACT_TOL = 1e-13
_CONTACT_STEP = 1e-8
_FLAT_REL_TOL = 1e-10
# the step is dt_safety * _STEP_SCALE * h_bar^2 / h0 (see step); a step
# grows by at most _MAX_STEP_RATIO over the one before it, inside variable
# BDF2's zero-stability limit 1 + sqrt(2)
_STEP_SCALE = 0.024
_MAX_STEP_RATIO = 2.0


@dataclass
class SolverConfig:
    """Flow run settings.

    n_nodes is the initial (and largest) node count; dt_safety in (0, 1)
    multiplies the step rule dt = _STEP_SCALE * h_bar^2 / h0 (see step);
    max_steps is the step budget of run_to_extinction; abscissas are the
    x at which every step records the curve's height.
    """

    n_nodes: int = 200
    dt_safety: float = 0.4
    max_steps: int = 2_000_000
    abscissas: tuple = (-0.8, -0.4, 0.0, 0.4, 0.8)

    def __post_init__(self):
        for name in ("n_nodes", "max_steps"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_nodes < 32:
            raise ConfigError("n_nodes must be at least 32")
        if not 0.0 < self.dt_safety < 1.0:
            raise ConfigError("dt_safety must lie in (0, 1)")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")


@dataclass
class CurveState:
    """Open curve with endpoints slaved to the wall.

    nodes[0] and nodes[-1] equal the wall points of om_minus / om_plus.
    """

    nodes: np.ndarray
    time: float
    om_minus: float   # left contact parameter
    om_plus: float    # right contact parameter
    _kap: np.ndarray = field(default=None, repr=False, compare=False)
    _seg: np.ndarray = field(default=None, repr=False, compare=False)
    # the history of a BDF2 step, set when this state was stepped without
    # a resample: (time, nodes, edge lengths, om_minus, om_plus) of the
    # state it came from, then (time, om_minus, om_plus) of the one before
    # that, or None
    _prev: tuple = field(default=None, repr=False, compare=False)

    def kappa_cached(self, wall):
        if self._kap is None:
            self._kap = self.kappa(wall)
        return self._kap

    def seg_cached(self):
        if self._seg is None:
            e = self.nodes[1:] - self.nodes[:-1]
            self._seg = np.hypot(e[:, 0], e[:, 1])
        return self._seg

    @property
    def theta_plus(self):
        return self.om_plus - np.pi / 2.0

    @property
    def theta_minus(self):
        return 3.0 * np.pi / 2.0 - self.om_minus

    @property
    def length(self):
        return float(self.seg_cached().sum())

    def ghosts(self, wall):
        """Mirror the first interior node across each contact's wall
        tangent line; the doubled curve reproduces the contact curvature."""
        (x0, y0), (x1, y1) = self.nodes[:2].tolist()
        (xm, ym), (xn, yn) = self.nodes[-2:].tolist()
        out = []
        for om, ex, ey, ix, iy in ((self.om_minus, x0, y0, x1, y1),
                                   (self.om_plus, xn, yn, xm, ym)):
            wx, wy = wall.tangent_xy(om)
            vx = ix - ex
            vy = iy - ey
            d = 2.0 * (vx * wx + vy * wy)
            out.append((ex + d * wx - vx, ey + d * wy - vy))
        return out

    def kappa(self, wall):
        """Vertex curvatures; contacts closed by ghost reflection."""
        pts = np.empty((len(self.nodes) + 2, 2))
        pts[1:-1] = self.nodes
        pts[0], pts[-1] = self.ghosts(wall)
        e = pts[1:] - pts[:-1]
        h = np.hypot(e[:, 0], e[:, 1])
        crossp = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
        dotp = np.einsum("ij,ij->i", e[:-1], e[1:])
        phi = np.arctan2(crossp, dotp)
        return 2.0 * phi / (h[:-1] + h[1:])

    def heights_at(self, xs):
        return np.interp(xs, self.nodes[:, 0], self.nodes[:, 1],
                         left=np.nan, right=np.nan)


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
    the same.  LinAlgError on a singular matrix; the caller checks that
    its input is finite.
    """
    _, _, _, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of gtsv")
    return x


def _implicit_interior(rhs, h, dt, ends=None):
    """Solve (I - dt L) X = rhs, column by column, for the arc-length
    Laplacian L of a polyline whose edge lengths are h; the first and last
    rows are pinned to `ends` or, when ends is None, to rhs itself.

    ValueError on non-finite input, as solve_banded: the bands are finite
    when the diagonal is, so the diagonal and rhs are checked (a sum that
    overflows counts as non-finite).
    """
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
    if ends is not None:
        rhs[0], rhs[-1] = ends
    if not math.isfinite(d.sum() + rhs.sum()):
        raise ValueError("array must not contain infs or NaNs")
    return _tridiag_solve(dl, d, du, rhs)


def _slave_contact(wall, om_guess, inner1, inner2, g1=0.0, g2=0.0,
                   end=(0.0, 0.0)):
    """Contact parameter making the one-sided curve tangent at the wall
    point P(om), through the next two nodes, parallel to the wall normal.

    The two nodes follow the contact: they sit at inner_k + g_k (P(om) -
    end), which is how a linear solve's solution answers a move of its
    pinned end from `end` to P(om).  With g1 = g2 = 0 they stay at inner1
    and inner2.  Newton's slope is the residual's exact derivative, built
    from the wall's point and normal derivatives (wall.jet_xy).
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
    # bracketed fallback around the guess
    lo, hi = om_guess - 0.25, om_guess + 0.25
    try:
        return safe_brentq(lambda w: resid(w)[0], lo, hi)
    except Exception as exc:
        raise FlowError(f"contact solve failed near om = {om_guess}") from exc


def _resample(nodes, n_out):
    seg = np.hypot(*np.diff(nodes, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    # guard against zero-length segments
    keep = np.concatenate([[True], seg > 1e-15])
    s, pts = s[keep], nodes[keep]
    if len(pts) < 4:
        return nodes
    spl = CubicSpline(s, pts, axis=0)
    si = np.linspace(0.0, s[-1], n_out)
    out = spl(si)
    out[0], out[-1] = nodes[0], nodes[-1]
    return out


def _convexity_defect(state, wall):
    """Smallest orientation-normalized vertex curvature."""
    kap = state.kappa_cached(wall)
    if kap.sum() >= 0.0:
        return float(kap.min())
    return -float(kap.max())


def step(state, cfg, wall, h0=None):
    """One accepted step; halves dt on convexity rejection up to 20 times.

    The step is dt = dt_safety * _STEP_SCALE * h_bar^2 / h0 for the mean
    edge h_bar, so dt ~ h while the node count tracks the length (h_bar
    near h0) and dt ~ h^2 once the count sits at its floor.  With h0 None
    the node count is fixed and dt = dt_safety * _STEP_SCALE * h_bar.  A
    state that carries its predecessor (_prev) takes a variable-step BDF2
    step no more than _MAX_STEP_RATIO times the one before it; any other
    state takes a backward-Euler start step.
    """
    seg = state.seg_cached()
    h_bar = float(seg.sum()) / len(seg)
    dt = cfg.dt_safety * _STEP_SCALE * h_bar * (
        1.0 if h0 is None else h_bar / h0)
    if state._prev is not None:
        dt = min(dt, _MAX_STEP_RATIO * (state.time - state._prev[0]))
    for _ in range(21):
        try:
            new = _attempt_step(state, cfg, wall, dt, h0)
        except FlowError:
            dt *= 0.5
            continue
        if _convexity_defect(new, wall) >= -1e-8:
            return new
        dt *= 0.5
    raise StepRejected(
        f"convexity kept failing after 20 halvings at t = {state.time:.6g}")


def _attempt_step(state, cfg, wall, dt, h0):
    """Linearly implicit step of length dt, contacts at the new time.

    BDF2 with step ratio w = dt / dt_prev solves
    (I - beta L*) X = ((1 + w)^2 X^n - w^2 X^(n-1)) / (1 + 2w),
    beta = dt (1 + w) / (1 + 2w), with the Laplacian L* of the edge
    lengths extrapolated to the new time; the start step is backward
    Euler, (I - dt L^n) X = X^n.  The ends are pinned at the old contacts
    and two more right-hand sides give the response g of every node to a
    unit move of each end, so the new curve is X + g- s- + g+ s+ for end
    moves s.  Each contact's Newton runs on that family, with nodes 1 and
    2 moving with the end; the right contact sees the left one's move.
    """
    nodes = state.nodes
    seg = state.seg_cached()
    om_m, om_p = state.om_minus, state.om_plus
    rhs = np.zeros((len(nodes), 4), order="F")
    if state._prev is None:
        beta, h = dt, seg
        rhs[:, :2] = nodes
    else:
        t1, nodes1, seg1, om_m1, om_p1, older = state._prev
        w = dt / (state.time - t1)
        beta = dt * (1.0 + w) / (1.0 + 2.0 * w)
        np.multiply(nodes, (1.0 + w) ** 2 / (1.0 + 2.0 * w), out=rhs[:, :2])
        rhs[:, :2] -= (w * w / (1.0 + 2.0 * w)) * nodes1
        h = (1.0 + w) * seg - w * seg1
        # the contacts' first Newton guesses, extrapolated linearly, or
        # quadratically once three contact times are known
        tau1 = state.time - t1
        dm, dp = (om_m - om_m1) / tau1, (om_p - om_p1) / tau1
        om_m += dt * dm
        om_p += dt * dp
        if older is not None:
            t2, om_m2, om_p2 = older
            q = dt * (dt + tau1) / (state.time - t2)
            om_m += q * (dm - (om_m1 - om_m2) / (t1 - t2))
            om_p += q * (dp - (om_p1 - om_p2) / (t1 - t2))
    (x0, y0), (xn, yn) = nodes[0].tolist(), nodes[-1].tolist()
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
    # Fortran order, as gtsv returns it, so that the next step's BDF2
    # right-hand side combines contiguous columns
    new = np.dot(np.array([[1.0, 0.0, smx, pp[0] - xn],
                           [0.0, 1.0, smy, pp[1] - yn]]), sol.T).T
    new[0], new[-1] = pm, pp
    e = new[1:] - new[:-1]
    seg = np.hypot(e[:, 0], e[:, 1])
    if h0 is None:
        n_out = len(new)
    else:
        n_out = min(max(round(float(seg.sum()) / h0) + 1, 32), cfg.n_nodes)
    # resample only once the mesh has actually drifted; spacing decays
    # by O(dt) per step so most steps skip the spline rebuild.  A
    # resampled state has new nodes, so its next step starts over.
    if n_out != len(new) or float(seg.max()) > 1.25 * float(seg.min()):
        new = _resample(new, n_out)
        new[0], new[-1] = pm, pp
        return CurveState(nodes=new, time=state.time + dt,
                          om_minus=om_minus, om_plus=om_plus)
    return CurveState(nodes=new, time=state.time + dt,
                      om_minus=om_minus, om_plus=om_plus, _seg=seg,
                      _prev=(state.time, nodes, state.seg_cached(),
                             state.om_minus, state.om_plus,
                             None if state._prev is None else
                             (state._prev[0],) + state._prev[3:5]))


# ---------------------------------------------------------------------------
# trajectories


@dataclass
class Trajectory:
    """Recorded run: raw-time monitor arrays plus thinned full states.

    Reported times are offset so the extrapolated extinction sits at 0.
    """

    monitors: dict
    states: list
    state_times: np.ndarray
    time_offset: float          # raw extinction time, subtracted from
                                # raw times
    alpha: float                # offset start time
    extinction_point: np.ndarray
    config: SolverConfig
    ndom: object = None
    # True when the L^2 fit gave no extinction time in
    # [t_end, t_end + 0.5] and the last recorded time was used instead
    extinction_fit_fallback: bool = False

    def to_csv(self, path):
        cols = ["t", "theta_plus", "theta_minus", "kappa_min", "kappa_max",
                "area", "dA_dt"]
        cols += [f"y_at_x{k}" for k in range(len(self.config.abscissas))]
        cols += ["barrier_margin"]
        rows = np.column_stack([self.monitors[c] for c in cols])
        with open(path, "w", encoding="utf-8") as f:
            f.write(",".join(cols) + "\n")
            for row in rows:
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")

    def state_at(self, t_offset):
        """Stored state nearest to the requested offset time."""
        i = int(np.argmin(np.abs(self.state_times - t_offset)))
        return self.states[i]

    def heights_at_time(self, t_offset, xs):
        """Heights at xs, linear in time between the two bracketing states.

        Offset times outside the stored range clamp to the first or last
        state.  Of two states stored at the same time, that time itself
        reads the first and later times interpolate from the second.
        Nearest-state lookup would quantize time to the thinning stride,
        and that noise floor would drown small distances between runs.
        """
        times = self.state_times
        i = int(np.searchsorted(times, t_offset))
        if i <= 0:
            return self.states[0].heights_at(xs)
        if i >= len(times):
            return self.states[-1].heights_at(xs)
        t0, t1 = times[i - 1], times[i]
        y0 = self.states[i - 1].heights_at(xs)
        y1 = self.states[i].heights_at(xs)
        w = (t_offset - t0) / (t1 - t0)
        return (1.0 - w) * y0 + w * y1


# abscissas at which matched_distance compares two runs, in ancient_sweep
# and in asymptotics.uniqueness_evidence
MATCH_XS = np.linspace(-0.85, 0.85, 241)
MATCH_XS.flags.writeable = False


def matched_distance(trajA, trajB, tau, sample_times, xs):
    """Sup over times and abscissas of |y_A(t) - y_B(t + tau)|.

    Only abscissas where both curves have a height count; a sample time
    at which the two share none makes the distance inf.
    """
    worst = 0.0
    for t in sample_times:
        ya = trajA.heights_at_time(t, xs)
        yb = trajB.heights_at_time(t + tau, xs)
        m = np.isfinite(ya) & np.isfinite(yb)
        if not np.any(m):
            return np.inf
        worst = max(worst, float(np.max(np.abs(ya[m] - yb[m]))))
    return worst


def _local_min_count(values):
    """Interior local minima of a sampled function, merging flat plateaus.

    Exact ties between neighbouring samples would make a strict
    descent/ascent test miss the minimum, so increments smaller than
    _FLAT_REL_TOL * max|values| are treated as flat and dropped.
    """
    d = values[1:] - values[:-1]
    tol = _FLAT_REL_TOL * float(np.abs(values).max()) + 1e-300
    # a minimum is a descent followed by an ascent among significant steps
    falls = d[np.abs(d) > tol] < 0.0
    return int(np.count_nonzero(falls[:-1] > falls[1:]))


def run_to_extinction(initial, cfg, ndom, barrier_config=None,
                      barrier_t_hat=None):
    """Step until the length threshold, then extrapolate extinction.

    Every step after the first and after each resample is BDF2 (see
    step).  Monitors are recorded every accepted step.  Full states are
    kept every k-th step, with k fixed from the first step size dt0 =
    dt_safety * _STEP_SCALE * h0 so that a run keeps about 900
    (_THINNING_STATES) states per 0.35 time units while the step stays
    near that size.  The count is not capped and grows with the run's
    length: at dt_safety = 0.8, 5,585 states of 11,167 steps on the disk
    at rho = 0.1, n_nodes = 200 (k = 2), and on the egg at n_nodes = 100
    every state of its 4,607 steps (k = 1).  Where halvings shrink the
    step, states are denser in time.
    """
    wall = ConvexWall(ndom)
    state = initial
    h0 = initial.length / (len(initial.nodes) - 1)
    xs = np.asarray(cfg.abscissas)

    raw = {k: [] for k in ("t", "theta_plus", "theta_minus", "kappa_min",
                           "kappa_max", "area", "length", "barrier_margin",
                           "min_count", "om_minus", "om_plus")}
    ys = []
    states, state_times = [], []

    def record(s):
        kap = s.kappa_cached(wall)
        inner = kap[1:-1]
        raw["t"].append(s.time)
        raw["theta_plus"].append(s.theta_plus)
        raw["theta_minus"].append(s.theta_minus)
        raw["kappa_min"].append(float(inner.min()))
        raw["kappa_max"].append(float(kap.max()))
        raw["area"].append(enclosed_area(s, wall))
        raw["length"].append(s.length)
        raw["om_minus"].append(s.om_minus)
        raw["om_plus"].append(s.om_plus)
        raw["min_count"].append(_local_min_count(inner))
        ys.append(s.heights_at(xs))
        if barrier_config is not None and barrier_t_hat is not None \
                and barrier_t_hat + s.time < 0.0:
            B = barrier_mod.barrier_at(barrier_t_hat + s.time, barrier_config)
            raw["barrier_margin"].append(
                barrier_mod.below_barrier(s.nodes, B)[1])
        else:
            raw["barrier_margin"].append(np.nan)

    record(state)
    states.append(state)
    state_times.append(state.time)

    # step stride of the state thinning, from the first step size
    dt0 = cfg.dt_safety * _STEP_SCALE * h0
    stride = max(1, int(0.35 / dt0 / _THINNING_STATES)) if dt0 > 0 else 1

    nsteps = 0
    while True:
        if state.length < _EXTINCTION_LENGTH:
            break
        kmax = raw["kappa_max"][-1]
        if kmax > _KAPPA_CAP:
            break
        if nsteps >= cfg.max_steps:
            exc = NonExtinction(
                f"step budget {cfg.max_steps} exhausted at length "
                f"{state.length:.3g}")
            exc.partial = _finalize(raw, ys, states, state_times, cfg, ndom)
            raise exc
        new = step(state, cfg, wall, h0=h0)
        # the history is read by that step alone; a stored state keeps none
        state._prev = None
        state = new
        nsteps += 1
        record(state)
        if nsteps % stride == 0:
            states.append(state)
            state_times.append(state.time)
    if states[-1] is not state:
        states.append(state)
        state_times.append(state.time)
    return _finalize(raw, ys, states, state_times, cfg, ndom)


def _finalize(raw, ys, states, state_times, cfg, ndom):
    t = np.asarray(raw["t"])
    L = np.asarray(raw["length"])
    # length shrinks like sqrt(t_ext - t): fit L^2 linearly near the end
    k = max(2, min(40, len(t) // 4))
    A = np.polyfit(t[-k:], L[-k:] ** 2, 1)
    t_ext = float(-A[1] / A[0]) if A[0] < 0 else np.nan
    fallback = not t[-1] <= t_ext <= t[-1] + 0.5
    offset = float(t[-1]) if fallback else t_ext

    area = np.asarray(raw["area"])
    dA = np.gradient(area, t) if len(t) > 2 else np.zeros_like(area)

    monitors = {
        "t": t - offset,
        "theta_plus": np.asarray(raw["theta_plus"]),
        "theta_minus": np.asarray(raw["theta_minus"]),
        "kappa_min": np.asarray(raw["kappa_min"]),
        "kappa_max": np.asarray(raw["kappa_max"]),
        "area": area,
        "dA_dt": dA,
        "length": L,
        "barrier_margin": np.asarray(raw["barrier_margin"]),
        "min_count": np.asarray(raw["min_count"]),
        "om_minus": np.asarray(raw["om_minus"]),
        "om_plus": np.asarray(raw["om_plus"]),
    }
    ymat = np.asarray(ys)
    for j in range(ymat.shape[1] if ymat.ndim == 2 else 0):
        monitors[f"y_at_x{j}"] = ymat[:, j]

    final = states[-1]
    ext_pt = final.nodes.mean(axis=0)
    # stored times are offset, so the last state's step history (in raw
    # time) is dropped with the others'
    for s in states:
        s.time -= offset
        s._prev = None
    return Trajectory(
        monitors=monitors,
        states=states,
        state_times=np.asarray(state_times) - offset,
        time_offset=offset,
        alpha=float(t[0] - offset),
        extinction_point=ext_pt,
        config=cfg,
        ndom=ndom,
        extinction_fit_fallback=fallback,
    )


# ---------------------------------------------------------------------------
# production entry points


def initial_state_from_oval(ov, n_nodes):
    nodes = oval_mod.sample_initial_curve(ov, n_nodes)
    return CurveState(nodes=nodes, time=0.0,
                      om_minus=ov.omega_hat, om_plus=ov.omega0)


def old_but_not_ancient(ndom, rho, cfg):
    """Run the orthogonal-oval initial data to extinction.

    The barrier monitor uses the arc barrier tangent to the horizontal
    line through the curve's highest point; if the curve starts higher
    than any admissible barrier allows, the monitor is disabled.
    """
    ov = oval_mod.construct_orthogonal_oval(ndom, rho)
    state = initial_state_from_oval(ov, cfg.n_nodes)
    bcfg = barrier_mod.BarrierConfig.from_domain(ndom)
    h_max = float(np.max(state.nodes[:, 1]))
    try:
        t_hat = barrier_mod.tangency_time(h_max * (1.0 + 1e-9), bcfg.r)
    except RhoTooLarge:
        bcfg, t_hat = None, None   # start too high: monitor disabled
    return run_to_extinction(state, cfg, ndom,
                             barrier_config=bcfg, barrier_t_hat=t_hat)


@dataclass
class SweepReport:
    rhos: list
    trajectories: list
    pair_distances: list        # matched-time sup distances, consecutive rhos
    heights_at_tm2: list        # max height at offset time -2 (NaN if later)
    alphas: list


def ancient_sweep(ndom, rhos, cfg):
    """Old-but-not-ancient runs over decreasing rho, aligned by extinction."""
    rhos = sorted(rhos, reverse=True)
    if len(rhos) < 3:
        raise ConfigError("sweep needs at least 3 rho values")
    trajs = [old_but_not_ancient(ndom, r, cfg) for r in rhos]

    pair = []
    for a, b in zip(trajs[:-1], trajs[1:]):
        lo = max(a.alpha, b.alpha) * 0.85
        ts = np.linspace(lo, -0.3, 24)
        pair.append(matched_distance(a, b, 0.0, ts, MATCH_XS))
    # a run that starts after t = -2 has no height there
    heights = [np.nan if tr.alpha > -2.0
               else float(np.max(tr.state_at(-2.0).nodes[:, 1]))
               for tr in trajs]
    return SweepReport(
        rhos=list(rhos),
        trajectories=trajs,
        pair_distances=pair,
        heights_at_tm2=heights,
        alphas=[tr.alpha for tr in trajs],
    )


# ---------------------------------------------------------------------------
# validation modes (exact solutions)


# step safety of the exact solutions; half-width of the grim reaper's
# pinned graph; stationary diameter's nodes, steps
_VALIDATION_DT_SAFETY = 0.4
_GRIM_HALF_WIDTH = 1.2
_DRIFT_NODES = 64
_DRIFT_STEPS = 50


def grim_reaper_error(n, t_end):
    """Graph y = t - log cos x translating upward; ends pinned exactly."""
    half_width = _GRIM_HALF_WIDTH
    xs = np.linspace(-half_width, half_width, n)
    pts = np.column_stack([xs, -np.log(np.cos(xs))])
    t = 0.0
    while t < t_end:
        seg = np.hypot(*np.diff(pts, axis=0).T)
        dt = min(_VALIDATION_DT_SAFETY * float(np.min(seg)) ** 2 / 2.0,
                 t_end - t)
        new = _implicit_interior(pts, seg, dt)
        t += dt
        new[0] = [-half_width, t - np.log(np.cos(half_width))]
        new[-1] = [half_width, t - np.log(np.cos(half_width))]
        pts = _resample(new, n)
    exact = t_end - np.log(np.cos(xs))
    ynum = np.interp(xs, pts[:, 0], pts[:, 1])
    lo, hi = n // 8, n - n // 8
    return float(np.max(np.abs(ynum[lo:hi] - exact[lo:hi])))


def semicircle_wall_error(n, t_end, dt_safety=_VALIDATION_DT_SAFETY):
    """Unit half circle on the x-axis wall shrinking as sqrt(1 - 2t).

    Runs step with n fixed nodes until t_end is reached or passed; returns
    the largest node radius error there and the final state."""
    th = np.linspace(np.pi, 0.0, n)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    pts[0, 1] = pts[-1, 1] = 0.0
    state = CurveState(nodes=pts, time=0.0, om_minus=-1.0, om_plus=1.0)
    wall = StraightWall()
    cfg = SolverConfig(n_nodes=n, dt_safety=dt_safety)
    while state.time < t_end:
        state = step(state, cfg, wall, h0=None)
    r_exact = np.sqrt(1.0 - 2 * state.time)
    r_num = np.hypot(state.nodes[:, 0] - 0.5 * (state.om_minus + state.om_plus),
                     state.nodes[:, 1])
    return float(np.max(np.abs(r_num - r_exact))), state


def stationary_diameter_drift(ndom):
    """A flat diameter meeting the wall orthogonally must not move."""
    xs = np.linspace(-1.0, 1.0, _DRIFT_NODES)
    pts = np.column_stack([xs, np.zeros_like(xs)])
    state = CurveState(nodes=pts, time=0.0,
                       om_minus=3 * np.pi / 2, om_plus=np.pi / 2)
    wall = ConvexWall(ndom)
    cfg = SolverConfig(n_nodes=_DRIFT_NODES)
    drift = 0.0
    for _ in range(_DRIFT_STEPS):
        state = step(state, cfg, wall)
        drift = max(drift, float(np.max(np.abs(state.nodes[:, 1]))))
    return drift
