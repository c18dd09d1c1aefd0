"""Sliding circular-arc upper barriers.

The barrier family lives inside two radius-r circles tangent to the domain
at the diameter endpoints +-e1.  Inside the unit disk the building block is
the one-parameter family of arcs

    K_omega = { x^2 + (csc omega - y)^2 = cot^2 omega }  intersect  B^1,

omega in (0, pi/2): circular arcs meeting the unit circle orthogonally at
(+-cos omega, sin omega), sagging down to the apex (0, tan(omega/2)).  Run
with the schedule omega(t) = arcsin(e^{2t}), t < 0, each arc moves toward
its own center of curvature at least as fast as its curvature, so the family
is a supersolution: a flow below it stays below it.

Scaled copies r*K_{omega(t/r^2)} placed in the two tangent circles, joined
by the horizontal segment between their inner endpoints, give the composite
barrier K_t used for the old-but-not-ancient window: it is tangent to the
line y = rho at its two apexes exactly at time t_rho, and sweeps upward as
t increases toward 0.
"""

import numpy as np
from dataclasses import dataclass

from .errors import ConfigError, RhoTooLarge

_FIT_TOL = 1e-10     # worst support-function violation of the circles
_RING_SAMPLES = 256  # points on each tangent circle tested against the domain
_BELOW_TOL = 1e-10   # height a node may sit above the barrier, still below
_SPEED_DT = 1e-6     # time step of the finite-difference arc speed


# ---------------------------------------------------------------------------
# unit-disk arcs


@dataclass(frozen=True)
class UnitDiskArc:
    """Arc of x^2 + (csc w - y)^2 = cot^2 w inside the unit disk."""

    omega: float

    @property
    def center(self):
        return np.array([0.0, 1.0 / np.sin(self.omega)])

    @property
    def radius(self):
        return 1.0 / np.tan(self.omega)

    @property
    def curvature(self):
        return np.tan(self.omega)

    @property
    def endpoints(self):
        c, s = np.cos(self.omega), np.sin(self.omega)
        return np.array([[-c, s], [c, s]])

    def height(self, x):
        """Lower-branch graph y(x) on |x| <= cos omega."""
        x = np.asarray(x, dtype=float)
        rad2 = self.radius ** 2 - x ** 2
        return self.center[1] - np.sqrt(np.maximum(rad2, 0.0))

    def slope(self, x):
        x = np.asarray(x, dtype=float)
        rad2 = np.maximum(self.radius ** 2 - x ** 2, 1e-300)
        return x / np.sqrt(rad2)


def unit_disk_arc(omega):
    if not 0.0 < omega < np.pi / 2:
        raise ConfigError(f"arc parameter must lie in (0, pi/2), got {omega}")
    return UnitDiskArc(float(omega))


def omega_of_time(t):
    """Schedule omega(t) = arcsin(e^{2t}); returns 0.0 once e^{2t} underflows."""
    u = np.exp(2.0 * float(t))
    if u == 0.0:
        return 0.0
    return float(np.arcsin(min(u, 1.0)))


# ---------------------------------------------------------------------------
# placement inside a normalized domain


def _fit_violation(dom, r):
    """Worst support-function violation of the two tangent circles."""
    phi = np.linspace(0.0, 2.0 * np.pi, _RING_SAMPLES, endpoint=False)
    ring = r * np.column_stack([np.cos(phi), np.sin(phi)])
    worst = -np.inf
    th = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    h = dom.support(th)
    dirs = np.stack([np.cos(th), np.sin(th)])
    for cx in (-(1.0 - r), 1.0 - r):
        pts = ring + np.array([cx, 0.0])
        worst = max(worst, float(np.max(pts @ dirs - h)))
    return worst


def admissible_radius(ndom):
    """Largest r with 4r <= curvature <= 1/(4r).  Its tangent circles lie
    inside (Blaschke's rolling theorem); _fit_violation checks them once.
    """
    dom = ndom.domain
    r = min(dom.kappa_min / 4.0, 1.0 / (4.0 * dom.kappa_max))
    if _fit_violation(dom, r) > _FIT_TOL:
        raise ConfigError(f"tangent circles of radius {r:.6g} do not fit")
    return float(r)


# ---------------------------------------------------------------------------
# composite barrier


@dataclass
class BarrierCurve:
    """Two scaled arcs joined by a horizontal segment, frozen at one time.

    The graph runs over x in [-(1-r)-r cos w, (1-r)+r cos w]: arc, segment
    at height r sin w, arc.  Once omega underflows to zero the barrier is
    reported as the diameter segment itself (degenerate = True).
    """

    t: float
    r: float
    omega: float
    degenerate: bool

    @property
    def arc_half_width(self):
        return self.r * np.cos(self.omega)

    @property
    def x_span(self):
        if self.degenerate:
            return (-1.0, 1.0)
        w = (1.0 - self.r) + self.arc_half_width
        return (-w, w)

    @property
    def segment(self):
        """Endpoints of the horizontal joint between the two inner arc ends."""
        h = self.max_height
        xi = (1.0 - self.r) - self.arc_half_width
        return np.array([[-xi, h], [xi, h]])

    @property
    def apex_height(self):
        if self.degenerate:
            return 0.0
        return self.r * np.tan(self.omega / 2.0)

    @property
    def max_height(self):
        if self.degenerate:
            return 0.0
        return self.r * np.sin(self.omega)

    def height(self, x):
        """Barrier graph; NaN outside the spanned x-range."""
        x = np.asarray(x, dtype=float)
        if self.degenerate:
            out = np.where(np.abs(x) <= 1.0, 0.0, np.nan)
            return out if out.ndim else float(out)
        cx = 1.0 - self.r
        arc = unit_disk_arc(self.omega)
        out = np.full(np.shape(x), np.nan)
        lo, hi = self.x_span
        seg = (np.abs(x) <= cx - self.arc_half_width)
        out = np.where(seg, self.max_height, out)
        for side in (-1.0, 1.0):
            xloc = x - side * cx
            on = (np.abs(xloc) <= self.arc_half_width) & (x >= lo) & (x <= hi)
            out = np.where(on, self.r * arc.height(xloc / self.r), out)
        return out if out.ndim else float(out)


def barrier_at(t, r):
    """Composite barrier at time t < 0 in the tangent circles of radius r."""
    if not t < 0.0:
        raise ConfigError(f"barrier time must be negative, got {t}")
    omega = omega_of_time(t / (r * r))
    if omega == 0.0:
        return BarrierCurve(t=float(t), r=r, omega=0.0, degenerate=True)
    return BarrierCurve(t=float(t), r=r, omega=omega, degenerate=False)


def tangency_time(rho, r):
    """Time at which the barrier apexes touch the line y = rho from above."""
    if not 0.0 < rho < r:
        raise RhoTooLarge(
            f"tangency needs 0 < rho < r, got rho = {rho}, r = {r}")
    omega = 2.0 * np.arctan(rho / r)
    return float(0.5 * r * r * np.log(np.sin(omega)))


# ---------------------------------------------------------------------------
# supersolution check


def supersolution_residual(r, t_samples, x_fracs):
    """Minimum of (normal speed - curvature) over the sampled barrier arcs.

    Nonnegative up to finite-difference error: the arcs move toward their
    centers of curvature at least as fast as the flow would.  Speeds are
    measured by vertical displacement of the graph over _SPEED_DT,
    projected on the normal.  x_fracs places the samples on each arc's
    span, as fractions of its half-width.
    """
    x_fracs = np.asarray(x_fracs, dtype=float)
    worst = np.inf
    for t in np.atleast_1d(np.asarray(t_samples, dtype=float)):
        w0 = omega_of_time(t / (r * r))
        w1 = omega_of_time((t + _SPEED_DT) / (r * r))
        if w0 == 0.0 or w1 >= np.pi / 2:
            raise ConfigError(f"barrier time {t} outside the usable window")
        a0, a1 = UnitDiskArc(w0), UnitDiskArc(w1)
        # the span shrinks as omega grows; stay inside both graphs
        xs = x_fracs * np.cos(max(w0, w1)) * (1.0 - 1e-12)
        v = (a1.height(xs) - a0.height(xs)) / (_SPEED_DT / (r * r))
        speed = v / np.sqrt(1.0 + a0.slope(xs) ** 2)
        # unit-disk residual scales by 1/r
        res = (speed - a0.curvature) / r
        worst = min(worst, float(np.min(res)))
    return worst


# ---------------------------------------------------------------------------
# vertical comparison


def below_barrier(curve, bar):
    """Vertical comparison of curve nodes against the barrier graph.

    Only nodes over the barrier's x-range take part.  Returns (flag,
    margin): flag is True when every shared node sits weakly below, and
    margin is the smallest vertical gap (+inf when no node is shared).
    """
    curve = np.asarray(curve, dtype=float)
    lo, hi = bar.x_span
    m = (curve[:, 0] >= lo) & (curve[:, 0] <= hi)
    if not np.any(m):
        return True, np.inf
    gaps = bar.height(curve[m, 0]) - curve[m, 1]
    margin = float(np.min(gaps))
    return bool(margin >= -_BELOW_TOL), margin
