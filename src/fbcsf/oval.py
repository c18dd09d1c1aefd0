"""Angenent ovals fitted orthogonally into a normalized convex domain.

The oval family is the level set

    sin(lam y) = exp(lam^2 t) cosh(lam (x - xi)),   0 < y < pi/(2 lam),

whose lower branch is a convex smile between two tips at height
pi/(2 lam).  Requiring the oval to cross the upper boundary graph
y = phi(x) orthogonally at a chosen right contact x0 determines t and xi
in closed form (single_point_orthogonal) for every admissible scale lam,
leaving a one-parameter family.  Two scalar root solves, both with the
package's Brent solver safe_brentq, then pick the scale so the oval
crosses the boundary orthogonally at a second, left contact as well:

  * the first contact is pinned on the descending side of the boundary
    at height rho/2, where rho is the height cap;
  * with that contact frozen, the scale lam* whose shift is xi = -1 (the
    second crossing is then obtuse) is the root of a closed-form
    equation in lam;
  * the scale is then solved on [lam*, pi/(2 rho)] (acute, or detached
    from the far wall, at the top) for the orthogonal second crossing.

The second crossing is bracketed on the domain's upper arc, sampled once
per domain (ConvexDomain.upper_arc) and shared by every oval built on it.
Left of the first contact the gap d = phi - h between the boundary graph
and the oval's lower branch h is concave (phi is concave, h convex on its
support) and vanishes at the contact, so along the arc samples its signs
run non-negative, then negative.  The crossing lies just before the first
negative sample.  A build carries that sample from one trial scale to the
next and keeps it when two scalar gap reads confirm it; otherwise a
coarse-to-fine search finds it: every _COARSE_STRIDE-th sample, then the
samples before the first negative one.  Each build evaluates a boundary
point once per turning angle and each trial scale once.

As rho -> 0 the scale tends to lambda0, the unique root above both
endpoint curvatures of  lam^2 - lam (k1 + k2) coth(2 lam) + k1 k2 = 0,
which also rules the exponential decay rate lambda0^2 of the flow.  Its
solves read their objectives on floats (compute_limits solves sigma once),
and a steep chord's in a form without cancellation (_chord_residual).
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    ConfigError,
    InvalidScale,
    LambdaOutOfRange,
    NoRoot,
    RhoTooLarge,
)
from .solve import safe_brentq


# -- oval primitives --------------------------------------------------------


@dataclass
class OvalParams:
    """Scale, horizontal shift, and time slice of an Angenent oval."""

    lam: float
    xi: float
    t: float

    def __post_init__(self):
        # e^{lam^2 t}, in (0,1) for t < 0: a float set once (a
        # cached_property takes a lock on each new params' first read)
        self.height_factor = float(np.exp(self.lam ** 2 * self.t))

    @property
    def support_halfwidth(self):
        """Half-width of the oval: tips sit at xi -+ this."""
        return float(np.arccosh(1.0 / self.height_factor) / self.lam)

    def lower_height(self, x):
        """Height of the lower branch at x, the tips' height pi/(2 lam)
        beyond them; a Python float at a float x."""
        E = self.height_factor
        if isinstance(x, float):
            # the contact solves' scalar reads: the same ufuncs on a float,
            # each result a float (min keeps a NaN u, as np.minimum does)
            u = E * float(np.cosh(self.lam * (x - self.xi)))
            return float(np.arcsin(min(u, 1.0))) / self.lam
        u = E * np.cosh(self.lam * (np.asarray(x, dtype=float) - self.xi))
        return np.arcsin(np.minimum(u, 1.0)) / self.lam

    def lower_slope(self, x):
        E = self.height_factor
        v = self.lam * (np.asarray(x, dtype=float) - self.xi)
        u = np.minimum(E * np.cosh(v), 1.0)
        return E * np.sinh(v) / np.sqrt(np.maximum(1.0 - u * u, 1e-300))

    def normal_direction(self, x, y):
        """Unnormalized outward normal (tanh(lam(x-xi)), -cot(lam y))."""
        if isinstance(x, float) and isinstance(y, float):
            # one point: the same ufuncs on floats, without 0-d arrays
            return np.array((np.tanh(self.lam * (x - self.xi)),
                             -1.0 / np.tan(self.lam * y)))
        v = self.lam * (np.asarray(x, dtype=float) - self.xi)
        return np.stack(
            [np.tanh(v), -1.0 / np.tan(self.lam * np.asarray(y, dtype=float))],
            axis=-1,
        )


# -- limiting scales --------------------------------------------------------


@dataclass
class Limits:
    lambda0: float
    xi0: float
    sigma: float


def solve_sigma(kappa):
    """Unique positive root of s tanh s = kappa."""
    if not 0.0 < kappa < np.inf:  # NaN fails every comparison
        raise ConfigError(f"curvature must be finite and positive, got {kappa}")

    def f(s):
        return s * float(np.tanh(s)) - kappa

    # f(hi) > 0, as hi >= kappa + 2 >= 2 gives f(hi) >= 2 - hi (1 - tanh hi)
    # = 2 - 2 hi / (e^(2 hi) + 1) >= 2 - 4 / (e^4 + 1)
    hi = max(math.sqrt(kappa), kappa) + 2.0
    return float(safe_brentq(f, 1e-14, hi))


def lambda0_residual(lam, kappa1, kappa2):
    """N(lam) = lam^2 - lam (k1 + k2) coth(2 lam) + k1 k2, at a float lam or
    an array: lam * lam is numpy's lam ** 2, bit for bit."""
    return lam * lam - lam * (kappa1 + kappa2) / np.tanh(2.0 * lam) + kappa1 * kappa2


def _equal_curvatures(kappa1, kappa2):
    """Whether a chord's end curvatures agree to 1e-12 relative: N is then
    taken as the symmetric chord's (lam tanh lam - k)(lam - k tanh lam) /
    tanh(lam), k their mean."""
    return abs(kappa1 - kappa2) <= 1e-12 * max(kappa1, kappa2)


def _chord_residual(kappa1, kappa2):
    """N of an unequal chord as a function of lam alone, in the form its
    solves and scans read: lambda0_residual, unless that rounds
    N(max(k1, k2)) < 0 to a value >= 0.  On such a steep chord (lambda0 -
    max(k1, k2) below about 1e-14, max(k1, k2) above about 9.3) N is read
    as (lam - k1)(lam - k2) - 2 lam (k1 + k2) / (e^(4 lam) - 1), which does
    not cancel there."""
    if lambda0_residual(max(kappa1, kappa2), kappa1, kappa2) < 0.0:
        return lambda lam: lambda0_residual(lam, kappa1, kappa2)
    return lambda lam: ((lam - kappa1) * (lam - kappa2)
                        - 2.0 * lam * (kappa1 + kappa2) * np.exp(-4.0 * lam)
                        / -np.expm1(-4.0 * lam))


def _lambda0_sigma(kappa1, kappa2):
    """solve_lambda0's root, and the sigma of max(kappa1, kappa2) that
    brackets it on a chord of unequal curvatures (None on an equal one)."""
    if not (0.0 < kappa1 < np.inf and 0.0 < kappa2 < np.inf):
        raise ConfigError(
            f"curvatures must be finite and positive, got {kappa1}, {kappa2}")
    if _equal_curvatures(kappa1, kappa2):
        return solve_sigma(0.5 * (kappa1 + kappa2)), None
    kmax = max(kappa1, kappa2)
    sigma = solve_sigma(kmax)
    lo = kmax
    hi = sigma + max(1e-10, 1e-10 * sigma)
    n = _chord_residual(kappa1, kappa2)
    flo, fhi = n(lo), n(hi)
    if not flo <= 0.0 < fhi:
        raise NoRoot(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: N={flo:.3e}, {fhi:.3e}"
        )
    return float(safe_brentq(n, lo, hi)), sigma


def solve_lambda0(kappa1, kappa2):
    """The unique root of N above max(kappa1, kappa2).

    For equal curvatures (_equal_curvatures) the admissible factor of N is
    lam tanh lam = k, handled directly for exactness.  On a steep chord
    (_chord_residual) the root may round to max(kappa1, kappa2).
    """
    return _lambda0_sigma(kappa1, kappa2)[0]


def xi0(lambda0, kappa1):
    """Limiting shift: xi0 = 1 - arctanh(kappa1/lambda0)/lambda0.

    (arccosh(1/sqrt(1-u^2)) = arctanh(u) for u in (0,1), so this matches
    the arccosh form; arctanh is better conditioned near u = 0.)
    """
    if lambda0 <= kappa1:
        raise InvalidScale("scale must exceed the right endpoint curvature")
    return float(1.0 - np.arctanh(kappa1 / lambda0) / lambda0)


def compute_limits(kappa1, kappa2):
    """lambda0, xi0 and the sigma of max(kappa1, kappa2), sigma solved
    once.  On a steep chord whose lambda0 rounds to kappa1 (solve_lambda0)
    xi0 raises InvalidScale: it needs lambda0 - kappa1."""
    lam0, sigma = _lambda0_sigma(kappa1, kappa2)
    if sigma is None:
        sigma = solve_sigma(max(kappa1, kappa2))
    return Limits(lambda0=lam0, xi0=xi0(lam0, kappa1), sigma=sigma)


# -- single-point orthogonality ---------------------------------------------


def admissible_interval(phi0, dphi0):
    """Scales for which an oval can cross (x0, phi0) orthogonally:
    ( arctan(-1/phi'(x0)) / phi(x0),  pi / (2 phi(x0)) )."""
    return (float(np.arctan(-1.0 / dphi0) / phi0),
            float(np.pi / (2.0 * phi0)))


def single_point_orthogonal(phi0, dphi0, x0, lam):
    """Oval of scale lam through (x0, phi0) with its normal along the
    boundary normal, where phi0 = phi(x0) and dphi0 = phi'(x0) on the
    upper boundary graph y = phi(x).

    The time slice comes out as t = log(sin^2(lam phi0) - cos^2(lam phi0)/
    phi'(x0)^2)/(2 lam^2) and the shift as x0 - arccosh(sin(lam phi0)/
    e^{lam^2 t})/lam.
    """
    if phi0 <= 0 or dphi0 >= 0:
        raise ConfigError(
            "first contact must have phi(x0) > 0 and phi'(x0) < 0")
    ang = lam * phi0
    if not (0.0 < ang < np.pi / 2):
        raise LambdaOutOfRange("scale at or above pi/(2 phi(x0))")
    # numpy's ufuncs, each result a float (math.sqrt is exact, as np.sqrt)
    S, C = float(np.sin(ang)), float(np.cos(ang))
    E2 = S * S - (C / dphi0) ** 2
    if E2 <= 0.0:
        raise LambdaOutOfRange("scale at or below the arctan endpoint")
    t = float(np.log(E2)) / (2.0 * lam ** 2)
    xi = x0 - float(np.arccosh(max(S / math.sqrt(E2), 1.0))) / lam
    return OvalParams(lam=float(lam), xi=float(xi), t=float(t))


# -- the nested two-contact construction --------------------------------------


# upper-arc samples just past the first contact left out of the search
# for the second contact
_GUARD = 4
# upper-arc samples between two coarse reads of the second-contact search
_COARSE_STRIDE = 64
# cosh(a)^2 is finite below this argument (it overflows near 355)
_COSH_SQUARED_MAX_ARG = 350.0


@dataclass
class OrthogonalOval:
    """An oval crossing the boundary orthogonally at two points below y = rho."""

    params: OvalParams
    x0: float
    xhat: float
    residuals: tuple
    omega0: float                 # boundary turning angle at the right contact
    omega_hat: float              # boundary turning angle at the left contact
    p_first: np.ndarray
    p_second: np.ndarray

    @property
    def lam(self):
        return self.params.lam


def _alignment_residual(n_oval, tau_bd):
    """1 - |cos(angle between the oval normal and the boundary tangent)|."""
    n = np.asarray(n_oval, dtype=float)
    # np.linalg.norm of a float vector, without its argument checks
    n = n / np.sqrt(n.dot(n))
    return float(1.0 - abs(float(n.dot(tau_bd))))


def _gap_stop(xs_rev, xlim):
    """One past the last upper-arc sample at or right of x = xlim.

    xs decreases along the arc, so those samples are an index prefix;
    xs_rev is xs[::-1], a view, increasing, for the binary search.
    """
    return len(xs_rev) - int(np.searchsorted(xs_rev, xlim))


def _first_negative(gap, start, stop):
    """The first index of [start, stop) where the gap is negative, or None.

    gap(sl) evaluates the gap on a basic slice of indices, so each read is
    a view of the arc samples and builds no index array.  Its signs along
    the range must run non-negative, then negative (either run may be
    empty), so the gap is read at every _COARSE_STRIDE-th index, then at
    the indices after the last non-negative coarse read, up to the first
    negative one or the end of the range.  A build carries the index
    between trial scales and runs this scan only where two scalar reads
    do not confirm it (_carried_negative).
    """
    if stop <= start:
        return None
    # the coarse indices, as a range: the slice reads the same ones
    coarse = range(start, stop, _COARSE_STRIDE)
    neg = np.flatnonzero(gap(slice(start, stop, _COARSE_STRIDE)) < 0.0)
    if len(neg) and neg[0] == 0:
        return start
    k = int(neg[0]) if len(neg) else len(coarse)
    lo, hi = coarse[k - 1] + 1, coarse[k] if len(neg) else stop
    neg_fine = np.flatnonzero(gap(slice(lo, hi)) < 0.0)
    if len(neg_fine):
        return lo + int(neg_fine[0])
    return hi if len(neg) else None


def _carried_negative(gap, j, start, stop):
    """_first_negative(gap, start, stop), confirmed at a carried index j.

    gap also reads one int index.  Under _first_negative's sign order, an
    index with both neighbours' reads inside [start, stop), gap[j - 1] >= 0
    and gap[j] < 0 is the first negative one, so two scalar reads keep j;
    otherwise (j None or at an end of the range, either read failing, or
    a NaN) the coarse-to-fine scan runs.
    """
    if (j is not None and start < j < stop
            and gap(j - 1) >= 0.0 and gap(j) < 0.0):
        return j
    return _first_negative(gap, start, stop)


def construct_orthogonal_oval(ndom, rho):
    """Build the oval meeting the boundary orthogonally twice below y = rho.

    ndom is a NormalizedDomain, its diameter on [-1,1].  The first contact
    is pinned on the descending side of the upper boundary at height
    rho/2; each trial scale places the oval through that contact with the
    closed-form shift and time.  Two Brent solves (safe_brentq) then fix
    the scale:

      * the scale lam* of shift xi = -1, the root on [lam_min, pi/(2 rho)]
        of E^2 cosh^2(lam (x0 + 1)) - sin^2(lam phi0), where
        E^2 = sin^2(lam phi0) - cos^2(lam phi0)/phi'(x0)^2 and phi0 =
        phi(x0).  It has the sign of xi + 1, as has the equivalent
        phi'(x0)^2 tanh^2(lam (x0 + 1)) - cot^2(lam phi0), which must be
        negative at lam_min and positive at pi/(2 phi0);
      * the orthogonal scale, the root on [lam*, pi/(2 rho)] of the cosine
        between the oval and boundary normals at the second crossing
        (obtuse, negative, at lam*; acute or detached from the far wall,
        positive, at pi/(2 rho)).

    Each trial scale brackets its second crossing between two samples of
    dom.upper_arc, which is computed on the first call for a domain and
    reused by every later call on it, and refines it by Brent; a bracket
    that rounding leaves without a sign change is widened by one sample
    on each side, once.  The bracket is the first sample left of the first
    contact (past _GUARD samples, and inside the oval's support) where the
    gap d = y - h(x) between the arc and the oval's lower branch h is
    negative.  d is concave there and 0 at the first contact, so its signs
    run non-negative, then negative.  The bracket is carried from one trial
    scale to the next and kept when two scalar reads of d confirm it
    (_carried_negative); otherwise _first_negative finds that sample from
    every _COARSE_STRIDE-th one and at most _COARSE_STRIDE - 1 more, each
    run read on a slice of the samples.  Each turning angle's boundary
    point is read once per call, as a float pair (dom.point_xy; the build
    makes no dom.point call), and each scale's residual is evaluated once
    per call; the domain's normalization is a per-domain value, read once
    per domain.

    Raises ConfigError when rho is a bool, not a real number or NaN,
    RhoTooLarge when the line y = rho fails to cross the upper boundary
    twice, and BracketFailure when a sign condition of either solve fails
    or the orthogonal scale has no second crossing (no bracket is widened
    beyond that one sample).
    """
    dom = ndom.domain
    if not dom.is_normalized:
        raise ConfigError("domain must be normalized (diameter on [-1,1])")
    if (isinstance(rho, bool) or not isinstance(rho, numbers.Real)
            or np.isnan(rho)):
        raise ConfigError(f"rho must be a real number (not a bool), got "
                          f"{rho!r}")

    om_grid, xs, ys = dom.upper_arc
    itop = int(np.argmax(ys))
    ymax = float(ys[itop])
    if not (0.0 < rho < ymax):
        raise RhoTooLarge(
            f"line y = {rho:.6g} misses the upper boundary (max height {ymax:.6g})")

    # each boundary point once per angle in this build, as a float pair
    point = functools.cache(dom.point_xy)

    lam_hat = np.pi / (2.0 * rho)

    # first contact pinned at half the cap height on the descending side;
    # the scale solves below then drive the second contact to orthogonality
    om0 = safe_brentq(lambda w: point(w)[1] - 0.5 * rho,
                      np.pi / 2, om_grid[itop])
    x0, phi0 = point(om0)
    dphi0 = float(np.tan(om0))
    lam_min, lam_max_adm = admissible_interval(phi0, dphi0)
    if not lam_min < lam_hat:
        raise RhoTooLarge(
            f"no scale bracket at rho = {rho:.6g}: pi/(2 rho) = {lam_hat:.6g}"
            f" does not exceed the admissible lower endpoint {lam_min:.6g}")

    # sign claim for the xi = -1 equation, evaluated at both endpoints
    claim_f_lo = dphi0 ** 2 * (np.tanh(lam_min * (x0 + 1.0)) ** 2 - 1.0)
    claim_f_hi = dphi0 ** 2 * np.tanh(lam_max_adm * (x0 + 1.0)) ** 2
    if not (claim_f_lo < 0.0 < claim_f_hi):
        raise BracketFailure("endpoint signs of the xi = -1 equation failed")

    def shift_residual(lam):
        """Finite form of xi(lam) = -1, with the sign of xi + 1.  Where
        cosh^2 would overflow it is divided out: cosh(a) = e^a / 2 to
        rounding there."""
        S, C = float(np.sin(lam * phi0)), float(np.cos(lam * phi0))
        E2 = S * S - (C / dphi0) ** 2
        a = lam * (x0 + 1.0)
        if a < _COSH_SQUARED_MAX_ARG:
            return E2 * float(np.cosh(a)) ** 2 - S * S
        return E2 - (2.0 * S * float(np.exp(-a))) ** 2

    lam_star = safe_brentq(shift_residual, lam_min, lam_hat)

    # the second contact is searched from _GUARD samples past the first
    start = int(np.searchsorted(om_grid, om0, "right")) + _GUARD
    xs_rev = xs[::-1]
    # the last trial scale's bracket, where the next one's is looked for
    carried = None

    def second_contact(lam):
        """(omega_hat, params) of the second boundary crossing, or None."""
        nonlocal carried
        par = single_point_orthogonal(phi0, dphi0, x0, lam)
        stop = _gap_stop(xs_rev, par.xi - par.support_halfwidth)
        j = _carried_negative(
            lambda i: ys[i] - par.lower_height(xs[i]), carried, start, stop)
        if j is None:
            return None
        carried = j

        def dres(om):
            x, y = point(om)
            return float(y - par.lower_height(x))

        try:
            om_hat = safe_brentq(dres, om_grid[j - 1], om_grid[j])
        except BracketFailure:
            # the samples and dom.point_xy differ in the last
            # bits, so a crossing within rounding of a sample can sit just
            # outside [om_a, om_b]: retry once, one sample wider each side
            om_hat = safe_brentq(dres, om_grid[j - 2],
                                 om_grid[min(j + 1, len(om_grid) - 1)])
        return float(om_hat), par

    @functools.cache
    def angle_residual(lam):
        hit = second_contact(lam)
        if hit is None:
            return 1.0, None  # no crossing: treat as the acute side
        om_hat, par = hit
        n_ov = par.normal_direction(*point(om_hat))
        n_ov = n_ov / np.sqrt(n_ov.dot(n_ov))
        n_bd = np.array([np.sin(om_hat), -np.cos(om_hat)])
        return float(n_ov.dot(n_bd)), hit

    f_lo, _ = angle_residual(lam_star)
    if not f_lo < 0.0:
        raise BracketFailure(
            f"obtuse-side residual not negative at xi=-1 scale: {f_lo:.3e}")

    # solved for the offset above lam*, which Brent's relative tolerance
    # resolves to about one ulp of lam; the shift needs that where the root
    # sits just above lam_min, as d xi / d lam ~ 1 / (2 lam (lam - lam_min))
    # reaches 1e4 there
    du = safe_brentq(lambda u: angle_residual(lam_star + u)[0],
                     0.0, lam_hat - lam_star)
    lam = lam_star + du
    _, hit = angle_residual(lam)
    if hit is None:
        raise BracketFailure(
            f"no second crossing at the orthogonal scale {lam:.6g}")

    om_hat, par = hit
    xhat, yhat = point(om_hat)
    tau0 = np.array([np.cos(om0), np.sin(om0)])
    tau_hat = np.array([np.cos(om_hat), np.sin(om_hat)])
    r1 = _alignment_residual(par.normal_direction(x0, phi0), tau0)
    r2 = _alignment_residual(par.normal_direction(xhat, yhat), tau_hat)

    return OrthogonalOval(
        params=par,
        x0=x0,
        xhat=xhat,
        residuals=(r1, r2),
        omega0=float(om0),
        omega_hat=float(om_hat),
        p_first=np.array((x0, phi0)),
        p_second=np.array((xhat, yhat)),
    )


def sample_initial_curve(oval, n):
    """n nodes on the oval arc between its contacts, uniform in arc length.

    Nodes run left to right; the two end nodes are placed exactly at the
    boundary contact points.  n must be an integer (not a bool) of at
    least 16.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 16:
        raise ConfigError(f"need an integer of at least 16 nodes, got {n!r}")
    par = oval.params
    m = max(4001, 16 * n + 1)
    xs = np.linspace(oval.xhat, oval.x0, m)
    sp = par.lower_slope(xs)
    dx = np.diff(xs)
    seg = np.hypot(dx, dx * 0.5 * (sp[1:] + sp[:-1]))
    # trapezoid of sqrt(1+y'^2) is equivalent at this resolution but the
    # midpoint-slope form avoids endpoint slope spikes
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, cum[-1], n)
    xq = np.interp(targets, cum, xs)
    pts = np.stack([xq, par.lower_height(xq)], axis=-1)
    pts[0] = oval.p_second
    pts[-1] = oval.p_first
    return pts
