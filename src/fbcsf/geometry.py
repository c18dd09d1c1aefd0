"""Strictly convex planar domains in the turning-angle parametrization.

A convex domain is stored through the radius of curvature of its
boundary, rho(omega) = 1/kappa(omega), as a truncated Fourier series in
the tangent turning angle omega.  The boundary position

    Phi(omega) = Phi(omega_a) + int rho(u) (cos u, sin u) du

is then itself a closed-form trigonometric series (each product
rho(u) cos u, rho(u) sin u is a trig polynomial), so point evaluation is
exact up to roundoff and the closure constraint is structural: the curve
closes iff the first harmonics of rho vanish.

Conventions: tangent tau(omega) = (cos omega, sin omega), outward normal
nu(omega) = (sin omega, -cos omega).  The unit disk is
Phi(omega) = (sin omega, -cos omega), so omega = pi/2 is the rightmost
point and the upper boundary is always the arc omega in [pi/2, 3pi/2]
(x strictly decreasing there for any strictly convex domain).

Evaluation takes three paths.  A scan that reads only signs or brackets
from a full period of samples (the convexity check, the diameter search,
the extremes of rho) synthesizes the samples by one inverse real FFT
(``_sample_series``).  A single boundary point sums the direct series at
one angle as two Python floats (``ConvexDomain.point_xy``).  Arrays of
angles, and so every value that feeds an output (points, the upper arc,
the wall tables), sum the direct series in blocks (``_synthesize``): at
most _SERIES_BLOCK angle-harmonic products at a time, each block written
into one preallocated output, so the working memory stays near 1 MB
whatever the angle count (the angles x harmonics matrix of the upper arc
of ellipse(3,1) alone is 7 MB).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BracketFailure, ConfigError, NonClosing, NonConvex
from .solve import safe_brentq

_CLOSURE_TOL = 1e-10
_DEGENERATE_TOL = 1e-10
_FFT_SAMPLES = 4096    # from_radius_function: samples of rho(omega),
_FFT_TOL = 1e-15       # and the relative size of a dropped coefficient
_CONTAINS_DIRS = 720   # contains: support directions and slack
_CONTAINS_TOL = 1e-9
_NSCAN = 2048          # find_diameters: residual samples over [0, pi)
_UPPER_ARC_SAMPLES = 8193  # upper_arc: turning angles on [pi/2, 3pi/2]
_UPPER_ARC_OMEGA = np.linspace(np.pi / 2, 3 * np.pi / 2, _UPPER_ARC_SAMPLES)
_UPPER_ARC_OMEGA.flags.writeable = False  # the one grid of every arc
_SERIES_BLOCK = 2 ** 16    # _synthesize: angle-harmonic products per block,
_SERIES_ROWS = 16          # in whole groups of this many angles


def _synthesize(omega, m, series):
    """sum_k c[k] cos(m[k] w) + s[k] sin(m[k] w) for each pair (c, s) of
    series, at every angle w of omega: shape omega.shape + (len(series),).

    The angles go in blocks of at most _SERIES_BLOCK angle-harmonic
    products, each one the angles x harmonics matrices of its angles and a
    matrix-vector product per coefficient vector, written into the one
    output.  An omega of at most _SERIES_BLOCK products is one block as
    given, so its bytes are those of one call on it.  Across blocks, a
    block holds whole groups of _SERIES_ROWS angles, so a matrix-vector
    kernel that sums its rows in groups (four in OpenBLAS's Haswell dgemv)
    meets the groups of one call, and a single-threaded product gives one
    call's bytes; a product that BLAS splits across threads may round a
    cancelling entry's last bit differently.
    """
    om = np.asarray(omega, dtype=float)
    out = np.empty(om.shape + (len(series),))
    if om.size * len(m) <= _SERIES_BLOCK:
        blocks = [(om, out)]
    else:
        rows = max(1, _SERIES_BLOCK // len(m) // _SERIES_ROWS * _SERIES_ROWS)
        flat, dst = om.reshape(-1), out.reshape(-1, len(series))
        blocks = ((flat[i:i + rows], dst[i:i + rows])
                  for i in range(0, len(flat), rows))
    for w, block_out in blocks:
        c = np.multiply.outer(w, m)
        s = np.sin(c)
        # the cosine overwrites the angles: one block matrix fewer alive
        np.cos(c, out=c)
        for j, (cos_c, sin_c) in enumerate(series):
            block_out[..., j] = c @ cos_c + s @ sin_c
        # freed before the next block's angles are formed
        del c, s
    return out


def _eval_series(cos_c, sin_c, omega):
    """Evaluate sum_k cos_c[k] cos(k w) + sin_c[k] sin(k w), vectorized in w."""
    series = [(np.asarray(cos_c), np.asarray(sin_c))]
    return _synthesize(omega, np.arange(len(cos_c)), series)[..., 0]


def _sample_series(cos_c, sin_c, n):
    """sum_k cos_c[k] cos(k w) + sin_c[k] sin(k w) at w = 2 pi j / n,
    j = 0 ... n-1, by one inverse real FFT.  n must exceed twice the
    highest harmonic; sin_c[0] is not read."""
    spec = np.zeros(n // 2 + 1, dtype=complex)
    spec[:len(cos_c)] = 0.5 * (np.asarray(cos_c) - 1j * np.asarray(sin_c))
    spec[0] = cos_c[0]
    return np.fft.irfft(spec, n, norm="forward")


def _grid_roots(f, grid, vals):
    """Roots of f from its samples vals = f(grid[:-1]) on a periodic grid
    whose last point grid[-1] closes the period, in grid order.

    A zero sample is a root; a sign change between neighbours is refined
    by Brent on f.  f evaluates one angle at a time, which can differ
    from the samples in the last bits, so a root within rounding of a grid
    point can lose its sign change: the end with the smaller sample is
    then the root.
    """
    nxt = np.append(vals[1:], vals[0])
    roots = []
    for i in np.flatnonzero((vals == 0.0) | (vals * nxt < 0.0)):
        if vals[i] == 0.0:
            roots.append(grid[i])
            continue
        try:
            roots.append(safe_brentq(f, grid[i], grid[i + 1]))
        except BracketFailure:
            roots.append(grid[i] if abs(vals[i]) <= abs(nxt[i])
                         else grid[i + 1])
    return roots


def _rotate_coeffs(a, b, beta):
    # rho'(w) = rho(w - beta): rotates the curve so tangent angles shift by +beta
    k = np.arange(len(a))
    c, s = np.cos(k * beta), np.sin(k * beta)
    return a * c - b * s, a * s + b * c


def _primitives(a, b):
    """Closed-form primitives of rho(u)cos(u) and rho(u)sin(u): the cos
    and sin coefficients (px_c, px_s, py_c, py_s) of the zero-mean
    position series.  a[1], b[1] and b[0] are not read."""
    K = len(a)
    px_c = np.zeros(K + 1)
    px_s = np.zeros(K + 1)
    py_c = np.zeros(K + 1)
    py_s = np.zeros(K + 1)
    px_s[1] += a[0]
    py_c[1] -= a[0]
    # harmonic k of rho feeds harmonics k - 1 and k + 1; entry m takes its
    # term from k = m - 1 before the one from k = m + 1, as a loop over k
    # would add them, so every entry (signed zeros too) is that loop's
    k = np.arange(2, K)
    a_up, a_down = a[2:K] / (2 * (k + 1)), a[2:K] / (2 * (k - 1))
    b_up, b_down = b[2:K] / (2 * (k + 1)), b[2:K] / (2 * (k - 1))
    up, down = slice(3, K + 1), slice(1, K - 1)
    px_s[up] += a_up
    px_s[down] += a_down
    px_c[up] -= b_up
    px_c[down] -= b_down
    py_c[up] -= a_up
    py_c[down] += a_down
    py_s[up] -= b_up
    py_s[down] += b_down
    return px_c, px_s, py_c, py_s


def _point_at(prims, m, om, center):
    """Boundary point of one turning angle om as two floats (x, y), from
    the primitives, the float harmonic numbers m = arange(len(px_c)) and
    the center.  ndarray.dot is @'s dot kernel on 1-D operands, with less
    call overhead."""
    px_c, px_s, py_c, py_s = prims
    ang = om * m
    s, c = np.sin(ang), np.cos(ang)
    return (float(c.dot(px_c) + s.dot(px_s) + center[0]),
            float(c.dot(py_c) + s.dot(py_s) + center[1]))


@dataclass
class Diameter:
    """A double normal: a chord orthogonal to the boundary at both ends."""

    omega_plus: float
    length: float
    kind: str  # 'max' | 'min' | 'saddle' | 'degenerate'
    degenerate: bool


@dataclass
class NormalizedDomain:
    """Domain after the similarity that puts a chosen diameter on [-1,1]x{0}."""

    domain: "ConvexDomain"
    kappa1: float  # curvature at +e1 (turning angle pi/2)
    kappa2: float  # curvature at -e1 (turning angle 3pi/2)


class ConvexDomain:
    """Strictly convex domain built from Fourier coefficients of rho(omega).

    Parameters
    ----------
    cos_coeffs, sin_coeffs : arrays indexed by harmonic number, so
        rho(w) = sum_k cos_coeffs[k] cos(k w) + sin_coeffs[k] sin(k w).
        First harmonics must vanish (closure); sin_coeffs[0] is unused.
    center : translation added to the zero-mean position series.

    The extremes of rho, the upper boundary sampled on the turning angles
    of _UPPER_ARC_OMEGA, one grid shared by every domain (``upper_arc``,
    its abscissas stored once, increasing) and ``is_normalized`` are
    per-domain values: each is computed on first use and kept for the
    domain's life.
    """

    def __init__(self, cos_coeffs, sin_coeffs, center=(0.0, 0.0)):
        a = np.atleast_1d(np.asarray(cos_coeffs, dtype=float)).copy()
        b = np.atleast_1d(np.asarray(sin_coeffs, dtype=float)).copy()
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ConfigError("non-finite Fourier coefficient")
        n = max(len(a), len(b), 2)
        a = np.pad(a, (0, n - len(a)))
        b = np.pad(b, (0, n - len(b)))
        b[0] = 0.0

        # the closure residual is the gap |Phi(2pi) - Phi(0)| = pi * |(a1, b1)|
        residual = np.pi * float(np.hypot(a[1], b[1]))
        scale = max(1.0, abs(a[0]))
        if residual > _CLOSURE_TOL * scale:
            raise NonClosing(residual)
        a[1] = 0.0
        b[1] = 0.0

        self.a = a
        self.b = b
        self.center = np.asarray(center, dtype=float)
        self._check_convex()
        self._prims = _primitives(a, b)
        # float, so that om * m casts no integers (its products are exact)
        self._m = np.arange(len(self._prims[0]), dtype=float)

    # -- construction helpers -------------------------------------------------

    def _check_convex(self):
        K = len(self.a) - 1
        vals = _sample_series(self.a, self.b, max(2048, 16 * K))
        if np.min(vals) <= 0.0:
            raise NonConvex(
                f"radius of curvature reaches {np.min(vals):.3e} <= 0"
            )

    # -- pointwise geometry ---------------------------------------------------

    def rho(self, omega):
        return _eval_series(self.a, self.b, omega)

    def drho(self, omega):
        k = np.arange(len(self.a))
        return _eval_series(k * self.b, -k * self.a, omega)

    def curvature(self, omega):
        return 1.0 / self.rho(omega)

    def point_xy(self, omega):
        """The boundary point of one turning angle as two floats (x, y):
        the array path's bits, without its outer product and arrays."""
        return _point_at(self._prims, self._m, omega, self.center)

    def point(self, omega):
        om = np.asarray(omega, dtype=float)
        if om.ndim == 0:
            return np.array(self.point_xy(float(om)))
        out = _synthesize(om, self._m, (self._prims[:2], self._prims[2:]))
        out += self.center
        return out

    @cached_property
    def upper_arc(self):
        """(omega, x, y) of the upper boundary on the turning angles
        _UPPER_ARC_OMEGA, computed once per domain.

        The three arrays are read-only and shared by every caller; omega is
        the one module grid, and x, decreasing along the arc, is a reversed
        view of the abscissas stored increasing, so x[::-1] is those.
        """
        pts = self.point(_UPPER_ARC_OMEGA)
        x_increasing, y = pts[::-1, 0].copy(), pts[:, 1].copy()
        x_increasing.flags.writeable = y.flags.writeable = False
        return _UPPER_ARC_OMEGA, x_increasing[::-1], y

    def tangent(self, omega):
        om = np.asarray(omega, dtype=float)
        return np.stack([np.cos(om), np.sin(om)], axis=-1)

    def dpoint(self, omega):
        """d Phi / d omega = rho(omega) * tangent(omega)."""
        om = np.asarray(omega, dtype=float)
        return self.rho(om)[..., None] * self.tangent(om)

    # -- global quantities ----------------------------------------------------

    @property
    def perimeter(self):
        return 2.0 * np.pi * self.a[0]

    @property
    def area(self):
        """(1/2) int h rho, h the support function (h + h'' = rho): pi a0^2
        + (pi/2) sum_{k>=2} (a_k^2 + b_k^2) / (1 - k^2)."""
        a, b, k = self.a[2:], self.b[2:], np.arange(2.0, len(self.a))
        return float(np.pi * self.a[0] ** 2
                     + 0.5 * np.pi * np.sum((a * a + b * b) / (1.0 - k * k)))

    @cached_property
    def _rho_extremes(self):
        a, b = self.a, self.b
        if max(np.max(np.abs(a[1:]), initial=0.0),
               np.max(np.abs(b[1:]), initial=0.0)) < 1e-14 * a[0]:
            return (a[0], a[0])
        K = len(a) - 1
        n = max(4096, 32 * K)
        k = np.arange(len(a))
        dv = _sample_series(k * b, -k * a, n)
        cand = _grid_roots(lambda w: float(self.drho(w)),
                           np.linspace(0.0, 2 * np.pi, n + 1), dv)
        vals = self.rho(np.array(cand))
        return (float(np.min(vals)), float(np.max(vals)))

    @property
    def kappa_min(self):
        return 1.0 / self._rho_extremes[1]

    @property
    def kappa_max(self):
        return 1.0 / self._rho_extremes[0]

    def support(self, theta):
        """Support function h(theta) = <Phi(theta + pi/2), (cos theta, sin theta)>."""
        th = np.asarray(theta, dtype=float)
        p = self.point(th + np.pi / 2)
        return p[..., 0] * np.cos(th) + p[..., 1] * np.sin(th)

    def contains(self, pts):
        """Support-function inclusion test (conservative, vectorized)."""
        th = np.linspace(0.0, 2 * np.pi, _CONTAINS_DIRS, endpoint=False)
        h = self.support(th)
        proj = np.asarray(pts) @ np.stack([np.cos(th), np.sin(th)])
        return np.all(proj <= h + _CONTAINS_TOL, axis=-1)

    # -- diameters and normalization -------------------------------------------

    def double_normal_residual(self, omega):
        """g(w) = <Phi(w) - Phi(w+pi), tau(w)>; zero exactly at double normals."""
        om = np.asarray(omega, dtype=float)
        d = self.point(om) - self.point(om + np.pi)
        t = self.tangent(om)
        return np.sum(d * t, axis=-1)

    def reflect_x(self):
        """Mirror about the x-axis: rho'(w) = rho(-w)."""
        return ConvexDomain(self.a, -self.b,
                            center=self.center * np.array([1.0, -1.0]))

    @cached_property
    def is_normalized(self):
        """Whether the turning angles pi/2 and 3pi/2 sit at (1, 0) and
        (-1, 0) to 1e-10; computed once per domain."""
        p = self.point(np.array([np.pi / 2, 3 * np.pi / 2]))
        return (np.linalg.norm(p[0] - [1.0, 0.0]) < 1e-10
                and np.linalg.norm(p[1] + [1.0, 0.0]) < 1e-10)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def disk(cls, radius):
        if radius <= 0:
            raise ConfigError("disk radius must be positive")
        return cls([radius], [0.0])

    @classmethod
    def from_radius_function(cls, fn):
        """Build from a callable rho(omega) by FFT (trigonometric interpolation)."""
        om = np.linspace(0.0, 2 * np.pi, _FFT_SAMPLES, endpoint=False)
        vals = np.asarray(fn(om), dtype=float)
        c = np.fft.rfft(vals) / _FFT_SAMPLES
        a = 2.0 * c.real
        a[0] = c[0].real
        b = -2.0 * c.imag
        keep = np.nonzero(
            np.abs(a) + np.abs(b) > _FFT_TOL * max(1.0, abs(a[0])))[0]
        K = int(keep[-1]) if len(keep) else 0
        return cls(a[: K + 1], b[: K + 1])

    @classmethod
    def ellipse(cls, a, b):
        """Ellipse with semi-axes a (horizontal) and b (vertical).

        In the turning angle, rho(w) = a^2 b^2 / (a^2 sin^2 w + b^2 cos^2 w)^{3/2}
        (so the rightmost point w = pi/2 has curvature a/b^2).  The Fourier
        coefficients decay geometrically; FFT truncation at ~1e-15 keeps the
        perimeter and curvatures exact to roundoff.
        """
        if not (0 < a < np.inf and 0 < b < np.inf):
            raise ConfigError("ellipse semi-axes must be positive and finite")

        def rho(om):
            return (a * b) ** 2 / (a ** 2 * np.sin(om) ** 2
                                   + b ** 2 * np.cos(om) ** 2) ** 1.5

        return cls.from_radius_function(rho)


# -- module-level operations ----------------------------------------------


def find_diameters(domain):
    """All isolated double normals, as roots of the orthogonality residual.

    The residual g(w) = <Phi(w) - Phi(w+pi), tau(w)> is pi-periodic and
    equals the derivative of the width in the normal direction, so its
    roots are exactly the double normals.  Returns diameters sorted by
    length descending.  A residual vanishing identically on the scan grid
    (disk, constant-width domains) yields a single representative chord
    flagged degenerate=True.
    """
    # Phi on 2 _NSCAN angles over the full period, so Phi(w + pi) is the
    # second half; a series with too many harmonics for that grid is
    # synthesized on a multiple of it and read at every m-th sample
    px_c, px_s, py_c, py_s = domain._prims
    m = (len(px_c) - 1) // _NSCAN + 1
    x = _sample_series(px_c, px_s, 2 * m * _NSCAN)[::m]
    y = _sample_series(py_c, py_s, 2 * m * _NSCAN)[::m]
    grid = np.linspace(0.0, np.pi, _NSCAN + 1)
    om = grid[:-1]
    g = ((x[:_NSCAN] - x[_NSCAN:]) * np.cos(om)
         + (y[:_NSCAN] - y[_NSCAN:]) * np.sin(om))
    scale = max(1.0, domain.perimeter)
    if np.max(np.abs(g)) < _DEGENERATE_TOL * scale:
        d = _make_diameter(domain, np.pi / 2, degenerate=True)
        return [d]

    roots = _grid_roots(lambda w: float(domain.double_normal_residual(w)),
                        grid, g)
    # merge near-coincident roots (mod pi)
    roots = sorted(r % np.pi for r in roots)
    merged = []
    for r in roots:
        if merged and abs(r - merged[-1]) < 1e-6:
            continue
        merged.append(r)
    if len(merged) > 1 and (merged[0] + np.pi) - merged[-1] < 1e-6:
        merged.pop()

    out = [_make_diameter(domain, r, degenerate=False) for r in merged]
    out.sort(key=lambda d: -d.length)
    return out


def _make_diameter(domain, omega, degenerate):
    p = domain.point(omega)
    q = domain.point(omega + np.pi)
    length = float(np.linalg.norm(p - q))
    if degenerate:
        kind = "degenerate"
    else:
        d = 1e-4
        w0 = float(np.linalg.norm(domain.point(omega - d)
                                  - domain.point(omega - d + np.pi)))
        w1 = float(np.linalg.norm(domain.point(omega + d)
                                  - domain.point(omega + d + np.pi)))
        hi = max(w0, w1)
        lo = min(w0, w1)
        if length >= hi:
            kind = "max"
        elif length <= lo:
            kind = "min"
        else:
            kind = "saddle"
    return Diameter(omega_plus=float(omega % (2 * np.pi)), length=length,
                    kind=kind, degenerate=degenerate)


def normalize(domain, diameter):
    """Similarity transform placing a diameter's endpoints at (+-1, 0).

    The endpoint at turning angle diameter.omega_plus lands at +e1.
    """
    beta = np.pi / 2 - diameter.omega_plus
    a2, b2 = _rotate_coeffs(domain.a, domain.b, beta)
    # the diameter's ends on the rotated, zero-mean boundary; rotation
    # keeps the domain convex, so no domain is built for them
    prims = _primitives(a2, b2)
    m = np.arange(len(prims[0]), dtype=float)
    p = np.array(_point_at(prims, m, np.pi / 2, (0.0, 0.0)))
    q = np.array(_point_at(prims, m, 3 * np.pi / 2, (0.0, 0.0)))
    w = float(np.linalg.norm(p - q))
    s = 2.0 / w
    mid = 0.5 * (p + q)
    # rotating coefficients keeps the series zero-mean, so the rotated
    # center is R(beta) @ old_center
    cb, sb = np.cos(beta), np.sin(beta)
    R = np.array([[cb, -sb], [sb, cb]])
    rot_center = R @ domain.center
    out = ConvexDomain(a2 * s, b2 * s, center=s * (rot_center - mid))
    # out.point(w) = s * R(beta) @ domain.point(w - beta) - s * mid
    return NormalizedDomain(domain=out,
                            kappa1=float(out.curvature(np.pi / 2)),
                            kappa2=float(out.curvature(3 * np.pi / 2)))
