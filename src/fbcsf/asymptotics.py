"""Late-time analysis of free-boundary flow trajectories.

Three layers: exponential-estimate verification (decay-rate fits of
turning angle and curvature monitors against the barrier rate), the
rescaled height profile and its cosh/sinh fit, and the Robin eigenvalue
problem on [-1, 1] whose negative spectrum carries the decay scale.
Each Robin eigenfunction is a even + b odd in one basis, cosh/sinh or
cos/sin by the sign of mu (_basis), with (a, b) the null vector of the
larger Robin row, found without a division, so that the odd modes of a
symmetric chord are as finite as the even ones, and a mode of a symmetric
chord computes its one basis term.  The secular functions are read on
arrays in the root scans and on floats in the Brent solves, with the same
numpy ufuncs.  A scan reads its samples chunk by chunk (_roots), each
chunk only once the roots before it are consumed, so the positive
spectrum's scan stops at the chunk of its last reported root.

The routines are pure functions over recorded trajectories and keep
nothing between calls; all but ancient_sweep read runs and step none.
They read a run as arrays: the monitors, and the stored states of the
fit window as x, y and curvature rows, one per state, in the blocks of
flow._state_rows, so that each per-node quantity is one elementwise pass
and each per-state extreme one reduction along the rows.  The stored
states are read in time only through Trajectory.height_reader, many times
in one call: a reader reads each stored state once at most however often
it is called, so the shift search of uniqueness_evidence reads each state
once.

Every fit reads one window, and _window alone decides it: the offset
times from max(t0, WINDOW_FLOOR) to WINDOW_CEIL, t0 the run's first
stored time, and the stored states inside them.

uniqueness_evidence is the one comparison of two runs: one window of
its own, one set of sample times, and one golden-section search of the
time shift on a small bracket.  Its window ends at -flow._ANALYSIS_END,
the latest offset time any analysis here reads: run_to_extinction enters
its collapse phase only once it estimates less than that much time left,
so every state these analyses read was stepped at the uniform
tolerance.  ancient_sweep runs the flow at each rho of a sweep and
reports it for every consecutive pair.  The mirror of a run across the
diameter (reflect_trajectory) is a view that mirrors a stored state only
when the state is read, for height reads only.

A run's samples are its steps, which the error controller spaces
unevenly in time.  So every least-squares fit over window samples (the
decay fits, the support-ratio slope, the pinch fits and the profile's
two extrapolations) weights each sample by its trapezoid share of the
time the samples span (_time_weights): the fit then reads the solution
over the window, not the step sequence.
"""

import math

import numpy as np
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import islice

from .errors import (AnalysisError, ConfigError, NonPositiveAmplitude,
                     UnknownRecord, WindowTooShort)
from .flow import (_ANALYSIS_END, _state_rows, CurveState,
                   old_but_not_ancient, wall_for)
from .oval import (_check_positive, _chord_residual, _equal_curvatures,
                   solve_lambda0)
from .solve import safe_brentq


# ---------------------------------------------------------------------------
# fit windows

WINDOW_FLOOR = -6.0   # never fit below this offset time
WINDOW_CEIL = -1.0    # never fit above this offset time
_MIN_SAMPLES = 8      # a fit needs this many samples in its window
_LOG_MIN = 1e-300     # monitors are clipped to this before their logarithm
_EIGEN_GRID = np.linspace(-1.0, 1.0, 1001)  # eigenfunctions: sup norm, sign
_EIGEN_GRID.flags.writeable = False
_POSITIVE_EIGEN = 3   # positive Robin eigenvalues that robin_eigen reports
_SCAN_CHUNK = 200     # and the intervals its positive scan reads at once
_INCREMENT_TIMES = 10   # rescaled_increments: sample times in the window
_UNIQUENESS_TIMES = 16  # uniqueness_evidence: sample times,
_TAU_SPAN = 1e-3        # the shift bracket [-_TAU_SPAN, _TAU_SPAN]
_TAU_TOL = 1e-5         # and the bracket width that stops its search


def _window(traj, min_samples):
    """The fit window's offset-time bounds and the slice of the stored
    states inside them, found by two searches of the sorted monitors["t"].
    WindowTooShort when the bounds cross or the slice holds fewer than
    min_samples states."""
    times = traj.monitors["t"]
    lo, hi = max(float(times[0]), WINDOW_FLOOR), WINDOW_CEIL
    win = slice(int(np.searchsorted(times, lo, side="left")),
                int(np.searchsorted(times, hi, side="right")))
    if lo >= hi or win.stop - win.start < min_samples:
        raise WindowTooShort(
            f"window [{lo:.3g}, {hi:.3g}] holds {win.stop - win.start} "
            f"stored states; {min_samples} needed")
    return (lo, hi), win


def _time_weights(t):
    """np.polyfit weights of samples at the sorted times t: the square root
    of each sample's trapezoid share of the time they span, so that the
    weighted sum of squared residuals is the trapezoid rule's integral of
    the squared residual over that time, divided by its length."""
    gaps = np.diff(t)
    share = np.empty(len(t))
    share[0], share[-1] = gaps[0], gaps[-1]
    np.add(gaps[:-1], gaps[1:], out=share[1:-1])
    return np.sqrt(share / (2.0 * (t[-1] - t[0])))


# ---------------------------------------------------------------------------
# exponential estimates


@dataclass
class EstimateRecord:
    name: str
    fitted_rate: float
    required_rate: float
    passed: bool
    window: tuple
    n_samples: int
    extras: dict


@dataclass
class EstimateReport:
    records: list
    r: float
    lambda0: float

    def record(self, name):
        for rec in self.records:
            if rec.name == name:
                return rec
        raise UnknownRecord(name)


def _fit_decay(t, q, required, win):
    """Log-linear fit of q against t over the window slice win, weighted by
    time (_time_weights).

    Returns (rate, passed, n): passed requires the fitted rate to clear
    required*0.95 and the bound q <= constant*exp(rate*t), with the least
    such constant, to hold on every sample at or before the window's late
    edge.
    """
    logs = np.log(np.maximum(q[win], _LOG_MIN))
    rate, logc = np.polyfit(t[win], logs, 1, w=_time_weights(t[win]))
    upto = slice(win.stop)
    resid = np.log(np.maximum(q[upto], _LOG_MIN)) - (rate * t[upto] + logc)
    const = float(np.exp(logc + np.max(resid)))
    pointwise = bool(np.all(
        q[upto] <= const * np.exp(rate * t[upto]) * (1.0 + 1e-12)))
    passed = bool(np.isfinite(rate)) and rate >= required * 0.95 and pointwise
    return float(rate), passed, win.stop - win.start


def _block_ratios(block, xy, kap):
    """Per-state support, curvature-gradient and max/min curvature ratios
    of one block of flow._state_rows.

    Every node value is the per-state arithmetic done elementwise over the
    rows (chord tangents, support pairing <position, unit normal>, the
    arc-length derivative of curvature at interior nodes), so each row's
    extreme is the state's, bit for bit.  Edge lengths are the ones each
    state cached, the same hypot of the same chords.
    """
    x, y = xy
    m, n = x.shape
    h = np.concatenate([s.seg_cached() for s in block]).reshape(m, n - 1)
    # unit chords, then vertex tangents from neighbouring chords, end nodes
    # one-sided; x and y rows in one array
    u = xy[:, :, 1:] - xy[:, :, :-1]
    u /= h
    t = np.empty_like(xy)
    np.add(u[..., :-1], u[..., 1:], out=t[..., 1:-1])
    t[..., 0], t[..., -1] = u[..., 0], u[..., -1]
    tx, ty = t
    t /= np.hypot(tx, ty)
    # support pairing <position, unit normal>
    sup = x * ty
    sup -= y * tx
    pos = np.maximum(kap, 1e-300)
    # curvature derivative along arc length, read at interior nodes only
    kap_s = (kap[:, 2:] - kap[:, :-2]) / (h[:, :-1] + h[:, 1:])
    grad = np.abs(kap_s) / pos[:, 1:-1]
    return ((np.abs(sup, out=sup) / pos).max(axis=1), grad.max(axis=1),
            kap.max(axis=1) / np.maximum(kap.min(axis=1), 1e-300))


def _block_pairs(block, xy, kap):
    """The height-ratio pinch's (kappa/y, y) at the nodes above y = 1e-12
    of one block of flow._state_rows, packed, and each state's first index
    among them."""
    y = xy[1]
    good = y > 1e-12
    counts = np.count_nonzero(good, axis=1)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise AnalysisError(
            f"the state at offset time {block[empty[0]].time:.6g} has no "
            f"node above y = 1e-12, so its height ratio kappa/y is "
            f"undefined")
    y = y[good]
    base = kap[good]
    base /= y
    return base, y, np.cumsum(counts) - counts


def verify_estimates(traj, r, lambda0):
    """Decay-rate checks of the late-time monitors against the rate r.

    Six records, in this order: turning-angle decay, support-function
    ratio, smallest and largest curvature decay (the latter carrying the
    curvature gradient ratio), and the two height-ratio pinches around
    lambda0^2 (lower uses rate r, upper the doubled rate).  A pinch whose
    defect is positive on fewer than _MIN_SAMPLES states holds outright:
    it reports the required rate as its fitted rate and sets
    extras["vacuous"].

    The window's stored states (_window) are read in two passes of
    flow._state_rows: one computes each state's support, curvature-gradient
    and max/min curvature ratios, a second packs the pinch's (kappa/y, y)
    at every node above y = 1e-12, and each pinch weight then takes every
    state's extreme by reduceat.  The values are those of a per-state
    loop, bit for bit.  A window state with no node above y = 1e-12 raises
    AnalysisError; r or lambda0 not a finite positive real (_check_positive),
    or states of two node counts, raise ConfigError.
    """
    _check_positive(r=r, lambda0=lambda0)
    t = np.asarray(traj.monitors["t"])
    window, win = _window(traj, _MIN_SAMPLES)
    lam2 = lambda0 * lambda0

    def decay(name, q):
        rate, ok, n = _fit_decay(t, np.asarray(q), r, win)
        return EstimateRecord(name, rate, r, ok, window, n, {})

    # state-based quantities; the wall is read only to compute a stored
    # state's curvature, which run_to_extinction has already cached
    states, st_t = traj.states[win], t[win]
    wall = wall_for(traj.ndom) if traj.ndom is not None else None
    ratios = [_block_ratios(*rows) for rows in _state_rows(states, wall)]
    sup_ratio, grad_ratio, ratio_minmax = map(np.concatenate, zip(*ratios))
    # a second pass, so that the packed pairs never share the heap with the
    # first pass's temporaries
    ratio_pairs = [_block_pairs(*rows) for rows in _state_rows(states, wall)]

    C2 = float(np.max(grad_ratio))
    # the max_curvature_decay record carries the curvature ratios
    kmax = decay("max_curvature_decay", traj.monitors["kappa_max"])
    kmax.extras["grad_ratio_C2"] = C2
    kmax.extras["ratio_max_over_min"] = float(np.max(ratio_minmax))

    # support ratio: required to stay bounded with a non-increasing trend
    slope = np.polyfit(st_t, sup_ratio, 1, w=_time_weights(st_t))[0]
    sup_ok = bool(np.all(np.isfinite(sup_ratio)) and slope <= 0.05)
    support = EstimateRecord("support_ratio", float(slope), 0.0, sup_ok,
                             window, len(states), {})

    # height-ratio pinch.  kappa/y exp(+-n y) brackets lambda0^2 up to a
    # decaying defect; the weight n is a nuisance constant chosen from a
    # small grid.
    grid = np.array([1.0, 2.0, 5.0, 10.0, 20.0]) * max(C2, 1e-3) / r

    def pinch(signed, required):
        best = None
        for nwt in grid:
            parts = []
            for base, y, first in ratio_pairs:
                q = base * np.exp(signed * nwt * y)
                if signed > 0:
                    parts.append(lam2 - np.minimum.reduceat(q, first))
                else:
                    parts.append(np.maximum.reduceat(q, first) - lam2)
            defect = np.concatenate(parts)
            pos = defect > 1e-12
            vacuous = int(np.sum(pos)) < _MIN_SAMPLES
            if not vacuous:
                rate = np.polyfit(st_t[pos], np.log(defect[pos]), 1,
                                  w=_time_weights(st_t[pos]))[0]
                ok = bool(np.isfinite(rate)) and rate >= required * 0.95
            else:
                # bound holds outright on almost the whole window; the
                # reported rate is the required one, not a fit
                rate, ok = required, True
            cand = (ok, float(rate), float(nwt), vacuous)
            if best is None or (cand[0] and not best[0]):
                best = cand
            if cand[0]:
                break
        ok, rate, nwt, vacuous = best
        return EstimateRecord(
            "height_ratio_lower" if signed > 0 else "height_ratio_upper",
            rate, required, ok, window, len(states),
            extras={"weight": nwt, "vacuous": vacuous})

    th = np.asarray(traj.monitors["theta_plus"]) + \
        np.asarray(traj.monitors["theta_minus"])
    records = [decay("turning_angle_decay", np.sin(0.5 * th)), support,
               decay("min_curvature_decay", traj.monitors["kappa_min"]),
               kmax, pinch(+1.0, r), pinch(-1.0, 2.0 * r)]
    return EstimateReport(records=records, r=r, lambda0=lambda0)


# ---------------------------------------------------------------------------
# rescaled height profile


@dataclass
class Profile:
    A: float
    lambda0: float
    c: float
    c_closed_form: float
    window: tuple


def closed_form_c(lambda0, kappa1, kappa2):
    """Sinh coefficient of the limiting profile."""
    return (kappa1 - kappa2) / (
        2.0 * lambda0 - (kappa1 + kappa2) * np.tanh(lambda0))


def fit_profile(traj, lambda0, kappa1, kappa2):
    """Per-time cosh/sinh least squares of the rescaled heights,
    extrapolated to the infinite past.

    The rescaled height e^{-lambda0^2 t} y(x_k, t) converges with a
    correction of order e^{lambda0^2 t}, so the per-time amplitudes are
    extrapolated linearly in that variable, each time weighted by its
    trapezoid share of the window (_time_weights).  ConfigError unless
    lambda0 is a finite positive real (_check_positive).
    """
    _check_positive(lambda0=lambda0)
    window, win = _window(traj, _MIN_SAMPLES)
    tw = np.asarray(traj.monitors["t"])[win]
    xs = np.asarray(traj.config.abscissas, dtype=float)
    lam2 = lambda0 * lambda0
    # Z[i, k]: the height at abscissa k and window time i, rescaled
    Z = np.column_stack([np.asarray(traj.monitors[f"y_at_x{k}"])[win]
                         for k in range(len(xs))])
    Z *= np.exp(-lam2 * tw)[:, None]
    B = np.column_stack([np.cosh(lambda0 * xs), np.sinh(lambda0 * xs)])
    # per-time 2x2 normal equations, vectorized over samples
    G = B.T @ B
    rhs = Z @ B                       # (n_t, 2)
    coef = np.linalg.solve(G, rhs.T).T
    A_t = coef[:, 0]
    c_t = coef[:, 1] / np.where(np.abs(A_t) > 1e-300, A_t, 1e-300)
    u = np.exp(lam2 * tw)
    w = _time_weights(tw)
    A_inf = float(np.polyfit(u, A_t, 1, w=w)[1])
    c_inf = float(np.polyfit(u, c_t, 1, w=w)[1])
    if A_inf <= 0.0:
        raise NonPositiveAmplitude(f"extrapolated amplitude {A_inf:.3g}")
    return Profile(
        A=A_inf, lambda0=lambda0, c=c_inf,
        c_closed_form=float(closed_form_c(lambda0, kappa1, kappa2)),
        window=window)


def rescaled_increments(traj, lambda0):
    """Successive sup-differences of the rescaled height profile.

    The profile e^{-lambda0^2 t} y(x_k, t) is read at _INCREMENT_TIMES
    times spread evenly over the fit window, through one
    Trajectory.height_reader, so the samples do not follow the step
    sequence.  Returns (mid_times, diffs) with diffs[i] the sup over
    abscissas of the change between consecutive sample times; a
    trajectory settling into the limit shows diffs shrinking toward the
    past.  WindowTooShort when the window holds fewer than
    _INCREMENT_TIMES stored states; ConfigError unless lambda0 is a finite
    positive real (_check_positive).
    """
    _check_positive(lambda0=lambda0)
    (lo, hi), _ = _window(traj, _INCREMENT_TIMES)
    ts = np.linspace(lo, hi, _INCREMENT_TIMES)
    xs = np.asarray(traj.config.abscissas, dtype=float)
    Z = traj.height_reader(xs)(ts)
    Z *= np.exp(-lambda0 * lambda0 * ts)[:, None]
    diffs = np.max(np.abs(Z[1:] - Z[:-1]), axis=1)
    return 0.5 * (ts[1:] + ts[:-1]), diffs


# ---------------------------------------------------------------------------
# Robin eigenvalue problem on [-1, 1]


@dataclass
class EigenPair:
    mu: float
    coeffs: tuple       # (a, b): phi = a even + b odd, _basis's solutions

    def phi(self, x):
        even, odd = _basis(self.mu, np.asarray(x, dtype=float), None)
        a, b = self.coeffs
        return a * even + b * odd


@dataclass
class EigenResult:
    negative_eigenvalues: list
    positive_eigenvalues: list
    convexity_flags: list
    kappa1: float
    kappa2: float


def _basis(mu, x, parity):
    """The even and odd solutions of -phi'' = mu phi at x: cosh(sx) and
    sinh(sx) for mu < 0, cos(sx) and sin(sx) for mu > 0, s = sqrt|mu|.
    Their slopes are -sign(mu) s odd and s even.  parity 0 or 1 gives the
    even or the odd one alone, None both."""
    s = math.sqrt(abs(mu))
    sx = s * x
    funcs = (np.cosh, np.sinh) if mu < 0 else (np.cos, np.sin)
    if parity is None:
        return funcs[0](sx), funcs[1](sx)
    return funcs[parity](sx)


def _robin_rows(mu, kappa1, kappa2):
    """The Robin conditions phi'(1) = kappa1 phi(1) and phi'(-1) =
    -kappa2 phi(-1), each as the row (p, q) of p a + q b = 0 for
    phi = a even + b odd, in floats.  The basis is read at x = 1 alone:
    at x = -1 the odd solution and the even one's slope change sign."""
    s = math.sqrt(abs(mu))
    if mu < 0:
        even, odd = float(np.cosh(s)), float(np.sinh(s))
        d_even = s * odd
    else:
        even, odd = float(np.cos(s)), float(np.sin(s))
        d_even = -s * odd
    d_odd = s * even
    return ((d_even - kappa1 * even, d_odd - kappa1 * odd),
            (kappa2 * even - d_even, d_odd - kappa2 * odd))


def _pos_secular(s, k1, k2):
    """The secular function of mu = s^2 > 0, at a float s or an array."""
    c, sn = np.cos(s), np.sin(s)
    if isinstance(s, float):
        c, sn = float(c), float(sn)
    sc, ssn = s * c, s * sn
    return (k1 * c + ssn) * (sc - k2 * sn) + (ssn + k2 * c) * (sc - k1 * sn)


def _pair(mu, k1, k2, grid, parity):
    """The eigenpair at mu, sup-normalized on the grid.  (a, b) is the null
    vector (q, -p) of the larger Robin row (p, q), signed so that a >= 0:
    with no division, an odd mode of a symmetric chord (a = 0, q = 0 in
    both rows) is found as well as an even one.  On a chord of equal end
    curvatures (oval._equal_curvatures) the rows are (p, q) and (-p, q),
    and every mode is even (p = 0) or odd (q = 0): parity, 0 or 1, where
    the caller knows it from the factor of the secular function that mu's
    root solves, else the larger coefficient's.  The other coefficient,
    the rounding of p or q (up to 3.4e-9 of the sup on a steep chord), is
    set to 0, and only the kept basis term is computed.  Where both rows
    round to 0 (mu's root rounds to the curvature of a steep chord) the
    kept coefficient is 1 before normalizing."""
    r1, r2 = _robin_rows(mu, k1, k2)
    p, q = r1 if abs(r1[0]) + abs(r1[1]) >= abs(r2[0]) + abs(r2[1]) else r2
    a, b = (q, -p) if q >= 0 else (-q, p)
    if not _equal_curvatures(k1, k2):
        even, odd = _basis(mu, grid, None)
        phi = a * even + b * odd
    elif (abs(a) < abs(b) if parity is None else parity):
        a, b = 0.0, b or 1.0
        phi = b * _basis(mu, grid, 1)
    else:
        a, b = a or 1.0, 0.0
        phi = a * _basis(mu, grid, 0)
    scale = np.abs(phi).max()
    return EigenPair(mu, (float(a / scale), float(b / scale)))


def _positive_mode(pair):
    """Whether a negative mode's a cosh(sx) + b sinh(sx), mu = -s^2, is
    positive on [-1, 1]: it is (P e^(sx) + Q e^(-sx)) / 2, P = a + b and
    Q = a - b, which changes sign at most once, so where it is at x = 1
    and x = -1.  The signs of the two terms there, and their logarithms
    where the signs differ, decide without the cancellation (a ~ b on a
    steep chord) or the overflow of the values themselves."""
    s = math.sqrt(-pair.mu)
    a, b = pair.coeffs
    for p, q in ((a + b, a - b), (a - b, a + b)):
        if max(p, q) <= 0.0 or min(p, q) < 0.0 and (
                math.log(abs(p)) + 2.0 * s > math.log(abs(q))) != (p > 0.0):
            return False
    return True


def _roots(f, samples, chunk):
    """The roots of f over the sorted samples, in order: each sample where
    f is exactly 0, and one root in each interval between two samples
    where f changes sign, found by Brent's method only when it is asked
    for.  f is read on chunk intervals at a time, consecutive chunks
    sharing their end sample, and a chunk only once every root before it
    has been consumed, so a caller that stops early reads no further."""
    for lo in range(0, len(samples) - 1, chunk):
        part = samples[lo:lo + chunk + 1]
        sign = np.sign(f(part))
        at = sign == 0.0
        at[:-1] |= sign[:-1] * sign[1:] < 0.0
        for i in at.nonzero()[0]:
            if sign[i] != 0.0:
                yield safe_brentq(f, float(part[i]), float(part[i + 1]))
            elif i or not lo:
                # a later chunk's first sample ended the chunk before it,
                # which yielded its zero
                yield float(part[i])


def robin_eigen(kappa1, kappa2):
    """Spectrum of -phi'' = mu phi with outward slope kappa^Omega phi.

    Negative eigenvalues are -s^2 at the roots s of the hyperbolic
    secular equation (the principal one, with s above max(kappa1,
    kappa2), is -lambda0^2); a second negative eigenvalue may exist below
    max(kappa1, kappa2) and its eigenfunction is then sign-changing.  On
    a chord of equal end curvatures k (oval._equal_curvatures) that mode
    is odd, at the simple root of s - k tanh s on (0, k]: the secular
    equation is that factor times the principal one's, and near a steep
    chord's principal root it is too flat to locate the second root.
    Where k <= 1 that factor is positive for every s > 0 (in floats too:
    tanh s falls short of s by far more than rounding from s = 1e-6 on),
    so it is not scanned.  Each mode of an equal chord takes its parity
    from its factor: the principal one even, the other odd.  The below
    scan is read in full, as one array evaluation.
    Positive eigenvalues are s^2 at the first _POSITIVE_EIGEN roots of the
    trigonometric secular equation, whose scan is read _SCAN_CHUNK
    samples at a time and stops at the chunk of the last root it reports.
    Each eigenfunction is a even + b odd in the basis of _basis, (a, b) a
    Robin row's null vector (_pair), so it is finite on symmetric chords
    too, where each mode is even or odd.  Each negative mode's convexity
    flag says whether its eigenfunction is positive on [-1, 1], read from
    its mu and coefficients (_positive_mode).  ConfigError unless both
    curvatures are finite positive reals (_check_positive).
    """
    _check_positive(kappa1=kappa1, kappa2=kappa2)
    kmax = max(kappa1, kappa2)
    k = 0.5 * (kappa1 + kappa2)
    equal = _equal_curvatures(kappa1, kappa2)
    lam0 = solve_lambda0(kappa1, kappa2)
    below = []
    if not equal or k > 1.0:
        f = ((lambda s: s - k * np.tanh(s)) if equal
             else _chord_residual(kappa1, kappa2))
        samples = np.linspace(1e-6, kmax, 4001)
        # a zero at max(kappa1, kappa2) is an unequal chord's principal
        # root, rounded (the steep form's last term underflows there from
        # about 186 on), but may be an equal chord's odd one
        below = [s for s in _roots(f, samples, len(samples))
                 if equal or s < kmax]
    even, odd = (0, 1) if equal else (None, None)
    negatives = [_pair(-s * s, kappa1, kappa2, _EIGEN_GRID, parity)
                 for s, parity in [(lam0, even), *((s, odd) for s in below)]]
    hi = (_POSITIVE_EIGEN + 2) * np.pi + kmax
    above = _roots(lambda s: _pos_secular(s, kappa1, kappa2),
                   np.linspace(1e-6, hi, 200 * (_POSITIVE_EIGEN + 4)),
                   _SCAN_CHUNK)
    positives = [_pair(s * s, kappa1, kappa2, _EIGEN_GRID, None)
                 for s in islice(above, _POSITIVE_EIGEN)]
    return EigenResult(
        negative_eigenvalues=negatives,
        positive_eigenvalues=positives,
        convexity_flags=[_positive_mode(pair) for pair in negatives],
        kappa1=float(kappa1), kappa2=float(kappa2))


def eigen_residuals(pair, kappa1, kappa2):
    """(right BC residual, left BC residual) of an eigenpair: the Robin
    rows applied to its coefficients.  The basis solves -phi'' = mu phi
    by construction, so only the two Robin conditions can fail."""
    a, b = pair.coeffs
    return tuple(float(abs(p * a + q * b))
                 for p, q in _robin_rows(pair.mu, kappa1, kappa2))


# ---------------------------------------------------------------------------
# comparing runs


# abscissas at which two runs are compared
MATCH_XS = np.linspace(-0.85, 0.85, 241)
MATCH_XS.flags.writeable = False


# uniqueness_evidence calls matched_distance through this module's global,
# so a wrapper set on this module (bench/tracing.py) sees every call
def matched_distance(ya, yb):
    """Sup of |ya - yb| over the entries finite in both, for two arrays of
    height rows of one shape, one row per sample time along the last axis,
    as a Trajectory.height_reader returns them.  A sample time whose rows
    share no finite abscissa makes the distance inf.  ConfigError when the
    shapes differ or the arrays hold no sample time.
    """
    shape = np.shape(ya)
    if shape != np.shape(yb):
        raise ConfigError(
            f"height rows of shapes {shape} and {np.shape(yb)} differ")
    if not shape or 0 in shape[:-1]:
        raise ConfigError(f"height rows of shape {shape} hold no sample time")
    m = np.isfinite(ya) & np.isfinite(yb)
    if not m.any(axis=-1).all():
        return np.inf
    # |ya - yb| where both are finite, 0 elsewhere (no inf - inf)
    d = np.zeros(shape)
    np.subtract(ya, yb, out=d, where=m)
    return float(np.abs(d, out=d).max())


@dataclass
class UniquenessReport:
    """The best shift tau_star, the sup distance there, and the sample
    window.  tau_at_edge marks a tau_star at the edge of the searched
    bracket (|tau_star| >= _TAU_SPAN - _TAU_TOL): the minimum over shifts
    may then lie outside it, and the distance only bounds that minimum
    from above."""
    tau_star: float
    distance: float
    window: tuple
    tau_at_edge: bool


def uniqueness_evidence(trajA, trajB, lambda0):
    """Best time shift aligning two runs, and the aligned sup distance.

    A small minimized distance backs uniqueness-modulo-time-translation;
    runs on opposite sides of the diameter stay far apart.  lambda0 is
    not used: the shift is searched in plain time.  The runs are compared
    on MATCH_XS at _UNIQUENESS_TIMES sample times spread over [lo +
    0.15 |lo|, -_ANALYSIS_END], lo the later first stored time of the two
    and _ANALYSIS_END = 0.3 the flow's; trajB is read at the sample times
    plus the shift tau.  Golden section searches tau on [-_TAU_SPAN,
    _TAU_SPAN] until its bracket is narrower than _TAU_TOL, and tau = 0 is
    read once besides, so that an unshifted tie wins.  trajA is read
    once, and trajB through one height_reader for all 15 shifts, so each
    of its stored states once at most; matched_distance compares them at
    each shift.  WindowTooShort when the window is empty.
    """
    lo = max(float(trajA.monitors["t"][0]), float(trajB.monitors["t"][0]))
    lo = lo + 0.15 * abs(lo)
    hi = -_ANALYSIS_END
    if lo >= hi:
        raise WindowTooShort(f"no shared late window: [{lo:.3g}, {hi:.3g}]")
    sample_times = np.linspace(lo, hi, _UNIQUENESS_TIMES)
    ya = trajA.height_reader(MATCH_XS)(sample_times)
    read_b = trajB.height_reader(MATCH_XS)

    def dist(tau):
        return matched_distance(ya, read_b(sample_times + tau))

    a, b = -_TAU_SPAN, _TAU_SPAN
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = dist(c), dist(d)
    while b - a >= _TAU_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = dist(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = dist(d)
    tau, best = (c, fc) if fc < fd else (d, fd)
    unshifted = dist(0.0)
    if unshifted <= best:
        tau, best = 0.0, unshifted
    tau = float(tau)
    return UniquenessReport(tau, float(best), (lo, hi),
                            abs(tau) >= _TAU_SPAN - _TAU_TOL)


@dataclass
class SweepReport:
    rhos: list
    trajectories: list
    pairs: list                 # uniqueness_evidence of consecutive rhos


def ancient_sweep(ndom, rhos, cfg):
    """Old-but-not-ancient runs over decreasing rho, aligned by extinction,
    each consecutive pair compared by uniqueness_evidence."""
    rhos = sorted(rhos, reverse=True)
    if len(rhos) < 3:
        raise ConfigError("sweep needs at least 3 rho values")
    trajs = [old_but_not_ancient(ndom, r, cfg) for r in rhos]
    lam0 = solve_lambda0(ndom.kappa1, ndom.kappa2)
    return SweepReport(
        rhos=list(rhos),
        trajectories=trajs,
        pairs=[uniqueness_evidence(a, b, lam0)
               for a, b in zip(trajs[:-1], trajs[1:])],
    )


_FLIP = np.array([1.0, -1.0])   # (x, y) -> (x, -y)
_FLIP.flags.writeable = False


def _mirror(state):
    """state mirrored across the diameter, a new CurveState with new nodes
    and no caches: a mirror is read for heights alone, which need no edge
    lengths."""
    return CurveState(state.nodes * _FLIP, state.time, state.om_minus,
                      state.om_plus)


class _MirroredStates(Sequence):
    """A read-only sequence over a run's stored states, each mirrored
    across the diameter only when it is read: every index or slice element
    (Sequence iterates by index) builds a new CurveState (_mirror), so
    that making the view copies no node array."""

    def __init__(self, states):
        self._states = states

    def __len__(self):
        return len(self._states)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return _MirroredStates(self._states[k])
        return _mirror(self._states[k])


def reflect_trajectory(traj):
    """The same run mapped to the other side of the diameter.

    Turning angles, curvature magnitudes and areas are mirror invariant;
    only heights change sign, and with them the extinction point.  The
    mirror's states are a read-only view over traj's (_MirroredStates),
    which builds each mirrored state when it is read; it gets new height
    monitors and shares everything else with traj, which it leaves
    unchanged.

    A mirror supports height reads only: height_reader and the height
    monitors.  A mirrored state keeps the run's contact parameters, which
    name points of the upper boundary arc, so its curvature against the
    wall is wrong; verify_estimates on a mirror raises AnalysisError, as
    no node of a mirrored state lies above the diameter.
    """
    monitors = {key: -np.asarray(val) if key.startswith("y_at_x") else val
                for key, val in traj.monitors.items()}
    return replace(traj, states=_MirroredStates(traj.states),
                   monitors=monitors)
