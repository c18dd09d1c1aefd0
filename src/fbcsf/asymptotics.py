"""Late-time analysis of free-boundary flow trajectories.

Three layers: exponential-estimate verification (decay-rate fits of
turning angle and curvature monitors against the barrier rate), the
rescaled height profile and its cosh/sinh fit, and the Robin eigenvalue
problem on [-1, 1] whose negative spectrum carries the decay scale.

All routines are pure functions over recorded trajectories; none of
them step the flow.
"""

import numpy as np
from dataclasses import dataclass, field, replace

from .errors import AnalysisError, NonPositiveAmplitude, WindowTooShort
# uniqueness_evidence calls matched_distance through this module's global,
# so a wrapper set on this module (bench/tracing.py) sees every call
from .flow import MATCH_XS, ConvexWall, CurveState, matched_distance
from .oval import lambda0_residual, solve_lambda0
from .solve import safe_brentq


# ---------------------------------------------------------------------------
# fit windows

WINDOW_FLOOR = -6.0   # never fit below this offset time
WINDOW_CEIL = -1.0    # never fit above this offset time
_LOG_MIN = 1e-300     # monitors are clipped to this before their logarithm
_EIGEN_NGRID = 1001   # eigenfunction grid on [-1, 1]: sup norm and sign
_POSITIVE_EIGEN = 3   # positive Robin eigenvalues that robin_eigen reports
_INCREMENT_TIMES = 10   # rescaled_increments: sample times in the window
_UNIQUENESS_TIMES = 16  # uniqueness_evidence: sample times, and the time
_TAU_SPAN = 0.5         # shifts it scans, on [-_TAU_SPAN, _TAU_SPAN]


def _default_window(t):
    """Offset-time fit window: as far into the past as recorded, capped."""
    lo = max(float(t[0]), WINDOW_FLOOR)
    hi = WINDOW_CEIL
    if lo >= hi:
        raise WindowTooShort(
            f"trajectory spans [{t[0]:.3g}, {t[-1]:.3g}]; "
            f"no samples before {WINDOW_CEIL}")
    return lo, hi


def _window_mask(t, window, min_samples=8):
    lo, hi = window
    m = (t >= lo) & (t <= hi)
    if int(np.sum(m)) < min_samples:
        raise WindowTooShort(
            f"window [{lo:.3g}, {hi:.3g}] holds {int(np.sum(m))} samples")
    return m


# ---------------------------------------------------------------------------
# exponential estimates


@dataclass
class EstimateRecord:
    name: str
    fitted_rate: float
    required_rate: float
    fitted_constant: float
    passed: bool
    window: tuple
    n_samples: int
    extras: dict = field(default_factory=dict)


@dataclass
class EstimateReport:
    records: list
    r: float
    lambda0: float

    @property
    def passed(self):
        return all(rec.passed for rec in self.records)

    def record(self, name):
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)


def _fit_decay(t, q, required, window):
    """Log-linear fit of q against t; minimal pointwise constant.

    Returns (rate, constant, passed, n): passed requires the fitted rate
    to clear required*0.95 and the bound q <= constant*exp(rate*t) to
    hold on every sample at or before the window's late edge.
    """
    m = _window_mask(t, window)
    logs = np.log(np.maximum(q[m], _LOG_MIN))
    rate, logc = np.polyfit(t[m], logs, 1)
    all_m = t <= window[1]
    resid = np.log(np.maximum(q[all_m], _LOG_MIN)) - (rate * t[all_m] + logc)
    const = float(np.exp(logc + np.max(resid)))
    pointwise = bool(np.all(
        q[all_m] <= const * np.exp(rate * t[all_m]) * (1.0 + 1e-12)))
    passed = bool(np.isfinite(rate)) and rate >= required * 0.95 and pointwise
    return float(rate), const, passed, int(np.sum(m))


def _window_states(traj, window):
    out = [s for s in traj.states if window[0] <= s.time <= window[1]]
    if len(out) < 8:
        raise WindowTooShort(
            f"only {len(out)} stored states in [{window[0]:.3g}, "
            f"{window[1]:.3g}]")
    return out


def _state_fields(state, wall):
    """Per-node curvature, height, position-normal pairing, curvature
    arc-derivative for one stored state."""
    kap = state.kappa_cached(wall)
    pts = state.nodes
    e = pts[1:] - pts[:-1]
    h = np.hypot(e[:, 0], e[:, 1])
    # vertex tangents from neighbouring chords, endpoints one-sided
    tx = np.empty(len(pts))
    ty = np.empty(len(pts))
    tx[1:-1] = e[:-1, 0] / h[:-1] + e[1:, 0] / h[1:]
    ty[1:-1] = e[:-1, 1] / h[:-1] + e[1:, 1] / h[1:]
    tx[0], ty[0] = e[0, 0] / h[0], e[0, 1] / h[0]
    tx[-1], ty[-1] = e[-1, 0] / h[-1], e[-1, 1] / h[-1]
    norm = np.hypot(tx, ty)
    tx /= norm
    ty /= norm
    # support pairing <position, unit normal>
    sup = np.abs(pts[:, 0] * ty - pts[:, 1] * tx)
    # curvature derivative along arc length (interior nodes)
    kap_s = (kap[2:] - kap[:-2]) / (h[:-1] + h[1:])
    return kap, pts[:, 1], sup, kap_s


def verify_estimates(traj, r, lambda0):
    """Decay-rate checks of the late-time monitors against the rate r.

    Six records: turning-angle decay, support-function ratio, smallest
    and largest curvature decay (the latter carrying the curvature
    gradient ratio), and the two height-ratio pinches around lambda0^2
    (lower uses rate r, upper the doubled rate).  A pinch whose defect is
    positive on fewer than 8 states holds outright: it reports the
    required rate as its fitted rate and sets extras["vacuous"].
    """
    t = np.asarray(traj.monitors["t"])
    window = _default_window(t)
    lam2 = lambda0 * lambda0
    records = []

    th = np.asarray(traj.monitors["theta_plus"]) + \
        np.asarray(traj.monitors["theta_minus"])
    rate, const, ok, n = _fit_decay(t, np.sin(0.5 * th), r, window)
    records.append(EstimateRecord(
        "turning_angle_decay", rate, r, const, ok, window, n))

    kmin = np.asarray(traj.monitors["kappa_min"])
    rate, const, ok, n = _fit_decay(t, kmin, r, window)
    records.append(EstimateRecord(
        "min_curvature_decay", rate, r, const, ok, window, n))

    kmax = np.asarray(traj.monitors["kappa_max"])
    rate, const, ok, n = _fit_decay(t, kmax, r, window)
    rec_kmax = EstimateRecord(
        "max_curvature_decay", rate, r, const, ok, window, n)

    # state-based quantities; the wall is read only to compute a stored
    # state's curvature, which run_to_extinction has already cached
    states = _window_states(traj, window)
    wall = (ConvexWall(traj.ndom) if any(s._kap is None for s in states)
            else None)
    st_t = np.array([s.time for s in states])
    sup_ratio = np.empty(len(states))
    grad_ratio = np.empty(len(states))
    ratio_minmax = np.empty(len(states))
    ratio_pairs = []
    for j, s in enumerate(states):
        kap, y, sup, kap_s = _state_fields(s, wall)
        pos = np.maximum(kap, 1e-300)
        sup_ratio[j] = float(np.max(sup / pos))
        grad_ratio[j] = float(np.max(np.abs(kap_s) / pos[1:-1]))
        ratio_minmax[j] = float(np.max(kap) / max(np.min(kap), 1e-300))
        good = y > 1e-12
        ratio_pairs.append((kap[good] / y[good], y[good]))

    C2 = float(np.max(grad_ratio))
    rec_kmax.extras["grad_ratio_C2"] = C2
    rec_kmax.extras["ratio_max_over_min"] = float(np.max(ratio_minmax))
    records.append(rec_kmax)

    # support ratio: required to stay bounded with a non-increasing trend
    slope = np.polyfit(st_t, sup_ratio, 1)[0]
    sup_ok = bool(np.all(np.isfinite(sup_ratio)) and slope <= 0.05)
    records.append(EstimateRecord(
        "support_ratio", float(slope), 0.0, float(np.max(sup_ratio)),
        sup_ok, window, len(states)))

    # height-ratio pinch.  kappa/y exp(+-n y) brackets lambda0^2 up to a
    # decaying defect; the weight n is a nuisance constant chosen from a
    # small grid.
    grid = np.array([1.0, 2.0, 5.0, 10.0, 20.0]) * max(C2, 1e-3) / r

    def pinch(signed, required):
        best = None
        for nwt in grid:
            defect = np.empty(len(states))
            for j, (base, y) in enumerate(ratio_pairs):
                q = base * np.exp(signed * nwt * y)
                if signed > 0:
                    defect[j] = lam2 - float(np.min(q))
                else:
                    defect[j] = float(np.max(q)) - lam2
            pos = defect > 1e-12
            vacuous = int(np.sum(pos)) < 8
            if not vacuous:
                rate, logc = np.polyfit(st_t[pos],
                                        np.log(defect[pos]), 1)
                resid = np.log(defect[pos]) - (rate * st_t[pos] + logc)
                const = float(np.exp(logc + np.max(resid)))
                ok = bool(np.isfinite(rate)) and rate >= required * 0.95
            else:
                # bound holds outright on almost the whole window; the
                # reported rate is the required one, not a fit
                rate, const, ok = required, 0.0, True
            cand = (ok, float(rate), const, float(nwt), vacuous)
            if best is None or (cand[0] and not best[0]):
                best = cand
            if cand[0]:
                break
        ok, rate, const, nwt, vacuous = best
        return EstimateRecord(
            "height_ratio_lower" if signed > 0 else "height_ratio_upper",
            rate, required, const, ok, window, len(states),
            extras={"weight": nwt, "vacuous": vacuous})

    records.append(pinch(+1.0, r))
    records.append(pinch(-1.0, 2.0 * r))

    order = ["turning_angle_decay", "support_ratio", "min_curvature_decay",
             "max_curvature_decay", "height_ratio_lower",
             "height_ratio_upper"]
    records.sort(key=lambda rec: order.index(rec.name))
    return EstimateReport(records=records, r=r, lambda0=lambda0)


# ---------------------------------------------------------------------------
# rescaled height profile


@dataclass
class Profile:
    A: float
    lambda0: float
    c: float
    c_closed_form: float
    fit_residual: float
    window: tuple
    times: np.ndarray = field(default=None, repr=False)
    A_of_t: np.ndarray = field(default=None, repr=False)
    c_of_t: np.ndarray = field(default=None, repr=False)


def closed_form_c(lambda0, kappa1, kappa2):
    """Sinh coefficient of the limiting profile."""
    return (kappa1 - kappa2) / (
        2.0 * lambda0 - (kappa1 + kappa2) * np.tanh(lambda0))


def fit_profile(traj, lambda0, kappa1, kappa2):
    """Per-time cosh/sinh least squares of the rescaled heights,
    extrapolated to the infinite past.

    The rescaled height e^{-lambda0^2 t} y(x_k, t) converges with a
    correction of order e^{lambda0^2 t}, so the per-time amplitudes are
    extrapolated linearly in that variable.
    """
    t = np.asarray(traj.monitors["t"])
    window = _default_window(t)
    m = _window_mask(t, window)
    xs = np.asarray(traj.config.abscissas, dtype=float)
    cols = [traj.monitors[f"y_at_x{k}"] for k in range(len(xs))]
    Y = np.column_stack([np.asarray(c)[m] for c in cols])
    tw = t[m]
    if Y.shape[1] < 3:
        raise AnalysisError("need at least 3 height abscissas")

    lam2 = lambda0 * lambda0
    Z = Y * np.exp(-lam2 * tw)[:, None]
    B = np.column_stack([np.cosh(lambda0 * xs), np.sinh(lambda0 * xs)])
    # per-time 2x2 normal equations, vectorized over samples
    G = B.T @ B
    rhs = Z @ B                       # (n_t, 2)
    coef = np.linalg.solve(G, rhs.T).T
    fit = coef @ B.T
    resid = float(np.max(np.abs(fit - Z)))

    A_t = coef[:, 0]
    c_t = coef[:, 1] / np.where(np.abs(A_t) > 1e-300, A_t, 1e-300)
    u = np.exp(lam2 * tw)
    A_inf = float(np.polyfit(u, A_t, 1)[1])
    c_inf = float(np.polyfit(u, c_t, 1)[1])
    if A_inf <= 0.0:
        raise NonPositiveAmplitude(f"extrapolated amplitude {A_inf:.3g}")
    return Profile(
        A=A_inf, lambda0=lambda0, c=c_inf,
        c_closed_form=float(closed_form_c(lambda0, kappa1, kappa2)),
        fit_residual=resid, window=window,
        times=tw, A_of_t=A_t, c_of_t=c_t)


def rescaled_increments(traj, lambda0):
    """Successive sup-differences of the rescaled height profile.

    Returns (mid_times, diffs) with diffs[i] the sup over abscissas of
    the change between consecutive sample times; a trajectory settling
    into the limit shows diffs shrinking toward the past.
    """
    t = np.asarray(traj.monitors["t"])
    m = _window_mask(t, _default_window(t), min_samples=_INCREMENT_TIMES)
    tw = t[m]
    xs = np.asarray(traj.config.abscissas, dtype=float)
    Y = np.column_stack(
        [np.asarray(traj.monitors[f"y_at_x{k}"])[m]
         for k in range(len(xs))])
    Z = Y * np.exp(-lambda0 * lambda0 * tw)[:, None]
    idx = np.unique(np.linspace(0, len(tw) - 1, _INCREMENT_TIMES).astype(int))
    diffs = np.max(np.abs(Z[idx[1:]] - Z[idx[:-1]]), axis=1)
    mids = 0.5 * (tw[idx[1:]] + tw[idx[:-1]])
    return mids, diffs


# ---------------------------------------------------------------------------
# Robin eigenvalue problem on [-1, 1]


@dataclass
class EigenPair:
    mu: float
    coeffs: tuple       # (even amplitude, odd amplitude) in the basis below
    kind: str           # "hyperbolic" (mu < 0) or "trigonometric" (mu > 0)

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sqrt(abs(self.mu))
        a, b = self.coeffs
        if self.kind == "hyperbolic":
            return a * np.cosh(s * x) + b * np.sinh(s * x)
        return a * np.cos(s * x) + b * np.sin(s * x)


@dataclass
class EigenResult:
    negative_eigenvalues: list
    positive_eigenvalues: list
    convexity_flags: list
    kappa1: float
    kappa2: float


def _pos_secular(s, k1, k2):
    c, sn = np.cos(s), np.sin(s)
    return ((k1 * c + s * sn) * (s * c - k2 * sn)
            + (s * sn + k2 * c) * (s * c - k1 * sn))


def _neg_pair(s, k1, k2, grid):
    """Assemble and sup-normalize the cosh/sinh eigenfunction for mu=-s^2."""
    ch, sh = np.cosh(s), np.sinh(s)
    # ratio b/a from whichever endpoint condition is better conditioned
    d_right = s * ch - k1 * sh
    d_left = s * ch - k2 * sh
    if abs(d_right) >= abs(d_left):
        b = (k1 * ch - s * sh) / d_right
    else:
        b = -(k2 * ch - s * sh) / d_left
    pair = EigenPair(mu=-s * s, coeffs=(1.0, float(b)), kind="hyperbolic")
    vals = pair.phi(grid)
    scale = float(np.max(np.abs(vals)))
    pair.coeffs = (1.0 / scale, float(b) / scale)
    return pair


def _pos_pair(s, k1, k2, grid):
    c, sn = np.cos(s), np.sin(s)
    d_right = s * c - k1 * sn
    d_left = s * c - k2 * sn
    if abs(d_right) >= abs(d_left):
        b = (k1 * c + s * sn) / d_right
    else:
        b = -(s * sn + k2 * c) / d_left
    pair = EigenPair(mu=s * s, coeffs=(1.0, float(b)), kind="trigonometric")
    vals = pair.phi(grid)
    scale = float(np.max(np.abs(vals)))
    pair.coeffs = (1.0 / scale, float(b) / scale)
    return pair


def robin_eigen(kappa1, kappa2):
    """Spectrum of -phi'' = mu phi with outward slope kappa^Omega phi.

    Negative eigenvalues come from the hyperbolic secular equation (the
    principal one, with s above max(kappa1, kappa2), is -lambda0^2); a
    second negative eigenvalue may exist below max(kappa1, kappa2) and
    its eigenfunction is then sign-changing.  Positive eigenvalues are
    the first _POSITIVE_EIGEN roots of the trigonometric secular equation.
    """
    if kappa1 <= 0 or kappa2 <= 0:
        raise AnalysisError("endpoint curvatures must be positive")
    grid = np.linspace(-1.0, 1.0, _EIGEN_NGRID)
    kmax = max(kappa1, kappa2)

    lam0 = solve_lambda0(kappa1, kappa2)
    negatives = [_neg_pair(lam0, kappa1, kappa2, grid)]

    # scan below kmax for a second hyperbolic root
    ss = np.linspace(1e-6, kmax, 4001)
    vals = lambda0_residual(ss, kappa1, kappa2)
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        s2 = safe_brentq(lambda s: float(lambda0_residual(s, kappa1, kappa2)),
                         float(ss[i]), float(ss[i + 1]))
        negatives.append(_neg_pair(s2, kappa1, kappa2, grid))

    k = _POSITIVE_EIGEN
    positives = []
    hi = (k + 2) * np.pi + kmax
    ss = np.linspace(1e-6, hi, 200 * (k + 4))
    vals = _pos_secular(ss, kappa1, kappa2)
    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    for i in flips:
        s = safe_brentq(lambda s: float(_pos_secular(s, kappa1, kappa2)),
                        float(ss[i]), float(ss[i + 1]))
        positives.append(_pos_pair(s, kappa1, kappa2, grid))
        if len(positives) >= k:
            break

    flags = [bool(np.all(p.phi(grid) > 0.0)) for p in negatives]
    return EigenResult(
        negative_eigenvalues=negatives,
        positive_eigenvalues=positives,
        convexity_flags=flags,
        kappa1=float(kappa1), kappa2=float(kappa2))


def eigen_residuals(pair, kappa1, kappa2):
    """(right BC residual, left BC residual) of an eigenpair.

    The cosh/sinh and cos/sin bases satisfy -phi'' = mu phi by
    construction, so only the two Robin conditions can fail.
    """
    s = np.sqrt(abs(pair.mu))
    a, b = pair.coeffs
    if pair.kind == "hyperbolic":
        dphi = lambda x: s * (a * np.sinh(s * x) + b * np.cosh(s * x))
    else:
        dphi = lambda x: s * (-a * np.sin(s * x) + b * np.cos(s * x))
    bc_r = float(abs(dphi(1.0) - kappa1 * pair.phi(1.0)))
    bc_l = float(abs(dphi(-1.0) + kappa2 * pair.phi(-1.0)))
    return bc_r, bc_l


# ---------------------------------------------------------------------------
# uniqueness evidence


@dataclass
class UniquenessReport:
    tau_star: float
    distance: float
    window: tuple


def uniqueness_evidence(trajA, trajB, lambda0):
    """Best time shift aligning two runs, and the aligned sup distance.

    A small minimized distance backs uniqueness-modulo-time-translation;
    trajectories on opposite sides of the diameter stay far apart.
    lambda0 is not used: the shift is scanned in plain time.
    """
    xs = MATCH_XS
    lo = max(float(trajA.monitors["t"][0]), float(trajB.monitors["t"][0]))
    lo = lo + 0.15 * abs(lo)
    hi = -0.3
    if lo >= hi:
        raise WindowTooShort(f"no shared late window: [{lo:.3g}, {hi:.3g}]")
    sample_times = np.linspace(lo, hi, _UNIQUENESS_TIMES)

    taus = np.linspace(-_TAU_SPAN, _TAU_SPAN, 41)
    taus[np.argmin(np.abs(taus))] = 0.0
    dists = np.array([matched_distance(trajA, trajB, tau, sample_times, xs)
                      for tau in taus])
    j = int(np.argmin(dists))
    if dists[j] < 1e-13:
        return UniquenessReport(float(taus[j]), float(dists[j]), (lo, hi))

    # golden-section refinement inside the bracketing pair
    a = taus[max(j - 1, 0)]
    b = taus[min(j + 1, len(taus) - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc = matched_distance(trajA, trajB, c, sample_times, xs)
    fd = matched_distance(trajA, trajB, d, sample_times, xs)
    for _ in range(60):
        if b - a < 1e-5:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = matched_distance(trajA, trajB, c, sample_times, xs)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = matched_distance(trajA, trajB, d, sample_times, xs)
    tau = c if fc < fd else d
    dist = min(fc, fd)
    if dists[j] < dist:
        tau, dist = taus[j], dists[j]
    return UniquenessReport(float(tau), float(dist), (lo, hi))


def reflect_trajectory(traj):
    """The same run mapped to the other side of the diameter.

    Contacts, turning angles, curvature magnitudes and areas are mirror
    invariant; only heights and the extinction point change sign.  The
    mirror gets new states and height monitors and shares everything else
    with traj, which it leaves unchanged.
    """
    flip = np.array([1.0, -1.0])
    states = [CurveState(nodes=s.nodes * flip, time=s.time,
                         om_minus=s.om_minus, om_plus=s.om_plus, _seg=s._seg)
              for s in traj.states]
    monitors = {key: -np.asarray(val) if key.startswith("y_at_x") else val
                for key, val in traj.monitors.items()}
    return replace(traj, states=states, monitors=monitors,
                   extinction_point=np.asarray(traj.extinction_point) * flip)
