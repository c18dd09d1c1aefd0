import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcsf import geometry as g
from fbcsf import oval as ov
from fbcsf.errors import (BracketFailure, ConfigError, FBCSFError,
                          InvalidScale, LambdaOutOfRange, RhoTooLarge)


# ------------------------------------------------------ scalar limits

def test_sigma_symmetric_unit():
    s = ov.solve_sigma(1.0)
    assert abs(s * np.tanh(s) - 1.0) < 1e-13
    assert abs(s - 1.1996786402577344) < 1e-12


def test_lambda0_symmetric_matches_sigma():
    for k in (0.5, 1.0, 2.0):
        lam = ov.solve_lambda0(k, k)
        assert abs(lam * np.tanh(lam) - k) < 1e-10
        assert abs(lam - ov.solve_sigma(k)) < 1e-12


def test_lambda0_oracles():
    assert abs(ov.solve_lambda0(0.5, 0.5) - 0.7717023192091043) < 1e-12
    assert abs(ov.solve_lambda0(2.0, 2.0) - 2.0653381389747048) < 1e-12
    assert abs(ov.solve_lambda0(1.0, 0.5) - 1.0765642046115869) < 1e-12


def test_lambda0_quadratic_residual():
    k1, k2 = 1.0, 0.5
    lam = ov.solve_lambda0(k1, k2)
    res = lam ** 2 - lam * (k1 + k2) / np.tanh(2 * lam) + k1 * k2
    assert abs(res) < 1e-12
    assert max(k1, k2) < lam <= ov.solve_sigma(max(k1, k2)) + 1e-12


def test_xi0_oracle():
    lam = ov.solve_lambda0(1.0, 0.5)
    x = ov.xi0(lam, 1.0)
    assert abs(x - (-0.5328116536289997)) < 1e-12


@pytest.mark.parametrize("lam", [1.0, 0.5])
def test_xi0_rejects_a_scale_not_above_the_curvature(lam):
    # arctanh(kappa1 / lambda0) is infinite at lambda0 = kappa1 and NaN
    # below it
    with pytest.raises(InvalidScale):
        ov.xi0(lam, 1.0)


def test_limits_shift_identities():
    lim = ov.compute_limits(1.0, 0.5)
    assert abs(np.tanh(lim.lambda0 * (1 - lim.xi0)) - 1.0 / lim.lambda0) < 1e-10
    assert abs(np.tanh(lim.lambda0 * (1 + lim.xi0)) - 0.5 / lim.lambda0) < 1e-10


@pytest.mark.parametrize("kappa", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_sigma_rejects_bad_curvature(kappa):
    with pytest.raises(ConfigError):
        ov.solve_sigma(kappa)


@pytest.mark.parametrize("k1, k2", [(np.nan, 1.0), (1.0, np.inf),
                                    (np.inf, np.inf), (1.0, 0.0)])
def test_lambda0_rejects_bad_curvature(k1, k2):
    with pytest.raises(ConfigError):
        ov.solve_lambda0(k1, k2)


kappas = st.floats(0.3, 3.0)


@settings(max_examples=30, deadline=None)
@given(kappas, kappas)
def test_lambda0_ordering_and_identities(k1, k2):
    lim = ov.compute_limits(k1, k2)
    kmax = max(k1, k2)
    assert kmax < lim.lambda0 <= lim.sigma + 1e-12
    assert abs(np.tanh(lim.lambda0 * (1 - lim.xi0)) - k1 / lim.lambda0) < 1e-10
    assert abs(np.tanh(lim.lambda0 * (1 + lim.xi0)) - k2 / lim.lambda0) < 1e-10
    res = (lim.lambda0 ** 2
           - lim.lambda0 * (k1 + k2) / np.tanh(2 * lim.lambda0) + k1 * k2)
    assert abs(res) < 1e-10


# ----------------------------------------------------- height profile

def test_lower_height_apex():
    par = ov.OvalParams(lam=1.3, xi=0.2, t=-0.8)
    want = np.arcsin(np.exp(1.3 ** 2 * -0.8)) / 1.3
    assert abs(par.lower_height(0.2) - want) < 1e-14


def test_lower_height_direct_value():
    par = ov.OvalParams(lam=1.0, xi=0.0, t=-1.0)
    assert abs(par.lower_height(0.0) - 0.376727508058575) < 1e-12


def test_lower_height_branch_junction():
    par = ov.OvalParams(lam=1.0, xi=0.0, t=-1.0)
    w = par.support_halfwidth
    assert abs(par.lower_height(w) - np.pi / 2) < 1e-7


def test_lower_height_beyond_the_tips_is_the_tip_height():
    # the lower branch is read past its tips as the tips' height pi/(2 lam)
    par = ov.OvalParams(lam=2.0, xi=0.3, t=-1.0)
    w = par.support_halfwidth
    xs = np.array([0.3 - 2.0 * w, 0.3 - 1.01 * w, 0.3 + 1.01 * w])
    assert np.array_equal(par.lower_height(xs), np.full(3, np.pi / 4))


@pytest.mark.parametrize("lam, xi, t", [(2.0, 0.3, -1.0), (1.3, -0.2, -0.8)])
def test_lower_height_of_a_float_is_the_array_read(lam, xi, t):
    # a float x skips the 0-d array and returns a Python float: the same
    # bits, inside the tips and beyond them, and a NaN stays NaN as through
    # np.minimum
    par = ov.OvalParams(lam=lam, xi=xi, t=t)
    w = par.support_halfwidth
    for x in np.linspace(xi - 1.5 * w, xi + 1.5 * w, 301):
        want = par.lower_height(np.array(x))
        for got in (par.lower_height(float(x)), par.lower_height(x)):
            assert type(got) is float
            assert got.hex() == float(want).hex()
    assert np.isnan(par.lower_height(float("nan")))


@pytest.mark.parametrize("lam, xi, t", [(2.0, 0.3, -1.0), (1.3, -0.2, -0.8)])
def test_normal_direction_of_two_floats_is_the_array_row(lam, xi, t):
    # two floats skip the 0-d arrays and the stack: each point's normal is
    # the row of the array read at all 301 points, inside the tips and
    # beyond them, where the lower branch reads the tips' height
    par = ov.OvalParams(lam=lam, xi=xi, t=t)
    w = par.support_halfwidth
    xs = np.linspace(xi - 1.5 * w, xi + 1.5 * w, 301)
    ys = par.lower_height(xs)
    rows = par.normal_direction(xs, ys)
    assert rows.shape == (301, 2)
    for x, y, row in zip(xs, ys, rows):
        for got in (par.normal_direction(float(x), float(y)),
                    par.normal_direction(x, y)):
            assert got.shape == (2,)
            assert [float(v).hex() for v in got] == \
                [float(v).hex() for v in row]


# squares of these sum without overflow
_component = st.floats(-1e150, 1e150)


@given(_component, _component)
@settings(max_examples=300, deadline=None)
def test_vector_length_is_the_linalg_norm(a, b):
    # the build divides by np.sqrt(n.dot(n)), which is what np.linalg.norm
    # computes for a 1-d float vector
    n = np.array([a, b])
    assert float(np.sqrt(n.dot(n))).hex() == float(np.linalg.norm(n)).hex()
    if 0.0 < np.linalg.norm(n) < np.inf:
        tau = np.array([np.cos(0.7), np.sin(0.7)])
        want = 1.0 - abs(float(n / np.linalg.norm(n) @ tau))
        assert ov._alignment_residual(n, tau) == want


def test_height_factor_bound():
    par = ov.OvalParams(lam=2.0, xi=0.0, t=-0.5)
    assert 0.0 < par.height_factor < 1.0


# ----------------------------------------- single-contact placement

# the unit disk's upper boundary y = sqrt(1 - x^2) at x0 = cos 0.2
_X0 = float(np.cos(0.2))
_PHI0 = float(np.sqrt(1.0 - _X0 ** 2))
_DPHI0 = -_X0 / _PHI0


def test_single_point_orthogonal_disk():
    lo, hi = ov.admissible_interval(_PHI0, _DPHI0)
    par = ov.single_point_orthogonal(_PHI0, _DPHI0, _X0, 0.5 * (lo + hi))
    n_ov = par.normal_direction(_X0, _PHI0)
    n_ov = n_ov / np.linalg.norm(n_ov)
    # orthogonal intersection: the oval's normal lies along the boundary
    # tangent, i.e. perpendicular to the boundary normal
    n_bd = np.array([_X0, _PHI0])  # unit outward normal of the disk
    assert abs(float(n_ov @ n_bd)) < 1e-10
    tau_bd = np.array([-_PHI0, _X0])
    assert abs(abs(float(n_ov @ tau_bd)) - 1.0) < 1e-10


def test_single_point_upper_limit_shift():
    lo, hi = ov.admissible_interval(_PHI0, _DPHI0)
    par = ov.single_point_orthogonal(_PHI0, _DPHI0, _X0, hi * (1 - 1e-12))
    assert abs(par.xi - _X0) < 1e-5


def test_single_point_lower_endpoint_rejected():
    lo, _ = ov.admissible_interval(_PHI0, _DPHI0)
    with pytest.raises(LambdaOutOfRange):
        ov.single_point_orthogonal(_PHI0, _DPHI0, _X0, lo)


# ------------------------------------------------- two-contact solve

def test_disk_oval_symmetric(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    assert abs(o.params.xi) < 1e-12
    assert abs(o.x0 + o.xhat) < 1e-10
    assert abs(o.lam - 1.204217501199189) < 1e-9
    assert max(o.residuals) < 1e-10
    assert o.p_first[1] < 0.3 and o.p_second[1] < 0.3
    assert abs(o.p_first[1] - 0.15) < 1e-10  # contact pinned at rho/2


def test_ellipse_minor_oval_symmetric(nellipse_minor):
    o = ov.construct_orthogonal_oval(nellipse_minor, 0.2)
    assert abs(o.params.xi) < 1e-12
    assert max(o.residuals) < 1e-8
    assert abs(o.lam - 0.522208619421) < 1e-9


def test_egg_oval_asymmetric(negg):
    o = ov.construct_orthogonal_oval(negg, 0.15)
    assert abs(o.params.xi) > 0.01
    assert max(o.residuals) < 1e-8
    assert o.p_first[1] < 0.15 and o.p_second[1] < 0.15
    assert abs(o.lam - 1.562692939008649) < 1e-9
    # independent verification: the second contact solves the level-set
    # equation and the normals align on a fine boundary grid re-check
    par = o.params
    E = np.exp(par.lam ** 2 * par.t)
    lhs = np.sin(par.lam * o.p_second[1])
    rhs = E * np.cosh(par.lam * (o.p_second[0] - par.xi))
    assert abs(lhs - rhs) < 1e-10


def test_oval_scale_bounds(ndisk, negg, nellipse_minor):
    for nd, rho in ((ndisk, 0.2), (negg, 0.2), (nellipse_minor, 0.2)):
        o = ov.construct_orthogonal_oval(nd, rho)
        kmax = max(nd.kappa1, nd.kappa2)
        assert o.lam > kmax
        assert o.params.xi <= 1e-9


def test_oval_convergence_to_limit(ndisk):
    lim = ov.compute_limits(ndisk.kappa1, ndisk.kappa2)
    rhos = (0.2, 0.1, 0.05, 0.025)
    errs = [abs(ov.construct_orthogonal_oval(ndisk, r).lam - lim.lambda0)
            for r in rhos]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    # clean second order in rho: Richardson removes the leading term
    lams = [ov.construct_orthogonal_oval(ndisk, r).lam for r in rhos]
    rich = (4 * lams[-1] - lams[-2]) / 3
    assert abs(rich - lim.lambda0) < 1e-3
    assert abs(rich - lim.lambda0) < 1e-6


def test_old_but_not_ancient_window_grows(ndisk):
    ts = [ov.construct_orthogonal_oval(ndisk, r).params.t
          for r in (0.2, 0.1, 0.05)]
    assert ts[0] > ts[1] > ts[2]  # smaller cap starts further in the past


@pytest.mark.parametrize("rho", [0.3, 0.1, 0.02])
def test_lobed_oval_positive_shift(nlobed, rho):
    # the shift is positive on this diameter (0.19 to 0.25), so the
    # construction must not assume xi <= 0 anywhere
    o = ov.construct_orthogonal_oval(nlobed, rho)
    assert max(o.residuals) <= 1e-12
    assert 0.15 < o.params.xi < 0.3
    pts = ov.sample_initial_curve(o, 200)
    assert np.all(nlobed.domain.contains(pts))


def _benchmark_diameters(egg, lobed):
    """(domain name, diameter index, normalized domain) for every diameter
    of the benchmark's five domains."""
    doms = {"disk": g.ConvexDomain.disk(1.0),
            "ellipse(2,1)": g.ConvexDomain.ellipse(2.0, 1.0),
            "ellipse(3,1)": g.ConvexDomain.ellipse(3.0, 1.0),
            "egg": egg, "lobed": lobed}
    for name, dom in doms.items():
        for i, d in enumerate(g.find_diameters(dom)):
            yield name, i, g.normalize(dom, d)


def test_oval_grid_builds_everywhere_it_can(egg, lobed):
    # every diameter of five domains at five rho: the only failure is the
    # line y = 0.3 missing the upper boundary of the flat 3:1 ellipse
    failures, built = [], 0
    for name, i, nd in _benchmark_diameters(egg, lobed):
        for rho in (0.3, 0.2, 0.1, 0.05, 0.02):
            try:
                o = ov.construct_orthogonal_oval(nd, rho)
            except FBCSFError as exc:
                failures.append((name, i, rho, type(exc).__name__))
                continue
            assert max(o.residuals) <= 1e-12, (name, i, rho)
            if name in ("disk", "ellipse(2,1)", "ellipse(3,1)"):
                # every diameter is a mirror axis: the oval is centred
                assert abs(o.params.xi) < 1e-8, (name, i, rho)
            built += 1
    assert failures == [("ellipse(3,1)", 0, 0.3, "RhoTooLarge")]
    assert built == 44


def test_small_rho_ovals_build_without_overflow(egg, lobed):
    # at these rho the xi = -1 scale solve tries scales where
    # cosh(lam (x0 + 1))^2 overflows; its residual must stay finite, with
    # no warning
    built = 0
    for name, i, nd in _benchmark_diameters(egg, lobed):
        for rho in (3e-3, 1e-3, 1e-4, 1e-6):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                o = ov.construct_orthogonal_oval(nd, rho)
            assert max(o.residuals) <= 1e-12, (name, i, rho)
            built += 1
    assert built == 36


@pytest.mark.parametrize("rho", [0.015, 0.01])
def test_moderate_rho_ovals_build_without_warning(egg, lobed, rho):
    # the xi = -1 solve's Brent iterate used to become a numpy scalar after
    # a tolerance step, and an overflowing extrapolation then warned on
    # every diameter but the ellipse(3,1) major axis
    built = 0
    for name, i, nd in _benchmark_diameters(egg, lobed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            o = ov.construct_orthogonal_oval(nd, rho)
        assert max(o.residuals) <= 1e-12, (name, i, rho)
        built += 1
    assert built == 9


def _oval_bits(o):
    """Every field of an OrthogonalOval as raw bytes."""
    return [np.asarray(v, dtype=float).tobytes()
            for v in dataclasses.astuple(o)]


def test_oval_rebuild_reuses_the_upper_arc(lobed, monkeypatch):
    # a fresh normalization, so the first build samples the upper arc
    nd = g.normalize(lobed, g.find_diameters(lobed)[0])
    first = ov.construct_orthogonal_oval(nd, 0.1)
    sizes = []
    point, point_xy = g.ConvexDomain.point, g.ConvexDomain.point_xy

    def counted(self, omega):
        sizes.append(np.size(omega))
        return point(self, omega)

    def counted_xy(self, omega):
        sizes.append(np.size(omega))
        return point_xy(self, omega)

    monkeypatch.setattr(g.ConvexDomain, "point", counted)
    monkeypatch.setattr(g.ConvexDomain, "point_xy", counted_xy)
    second = ov.construct_orthogonal_oval(nd, 0.1)
    assert sizes and max(sizes) <= 2
    assert _oval_bits(second) == _oval_bits(first)


def test_second_contact_just_past_a_sample_still_builds(egg, monkeypatch):
    # move the upper-arc sample before the egg's second contact to 4 ulps
    # short of it and read its height 1e-12 low: that sample then looks
    # past the crossing while dom.point puts the crossing just beyond it,
    # so the first bracket has no sign change
    nd = g.normalize(egg, g.find_diameters(egg)[0])
    first = ov.construct_orthogonal_oval(nd, 0.1)
    om, xs, ys = (a.copy() for a in nd.domain.upper_arc)
    j = int(np.searchsorted(om, first.omega_hat)) - 1
    om[j] = first.omega_hat - 4 * np.spacing(first.omega_hat)
    xs[j], ys[j] = nd.domain.point(om[j])
    ys[j] -= 1e-12
    monkeypatch.setitem(nd.domain.__dict__, "upper_arc", (om, xs, ys))
    second = ov.construct_orthogonal_oval(nd, 0.1)
    assert abs(second.omega_hat - first.omega_hat) < 1e-12
    assert abs(second.params.lam - first.params.lam) < 1e-9
    assert max(second.residuals) < 1e-10


def test_rho_too_large(ndisk):
    with pytest.raises(RhoTooLarge):
        ov.construct_orthogonal_oval(ndisk, 1.2)
    with pytest.raises(RhoTooLarge):
        ov.construct_orthogonal_oval(ndisk, -0.1)
    with pytest.raises(RhoTooLarge):
        ov.construct_orthogonal_oval(ndisk, np.inf)


def test_nan_rho_is_a_config_error(ndisk):
    with pytest.raises(ConfigError):
        ov.construct_orthogonal_oval(ndisk, np.nan)


@pytest.mark.parametrize("rho", ["0.1", None])
def test_non_real_rho_is_a_config_error(ndisk, rho):
    # each used to end in a bare TypeError from np.isnan
    with pytest.raises(ConfigError):
        ov.construct_orthogonal_oval(ndisk, rho)


@pytest.mark.parametrize("rho", [True, False])
def test_bool_rho_is_a_config_error(nellipse_minor, rho):
    # a bool is a numbers.Real: the minor axis's upper arc is 2 high, so
    # True used to build the oval at rho = 1.0 (and False ended in
    # RhoTooLarge)
    assert max(nellipse_minor.domain.upper_arc[2]) > 1.0
    with pytest.raises(ConfigError):
        ov.construct_orthogonal_oval(nellipse_minor, rho)


# ------------------------------------------- second-contact search

def test_upper_arcs_share_one_grid_and_store_x_once(negg, nlobed):
    # every domain's arc returns the one module grid of turning angles,
    # and its abscissas, decreasing along the arc, are a read-only view of
    # one increasing array, which the build's binary search reads as
    # xs[::-1]: the same stops as on a contiguous increasing copy
    arcs = [nd.domain.upper_arc for nd in (negg, nlobed)]
    assert arcs[0][0] is arcs[1][0] is g._UPPER_ARC_OMEGA
    for _, xs, _ in arcs:
        assert xs.base is not None and np.all(np.diff(xs.base) > 0.0)
        assert not (xs.flags.writeable or xs.base.flags.writeable)
        xs_inc = np.ascontiguousarray(xs[::-1])
        for xlim in (xs[0] + 1.0, xs[0], xs[100], 0.5 * (xs[4000] + xs[4001]),
                     0.0, xs[-1], xs[-1] - 1.0, np.nan):
            assert ov._gap_stop(xs[::-1], xlim) == ov._gap_stop(xs_inc, xlim)


def _full_scan(signs):
    """The first negative index of a row, or None."""
    neg = np.flatnonzero(signs < 0.0)
    return int(neg[0]) if len(neg) else None


def _counted_gap(row, reads):
    def gap(idx):
        reads.append(len(row[idx]))
        return row[idx]
    return gap


@pytest.mark.parametrize("start", [0, 3])
def test_first_negative_matches_the_full_scan_on_sign_rows(start):
    # every row of length 0 to 200 whose signs run non-negative (zeros of
    # both signs among them), then negative from index f, for every f:
    # all non-negative, all negative, negative only at the last index,
    # and negative only after the last coarse read among them
    S = ov._COARSE_STRIDE
    for n in range(201):
        for f in range(n + 1):
            row = np.empty(start + n)
            row[:start + f] = np.resize([1.0, 0.0, -0.0, 2.5], start + f)
            row[start + f:] = -1.0
            reads = []
            got = ov._first_negative(_counted_gap(row, reads), start,
                                     start + n)
            want = _full_scan(row[start:])
            assert got == (None if want is None else start + want), (n, f)
            assert len(reads) <= 2
            assert sum(reads) <= -(-n // S) + S - 1


def test_first_negative_on_stride_multiples():
    S = ov._COARSE_STRIDE
    for n in (S - 1, S, S + 1, 2 * S - 1, 2 * S, 2 * S + 1, 3 * S + 1):
        for f in (0, 1, S - 1, S, S + 1, n - 1, n):
            if not 0 <= f <= n:
                continue
            row = np.where(np.arange(n) < f, 0.5, -0.5)
            assert ov._first_negative(lambda i: row[i], 0, n) == \
                _full_scan(row), (n, f)


def _carried_cases(start, stop, first):
    """Carried indices for a row whose first negative index is first: none,
    outside the range, at either end, inside either run and at first."""
    cases = [None, start - 2, start - 1, start, start + 1, stop - 1, stop,
             stop + 3, (start + stop) // 2]
    if first is not None:
        cases += [first - 2, first - 1, first, first + 1, first + 5]
    return cases


@given(st.integers(0, 5), st.integers(0, 200), st.data())
@settings(max_examples=300, deadline=None)
def test_carried_bracket_is_the_scan(start, n, data):
    # rows whose signs run non-negative (zeros of both signs among them),
    # then negative: for every carried index the helper returns the scan's
    # index, and a kept index costs two scalar reads and no scan
    f = data.draw(st.integers(0, n), label="first negative offset")
    stop = start + n
    row = np.empty(stop + 4)
    row[:start + f] = np.resize(
        data.draw(st.sampled_from([[1.0, 0.0, -0.0, 2.5], [0.0], [-0.0],
                                   [3.0, 1e-300]]), label="non-negative"),
        start + f)
    row[start + f:] = np.resize(
        data.draw(st.sampled_from([[-1.0], [-1e-300, -2.0]]),
                  label="negative"), len(row) - start - f)
    want = ov._first_negative(lambda i: row[i], start, stop)
    first = start + f if f < n else None
    assert want == first
    for j in _carried_cases(start, stop, first):
        reads = []

        def gap(i):
            reads.append(np.ndim(i))
            return row[i]

        got = ov._carried_negative(gap, j, start, stop)
        assert got == want, (start, n, f, j)
        if j is not None and got == j and start < j < stop:
            assert reads == [0, 0], (start, n, f, j)


def _shift_scale(phi0, dphi0, x0, lam_lo, lam_hi):
    """The scale of shift xi = -1: the root of E^2 cosh^2(lam (x0 + 1)) -
    sin^2(lam phi0), with E^2 = sin^2(lam phi0) - cos^2(lam phi0)/phi'^2."""
    def f(lam):
        S, C = np.sin(lam * phi0), np.cos(lam * phi0)
        return (S * S - (C / dphi0) ** 2) * np.cosh(lam * (x0 + 1.0)) ** 2 \
            - S * S
    return ov.safe_brentq(f, lam_lo, lam_hi)


def test_second_contact_search_matches_the_masked_scan(egg, lobed):
    # on the gap rows of every benchmark diameter, at every rho of the
    # benchmark grid and 20 scales from lam* (xi = -1) to pi/(2 rho): the
    # searched samples are the masked scan's, the gap's signs run
    # non-negative then negative along them, and the search finds the
    # scan's first negative sample
    rows = 0
    for name, i, nd in _benchmark_diameters(egg, lobed):
        om_grid, xs, ys = nd.domain.upper_arc
        assert np.all(np.diff(xs) < 0.0)
        xs_rev = np.ascontiguousarray(xs[::-1])
        for rho in (0.3, 0.2, 0.1, 0.05, 0.02):
            try:
                o = ov.construct_orthogonal_oval(nd, rho)
            except RhoTooLarge:
                continue
            om0, (x0, phi0) = o.omega0, o.p_first
            dphi0 = float(np.tan(om0))
            lam_lo, _ = ov.admissible_interval(phi0, dphi0)
            lam_hat = np.pi / (2.0 * rho)
            lam_star = _shift_scale(phi0, dphi0, x0, lam_lo, lam_hat)
            start = int(np.searchsorted(om_grid, om0, "right")) + ov._GUARD
            for lam in np.linspace(lam_star, lam_hat, 20):
                par = ov.single_point_orthogonal(phi0, dphi0, x0, lam)
                xlim = par.xi - par.support_halfwidth
                sel = np.nonzero((om_grid > om0)
                                 & (xs >= max(xlim, xs[-1])))[0]
                sel = sel[ov._GUARD:] if len(sel) > ov._GUARD else sel[:0]
                stop = ov._gap_stop(xs_rev, xlim)
                assert np.array_equal(sel, np.arange(start, stop)), \
                    (name, i, rho, lam)
                d = ys[sel] - par.lower_height(xs[sel])
                neg = d < 0.0
                assert not np.any(neg[:-1] & ~neg[1:]), (name, i, rho, lam)
                want = _full_scan(d)
                got = ov._first_negative(
                    lambda j: ys[j] - par.lower_height(xs[j]),
                    start, stop)
                assert got == (None if want is None else sel[want]), \
                    (name, i, rho, lam)
                rows += 1
    assert rows == 44 * 20


def test_carried_bracket_builds_the_scan_ovals(egg, lobed, monkeypatch):
    # every benchmark diameter at eight rho down to 1e-6: carrying the
    # bracket between trial scales builds every oval bit for bit as a scan
    # at every scale does
    rhos = (0.3, 0.2, 0.1, 0.05, 0.02, 0.01, 1e-3, 1e-6)
    diameters = list(_benchmark_diameters(egg, lobed))

    def build_all():
        out = []
        for name, i, nd in diameters:
            for rho in rhos:
                try:
                    out.append(_oval_bits(ov.construct_orthogonal_oval(nd,
                                                                       rho)))
                except RhoTooLarge:
                    out.append((name, i, rho, "RhoTooLarge"))
        return out

    carried = build_all()
    monkeypatch.setattr(ov, "_carried_negative",
                        lambda gap, j, start, stop:
                        ov._first_negative(gap, start, stop))
    scanned = build_all()
    assert carried == scanned
    assert [b for b in carried if isinstance(b, tuple)] == \
        [("ellipse(3,1)", 0, 0.3, "RhoTooLarge")]
    assert len(carried) == 9 * len(rhos)


def test_disk_build_evaluates_each_boundary_point_once(disk, monkeypatch):
    # a fresh normalization, its upper arc sampled by a first build
    nd = g.normalize(disk, g.find_diameters(disk)[0])
    first = ov.construct_orthogonal_oval(nd, 0.1)
    calls, scales = [], []
    point, place = g.ConvexDomain.point_xy, ov.single_point_orthogonal

    def counted_point(self, omega):
        calls.append(omega)
        return point(self, omega)

    def counted_place(phi0, dphi0, x0, lam):
        scales.append(lam)
        return place(phi0, dphi0, x0, lam)

    monkeypatch.setattr(g.ConvexDomain, "point_xy", counted_point)
    monkeypatch.setattr(ov, "single_point_orthogonal", counted_place)
    second = ov.construct_orthogonal_oval(nd, 0.1)
    assert _oval_bits(second) == _oval_bits(first)
    # 71 calls when every Brent iterate, end and contact read its own point
    assert 0 < len(calls) <= 50
    assert len(set(calls)) == len(calls)
    # one placement, so one angle residual, per trial scale
    assert len(set(scales)) == len(scales)


def test_egg_build_work_counts(egg, monkeypatch):
    # one build on a domain whose per-domain values (normalization, upper
    # arc, its reversed abscissas) are set: of its 9 trial scales, 4 keep
    # the bracket carried from the scale before, so 5 scan; the 38
    # point_xy calls are the build's own one-angle reads (the
    # normalization read made 39 per build), and it makes no point call
    nd = g.normalize(egg, g.find_diameters(egg)[0])
    first = ov.construct_orthogonal_oval(nd, 0.1)
    scans, points, arrays, scales = [], [], [], []
    scan, point, point_xy, place = (ov._first_negative, g.ConvexDomain.point,
                                    g.ConvexDomain.point_xy,
                                    ov.single_point_orthogonal)

    def counted_scan(gap, start, stop):
        scans.append((start, stop))
        return scan(gap, start, stop)

    def counted_point(self, omega):
        arrays.append(np.size(omega))
        return point(self, omega)

    def counted_point_xy(self, omega):
        points.append(np.size(omega))
        return point_xy(self, omega)

    def counted_place(phi0, dphi0, x0, lam):
        scales.append(lam)
        return place(phi0, dphi0, x0, lam)

    monkeypatch.setattr(ov, "_first_negative", counted_scan)
    monkeypatch.setattr(g.ConvexDomain, "point", counted_point)
    monkeypatch.setattr(g.ConvexDomain, "point_xy", counted_point_xy)
    monkeypatch.setattr(ov, "single_point_orthogonal", counted_place)
    second = ov.construct_orthogonal_oval(nd, 0.1)
    assert _oval_bits(second) == _oval_bits(first)
    assert len(scales) == 9
    assert len(scans) == 5
    assert len(points) == 38 and set(points) == {1}
    assert arrays == []


# ------------------------------------------------------ initial curve

def test_sample_initial_curve_uniform(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    pts = ov.sample_initial_curve(o, 200)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert seg.max() / seg.min() - 1 < 1e-5
    assert np.all(np.diff(pts[:, 0]) > 0)
    assert np.allclose(pts[0], o.p_second, atol=0)
    assert np.allclose(pts[-1], o.p_first, atol=0)


def test_sample_initial_curve_endpoint_tangents(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    par = o.params
    for om, xe in ((o.omega_hat, o.xhat), (o.omega0, o.x0)):
        s = par.lower_slope(np.array([xe]))[0]
        t = np.array([1.0, s]) / np.hypot(1.0, s)
        n_in = np.array([-np.sin(om), np.cos(om)])   # inward normal
        assert min(np.linalg.norm(t - n_in), np.linalg.norm(t + n_in)) < 1e-6


def test_sample_initial_curve_secant_tangent_converges(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    n_in = np.array([-np.sin(o.omega0), np.cos(o.omega0)])
    errs = []
    for n in (100, 200, 400):
        pts = ov.sample_initial_curve(o, n)
        t = pts[-1] - pts[-2]
        t /= np.linalg.norm(t)
        errs.append(np.linalg.norm(-t - n_in))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2.1 * errs[1] / 2 < 2.1 * errs[0] / 4


def test_sample_initial_curve_mirror_symmetry(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    pts = ov.sample_initial_curve(o, 129)
    mir = pts[::-1].copy()
    mir[:, 0] = 2 * o.params.xi - mir[:, 0]
    assert np.abs(mir - pts).max() < 1e-10


def _seg_dist(P, A, B):
    d = B - A
    tt = np.clip(((P - A) @ d) / (d @ d), 0.0, 1.0)
    return np.linalg.norm(P - (A + tt[:, None] * d), axis=1)


def _poly_hausdorff(A, B):
    def side(P, Q):
        m = np.full(len(P), np.inf)
        for i in range(len(Q) - 1):
            m = np.minimum(m, _seg_dist(P, Q[i], Q[i + 1]))
        return m.max()
    return max(side(A, B), side(B, A))


def test_sample_initial_curve_refinement(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    p16 = ov.sample_initial_curve(o, 16)
    p512 = ov.sample_initial_curve(o, 512)
    assert _poly_hausdorff(p16, p512) < 1e-3


def test_sample_initial_curve_min_nodes(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    with pytest.raises(ConfigError):
        ov.sample_initial_curve(o, 15)


def test_sample_initial_curve_node_count_is_an_integer(ndisk):
    o = ov.construct_orthogonal_oval(ndisk, 0.3)
    for n in (100.0, True, np.bool_(True), "100", None):
        with pytest.raises(ConfigError):
            ov.sample_initial_curve(o, n)
    assert np.array_equal(ov.sample_initial_curve(o, np.int64(16)),
                          ov.sample_initial_curve(o, 16))
