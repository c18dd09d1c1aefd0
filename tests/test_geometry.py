import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcsf import geometry as g
from fbcsf.errors import ConfigError, NonClosing, NonConvex


# ---------------------------------------------------------------- disk

def test_disk_point_and_measures(disk):
    assert np.allclose(disk.point(np.pi / 2), [1.0, 0.0], atol=1e-14)
    assert np.allclose(disk.point(np.pi), [0.0, 1.0], atol=1e-14)
    assert abs(disk.perimeter - 2 * np.pi) < 1e-13
    assert abs(disk.area - np.pi) < 1e-13
    w = np.linspace(0, 2 * np.pi, 17)
    assert np.allclose(disk.curvature(w), 1.0, atol=1e-14)


def test_disk_periodic_closure(disk):
    gap = disk.point(0.0) - disk.point(2 * np.pi)
    assert np.hypot(*gap) < 1e-13


def test_disk_kappa_extremes(disk):
    assert abs(disk.kappa_min - 1.0) < 1e-12
    assert abs(disk.kappa_max - 1.0) < 1e-12


# ------------------------------------------------------------- closure

def test_first_harmonic_rejected():
    with pytest.raises(NonClosing) as ei:
        g.ConvexDomain([1.0, 0.5], [0.0])
    assert abs(ei.value.residual - 0.5 * np.pi) < 1e-12


def test_nonconvex_rejected():
    # large second harmonic drives the radius of curvature negative
    with pytest.raises(NonConvex):
        g.ConvexDomain([1.0, 0.0, 1.2], [0.0])


# ------------------------------------------------------------- ellipse

def test_ellipse_curvature_and_points(ellipse):
    # radius of curvature a^2 b^2 / (a^2 sin^2 w + b^2 cos^2 w)^{3/2}
    assert abs(ellipse.curvature(np.pi / 2) - 2.0) < 1e-12
    assert abs(ellipse.curvature(0.0) - 0.25) < 1e-12
    assert np.allclose(ellipse.point(0.0), [0.0, -1.0], atol=1e-12)
    assert np.allclose(ellipse.point(np.pi / 2), [2.0, 0.0], atol=1e-12)


def test_ellipse_perimeter_oracle(ellipse):
    # complete elliptic integral value for a=2, b=1
    assert abs(ellipse.perimeter - 9.688448220547677) < 1e-12


def test_ellipse_area(ellipse):
    assert abs(ellipse.area - 2 * np.pi) < 1e-11


def test_flat_ellipse_area_is_exact(flat_ellipse):
    # the closed form in the coefficients gives 3 pi to the last bit
    assert flat_ellipse.area == 3 * np.pi


@pytest.mark.parametrize("fix", ["egg", "lobed"])
def test_area_matches_greens_theorem(fix, request):
    # (1/2) int x y' - y x' by the periodic trapezoid rule on 1,024 angles,
    # exact for these trig polynomials up to rounding (measured 4.4e-16)
    dom = request.getfixturevalue(fix)
    om = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    (x, y), (dx, dy) = dom.point(om).T, dom.dpoint(om).T
    green = np.pi * float(np.mean(x * dy - y * dx))
    assert abs(dom.area - green) < 4e-15


def test_ellipse_diameters(ellipse):
    ds = g.find_diameters(ellipse)
    assert len(ds) == 2
    assert abs(ds[0].length - 4.0) < 1e-9
    assert abs(ds[1].length - 2.0) < 1e-9
    assert ds[0].kind == "max"
    assert ds[1].kind == "min"
    assert not ds[0].degenerate


def test_ellipse_normalized_curvatures(ellipse):
    ds = g.find_diameters(ellipse)
    major = g.normalize(ellipse, ds[0])
    minor = g.normalize(ellipse, ds[1])
    assert abs(major.kappa1 - 4.0) < 1e-11
    assert abs(major.kappa2 - 4.0) < 1e-11
    assert abs(minor.kappa1 - 0.25) < 1e-11
    assert abs(minor.kappa2 - 0.25) < 1e-11


def test_normalized_domain_shape(ndisk):
    dom = ndisk.domain
    assert dom.is_normalized
    assert np.allclose(dom.point(np.pi / 2), [1.0, 0.0], atol=1e-10)
    assert np.allclose(dom.point(3 * np.pi / 2), [-1.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("name", ["egg", "ellipse"])
def test_normalize_is_the_recorded_similarity(name, request):
    # the normalized boundary is the similarity image of the original one,
    # with turning angles shifted by the rotation (measured <= 6.7e-16)
    dom = request.getfixturevalue(name)
    w = np.linspace(0.0, 2 * np.pi, 97)
    for d in g.find_diameters(dom):
        nd = g.normalize(dom, d)
        tr = nd.transform
        want = tr.apply(dom.point(w - tr.rotation))
        assert np.max(np.abs(nd.domain.point(w) - want)) < 1e-12


def test_normalize_builds_and_checks_one_domain(lobed, monkeypatch):
    # the rotated boundary is only read at the diameter's two ends, so
    # normalize builds (and convexity-checks) just the normalized domain
    checked = []
    check = g.ConvexDomain._check_convex

    def counted(dom):
        checked.append(dom)
        return check(dom)

    monkeypatch.setattr(g.ConvexDomain, "_check_convex", counted)
    nd = g.normalize(lobed, g.find_diameters(lobed)[0])
    assert checked == [nd.domain]
    assert nd.domain.is_normalized


# ------------------------------------------------------ point samples

@pytest.mark.parametrize("name", ["disk", "flat_ellipse", "egg", "lobed"])
def test_upper_arc_is_point_on_the_fixed_grid(name, request):
    dom = request.getfixturevalue(name)
    om, x, y = dom.upper_arc
    want_om = np.linspace(np.pi / 2, 3 * np.pi / 2, 8193)
    want = dom.point(want_om)
    assert om.tobytes() == want_om.tobytes()
    assert x.tobytes() == np.ascontiguousarray(want[:, 0]).tobytes()
    assert y.tobytes() == np.ascontiguousarray(want[:, 1]).tobytes()
    assert dom.upper_arc[1] is x  # computed once, then shared
    for arr in (om, x, y):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(st.floats(-50.0, 50.0))
def test_point_of_one_angle_matches_array_path(disk, flat_ellipse, egg,
                                               lobed, w):
    # a Python float, a numpy scalar and a 0-d array all take the one-angle
    # path, which must reproduce the array path on one angle bit for bit;
    # point_xy is that path as two Python floats
    for dom in (disk, flat_ellipse, egg, lobed):
        want = dom.point(np.array([w]))[0].tobytes()
        xy = dom.point_xy(w)
        assert len(xy) == 2 and all(type(v) is float for v in xy)
        for arg in (w, np.float64(w), np.array(w)):
            p = dom.point(arg)
            assert p.shape == (2,)
            assert p.tobytes() == want
            assert [v.hex() for v in xy] == [float(v).hex() for v in p]


# ------------------------------------------------ blocked array synthesis

_BENCHMARK_DOMAINS = ("disk", "ellipse", "flat_ellipse", "egg", "lobed")



def _one_call_point(dom, omega):
    """ConvexDomain.point's array path as one call: the whole angles x
    harmonics matrix at once, the form that the blocks replaced."""
    ang = np.multiply.outer(np.asarray(omega, dtype=float), dom._m)
    s = np.sin(ang)
    c = np.cos(ang, out=ang)
    px_c, px_s, py_c, py_s = dom._prims
    x = c @ px_c + s @ px_s + dom.center[0]
    y = c @ py_c + s @ py_s + dom.center[1]
    return np.stack([x, y], axis=-1)


def _one_call_series(cos_c, sin_c, omega):
    """_eval_series as one call, the form that the blocks replaced."""
    m = np.arange(len(cos_c))
    ang = np.multiply.outer(np.asarray(omega, dtype=float), m)
    return np.cos(ang) @ cos_c + np.sin(ang) @ sin_c


def _array_forms(dom):
    """(name, blocked form, one-call form, harmonic count, size of the
    series' terms) for point, rho and drho of dom."""
    k = np.arange(len(dom.a))
    dc, ds = k * dom.b, -k * dom.a
    size = sum(np.sum(np.abs(p)) for p in dom._prims)
    size += np.sum(np.abs(dom.center))
    return [
        ("point", dom.point, lambda w: _one_call_point(dom, w), len(dom._m),
         size),
        ("rho", dom.rho, lambda w: _one_call_series(dom.a, dom.b, w),
         len(dom.a), np.sum(np.abs(dom.a)) + np.sum(np.abs(dom.b))),
        ("drho", dom.drho, lambda w: _one_call_series(dc, ds, w),
         len(dom.a), np.sum(np.abs(dc)) + np.sum(np.abs(ds))),
    ]


@pytest.mark.parametrize("name", _BENCHMARK_DOMAINS)
def test_synthesis_within_one_block_is_the_one_call_bytes(name, request):
    # up to _SERIES_BLOCK angle-harmonic products the array is one block,
    # taken as given: 1-D and 2-D, the bytes of one call
    dom = request.getfixturevalue(name)
    rng = np.random.default_rng(5)
    for _, blocked, one_call, K, _ in _array_forms(dom):
        n = g._SERIES_BLOCK // K
        for shape in ((n,), (1,), (7,), (3, n // 3), (n // 5, 5)):
            w = rng.uniform(-7.0, 7.0, shape)
            assert blocked(w).tobytes() == one_call(w).tobytes()


@pytest.mark.parametrize("name", ["disk", "egg", "lobed"])
def test_small_domains_arcs_are_one_block(name, request):
    # every array the disk, the egg and the lobed domain evaluate is one
    # block (the 4,096-angle wall grids are smaller than the arc's), so
    # they keep the one-call bytes
    dom = request.getfixturevalue(name)
    assert g._UPPER_ARC_SAMPLES * len(dom._m) <= g._SERIES_BLOCK
    om, x, y = dom.upper_arc
    want = _one_call_point(dom, om)
    assert x.tobytes() == np.ascontiguousarray(want[:, 0]).tobytes()
    assert y.tobytes() == np.ascontiguousarray(want[:, 1]).tobytes()


def _block_rows(K):
    """The angles per block of an array of K harmonics: whole groups of
    _SERIES_ROWS, at most _SERIES_BLOCK products."""
    return g._SERIES_BLOCK // K // g._SERIES_ROWS * g._SERIES_ROWS


@pytest.mark.parametrize("name", ["ellipse", "flat_ellipse"])
def test_synthesis_across_blocks_is_the_one_call_on_each_block(name,
                                                               request):
    # the upper arc's grid takes 9 to 14 blocks on the ellipses
    dom = request.getfixturevalue(name)
    om = np.linspace(np.pi / 2, 3 * np.pi / 2, g._UPPER_ARC_SAMPLES)
    for _, blocked, one_call, K, _ in _array_forms(dom):
        rows = _block_rows(K)
        assert rows * K <= g._SERIES_BLOCK and len(om) > 8 * rows
        want = np.concatenate([one_call(om[i:i + rows])
                               for i in range(0, len(om), rows)])
        assert blocked(om).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["ellipse", "flat_ellipse"])
def test_synthesis_across_blocks_is_within_ulps_of_one_call(name, request):
    # whole row groups per block: the bytes of one call on one BLAS
    # thread; one call on two threads moved one entry of 8,193 on three of
    # the four ellipse arcs, by 2.5e-32 to 4.9e-32 (a cancelling entry's
    # last bit), where the blocks read the same on one to four threads
    dom = request.getfixturevalue(name)
    om = np.linspace(np.pi / 2, 3 * np.pi / 2, g._UPPER_ARC_SAMPLES)
    for _, blocked, one_call, _, size in _array_forms(dom):
        err = np.max(np.abs(blocked(om) - one_call(om)))
        assert err <= 4.0 * np.finfo(float).eps * size


@pytest.mark.parametrize("shape", [(), (0,), (0, 3), (1,), (9,), (4, 3),
                                   (40, 30)])
def test_synthesis_keeps_the_angle_shape(flat_ellipse, shape):
    # (40, 30) takes two or three blocks of the flattened angles
    w = np.random.default_rng(2).uniform(-7.0, 7.0, shape)
    dom = flat_ellipse
    for name, blocked, one_call, _, size in _array_forms(dom):
        got = blocked(w)
        want_shape = shape + (2,) if name == "point" else shape
        assert np.shape(got) == want_shape
        assert np.all(np.abs(got - one_call(w))
                      <= 4.0 * np.finfo(float).eps * size)
    assert dom.dpoint(w).shape == shape + (2,)
    assert np.shape(dom.curvature(w)) == shape
    if np.size(w) * len(dom._m) > g._SERIES_BLOCK:
        assert dom.point(w).tobytes() == dom.point(w.ravel()).tobytes()


def test_upper_arc_memory_is_bounded_by_the_blocks(flat_ellipse):
    # fresh normalizations of the ellipse(3,1) major axis, 108 position
    # terms: measured peak 1.24 MB, two block matrices of 0.51 MB and
    # the arc; 2.29 MB with a block's matrices alive while the next ones
    # are formed, 14.5 MB as one call
    d = g.find_diameters(flat_ellipse)[0]
    g.normalize(flat_ellipse, d).domain.upper_arc
    dom = g.normalize(flat_ellipse, d).domain
    tracemalloc.start()
    try:
        dom.upper_arc
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


# --------------------------------------------------- FFT-sampled scans

def _assert_samples_match(cos_c, sin_c, n):
    w = np.arange(n) * (2 * np.pi / n)
    want = g._eval_series(cos_c, sin_c, w)
    got = g._sample_series(cos_c, sin_c, n)
    tol = 1e-13 * (np.sum(np.abs(cos_c)) + np.sum(np.abs(sin_c[1:])))
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("name", _BENCHMARK_DOMAINS)
def test_sample_series_is_the_series_on_the_full_period(name, request):
    # rho, drho and both position series, each on the grid its scan uses
    dom = request.getfixturevalue(name)
    K = len(dom.a) - 1
    k = np.arange(K + 1)
    _assert_samples_match(dom.a, dom.b, max(2048, 16 * K))
    _assert_samples_match(k * dom.b, -k * dom.a, max(4096, 32 * K))
    px_c, px_s, py_c, py_s = dom._prims
    _assert_samples_match(px_c, px_s, 2 * g._NSCAN)
    _assert_samples_match(py_c, py_s, 2 * g._NSCAN)


@pytest.mark.parametrize("K", [0, 1, 2, 7, 64, 150, 300])
def test_sample_series_on_random_coefficients(K):
    rng = np.random.default_rng(K)
    cos_c = rng.standard_normal(K + 1)
    sin_c = rng.standard_normal(K + 1)
    # the smallest grids the precondition allows, odd and even, and a
    # larger one
    for n in (2 * K + 1, 2 * K + 2, 4 * K + 7):
        _assert_samples_match(cos_c, sin_c, n)


def _reference_primitives(a, b):
    """geometry._primitives as a loop over the harmonics."""
    n = len(a) + 1
    px_c, px_s, py_c, py_s = (np.zeros(n) for _ in range(4))
    px_s[1] += a[0]
    py_c[1] -= a[0]
    for k in range(2, len(a)):
        ak, bk = a[k], b[k]
        px_s[k - 1] += ak / (2 * (k - 1))
        px_s[k + 1] += ak / (2 * (k + 1))
        px_c[k + 1] -= bk / (2 * (k + 1))
        px_c[k - 1] -= bk / (2 * (k - 1))
        py_c[k + 1] -= ak / (2 * (k + 1))
        py_c[k - 1] += ak / (2 * (k - 1))
        py_s[k - 1] += bk / (2 * (k - 1))
        py_s[k + 1] -= bk / (2 * (k + 1))
    return px_c, px_s, py_c, py_s


def _assert_primitives_match_the_loop(a, b):
    for got, want in zip(g._primitives(a, b), _reference_primitives(a, b)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name", _BENCHMARK_DOMAINS)
def test_primitives_match_the_loop_on_benchmark_domains(name, request):
    dom = request.getfixturevalue(name)
    _assert_primitives_match_the_loop(dom.a, dom.b)


@pytest.mark.parametrize("K", [0, 1, 2, 3, 4, 7, 64, 150, 300])
def test_primitives_match_the_loop_on_random_coefficients(K):
    # sparse coefficients with signed zeros among them, so that entries
    # summing two zero terms keep the loop's sign too
    rng = np.random.default_rng(K)
    for _ in range(5):
        a, b = (rng.standard_normal(K + 1) * (rng.random(K + 1) < 0.5)
                for _ in range(2))
        a[rng.random(K + 1) < 0.3] = -0.0
        b[rng.random(K + 1) < 0.3] = -0.0
        _assert_primitives_match_the_loop(a, b)


def _reference_find_diameters(domain):
    """find_diameters as a per-sample scan of the residual evaluated by
    the direct series on the grid."""
    grid = np.linspace(0.0, np.pi, g._NSCAN, endpoint=False)
    gv = domain.double_normal_residual(grid)
    if np.max(np.abs(gv)) < g._DEGENERATE_TOL * max(1.0, domain.perimeter):
        return [g._make_diameter(domain, np.pi / 2, degenerate=True)]
    roots = []
    gw = np.append(gv, gv[0])
    gridw = np.append(grid, np.pi)
    for i in range(g._NSCAN):
        v0, v1 = gw[i], gw[i + 1]
        if v0 == 0.0:
            roots.append(gridw[i])
        elif v0 * v1 < 0.0:
            try:
                root = g.safe_brentq(
                    lambda w: float(domain.double_normal_residual(w)),
                    gridw[i], gridw[i + 1])
            except g.BracketFailure:
                root = gridw[i] if abs(v0) <= abs(v1) else gridw[i + 1]
            roots.append(root)
    merged = []
    for r in sorted(r % np.pi for r in roots):
        if not (merged and abs(r - merged[-1]) < 1e-6):
            merged.append(r)
    if len(merged) > 1 and (merged[0] + np.pi) - merged[-1] < 1e-6:
        merged.pop()
    out = [g._make_diameter(domain, r, degenerate=False) for r in merged]
    out.sort(key=lambda d: -d.length)
    return out


@pytest.mark.parametrize("name", _BENCHMARK_DOMAINS
                         + ("ellipse(1.5,1)", "ellipse(2.4,1)"))
def test_find_diameters_matches_the_per_sample_scan(name, request):
    if name in _BENCHMARK_DOMAINS:
        dom = request.getfixturevalue(name)
    else:
        dom = g.ConvexDomain.ellipse(float(name[8:11]), 1.0)
    got = g.find_diameters(dom)
    want = _reference_find_diameters(dom)
    if name == "egg":
        # g(0) = int_0^pi rho(u) cos u du = 0 exactly for this rho: the
        # synthesized residual is an exact zero there, where the direct
        # series reads -1.5e-16 and Brent refines to 5.0e-16
        assert got[1].omega_plus == 0.0 and 0.0 < want[1].omega_plus < 1e-15
        assert (got[1].length, got[1].kind) == (want[1].length, want[1].kind)
        got, want = got[:1], want[:1]
    assert got == want


def test_find_diameters_past_the_scan_grid():
    # position harmonics up to 2050 > _NSCAN: the series is synthesized on
    # twice the grid and read at every other sample
    a = np.zeros(2050)
    a[[0, 2, 2049]] = 1.0, 0.2, 1e-3
    b = np.zeros(4)
    b[3] = 0.1
    dom = g.ConvexDomain(a, b)
    assert len(dom._prims[0]) - 1 > g._NSCAN
    ds = g.find_diameters(dom)
    assert len(ds) == 2
    assert abs(ds[0].length - 32.0 / 15.0) < 1e-6
    assert abs(ds[1].length - 28.0 / 15.0) < 1e-6
    for d in ds:
        assert abs(dom.double_normal_residual(d.omega_plus)) < 1e-12


# ----------------------------------------------------------------- egg

def test_egg_has_exactly_two_diameters(egg):
    ds = g.find_diameters(egg)
    assert len(ds) == 2
    assert abs(ds[0].length - 32.0 / 15.0) < 1e-9
    assert abs(ds[1].length - 28.0 / 15.0) < 1e-9


def test_egg_normalized_curvatures(negg):
    assert abs(negg.kappa1 - 1.5238095238095237) < 1e-9
    assert abs(negg.kappa2 - 1.1851851851851851) < 1e-9


def test_egg_diameter_orthogonality(egg):
    for d in g.find_diameters(egg):
        r = egg.double_normal_residual(d.omega_plus)
        assert abs(r) < 1e-9


# ---------------------------------------------------- degenerate disk

def test_disk_degenerate_diameter(disk):
    ds = g.find_diameters(disk)
    assert len(ds) == 1
    assert ds[0].degenerate
    assert abs(ds[0].length - 2.0) < 1e-12
    assert abs(ds[0].omega_plus - np.pi / 2) < 1e-12


# ------------------------------------------------------ constructors

def test_from_radius_function_ellipse_match(ellipse):
    rho = lambda w: 4.0 / (4 * np.sin(w) ** 2 + np.cos(w) ** 2) ** 1.5
    dom = g.ConvexDomain.from_radius_function(rho)
    w = np.linspace(0, 2 * np.pi, 33)
    assert np.allclose(dom.curvature(w), ellipse.curvature(w), atol=1e-10)


# ------------------------------------------------------- properties

coeff = st.floats(-0.04, 0.04, allow_nan=False, allow_infinity=False)


@st.composite
def small_domains(draw):
    a = [1.0, 0.0] + [draw(coeff) for _ in range(3)]
    b = [0.0, 0.0] + [draw(coeff) for _ in range(3)]
    return g.ConvexDomain(a, b)


@settings(max_examples=25, deadline=None)
@given(small_domains())
def test_perimeter_closure_consistency(dom):
    # perimeter equals the mean radius of curvature times 2 pi
    assert abs(dom.perimeter - 2 * np.pi * dom.a[0]) < 1e-10
    gap = dom.point(0.0) - dom.point(2 * np.pi)
    assert np.hypot(*gap) < 1e-10


@settings(max_examples=25, deadline=None)
@given(small_domains(), st.floats(0.0, 2 * np.pi))
def test_point_derivative_is_rho_tangent(dom, w):
    h = 1e-6
    fd = (dom.point(w + h) - dom.point(w - h)) / (2 * h)
    want = dom.rho(w) * np.array([np.cos(w), np.sin(w)])
    assert np.allclose(fd, want, atol=1e-6)


@settings(max_examples=15, deadline=None)
@given(small_domains())
def test_diameter_count_and_residuals(dom):
    ds = g.find_diameters(dom)
    assert len(ds) >= 1
    for d in ds:
        if not d.degenerate:
            assert abs(dom.double_normal_residual(d.omega_plus)) < 1e-8


def test_diameter_at_a_grid_point_is_found():
    # mirror symmetric: a double normal sits at pi/4, a scan grid point,
    # where the grid residual is +tiny and the one-angle residual -2.2e-16
    dom = g.ConvexDomain([1.5, 0.0, 0.0, 0.05665172106668734,
                          0.05614290591082362])
    ds = g.find_diameters(dom)
    assert sorted(d.omega_plus for d in ds) == pytest.approx(
        [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4], abs=1e-12)
    for d in ds:
        assert abs(dom.double_normal_residual(d.omega_plus)) < 1e-12


@settings(max_examples=15, deadline=None)
@given(small_domains(), st.floats(0.1, 6.0))
def test_diameter_lengths_scale_invariant(dom, s):
    big = g.ConvexDomain(dom.a * s, dom.b * s)
    d0 = g.find_diameters(dom)
    d1 = g.find_diameters(big)
    assert len(d0) == len(d1)
    for a, b in zip(d0, d1):
        assert abs(b.length - s * a.length) < 1e-7 * max(1.0, s)


@settings(max_examples=10, deadline=None)
@given(small_domains())
def test_normalize_puts_diameter_on_axis(dom):
    nd = g.normalize(dom, g.find_diameters(dom)[0])
    p = nd.domain.point(np.pi / 2)
    q = nd.domain.point(3 * np.pi / 2)
    assert np.allclose(p, [1.0, 0.0], atol=1e-8)
    assert np.allclose(q, [-1.0, 0.0], atol=1e-8)
    assert nd.kappa1 > 0 and nd.kappa2 > 0
