"""The limiting scales (oval.compute_limits) and the Robin spectrum
(asymptotics.robin_eigen) against the versions they replaced, kept here as
references: objectives on 0-d arrays and numpy scalars, sigma solved twice
on a chord of unequal curvatures, the Brent loop with brentq.c's every
zero test, root scans read in full, and both basis terms of every mode.
Every limit, eigenpair and flag must match them bit for bit, every solve
they keep must take the same iterates, the scans must read only the
samples the spectrum reports, and the steep chords on which the
references raise NoRoot, miss a root or divide 0 by 0 must solve."""

import math
import warnings
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fbcsf import asymptotics, geometry, oval
from fbcsf.errors import BracketFailure, InvalidScale, NoRoot
from test_bench_workloads import bench_modules


# ---------------------------------------------------------------------------
# references: the solver, the limits and the spectrum as they were


def _reference_safe_brentq(f, a, b):
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb):
        raise BracketFailure(
            f"NaN at an end of [{a:.6g}, {b:.6g}]: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketFailure(
            f"no sign change on [{a:.6g}, {b:.6g}]: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    rtol, xtol, maxiter = 4 * float(np.finfo(float).eps), 1e-15, 200
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise BracketFailure(f"NaN at x = {xcur!r}")
    raise BracketFailure(f"no convergence in {maxiter} iterations")


def _reference_solve_sigma(kappa):
    def f(s):
        return s * np.tanh(s) - kappa

    hi = max(np.sqrt(kappa), kappa) + 2.0
    return float(_reference_safe_brentq(f, 1e-14, hi))


def _reference_lambda0_residual(lam, kappa1, kappa2):
    lam = np.asarray(lam, dtype=float)
    return (lam ** 2 - lam * (kappa1 + kappa2) / np.tanh(2.0 * lam)
            + kappa1 * kappa2)


def _reference_solve_lambda0(kappa1, kappa2):
    kmax = max(kappa1, kappa2)
    if oval._equal_curvatures(kappa1, kappa2):
        return _reference_solve_sigma(0.5 * (kappa1 + kappa2))
    sigma = _reference_solve_sigma(kmax)
    lo = kmax
    hi = sigma + max(1e-10, 1e-10 * sigma)
    flo = _reference_lambda0_residual(lo, kappa1, kappa2)
    fhi = _reference_lambda0_residual(hi, kappa1, kappa2)
    if flo >= 0 or fhi <= 0:
        raise NoRoot(f"no sign change on [{lo:.6g}, {hi:.6g}]")
    return float(_reference_safe_brentq(
        lambda s: float(_reference_lambda0_residual(s, kappa1, kappa2)),
        lo, hi))


def _reference_compute_limits(kappa1, kappa2):
    lam0 = _reference_solve_lambda0(kappa1, kappa2)
    return oval.Limits(lambda0=lam0, xi0=oval.xi0(lam0, kappa1),
                       sigma=_reference_solve_sigma(max(kappa1, kappa2)))


def _reference_basis(mu, x):
    s = np.sqrt(abs(mu))
    if mu < 0:
        return np.cosh(s * x), np.sinh(s * x)
    return np.cos(s * x), np.sin(s * x)


def _reference_robin_rows(mu, kappa1, kappa2):
    s = np.sqrt(abs(mu))
    even, odd = _reference_basis(mu, 1.0)
    d_even, d_odd = np.copysign(s, -mu) * odd, s * even
    return [(d_even - kappa1 * even, d_odd - kappa1 * odd),
            (kappa2 * even - d_even, d_odd - kappa2 * odd)]


def _reference_pos_secular(s, k1, k2):
    c, sn = np.cos(s), np.sin(s)
    return ((k1 * c + s * sn) * (s * c - k2 * sn)
            + (s * sn + k2 * c) * (s * c - k1 * sn))


def _reference_pair(mu, k1, k2, grid):
    p, q = max(_reference_robin_rows(mu, k1, k2),
               key=lambda r: abs(r[0]) + abs(r[1]))
    a, b = (q, -p) if q >= 0 else (-q, p)
    if oval._equal_curvatures(k1, k2):
        if abs(a) >= abs(b):
            b = 0.0
        else:
            a = 0.0
    even, odd = _reference_basis(mu, grid)
    phi = a * even + b * odd
    scale = np.max(np.abs(phi))
    return asymptotics.EigenPair(mu, (float(a / scale), float(b / scale))), phi


def _reference_roots(f, samples):
    sign = np.sign(f(samples))
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        yield _reference_safe_brentq(f, float(samples[i]),
                                     float(samples[i + 1]))


def _reference_robin_eigen(kappa1, kappa2):
    grid = np.linspace(-1.0, 1.0, 1001)
    kmax = max(kappa1, kappa2)
    if oval._equal_curvatures(kappa1, kappa2):
        k = 0.5 * (kappa1 + kappa2)
        below = _reference_roots(lambda s: s - k * np.tanh(s),
                                 np.linspace(1e-6, kmax, 4001))
    else:
        below = _reference_roots(
            lambda s: _reference_lambda0_residual(s, kappa1, kappa2),
            np.linspace(1e-6, kmax, 4001))
    negatives = [_reference_pair(-s * s, kappa1, kappa2, grid)
                 for s in (_reference_solve_lambda0(kappa1, kappa2), *below)]
    hi = (asymptotics._POSITIVE_EIGEN + 2) * np.pi + kmax
    above = _reference_roots(
        lambda s: _reference_pos_secular(s, kappa1, kappa2),
        np.linspace(1e-6, hi, 200 * (asymptotics._POSITIVE_EIGEN + 4)))
    return asymptotics.EigenResult(
        negative_eigenvalues=[pair for pair, _ in negatives],
        positive_eigenvalues=[
            _reference_pair(s * s, kappa1, kappa2, grid)[0]
            for s in islice(above, asymptotics._POSITIVE_EIGEN)],
        convexity_flags=[bool(np.all(phi > 0.0)) for _, phi in negatives],
        kappa1=float(kappa1), kappa2=float(kappa2))


# ---------------------------------------------------------------------------
# chords and bit patterns


# the chords whose curvatures the reference misses at max(k1, k2): there
# it raises NoRoot, and lambda0 - max(k1, k2) is 1.8e-15 at (9.5, 4.75),
# 1e-19 at (12, 6) and about 1.3e-16 at (10, 2)
STEEP_CHORDS = [(9.5, 4.75), (4.75, 9.5), (12.0, 6.0), (10.0, 2.0)]


def benchmark_chords():
    """(kappa1, kappa2) of the nine diameters of the benchmark's
    oval_family workload."""
    with bench_modules() as workloads:
        diameters = workloads.OvalFamily().setup()
    return [(nd.kappa1, nd.kappa2) for _, _, nd in diameters]


def _ellipse_chords():
    """The major axes of ellipse(a, 1), a = 1.05 to 3.00 by 0.05."""
    out = []
    for a in np.linspace(1.05, 3.0, 40):
        dom = geometry.ConvexDomain.ellipse(float(a), 1.0)
        nd = geometry.normalize(dom, geometry.find_diameters(dom)[0])
        out.append((nd.kappa1, nd.kappa2))
    return out


def _hex(x):
    return float(x).hex()


def _limits_bits(compute_limits, k1, k2):
    lim = compute_limits(k1, k2)
    return _hex(lim.lambda0), _hex(lim.xi0), _hex(lim.sigma)


def _eigen_bits(robin_eigen, k1, k2):
    eig = robin_eigen(k1, k2)
    return ([(_hex(p.mu), _hex(p.coeffs[0]), _hex(p.coeffs[1]))
             for p in eig.negative_eigenvalues + eig.positive_eigenvalues],
            len(eig.negative_eigenvalues), eig.convexity_flags,
            _hex(eig.kappa1), _hex(eig.kappa2))


def _assert_same_bits(k1, k2):
    assert (_limits_bits(oval.compute_limits, k1, k2)
            == _limits_bits(_reference_compute_limits, k1, k2))
    assert (_eigen_bits(asymptotics.robin_eigen, k1, k2)
            == _eigen_bits(_reference_robin_eigen, k1, k2))


# ---------------------------------------------------------------------------
# bit identity


@settings(max_examples=150, deadline=None)
@given(st.floats(0.05, 9.0), st.floats(0.05, 9.0))
def test_drawn_chords_match_the_references(k1, k2):
    _assert_same_bits(k1, k2)


def test_ellipse_and_benchmark_chords_match_the_references():
    chords = _ellipse_chords() + benchmark_chords()
    assert len(chords) == 49
    for k1, k2 in chords:
        _assert_same_bits(k1, k2)


@pytest.mark.parametrize("k1, k2", [(1.0, 0.5), (0.3, 0.3), (2.0, 7.0)])
def test_objectives_read_floats_as_the_references_read_0d_arrays(k1, k2):
    # at a float every objective has the reference's bits, and the Robin
    # ones return Python floats; on an array, the reference's array
    s = np.linspace(1e-6, 9.0, 4001)
    for x in (0.37, 1.5, float(max(k1, k2)), 8.25):
        assert (_hex(oval.lambda0_residual(x, k1, k2))
                == _hex(_reference_lambda0_residual(x, k1, k2)))
        got = asymptotics._pos_secular(x, k1, k2)
        assert type(got) is float
        assert got.hex() == float(_reference_pos_secular(x, k1, k2)).hex()
        for mu in (-x * x, x * x):
            rows = asymptotics._robin_rows(mu, k1, k2)
            assert all(type(v) is float for row in rows for v in row)
            assert ([_hex(v) for row in rows for v in row]
                    == [_hex(v) for row in _reference_robin_rows(mu, k1, k2)
                        for v in row])
    assert np.array_equal(oval.lambda0_residual(s, k1, k2),
                          _reference_lambda0_residual(s, k1, k2))
    assert np.array_equal(asymptotics._pos_secular(s, k1, k2),
                          _reference_pos_secular(s, k1, k2))


def test_oval_family_builds_match_the_reference_solver():
    # the oval build and the diameter search share safe_brentq: the default
    # sweep's 45 attempts keep their lam, xi and node bytes (Attempt.key)
    def keys():
        with bench_modules() as workloads:
            fam = workloads.OvalFamily()
            diameters = fam.setup()
            return [r.key() for r in fam.sweep(
                fam.attempts(diameters, workloads.DEFAULT_SEED))[1]]

    got = keys()
    with pytest.MonkeyPatch.context() as mp:
        for mod in (geometry, oval):
            mp.setattr(mod, "safe_brentq", _reference_safe_brentq)
        want = keys()
    assert len(got) == 45
    assert got == want


def test_oval_family_sweep_keeps_every_solve():
    # each solve of the default sweep's builds has the reference solver's
    # bracket and as many objective evaluations
    solves, evaluations, log = sweep_solve_counts()
    assert log == sweep_solve_counts(_reference_safe_brentq)[2]
    assert (solves, evaluations) == (552, 3516)


def test_eigen_grid_is_one_read_only_array():
    grid = asymptotics._EIGEN_GRID
    assert not grid.flags.writeable
    assert np.array_equal(grid, np.linspace(-1.0, 1.0, 1001))


# equal chords on a grid of k in (0, 9]: robin_eigen skips the odd-factor
# scan where k <= 1 and computes one basis term per mode
EQUAL_KS = sorted({*np.linspace(0.05, 9.0, 180).tolist(), 1.0})


def test_equal_chords_match_the_references():
    for k in EQUAL_KS:
        _assert_same_bits(k, k)


def test_odd_factor_has_no_root_where_k_is_at_most_1():
    # s - k tanh s > 0 on the whole scan that robin_eigen no longer reads
    small = [k for k in EQUAL_KS if k <= 1.0]
    assert len(small) == 20
    for k in small:
        s = np.linspace(1e-6, k, 4001)
        assert (s - k * np.tanh(s) > 0.0).all()
        assert len(asymptotics.robin_eigen(k, k).negative_eigenvalues) == 1


# ---------------------------------------------------------------------------
# solves and iterates


def _counting(solver, log):
    """solver, logging each call's bracket and objective evaluations."""
    def counted(f, a, b):
        n = 0

        def g(x):
            nonlocal n
            n += 1
            return f(x)

        try:
            return solver(g, a, b)
        finally:
            log.append((float(a), float(b), n))

    return counted


def _solves(fn, k1, k2):
    """The solves of fn(k1, k2): (a, b, evaluations) of each safe_brentq
    call that oval and asymptotics make."""
    log = []
    with pytest.MonkeyPatch.context() as mp:
        for mod in (oval, asymptotics):
            mp.setattr(mod, "safe_brentq", _counting(mod.safe_brentq, log))
        fn(k1, k2)
    return log


def _reference_solves(fn, k1, k2):
    log = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(globals(), "_reference_safe_brentq",
                   _counting(_reference_safe_brentq, log))
        fn(k1, k2)
    return log


def spectral_solve_counts(chords):
    """safe_brentq calls and objective evaluations of compute_limits and
    robin_eigen over the chords."""
    log = []
    for k1, k2 in chords:
        log += _solves(oval.compute_limits, k1, k2)
        log += _solves(asymptotics.robin_eigen, k1, k2)
    return len(log), sum(n for _, _, n in log)


def sweep_solve_counts(solver=None):
    """safe_brentq calls and objective evaluations of the oval builds of
    the default oval_family sweep, and the log of (a, b, evaluations) of
    each; with solver, that solver in place of oval's safe_brentq."""
    log = []
    with bench_modules() as workloads:
        fam = workloads.OvalFamily()
        attempts = fam.attempts(fam.setup(), workloads.DEFAULT_SEED)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oval, "safe_brentq",
                       _counting(solver or oval.safe_brentq, log))
            fam.sweep(attempts)
    return len(log), sum(n for _, _, n in log), log


def _counting_scans(roots, read):
    """roots, adding to read[0] the size of every array that its scanned
    function is evaluated on; Brent's reads of a float are not counted
    (they are the solves' evaluations)."""
    def counted(f, samples, *chunk):
        def g(s):
            if isinstance(s, np.ndarray):
                read[0] += s.size
            return f(s)

        return roots(g, samples, *chunk)

    return counted


def scan_samples(chords):
    """Secular-function samples that robin_eigen's root scans read over
    the chords."""
    read = [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(asymptotics, "_roots",
                   _counting_scans(asymptotics._roots, read))
        for k1, k2 in chords:
            asymptotics.robin_eigen(k1, k2)
    return read[0]


def test_the_egg_limits_solve_sigma_once(negg):
    k1, k2 = negg.kappa1, negg.kappa2
    want = _reference_solves(_reference_compute_limits, k1, k2)
    got = _solves(oval.compute_limits, k1, k2)
    # sigma, lambda0 and sigma again: the second sigma solve is gone, and
    # the kept ones evaluate their objectives as often as before
    assert len(want) == 3 and want[2] == want[0]
    assert got == want[:2]
    eigen = _solves(asymptotics.robin_eigen, k1, k2)
    assert eigen == _reference_solves(_reference_robin_eigen, k1, k2)
    assert (len(eigen), sum(n for _, _, n in eigen)) == (6, 42)


def test_benchmark_chords_keep_every_other_solve():
    chords = benchmark_chords()
    total = Counter()
    for k1, k2 in chords:
        for fn, ref in ((oval.compute_limits, _reference_compute_limits),
                        (asymptotics.robin_eigen, _reference_robin_eigen)):
            got, want = _solves(fn, k1, k2), _reference_solves(ref, k1, k2)
            if fn is oval.compute_limits and not oval._equal_curvatures(k1,
                                                                        k2):
                assert want[2] == want[0]
                del want[2]
            assert got == want
            total["solves"] += len(got)
            total["evaluations"] += sum(n for _, _, n in got)
    # 64 solves and 467 evaluations when unequal chords solved sigma twice
    assert spectral_solve_counts(chords) == (61, 441)
    assert total == {"solves": 61, "evaluations": 441}


def test_benchmark_scans_read_only_what_the_spectrum_reports():
    chords = benchmark_chords()
    read = [0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(globals(), "_reference_roots",
                   _counting_scans(_reference_roots, read))
        for k1, k2 in chords:
            _reference_robin_eigen(k1, k2)
    # in full: 4,001 samples below max(k1, k2) and 1,400 above, per chord
    assert read[0] == 9 * (4001 + 1400)
    # the positive scan stops after two or three chunks of 201 samples,
    # and the four equal chords with k <= 1 skip the scan below
    assert scan_samples(chords) == 24829


@pytest.mark.parametrize("chunk, first, total",
                         [(2, 6, 15), (4, 5, 13), (10, 11, 11)])
def test_roots_yield_exact_zeros_once_and_read_lazily(chunk, first, total):
    # zeros at the samples 4 and 10, the last, and a sign change on (6, 7);
    # with chunks of 4, the sample 4 ends one chunk and starts the next
    samples = np.arange(11.0)

    def f(s):
        return (s - 4.0) * (s - 6.5) * (s - 10.0)

    read = [0]
    roots = _counting_scans(asymptotics._roots, read)(f, samples, chunk)
    assert next(roots) == 4.0
    assert read[0] == first
    rest = list(roots)
    assert read[0] == total
    assert len(rest) == 2 and rest[1] == 10.0
    assert rest[0] == pytest.approx(6.5, abs=1e-14)
    # the reference saw a sign of 0 as no sign change
    assert list(_reference_roots(f, samples)) == [rest[0]]


# ---------------------------------------------------------------------------
# steep chords


@pytest.mark.parametrize("k1, k2", STEEP_CHORDS)
def test_steep_chords_solve_where_the_reference_raises(k1, k2):
    with pytest.raises(NoRoot):
        _reference_solve_lambda0(k1, k2)
    kmax = max(k1, k2)
    assert not oval.lambda0_residual(kmax, k1, k2) < 0.0
    lam0 = oval.solve_lambda0(k1, k2)
    assert kmax <= lam0 <= kmax + 4 * math.ulp(kmax)
    eig = asymptotics.robin_eigen(k1, k2)
    # the principal mode and the one below min(k1, k2), no third from the
    # direct form's rounding at max(k1, k2)
    mus = [p.mu for p in eig.negative_eigenvalues]
    assert len(mus) == 2 and mus[0] == -lam0 * lam0
    assert -mus[1] < min(k1, k2) ** 2
    assert eig.convexity_flags == [True, False]
    for p in eig.negative_eigenvalues + eig.positive_eigenvalues:
        scale = 1.0 + max(p.mu, 0.0)
        assert max(asymptotics.eigen_residuals(p, k1, k2)) / scale <= 2e-15
    # xi0 needs lambda0 - kappa1, lost where lambda0 rounds to kappa1
    if lam0 == k1:
        with pytest.raises(InvalidScale):
            oval.compute_limits(k1, k2)
    else:
        assert oval.compute_limits(k1, k2).lambda0 == lam0


@pytest.mark.parametrize("k", [19.0, 20.0, 30.0, 40.0])
def test_steep_equal_chords_report_both_modes(k):
    # lambda0 rounds to k, and so does the odd root of s - k tanh s, where
    # that factor is exactly 0 at the scan's last sample; from k = 20 on
    # both Robin rows round to (0, 0) at either root
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = asymptotics.robin_eigen(k, k)
    assert [p.mu for p in eig.negative_eigenvalues] == [-k * k, -k * k]
    assert eig.convexity_flags == [True, False]
    (a0, b0), (a1, b1) = (p.coeffs for p in eig.negative_eigenvalues)
    assert a0 > 0.0 and b0 == 0.0 and a1 == 0.0 and b1 != 0.0
    for p in eig.negative_eigenvalues + eig.positive_eigenvalues:
        assert np.isfinite(p.coeffs).all()
        sup = np.abs(p.phi(asymptotics._EIGEN_GRID)).max()
        assert sup == pytest.approx(1.0, rel=1e-15)
    # the reference misses the odd root, and from k = 20 on divides 0 by 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ref = _reference_robin_eigen(k, k)
    assert len(ref.negative_eigenvalues) == 1
    assert np.isfinite(ref.negative_eigenvalues[0].coeffs).all() == (k < 20)


def test_steep_equal_chords_take_each_modes_parity_from_its_factor():
    # from about k = 18.6 the Robin rows at either root are rounding alone,
    # and the larger coefficient no longer tells an even mode from an odd
    # one (the reference read both as even on some chords, and lost the
    # odd root on others); the factor each root solves does
    for k in np.linspace(9.0, 60.0, 103).tolist():
        eig = asymptotics.robin_eigen(k, k)
        (a0, b0), (a1, b1) = (p.coeffs for p in eig.negative_eigenvalues)
        assert a0 > 0.0 and b0 == 0.0 and a1 == 0.0 and b1 != 0.0
        assert eig.convexity_flags == [True, False]


@pytest.mark.parametrize("k1, k2", [(20.0, 1.0), (40.0, 1.0), (100.0, 1.0),
                                    (200.0, 1.0), (1.0, 20.0)])
def test_steep_chords_principal_mode_is_positive(k1, k2):
    # a = b to the last bit, so a cosh(sx) + b sinh(sx) rounds to 0 on
    # some grid points near x = -1 (x = 1 for (1, 20)), where the principal
    # mode is a e^(-s|x|), positive; the grid read it as not positive
    eig = asymptotics.robin_eigen(k1, k2)
    assert eig.convexity_flags == [True, False]
    principal = eig.negative_eigenvalues[0]
    assert abs(principal.coeffs[0]) == abs(principal.coeffs[1])
    assert (principal.phi(asymptotics._EIGEN_GRID) == 0.0).any()


@pytest.mark.parametrize("coeffs, positive", [
    ((1.0, 0.0), True), ((0.0, 1.0), False), ((1.0, 1.0), True),
    ((1.0, -1.0), True), ((1.0, 1.0 + 1e-7), False),
    ((1.0 + 1e-7, 1.0), True), ((-1.0, 0.0), False)])
def test_positive_mode_reads_steep_modes_without_overflow(coeffs, positive):
    # s = 1000: e^s overflows, e^-s underflows, and the grid values of the
    # near-equal coefficients cancel
    pair = asymptotics.EigenPair(-1e6, coeffs)
    assert asymptotics._positive_mode(pair) is positive


@pytest.mark.parametrize("k1, k2", [(200.0, 100.0), (300.0, 299.0),
                                    (200.0, 1.0)])
def test_a_rounded_principal_root_is_not_a_second_mode(k1, k2):
    # above max(k1, k2) = 186 or so the steep form's last term underflows,
    # so N(max(k1, k2)) is exactly 0 at the scan's last sample: that zero
    # is lambda0, rounded, and the other mode lies below min(k1, k2), or
    # rounds to it
    eig = asymptotics.robin_eigen(k1, k2)
    mus = [p.mu for p in eig.negative_eigenvalues]
    assert len(mus) == 2 and mus[0] == -max(k1, k2) ** 2
    assert -mus[1] <= min(k1, k2) ** 2


def test_the_steep_form_is_the_direct_one_off_its_cancellation():
    # (lam - k1)(lam - k2) - 2 lam (k1 + k2) / (e^(4 lam) - 1) is N: the
    # two forms agree to the rounding of N's largest terms
    lam = np.linspace(0.1, 12.0, 500)
    for k1, k2 in STEEP_CHORDS:
        direct = oval.lambda0_residual(lam, k1, k2)
        steep = oval._chord_residual(k1, k2)(lam)
        scale = lam * lam + lam * (k1 + k2) + k1 * k2
        assert np.max(np.abs(steep - direct) / scale) < 4 * np.finfo(float).eps


def test_a_near_equal_steep_chord_solves_off_max_curvature():
    # curvatures 1e-3 apart: the direct form rounds N(kmax) < 0 to 0 or
    # above, while lambda0 - kmax is about 5e-12, some 2,800 ulp
    k1, k2 = 9.13408521303258, 9.124951127819548
    assert not oval.lambda0_residual(k1, k1, k2) < 0.0
    lam0 = oval.solve_lambda0(k1, k2)
    assert 1e-12 < lam0 - k1 < 1e-11
    steep = oval._chord_residual(k1, k2)
    assert steep(np.nextafter(lam0, 0.0)) <= 0.0
    assert steep(lam0 + 8 * math.ulp(lam0)) > 0.0
