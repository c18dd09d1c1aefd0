import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import brentq

import fbcsf.solve as solve
from fbcsf.errors import BracketFailure
from fbcsf.solve import safe_brentq


def test_brentq_cos():
    r = safe_brentq(np.cos, 1.0, 2.0)
    assert abs(r - np.pi / 2) < 1e-12


def test_brentq_evaluates_each_end_once():
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x)

    safe_brentq(f, 1.0, 2.0)
    assert calls[:2] == [1.0, 2.0]
    assert len(calls) == 7


def test_brentq_rejects_same_sign():
    with pytest.raises(BracketFailure):
        safe_brentq(np.cos, 0.2, 1.0)


def test_brentq_exact_endpoint_zero():
    f = lambda x: x - 1.0
    assert safe_brentq(f, 1.0, 2.0) == 1.0
    assert safe_brentq(f, 0.0, 1.0) == 1.0


@pytest.mark.parametrize("fa, fb", [(1.0, 2.0), (-1.0, -2.0), (5e-324, 1.0),
                                    (-np.inf, -1.0), (np.inf, np.inf)])
def test_brentq_same_signed_ends_are_bracket_failure(fa, fb):
    # the end signs compare as floats: any two ends of one sign, subnormal
    # and infinite ones included, raise before an iterate is tried
    calls = []

    def f(x):
        calls.append(x)
        return fa if x == 0.0 else fb

    with pytest.raises(BracketFailure):
        safe_brentq(f, 0.0, 1.0)
    assert calls == [0.0, 1.0]


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_brentq_returns_a_signed_zero_end(zero):
    # a zero of either sign at an end is that end's root, whatever the
    # other end's sign
    for other in (1.0, -1.0):
        assert safe_brentq(lambda x: zero if x == 2.0 else other,
                           2.0, 3.0) == 2.0
        assert safe_brentq(lambda x: zero if x == 3.0 else other,
                           2.0, 3.0) == 3.0


@pytest.mark.parametrize("fa, fb", [(-np.inf, np.inf), (np.inf, -np.inf),
                                    (-np.inf, 1.0), (1.0, -np.inf)])
def test_brentq_infinite_ends_bracket(fa, fb):
    # an infinite end has the sign of its infinity: the ends bracket the
    # root of x - 0.25 inside
    def f(x):
        if x == 0.0:
            return fa
        if x == 1.0:
            return fb
        return (x - 0.25) * (1.0 if fb > fa else -1.0)

    assert abs(safe_brentq(f, 0.0, 1.0) - 0.25) < 1e-15


@pytest.mark.parametrize("f", [
    lambda x: np.nan if x < 0.5 else x - 0.7,
    lambda x: x - 0.3 if x < 0.5 else np.nan,
    lambda x: np.nan,
], ids=["nan at a", "nan at b", "nan at both"])
def test_brentq_nan_at_an_end_is_bracket_failure(f):
    with pytest.raises(BracketFailure):
        safe_brentq(f, 0.0, 1.0)


def test_brentq_nan_inside_is_bracket_failure():
    f = lambda x: np.nan if 0.3 < x < 0.7 else x - 0.5
    with pytest.raises(BracketFailure):
        safe_brentq(f, 0.0, 1.0)


def test_brentq_passes_an_objectives_other_exception_through():
    # raised at an iterate, inside the compiled loop: the same object
    # comes out, not a BracketFailure or a SystemError
    err = ZeroDivisionError("at an iterate")

    def f(x):
        if 1.0 < x < 2.0:
            raise err
        return math.cos(x)

    with pytest.raises(ZeroDivisionError) as info:
        safe_brentq(f, 1.0, 2.0)
    assert info.value is err


def test_brentq_iteration_cap_is_bracket_failure(monkeypatch):
    monkeypatch.setattr(solve, "_MAXITER", 2)
    with pytest.raises(BracketFailure):
        safe_brentq(np.cos, 1.0, 2.0)


_coeff = st.floats(-10.0, 10.0)


@given(_coeff, _coeff, _coeff, st.floats(-3.0, 3.0), st.floats(1e-3, 6.0),
       st.floats(0.01, 0.99))
# underflowing slopes divide by zero, which C answers with an infinity
@example(0.0, 8.374319768927679e-168, 0.0, 0.0, 1.0, 0.5)
@settings(max_examples=300, deadline=None)
def test_brentq_is_scipy_brentq_bit_for_bit(c3, c2, c1, a, width, frac):
    # a cubic shifted by a value between its end values, so that it changes
    # sign on [a, b]: every iterate must match scipy's
    b = a + width
    g = lambda x: ((c3 * x + c2) * x + c1) * x
    c0 = -(g(a) + frac * (g(b) - g(a)))

    def f(x):
        return g(x) + c0

    assume(np.sign(f(a)) * np.sign(f(b)) < 0)
    want = brentq(f, a, b, xtol=solve._XTOL, rtol=solve._RTOL,
                  maxiter=solve._MAXITER)
    assert safe_brentq(f, a, b) == want
