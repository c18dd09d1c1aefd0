"""The bracketed root finder shared across the package.

safe_brentq wraps scipy's Brent solver with the bracketing discipline the
rest of the code relies on: callers always get either a root with a sign
change certificate or a typed exception.
"""

import math

import numpy as np
from scipy.optimize import brentq

from .errors import BracketFailure

# Brent's stopping tolerances and iteration cap
_RTOL, _XTOL, _MAXITER = 4 * np.finfo(float).eps, 1e-15, 200


def safe_brentq(f, a, b):
    """Brent's method with an explicit sign-change check.

    Raises BracketFailure instead of ValueError so callers can map the
    failure onto their own error taxonomy; a NaN at either end is no sign
    change either.
    """
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb):
        raise BracketFailure(
            f"NaN at an end of [{a:.6g}, {b:.6g}]: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise BracketFailure(
            f"no sign change on [{a:.6g}, {b:.6g}]: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    return brentq(f, a, b, rtol=_RTOL, xtol=_XTOL, maxiter=_MAXITER)
