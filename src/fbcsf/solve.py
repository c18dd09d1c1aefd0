"""The bracketed root finder shared across the package.

safe_brentq is Brent's method (Brent, Algorithms for Minimization without
Derivatives, 1973) with the bracketing discipline the rest of the code
relies on: callers always get either a root with a sign change
certificate or a typed exception.
"""

import math

import numpy as np

from .errors import BracketFailure

# Brent's stopping tolerances and iteration cap.  The tolerances are Python
# floats, so a tolerance step keeps the iterate one: in numpy scalar
# arithmetic an extrapolation step that overflows warns, where a Python
# float is inf or NaN and the step bisects
_RTOL, _XTOL, _MAXITER = 4 * float(np.finfo(float).eps), 1e-15, 200


def safe_brentq(f, a, b):
    """Brent's method with an explicit sign-change check.

    A NaN at an end or an iterate, no sign change and an exhausted
    iteration cap raise BracketFailure, for callers' own error taxonomy.
    The iteration is scipy's brentq.c step for step, so the root is
    scipy's bit for bit, but it starts from the end values above.
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
    # neither end is NaN or zero here, so the signs compare as floats
    if (fa > 0.0) == (fb > 0.0):
        raise BracketFailure(
            f"no sign change on [{a:.6g}, {b:.6g}]: f(a)={fa:.3e}, f(b)={fb:.3e}"
        )
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        # brentq.c's zero tests in one: only a new iterate's value can be 0
        if fcur == 0.0:
            return xcur
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if (abis := abs(sbis)) < delta:
            return xcur
        # an infinite trial step bisects, as C's step after a division by 0
        stry = math.inf
        if (aspre := abs(spre)) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        if 2 * abs(stry) < min(aspre, 3 * abis - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
        if fcur != fcur:
            raise BracketFailure(
                f"NaN at x = {xcur!r} inside [{a:.6g}, {b:.6g}]")
    raise BracketFailure(f"no convergence in {_MAXITER} iterations on "
                         f"[{a:.6g}, {b:.6g}]")
