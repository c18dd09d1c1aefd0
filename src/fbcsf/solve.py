"""The bracketed root finder shared across the package, and the loader of
the compiled scipy extensions that the package calls.

safe_brentq is Brent's method (Brent, Algorithms for Minimization without
Derivatives, 1973) with the bracketing discipline the rest of the code
relies on: callers always get either a root with a sign change
certificate or a typed exception.  Its iteration is scipy's compiled
brentq.c loop, _brentq of scipy/optimize/_zeros, loaded by itself on the
first solve, so every root is scipy's bit for bit and importing the
package loads no scipy module (importing scipy.optimize costs about 0.3 s).
"""

import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .errors import BracketFailure

# Brent's stopping tolerances and iteration cap
_RTOL, _XTOL, _MAXITER = 4 * float(np.finfo(float).eps), 1e-15, 200

_ZEROS = "scipy.optimize._zeros"
# _ZEROS's _brentq, set by the first safe_brentq
_brentq = None


def _load_extension(name):
    """The compiled scipy module `name`, found without importing scipy and
    loaded by itself; ImportError, naming the file, if it is missing.

    The load registers the extension in sys.modules, where it would stop a
    later import of its package from setting the package's attribute, so
    that entry is removed: CPython caches a single-phase extension, and the
    import then gets the same functions.  If scipy loaded the extension
    first, it is taken from sys.modules.
    """
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    root = scipy.submodule_search_locations[0] if scipy else "scipy"
    stem = os.path.join(root, *name.split(".")[1:])
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((stem + sfx for sfx in suffixes
                 if os.path.isfile(stem + sfx)), None)
    if path is None:
        raise ImportError(f"extension {stem}{suffixes[0]} not found",
                          name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    try:
        return importlib.util.module_from_spec(spec)
    finally:
        sys.modules.pop(name, None)


def safe_brentq(f, a, b):
    """Brent's method with an explicit sign-change check.

    A NaN at an end or an iterate, no sign change and an exhausted
    iteration cap raise BracketFailure, for callers' own error taxonomy;
    any other exception of f comes out unchanged.  Each end is evaluated
    once, here, and handed to the compiled loop (_brentq) for its first
    two reads.
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
    global _brentq
    if _brentq is None:
        _brentq = _load_extension(_ZEROS)._brentq
    ends = [float(fb), float(fa)]  # brentq.c reads a, then b

    def g(x):
        if ends:
            return ends.pop()
        fx = float(f(x))
        if fx != fx:
            raise BracketFailure(f"NaN at x = {x!r} inside [{a:.6g}, {b:.6g}]")
        return fx

    x, _, _, flag = _brentq(g, float(a), float(b), _XTOL, _RTOL, _MAXITER,
                            (), True, False)
    if flag:
        raise BracketFailure(f"no convergence in {_MAXITER} iterations on "
                             f"[{a:.6g}, {b:.6g}]")
    return x
