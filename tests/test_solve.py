import numpy as np
import pytest

from fbcsf.errors import BracketFailure
from fbcsf.solve import safe_brentq


def test_brentq_cos():
    r = safe_brentq(np.cos, 1.0, 2.0)
    assert abs(r - np.pi / 2) < 1e-12


def test_brentq_rejects_same_sign():
    with pytest.raises(BracketFailure):
        safe_brentq(np.cos, 0.2, 1.0)


def test_brentq_exact_endpoint_zero():
    f = lambda x: x - 1.0
    assert safe_brentq(f, 1.0, 2.0) == 1.0
    assert safe_brentq(f, 0.0, 1.0) == 1.0


@pytest.mark.parametrize("f", [
    lambda x: np.nan if x < 0.5 else x - 0.7,
    lambda x: x - 0.3 if x < 0.5 else np.nan,
    lambda x: np.nan,
], ids=["nan at a", "nan at b", "nan at both"])
def test_brentq_nan_at_an_end_is_bracket_failure(f):
    with pytest.raises(BracketFailure):
        safe_brentq(f, 0.0, 1.0)
