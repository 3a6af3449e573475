import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from zetakit.errors import DomainError
from zetakit.precision import to_decimal


def ulp(x, digits):
    """One unit in the last of ``digits`` significant decimal places of x."""
    return abs(x) * mpf(10) ** (1 - digits)


def parse(s, digits):
    with mp.workdps(digits + 10):
        return mpf(s)


@given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False))
@settings(max_examples=150, deadline=None)
def test_roundtrip_one_ulp(x):
    x = mpf(x)
    for digits in (15, 30, 50):
        assert abs(parse(to_decimal(x, digits), digits) - x) <= ulp(x, digits)


def test_roundtrip_high_precision_value():
    with mp.workdps(70):
        x = mp.pi ** 3 / 7
    for digits in (15, 25, 50):
        full = to_decimal(x, digits)
        assert abs(parse(full, digits) - x) <= ulp(x, digits)


def test_to_decimal_requires_min_digits():
    with pytest.raises(DomainError):
        to_decimal(mpf(1), 10)
