"""Arbitrary-precision scalar plumbing.

All numerical work in zetakit runs on mpmath ``mpf``/``mpc`` values with the
working precision passed around explicitly as a decimal digit count (never
as hidden global state: internal blocks use ``mp.workdps`` which restores
the caller's precision on exit).  Evaluators accept and return plain
mpmath scalars plus a ``digits`` argument; exact rationals are
``fractions.Fraction`` values.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf

from .errors import DomainError

DEFAULT_DIGITS = 50
MIN_DIGITS = 15

# Guard digits used by internal computations on top of the requested count.
GUARD_DIGITS = 10


def check_digits(digits: int) -> int:
    if digits is None:
        return DEFAULT_DIGITS
    if digits < MIN_DIGITS:
        raise DomainError(f"digits must be >= {MIN_DIGITS}, got {digits}")
    return int(digits)


def working(digits: int, pad: int = GUARD_DIGITS):
    """Context manager running at ``digits`` (+ guard digits) of precision."""
    return mp.workdps(check_digits(digits) + pad)


def as_mpf(x, digits: int = DEFAULT_DIGITS) -> mpf:
    """Coerce ``x`` (int, float, str, Fraction or mpf) to an mpf at the
    given working precision."""
    with working(digits):
        if isinstance(x, Fraction):
            return mpf(x.numerator) / x.denominator
        return mpf(x)


def to_decimal(x: mpf, digits: int) -> str:
    """Decimal-string form of ``x`` at ``digits`` significant digits."""
    return mp.nstr(x, check_digits(digits), strip_zeros=True)
