"""Exact Bernoulli numbers, from the tangent numbers.

The tangent numbers T_j (tan x = sum T_j x^(2j-1)/(2j-1)!) come from the
small-integer triangle of R. P. Brent and D. Harvey, "Fast computation of
Bernoulli, Tangent and Secant numbers" (Springer Proc. Math. Stat. 50,
2013; arXiv:1108.0286):

    t_j^(1) = (j-1)!,  t_j^(k) = (j-k) t_{j-1}^(k) + (j-k+2) t_j^(k-1),

for k = 2..j, whose diagonal is T_j = t_j^(j), and then

    B_2j = (-1)^(j-1) 2j T_j / (4^j (4^j - 1)).

The one memo is the tangent numbers: only the last column t_j^(1..j) is
kept, so each new index costs O(j) products of Python ints, and the memo
grows to exactly the index asked for, behind a lock so concurrent readers
are safe.  Each B_2j is formed from T_j on every call, with one gcd.  Odd
B_n vanish for n >= 3.  An even index above ``_MAX_INDEX`` is refused with
``ConfigError`` before the memo grows: B_2..B_2000 take about a second
cold and B_2..B_4000 several (the cost grows about as n^3), and the
largest table the package builds, the Euler-Maclaurin coefficients,
stops at B_2000.
"""

from __future__ import annotations

import enum
import operator
import threading
from fractions import Fraction

from .errors import ConfigError, DomainError

# Largest even index the memo grows to.
_MAX_INDEX = 4000


class Convention(enum.Enum):
    """Sign convention for B_1; all other indices agree."""

    B1_MINUS_HALF = "B1_MINUS_HALF"
    B1_PLUS_HALF = "B1_PLUS_HALF"


# T_0 (a placeholder), T_1, T_2, ...: the tangent numbers, _TANGENT[j] = T_j.
_TANGENT: list[int] = [0, 1]
# t_j^(k), k = 1..j, for the largest j built so far.
_COLUMN: list[int] = [1]
_LOCK = threading.Lock()


def _grow(m: int) -> None:
    # column j in place over column j - 1; call with _LOCK held
    col = _COLUMN
    while len(_TANGENT) <= m:
        j = len(_TANGENT)
        col.append(0)  # t_{j-1}^(j) = 0, which enters with weight j - k = 0
        t = col[0] = (j - 1) * col[0]
        for k in range(2, j + 1):
            t = col[k - 1] = (j - k) * col[k - 1] + (j - k + 2) * t
        _TANGENT.append(t)


def _index(n, what: str) -> int:
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"{what} index must be an integer, got {n!r}") from None


def tangent_number(j: int) -> int:
    """Exact T_j for 1 <= j <= ``_MAX_INDEX`` / 2."""
    j = _index(j, "tangent number")
    if j < 1:
        raise DomainError(f"tangent number index must be >= 1, got {j}")
    if 2 * j > _MAX_INDEX:
        raise ConfigError(f"tangent number T_{j} exceeds capacity T_{_MAX_INDEX // 2}")
    with _LOCK:
        _grow(j)
        return _TANGENT[j]


def bernoulli(n: int, convention: Convention = Convention.B1_MINUS_HALF) -> Fraction:
    """Exact B_n under the requested convention.  A non-integral ``n`` is a
    ``DomainError``, an even ``n`` above ``_MAX_INDEX`` a ``ConfigError``."""
    n = _index(n, "Bernoulli")
    if n < 0:
        raise DomainError(f"Bernoulli index must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        half = Fraction(1, 2)
        return half if convention is Convention.B1_PLUS_HALF else -half
    if n % 2 == 1:
        return Fraction(0)
    if n > _MAX_INDEX:
        raise ConfigError(f"Bernoulli index {n} exceeds capacity {_MAX_INDEX}")
    m = n // 2
    with _LOCK:
        _grow(m)
        t = _TANGENT[m]
    four = 1 << n  # 4^m
    b = Fraction(2 * m * t, four * (four - 1))
    return b if m % 2 else -b
