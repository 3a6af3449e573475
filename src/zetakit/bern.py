"""Exact Bernoulli numbers.

Computed as Fractions through the binomial recurrence
``sum_{k=0}^{n} C(n+1, k) B_k = 0`` (even indices only; odd B_n vanish for
n >= 3), memoized behind a lock so concurrent readers are safe.  Exact
rational arithmetic sidesteps the precision loss that plagues floating
recurrences for large n.
"""

from __future__ import annotations

import enum
import threading
from fractions import Fraction
from math import comb

from .errors import DomainError


class Convention(enum.Enum):
    """Sign convention for B_1; all other indices agree."""

    B1_MINUS_HALF = "B1_MINUS_HALF"
    B1_PLUS_HALF = "B1_PLUS_HALF"


# B_0, B_2, B_4, ...: the even-index values, which both conventions share.
_EVEN: list[Fraction] = [Fraction(1)]
_LOCK = threading.Lock()


def _extend_even(m: int) -> None:
    # B_{2m} from sum_{r<2m} C(2m+1, r) B_r = -C(2m+1, 2m) B_{2m};
    # only even r and r=1 (B_1 = -1/2 in this recurrence) contribute.
    while len(_EVEN) <= m:
        n = 2 * len(_EVEN)
        s = Fraction(0)
        for j in range(len(_EVEN)):
            s += comb(n + 1, 2 * j) * _EVEN[j]
        s += Fraction(-(n + 1), 2)  # the B_1 = -1/2 term
        _EVEN.append(-s / (n + 1))


def bernoulli(n: int, convention: Convention = Convention.B1_MINUS_HALF) -> Fraction:
    """Exact B_n under the requested convention."""
    if n < 0:
        raise DomainError(f"Bernoulli index must be >= 0, got {n}")
    if n == 1:
        half = Fraction(1, 2)
        return half if convention is Convention.B1_PLUS_HALF else -half
    if n % 2 == 1:
        return Fraction(0)
    m = n // 2
    with _LOCK:
        _extend_even(m)
        return _EVEN[m]
