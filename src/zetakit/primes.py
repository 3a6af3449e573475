"""Deterministic prime generation: a plain odd-only sieve.

numpy is imported by the functions, not at module level, so that
``import zetakit`` and the routes that sieve no primes do not load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def _odd_sieve(n: int) -> np.ndarray:
    """Boolean array over odd numbers 1, 3, 5, ... <= n (index i -> 2i+1)."""
    import numpy as np

    size = (n + 1) // 2
    sieve = np.ones(size, dtype=bool)
    sieve[0] = False  # 1 is not prime
    limit = int(math.isqrt(n))
    for p in range(3, limit + 1, 2):
        if sieve[p // 2]:
            start = (p * p) // 2
            sieve[start::p] = False
    return sieve


def primes_array_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array (empty for n < 2)."""
    import numpy as np

    if n < 2:
        return np.empty(0, dtype=np.int64)
    if n == 2:
        return np.array([2], dtype=np.int64)
    sieve = _odd_sieve(n)
    odds = 2 * np.nonzero(sieve)[0].astype(np.int64) + 1
    return np.concatenate(([np.int64(2)], odds))
