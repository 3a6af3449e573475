"""Prime-tail sums t(s) = sum over primes of 1/(p^s - 1).

Two first-class routes: the direct sum over primes, and the closed form
t(s) = zeta(s)(1 - 2^(-s)) - 1 + 1/(2^s - 1).  The closed form silently
counts every odd integer >= 3 as if it were a prime stack, so it exceeds
the direct sum by exactly ``sum m^(-s)`` over odd non-prime-powers
m = 15, 21, 33, ...; that gap is exposed rather than hidden.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf

from .errors import DomainError
from .numerics import SeriesResult, _fixed_point_bits, _inverse_powers
from .precision import DEFAULT_DIGITS, as_mpf, check_digits, working
from .primes import primes_array_up_to
from .zetacore import zeta_reference

_START_BOUND = 100_000
_DEFAULT_BOUND_CAP = 40_000_000


def _tail_bound(P, s):
    # sum_{n > P} 1/(n^s - 1) <= (1/(1 - P^-s)) * integral_P^inf x^-s dx
    return P ** (1 - s) / ((s - 1) * (1 - P ** (-s)))


def t_direct(s, tol, digits: int = DEFAULT_DIGITS) -> SeriesResult:
    """Direct prime sum of 1/(p^s - 1), s > 1.

    The prime cutoff doubles from 1e5 until a density-free tail bound
    (integral of x^(-s), with no appeal to prime counting) drops under
    ``tol``; if the cap ``_DEFAULT_BOUND_CAP`` is hit first the partial sum
    is returned with ``converged=False`` and the honest bound.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        tol = as_mpf(tol, digits)
        if s <= 1:
            raise DomainError("t(s) requires s > 1")
        P = _START_BOUND
        while _tail_bound(mpf(P), s) > tol and P < _DEFAULT_BOUND_CAP:
            P *= 2
        bound = _tail_bound(mpf(P), s)
        primes = primes_array_up_to(P)
        # t(s) > 2^-s: s more bits keep the sum's relative precision
        wp = _fixed_point_bits(digits, int(primes.size)) + int(mp.ceil(s))
        total = sum(_inverse_powers(primes, s, wp, minus_one=True))
        return SeriesResult(mp.ldexp(mpf(total), -wp), int(primes.size), bound, bound <= tol)


def t_closed(s, digits: int = DEFAULT_DIGITS) -> mpf:
    """Closed form zeta(s)(1 - 2^(-s)) - 1 + 1/(2^s - 1), s > 1."""
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        if s <= 1:
            raise DomainError("t(s) requires s > 1")
        z = zeta_reference(s, digits)
        return z * (1 - mpf(2) ** (-s)) - 1 + 1 / (mpf(2) ** s - 1)


def odd_nonprimepower_sum(s, limit: int, digits: int = DEFAULT_DIGITS):
    """Enumerated ``sum m^(-s)`` over odd non-prime-powers 15 <= m < limit.

    An independent sieve-based enumeration (float64 accumulation, pairwise
    summation) used to audit the gap between the two t(s) routes.  Returns
    ``(value, tail_bound)`` where the bound covers the omitted m >= limit.
    """
    digits = check_digits(digits)
    with working(digits):
        sf = float(as_mpf(s, digits))
        if sf <= 1:
            raise DomainError("requires s > 1")
        limit = int(limit)
        is_pp = np.zeros(limit, dtype=bool)  # prime or prime power
        sieve = np.ones(limit, dtype=bool)
        sieve[:2] = False
        for p in range(2, int(limit**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.nonzero(sieve)[0]
        is_pp[primes] = True
        for p in primes.tolist():
            q = p * p
            while q < limit:
                is_pp[q] = True
                q *= p
        m = np.arange(15, limit, 2, dtype=np.int64)
        m = m[~is_pp[m]]
        value = float(np.sum(m.astype(np.float64) ** (-sf)))
        # odd integers have density 1/2; integral bound on the tail
        tail = mpf(0.5) * mpf(limit) ** (1 - sf) / (sf - 1)
        return as_mpf(value, digits), tail
