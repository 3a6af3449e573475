"""Prime-tail sums t(s) = sum over primes of 1/(p^s - 1).

Three routes.  ``t_exact`` carries every working digit: it sums the primes
p <= 100 and gets the rest from log zeta by Moebius inversion (H. Cohen,
"High precision computation of Hardy-Littlewood constants", 1998; the
scheme of mpmath's ``primezeta``).  ``t_direct`` is the independent
partial sum over primes, cut where the Rosser-Schoenfeld bound on pi(x)
certifies the omitted tail.  Both prime sums are ``_prime_sum``, over
the fixed-point stream of ``numerics._inverse_powers``, and ``t_exact``
takes the Euler factors of its head from ``zetacore.euler_product``.
The closed form t(s) = zeta(s)(1 - 2^(-s)) - 1 + 1/(2^s - 1) silently
counts every odd integer >= 3 as if it were a prime stack, so it exceeds
the true tail by exactly ``sum m^(-s)`` over odd non-prime-powers
m = 15, 21, 33, ...; that gap is exposed rather than hidden.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

from .errors import DomainError
from .numerics import SeriesResult, _fixed_point_bits, _inverse_powers
from .precision import DEFAULT_DIGITS, GUARD_DIGITS, as_mpf, check_digits, working
from .primes import primes_array_up_to
from .zetacore import euler_product, zeta_even_closed, zeta_reference

_DEFAULT_BOUND_CAP = 40_000_000

# pi(x) < 1.25506 x / ln x for every x > 1 (J. B. Rosser and L. Schoenfeld,
# "Approximate formulas for some functions of prime numbers", Illinois
# J. Math. 6, 1962, (3.6)).
_PI_BOUND = "1.25506"


def _tail_bound(P, s):
    # With g(x) = 1/(x^s - 1), sum_{p > P} g(p) = -g(P) pi(P) - int_P^inf pi g'
    # <= int_P^inf 1.25506 x/ln x * s x^(-s-1)/(1 - x^-s)^2 dx, and
    # 1/(ln x (1 - x^-s)^2) is largest at x = P.
    return mpf(_PI_BOUND) * s * P ** (1 - s) / ((s - 1) * mp.log(P) * (1 - P ** (-s)) ** 2)


def _plan_cutoff(s, tol) -> int:
    """The least integer P >= 2 whose ``_tail_bound`` is at most ``tol``,
    or the cap when no P within it is.  The bound falls with P, so a float
    bisection on its logarithm finds P, and the mpf bound then certifies it
    (and its predecessor's failure) exactly."""
    cap = _DEFAULT_BOUND_CAP
    sf = float(s)
    log_c = math.log(float(_PI_BOUND) * sf / (sf - 1))
    log_tol = float(mp.log(tol)) if tol > 0 else -math.inf

    def over(P: int) -> bool:
        lp = math.log(P)
        return log_c + (1 - sf) * lp - math.log(lp) - 2 * math.log1p(-(P ** -sf)) > log_tol

    if over(cap):
        return cap
    lo, hi = 1, cap  # the answer lies in (lo, hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if over(mid) else (lo, mid)
    P = hi
    while P < cap and _tail_bound(mpf(P), s) > tol:
        P += 1
    while P > 2 and _tail_bound(mpf(P - 1), s) <= tol:
        P -= 1
    return P


def t_direct(s, tol, digits: int = DEFAULT_DIGITS) -> SeriesResult:
    """Direct prime sum of 1/(p^s - 1) over p <= P, s > 1.

    P is planned once: the least integer whose tail bound
    1.25506 s P^(1-s) / ((s-1) ln P (1 - P^-s)^2), from Rosser and
    Schoenfeld's pi(x) < 1.25506 x/ln x, is at most ``tol``.  If that P
    exceeds the cap ``_DEFAULT_BOUND_CAP``, the sum stops at the cap and is
    returned with ``converged=False`` and the honest bound there.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        tol = as_mpf(tol, digits)
        if s <= 1:
            raise DomainError("t(s) requires s > 1")
        P = _plan_cutoff(s, tol)
        bound = _tail_bound(mpf(P), s)
        primes = primes_array_up_to(P)
        return SeriesResult(_prime_sum(primes, s, digits), int(primes.size), bound, bound <= tol)


def _prime_sum(primes, s, digits: int) -> mpf:
    """sum 1/(p^s - 1) over the ascending prime array ``primes``, s > 1,
    summed in fixed point from the ``_inverse_powers`` stream and rounded
    once at the working precision."""
    # t(s) > 2^-s: s more bits keep the sum's relative precision
    wp = _fixed_point_bits(digits, int(primes.size)) + int(mp.ceil(s))
    return mp.ldexp(mpf(sum(_inverse_powers(primes, s, wp, minus_one=True))), -wp)


# The exact route sums the primes up to _HEAD with ``_prime_sum``.  It
# carries _EXACT_PAD digits past the working guard because each zeta(y) of
# its n-sum, y up to about digits + GUARD_DIGITS, carries rounding of order
# y units (pi^y in the closed form), and their sum must stay below the floor.
_HEAD = 100
_EXACT_PAD = 3


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _log_zeta_above_head_bound(y):
    # log zeta_{>N}(y) = sum_{p > N} -log(1 - p^-y)
    #                 <= sum_{n > N} n^-y / (1 - (N+1)^-y) <= N^(1-y) / ((y-1)(1 - (N+1)^-y))
    return mpf(_HEAD) ** (1 - y) / ((y - 1) * (1 - mpf(_HEAD + 1) ** (-y)))


def _t_exact(s, digits: int, zeta_s=None) -> SeriesResult:
    """``t_exact``, with zeta(s) taken from ``zeta_s`` when the caller has
    it already at working precision.  The head is one ``_prime_sum`` and
    each n-term one ``euler_product(ns, 100)``, both at the padded
    precision."""
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        if s <= 1:
            raise DomainError("t(s) requires s > 1")
        floor = mpf(10) ** (-(digits + GUARD_DIGITS))
    inner = digits + _EXACT_PAD
    with working(inner):
        total = _prime_sum(primes_array_up_to(_HEAD), s, inner)
        ratio = 1 - mpf(_HEAD) ** (-s)  # the n-sum's bounds shrink by N^-s per term
        n = 0
        while True:
            n += 1
            y = n * s
            if n == 1 and zeta_s is not None:
                z = zeta_s
            elif y == int(y) and int(y) % 2 == 0:
                z = zeta_even_closed(int(y), inner)
            else:
                z = zeta_reference(y, inner)
            # log zeta_{>N}(y): zeta(y) with the Euler factors of p <= N removed
            log_rest = mp.log(z / euler_product(y, _HEAD, inner))
            total += log_rest * _totient(n) / n
            tail = _log_zeta_above_head_bound((n + 1) * s) / ratio
            if tail <= floor:
                break
    with working(digits):
        # ten units of the floor for rounding: a caller's zeta(s) is good to
        # about one unit, every other term to a few units of the padded floor
        return SeriesResult(+total, n, tail + 10 * floor, True)


def t_exact(s, digits: int = DEFAULT_DIGITS) -> SeriesResult:
    """t(s), s > 1, at full working precision.

    The primes p <= N = 100 are summed in fixed point, as in ``t_direct``,
    and the rest is

        sum_{n >= 1} (phi(n)/n) log(zeta(ns) prod_{p <= N} (1 - p^-ns)),

    since sum_{p > N} p^-x = sum_k (mu(k)/k) log zeta_{>N}(kx) and
    sum_{k | n} mu(k)/k = phi(n)/n.  zeta(ns) is the Bernoulli closed form
    at even integers and the Euler-Maclaurin oracle elsewhere, and the
    product over p <= N is 1/``euler_product(ns, N)``: exact integer
    blocks at a whole ns <= 9, the fixed-point stream otherwise.  Since
    log zeta_{>N}(y) <= N^(1-y)/((y-1)(1 - (N+1)^-y)), which shrinks by
    N^-s per term, the n-sum stops once these bounds put its omitted terms
    below 10^-(digits+GUARD_DIGITS).  ``terms_used`` counts the n summed,
    and ``trunc_estimate`` is that truncation bound plus ten units of the
    floor for rounding.
    """
    return _t_exact(s, digits)


def _t_closed_at(s, z) -> mpf:
    """The closed form from a zeta(s) the caller already holds."""
    return z * (1 - mpf(2) ** (-s)) - 1 + 1 / (mpf(2) ** s - 1)


def t_closed(s, digits: int = DEFAULT_DIGITS) -> mpf:
    """Closed form zeta(s)(1 - 2^(-s)) - 1 + 1/(2^s - 1), s > 1."""
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        if s <= 1:
            raise DomainError("t(s) requires s > 1")
        return _t_closed_at(s, zeta_reference(s, digits))
