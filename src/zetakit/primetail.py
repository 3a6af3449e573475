"""Prime-tail sums t(s) = sum over primes of 1/(p^s - 1).

Three routes.  ``t_exact`` carries every working digit: it sums the primes
p <= 100 and gets the rest from log zeta by Moebius inversion (H. Cohen,
"High precision computation of Hardy-Littlewood constants", 1998; the
scheme of mpmath's ``primezeta``).  ``t_direct`` is the independent
partial sum over primes, cut where the Rosser-Schoenfeld bound on pi(x)
certifies the omitted tail.  Both take their primes' powers from the
fixed-point stream of ``numerics._inverse_powers``; ``t_exact`` steps the
powers of its 25 head primes, a literal tuple, to their Euler factors, and
adds its Moebius terms to one integer sum, each small logarithm from its
log1p series in integers.
The closed form t(s) = zeta(s)(1 - 2^(-s)) - 1 + 1/(2^s - 1) silently
counts every odd integer >= 3 as if it were a prime stack, so it exceeds
the true tail by exactly ``sum m^(-s)`` over odd non-prime-powers
m = 15, 21, 33, ...; that gap is exposed rather than hidden.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .errors import DomainError
from .numerics import (SeriesResult, _em_floor, _em_orders, _fixed_point_bits, _inverse_powers,
                       _least_prime_factors)
from .precision import DEFAULT_DIGITS, GUARD_DIGITS, as_mpf, check_digits, working
from .primes import primes_array_up_to
from .zetacore import _zeta_even_interior, zeta_reference

_DEFAULT_BOUND_CAP = 40_000_000

# pi(x) < 1.25506 x / ln x for every x > 1 (J. B. Rosser and L. Schoenfeld,
# "Approximate formulas for some functions of prime numbers", Illinois
# J. Math. 6, 1962, (3.6)).
_PI_BOUND = "1.25506"


def _tail_arg(s, digits: int) -> mpf:
    """``s`` as an mpf, or ``DomainError`` unless it is finite and above 1."""
    s = as_mpf(s, digits)
    if not mp.isfinite(s):
        raise DomainError(f"t(s) requires a finite s, got {s}")
    if s <= 1:
        raise DomainError("t(s) requires s > 1")
    return s


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
    returned with ``converged=False`` and the honest bound there.  A
    negative or NaN ``tol``, and an s that is not finite, raise
    ``DomainError`` before any prime is sieved.
    """
    digits = check_digits(digits)
    with working(digits):
        s = _tail_arg(s, digits)
        tol = as_mpf(tol, digits)
        if not tol >= 0:  # a NaN too
            raise DomainError("tol must be >= 0")
        P = _plan_cutoff(s, tol)
        bound = _tail_bound(mpf(P), s)
        primes = primes_array_up_to(P)
        # t(s) > 2^-s: s more bits keep the sum's relative precision
        wp = _fixed_point_bits(digits, int(primes.size)) + int(mp.ceil(s))
        value = mp.ldexp(mpf(sum(_inverse_powers(primes, s, wp, minus_one=True))), -wp)
        return SeriesResult(value, int(primes.size), bound, bound <= tol)


# The exact route carries _EXACT_PAD digits past the working guard because
# each zeta(y) of its n-sum, y up to about digits + GUARD_DIGITS, carries
# rounding of order y units (pi^y in the closed form), and their sum must
# stay below the floor.
_HEAD = 100
_HEAD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_EXACT_PAD = 3


def _totients(count: int) -> list:
    """phi(n) for n = 0..count, from the least prime factors of
    ``numerics._least_prime_factors``: with p the least prime factor of n
    and m = n/p, phi(n) = phi(m) p when p divides m, phi(m) (p - 1) if not."""
    lpf, phi = _least_prime_factors(count), [0, 1]
    for n in range(2, count + 1):
        p, m = lpf[n], n // lpf[n]
        phi.append(phi[m] * (p if lpf[m] == p else p - 1))
    return phi[: count + 1]


def _log1p_fixed(d: int, wp: int) -> int:
    """2^wp log(1 + d 2^-wp) for |d| < 2^(wp-8), from the alternating
    series d - d^2/2 + d^3/3 - ... in integers.  Each power and each
    quotient rounds down by under a unit, and the powers shrink by 2^-8 a
    step, so the value is off by about two units per term summed plus
    under two for the terms past the last one of magnitude above 1."""
    total, power, k = 0, d, 1
    while power > 1 or power < -1:
        total += power // k
        power = -(power * d >> wp)
        k += 1
    return total


def _log_zeta_above_head_bound(y):
    # log zeta_{>N}(y) = sum_{p > N} -log(1 - p^-y)
    #                 <= sum_{n > N} n^-y / (1 - (N+1)^-y) <= N^(1-y) / ((y-1)(1 - (N+1)^-y))
    return mpf(_HEAD) ** (1 - y) / ((y - 1) * (1 - mpf(_HEAD + 1) ** (-y)))


def _plan_terms(s, digits: int) -> tuple:
    """``(n, tail, floor)``: the least n >= 1 whose bound on the omitted
    terms, tail = ``_log_zeta_above_head_bound((n+1)s) / (1 - N^-s)``, is
    at most floor = 10^-(digits+GUARD_DIGITS), planned on the bound's log in
    floats, a hair short, and raised while the mpf bound exceeds the floor."""
    floor = _em_floor(digits)
    sf = float(s)
    # log(floor (1 - N^-s)), a hair lenient, so that the float plan never overshoots
    target = -(digits + GUARD_DIGITS) * math.log(10) + math.log1p(-(_HEAD**-sf)) + 1e-9
    n = 1
    while (1 - (y := (n + 1) * sf)) * math.log(_HEAD) - math.log((y - 1) * (1 - (_HEAD + 1) ** -y)) > target:
        n += 1
    with working(digits + _EXACT_PAD):
        ratio = 1 - mpf(_HEAD) ** (-s)  # the n-sum's bounds shrink by N^-s per term
        while (tail := _log_zeta_above_head_bound((n + 1) * s) / ratio) > floor:
            n += 1
    return n, tail, floor


def _t_exact(s, digits: int, zeta_s=None) -> SeriesResult:
    """``t_exact``, with zeta(s) taken from ``zeta_s`` when the caller has
    it already at working precision."""
    digits = check_digits(digits)
    s = _tail_arg(s, digits)
    terms, tail, floor = _plan_terms(s, digits)
    inner = digits + _EXACT_PAD
    with working(inner):
        wp = _fixed_point_bits(inner, terms + len(_HEAD_PRIMES))
        one = 1 << wp
        heads = list(_inverse_powers(_HEAD_PRIMES, s, wp))  # X_p = 2^wp p^-s
        total = sum((x << wp) // (one - x) for x in heads)
        # y = ns, a Python int wherever it is an integer
        if s == int(s):
            ys = [n * int(s) for n in range(1, terms + 1)]
        else:
            ys = [int(y) if y == int(y) else y for y in (n * s for n in range(1, terms + 1))]
        odd = [y for y in ys[zeta_s is not None :] if isinstance(y, int) and y % 2]
        odd_zetas = dict(zip(odd, _em_orders(odd, mpf(1), inner))) if odd else {}
        phi = _totients(terms)
        powers = [one] * len(heads)
        for n, y in enumerate(ys, 1):
            if n == 1 and zeta_s is not None:
                z = zeta_s
            elif isinstance(y, int):
                z = odd_zetas[y] if y % 2 else _zeta_even_interior(y, inner)
            else:
                z = zeta_reference(y, inner)
            powers = [x * h >> wp for x, h in zip(powers, heads)]  # X_p^n
            prod = one  # 2^wp prod_{p <= N} (1 - p^-ns)
            for x in powers:
                prod -= prod * x >> wp
            # 2^wp (zeta_{>N}(y) - 1): zeta(y) with the Euler factors of p <= N removed
            d = (to_fixed(z._mpf_, wp) * prod >> wp) - one
            if -one >> 8 < d < one >> 8:
                log = _log1p_fixed(d, wp)
            else:  # near s = 1, where zeta_{>N}(s) is 2 or more
                log = to_fixed(mp.log(mpf((one + d, -wp)))._mpf_, wp)
            total += log * phi[n] // n
    with working(digits):
        # ten units of the floor for rounding: a caller's zeta(s) is good to
        # about one unit, every other term to a few units of the padded floor
        return SeriesResult(mpf((total, -wp)), terms, tail + 10 * floor, True)


def t_exact(s, digits: int = DEFAULT_DIGITS) -> SeriesResult:
    """t(s), s > 1, at full working precision: with N = 100, the head
    sum_{p <= N} 1/(p^s - 1) plus

        sum_{n >= 1} (phi(n)/n) log(zeta(ns) prod_{p <= N} (1 - p^-ns)),

    since sum_{p > N} p^-x = sum_k (mu(k)/k) log zeta_{>N}(kx) and
    sum_{k | n} mu(k)/k = phi(n)/n.  The n-sum has the least length whose
    bound N^(1-y)/((y-1)(1 - (N+1)^-y)) on log zeta_{>N}(y), y = (n+1)s,
    over 1 - N^-s puts its omitted terms below 10^-(digits+GUARD_DIGITS),
    planned in floats and certified in mpf.  zeta(ns) is the Bernoulli
    closed form at even integers (the short direct sum of
    ``zetacore._zeta_even_interior`` past max(60, digits + 15), so no
    Bernoulli number is built there), one ``_em_orders`` run for every odd
    integer ns, and the Euler-Maclaurin oracle elsewhere.  At an integer s
    every ns is a Python int.

    Everything after the zeta values is fixed point at wp =
    ``_fixed_point_bits(digits + 3, n + 25)``.  The head primes are a
    literal tuple, so nothing is sieved: X_p = 2^wp p^-s once per prime
    from ``_inverse_powers`` (under a unit off at integer s, a few
    otherwise), the head sum (X_p 2^wp) // (2^wp - X_p), and for term n
    each X_p^n one product on from X_p^(n-1) and prod (2^wp - X_p^n) one
    rounded product per factor.  Each step rounds down by under a unit and,
    as X_p <= 2^wp / 2, halves the error it carries, so term n's product
    is off by a few units per head prime, about 100, relative to a product
    above prod (1 - 1/p) > 0.12.  Term n then takes d = 2^wp
    (zeta_{>N}(ns) - 1) as zeta(ns) 2^wp times that product, and adds
    phi(n) log1p(d 2^-wp) 2^wp // n to one integer sum that the head sum
    starts.  Where |d| < 2^(wp-8), every term past n = 1 and the first at
    s = 2 or more, log1p is its alternating series in integers, off by
    about two units per series term; near s = 1, where zeta_{>N}(s) is 2
    or more, it is one working-precision logarithm.  The series has under
    wp/8 terms, so term n is off by under about wp/4 units, and the sum by
    under n wp/4: far inside the 2 bitlen(n + 25) + 16 guard bits.  The
    sum is rounded once, to the working precision.
    ``terms_used`` counts the n summed, and ``trunc_estimate`` is the
    truncation bound plus ten units of the floor for rounding.  An s that
    is not finite, or not above 1, raises ``DomainError``.
    """
    return _t_exact(s, digits)


def _t_closed_at(s, z) -> mpf:
    """The closed form from a zeta(s) the caller already holds."""
    return z * (1 - mpf(2) ** (-s)) - 1 + 1 / (mpf(2) ** s - 1)


def _closed_pad(s) -> int:
    """The digits that t(s), about 2^-s, loses to the O(1) terms it is a
    difference of, less three: so it keeps seven of the ten guard digits,
    good to a few units of 10^-(digits+7) relative.  0 for s <= 9."""
    return max(0, math.ceil(float(s) * math.log10(2)) - 3)


def t_closed(s, digits: int = DEFAULT_DIGITS) -> mpf:
    """Closed form zeta(s)(1 - 2^(-s)) - 1 + 1/(2^s - 1), s > 1, formed
    ``_closed_pad(s)`` digits above the working precision.  It is
    1/(2^s - 1) + 3^-s + 5^-s + ..., and the odd terms sum to under
    2 (2/3)^s of the first: past s log10(3/2) = digits + GUARD_DIGITS that
    is below the floor, and the value is 1/(2^s - 1), zeta(s) unread."""
    digits = check_digits(digits)
    with working(digits):
        s = _tail_arg(s, digits)
        if s * math.log10(1.5) > digits + GUARD_DIGITS:
            return 1 / (mpf(2) ** s - 1)
        inner = digits + _closed_pad(s)
        with working(inner):
            t = _t_closed_at(s, zeta_reference(s, inner))
        return +t
