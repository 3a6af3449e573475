"""Classical zeta evaluators.

Independent routes to the same values: the defining Dirichlet series, the
alternating (eta) series with acceleration, the Euler product over primes,
the Bernoulli closed form at even integers, a Bernoulli-free recurrence
for even integers, exact rationals at non-positive integers, and an
Euler-Maclaurin oracle on the complex half-plane used to audit everything
else.  The oracle and ``zeta_reference`` are argument checks around the
one Euler-Maclaurin evaluator of ``numerics``, which Hurwitz zeta shares;
``_zeta_orders`` gives the oracle's values at a run of integer orders from
one pass of its integer-order kernel.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from math import factorial
from typing import Union

from mpmath import mp, mpf, mpc

from .bern import Convention, bernoulli
from .errors import AccuracyError, DomainError, PoleError
from .numerics import (
    _SLICE,
    SeriesResult,
    _em_orders,
    _eta_quotient,
    _euler_maclaurin,
    _fixed_point_bits,
    _inverse_powers,
    _working_floor,
)
from .precision import DEFAULT_DIGITS, as_mpf, check_digits, working
from .primes import primes_array_up_to

__all__ = [
    "zeta_dirichlet",
    "zeta_eta_real",
    "euler_product",
    "zeta_even_closed",
    "zeta_negative_int",
    "zeta_even_recurrence",
    "zeta_oracle",
]

# Below this, the eta prefactor 1 - 2^(1-s) amplifies noise too much.
ETA_DEGENERACY_THRESHOLD = mpf("1e-20")

_DIRICHLET_MAX_TERMS = 2_000_000

# Denominator bits of one exact block of the integer-s Euler product: 16-32
# primes at s = 2, multiplied out and divided into the product in one step.
_EULER_BLOCK_BITS = 1024


def zeta_dirichlet(s, tol, digits: int = DEFAULT_DIGITS) -> SeriesResult:
    """Defining series ``sum n^(-s)`` for s > 1 with an integral tail bound.

    The integral of x^(-s) over the truncated tail is added to the partial
    sum; what remains is bounded by N^(-s), which becomes the truncation
    estimate and the convergence test.  A ``tol`` that needs more than the
    budget of ``_DIRICHLET_MAX_TERMS`` terms raises ``AccuracyError``, with
    the budget's bound as ``achieved``, before any term is summed; the
    count is estimated in floats, so the refusal costs no working-precision
    power.  A negative ``tol`` raises ``DomainError`` first.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        tol = as_mpf(tol, digits)
        if s == 1:
            raise PoleError("zeta has a simple pole at s = 1")
        if s < 1:
            raise DomainError("the defining series diverges for s <= 1")
        if tol < 0:
            raise DomainError("tol must be >= 0")
        # remaining error after the integral correction is <= N^(-s), so N
        # is about tol^(-1/s)
        with mp.workprec(53):
            log_terms = float(-mp.log(tol) / s)
        if log_terms > math.log(_DIRICHLET_MAX_TERMS):
            achieved = mpf(_DIRICHLET_MAX_TERMS) ** -s
            raise AccuracyError(
                f"zeta_dirichlet: tol {mp.nstr(tol, 3)} needs about "
                f"10^{log_terms / math.log(10):.1f} terms, past the budget of "
                f"{_DIRICHLET_MAX_TERMS:,} terms, whose bound is {mp.nstr(achieved, 3)}",
                achieved=achieved,
            )
        n_need = int(mp.ceil(tol ** (-1 / s))) + 1
        n_used = min(n_need, _DIRICHLET_MAX_TERMS)
        wp = _fixed_point_bits(digits, n_used)
        total = mp.ldexp(mpf(sum(_inverse_powers(range(1, n_used + 1), s, wp))), -wp)
        N = mpf(n_used)
        total += N ** (1 - s) / (s - 1)
        est = N ** (-s)
        return SeriesResult(total, n_used, est, est <= tol)


def zeta_eta_real(s, tol, digits: int = DEFAULT_DIGITS) -> SeriesResult:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) from the accelerated alternating
    series, s > 0, s != 1.

    ``numerics._eta_quotient`` sums eta in one acceleration, of the least
    order whose error bound 2 (3+sqrt8)^(-order) is at most the working
    floor 10^-(digits+GUARD_DIGITS) times |1 - 2^(1-s)|.  ``trunc_estimate``
    is that bound plus the rounding floor 10^-(digits+2), over
    |1 - 2^(1-s)|; ``converged`` says whether it meets ``tol``.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        tol = as_mpf(tol, digits)
        if s == 1:
            raise PoleError("zeta has a simple pole at s = 1")
        if s <= 0:
            raise DomainError("eta route requires s > 0")
        pref = 1 - mpf(2) ** (1 - s)
        if abs(pref) < ETA_DEGENERACY_THRESHOLD:
            raise PoleError("eta prefactor 1 - 2^(1-s) is degenerately small")
        value, order, est = _eta_quotient(s, pref, digits)
        return SeriesResult(value, order, est, est <= tol)


def euler_product(s, prime_bound: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Finite Euler product ``prod_{p <= bound} p^s / (p^s - 1)``, s > 1.

    For integer s <= 9 the primes p < 2^(63/s), whose p^s fits in int64,
    are multiplied in exact blocks of about ``_EULER_BLOCK_BITS`` bits of
    denominator: one fixed-point step ``prod * prod(p)^s // prod(p^s - 1)``
    per block.  The other primes, and every prime for other s, take one
    step ``prod * (1 + 1/(p^s - 1))`` each from the ``_inverse_powers``
    stream.  A step rounds down by under one unit for a block, or a few
    for a streamed prime, plus the error carried into it times its factor.
    The factors of the blocks multiply to at most zeta(2) < 2, so a block
    costs under two units, and the total stays inside the guard bits of
    ``_fixed_point_bits(digits, count)``.

    It serves only ``eval --method euler`` and forensics eq10.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        if s <= 1:
            raise DomainError("Euler product requires s > 1")
        try:
            prime_bound = operator.index(prime_bound)
        except TypeError:
            raise DomainError("prime_bound must be an integer") from None
        if prime_bound < 2:
            raise DomainError("prime_bound must be >= 2")
        primes = primes_array_up_to(prime_bound)
        wp = _fixed_point_bits(digits, int(primes.size))
        prod = 1 << wp
        e = int(s)
        # p < 2^(63/e) keeps p^e in int64 (the ceiling is exact for e <= 9);
        # past e = 9 that prefix holds too few primes (under 22) to repay
        # numpy's set-up
        if s == e and e <= 9:
            cut = int(primes.searchsorted(math.ceil(2 ** (63 / e))))
            for i in range(0, cut, _SLICE):
                chunk = primes[i : min(i + _SLICE, cut)]
                ps, dens = chunk.tolist(), (chunk**e - 1).tolist()
                # primes per block, sized by the largest p^e of the slice
                step = max(1, _EULER_BLOCK_BITS // (e * ps[-1].bit_length()))
                for j in range(0, len(ps), step):
                    num = math.prod(ps[j : j + step]) ** e
                    prod = prod * num // math.prod(dens[j : j + step])
            primes = primes[cut:]
        # each factor p^s/(p^s - 1) is 1 + 1/(p^s - 1)
        for t in _inverse_powers(primes, s, wp, minus_one=True):
            prod += prod * t >> wp
        return mp.ldexp(mpf(prod), -wp)


# Even zeta values kept by ``zeta_even_closed``.
_EVEN_CLOSED_CACHE = 1024


@functools.lru_cache(maxsize=_EVEN_CLOSED_CACHE, typed=True)
def zeta_even_closed(two_n: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Closed form at positive even integers:
    zeta(2n) = (-1)^(n+1) B_{2n} (2 pi)^(2n) / (2 (2n)!).

    The rational coefficient is computed exactly and only converted to a
    float (against pi^(2n)) at the working precision.

    Memoized on (two_n, digits), like ``numerics._em_coeffs``: the value is
    computed at ``working(digits)``, never at the caller's precision, and
    mpf values are immutable, so a cached value is the bits a fresh call
    would return.  The key is typed, so ``4.0`` is not ``4`` and still
    fails as a non-integer.  Past ``_EVEN_CLOSED_CACHE`` entries the least
    recently used are recomputed, to the same bits.
    """
    if two_n < 2 or two_n % 2 != 0:
        raise DomainError(f"argument must be a positive even integer, got {two_n}")
    digits = check_digits(digits)
    n = two_n // 2
    coeff = (
        Fraction((-1) ** (n + 1))
        * bernoulli(two_n)
        * Fraction(2**two_n, 2 * factorial(two_n))
    )
    with working(digits):
        return as_mpf(coeff, digits) * mp.pi**two_n


@functools.lru_cache(maxsize=1024)
def _zeta_even_interior(two_k: int, digits: int) -> mpf:
    """zeta at even arguments for the odd-zeta series sums, the odd
    approximation and the exact prime tails' Moebius sum.

    Exact Bernoulli closed form up to 2k = max(60, digits + 12); above that
    the direct sum over n <= N, N <= 11, is good to working precision: its
    tail is below N^(1-2k), and N is chosen so that is below 10^-(digits+12).
    So no even argument builds a Bernoulli number past that bound, and
    none is refused for the Bernoulli table's capacity.

    Memoized on (two_k, digits), like ``numerics._em_coeffs``: both routes
    run at ``working(digits)``, never at the caller's precision, and mpf
    values are immutable, so a cached value is the bits a fresh call would
    return.  One pass of perfbench's odd_series workload needs 359 keys,
    well inside the bound of 1024; past it the least recently used entries
    are recomputed, to the same bits.  The closed form has a memo of its
    own; this one stays in front of it because the series loops make about
    7,000 calls a pass, and one cached call costs less than two.
    """
    if two_k == 0:
        return mpf(-1) / 2
    if two_k <= max(60, digits + 12):
        return zeta_even_closed(two_k, digits)
    with working(digits):
        terms = int(10 ** ((digits + 12) / (two_k - 1))) + 1
        return mp.fsum(mpf(n) ** -two_k for n in range(1, terms + 1))


def zeta_negative_int(n: int) -> Fraction:
    """Exact zeta(-n) = -B_{n+1}/(n+1) for n >= 0.

    Uses the B1 = +1/2 convention so that zeta(0) = -1/2; even negative
    arguments come out exactly zero because odd Bernoulli numbers vanish.
    """
    if n < 0:
        raise DomainError("zeta_negative_int takes n >= 0 (the argument is -n)")
    return -bernoulli(n + 1, Convention.B1_PLUS_HALF) / (n + 1)


def zeta_even_recurrence(two_k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """zeta(2k) built from zeta(2), ..., zeta(2k-2) without Bernoulli numbers:

        zeta(2k) = -(sum_{j=0}^{k-2} (-1/pi^2)^(j+1) zeta(2j+2)/(2k-2j-1)!
                     + k/(2k+1)!) * pi^(2k) * (-1)^k

    Pure floating arithmetic; the base case zeta(2) = pi^2/6 is built in.
    """
    if two_k < 2 or two_k % 2 != 0:
        raise DomainError(f"argument must be a positive even integer, got {two_k}")
    digits = check_digits(digits)
    k_max = two_k // 2
    with working(digits):
        pi2 = mp.pi**2
        values = [pi2 / 6]  # zeta(2)
        for k in range(2, k_max + 1):
            acc = mpf(k) / mp.factorial(2 * k + 1)
            for j in range(k - 1):
                acc += (-1 / pi2) ** (j + 1) * values[j] / mp.factorial(2 * k - 2 * j - 1)
            values.append(-acc * mp.pi ** (2 * k) * (-1) ** k)
        return values[k_max - 1]


def _oracle_arg(s) -> Union[mpf, mpc]:
    """``s`` as an mpf when real and an mpc otherwise, or ``PoleError`` or
    ``DomainError`` outside the oracle's half-plane Re(s) > -1/2."""
    s = mpc(s)
    if abs(s - 1) <= mpf("1e-30"):
        raise PoleError("zeta has a simple pole at s = 1")
    if s.real <= mpf("-0.5"):
        raise DomainError("oracle supports Re(s) > -1/2 only")
    return s.real if s.imag == 0 else s


def zeta_oracle(s, tol, digits: int = DEFAULT_DIGITS) -> mpc:
    """Independent Euler-Maclaurin evaluation of zeta(s), Re(s) > -1/2.

    One ``numerics._euler_maclaurin`` evaluation of sum (n + 1)^(-s),
    planned from Johansson's remainder bound (Numer. Algorithms 69, 2015)
    for the working floor 10^-(digits+GUARD_DIGITS), summed in fixed point
    and rounded once, returned as an mpc.  ``tol`` only guards the floor: a
    ``tol`` under it, or a plan past the shift budget, raises
    ``AccuracyError`` before any term is summed.
    """
    digits = check_digits(digits)
    with working(digits):
        s = _oracle_arg(s)
        _working_floor(as_mpf(tol, digits), digits, "zeta_oracle")
        return mpc(_euler_maclaurin(s, mpf(1), digits))


def _zeta_orders(orders, tol, digits: int = DEFAULT_DIGITS) -> list:
    """zeta(k) for each integer k >= 2 of the ascending ``orders``, from one
    ``numerics._em_orders`` pass: each the value ``zeta_oracle(k, tol,
    digits).real`` returns.  A ``tol`` below the working floor raises the
    oracle's ``AccuracyError`` before any term is summed."""
    digits = check_digits(digits)
    with working(digits):
        _working_floor(as_mpf(tol, digits), digits, "zeta_oracle")
        return _em_orders(orders, mpf(1), digits)


def zeta_reference(s, digits: int = DEFAULT_DIGITS) -> Union[mpf, mpc]:
    """High-precision reference zeta for internal consumers: the oracle's
    evaluation, planned for the working-precision floor, real for real
    input."""
    digits = check_digits(digits)
    with working(digits):
        return _euler_maclaurin(_oracle_arg(s), mpf(1), digits)
