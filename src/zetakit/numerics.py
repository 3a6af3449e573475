"""Shared numerical machinery: alternating-series acceleration with its
order planned from the Cohen-Rodriguez Villegas-Zagier bound, interval
quadrature, digamma and the one-pass digamma gap, the one Euler-Maclaurin
evaluator behind Hurwitz zeta and the zeta oracle, planned and summed
relative to max(a, 1)^-s from one coefficient table per precision, whose
integer orders take one fixed-point pass per run of orders
(``_em_orders``), and the fixed-point
inverse powers behind the prime sums, the Euler product and the defining
series.  The alternating acceleration, the digamma gap, the
Euler-Maclaurin evaluator and the prime sums add their terms as integers
at the working precision plus guard bits and round once (R. Brent and P.
Zimmermann, *Modern Computer Arithmetic*, 2010, section 4.4).  The
acceleration's weights are exact integers, applied by one weighted-sum
kernel (``_crvz_sum``), and every planned order comes from ``_accel_plan``,
which refuses one past the table's capacity before any work at the
working precision.  The coefficients n^-s of eta, and the direct
block of the zeta oracle, come from one fixed-point table of integer pairs
that costs one fixed-point logarithm and one cos/sin pair, or exp, per
prime, all in integers, and one integer product per composite
(``_inverse_power_table``).  The digamma gap has an integer entry
(``_digamma_gap_fixed``) that the trapezoidal sum on Re(s) = 1 reads
without a conversion per node.

Everything here is a pure function of its arguments; the working precision
travels as a ``digits`` parameter and is applied through ``mp.workdps``
blocks that restore the caller's precision.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Union

from mpmath import mp, mpf, mpc
from mpmath.libmp import dps_to_prec, from_man_exp, fzero, log_int_fixed, pi_fixed, to_fixed
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed

from .bern import bernoulli, tangent_number
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    EvaluationError,
)
from .precision import (
    DEFAULT_DIGITS,
    GUARD_DIGITS,
    as_mpf,
    check_digits,
    working,
)

Number = Union[mpf, mpc]


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a summed (or accelerated) series: its value, the terms
    summed, an error figure and a convergence flag, read per producer:

    * ``zetacore.zeta_dirichlet``: ``trunc_estimate`` is a proven bound on
      the truncation error, and ``converged`` says whether it meets the
      requested tolerance; a tolerance past the term budget raises
      ``AccuracyError`` instead of returning;
    * ``primetail.t_direct``: the same bound, with ``converged`` False when
      the prime budget stops the sum short;
    * ``zetacore.zeta_eta_real``: the proven bound of the planned
      acceleration plus a rounding floor, ``converged`` as above;
    * ``primetail.t_exact``: its truncation bound, which the sum always
      drives below the working floor, plus ten floor units of rounding;
      no tolerance is asked, and ``converged`` is True;
    * ``accelerate_alternating``: a 3 max(1, |value|) (3+sqrt8)^(-order)
      error model, not a bound; no tolerance was asked, so ``converged``
      is False.
    """

    value: Number
    terms_used: int
    trunc_estimate: mpf
    converged: bool


# Cohen-Rodriguez Villegas-Zagier alternating-series acceleration: the
# Chebyshev-polynomial coefficient table d_k built from binomials gives
# error ~ (3+sqrt8)^(-order), i.e. ~ order/1.31 correct digits.
_ACCEL_MAX_ORDER = 10_000
# Guard digits of the acceleration, the same at every order (see
# ``accelerate_alternating``).
_ACCEL_GUARD_DIGITS = 15
# Fraction bits of the accelerated sum beyond the guarded precision and the
# order.bit_length() bits that absorb one rounding unit per term.
_ACCEL_GUARD_BITS = 8


@functools.lru_cache(maxsize=128)
def _crvz_weights(order: int) -> tuple:
    """Integer weights (c_1, ..., c_order) and divisor d of the
    acceleration: sum_{n>=1} (-1)^(n-1) a_n ~ sum_n c_n a_n / d.

    d = ((3+sqrt8)^n + (3+sqrt8)^(-n))/2 for n = ``order`` is the integer
    of d_k = 6 d_(k-1) - d_(k-2), d_0 = 1, d_1 = 3.  With b_0 = -1 and
    b_(k+1) = 2 (k+n)(k-n) b_k / ((2k+1)(k+1)), every division exact, the
    weights are c_(k+1) = b_k - c_k from c_0 = -d, and |c_k| < d.  Memoized
    per order: a hit returns the same tuple.
    """
    d_prev, d = 1, 3
    for _ in range(order - 1):
        d_prev, d = d, 6 * d - d_prev
    b, c = -1, -d
    weights = []
    for k in range(order):
        c = b - c
        weights.append(c)
        b = 2 * (k + order) * (k - order) * b // ((2 * k + 1) * (k + 1))
    return tuple(weights), d


def _check_order(order: int) -> None:
    if order < 4:
        raise ConfigError(f"acceleration order must be >= 4, got {order}")
    if order > _ACCEL_MAX_ORDER:
        raise ConfigError(
            f"acceleration order {order} exceeds table capacity {_ACCEL_MAX_ORDER}"
        )


def _crvz_sum(re, im, bits: int) -> Number:
    """sum_n c_n x_n / d over the weights of ``_crvz_weights(len(re))``,
    for the fixed-point x_n = (re[n-1] + i im[n-1]) 2^-bits, divided once
    and rounded once at the current precision: an mpf when ``im`` is None
    or its weighted sum is 0, an mpc otherwise.  Every |c_n| < d, so x_n
    off by at most u units each leave the value off by at most
    len(re) u + 1 units."""
    weights, d = _crvz_weights(len(re))
    value = mpf((sum(map(operator.mul, weights, re)) // d, -bits))
    if im is not None:
        total = sum(map(operator.mul, weights, im))
        if total:
            value = mpc(value, mpf((total // d, -bits)))
    return value


def accelerate_alternating(
    coeff: Callable[[int], Number],
    order: int,
    digits: int = DEFAULT_DIGITS,
) -> SeriesResult:
    """Accelerated value of ``sum_{n>=1} (-1)^(n-1) coeff(n)``.

    For coefficient sequences with an analytic continuation the returned
    value is the Abel-regularized sum; the error decays geometrically in
    ``order``, which the flat bound of ``_accel_plan`` proves for the
    unit-modulus ``n^(-ib)``.  ``trunc_estimate`` is the
    3 max(1, |value|) (3+sqrt8)^(-order) error model, not a bound; no
    tolerance was requested, so ``converged`` is False.  Callers whose
    coefficients are moments of a known measure take the order and a proven
    bound from ``_accel_plan`` instead.

    The coefficients are read ``_ACCEL_GUARD_DIGITS`` (15) digits above
    ``digits`` at every order and summed in integers: each is turned into
    fixed point with that precision plus ``order.bit_length()`` and
    ``_ACCEL_GUARD_BITS`` bits below the largest of them, times its integer
    weight, and ``_crvz_sum`` divides by d and rounds once.  Every |c_n| <
    d, so the roundings cost at most order + 1 units, which the
    ``order.bit_length()`` bits absorb; ``tests/test_guards.py`` has a
    witness for each guard.
    """
    _check_order(order)
    digits = check_digits(digits)
    with working(digits, pad=_ACCEL_GUARD_DIGITS):
        parts = []
        top = None  # the largest binary exponent of any nonzero part
        for n in range(1, order + 1):
            t = coeff(n)
            if not isinstance(t, (mpf, mpc)):
                t = mp.mpmathify(t)
            pair = t._mpc_ if isinstance(t, mpc) else (t._mpf_, fzero)
            for part in pair:
                if part[1]:
                    mag = part[2] + part[3]
                    if top is None or mag > top:
                        top = mag
                elif part[2]:
                    # a raw mpf with a zero mantissa is 0 when its exponent
                    # is 0, and an infinity or a NaN otherwise
                    raise EvaluationError(f"non-finite coefficient at index {n}", index=n)
            parts.append(pair)
        bits = mp.prec + order.bit_length() + _ACCEL_GUARD_BITS - (top or 0)
        value = _crvz_sum([to_fixed(t_re, bits) for t_re, _ in parts],
                          [to_fixed(t_im, bits) for _, t_im in parts], bits)
        scale = max(mpf(1), abs(value))
        est = 3 * scale / (3 + 2 * mp.sqrt(2)) ** order
        return SeriesResult(value, order, est, False)


def _least_prime_factors(count: int) -> list:
    """lpf[n], the least prime factor of n, for 2 <= n <= ``count``."""
    lpf = list(range(count + 1))
    for p in range(2, math.isqrt(count) + 1):
        if lpf[p] == p:
            for m in range(p * p, count + 1, p):
                if lpf[m] == m:
                    lpf[m] = p
    return lpf


def _inverse_power_table(s, count: int, bits: int) -> tuple:
    """(re, im): Re and Im of n^-s 2^bits as integers, n = 1..``count``,
    each off by at most one unit, for Re(s) > -1/2; ``im`` is None for an
    mpf ``s``.

    n^-s is multiplicative, so only a prime p costs a transcendental step,
    and it runs in integers on mpmath's fixed-point primitives, at w =
    bits + g + extra fraction bits, with g = 2 bitlen(count) + 8 and extra =
    bitlen(count) + mag(|s|) + 8.  For s = sigma + ib it takes one
    logarithm L = ln p (``log_int_fixed``), then the phase e^(-ib ln p) as
    one cos/sin pair of -bL (``cos_sin_fixed``) and, when sigma is not a
    whole number, the modulus e^(-sigma L) (``exp_fixed``); a real s skips
    the phase, and a real s with a whole sigma needs no logarithm.  In
    units of 2^-w, with C = bitlen(count) and M = |p^-s| <= count^(1/2):
    L is off by about 1 unit; the phase by |b| units from L, 1 from the
    floor of bL, 1 per quarter turn of the reduction (at most 0.45 |b| C
    + 1 of them) and a few from the series; the modulus by |sigma| + 1
    units relative from its argument, M times that absolutely, and a few
    units, times max(M, 1), from the series; their product floors once
    more.  That is at most count^(1/2) (|s| + 1) (C + 13) units, under
    2^-4 units once the ``extra`` bits are shifted away, a shift that
    floors each part.  When sigma is a whole number k, p^-sigma is then
    the integer division by p^k, which floors once more, so each part of a
    prime is off by under 1.54 units of 2^-(bits+g) and the prime by under
    2.2.  Once k (bitlen(p) - 1) > bits + g + 1, p^k exceeds each part,
    whose quotient is then 0 or -1 by its sign alone: a shift gives it,
    and p^k, at k = 10^12 larger than any memory, is never formed.  A
    composite n is the one integer (complex) product p^-s (n/p)^-s, p its
    least prime factor, rounded down to bits + g fraction bits.  A product adds at most sqrt2 units to the errors of its
    factors, each weighted by the other's modulus, which is at most 1 for
    sigma >= 0 and below n^(1/2) for sigma > -1/2.  The chain behind n^-s
    has at most log2(n) primes and products, so n^-s is off by at most
    4 log2(n) n^(1/2) < 2^(g-1) units before the last step rounds the g
    guard bits away to nearest.
    """
    g = 2 * count.bit_length() + 8
    wp = bits + g
    lpf = _least_prime_factors(count)
    b = s.imag if isinstance(s, mpc) else None
    sigma = s.real
    k = int(sigma) if sigma >= 0 and sigma == int(sigma) else None
    re, im = [0, 1 << wp], [0, 0]
    # a prime's modulus, up to count^(1/2), and the arguments b ln p and
    # sigma ln p, each up to |s| bitlen(count), take at most this many bits
    # above wp
    extra = count.bit_length() + (max(0, int(mp.mag(s))) if s else 0) + 8
    w = wp + extra
    B = None if b is None else to_fixed(b._mpf_, w)
    S = None if k is not None else to_fixed(sigma._mpf_, w)
    quarter = None if b is None else pi_fixed(w - 1)
    for n in range(2, count + 1):
        p = lpf[n]
        if p != n:
            m = n // p
            if b is None:
                re.append(re[p] * re[m] >> wp)
            else:
                (a, c), (x, y) = (re[p], im[p]), (re[m], im[m])
                re.append((a * x - c * y) >> wp)
                im.append((a * y + c * x) >> wp)
        else:
            x, y = 1 << w, 0
            if B is not None or S is not None:
                L = log_int_fixed(n, w)
                if B is not None:
                    x, y = cos_sin_fixed(-(B * L >> w), w, quarter)
                if S is not None:
                    r = exp_fixed(-(S * L >> w), w)
                    x, y = x * r >> w, y * r >> w
            x, y = x >> extra, y >> extra
            if k and k * (n.bit_length() - 1) > wp + 1:
                # |x|, |y| <= 2^wp + 1 < n^k: the quotient is the sign,
                # as a shift past every bit gives it, without forming n^k
                x, y = x >> w, y >> w
            elif k:
                x, y = x // n**k, y // n**k
            re.append(x)
            if b is not None:
                im.append(y)
    half = 1 << (g - 1)
    re = tuple((x + half) >> g for x in re[1 : count + 1])
    if b is None:
        return re, None
    return re, tuple((y + half) >> g for y in im[1 : count + 1])


def _eta_quotient(s, pref, digits: int, flat: bool = False) -> tuple:
    """(value, order, est): eta(s) / ``pref``, Re(s) >= 0, from one
    acceleration of the order ``_accel_plan`` gives for the working floor
    ``_em_floor(digits)`` times |pref|, with C taken at b = Im(s) and the
    flat bound when ``flat``.  eta is the integer table of
    ``_inverse_power_table``, weighted by ``_crvz_sum`` at the precision
    and fraction bits of ``accelerate_alternating``, and rounded once: each
    entry is off by at most one unit, so the sum is off by at most order + 1
    units.  Its 15 guard digits, not ``GUARD_DIGITS``, are what ``zeros``
    needs, since at a zero of zeta |eta| is the truncation itself; row (a)
    of ``tests/test_guards.py`` is their witness.  ``est`` is the plan's
    bound plus the rounding floor 10^-(digits+2), over |pref|.

    One quotient behind the eta routes: zeta(s) = eta(s) / (1 - 2^(1-s))
    for real s, zeta(1+ib) and the flat series over 1 - 2^(-ib), and eta
    itself with ``pref`` = 1.  Callers check the argument and that
    ``pref`` is not degenerate; ``_accel_plan`` refuses an order past
    capacity."""
    with working(digits):
        order, bound = _accel_plan(_em_floor(digits) * abs(pref), s.imag, flat)
        est = (bound + mpf(10) ** (-(digits + 2))) / abs(pref)
        with working(digits, pad=_ACCEL_GUARD_DIGITS):
            bits = mp.prec + order.bit_length() + _ACCEL_GUARD_BITS
            re, im = _inverse_power_table(s, order, bits)
            eta = _crvz_sum(re, im, bits)
        return eta / pref, order, est


def _accel_plan(target, b=0, flat=False) -> tuple:
    """Order n and error bound of ``accelerate_alternating``: the least
    n >= 4 whose bound 2 C (3+sqrt8)^(-n), or 2 (1 + kappa n) C
    (3+sqrt8)^(-n) when ``flat``, is at most ``target``.

    The bound is that of H. Cohen, F. Rodriguez Villegas and D. Zagier
    ("Convergence acceleration of alternating series", Experimental Math.
    9, 2000) in the form P. Borwein gives it for eta ("An efficient
    algorithm for the Riemann zeta function", CMS Conf. Proc. 27, 2000).
    When a_k = int_0^1 x^(k-1) dmu(x), the weighted sum of order n is off
    by int_0^1 P(x) dmu(x) / ((1+x) d), where |P| <= 1 on [0, 1] and d, the
    divisor of ``_crvz_weights``, is ((3+sqrt8)^n + (3+sqrt8)^(-n))/2 >=
    (3+sqrt8)^n / 2.  So the error is at most 2 (3+sqrt8)^(-n) C with C
    any bound on int_0^1 |dmu(x)|/(1+x):

    * a_k = k^(-s), sigma = Re(s) > 0: dmu = (-ln x)^(s-1) dx / Gamma(s),
      and the integral is Gamma(sigma) eta(sigma) / |Gamma(s)| with
      eta(sigma) <= 1.  For real s, C = 1 (``b = 0``).  On Re(s) = 1,
      C = 1/|Gamma(1+ib)| = sqrt(sinh(pi |b|)/(pi |b|)), taken for
      ``b != 0`` without a Gamma call;
    * a_k = 1/(x+k), x > 0: dmu = t^x dt is positive, so the integral is
      the sum itself, at most 1/(x+1) (CRVZ Proposition 1), and C = 1;
    * a_k = k^(-ib), the flat series on Re(s) = 0 (``flat``): there
      (-ln x)^(ib-1) dx is not integrable at x = 1, so integrate by parts
      once.  With dnu = (-ln x)^(ib) dx / Gamma(1+ib), a_k = int_0^1
      (x^k)' dnu(x), which holds for Re(s) > -1.  The functional
      g -> int_0^1 (x g(x))' dnu(x) maps x^(k-1) to a_k, so the error of
      order n is (1/d) int_0^1 (x P(x)/(1+x))' dnu(x).  By |P| <= 1 and
      Bernstein's |P'(x)| <= n / sqrt(x(1-x)) on [0, 1], the derivative is
      at most 1 + n sqrt(x) / ((1+x) sqrt(1-x)).  |dnu| = C dx with the C
      = 1/|Gamma(1+ib)| of Re(s) = 1, and int_0^1 sqrt(x) dx / ((1+x)
      sqrt(1-x)) = kappa = pi (1 - 1/sqrt2), so the error is at most
      2 (1 + kappa n) C (3+sqrt8)^(-n).

    The bound leaves out rounding, which callers add.  Everything is worked
    in logarithms at the caller's precision, so a large |b| cannot
    overflow.  An order past ``_ACCEL_MAX_ORDER`` raises ``ConfigError``,
    first from the non-flat order in floats with log(target) taken from
    target < 2^mag(target), which is at most the planned order, before any
    logarithm at the working precision; then from the planned order.
    """
    x = math.pi * abs(float(b))
    # past the float range x is inf, and the estimate nan
    log_c = (x + math.log(-math.expm1(-2 * x)) - math.log(2 * x)) / 2 if x else 0.0
    estimate = ((1 - mp.mag(target)) * math.log(2) + log_c) / math.log(3 + math.sqrt(8))
    if not estimate <= _ACCEL_MAX_ORDER + 1:
        _check_order(math.ceil(estimate) if math.isfinite(estimate) else math.inf)
    log_c = mpf(0)
    if b:
        x = mp.pi * abs(b)
        # sinh(x)/x = e^x (1 - e^(-2x)) / (2x)
        log_c = (x + mp.log(-mp.expm1(-2 * x) / (2 * x))) / 2
    log_bound, log_target = mp.log(2) + log_c, mp.log(target)
    rate = mp.log(3 + mp.sqrt(8))
    order = max(4, int(mp.ceil((log_bound - log_target) / rate)))
    if flat:
        # log(1 + kappa n) grows far slower than n rate: a few steps settle it
        kappa = mp.pi * (1 - 1 / mp.sqrt(2))
        while log_bound + mp.log(1 + kappa * order) - order * rate > log_target:
            order += 1
        log_bound += mp.log(1 + kappa * order)
    _check_order(order)
    return order, mp.exp(log_bound - order * rate)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _legendre_nodes(n: int, dps: int):
    """Gauss-Legendre nodes/weights on [-1, 1] at ``dps`` decimal digits
    (even ``n`` only: the node pairs are +-x)."""
    with mp.workdps(dps + 10):
        nodes = []
        for i in range(1, n // 2 + 1):
            # Chebyshev initial guess, then Newton on P_n.
            x = mp.cos(mp.pi * (i - mpf(1) / 4) / (n + mpf(1) / 2))
            for _ in range(100):
                p0, p1 = mpf(1), x
                for j in range(2, n + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(10) ** (-(dps + 6)):
                    break
            w = 2 / ((1 - x * x) * dp * dp)
            nodes.append((x, w))
        out = []
        for x, w in nodes:
            out.append((-x, w))
            out.append((x, w))
        return tuple(out)


# Highest Gauss-Legendre order that integrate_interval tries.  Building the
# nodes costs O(n^2): at 50 digits on one 2.1 GHz core a failure at this cap
# takes about 2 s, at 512 about 10 s.
_MAX_ORDER = 256


def integrate_interval(f: Callable, a, b, tol, digits: int = DEFAULT_DIGITS) -> tuple:
    """Gauss-Legendre quadrature of ``f`` over [a, b]; returns
    ``(value, error)``.

    The order doubles from 16 until two successive rules agree to ``tol``.
    For ``f`` analytic inside the Bernstein ellipse of parameter rho about
    [a, b], the n-point rule is off by O(rho^(-2n)) (Trefethen,
    *Approximation Theory and Approximation Practice*, Theorem 19.3), so
    the returned higher rule is far closer than ``error``, the difference
    of the two plus a rounding allowance.  Raises ``AccuracyError`` if the
    rules still disagree at order ``_MAX_ORDER``.
    """
    digits = check_digits(digits)
    with working(digits):
        a = as_mpf(a, digits)
        b = as_mpf(b, digits)
        tol = as_mpf(tol, digits)
        if b <= a:
            return mpc(0), mpf(0)
        mid, half = (a + b) / 2, (b - a) / 2
        prev, n = None, 16
        while True:
            terms = [w * f(mid + half * x) for x, w in _legendre_nodes(n, digits + 10)]
            value = half * mp.fsum(terms)
            if prev is not None:
                # plus n units in the last place of each term for rounding
                size = mp.fsum([abs(t.real) for t in terms] + [abs(t.imag) for t in terms])
                err = abs(value - prev) + n * mp.eps * half * size
                if err <= tol:
                    return value, err
                if n >= _MAX_ORDER:
                    raise AccuracyError(
                        f"quadrature failed to reach tol={mp.nstr(tol, 5)} on "
                        f"[{mp.nstr(a, 8)}, {mp.nstr(b, 8)}] by order {n}",
                        achieved=err,
                    )
            prev, n = value, 2 * n


# ---------------------------------------------------------------------------
# Digamma and Hurwitz zeta
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _digamma_coeffs(dps: int, count: int):
    """B_{2k}/(2k) as mpf values at ``dps`` digits, k = 1..count."""
    with mp.workdps(dps + 10):
        return tuple(
            as_mpf(bernoulli(2 * k), dps + 10) / (2 * k) for k in range(1, count + 1)
        )


def digamma(x, digits: int = DEFAULT_DIGITS) -> mpf:
    """Psi(x) for x > 0: upward recurrence shift, then the asymptotic
    series with even-index Bernoulli coefficients.

    The shift threshold and term count scale with ``digits`` so the result
    is accurate to roughly the full working precision (the optimally
    truncated series at shift X is good to ~exp(-2*pi*X)).
    """
    digits = check_digits(digits)
    with working(digits):
        x = as_mpf(x, digits)
        if x <= 0:
            raise DomainError(f"digamma requires x > 0, got {mp.nstr(x, 8)}")
        target = mpf(10) ** (-(digits + 5))
        shift_to = max(20, int(0.3665 * (digits + 8)) + 2)
        acc = mpf(0)
        while x < shift_to:
            acc -= 1 / x
            x += 1
        # psi(x) ~ ln x - 1/(2x) - sum B_{2k}/(2k x^{2k})
        coeffs = _digamma_coeffs(digits, int(3.3 * shift_to) + 8)
        val = mp.log(x) - 1 / (2 * x)
        x2 = x * x
        xpow = x2
        prev = mpf("inf")
        for c in coeffs:
            term = c / xpow
            if abs(term) > prev:
                break  # divergent turn of the asymptotic series
            val -= term
            prev = abs(term)
            if abs(term) < target:
                break
            xpow *= x2
        return val + acc


# The digamma gap Psi(x/2 + 1) - Psi((x+1)/2) equals 2 beta(x+1), where
# beta(y) = sum_{k>=0} (-1)^k/(y+k).  Below _GAP_X0 it is summed as a Taylor
# series in x, from _GAP_X0 on by a shift of y and an asymptotic series.
_GAP_X0 = mpf(1) / 4
_LOG10_2 = math.log10(2)
# Fraction bits of the fixed-point gap beyond the working precision.
_GAP_GUARD_BITS = 24


@functools.lru_cache(maxsize=64)
def _gap_bits(digits: int) -> int:
    """Fraction bits of the gap's coefficient tables: the precision of
    ``working(digits)`` plus ``_GAP_GUARD_BITS``, memoized, as every gap
    evaluation reads it."""
    return dps_to_prec(digits + GUARD_DIGITS) + _GAP_GUARD_BITS


@functools.lru_cache(maxsize=16)
def _gap_taylor_coeffs(digits: int):
    """a_n = 2 (-1)^n eta(n+1), n = 0..N-1, of gap(x) = sum a_n x^n, as
    integers a_n 2^``_gap_bits(digits)`` rounded down.

    N makes the first omitted term, at most 2 x^N, fall below
    10^-(digits+6) for every x < _GAP_X0.  Each eta(n+1) is the accelerated
    alternating series sum (-1)^(k-1) k^-(n+1) over the one integer weight
    table of ``_crvz_weights``, of the order ``_accel_plan`` gives for the
    working floor ``_em_floor(digits)``.  The weighted terms
    c_k k^-(n+1) 2^f are exact floors, each one the floor of its
    predecessor over k, so eta(n+1) is off by less than order/d + 1 units
    of the f = ``_gap_bits`` + ``order.bit_length()`` bits it is summed at.
    """
    count = math.ceil((digits + 6) / (2 * _LOG10_2))
    order, _ = _accel_plan(_em_floor(digits))
    weights, d = _crvz_weights(order)
    bits = _gap_bits(digits)
    extra = order.bit_length()
    terms = [c << (bits + extra) for c in weights]
    coeffs = []
    for n in range(count):
        terms = [t // k for k, t in enumerate(terms, 1)]  # c_k k^-(n+1)
        eta = sum(terms) // d >> extra
        coeffs.append(2 * eta if n % 2 == 0 else -2 * eta)
    return tuple(coeffs)


@functools.lru_cache(maxsize=16)
def _gap_asymptotic(digits: int):
    """Shift target Y, coefficients c_k = (4^k - 1) B_2k / (2k) of
    beta(y) ~ 1/(2y) + sum_k c_k y^(-2k) as integers c_k 2^``_gap_bits``
    rounded down, and for each term count j the least y at which j terms
    leave a relative error below 10^-(digits+5): as a float (inf past the
    float range) and as its log10.  The optimally truncated series at y is
    good to about exp(-pi y), so Y = 0.75 (digits+8) needs no more terms
    than listed.

    By B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), c_k = (-1)^(k-1) T_k / 4^k
    exactly, with T_k the tangent numbers, so each integer is the signed
    T_k 2^(bits - 2k), floored, with no rational arithmetic.  Each log10
    is taken of T_k 2^(1-2k) at 128 bits, whatever ``digits`` is: only
    its float is kept, and 128 bits round it to the float that the full
    precision gives, barring a value within 2^-70 of its last place from
    a rounding midpoint."""
    shift_to = int(0.75 * (digits + 8)) + 1
    goal = digits + 5
    bits = _gap_bits(digits)
    coeffs, limits, log_limits = [], [], []
    k = 1
    while True:
        t = tangent_number(k)
        # j = k - 1 terms suffice once |c_k| y^(-2k) <= 10^-goal / (2y);
        # 2 |c_k| = T_k 2^(1-2k)
        with mp.workprec(128):
            log10_c = float(mp.log10(mp.ldexp(mpf(t), 1 - 2 * k)))
        log_limit = (log10_c + goal) / (2 * k - 1)
        if log_limits and log_limit >= log_limits[-1]:
            raise AssertionError("beta asymptotic series turned before the shift target")
        # no float y reaches 10^308, and 10 ** x overflows past x = 308.25
        limit = 10 ** log_limit if log_limit < 308 else math.inf
        limits.append(limit)
        log_limits.append(log_limit)
        if limit <= shift_to:
            return shift_to, tuple(coeffs), tuple(limits), tuple(log_limits)
        coeffs.append((t if k % 2 else -t) << bits >> 2 * k)
        k += 1


def _digamma_gap_fixed(X: int, bits: int, digits: int) -> int:
    """(Psi(x/2 + 1) - Psi((x+1)/2)) 2^bits rounded down, for the x > 0
    given in fixed point as X = x 2^bits, bits >= ``_gap_bits(digits)``.

    The gap is 2 beta(x+1) with beta(y) = sum_{k>=0} (-1)^k/(y+k).  For
    x < 1/4 it is the Taylor series 2 ln 2 + sum_{n>=1} 2 (-1)^n eta(n+1) x^n
    with as many terms as ``x`` needs.  Otherwise beta(y) = 1/(y(y+1)) +
    beta(y+2) shifts y past about 0.75 (digits+8) and the asymptotic series
    1/(2y) + sum (4^k - 1) B_2k/(2k y^2k) finishes; every shift term is
    positive, so nothing cancels.  Both run in integers at ``bits`` over
    the coefficient tables memoized per ``digits``, which hold
    ``_gap_bits(digits)`` fraction bits and are shifted up to ``bits``.  So
    the result is good to a few units of 2^-_gap_bits(digits), and to
    about 10^-(digits+5) relative when ``bits`` exceeds that by mag(x), as
    ``digamma_gap`` reads it.
    """
    shift = bits - _gap_bits(digits)
    one = 1 << bits
    if X < one >> 2:  # x < _GAP_X0
        coeffs = _gap_taylor_coeffs(digits)
        # x < 2^mag(x) <= 1/4, mag(x) = bitlen(X) - bits, so n <=
        # len(coeffs) terms leave at most 2 x^n < 10^-(digits+6)
        n = math.ceil((digits + 6) / ((bits - X.bit_length()) * _LOG10_2))
        acc = coeffs[n - 1] << shift
        for a in reversed(coeffs[: n - 1]):
            acc = (acc * X >> bits) + (a << shift)
        return acc
    shift_to, coeffs, limits, log_limits = _gap_asymptotic(digits)
    y = X + one
    acc = 0
    while y < shift_to << bits:
        acc += (one << 2 * bits) // (y * (y + one))
        y += 2 * one
    mag = y.bit_length() - bits
    if mag < 1023:  # y / one rounds once to a float
        yf = y / one
        terms = next(j for j, limit in enumerate(limits) if yf >= limit)
    else:  # past the float range, from log10 y >= (mag - 1) log10 2
        ly = (mag - 1) * _LOG10_2
        terms = next(j for j, limit in enumerate(log_limits) if ly >= limit)
    inv = (one << bits) // y
    z = inv * inv >> bits
    tail = 0
    for c in reversed(coeffs[:terms]):
        tail = ((c << shift) + tail) * z >> bits
    return 2 * (acc + tail) + inv


def digamma_gap(x, digits: int = DEFAULT_DIGITS) -> mpf:
    """Psi(x/2 + 1) - Psi((x+1)/2) for x > 0, in one pass and without a
    logarithm: ``_digamma_gap_fixed`` with f = ``_gap_bits(digits)`` +
    max(0, mag(x)) fraction bits, in which x is exact, rounded once.  The
    gap is about 1/x, so the mag(x) bits keep its relative accuracy at
    large x; the result is accurate to about 10^-(digits+5) relative.
    """
    digits = check_digits(digits)
    with working(digits):
        x = as_mpf(x, digits)
        if x <= 0:
            raise DomainError(f"digamma_gap requires x > 0, got {mp.nstr(x, 8)}")
        bits = _gap_bits(digits) + max(0, mp.mag(x))
        return mpf((_digamma_gap_fixed(to_fixed(x._mpf_, bits), bits, digits), -bits))


# Largest shift N that an Euler-Maclaurin plan may ask for.
_EM_MAX_SHIFT = 1 << 16
# Most corrections a coefficient table may hold, enough for 1,475 digits.
_EM_MAX_CORRECTIONS = 1000


def _em_max_order(target_digits: float) -> int:
    # the cheapest plan for 10^-target_digits needs about 0.55 target_digits
    # corrections at real s, a few more as |Im s| grows
    return int(2 * target_digits / 3) + 10


@functools.lru_cache(maxsize=16)
def _em_coeffs(digits: int):
    """C_k = B_2k/(2k)!, k = 1, 2, ..., as pairs (m, e) with C_k = m 2^-e,
    for every k that a plan for the working floor at ``digits`` can ask
    for, so one table serves every plan, at every s and a.  Each m is
    rounded toward minus infinity from the exact rational and carries the
    fraction bits of the widest fixed-point sum at that precision, however
    small C_k is.  A table past ``_EM_MAX_CORRECTIONS`` raises
    ``ConfigError`` before any Bernoulli number is built."""
    count = _em_max_order(digits + GUARD_DIGITS + 1)
    if count > _EM_MAX_CORRECTIONS:
        raise ConfigError(f"Euler-Maclaurin table of {count} corrections at {digits} "
                          f"digits exceeds capacity {_EM_MAX_CORRECTIONS}")
    bits = _fixed_point_bits(digits, _EM_MAX_SHIFT + count)
    table = []
    for k in range(1, count + 1):
        c = bernoulli(2 * k) / math.factorial(2 * k)
        e = bits + c.denominator.bit_length() - abs(c.numerator).bit_length()
        table.append(((c.numerator << e) // c.denominator, e))
    return tuple(table)


def _working_floor(tol, digits: int, what: str) -> mpf:
    """The working-precision floor 10^-(digits+GUARD_DIGITS), or
    ``AccuracyError`` naming ``what`` when ``tol`` lies below it: an
    evaluation that carries every working digit meets any ``tol`` above
    the floor and none below it."""
    floor = mpf(10) ** (-(digits + GUARD_DIGITS))
    if tol < floor:
        raise AccuracyError(
            f"{what}: tol {mp.nstr(tol, 3)} is below the working-precision "
            f"floor 10^-{digits + GUARD_DIGITS}",
            achieved=floor,
        )
    return floor


# Plans kept by ``_plan``, well above the 185 distinct keys of one pass of
# perfbench's odd_series job list.
_PLAN_CACHE = 1024


def euler_maclaurin_plan(s, a0, target) -> tuple:
    """Shift N and correction count M for ``_euler_maclaurin``: the pair
    with the fewest terms N + M whose remainder bound is at most ``target``
    min(1, a0^-sigma), sigma = Re(s).

    Summing (n + a0)^(-s) for n < N and adding the tail at x = a0 + N with
    M corrections leaves a remainder R with, for sigma > 1 - 2M,

        |R| <= 4 |(s)_(2M)| / (2 pi)^(2M) * x^(1 - sigma - 2M) / (sigma + 2M - 1),

    (s)_(2M) = s (s+1) ... (s+2M-1) (F. Johansson, "Rigorous high-precision
    computation of the Hurwitz zeta function and its derivatives", Numer.
    Algorithms 69, 2015, Theorem 1).  With c = max(a0, 1) and e = sigma +
    2M - 1, it is at most ``target`` c^-sigma once y = log(x/c) >= (log 4 +
    log |(s)_(2M)| - 2M log(2 pi) - log e - log target - (2M - 1) log c) / e,
    in which sigma log c has cancelled, so for each M the least N follows
    in closed form, in float logarithms.  Where exp(y + log c) rounds onto
    a0 although y > log(a0/c), as at sigma past about 3e18, N is 1, which
    meets the bound.  The search stops once M alone reaches the best N + M
    so far.  Raises ``AccuracyError`` when every plan needs a shift past
    ``_EM_MAX_SHIFT``.

    The search reads only complex(s), float(a0) and log(target), so
    ``_plan`` memoizes it on that key, at most ``_PLAN_CACHE`` entries and
    no ``AccuracyError``; log(target) is taken in mpf below the normal float
    range.  An s or a0 past the float range raises ``DomainError`` first.
    """
    try:
        key = complex(s), float(a0)
        finite = math.isfinite(abs(key[0])) and math.isfinite(key[1])
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"Euler-Maclaurin plan at s = {mp.nstr(mp.mpmathify(s), 8)}, a = "
                          f"{mp.nstr(mp.mpmathify(a0), 8)}: s and a must lie in the float "
                          f"range, below {sys.float_info.max:.4g}")
    t = float(target)
    log_target = math.log(t) if t >= sys.float_info.min else float(mp.log(target))
    return _plan(*key, log_target)


@functools.lru_cache(maxsize=_PLAN_CACHE)
def _plan(s: complex, a0: float, log_target: float) -> tuple:
    """The search of ``euler_maclaurin_plan`` on its memo key."""
    sigma = s.real
    log_c = math.log(a0) if a0 > 1 else 0.0
    log_max = math.log(_EM_MAX_SHIFT + a0)
    log_4, log_2pi = math.log(4), math.log(2 * math.pi)
    log_poch = 0.0  # log |(s)_(2M)|
    best, cost = None, math.inf  # the best plan so far and its N + M
    for M in range(1, _em_max_order(-log_target / math.log(10)) + 1):
        if M >= cost:
            break
        for j in (2 * M - 2, 2 * M - 1):
            # a zero factor (s = 0) makes the remainder vanish
            log_poch += math.log(max(abs(s + j), 1e-300))
        e = sigma + 2 * M - 1
        if e <= 0:
            continue
        y = (log_4 + log_poch - 2 * M * log_2pi - math.log(e) - log_target
             - (2 * M - 1) * log_c) / e
        if y + log_c > log_max:
            continue
        N = max(0, math.ceil(math.exp(y + log_c) - a0))
        if N == 0 and y > math.log(a0) - log_c:
            # exp(y + log c) rounded onto a0, at a huge sigma: one term meets it
            N = 1
        if N + M < cost:
            best, cost = (N, M), N + M
    if best is None:
        raise AccuracyError(
            f"Euler-Maclaurin plan for s = {s} needs a shift past {_EM_MAX_SHIFT} terms"
        )
    return best


@functools.lru_cache(maxsize=16)
def _em_floor(digits: int) -> mpf:
    with working(digits):  # the working floor every evaluation is planned for
        return mpf(10) ** (-(digits + GUARD_DIGITS))


def _fixed(z, bits: int) -> tuple:
    """Real and imaginary parts of z 2^bits, each rounded down to an
    integer; the second is 0 for an mpf ``z``."""
    if isinstance(z, mpc):
        re, im = z._mpc_
        return to_fixed(re, bits), to_fixed(im, bits)
    return to_fixed(z._mpf_, bits), 0


def _dyadic(a) -> tuple:
    """``(num, e)``, integers with e >= 0, for which an mpf a >= 0 is
    exactly num 2^-e."""
    _, man, exp, _ = a._mpf_
    return (man << exp, 0) if exp >= 0 else (man, -exp)


def _fixed_pow(r: int, e: int, bits: int) -> int:
    """r^e for a fixed-point r with ``bits`` fraction bits and an integer
    e >= 0, by squaring, rounded down to ``bits`` after each product."""
    y = None
    while True:
        if e & 1:
            y = r if y is None else y * r >> bits
        e >>= 1
        if not e:
            return 1 << bits if y is None else y
        r = r * r >> bits


def _em_value(re: int, im, bits: int, a, s) -> Number:
    """(re + i im) 2^-bits, times a^-s when a > 1, rounded once at the
    caller's precision: an mpf when ``im`` is None, an mpc otherwise.  a^-s
    is taken at ``bits`` plus the about mag(sigma ln a) bits an mpf power
    loses to its argument."""
    if a <= 1:
        value = mpf((re, -bits))
        return value if im is None else mpc(value, mpf((im, -bits)))
    value = mp.make_mpf(from_man_exp(re, -bits))
    if im is not None:
        value = mp.make_mpc((value._mpf_, from_man_exp(im, -bits)))
    with mp.workprec(bits + max(0, mp.mag(mp.re(s)) + mp.mag(math.log(a)))):
        scale = a ** -s
    return mp.fmul(value, scale)


def _em_orders(orders, a, digits: int) -> list:
    """zeta(k, a) = ``sum_{n>=0} (n + a)^(-k)`` for each integer k >= 0,
    k != 1, of the ascending ``orders``, at one real a > 0, each with a
    remainder of at most the working floor times min(1, a^(-k)), in one
    fixed-point pass: the kernel of every integer order.

    Every order is planned first, by ``euler_maclaurin_plan`` for that
    floor, so nothing is summed when a plan raises.  Order k needs f_k =
    ``_fixed_point_bits(digits, N_k + M_k)`` fraction bits, -log2(a) more
    when a < 1, so that a itself is exact.  The pass runs at F = max f_k
    and sums c^k zeta(k, a), c = max(a, 1), which is at least 1, so no bits
    grow with k.  Each r_n = c/(n + a) = 2^F C // (n 2^F + A), C = c 2^F,
    A = a 2^F, is built once, raised to the first order by squaring
    (``_fixed_pow``) and stepped from order to order by one product with
    r_n^g, g the gap.  Order k adds r_n^k for n < N_k; r_(N_k)^k = (x/c)^-k,
    x = N_k + a, times x // (k-1) + 1/2 + S, S = sum_{j=1}^M C_j u_j as in
    ``_euler_maclaurin``, all at F fraction bits, is the tail.

    The mpf a is exactly num 2^-e (``_dyadic``), so n 2^F + A is 2^(F-e)
    D_n with D_n = n 2^e + num, and every divisor drops that power of two
    from both sides of its floor: r_n = (C 2^e) // D_n, u_1 = (k 2^(F+e))
    // D_N and a step (v 2^(2F)) // X^2 = (v 2^(2e)) // D_N^2.  Each is the
    same integer as with the full divisor, and at a = 1, 2, 1/2 or 1/4 the
    divisor is a few bits wide, not F.

    Every product and quotient rounds down by under a unit, so a power
    r^k, r <= 1, is off by under 2k units, and under 3 once r <= 1/2;
    r_0^k is exact at a > 1 and off by under 2k units relative at a < 1.
    An order is then off by about N_k + M_k units of 2^-f_k, times the
    value where it exceeds 1, and a/e more at a > 1 from the r_n near 1,
    far inside the 2 bitlen(N_k + M_k) + 16 guard bits of f_k.  Each is
    rounded once to an mpf by ``_em_value``.
    """
    orders = list(orders)
    floor = _em_floor(digits)
    plans = [euler_maclaurin_plan(k, a, floor) for k in orders]
    # the summing step starts here, after every plan: nothing is summed
    # when one raises
    coeffs = _em_coeffs(digits)
    F = max(_fixed_point_bits(digits, N + M) for N, M in plans) + max(0, -mp.mag(a))
    num, e = _dyadic(a)
    A = num << (F - e)  # a 2^F, exact: a has at most mp.prec < F bits
    C = A if a > 1 else 1 << F  # c 2^F
    Ce = C << e  # every divisor n 2^F + A below is 2^(F-e) (n 2^e + num)
    count = len(orders)
    sums, heads = [0] * count, [0] * count
    # reach[j]: the largest N of orders j, j+1, ...; past it n adds nothing
    reach, top = [0] * count, 0
    for j in range(count - 1, -1, -1):
        top = reach[j] = max(top, plans[j][0])
    for n in range(top + 1):
        r = Ce // ((n << e) + num)  # (C << F) // ((n << F) + A)
        p = _fixed_pow(r, orders[0], F)
        steps = {1: r}  # r^g by gap g
        for j, k in enumerate(orders):
            if reach[j] < n:
                break
            if j:
                g = k - orders[j - 1]
                step = steps.get(g)
                if step is None:
                    step = steps[g] = _fixed_pow(r, g, F)
                p = p * step >> F
            N = plans[j][0]
            if n < N:
                sums[j] += p
            elif n == N:
                heads[j] = p
            if not p:  # every later power is 0 too
                break
    values = []
    for k, (N, M), total, head in zip(orders, plans, sums, heads):
        D = (N << e) + num
        X = D << (F - e)  # (N << F) + A
        D2 = D * D
        u = (k << (F + e)) // D  # (k << 2F) // X
        S = 0
        for j in range(1, M + 1):
            if j > 1:
                # (v << 2F) // X^2 = (v << 2e) // D^2
                u = (u * (k + 2 * j - 3) * (k + 2 * j - 2) << 2 * e) // D2
            m, sh = coeffs[j - 1]
            S += m * u >> sh
        tail = head * (X // (k - 1) + (1 << (F - 1)) + S) >> F
        values.append(_em_value(total + tail, None, F, a, k))
    return values


def _euler_maclaurin(s, a, digits: int):
    """``sum_{n>=0} (n + a)^(-s)`` with a remainder of at most the working
    floor 10^-(digits+GUARD_DIGITS) times min(1, a^(-sigma)), sigma =
    Re(s), so that the value carries its relative precision.

    An integer s is ``_em_orders`` with one order, so every integer order
    takes the one kernel.  For other s, ``euler_maclaurin_plan`` fixes the
    shift N and the correction count M for that floor, and c^s sum (n +
    a)^(-s), c = max(a, 1), is summed in integers with f fraction bits:
    ``_fixed_point_bits`` for N + M terms, and -log2(a) more when a < 1, so
    that a itself is exact.  The direct block, n < N, is at a = 1 the
    integer table of ``_inverse_power_table`` (one fixed-point logarithm
    and one cos/sin pair, or exp, per prime, each term off by at most one
    unit), and otherwise one mpf or mpc power of (n + a)/c per term, taken
    as 1 + n (1/a) at a > 1, a product in place of a quotient.  At x = N +
    a the tail is (x/c)^(-s) (x/(s-1) + 1/2 + S), with S =
    sum_{k=1}^M C_k u_k, C_k = B_2k/(2k)!, u_1 = s/x and u_k = u_(k-1)
    (s+2k-3)(s+2k-2)/x^2 run as a pair of integers (Im u = 0 for a real s),
    each divided, as in ``_em_orders``, by the dyadic numerator D = N 2^e
    + num of x = num 2^-e + N or its square, the same floor as by x 2^f.
    Each u_k and each C_k u_k rounds down by under a unit.  The error
    carried into u_k grows by |(s+2k-3)(s+2k-2)|/x^2 a step, which
    C_k/C_(k-1), about 1/(4 pi^2), outweighs while the correction terms
    fall, so S is then off by under about M^2/2 units, the direct block by
    at most N and the tail's mpf power by a unit: inside the 2 bitlen(N +
    M) + 16 guard bits of f.  ``_em_value`` rounds the sum once, to an mpf
    for an mpf ``s`` and an mpc for an mpc ``s``.
    """
    if isinstance(s, mpf) and s == int(s):
        return _em_orders([int(s)], a, digits)[0]
    N, M = euler_maclaurin_plan(s, a, _em_floor(digits))
    # the summing step starts here, after the plan: nothing is summed when
    # the plan raises
    coeffs = _em_coeffs(digits)
    wp = _fixed_point_bits(digits, N + M)
    bits = wp + max(0, -mp.mag(a))
    num, e = _dyadic(a)  # exact: a has at most mp.prec < wp bits
    D = (N << e) + num
    X = D << (bits - e)  # (N << bits) + a 2^bits
    re = im = 0
    if a == 1:
        table_re, table_im = _inverse_power_table(s, N, bits)
        re = sum(table_re)
        if table_im is not None:
            im = sum(table_im)
    else:
        with mp.workprec(wp):
            base, step = (a, 1) if a < 1 else (1, 1 / a)
            for n in range(N):
                t_re, t_im = _fixed((base + n * step) ** (-s), bits)
                re += t_re
                im += t_im
    sr, si = _fixed(s, bits)
    s2r = (sr * sr - si * si) >> bits
    s2i = 2 * sr * si >> bits
    D2 = D * D
    ur, ui = (sr << e) // D, (si << e) // D  # (s << bits) // X
    Sr = Si = 0
    for k in range(1, M + 1):
        if k > 1:
            # (s+2k-3)(s+2k-2) = s^2 + (4k-5) s + (2k-3)(2k-2)
            qr = s2r + (4 * k - 5) * sr + ((2 * k - 3) * (2 * k - 2) << bits)
            qi = s2i + (4 * k - 5) * si
            # (v << bits) // X^2 = ((v << 2e) // D^2) >> bits
            ur, ui = (((ur * qr - ui * qi) << 2 * e) // D2 >> bits,
                      ((ur * qi + ui * qr) << 2 * e) // D2 >> bits)
        m, sh = coeffs[k - 1]
        Sr += m * ur >> sh
        Si += m * ui >> sh
    with mp.workprec(wp):
        x = mpf((X, -bits))
        S = mpc(mpf((Sr, -bits)), mpf((Si, -bits))) if si else mpf((Sr, -bits))
        t_re, t_im = _fixed((x if a <= 1 else x / a) ** (-s) * (x / (s - 1) + S + mpf(0.5)), bits)
    re += t_re
    im += t_im
    return _em_value(re, im if isinstance(s, mpc) else None, bits, a, s)


def hurwitz_zeta(s, alpha, tol=None, digits: int = DEFAULT_DIGITS) -> mpf:
    """Hurwitz zeta ``sum_{n>=0} (n+alpha)^(-s)`` for s > 1, alpha > 0.

    One ``_euler_maclaurin`` evaluation, which carries every working digit
    whatever ``tol`` is: a ``tol`` below the floor 10^-(digits+GUARD_DIGITS)
    raises ``AccuracyError`` before any term is summed.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        alpha = as_mpf(alpha, digits)
        if s <= 1:
            raise DomainError(f"hurwitz_zeta requires s > 1, got {mp.nstr(s, 8)}")
        if alpha <= 0:
            raise DomainError("hurwitz_zeta requires alpha > 0")
        if tol is not None:
            _working_floor(as_mpf(tol, digits), digits, "hurwitz_zeta")
        return _euler_maclaurin(s, alpha, digits)


# ---------------------------------------------------------------------------
# Fixed-point inverse powers
# ---------------------------------------------------------------------------

# A term n^-s is chained from its predecessor m^-s only when the step
# g = n - m is below m / 2^_CHAIN_LEVEL; the others are fixed-point powers.
_CHAIN_LEVEL = 4
# Fraction bits of the binomial coefficients' product beyond wp.
_BINOMIAL_GUARD_BITS = 32
# Array elements turned into Python ints at a time, so no list of a whole
# prime array is built.
_SLICE = 4096


def _fixed_point_bits(digits: int, count: int) -> int:
    """Fraction bits for a fixed-point sum or product of ``count`` terms of
    ``_inverse_powers``: the guarded precision plus room for ``count``
    terms whose rounding grows by a few units per chained term."""
    return math.ceil((digits + GUARD_DIGITS) / _LOG10_2) + 2 * count.bit_length() + 16


def _binomial_fixed(s, wp: int, count: int):
    """binom(-s, k) 2^wp, k = 0..count-1, for an mpf s >= 1, as integers
    whose magnitude is short of |binom(-s, k)| 2^wp by at least 0 and
    under 1 + 2k |binom(-s, k)| 2^-32 units, and whose sign is (-1)^k.

    The magnitudes are stepped in integers at w = wp + 32 fraction bits
    (``_BINOMIAL_GUARD_BITS``): |b_k| = |b_(k-1)| (s + k - 1)/k, from s 2^w
    rounded down, each step one floored division.  Step k multiplies the
    shortfall carried into it by (s + k - 1)/k and adds under 1 +
    |b_(k-1)|/k units of 2^-w, at most 2 |b_k| as |b_k| >= 1 and
    |b_(k-1)|/k <= |b_k|/s; so the shortfall stays under 2k |b_k| units.
    The shift to wp bits rounds toward zero.
    """
    w = wp + _BINOMIAL_GUARD_BITS
    S = to_fixed(s._mpf_, w)
    a = 1 << w  # |b_k| 2^w
    coeffs = []
    for k in range(count):
        c = a >> _BINOMIAL_GUARD_BITS
        coeffs.append(-c if k % 2 else c)
        a = a * (S + (k << w)) // ((k + 1) << w)
    return coeffs


def _chain_terms(s: float, bits: int, level: int) -> int:
    """Terms of sum_k binom(-s, k) x^k, s > 1, that leave an omitted tail
    below 2^-(bits+1) for every |x| < 2^-level."""
    log_a = 0.0  # log2 |binom(-s, k)|
    k = 0
    while True:
        k += 1
        log_a += math.log2((s + k - 1) / k)
        # once the term ratio (s+k)/(k+1) |x| is at most 1/2 the tail from
        # term k on is at most twice term k
        if log_a - level * k < -(bits + 2) and (s + k) / (k + 1) <= 2.0 ** (level - 1):
            return k


def _inverse_powers(ns, s, wp: int, minus_one: bool = False):
    """Stream 2^wp / (n^s - 1) if ``minus_one``, else 2^wp n^-s, as
    integers over the ascending integers n of ``ns`` (any iterable of ints,
    an int array being walked in slices; n >= 2 with ``minus_one``), for
    s > 1.  It serves the prime sum of ``primetail.t_direct``, the head
    powers of ``t_exact``, the defining series, and the Euler
    product's primes past its exact integer blocks: those whose p^s leaves
    int64 at integer s <= 9, and every prime at other s.

    Integer ``s`` gives the exact floor.  For other ``s`` (an mpf), in
    units of 2^-wp:

    * a term is chained when its predecessor m has g = n - m < m/16 by bit
      lengths (bitlen(m) - bitlen(g) > 4): it is m^-s (1 + g/m)^-s, the
      binomial series in g/m summed by Horner's rule over the coefficients
      of ``_binomial_fixed`` and cut where its tail costs under half a
      unit.  The predecessor's error is carried times (m/n)^s < 1; the
      coefficients and the Horner floors cost under 2.2 units times m^-s
      < 1/2, and the product's floor one more, so a chained term is off by
      under 3 units more than its predecessor;
    * every other term is exp(-s ln n) in mpmath's fixed-point primitives
      (``log_int_fixed``, ``exp_fixed``), as ``_inverse_power_table`` takes
      a prime's modulus, at w = wp + bitlen(n) + max(0, mag(s)) + 8 bits.
      The argument is off by under s + ln n + 1 units of 2^-w, the ln 2 of
      the reduction costs s log2(n) + 1 more and the series a few, all
      relative to n^-s <= 1, under 2^-2 units of 2^-wp in all; the shift
      to wp bits floors.  So such a term is off by under 1.25 units.

    A term c chained steps past its last unchained one is therefore off by
    under 1.25 + 3c units, which ``_fixed_point_bits`` allows for, and
    with ``minus_one`` the quotient (y 2^wp) // (2^wp - y), y <= 2^wp/2,
    at most quadruples that and floors once more.  Nothing is stored per
    term.  The stream stops at the first term that is 0: every later term
    is smaller, so 0 is within the same bound of each.
    """
    one = 1 << wp
    if hasattr(ns, "tolist"):  # an int array, walked without importing numpy
        array = ns
        ns = itertools.chain.from_iterable(
            array[i : i + _SLICE].tolist() for i in range(0, len(array), _SLICE)
        )
    if s == int(s):
        e = int(s)
        stop = 1 << (wp // e + 1)  # n >= stop makes n^e - 1 > 2^wp
        for n in ns:
            if n >= stop:
                return
            yield one // (n**e - minus_one)
        return
    sf = float(s)
    guard = max(0, mp.mag(s)) + 8
    coeffs = []
    counts = {}
    m = y = 0
    for n in ns:
        g = n - m
        level = m.bit_length() - g.bit_length() - 1  # g/m < 2^-level
        if level < _CHAIN_LEVEL:
            extra = n.bit_length() + guard
            w = wp + extra
            y = exp_fixed(-(to_fixed(s._mpf_, w) * log_int_fixed(n, w) >> w), w) >> extra
        else:
            # y < 2^bits units, so a relative tail below 2^-(bits+1) in the
            # factor costs the new term at most half a unit
            key = (level, y.bit_length())
            k = counts.get(key)
            if k is None:
                k = counts[key] = _chain_terms(sf, key[1], level)
                if k > len(coeffs):
                    coeffs = _binomial_fixed(s, wp, k)
            acc = 0
            for a in coeffs[k - 1 :: -1]:
                acc = a + acc * g // m
            y = y * acc >> wp
        if not y:
            return
        m = n
        yield (y << wp) // (one - y) if minus_one else y
