"""Shared numerical machinery: alternating-series acceleration, semi-axis
quadrature, digamma and the one-pass digamma gap, the Euler-Maclaurin
tail, and Hurwitz zeta.

Everything here is a pure function of its arguments; the working precision
travels as a ``digits`` parameter and is applied through ``mp.workdps``
blocks that restore the caller's precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

from mpmath import mp, mpf, mpc

from .bern import bernoulli
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    EvaluationError,
)
from .precision import DEFAULT_DIGITS, as_mpf, check_digits, rat_to_mpf, working

Number = Union[mpf, mpc]


@dataclass(frozen=True)
class SeriesResult:
    """Outcome of a summed (or accelerated) series.

    ``trunc_estimate`` is an estimate of the truncation error under the
    stopping rule's decay assumption; ``converged`` is only set when that
    estimate is at or below the requested tolerance.
    """

    value: Number
    terms_used: int
    trunc_estimate: mpf
    converged: bool


def _isfinite(z) -> bool:
    z = mpc(z)
    return mp.isfinite(z.real) and mp.isfinite(z.imag)


# Cohen-Rodriguez Villegas-Zagier alternating-series acceleration: the
# Chebyshev-polynomial coefficient table d_k built from binomials gives
# error ~ (3+sqrt8)^(-order), i.e. ~ order/1.31 correct digits.
_ACCEL_MAX_ORDER = 10_000


def _guard_for_order(order: int) -> int:
    # binomial weights grow like 5.83^order; a slice of that in guard digits
    return max(15, order // 20 + 10)


def _crvz_weights(order: int):
    """Weights c_1..c_order and divisor d of the acceleration, at the
    working precision: sum_{n>=1} (-1)^(n-1) a_n ~ sum_n c_n a_n / d."""
    d = (3 + 2 * mp.sqrt(2)) ** order
    d = (d + 1 / d) / 2
    b = mpf(-1)
    c = -d
    half = mpf(1) / 2
    weights = []
    for k in range(order):
        c = b - c
        weights.append(c)
        b = (k + order) * (k - order) * b / ((k + half) * (k + 1))
    return weights, d


def accelerate_alternating(
    coeff: Callable[[int], Number],
    order: int,
    digits: int = DEFAULT_DIGITS,
) -> SeriesResult:
    """Accelerated value of ``sum_{n>=1} (-1)^(n-1) coeff(n)``.

    For coefficient sequences with an analytic continuation (including the
    unit-modulus ``n^(-ib)`` case) the returned value is the Abel-regularized
    sum; the error decays geometrically in ``order``.
    """
    if order < 4:
        raise ConfigError(f"acceleration order must be >= 4, got {order}")
    if order > _ACCEL_MAX_ORDER:
        raise ConfigError(
            f"acceleration order {order} exceeds table capacity {_ACCEL_MAX_ORDER}"
        )
    digits = check_digits(digits)
    with working(digits, pad=_guard_for_order(order)):
        weights, d = _crvz_weights(order)
        s = mpc(0)
        for n, c in enumerate(weights, 1):
            t = coeff(n)
            if not _isfinite(t):
                raise EvaluationError(f"non-finite coefficient at index {n}", index=n)
            s += c * t
        value = s / d
        scale = max(mpf(1), abs(value))
        est = 3 * scale / (3 + 2 * mp.sqrt(2)) ** order
        v = value.real if value.imag == 0 else value
        return SeriesResult(v, order, est, True)


def accel_order_for(tol, digits: int = DEFAULT_DIGITS, imag_scale: float = 0.0) -> int:
    """Acceleration order needed for tolerance ``tol`` (~1.31 per digit),
    padded for complex exponents whose error constant grows with |Im s|."""
    with working(digits):
        t = as_mpf(tol, digits)
        goal_digits = max(6.0, float(-mp.log10(t)))
    return int(1.31 * (goal_digits + 3)) + int(0.75 * abs(imag_scale)) + 6


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


def _panel(f, a, b, lo_nodes, hi_nodes):
    mid = (a + b) / 2
    half = (b - a) / 2
    v_lo = mpc(0)
    for x, w in lo_nodes:
        v_lo += w * f(mid + half * x)
    v_lo *= half
    v_hi = mpc(0)
    for x, w in hi_nodes:
        v_hi += w * f(mid + half * x)
    v_hi *= half
    return v_hi, abs(v_hi - v_lo)


def integrate_interval(
    f: Callable,
    a,
    b,
    tol,
    digits: int = DEFAULT_DIGITS,
    max_depth: int = 48,
    init_segments: int = 1,
) -> tuple:
    """Adaptive bisection quadrature of ``f`` over [a, b]; returns
    ``(value, error)``.

    Each panel is evaluated with a nested Gauss-Legendre pair (12/24 nodes);
    panels whose disagreement exceeds their share of the absolute budget are
    bisected.  ``error`` is the sum of the accepted panels' disagreements,
    at most ``tol``.  ``init_segments`` seeds the subdivision (useful when
    the oscillation scale is known up front).  Raises ``AccuracyError`` if
    the depth budget runs out.
    """
    digits = check_digits(digits)
    with working(digits):
        a = as_mpf(a, digits)
        b = as_mpf(b, digits)
        tol = as_mpf(tol, digits)
        if b <= a:
            return mpc(0), mpf(0)
        lo_nodes = _legendre_nodes(12, digits + 10)
        hi_nodes = _legendre_nodes(24, digits + 10)
        total_width = b - a
        init_segments = max(1, int(init_segments))
        if init_segments == 1:
            stack = [(a, b, 0)]
        else:
            h = total_width / init_segments
            stack = [(a + i * h, a + (i + 1) * h, 0) for i in range(init_segments)]
        acc = mpc(0)
        err_acc = mpf(0)
        while stack:
            x0, x1, depth = stack.pop()
            v, e = _panel(f, x0, x1, lo_nodes, hi_nodes)
            budget = tol * (x1 - x0) / total_width
            if e <= budget or depth >= max_depth:
                if depth >= max_depth and e > budget:
                    raise AccuracyError(
                        f"quadrature failed to reach tol={mp.nstr(tol, 5)} "
                        f"on [{mp.nstr(x0, 8)}, {mp.nstr(x1, 8)}]",
                        achieved=e,
                    )
                acc += v
                err_acc += e
                continue
            xm = (x0 + x1) / 2
            stack.append((x0, xm, depth + 1))
            stack.append((xm, x1, depth + 1))
        return acc, err_acc


def _fit_power(f, x0, digits):
    """Fit f(x) ~ c*x^p near x0 from two log-spaced probes.

    Probes are spaced by e^(1/8) so a complex exponent with |Im p| < 8*pi
    is recovered without branch ambiguity.
    """
    k = mp.exp(mpf(1) / 8)
    f0 = mpc(f(x0))
    f1 = mpc(f(x0 * k))
    if abs(f0) == 0 or abs(f1) == 0:
        return None, None, f0
    p = 8 * mp.log(f1 / f0)
    c = f0 / mpc(x0) ** p
    return p, c, f0


def _closure_small_x(f, delta, tol, digits):
    """Analytic value of ``integral_0^delta f`` for power-law-like f.

    Returns (value, error_bound).  Falls back to a crude bound when the
    integrand is already negligible at the probe points.
    """
    p, c, f0 = _fit_power(f, delta, digits)
    if p is None or abs(f0) * delta < tol / 100:
        return mpc(0), abs(f0) * delta * 4
    # consistency probe at delta/e^(1/4)
    x3 = delta * mp.exp(mpf(-1) / 4)
    model = c * mpc(x3) ** p
    actual = mpc(f(x3))
    mism = abs(model - actual)
    if mp.re(p) <= -1:
        raise DomainError(
            "integrand is not integrable at 0 (fitted exponent "
            f"Re p = {mp.nstr(mp.re(p), 5)} <= -1)"
        )
    tail = c * mpc(delta) ** (p + 1) / (p + 1)
    rel = mism / max(abs(actual), mpf(10) ** (-digits))
    bound = abs(tail) * (rel + mpf(10) ** (5 - digits)) + mpf(10) ** (-digits)
    return tail, bound


def integrate_semiaxis(
    f: Callable,
    damping,
    tol,
    digits: int = DEFAULT_DIGITS,
) -> mpc:
    """Integrate ``f`` over (0, inf) to absolute accuracy ``tol``.

    The interval is split at 1.  On (0, 1] the variable is log-substituted
    (u = ln x) and the final stretch down to a small delta is closed
    analytically with a fitted power law (valid because x^damping * f stays
    bounded near 0, i.e. the fitted exponent has Re p > -1).  On [1, inf)
    the substitution x = 1/v maps back to (0, 1] and the same treatment
    applies at v -> 0.
    """
    digits = check_digits(digits)
    with working(digits):
        tol = as_mpf(tol, digits)
        damping = as_mpf(damping, digits)
        if damping < 0:
            raise DomainError("damping must be >= 0")
        if not tol > 0:
            raise DomainError("tol must be positive")

        budget = tol / 4

        # --- (0, 1]: close (0, delta] analytically, integrate [delta, 1].
        delta = mp.exp(-mpf(min(digits * mpf(2) / 3 + 12, 80)))
        head, head_err = _closure_small_x(f, delta, budget, digits)
        if head_err > budget:
            # shrink delta once; power model improves like delta.
            delta = delta * delta
            head, head_err = _closure_small_x(f, delta, budget, digits)
        low, _ = integrate_interval(
            lambda u: f(mp.exp(u)) * mp.exp(u),
            mp.log(delta),
            mpf(0),
            budget,
            digits=digits,
        )

        # --- [1, inf): x = 1/v, dx = -dv/v^2.
        def g(v):
            return f(1 / v) / (v * v)

        deltav = delta
        tail, tail_err = _closure_small_x(g, deltav, budget, digits)
        if tail_err > budget:
            deltav = deltav * deltav
            tail, tail_err = _closure_small_x(g, deltav, budget, digits)
        high, _ = integrate_interval(
            lambda u: g(mp.exp(u)) * mp.exp(u),
            mp.log(deltav),
            mpf(0),
            budget,
            digits=digits,
        )

        achieved = head_err + tail_err
        if achieved > tol:
            raise AccuracyError(
                "semi-axis closure error exceeds tolerance", achieved=achieved
            )
        total = head + low + tail + high
        return total


# ---------------------------------------------------------------------------
# Digamma and Hurwitz zeta
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _digamma_coeffs(dps: int, count: int):
    """B_{2k}/(2k) as mpf values at ``dps`` digits, k = 1..count."""
    with mp.workdps(dps + 10):
        return tuple(
            rat_to_mpf(bernoulli(2 * k), dps + 10) / (2 * k) for k in range(1, count + 1)
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


@functools.lru_cache(maxsize=16)
def _gap_taylor_coeffs(digits: int):
    """a_n = 2 (-1)^n eta(n+1), n = 0..N-1, of gap(x) = sum a_n x^n.

    N makes the first omitted term, at most 2 x^N, fall below
    10^-(digits+6) for every x < _GAP_X0.  Each eta(n+1) is the accelerated
    alternating series sum (-1)^(k-1) k^-(n+1) over one shared weight table.
    """
    count = math.ceil((digits + 6) / (2 * _LOG10_2))
    order = accel_order_for(mpf(10) ** (-(digits + 6)), digits)
    with working(digits, pad=_guard_for_order(order)):
        weights, d = _crvz_weights(order)
        inverses = [1 / mpf(k) for k in range(1, order + 1)]
        terms = weights
        coeffs = []
        for n in range(count):
            terms = [t * i for t, i in zip(terms, inverses)]  # c_k k^-(n+1)
            eta = mp.fsum(terms) / d
            coeffs.append(2 * eta if n % 2 == 0 else -2 * eta)
        return tuple(coeffs)


@functools.lru_cache(maxsize=16)
def _gap_asymptotic(digits: int):
    """Shift target Y, coefficients c_k = (4^k - 1) B_2k / (2k) of
    beta(y) ~ 1/(2y) + sum_k c_k y^(-2k), and for each term count j the
    least y (a float) at which j terms leave a relative error below
    10^-(digits+5).  The optimally truncated series at y is good to about
    exp(-pi y), so Y = 0.75 (digits+8) needs no more terms than listed."""
    shift_to = int(0.75 * (digits + 8)) + 1
    goal = digits + 5
    coeffs, limits = [], []
    with working(digits):
        k = 1
        while True:
            c = rat_to_mpf((4 ** k - 1) * bernoulli(2 * k) / (2 * k), digits + 10)
            # j = k - 1 terms suffice once |c_k| y^(-2k) <= 10^-goal / (2y)
            limit = 10 ** ((float(mp.log10(2 * abs(c))) + goal) / (2 * k - 1))
            if limits and limit >= limits[-1]:
                raise AssertionError("beta asymptotic series turned before the shift target")
            limits.append(limit)
            if limit <= shift_to:
                return shift_to, tuple(coeffs), tuple(limits)
            coeffs.append(c)
            k += 1


def digamma_gap(x, digits: int = DEFAULT_DIGITS) -> mpf:
    """Psi(x/2 + 1) - Psi((x+1)/2) for x > 0, in one pass and without a
    logarithm.

    The gap is 2 beta(x+1) with beta(y) = sum_{k>=0} (-1)^k/(y+k).  For
    x < 1/4 it is the Taylor series 2 ln 2 + sum_{n>=1} 2 (-1)^n eta(n+1) x^n
    with as many terms as ``x`` needs.  Otherwise beta(y) = 1/(y(y+1)) +
    beta(y+2) shifts y past about 0.75 (digits+8) and the asymptotic series
    1/(2y) + sum (4^k - 1) B_2k/(2k y^2k) finishes; every shift term is
    positive, so nothing cancels.  The result is accurate to about
    10^-(digits+5) relative.
    """
    digits = check_digits(digits)
    with working(digits):
        x = as_mpf(x, digits)
        if x <= 0:
            raise DomainError(f"digamma_gap requires x > 0, got {mp.nstr(x, 8)}")
        if x < _GAP_X0:
            coeffs = _gap_taylor_coeffs(digits)
            # x < 2^mag(x) <= 1/4, so n <= len(coeffs) terms leave at most
            # 2 x^n < 10^-(digits+6)
            n = math.ceil((digits + 6) / (-mp.mag(x) * _LOG10_2))
            acc = coeffs[n - 1]
            for a in reversed(coeffs[: n - 1]):
                acc = acc * x + a
            return acc
        shift_to, coeffs, limits = _gap_asymptotic(digits)
        y = x + 1
        acc = mpf(0)
        while y < shift_to:
            acc += 1 / (y * (y + 1))
            y += 2
        yf = float(y)
        terms = next(j for j, limit in enumerate(limits) if yf >= limit)
        inv = 1 / y
        z = inv * inv
        tail = mpf(0)
        for c in reversed(coeffs[:terms]):
            tail = (tail + c) * z
        return 2 * (acc + tail) + inv


def euler_maclaurin_tail(total, s, a, terms: int, stop, digits: int):
    """Add the Euler-Maclaurin tail of ``sum_{n>=0} (n+a)^(-s)`` to ``total``.

    ``total`` holds the direct terms below ``a``; the integral term, the
    half-term and up to ``terms`` Bernoulli corrections
    B_2k/(2k)! s(s+1)...(s+2k-2) a^(-s-2k+1) are added in that order.  The
    corrections stop early once one is below ``stop`` or once they start
    to grow (the series is asymptotic).  Runs at the caller's precision.
    """
    total += a ** (1 - s) / (s - 1) + a ** (-s) / 2
    rising = s
    apow = a ** (-s - 1)
    prev = mpf("inf")
    for k in range(1, terms + 1):
        if k > 1:
            rising *= (s + 2 * k - 3) * (s + 2 * k - 2)
        b2k = rat_to_mpf(bernoulli(2 * k), digits + 10)
        term = b2k / mp.factorial(2 * k) * rising * apow
        mag = abs(term)
        if mag > prev:
            break
        total += term
        if mag < stop:
            break
        prev = mag
        apow /= a * a
    return total


def hurwitz_zeta(s, alpha, tol=None, digits: int = DEFAULT_DIGITS) -> mpf:
    """Hurwitz zeta ``sum_{n>=0} (n+alpha)^(-s)`` for s > 1, alpha > 0.

    Direct block of terms plus an Euler-Maclaurin tail; the block length
    doubles until two successive evaluations agree within ``tol``.
    """
    digits = check_digits(digits)
    with working(digits):
        s = as_mpf(s, digits)
        alpha = as_mpf(alpha, digits)
        if s <= 1:
            raise DomainError(f"hurwitz_zeta requires s > 1, got {mp.nstr(s, 8)}")
        if alpha <= 0:
            raise DomainError("hurwitz_zeta requires alpha > 0")
        if tol is None:
            tol = mpf(10) ** (-(digits - 2))
        tol = as_mpf(tol, digits)

        def em(M: int) -> mpf:
            total = mpf(0)
            for n in range(M):
                total += (n + alpha) ** (-s)
            return euler_maclaurin_tail(total, s, M + alpha, 29, tol / 100, digits)

        M = 16
        v_prev = em(M)
        for _ in range(12):
            M *= 2
            v = em(M)
            if abs(v - v_prev) <= tol / 2:
                return v
            v_prev = v
        raise AccuracyError("hurwitz_zeta failed to stabilize", achieved=abs(v - v_prev))
