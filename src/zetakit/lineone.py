"""Evaluation of zeta on the line Re(s) = 1 and the audit probes around it.

Three routes to zeta(1+ib):

* ``eta``      -- accelerated alternating series divided by 1 - 2^(-ib);
* ``integral`` -- the digamma-gap Mellin pipeline
                  eta(1+ib) = (-i sinh(pi b) / (2 pi)) *
                              [ 2 ln2/(-ib)
                                + int_0^1 (gap(x) - 2 ln2) x^(-1-ib) dx
                                + int_1^inf gap(x) x^(-1-ib) dx ],
                  gap(x) = Psi(x/2 + 1) - Psi((x+1)/2) (summed in one
                  pass by ``numerics.digamma_gap``),
                  where the first bracket term closes the oscillatory
                  endpoint at 0 analytically (the eps -> 0 limit of the
                  damped integral).  The prefactor -i sinh(pi b)/(2 pi) is
                  the pipeline normalization, fixed once against the eta
                  route at b = 1 and asserted by the test suite;
* ``flat``     -- the Abel-regularized unit-modulus series
                  sum (-1)^(n-1) n^(-ib) / (1 - 2^(-ib)), which evaluates
                  to (1 - 2^(1-ib)) zeta(ib) / (1 - 2^(-ib)), not to
                  zeta(1+ib): the discrepancy is a forensics finding.

Plus: the damped Mellin integral check, the corrected digamma-gap
identity, the Hurwitz double-expansion of that gap, the eta zero line
b = 2 k pi / ln 2, a residue probe at the pole, and grid sup-norm probes
for the uniform-convergence bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf, mpc

from .errors import AccuracyError, DegeneracyError, DomainError, PoleError
from .numerics import (
    accel_order_for,
    accelerate_alternating,
    digamma,
    digamma_gap,
    hurwitz_zeta,
    integrate_interval,
    integrate_semiaxis,
)
from .precision import DEFAULT_DIGITS, as_mpf, check_digits, working

# Below this, 1 - 2^(-ib) amplifies rounding noise beyond repair; refuse.
PREFACTOR_DEGENERACY = mpf("1e-12")

_MIN_B = mpf("1e-6")


@dataclass(frozen=True)
class LineOnePoint:
    """One evaluation of zeta(1+ib)."""

    b: mpf
    value: mpc
    method: str
    terms_used: int
    est_error: mpf


@dataclass(frozen=True)
class NormProbe:
    """Grid supremum of a lemma's function family against its bound."""

    lemma: str
    n: int
    k: Optional[int]
    grid_sup: mpf
    bound: mpf


def _prefactor(b, digits):
    with working(digits):
        return 1 - mp.exp(mpc(0, -b) * mp.log(2))


def _ramp(coeff, order: int, growth, stop, digits: int, what: str):
    """Accelerate sum (-1)^(n-1) coeff(n), growing the order up to eight
    times until two successive orders agree to ``stop``."""
    with working(digits):
        prev = accelerate_alternating(coeff, order, digits=digits).value
        for _ in range(8):
            order = int(order * growth) + 8
            cur = accelerate_alternating(coeff, order, digits=digits).value
            diff = abs(cur - prev)
            if diff <= stop:
                return cur, order, diff
            prev = cur
        raise AccuracyError(f"{what} acceleration failed to stabilize", achieved=diff)


def _eta_complex(s: mpc, tol, digits: int):
    """Accelerated eta(s) with order ramping until two orders agree."""
    with working(digits):
        order = accel_order_for(tol, digits, imag_scale=float(abs(s.imag)))
        return _ramp(lambda n: mpc(n) ** (-s), order, 1.3, tol / 2, digits, "eta")


def zeta_line_one(b, tol=mpf("1e-15"), digits: int = DEFAULT_DIGITS) -> LineOnePoint:
    """zeta(1+ib) from the accelerated alternating series."""
    digits = check_digits(digits)
    with working(digits):
        b = as_mpf(b, digits)
        tol = as_mpf(tol, digits)
        if abs(b) < _MIN_B:
            raise PoleError("zeta has a simple pole at s = 1 (b too close to 0)")
        pref = _prefactor(b, digits)
        if abs(pref) < PREFACTOR_DEGENERACY:
            raise DegeneracyError(
                "1 - 2^(-ib) vanishes (b on the 2k*pi/ln2 line); the eta "
                "quotient is 0/0 here"
            )
        s = mpc(1, b)
        eta, order, diff = _eta_complex(s, tol * abs(pref), digits)
        value = eta / pref
        est = (diff + mpf(10) ** (-(digits + 2))) / abs(pref)
        return LineOnePoint(b, value, "eta", order, est)


def zeta_line_one_flat(b, order: int = 40, digits: int = DEFAULT_DIGITS) -> LineOnePoint:
    """Abel-regularized flat series sum (-1)^(n-1) n^(-ib) / (1 - 2^(-ib)).

    The coefficients have unit modulus, so classical convergence fails;
    the acceleration order ramps until two successive orders agree to 1e-8
    (accuracy error otherwise).  The returned value is the regularized one
    and differs from zeta(1+ib) by design of the audit.
    """
    digits = check_digits(digits)
    with working(digits):
        b = as_mpf(b, digits)
        if abs(b) < _MIN_B:
            raise PoleError("b too close to 0")
        pref = _prefactor(b, digits)
        if abs(pref) < PREFACTOR_DEGENERACY:
            raise DegeneracyError("1 - 2^(-ib) vanishes: flat series is 0/0-adjacent")
        sib = mpc(0, b)
        cur, order, diff = _ramp(
            lambda n: mpc(n) ** (-sib), max(order, 24), 1.4, mpf("1e-8"), digits, "flat-series"
        )
        return LineOnePoint(b, cur / pref, "flat", order, diff / abs(pref))


def _digamma_gap(x, digits):
    """The gap read as two digamma calls.  The audits below check the
    identity gap = -2 sum (-1)^n/(x+n) on this reading; the one-pass
    ``digamma_gap`` sums that very series and would make them circular."""
    return digamma(x / 2 + 1, digits) - digamma((x + 1) / 2, digits)


def zeta_line_one_integral(b, tol=mpf("1e-10"), digits: int = DEFAULT_DIGITS) -> LineOnePoint:
    """zeta(1+ib) via quadrature of the digamma-gap Mellin integral.

    The value of the integral is smaller than the integrand scale by
    ~exp(-pi |b|) (the sinh prefactor undoes this), so the quadrature runs
    at a precision padded by that many digits and with an absolute budget
    scaled down by the same factor.  ``est_error`` is the quadrature's own
    error plus bounds on the two cut-off tails, scaled by the prefactor.
    """
    digits = check_digits(digits)
    with working(digits):
        b = as_mpf(b, digits)
        tol = as_mpf(tol, digits)
        if not (mpf("1e-3") <= abs(b) <= 50):
            raise DomainError("integral route supports 1e-3 <= |b| <= 50")
        pref = _prefactor(b, digits)
        if abs(pref) < PREFACTOR_DEGENERACY:
            raise DegeneracyError("1 - 2^(-ib) vanishes on the zero line")

    pad = int(mp.pi * abs(b) / mp.log(10)) + 12
    adigits = digits + pad  # assembly precision (the sinh prefactor is huge)
    evals = [0]
    with working(adigits):
        b = as_mpf(b, adigits)
        sinh_pb = mp.sinh(mp.pi * b)
        # absolute budget for the regularized integral
        budget = tol * abs(pref) * 2 * mp.pi / abs(sinh_pb) / 4
        # the integrand is O(1), so the quadrature itself only needs enough
        # digits to resolve the budget
        qdigits = max(25, digits - pad, int(-mp.log10(budget)) + 10)
        twol = 2 * mp.log(2)

        def gap(x):
            evals[0] += 1
            return digamma_gap(x, qdigits)

        # endpoint closure: the eps->0 limit of int_0^1 2ln2 * x^(eps-1-ib)
        p0 = twol / mpc(0, -b)

        # int_0^1 (gap - 2ln2) x^(-1-ib) dx, log-substituted; the integrand
        # magnitude decays like e^u, so cut where it is below budget.
        ucut = mp.log(budget / 8) - 2
        nseg = int(-ucut * abs(b) / mp.pi) + 1
        p1, err1 = integrate_interval(
            lambda u: (gap(mp.exp(u)) - twol) * mp.exp(mpc(0, -b) * u),
            ucut,
            mpf(0),
            budget,
            digits=qdigits,
            init_segments=nseg,
        )

        # int_1^inf gap * x^(-1-ib) dx; gap(e^t) ~ e^(-t).
        tcut = -mp.log(budget / 8) + 2
        nseg = int(tcut * abs(b) / mp.pi) + 1
        p2, err2 = integrate_interval(
            lambda t: gap(mp.exp(t)) * mp.exp(mpc(0, -b) * t),
            mpf(0),
            tcut,
            budget,
            digits=qdigits,
            init_segments=nseg,
        )

        eta = mpc(0, -1) * sinh_pb / (2 * mp.pi) * (p0 + p1 + p2)
        value = eta / pref
        # The gap is convex and decreasing from 2 ln 2 with slope -pi^2/6 at
        # 0, and 2 beta(x+1) <= beta(x) + beta(x+1) = 1/x, so the integrand
        # is below (pi^2/6) e^u on u < ucut and below e^-t on t > tcut.
        cut = mp.pi ** 2 / 6 * mp.exp(ucut) + mp.exp(-tcut)
        est = abs(sinh_pb) / (2 * mp.pi * abs(pref)) * (err1 + err2 + cut)
    with working(digits):
        return LineOnePoint(mpf(b), mpc(value), "integral", evals[0], mpf(est))


def mellin_check(b, n: int, eps, digits: int = DEFAULT_DIGITS) -> mpf:
    """Relative deviation of the damped Mellin integral from its closed form.

    integral_0^inf x^(eps-1-ib)/(x+n) dx  vs  pi n^(eps-ib-1)/sin(pi(eps-ib)).

    The undamped (eps = 0) limit is only conditionally convergent, so it is
    audited through the eps -> 0 trend of this deviation, never directly.
    """
    digits = check_digits(digits)
    with working(digits):
        b = as_mpf(b, digits)
        eps = as_mpf(eps, digits)
        if b == 0:
            raise DomainError("b must be nonzero")
        if n < 1:
            raise DomainError("n must be >= 1")
        if not (0 < eps <= mpf("0.1")):
            raise DomainError("eps must lie in (0, 0.1]; eps = 0 is not absolutely convergent")
        a = mpc(eps, -b)
        closed = mp.pi * mpc(n) ** (a - 1) / mp.sin(mp.pi * a)

        def f(x):
            return x ** (a - 1) / (x + n)

        quad = integrate_semiaxis(f, 1 - eps, abs(closed) * mpf("1e-13"), digits=digits)
        return abs(quad - closed) / abs(closed)


def digamma_gap_check(x, tol=mpf("1e-20"), digits: int = DEFAULT_DIGITS) -> mpf:
    """Residual of the corrected alternating/digamma identity

        sum_{n>=1} (-1)^n / (x+n)  =  -(1/2)(Psi(x/2+1) - Psi((x+1)/2)).

    Returns |sum + gap/2|, which should be at or below ``tol``.
    """
    digits = check_digits(digits)
    with working(digits):
        x = as_mpf(x, digits)
        tol = as_mpf(tol, digits)
        if x <= 0:
            raise DomainError("requires x > 0")
        order = accel_order_for(tol, digits)
        alt = accelerate_alternating(lambda n: 1 / (x + n), order, digits=digits).value
        gap = _digamma_gap(x, digits)
        # alt = sum (-1)^(n-1)/(x+n), so the identity reads alt = gap/2
        return abs(gap / 2 - alt)


def hurwitz_expansion_check(x, K: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """Deviation of the digamma gap from its truncated double expansion

        gap(x) ~ 2 sum_{k=2}^{K} sum_{n>=0} (-1/(2n+x+1))^k
               = 2 sum_{k=2}^{K} (-1/2)^k zeta(k, (x+1)/2).

    For x > 0 the deviation decays like the first omitted k-term; at x = 0
    the expansion sits on its convergence boundary and the partial sums
    oscillate with O(1) amplitude instead of converging.
    """
    digits = check_digits(digits)
    with working(digits):
        x = as_mpf(x, digits)
        if x < 0:
            raise DomainError("requires x >= 0")
        if K < 2:
            raise DomainError("requires K >= 2")
        alpha = (x + 1) / 2
        inner_tol = mpf(10) ** (-(digits - 3)) / K
        total = mpf(0)
        for k in range(2, K + 1):
            total += (mpf(-1) / 2) ** k * hurwitz_zeta(k, alpha, inner_tol, digits=digits)
        total *= 2
        return abs(_digamma_gap(x, digits) - total)


def eta_zero_ordinate(k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """The k-th ordinate of the eta zero line, b_k = 2 k pi / ln 2."""
    if k == 0:
        raise DomainError("k must be a nonzero integer")
    digits = check_digits(digits)
    with working(digits):
        return 2 * k * mp.pi / mp.log(2)


def eta_zero_scan(k: int, tol=mpf("1e-12"), digits: int = DEFAULT_DIGITS) -> mpf:
    """|eta(1 + i b_k)| at b_k = 2 k pi / ln 2; should vanish to ``tol``.

    (zeta itself stays finite and nonzero there -- the vanishing prefactor
    cancels the eta zero; audit that side with ``zetacore.zeta_oracle``.)
    """
    digits = check_digits(digits)
    with working(digits):
        b = eta_zero_ordinate(k, digits)
        tol = as_mpf(tol, digits)
        eta, _, _ = _eta_complex(mpc(1, b), tol / 2, digits)
        return abs(eta)


def residue_probe(b, digits: int = DEFAULT_DIGITS) -> mpf:
    """|i b zeta(1+ib) - 1|, which shrinks like gamma*|b| near the pole."""
    digits = check_digits(digits)
    with working(digits):
        b = as_mpf(b, digits)
        if not (0 < abs(b) <= mpf("0.1")):
            raise DomainError("requires 0 < |b| <= 0.1")
        point = zeta_line_one(b, mpf("1e-15"), digits=digits)
        return abs(mpc(0, b) * point.value - 1)


_PROBE_GRID_HI = 100


def uniform_norm_probe(
    lemma: str,
    n: int,
    k: Optional[int] = None,
    grid: int = 1000,
    digits: int = DEFAULT_DIGITS,
) -> NormProbe:
    """Grid supremum of one lemma family against its analytic decay bound.

    lemma '1'  : |x^(-ib)/(x(x+n))| on [1, inf), bound 1/(n+1);
    lemma '2i' : |(-1/(2n+x+1))^k| on x >= 0, bound (1/(2n))^k;
    lemma '2ii': |x^(-ib)/((2n+x+1)(2n+x+2))| on x >= 0,
                 bound 1/((2n+1)(2n+2)).

    |x^(-ib)| = 1 for x > 0, so the modulus (and the probe) does not
    depend on b.
    """
    digits = check_digits(digits)
    if n < 1:
        raise DomainError("n must be >= 1")
    if grid < 100:
        raise DomainError("grid must be >= 100")
    with working(digits):
        if lemma == "1":
            lo, hi = mpf(1), mpf(2 * _PROBE_GRID_HI)
            bound = mpf(1) / (n + 1)

            def f(x):
                return 1 / (x * (x + n))

            kk = None
        elif lemma == "2i":
            if k is None or k < 2:
                raise DomainError("lemma 2i needs k >= 2")
            lo, hi = mpf(0), mpf(_PROBE_GRID_HI)
            bound = (mpf(1) / (2 * n)) ** k

            def f(x):
                return (1 / (2 * n + x + 1)) ** k

            kk = k
        elif lemma == "2ii":
            lo, hi = mpf(0), mpf(_PROBE_GRID_HI)
            bound = mpf(1) / ((2 * n + 1) * (2 * n + 2))

            def f(x):
                return 1 / ((2 * n + x + 1) * (2 * n + x + 2))

            kk = k
        else:
            raise DomainError(f"unknown lemma {lemma!r}")
        step = (hi - lo) / (grid - 1)
        sup = mpf(0)
        for i in range(grid):
            v = f(lo + i * step)
            if v > sup:
                sup = v
        return NormProbe(lemma, n, kk, sup, bound)
