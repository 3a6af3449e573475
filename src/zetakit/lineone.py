"""Evaluation of zeta on the line Re(s) = 1 and the audit probes around it.

Three routes to zeta(1+ib):

* ``eta``      -- the alternating series eta(1+ib) in one acceleration, of
                  the order the Cohen-Rodriguez Villegas-Zagier bound
                  plans for the working floor, divided by 1 - 2^(-ib).
                  It is summed in integers over a fixed-point n^-s table
                  that costs one cis per prime (``numerics._eta_series``);
* ``integral`` -- the digamma-gap Mellin pipeline on the whole line
                  eta(1+ib) = ln 2 + (-i sinh(pi b) / (2 pi)) *
                              int_R [gap(e^u) - 2 ln2/(1+e^u)] e^(-ibu) du,
                  gap(x) = Psi(x/2 + 1) - Psi((x+1)/2) (summed in one
                  pass by ``numerics._digamma_gap_fixed``).  Subtracting
                  2 ln2/(1+x) keeps the gap's limit at x -> 0; its damped
                  Mellin transform pi/sin(pi (eps-ib)) tends to
                  i pi/sinh(pi b), which the prefactor turns into the
                  ln 2.  The integral is one trapezoidal sum in
                  integers, its nodes e^(kh), e^(-kh) and cis(bkh)
                  stepped as fixed-point recurrences.  The
                  prefactor -i sinh(pi b)/(2 pi) is the pipeline
                  normalization, fixed once against the eta route at b = 1
                  and asserted by the test suite;
* ``flat``     -- the Abel-regularized unit-modulus series
                  sum (-1)^(n-1) n^(-ib) / (1 - 2^(-ib)), which evaluates
                  to (1 - 2^(1-ib)) zeta(ib) / (1 - 2^(-ib)), not to
                  zeta(1+ib): the discrepancy is a forensics finding.
                  One acceleration over the same table, planned like the
                  eta route's from the same bound after one integration
                  by parts.

Plus: the damped Mellin integral check, the corrected digamma-gap
identity, the Hurwitz double-expansion of that gap, the eta zero line
b = 2 k pi / ln 2, and sup-norm probes for the uniform-convergence bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

from .errors import DegeneracyError, DomainError, PoleError
from .numerics import (
    _accel_plan,
    _digamma_gap_fixed,
    _eta_quotient,
    _fixed,
    _gap_bits,
    _working_floor,
    accelerate_alternating,
    digamma,
    hurwitz_zeta,
    integrate_interval,
)
from .precision import DEFAULT_DIGITS, GUARD_DIGITS, as_mpf, check_digits, working

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


def _eta_point(b, digits: int, flat: bool) -> LineOnePoint:
    """eta(s) / (1 - 2^(-ib)) at s = 1+ib, or at s = ib when ``flat``, from
    ``numerics._eta_quotient``: one acceleration planned for the working
    floor 10^-(digits+GUARD_DIGITS) times |1 - 2^(-ib)|.  ``est_error`` is
    the plan's bound plus the rounding floor 10^-(digits+2), over
    |1 - 2^(-ib)|; ``terms_used`` is the order."""
    with working(digits):
        b = as_mpf(b, digits)
        if abs(b) < _MIN_B:
            raise PoleError("b too close to 0, where 1 - 2^(-ib) vanishes (the pole at s = 1)")
        pref = _prefactor(b, digits)
        if abs(pref) < PREFACTOR_DEGENERACY:
            raise DegeneracyError(
                "1 - 2^(-ib) vanishes (b on the 2k*pi/ln2 line); the eta "
                "quotient is 0/0 here"
            )
        value, order, est = _eta_quotient(mpc(0 if flat else 1, b), pref, digits, flat)
        return LineOnePoint(b, value, "flat" if flat else "eta", order, est)


def zeta_line_one(b, tol=mpf("1e-15"), digits: int = DEFAULT_DIGITS) -> LineOnePoint:
    """zeta(1+ib) = eta(1+ib) / (1 - 2^(-ib)) from one accelerated
    alternating series.

    ``numerics._accel_plan`` gives the least order whose error bound
    2 sqrt(sinh(pi |b|)/(pi |b|)) (3+sqrt8)^(-order) on eta meets the
    working floor, as ``_eta_point`` says, with ``est_error`` and
    ``terms_used``.  The value carries every working digit, so ``tol`` only
    guards the floor: a ``tol`` below 10^-(digits+GUARD_DIGITS) raises
    ``AccuracyError`` before any term is summed.
    """
    digits = check_digits(digits)
    with working(digits):
        _working_floor(as_mpf(tol, digits), digits, "zeta_line_one")
    return _eta_point(b, digits, flat=False)


def zeta_line_one_flat(b, digits: int = DEFAULT_DIGITS) -> LineOnePoint:
    """Abel-regularized flat series sum (-1)^(n-1) n^(-ib) / (1 - 2^(-ib)).

    The coefficients have unit modulus, so the series does not converge;
    the acceleration sums it to its Abel value (1 - 2^(1-ib)) zeta(ib),
    which differs from zeta(1+ib) by design of the audit.  It is planned
    as in ``zeta_line_one``, from the flat bound of ``numerics._accel_plan``:
    2 (1 + kappa n) sqrt(sinh(pi |b|)/(pi |b|)) (3+sqrt8)^(-n) with
    kappa = pi (1 - 1/sqrt2).  ``est_error`` and ``terms_used`` read as
    there.
    """
    return _eta_point(b, check_digits(digits), flat=True)


def _digamma_gap(x, digits):
    """The gap read as two digamma calls.  The audits below check the
    identity gap = -2 sum (-1)^n/(x+n) on this reading; the one-pass
    ``digamma_gap`` sums that very series and would make them circular."""
    return digamma(x / 2 + 1, digits) - digamma((x + 1) / 2, digits)


# The integral route's strip |Im u| <= d = 0.95 pi, and an upper bound for
# the constant K of its docstring: the terms j < 2e6 sum to 1.17111, and
# with I_j <= ln a the rest is below (ln A + 1)/A < 5e-6 at A = 4e6.
# Floats, like the default tol, so h does not depend on the import precision.
_STRIP = 0.95
_GAP_L1 = 1.2


def zeta_line_one_integral(b, tol=1e-10, digits: int = DEFAULT_DIGITS) -> LineOnePoint:
    """zeta(1+ib) via one trapezoidal sum of the digamma-gap Mellin integral.

    With G(x) = gap(x) - 2 ln 2/(1+x), which is O(x) at 0 and O(1/x) at
    infinity, eta(1+ib) = ln 2 + (-i sinh(pi b)/(2 pi)) int_R G(e^u) e^(-ibu) du
    is summed at the nodes u = k h, |k| <= n.  G(e^u) is analytic in
    |Im u| < pi, so on the strip |Im u| <= d the trapezoidal error is at most
    2M/(e^(2 pi d/h) - 1) with M the integrand's L1 norm along Im u = +-d
    (Trefethen and Weideman, SIAM Review 56, 2014, Theorem 5.1).  Term by
    term, G(x) = 2 sum_j x (a^2-a-1-x) / ((x+a)(x+a+1) a (a+1) (1+x)),
    a = 1+2j, and |x + c| >= (|x| + c) cos(d/2) for |arg x| <= d, so
    M <= e^(|b| d) K / cos(d/2)^3 with K = sum_j 2 I_j / (a (a+1)) and
    I_j = int_0^inf (|a^2-a-1| + r) / ((r+a)(r+a+1)(1+r)) dr, which is
    ln 2 at a = 1 and (a^2-2a-1)/(a-1) ln a - (a^2-2a-2)/a ln(a+1) above.
    On the real line |G(e^u)| <= (pi^2/6 + 2 ln 2) e^u and <= 2 ln 2 e^(-u),
    since the gap is convex and decreasing from 2 ln 2 with slope -pi^2/6 at
    0 and lies in (0, 1/x], so the nodes past |u| = n h add at most
    (pi^2/6 + 4 ln 2) e^(-n h).  ``est_error`` is those two bounds scaled by
    the prefactor; ``terms_used`` counts gap evaluations.

    The integral lies ~exp(-pi |b|) below the integrand scale (the sinh
    prefactor undoes this), so h, n and the precision follow from an
    absolute budget scaled down by that factor.

    The sum runs in integers with f = ``_gap_bits(qdigits)`` + 2 bitlen(n)
    + 8 fraction bits, qdigits being the digits that resolve the budget.
    e^h, e^-h, e^(ibh) and 2 ln 2 are rounded once; the nodes x = e^(kh),
    e^(-kh) and cis(bkh) then step from node k-1, each rounded down, and G
    is read through ``numerics._digamma_gap_fixed``.  So no node makes a
    transcendental call.  Node k's e^(kh) is off by at most 2k units
    relative, its e^(-kh) by 2k units and its cis(bkh) by 3k.  Since
    |G| < 2 ln 2, |G'| <= pi^2/6 and, for x >= 1, x |G'(x)| <= 4 (the gap is
    convex with 0 < gap <= 1/x), the node is off by under 24 k units, and
    the sum by under 12 n (n+1) < 2^(f - _gap_bits(qdigits) - 4) units.
    That is below one unit of the gap's own tables, some 10^-20 of the
    budget.
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
    with working(adigits):
        b = as_mpf(b, adigits)
        sinh_pb = mp.sinh(mp.pi * b)
        # absolute budget for each of the two error terms of the sum
        budget = tol * abs(pref) * 2 * mp.pi / abs(sinh_pb) / 4
        # the integrand is O(1), so the sum itself only needs enough digits
        # to resolve the budget
        qdigits = max(25, digits - pad, int(-mp.log10(budget)) + 10)
        ln2 = mp.log(2)
        d = _STRIP * mp.pi
        m = _GAP_L1 * mp.exp(abs(b) * d) / mp.cos(d / 2) ** 3
        h = 2 * mp.pi * d / mp.log(2 * m / budget + 1)
        tail = mp.pi ** 2 / 6 + 4 * ln2
        n = int(mp.log(tail / budget) / h) + 1

        bits = _gap_bits(qdigits) + 2 * n.bit_length() + 8
        one = 1 << bits
        with mp.workprec(bits + 16):
            step_up = to_fixed(mp.exp(h)._mpf_, bits)
            step_down = to_fixed(mp.exp(-h)._mpf_, bits)
            cos_h, sin_h = _fixed(mp.expj(b * h), bits)
            two_ln2 = to_fixed((2 * mp.ln2)._mpf_, 2 * bits)

        def g(X):
            # G(x) 2^bits at X = x 2^bits
            return _digamma_gap_fixed(X, bits, qdigits) - two_ln2 // (one + X)

        # the products summed exactly, at 2 bits fraction bits
        re, im = g(one) << bits, 0
        up_x = down_x = cos_k = one
        sin_k = 0
        for _ in range(n):
            up_x = up_x * step_up >> bits
            down_x = down_x * step_down >> bits
            cos_k, sin_k = ((cos_k * cos_h - sin_k * sin_h) >> bits,
                            (cos_k * sin_h + sin_k * cos_h) >> bits)
            up, down = g(up_x), g(down_x)
            re += (up + down) * cos_k
            im += (down - up) * sin_k
        total = mpc(mpf((re, -2 * bits)), mpf((im, -2 * bits)))
        eta = ln2 + mpc(0, -1) * sinh_pb / (2 * mp.pi) * h * total
        value = eta / pref
        err = 2 * m / (mp.exp(2 * mp.pi * d / h) - 1) + tail * mp.exp(-n * h)
        est = abs(sinh_pb) / (2 * mp.pi * abs(pref)) * err
    with working(digits):
        return LineOnePoint(mpf(b), mpc(value), "integral", 2 * n + 1, mpf(est))


def mellin_check(b, n: int, eps, digits: int = DEFAULT_DIGITS) -> mpf:
    """Relative deviation of the damped Mellin integral from its closed form.

    integral_0^inf x^(eps-1-ib)/(x+n) dx  vs  pi n^(eps-ib-1)/sin(pi(eps-ib)).

    With a = eps - ib the integrand is a geometric series in x/n below n/8
    and in n/x above 8n, so those ends integrate term by term:

        int_0^(n/8)   = sum_k (-1/8)^k (n/8)^a / (n (a+k)),
        int_(8n)^inf  = sum_k (-1/8)^k (8n)^(a-1) / (k+1-a).

    For k >= 1 the pair of terms is at most (|(n/8)^a/n| + |(8n)^(a-1)|) 8^-k,
    so both series run in one loop of a fixed count that puts the pair
    below tol/100, and the rest below a seventh of that.  The middle,
    u = ln x over [ln(n/8), ln(8n)], is one Gauss-Legendre quadrature of
    e^(au)/(e^u + n) with budget tol/2: it is analytic in |Im u| < pi.  Its
    integrand is at most (8n)^eps / n there, so it runs at the digits that
    resolve tol, not at ``digits``.

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
        if eps <= 0:
            raise DomainError(
                f"eps = {mp.nstr(eps, 5)} is not in (0, 0.1]: the integral converges "
                "absolutely only for eps > 0"
            )
        # The float 0.1 is the bound: it lies just above 0.1, so 0.1 passes
        # as a float and rounded to any precision of 53 bits or more.
        if eps > 0.1:
            raise DomainError(f"eps = {mp.nstr(eps, 15)} is not in (0, 0.1]: it exceeds 0.1")
        a = mpc(eps, -b)
        closed = mp.pi * mpc(n) ** (a - 1) / mp.sin(mp.pi * a)
        tol = abs(closed) * mpf("1e-13")
        lo, hi = mpf(n) / 8, mpf(8 * n)
        head, tail = lo ** a / n, hi ** (a - 1)
        count = int(mp.log(100 * (abs(head) + abs(tail)) / tol, 8)) + 1
        ends, step = mpc(0), mpf(-1) / 8
        for k in range(count + 1):
            ends += head / (a + k) + tail / (k + 1 - a)
            head, tail = head * step, tail * step
        qdigits = min(digits, max(15, int(-mp.log10(tol)) + 5))
        mid, _ = integrate_interval(
            lambda u: mp.exp(a * u) / (mp.exp(u) + n), mp.log(lo), mp.log(hi), tol / 2, qdigits
        )
        return abs(ends + mid - closed) / abs(closed)


def _gap_identity_sides(x, digits):
    """(alt, gap) at the caller's precision: alt = sum (-1)^(n-1)/(x+n),
    one acceleration of the order ``numerics._accel_plan`` gives for the
    working floor 10^-(digits+GUARD_DIGITS), and the gap read as two
    digamma calls.  The corrected identity reads alt = gap/2."""
    order, _ = _accel_plan(mpf(10) ** (-(digits + GUARD_DIGITS)))
    alt = accelerate_alternating(lambda n: 1 / (x + n), order, digits=digits).value
    return alt, _digamma_gap(x, digits)


def digamma_gap_check(x, digits: int = DEFAULT_DIGITS) -> mpf:
    """Residual of the corrected alternating/digamma identity

        sum_{n>=1} (-1)^n / (x+n)  =  -(1/2)(Psi(x/2+1) - Psi((x+1)/2)).

    Returns |sum + gap/2| from ``_gap_identity_sides``, so the residual of
    a true identity is the working floor plus the rounding of both sides.
    """
    digits = check_digits(digits)
    with working(digits):
        x = as_mpf(x, digits)
        if x <= 0:
            raise DomainError("requires x > 0")
        alt, gap = _gap_identity_sides(x, digits)
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
        total = mpf(0)
        for k in range(2, K + 1):
            total += (mpf(-1) / 2) ** k * hurwitz_zeta(k, alpha, digits=digits)
        total *= 2
        return abs(_digamma_gap(x, digits) - total)


def eta_zero_ordinate(k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """The k-th ordinate of the eta zero line, b_k = 2 k pi / ln 2."""
    if k == 0:
        raise DomainError("k must be a nonzero integer")
    digits = check_digits(digits)
    with working(digits):
        return 2 * k * mp.pi / mp.log(2)


def eta_zero_scan(k: int, digits: int = DEFAULT_DIGITS) -> mpf:
    """|eta(1 + i b_k)| at b_k = 2 k pi / ln 2, where eta vanishes.

    eta is ``numerics._eta_quotient`` over 1: one acceleration of the order
    ``numerics._accel_plan`` gives for the working floor
    10^-(digits+GUARD_DIGITS), so the result is that floor plus rounding,
    at most about 10^-(digits+2).

    (zeta itself stays finite and nonzero there -- the vanishing prefactor
    cancels the eta zero; audit that side with ``zetacore.zeta_oracle``.)
    """
    digits = check_digits(digits)
    with working(digits):
        b = eta_zero_ordinate(k, digits)
        eta, _, _ = _eta_quotient(mpc(1, b), 1, digits)
        return abs(eta)


def uniform_norm_probe(
    lemma: str,
    n: int,
    k: Optional[int] = None,
    digits: int = DEFAULT_DIGITS,
) -> NormProbe:
    """Supremum of one lemma family against its analytic decay bound.

    lemma '1'  : |x^(-ib)/(x(x+n))| on [1, inf), bound 1/(n+1);
    lemma '2i' : |(-1/(2n+x+1))^k| on x >= 0, bound (1/(2n))^k;
    lemma '2ii': |x^(-ib)/((2n+x+1)(2n+x+2))| on x >= 0,
                 bound 1/((2n+1)(2n+2)).

    |x^(-ib)| = 1 for x > 0, so the modulus (and the probe) does not
    depend on b.  Each family is a product of reciprocals of increasing
    positive factors, so it decreases in x and its supremum is its value
    at the left end of the domain (x = 1 or x = 0).  Rounding to nearest
    is monotone, so the same holds for the mpf evaluation: the value at
    the left end is also the supremum over any grid that contains it.
    """
    digits = check_digits(digits)
    if n < 1:
        raise DomainError("n must be >= 1")
    with working(digits):
        if lemma == "1":
            x = mpf(1)
            bound = mpf(1) / (n + 1)
            sup = 1 / (x * (x + n))
            kk = None
        elif lemma == "2i":
            if k is None or k < 2:
                raise DomainError("lemma 2i needs k >= 2")
            x = mpf(0)
            bound = (mpf(1) / (2 * n)) ** k
            sup = (1 / (2 * n + x + 1)) ** k
            kk = k
        elif lemma == "2ii":
            x = mpf(0)
            bound = mpf(1) / ((2 * n + 1) * (2 * n + 2))
            sup = 1 / ((2 * n + x + 1) * (2 * n + x + 2))
            kk = k
        else:
            raise DomainError(f"unknown lemma {lemma!r}")
        return NormProbe(lemma, n, kk, sup, bound)
