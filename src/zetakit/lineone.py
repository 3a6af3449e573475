"""Evaluation of zeta on the line Re(s) = 1 and the audit probes around it.

Three routes to zeta(1+ib):

* ``eta``      -- the alternating series eta(1+ib) in one acceleration, of
                  the order the Cohen-Rodriguez Villegas-Zagier bound
                  plans for the working floor, divided by 1 - 2^(-ib).
                  It is summed in integers over a fixed-point n^-s table
                  that costs one cis per prime (``numerics._eta_quotient``);
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

Plus: the damped Mellin integral check, the eta zero line b = 2 k pi / ln 2,
and sup-norm probes for the uniform-convergence bounds.  The digamma-gap
identity and the gap's Hurwitz double expansion are read in ``forensics``
(eq42 and eq49).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

from .errors import DegeneracyError, DomainError, PoleError
from .numerics import (
    _ACCEL_GUARD_BITS,
    _accel_plan,
    _crvz_sum,
    _digamma_gap_fixed,
    _em_floor,
    _eta_quotient,
    _fixed,
    _gap_bits,
    _working_floor,
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
    prefactor undoes this), so h, n and the sum's digits follow from b and
    ``tol`` alone, through the absolute budget tol |pref| pi / (2 sinh(pi |b|)):
    qdigits = max(25, floor(-log10(budget)) + 10).

    The sum runs in integers with f = ``_gap_bits(qdigits)`` + 2 bitlen(n)
    + 8 fraction bits.  e^h, e^-h, e^(ibh) and 2 ln 2 are rounded once; the
    nodes x = e^(kh), e^(-kh) and cis(bkh) then step from node k-1, each
    rounded down, so no node makes a transcendental call, and G is read
    through ``numerics._digamma_gap_fixed``, good to a few units of
    2^-_gap_bits(qdigits) < 10^-(qdigits+10), some 10^-19 of the budget.
    Node k's e^(kh) is off by at most 2k units relative, its e^(-kh) by 2k
    units and its cis(bkh) by 3k.  Since |G| < 2 ln 2, |G'| <= pi^2/6 and,
    for x >= 1, x |G'(x)| <= 4 (the gap is convex with 0 < gap <= 1/x), the
    node is off by under 24 k units, and the sum by under 12 n (n+1) <
    2^(f - _gap_bits(qdigits) - 4) units.  Times h, with n h ~ ln(tail/budget),
    the sum is off by far under 10^-10 of the budget.  The rest runs at
    ``working(digits + 14)``: eta is O(1) and |pref| >= 1e-12, so eta / pref
    loses at most 12 digits, and 2 more keep its few units of rounding a
    tenth of the floor 10^-(digits+GUARD_DIGITS); a ``tol`` below that
    floor raises ``AccuracyError`` before any node is summed.  The value is good to ``est_error``, not to ``digits``: digits
    past ``tol`` are exact arithmetic on a sum truncated at ``tol``.
    """
    digits = check_digits(digits)
    adigits = digits + 14
    with working(adigits):
        b = as_mpf(b, adigits)
        tol = as_mpf(tol, adigits)
        _working_floor(tol, digits, "zeta_line_one_integral")
        # a float b, so the edges pass at any precision b was built at
        if not 1e-3 <= abs(float(b)) <= 50:
            raise DomainError("integral route supports 1e-3 <= |b| <= 50")
        pref = _prefactor(b, adigits)
        if abs(pref) < PREFACTOR_DEGENERACY:
            raise DegeneracyError("1 - 2^(-ib) vanishes on the zero line")
        sinh_pb = mp.sinh(mp.pi * b)
        # absolute budget for each of the two error terms of the sum
        budget = tol * abs(pref) * 2 * mp.pi / abs(sinh_pb) / 4
        qdigits = max(25, int(-mp.log10(budget)) + 10)
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
        return LineOnePoint(b, value, "integral", 2 * n + 1, est)


def mellin_check(b, eps, digits: int = DEFAULT_DIGITS) -> mpf:
    """Relative deviation of the damped Mellin integral from its closed form,

    integral_0^inf x^(eps-1-ib)/(x+n) dx  vs  pi n^(eps-ib-1)/sin(pi(eps-ib)),

    which is the same at every n > 0.  With a = eps - ib, put x = n t and
    split at t = 1; on t > 1 put u = 1/t.  The integral is then
    n^(a-1) (S_1 + S_2), two alternating series of moments on [0, 1]:

        S_1 = int_0^1 t^(a-1)/(1+t) dt = sum_k (-1)^k/(a+k),
        S_2 = int_0^1 u^(-a)/(1+u) du  = sum_k (-1)^k/(k+1-a).

    Their measures are t^(a-1) dt and u^(-a) du, so the bound of
    ``numerics._accel_plan`` holds with C = int |dmu|/(1+x), at most
    int_0^1 t^(eps-1) dt = 1/eps and int_0^1 u^(-eps) du = 1/(1-eps).
    Each sum is one acceleration (``numerics._crvz_sum``) of the least
    order whose bound 2 C (3+sqrt8)^(-order) is at most the floor
    10^-(digits+pad+GUARD_DIGITS), pad = ceil(pi |b| / ln 10), at a
    precision padded by those pad digits: S_1 + S_2 = pi/sin(pi a), and
    |sin(pi a)| <= cosh(pi b) < e^(pi |b|), so the value is at least
    pi 10^-pad while the terms are of order 1.  The truncation is then under
    10^-(digits+GUARD_DIGITS) relative to the value.

    The terms are integers with f = the padded precision + bitlen(order)
    + 8 + 2 max(0, -mag(a)) fraction bits: 1/(a+k) is ((eps+k) + ib) over
    (eps+k)^2 + b^2, and 1/(k+1-a) likewise, each part rounded down once
    from eps and b in fixed point.  Those two are off by under a unit
    each, which moves a term by under sqrt2/|a|^2 units; the 2 max(0,
    -mag(a)) bits cover that, so a term is off by a few units of
    2^-(f - 2 max(0, -mag(a))), and each sum by a few units per term, far
    below the padded precision.  The sums, the closed form's pi/sin(pi a)
    and the deviation are rounded at f bits, so the deviation resolves
    the truncation rather than rounding to 0.  The common factor n^(a-1)
    cancels from the relative deviation, so n is neither asked nor formed.
    No quadrature runs.

    The undamped (eps = 0) limit is only conditionally convergent, so it is
    audited through the eps -> 0 trend of this deviation, never directly.
    """
    digits = check_digits(digits)
    with working(digits):
        b = as_mpf(b, digits)
        eps = as_mpf(eps, digits)
        if b == 0:
            raise DomainError("b must be nonzero")
        if eps <= 0:
            raise DomainError(
                f"eps = {mp.nstr(eps, 5)} is not in (0, 0.1]: the integral converges "
                "absolutely only for eps > 0"
            )
        # The float 0.1 is the bound: it lies just above 0.1, so 0.1 passes
        # as a float and rounded to any precision of 53 bits or more.
        if eps > 0.1:
            raise DomainError(f"eps = {mp.nstr(eps, 15)} is not in (0, 0.1]: it exceeds 0.1")
        pad = math.ceil(math.pi * abs(float(b)) / math.log(10))
    with working(digits + pad):
        floor = _em_floor(digits + pad)
        # S_1's terms sit at shift eps, S_2's at 1 - eps, with C = 1/shift
        orders = [_accel_plan(floor * c)[0] for c in (eps, 1 - eps)]
        bits = (mp.prec + max(orders).bit_length() + _ACCEL_GUARD_BITS
                + 2 * max(0, -mp.mag(mpc(eps, b))))
    E, B = to_fixed(eps._mpf_, bits), to_fixed(b._mpf_, bits)
    with mp.workprec(bits):
        total = mpf(0)
        for order, shift, sign in zip(orders, (E, (1 << bits) - E), (1, -1)):
            re, im = [], []
            for k in range(order):
                R = (k << bits) + shift
                D = R * R + B * B
                re.append((R << 2 * bits) // D)
                im.append(sign * ((B << 2 * bits) // D))
            total += _crvz_sum(re, im, bits)
        closed = mp.pi / mp.sin(mp.pi * mpc(eps, -b))
        return abs(total - closed) / abs(closed)


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
    Only lemma '2i' takes ``k``; a ``k`` given to '1' or '2ii' is a
    ``DomainError``.
    """
    digits = check_digits(digits)
    if n < 1:
        raise DomainError("n must be >= 1")
    if lemma in ("1", "2ii") and k is not None:
        raise DomainError(f"lemma {lemma} takes no k: k is for lemma 2i only")
    with working(digits):
        if lemma == "1":
            x = mpf(1)
            bound = mpf(1) / (n + 1)
            sup = 1 / (x * (x + n))
        elif lemma == "2i":
            if k is None or k < 2:
                raise DomainError("lemma 2i needs k >= 2")
            x = mpf(0)
            bound = (mpf(1) / (2 * n)) ** k
            sup = (1 / (2 * n + x + 1)) ** k
        elif lemma == "2ii":
            x = mpf(0)
            bound = mpf(1) / ((2 * n + 1) * (2 * n + 2))
            sup = 1 / ((2 * n + x + 1) * (2 * n + x + 2))
        else:
            raise DomainError(f"unknown lemma {lemma!r}")
        return NormProbe(lemma, n, k, sup, bound)
