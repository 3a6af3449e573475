"""Odd-argument zeta machinery.

The centerpiece is the linking ratio

    f(s) = [t(2s)/zeta(2s)] / [t(2s+1)/zeta(2s+1)]

which tends to 2 as s grows.  Solving that relation for zeta(2s+1) with the
closed-form t (and a chosen constant f, typically 2) gives the quick
odd-argument approximation

    zeta(2s+1) = B / (c1 - A/f),
    A  = 1 - 2^(-2s) - (1 - 1/(2^(2s)-1)) / zeta(2s),
    B  = (2^(2s+1) - 2) / (2^(2s+1) - 1),
    c1 = 1 - 2^(-(2s+1)),

whose error against the true value decays roughly ninefold per step in s.
Alongside it live the exact rapidly-convergent identities for zeta(3),
zeta(5), zeta(7) and four literature series for general zeta(2n+1).  Three
of those, eq24-eq26, share one base-b shape: every constant and expression
that tells them apart is a row of one variant table (``_LIT_SERIES``).
The Hurwitz numerators of eq25 and eq26 take one Euler-Maclaurin pass over
a run of even orders, and one bottom-up loop (``_lit_levels``) computes
the lower levels.  Each infinite sum takes its length and fixed-point
width from one planner (``_series_plan``), a geometric majorant against
the working floor 10^-(digits+GUARD_DIGITS), and is added in integers and
rounded once (R. Brent and P. Zimmermann, *Modern Computer Arithmetic*,
2010, section 4.4), so every value carries every working digit; all are
pinned against mpmath's zeta in the tests.  Each literature series
returns the number of terms it summed with its value.

Where a published series is reproduced here in corrected form (bracket
placement, a factor of 2, a flipped sign, a mangled power), the forensics
module carries the printed-versus-corrected comparison.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, log2, prod
from typing import Dict, List, Optional

from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from .errors import DegeneracyError, DomainError
from .numerics import _em_orders, _fixed_point_bits, _working_floor
from .precision import DEFAULT_DIGITS, GUARD_DIGITS, as_mpf, check_digits, working
from .primetail import _closed_pad, _t_closed_at, _t_exact
from .zetacore import _zeta_even_interior, _zeta_orders, zeta_reference

LITERATURE_VARIANTS = ("eq23", "eq24", "eq25", "eq26")


@dataclass(frozen=True)
class FRatioSample:
    """f evaluated at one integer s; ``f_direct``, from the direct prime
    sums, is None in closed mode."""

    s: int
    f_closed: mpf
    f_direct: Optional[mpf]
    reference_zetas: Dict[str, mpf]
    mode: str = "closed"

    @property
    def f(self) -> mpf:
        return self.f_closed if self.mode == "closed" else self.f_direct


@dataclass(frozen=True)
class EvalRow:
    """One row of the odd-argument error table."""

    argument: int
    formula_value: mpf
    reference_value: mpf
    abs_diff: mpf


def f_ratio(s: int, mode: str = "closed", tol=mpf("1e-8"), digits: int = DEFAULT_DIGITS) -> FRatioSample:
    """Measure f(s) with closed-form prime tails and, in direct mode, also
    with the true prime tails.

    zeta(2s) is the even-zeta memo ``zetacore._zeta_even_interior`` and
    zeta(2s+1) comes from the oracle, once each; they are the
    ``reference_zetas``.  The tails t(2s)
    and t(2s+1), about 2^-2s, cancel (2s+1) log10(2) digits against O(1)
    terms, so they and both zeta values are formed
    ``primetail._closed_pad(2s+1)`` digits above the working precision (0
    for s <= 4), and f is good to a few units of 10^-(digits+7) relative.
    Both tails read those zeta values: the closed ones, and in direct mode
    the exact ones of ``primetail.t_exact``.
    ``tol`` does not change the value; in direct mode a ``tol`` below the
    working-precision floor 10^-(digits+GUARD_DIGITS) raises
    ``AccuracyError``.
    """
    if s < 1:
        raise DomainError("f_ratio requires s >= 1")
    if mode not in ("closed", "direct"):
        raise DomainError(f"unknown mode {mode!r}")
    digits = check_digits(digits)
    inner = digits + _closed_pad(2 * s + 1)
    with working(inner):
        z_even = _zeta_even_interior(2 * s, inner)
        z_odd = zeta_reference(2 * s + 1, inner)
        fc = (_t_closed_at(as_mpf(2 * s, inner), z_even) / z_even) / (
            _t_closed_at(as_mpf(2 * s + 1, inner), z_odd) / z_odd
        )
        fd = None
        if mode == "direct":
            _working_floor(as_mpf(tol, digits), digits, f"f_ratio(s={s}), t({2 * s})")
            t_even = _t_exact(2 * s, inner, z_even).value
            t_odd = _t_exact(2 * s + 1, inner, z_odd).value
            fd = (t_even / z_even) / (t_odd / z_odd)
    with working(digits):
        refs = {"zeta_2s": _zeta_even_interior(2 * s, digits), "zeta_2s_plus_1": +z_odd}
        return FRatioSample(s, +fc, None if fd is None else +fd, refs, mode)


def zeta_odd_closed(s: int, f, digits: int = DEFAULT_DIGITS) -> mpf:
    """Closed-form approximation to zeta(2s+1) from zeta(2s) and f alone:
    the linking relation solved with closed-form tails.

    No odd-argument zeta value enters the computation: zeta(2s) comes from
    ``zetacore._zeta_even_interior``, the Bernoulli closed form up to
    2s = max(60, digits + 12) and a short direct sum past it, so no
    Bernoulli number past that bound is built, and everything else is
    elementary arithmetic.
    """
    if s < 1:
        raise DomainError("requires s >= 1")
    digits = check_digits(digits)
    z_even = _zeta_even_interior(2 * s, digits)
    with working(digits):
        f = as_mpf(f, digits)
        if f <= 0:
            raise DomainError("f must be positive")
        p = mpf(2) ** (2 * s)  # 2^(2s)
        A = 1 - 1 / p - (1 - 1 / (p - 1)) / z_even
        B = (2 * p - 2) / (2 * p - 1)
        c1 = 1 - 1 / (2 * p)
        denom = c1 - A / f
        if abs(denom) < mpf("1e-30"):
            raise DegeneracyError("denominator c1 - A/f is degenerately small")
        return B / denom


def zeta_odd_prime(s: int, f, digits: int = DEFAULT_DIGITS) -> mpf:
    """Literal prime-sum form ``f * t(2s+1)/t(2s) * zeta(2s)``.

    Uses the true prime tails of ``primetail.t_exact``, so the result
    differs from the closed-form route wherever the omitted odd composites
    matter; zeta(2s) is read as in ``zeta_odd_closed``.  The tails, about
    2^-2s, are good to an absolute floor, so they and zeta(2s) are formed
    ``primetail._closed_pad(2s+1)`` digits above the working precision, as
    in ``f_ratio``, and the value is rounded to it.
    """
    if s < 1:
        raise DomainError("requires s >= 1")
    digits = check_digits(digits)
    inner = digits + _closed_pad(2 * s + 1)
    with working(inner):
        f = as_mpf(f, inner)
        den = _t_exact(2 * s, inner).value
        num = _t_exact(2 * s + 1, inner).value
        value = f * num / den * _zeta_even_interior(2 * s, inner)
    with working(digits):
        return +value


def _series_plan(lead, ratio: float, digits: int) -> tuple:
    """(count, bits) for a series whose n-th term, times the sum's weight,
    is at most lead ratio^n: the least count >= 1 for which lead
    ratio^count / (1 - ratio) is at most a quarter of the floor
    10^-(digits+GUARD_DIGITS), which bounds what the terms from index
    count on add, and the fraction bits ``_fixed_point_bits`` gives for
    adding that many terms.  lead enters as ``mp.mag``, an integer >=
    log2(lead), so the float logarithms never underflow."""
    log2_target = -(digits + GUARD_DIGITS) * log2(10) - 2
    excess = mp.mag(lead) - log2(1 - ratio) - log2_target
    count = max(1, ceil(excess / -log2(ratio)))
    return count, _fixed_point_bits(digits, count)


def _fixed_even_zeta(two_k: int, digits: int, bits: int) -> int:
    """zeta(2k) 2^bits, rounded down, from ``_zeta_even_interior``."""
    return to_fixed(_zeta_even_interior(two_k, digits)._mpf_, bits)


def _lattice_sums(turns: int, power: int, weight, digits: int):
    """sum_{n>=1} q^n / (n^power (1 -/+ q^n)), q = e^(-turns pi), for a
    caller that multiplies each by at most ``weight``.  Both terms are at
    most q^n / (1 - q); q is the one transcendental call, and q^n and the
    terms are integers with ``_series_plan``'s fraction bits."""
    with working(digits):
        q = mp.exp(-turns * mp.pi)
        ratio = float(q)
        count, bits = _series_plan(weight / (1 - ratio), ratio, digits)
        one = 1 << bits
        base = to_fixed(q._mpf_, bits)
        qn = one
        minus = plus = 0
        for n in range(1, count):
            qn = qn * base >> bits
            minus += (qn << bits) // ((one - qn) * n**power)
            plus += (qn << bits) // ((one + qn) * n**power)
        return mpf((minus, -bits)), mpf((plus, -bits))


def _zeta5_sums(digits: int):
    """The three lattice sums of the zeta(5) identity: sum 1/(n^5 sinh(pi n))
    and sum 1/(n^5 (e^(2 pi n) -/+ 1)).  The first is both q-series at
    q = e^-pi, as 1/sinh(pi n) = q^n/(1 - q^n) + q^n/(1 + q^n); the others
    are those at q = e^-2pi.  Called at ``working(digits)``."""
    minus, plus = _lattice_sums(1, 5, 12, digits)
    return (minus + plus,) + _lattice_sums(2, 5, 2, digits)


def zeta_known_ref(target: int, tol, digits: int = DEFAULT_DIGITS) -> mpf:
    """Rapidly convergent exact representations of zeta(3), zeta(5), zeta(7).

    zeta(3):  -(4 pi^2/7) sum_{k>=0} zeta(2k) / ((2k+1)(2k+2) 4^k)
    zeta(5):  12 S_sinh - (39/20) S_minus + (1/20) S_plus   with
              S_sinh = sum 1/(n^5 sinh(pi n)),
              S_minus/plus = sum 1/(n^5 (e^(2 pi n) -/+ 1))
              (the S_plus sign is the corrected one; see forensics)
    zeta(7):  (19/56700) pi^7 - 2 sum 1/(n^7 (e^(2 pi n) - 1))

    Each sum's length is planned for the working floor
    10^-(digits+GUARD_DIGITS) from a geometric majorant: ratio 1/4 for
    zeta(3), as zeta(2k) <= zeta(2), e^-pi for the sinh sum and e^-2pi for
    the exp sums.  The terms are added as integers and rounded once, so
    ``tol`` only guards the floor: below it ``AccuracyError`` is raised
    before any term is summed.
    """
    if target not in (3, 5, 7):
        raise DomainError(f"target must be 3, 5, or 7, got {target}")
    digits = check_digits(digits)
    with working(digits):
        _working_floor(as_mpf(tol, digits), digits, f"zeta_known_ref({target})")
        if target == 3:
            weight = 4 * mp.pi**2 / 7
            count, bits = _series_plan(weight, 0.25, digits)
            s = sum(
                (_fixed_even_zeta(2 * k, digits, bits) >> 2 * k) // ((2 * k + 1) * (2 * k + 2))
                for k in range(count)
            )
            return -weight * mpf((s, -bits))
        if target == 5:
            s_sinh, s_minus, s_plus = _zeta5_sums(digits)
            return 12 * s_sinh - mpf(39) / 20 * s_minus + mpf(1) / 20 * s_plus
        s_minus, _ = _lattice_sums(2, 7, 2, digits)
        return mpf(19) / 56700 * mp.pi**7 - 2 * s_minus


def _eq23_head(m: int, digits: int) -> tuple:
    # The part of eq23 that the printed and corrected readings share, and
    # the terms its series summed:
    # pref * (-log 2/(2m+1)! + sum_n (2 - 2^(1-2n)) (2n-1)!/(2m+2n+1)! zeta(2n)).
    # With zeta(2n) = 1 + (zeta(2n) - 1) the 1s sum to a beta integral,
    # 2/(2m+1)! int_0^1 t (1-t)^(2m)/(1+t) dt = 2/(2m+1)! (R_m - 4^m log 2),
    # and the rest shrinks like 9^-n (Borwein, Bradley and Crandall 2000).
    r_m = Fraction(1, 2 * m + 1) - sum(
        Fraction(comb(2 * m, k) * (-1) ** k * (4**m - 2 ** (2 * m - k)), k)
        for k in range(1, 2 * m + 1)
    )
    with working(digits):
        pref = (-1) ** m * mp.pi ** (2 * m) / (1 - mpf(2) ** (-2 * m))
        ln2 = mp.log(2)
        # term n is (2 sum_{j>=3} j^-2n - 2^(1-2n) (zeta(2n) - 1)) (2n-1)!/(2m+2n+1)!,
        # at most 11 9^-n / (2m+3)!
        count, bits = _series_plan(11 * abs(pref) / mp.factorial(2 * m + 3), 1 / 9, digits)
        one = 1 << bits
        rest = 0
        for n in range(1, count):
            z = _fixed_even_zeta(2 * n, digits, bits)
            rest += (2 * (z - one) - (z >> (2 * n - 1))) // prod(range(2 * n, 2 * n + 2 * m + 2))
        beta = 2 * (as_mpf(r_m, digits) - 4**m * ln2)
        return pref * ((beta - ln2) / mp.factorial(2 * m + 1) + mpf((rest, -bits))), count - 1


# eq24-eq26 at level n read pref (log(log_arg) + factor E + (2n)! L - h((2n)!) H), with
#   pref = (-1)^(n-1) (2 pi)^(2n) / ((2n)! denom(n)),
#   E = sum_{k>=0} zeta(2k) / ((k+n) base^(2k)),
#   L = sum_{j<n} (-1)^j/(2n-2j)! (scale^(2j) - 1)/(2 pi)^(2j) zeta(2j+1),
#   H = sum_{j<=n} (-1)^j/(2n-2j+1)! num_j/(2 pi)^(2j-1),
# and num_j = num(j, zeta(2j, 1/shift), zeta(2j)); eq24 has no H.
_BaseSeries = namedtuple("_BaseSeries", "base denom factor scale log_arg shift num h",
                         defaults=(None, None, None))

_LIT_SERIES = {
    "eq24": _BaseSeries(2, lambda n: mpf(2) ** (2 * n + 1) - 1, 1, 2, 2),
    "eq25": _BaseSeries(3, lambda n: mpf(3) ** (2 * n + 1) - 1, 2, 3, 3, 3,
                        lambda j, hz, z: 2 * hz - (mpf(3) ** (2 * j) - 1) * z,
                        lambda fac: fac / mp.sqrt(3)),
    # the even-zeta series carries the same factor 2 as the base-3 one
    "eq26": _BaseSeries(4, lambda n: mpf(2) ** (4 * n + 1) + mpf(2) ** (2 * n) - 1, 2, 2, 2, 4,
                        lambda j, hz, z: hz - mpf(2) ** (2 * j - 1) * (mpf(2) ** (2 * j) - 1) * z,
                        lambda fac: fac),
}


def _lit_numerators(n: int, variant: str, digits: int) -> List[mpf]:
    # num_j, j = 1..n, of ``variant``'s H: the Hurwitz values from one
    # ``_em_orders`` pass over the orders 2, 4, ..., 2n, each the value
    # hurwitz_zeta gives; none for eq23 and eq24
    row = _LIT_SERIES.get(variant)
    if row is None or row.num is None:
        return []
    with working(digits):
        zetas = _em_orders(range(2, 2 * n + 1, 2), mpf(1) / row.shift, digits)
        return [row.num(j, hz, _zeta_even_interior(2 * j, digits)) for j, hz in enumerate(zetas, 1)]


def _lit_parts(n: int, variant: str, odds: List[mpf], nums: List[mpf], digits: int) -> tuple:
    # (pref, factor E, L, H, terms of E) of the base-b series ``variant``
    # at level n, from the lower values ``odds`` and the numerators
    # ``nums``.  Every term of E is at most zeta(2)/n b^(-2k) < 2/n
    # b^(-2k), k = 0 included, so its majorant has ratio 1/b^2; the factor
    # multiplies E's integer sum.
    row = _LIT_SERIES[variant]
    b2 = row.base**2
    with working(digits):
        pref = (-1) ** (n - 1) * (2 * mp.pi) ** (2 * n) / (mp.factorial(2 * n) * row.denom(n))
        count, bits = _series_plan(2 * abs(row.factor * pref) / n, 1 / b2, digits)
        total = sum(
            _fixed_even_zeta(2 * k, digits, bits) // ((k + n) * b2**k) for k in range(count)
        )
        ksum = mpf((row.factor * total, -bits))
        jsum = mpf(0)
        for j in range(1, n):
            scaled = (mpf(row.scale) ** (2 * j) - 1) / (2 * mp.pi) ** (2 * j)
            jsum += (-1) ** j / mp.factorial(2 * n - 2 * j) * scaled * odds[j - 1]
        hsum = mpf(0)
        for j, num in enumerate(nums[:n], 1):
            hsum += (-1) ** j / mp.factorial(2 * n - 2 * j + 1) * num / (2 * mp.pi) ** (2 * j - 1)
        return pref, ksum, jsum, hsum, count


def _lit_value(n: int, variant: str, odds: List[mpf], nums: List[mpf], digits: int) -> tuple:
    # zeta(2n+1) from the corrected reading of ``variant``, and the terms
    # its series summed
    with working(digits):
        if variant == "eq23":
            # the finite sum's terms are (2^(2j-2n) - 1) (-pi^2)^j zeta(2n-2j+1) / (2j+1)!
            first, terms = _eq23_head(n, digits)
            second = mpf(0)
            for j in range(1, n):
                scale = (mpf(2) ** (2 * j - 2 * n) - 1) * (-mp.pi**2) ** j
                second += scale * odds[n - j - 1] / mp.factorial(2 * j + 1)
            return first + second / (1 - mpf(2) ** (-2 * n)), terms
        row = _LIT_SERIES[variant]
        pref, ksum, jsum, hsum, terms = _lit_parts(n, variant, odds, nums, digits)
        fac = mp.factorial(2 * n)
        # the finite odd-zeta sum sits inside the prefactored parenthesis
        inner = mp.log(row.log_arg) + ksum + fac * jsum
        if row.h is not None:
            inner -= row.h(fac) * hsum
        return pref * inner, terms


def _lit_levels(n: int, variant: str, digits: int) -> tuple:
    """zeta(3), zeta(5), ..., zeta(2n+1) through ``variant``, bottom-up,
    and the terms their series summed: each level reads the ones below
    it, and the Hurwitz numerators of all n levels come from one pass.  A
    level's rounding enters every level above it, times that level's
    coefficients on the lower values."""
    nums = _lit_numerators(n, variant, digits)
    odds, terms = [], 0
    for j in range(1, n + 1):
        value, summed = _lit_value(j, variant, odds, nums, digits)
        odds.append(value)
        terms += summed
    return odds, terms


def _literature(n: int, variant: str, tol, digits: int) -> tuple:
    # ``zeta_odd_literature``'s value, and the terms its levels' series summed
    if n < 1:
        raise DomainError("requires n >= 1")
    if variant not in LITERATURE_VARIANTS:
        raise DomainError(f"unknown variant {variant!r}")
    digits = check_digits(digits)
    pad = max(0, n - 3) if variant == "eq23" else 0
    with working(digits):
        _working_floor(as_mpf(tol, digits), digits, f"zeta_odd_literature({n}, {variant!r})")
        odds, terms = _lit_levels(n, variant, digits + pad)
        return +odds[-1], terms


def zeta_odd_literature(n: int, variant: str, tol, digits: int = DEFAULT_DIGITS) -> mpf:
    """zeta(2n+1) via one of four published series representations.

    The lower odd values a variant needs are computed once each, bottom-up,
    through the same variant, at a cost linear in n (``_lit_levels``).
    The Hurwitz numerators zeta(2j, 1/3) of eq25 and zeta(2j, 1/4) of eq26,
    j = 1..n, come from one Euler-Maclaurin pass over the orders 2, 4,
    ..., 2n.  Each level's sum has its length planned for the working floor
    from a geometric majorant times its prefactor: ratio 1/9 for eq23's
    even-zeta remainder, 1/base^2 for the even-zeta sums of eq24-eq26.
    Summed in integers and rounded once, every level carries every working
    digit, so ``tol`` only guards the floor 10^-(digits+GUARD_DIGITS), as
    in ``zeta_known_ref``.  eq23's finite sum multiplies the lower values
    by coefficients up to 1.64, so its rounding grows about tenfold a level
    past n = 5: its levels run max(0, n - 3) digits above the working
    precision, and the value is rounded to it.
    """
    return _literature(n, variant, tol, digits)[0]


def odd_error_table(max_arg: int, f, tol=mpf("1e-20"), digits: int = DEFAULT_DIGITS) -> List[EvalRow]:
    """Error table for the closed-form approximation at 3, 5, ..., max_arg.

    The references are the oracle's zeta(3), zeta(5), ..., from one
    ``zetacore._zeta_orders`` pass; a ``tol`` below the working floor
    raises ``AccuracyError`` before any of them is summed."""
    if max_arg < 3 or max_arg % 2 == 0:
        raise DomainError("max_arg must be an odd integer >= 3")
    digits = check_digits(digits)
    args = range(3, max_arg + 1, 2)
    rows = []
    with working(digits):
        for arg, reference in zip(args, _zeta_orders(args, tol, digits)):
            formula = zeta_odd_closed((arg - 1) // 2, f, digits)
            rows.append(EvalRow(arg, formula, reference, abs(formula - reference)))
    return rows
