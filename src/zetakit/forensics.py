"""Formula forensics: evaluate each studied identity as printed, compare
against an independent oracle, and classify the outcome.

Verdicts:

* ``exact``          -- the printed formula matches the oracle to the run
                        tolerance;
* ``approximation``  -- a genuine, quantified gap that the construction
                        itself implies (truncation, omitted terms, an
                        empirical constant);
* ``suspected_typo`` -- the printed form deviates grossly (> 1e-3) while a
                        minimally corrected reading matches the oracle; the
                        note records the correction.

Each report carries the oracle value, the as-printed value, and their
absolute deviation at one documented representative evaluation point.

The digamma gap Psi(x/2 + 1) - Psi((x+1)/2) is read here as two digamma
calls (``_digamma_gap``), apart from the one-pass kernel the integral route
sums: eq42 sets it against an accelerated alternating series
(``_gap_identity_sides``), and eq49 against its Hurwitz double expansion
(``_hurwitz_expansion``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

from mpmath import mp, mpf, mpc

from .bern import bernoulli
from .errors import AccuracyError, UsageError
from .lineone import mellin_check, uniform_norm_probe, zeta_line_one, zeta_line_one_flat
from .numerics import _accel_plan, _em_orders, accelerate_alternating, digamma
from .oddzeta import (
    _eq23_head,
    _lit_levels,
    _lit_numerators,
    _lit_parts,
    _zeta5_sums,
    zeta_known_ref,
    zeta_odd_closed,
    zeta_odd_literature,
    zeta_odd_prime,
)
from .precision import DEFAULT_DIGITS, GUARD_DIGITS, as_mpf, check_digits, working
from .primetail import t_closed, t_direct, t_exact
from .zetacore import (
    euler_product,
    zeta_even_closed,
    zeta_negative_int,
    zeta_oracle,
    zeta_reference,
)

TYPO_FLOOR = mpf("1e-3")

# Tolerance of eq16's direct prime sum t(2), which meets it within the prime
# budget; every verdict rests on gaps above 1e-3.  Floats, here and for the
# run tol, do not depend on the import precision.
_PRIME_TAIL_TOL = 3e-7


@dataclass(frozen=True)
class ForensicsReport:
    formula_id: str
    oracle_value: mpc
    formula_value: mpc
    deviation: mpf
    verdict: str
    note: str = ""


def _report(formula_id, oracle, formula, tol, verdict, note="", deviation=None):
    oracle = mpc(oracle)
    formula = mpc(formula)
    if deviation is None:
        deviation = abs(oracle - formula)
    if verdict == "exact" and not deviation <= tol:
        raise AssertionError(f"{formula_id}: exact verdict needs deviation <= tol")
    if verdict == "suspected_typo" and not deviation > TYPO_FLOOR:
        raise AssertionError(f"{formula_id}: typo verdict needs deviation > 1e-3")
    return ForensicsReport(formula_id, oracle, formula, deviation, verdict, note)


def _check_eq2(tol, digits):
    oracle = zeta_oracle(8, tol, digits=digits)
    formula = zeta_even_closed(8, digits)
    return _report(
        "eq2", oracle, formula, tol, "exact",
        "Bernoulli closed form at even arguments; representative point 2n = 8.",
    )


def _check_eq3(tol, digits):
    # every textbook value is checked exactly; zeta(-1) is the reported point
    textbook = {0: Fraction(-1, 2), 1: Fraction(-1, 12), 2: Fraction(0)}
    deviation = max(abs(zeta_negative_int(n) - v) for n, v in textbook.items())
    formula = as_mpf(zeta_negative_int(1), digits)
    with working(digits):
        oracle = mpf(-1) / 12
    return _report(
        "eq3", oracle, formula, tol, "exact",
        "zeta(-n) = -B_(n+1)/(n+1) with B1 = +1/2, checked at the textbook "
        "continuation values zeta(0) = -1/2, zeta(-1) = -1/12, zeta(-2) = 0.",
        deviation=as_mpf(deviation, digits),
    )


def _check_eq4(tol, digits):
    oracle = zeta_reference(3, digits)
    formula = zeta_known_ref(3, tol, digits=digits)
    return _report("eq4", oracle, formula, tol, "exact", "Rapid even-zeta series for zeta(3).")


def _check_zeta5(tol, digits):
    with working(digits):
        s_sinh, s_minus, s_plus = _zeta5_sums(digits)
        printed = 12 * s_sinh - mpf(39) / 20 * s_minus - mpf(1) / 20 * s_plus
    oracle = zeta_reference(5, digits)
    return _report(
        "zeta5", oracle, printed, tol, "approximation",
        "As printed the last sum enters with -1/20 and the value misses "
        "zeta(5) by ~1.9e-4; with +1/20 the identity is exact "
        "(zeta_known_ref(5) implements the corrected sign).",
    )


def _check_eq5(tol, digits):
    oracle = zeta_reference(7, digits)
    formula = zeta_known_ref(7, tol, digits=digits)
    return _report("eq5", oracle, formula, tol, "exact", "19 pi^7/56700 minus lattice sum for zeta(7).")


def _check_eq9(tol, digits):
    with working(digits):
        s = mpf(2)
        td = t_exact(2, digits).value
        odd_primes = td - mpf(1) / 3  # drop the p = 2 stack
        formula = (odd_primes + 1) / (1 - mpf(2) ** (-s))
    oracle = zeta_reference(2, digits)
    return _report(
        "eq9", oracle, formula, tol, "approximation",
        "The prime-power regrouping omits odd composites with two or more "
        "distinct prime factors (15, 21, 33, ...), so the rearranged form "
        "undershoots zeta(2) by ~0.02; the gap is quantified by eq16.",
    )


def _check_eq10(tol, digits):
    formula = euler_product(2, 10**6, digits)
    oracle = zeta_reference(2, digits)
    return _report(
        "eq10", oracle, formula, tol, "approximation",
        "Euler product truncated at 1e6 is ~1.1e-7 short of zeta(2), "
        "~7e-8 relative; the deviation shrinks monotonically with the prime "
        "bound (exact in the limit).",
    )


def _check_eq11_f2(tol, digits):
    formula = zeta_odd_closed(3, 2, digits)
    oracle = zeta_reference(7, digits)
    return _report(
        "eq11_f2", oracle, formula, tol, "approximation",
        "The linking ratio is not exactly 2 at finite s; with f = 2 the "
        "solved zeta(2s+1) carries an error that decays ~9x per step "
        "(representative point 2s+1 = 7).",
    )


def _check_eq13(tol, digits):
    formula = zeta_odd_prime(1, 2, digits=digits)
    oracle = zeta_reference(3, digits)
    return _report(
        "eq13", oracle, formula, tol, "approximation",
        "With true prime tails the f = 2 formula gives 1.1576 for zeta(3), "
        "not the 1.21992 of the published table: that table is only "
        "reproducible with the closed-form t on both sides.",
    )


def _summed_tail(arg, tol, digits: int, caller: str) -> mpf:
    """t(arg) by the direct prime sum, or ``AccuracyError`` naming
    ``caller`` when the prime budget cannot meet ``tol``."""
    td = t_direct(arg, tol, digits=digits)
    if not td.converged:
        raise AccuracyError(
            f"{caller}: the direct prime sum t({arg}) stops at a tail "
            f"bound of {mp.nstr(td.trunc_estimate, 3)} > tol "
            f"{mp.nstr(as_mpf(tol, digits), 3)} (prime budget spent)",
            achieved=td.trunc_estimate,
        )
    return td.value


def _check_eq16(tol, digits):
    with working(digits):
        formula = t_closed(2, digits)
        oracle = _summed_tail(2, _PRIME_TAIL_TOL, digits, "forensics eq16")
    return _report(
        "eq16", oracle, formula, tol, "approximation",
        "t_closed - t_direct at s = 2 equals the sum of m^(-2) over odd "
        "non-prime-powers m >= 15 (verified to 1e-6 by enumeration).",
    )


def _eq21_printed(s: int, f, digits):
    # Literal transcription of the printed closed form (mixed 2^s powers).
    with working(digits):
        f = as_mpf(f, digits)
        z2s = zeta_even_closed(2 * s, digits)
        p = mpf(2) ** s
        inner = ((p - 1) / p + (1 / z2s) * (2 - p) / (p - 1)) / f - 1 + 1 / (2 * p)
        return (2 - 2 * p) / ((2 * p - 1) * inner)


def _check_eq21(tol, digits):
    printed = _eq21_printed(1, 2, digits)
    canonical = zeta_odd_closed(1, 2, digits)
    return _report(
        "eq21", canonical, printed, tol, "suspected_typo",
        "The printed solved form mixes 2^s and 2^(2s) powers: at s = 1, "
        "f = 2 it yields 4/3, not the 1.2199 of its own results table; "
        "the canonical re-derivation from the linking relation does.",
    )


def _eq22_printed(s: int, f, digits):
    with working(digits):
        f = as_mpf(f, digits)
        b2s = as_mpf(bernoulli(2 * s), digits)
        p = mpf(2) ** (2 * s)
        num = f * 2 * p * (1 - p)
        den_left = (
            4 * mp.factorial(2 * s) * (1 - p / 2)
            / ((-1) ** (s + 1) * b2s * mp.pi ** (2 * s) * (p / 2))
        )
        den = (2 * p - 1) * (den_left + (2 * p * (1 - f) + f - 2) / 2)
        return num / den


def _check_eq22(tol, digits):
    printed = _eq22_printed(1, 2, digits)
    canonical = zeta_odd_closed(1, 2, digits)
    return _report(
        "eq22", canonical, printed, tol, "suspected_typo",
        "Bernoulli-substituted variant of eq21 inherits the mangled "
        "powers: 1.0661 at s = 1, f = 2 instead of 1.2199.",
    )


def _eq23_printed(m: int, digits):
    # Printed second sum: [(2^(2n-2m) - 1) - (pi^2)^n zeta(2m-2n+1)] / (2n+1)!
    with working(digits):
        first = _eq23_head(m, digits, None)
        second = mpf(0)
        for j in range(1, m):
            second += (
                (mpf(2) ** (2 * j - 2 * m) - 1)
                - mp.pi ** (2 * j) * zeta_reference(2 * m - 2 * j + 1, digits)
            ) / mp.factorial(2 * j + 1)
        return first + second / (1 - mpf(2) ** (-2 * m))


def _check_eq23(tol, digits):
    printed = _eq23_printed(2, digits)
    oracle = zeta_reference(5, digits)
    return _report(
        "eq23", oracle, printed, tol, "suspected_typo",
        "The finite sum prints '(2^(2n-2m)-1) - (pi^2)^n zeta(...)'; read "
        "as a product with (-pi^2)^n the series hits the oracle "
        "(zeta_odd_literature('eq23') implements that reading).",
    )


def _eq24_printed(n: int, digits):
    # Printed bracket placement: the odd-zeta sum sits outside the prefactor.
    with working(digits):
        lower = _lit_levels(n - 1, "eq24", digits, None)
        pref, ksum, jsum, _ = _lit_parts(n, "eq24", lower, [], digits, None)
        return pref * (mp.log(2) + ksum) + mp.factorial(2 * n) * jsum


def _check_eq24(tol, digits):
    printed = _eq24_printed(2, digits)
    oracle = zeta_reference(5, digits)
    return _report(
        "eq24", oracle, printed, tol, "suspected_typo",
        "With the finite odd-zeta sum outside the prefactored parenthesis "
        "(as printed) n = 2 gives -2.355; moved inside, the series matches "
        "the oracle to full precision.",
    )


def _check_eq25(tol, digits):
    formula = zeta_odd_literature(2, "eq25", tol, digits=digits)
    oracle = zeta_reference(5, digits)
    return _report(
        "eq25", oracle, formula, tol, "exact",
        "Base-3 series with Hurwitz zeta(2j, 1/3) terms: correct as printed.",
    )


def _check_eq26(tol, digits):
    with working(digits):
        # printed: no factor 2 on the even-zeta series (n = 1, so jsum is empty)
        pref, ksum, _, hsum = _lit_parts(1, "eq26", [], _lit_numerators(1, "eq26", digits),
                                         digits, None)
        printed = pref * (mp.log(2) + ksum - mp.factorial(2) * hsum)
    oracle = zeta_reference(3, digits)
    return _report(
        "eq26", oracle, printed, tol, "suspected_typo",
        "The base-4 variant needs the same factor 2 on its even-zeta "
        "series as the base-3 one; as printed n = 1 gives 1.4542 instead "
        "of zeta(3) (zeta_odd_literature('eq26') carries the factor).",
    )


def _worst_probe(probes):
    """The first probe whose grid supremum most exceeds its bound, and that
    exceedance (zero when every bound holds)."""
    worst, rep = max(((p.grid_sup - p.bound, p) for p in probes), key=lambda m: m[0])
    return rep, max(mpf(0), worst)


def _check_eq31(tol, digits):
    rep, excess = _worst_probe(
        uniform_norm_probe("2i", n, k, digits=digits) for n in (1, 10, 100) for k in (2, 3, 4)
    )
    return _report(
        "eq31", rep.bound, rep.grid_sup, tol, "exact",
        "Grid suprema never exceed the (1/(2n))^k bound over "
        "n in {1,10,100}, k in {2,3,4}; worst case reported (deviation is "
        "the bound exceedance, zero when the bound holds).",
        deviation=excess,
    )


def _check_eq34(tol, digits):
    rep, excess = _worst_probe(uniform_norm_probe("2ii", n, digits=digits) for n in (1, 10, 100))
    return _report(
        "eq34", rep.bound, rep.grid_sup, tol, "exact",
        "Grid suprema meet the 1/((2n+1)(2n+2)) bound exactly at x = 0 "
        "and never exceed it (deviation is the bound exceedance).",
        deviation=excess,
    )


def _check_eq38(tol, digits):
    with working(digits):
        b = mpf(1) / 2
        n = 3
        # printed right side: -pi/sinh(i b pi) * (n^-1)^(-ib) / n
        printed = -mp.pi / mp.sinh(mpc(0, b) * mp.pi) * mpc(n) ** (mpc(0, b)) / n
        # eps -> 0 limit of the standard Mellin closed form
        true = mp.pi * mpc(n) ** (mpc(0, -b) - 1) / mp.sin(mp.pi * mpc(0, -b))
        dev_trend = [float(mellin_check(b, mpf(e), digits=digits)) for e in ("1e-2", "1e-3")]
    return _report(
        "eq38", true, printed, tol, "suspected_typo",
        "The printed closed form carries n^(+ib) and sinh(i b pi) where "
        "the Mellin formula has n^(-ib) and -i sinh(pi b); the damped "
        f"integral matches the standard form (relative deviations {dev_trend[0]:.1e} "
        f"at eps=1e-2, {dev_trend[1]:.1e} at eps=1e-3).",
    )


def _digamma_gap(x, digits):
    """The gap read as two digamma calls.  The audits below check the
    identity gap = -2 sum (-1)^n/(x+n) on this reading; the one-pass
    ``digamma_gap`` sums that very series and would make them circular."""
    return digamma(x / 2 + 1, digits) - digamma((x + 1) / 2, digits)


def _gap_identity_sides(x, digits):
    """(alt, gap) at the caller's precision: alt = sum (-1)^(n-1)/(x+n),
    one acceleration of the order ``numerics._accel_plan`` gives for the
    working floor 10^-(digits+GUARD_DIGITS), and the gap read as two
    digamma calls.  The corrected identity reads alt = gap/2."""
    order, _ = _accel_plan(mpf(10) ** (-(digits + GUARD_DIGITS)))
    alt = accelerate_alternating(lambda n: 1 / (x + n), order, digits=digits).value
    return alt, _digamma_gap(x, digits)


def _hurwitz_expansion(x, K: int, digits: int) -> mpf:
    """2 sum_{k=2}^{K} (-1/2)^k zeta(k, (x+1)/2) at ``working(digits)``,
    the K - 1 Hurwitz values from one ``numerics._em_orders`` pass, each
    the value ``hurwitz_zeta(k, (x+1)/2, digits=digits)`` returns.  For
    x > 0 its gap from ``_digamma_gap`` decays like the first omitted
    k-term; at x = 0 the expansion sits on its convergence boundary and
    the partial sums oscillate with O(1) amplitude instead."""
    orders = range(2, K + 1)
    total = mpf(0)
    for k, z in zip(orders, _em_orders(orders, (x + 1) / 2, digits)):
        total += mp.ldexp(-z if k % 2 else z, -k)  # (-1/2)^k z, exactly
    return 2 * total


def _check_eq42(tol, digits):
    with working(digits):
        x = mpf(1)
        alt, gap = _gap_identity_sides(x, digits)
        printed_rhs = gap / 2
        lhs = -alt / x  # printed left side: sum (-1)^n x^(-1)/(x+n)
        residual = abs(printed_rhs - alt)  # the corrected identity's residual
    return _report(
        "eq42", lhs, printed_rhs, tol, "suspected_typo",
        "As printed the identity is off by a sign and a factor 1/x; the "
        "corrected form sum (-1)^n/(x+n) = -(1/2)(Psi(x/2+1)-Psi((x+1)/2)) "
        f"holds with residual {mp.nstr(residual, 3)} at x = 1.",
    )


def _check_eq49(tol, digits):
    with working(digits):
        K = int(3.4 * (-mp.log10(tol))) + 8
        gap = _digamma_gap(mpf(1), digits)
        expansion = _hurwitz_expansion(mpf(1), K, digits)
    return _report(
        "eq49", gap, gap + abs(gap - expansion), tol, "exact",
        "Double expansion of the digamma gap converges for x > 0 (checked "
        "at x = 1); at x = 0 it sits on its convergence boundary and the "
        "partial sums oscillate with O(1) amplitude instead of converging.",
    )


def _check_eq52(tol, digits):
    flat = zeta_line_one_flat(1, digits=digits)
    oracle = zeta_line_one(1, mpf("1e-12"), digits=digits)
    return _report(
        "eq52", oracle.value, flat.value, tol, "suspected_typo",
        "The 'subtle factor of n' cancellation is not value-preserving: "
        "the Abel-regularized flat series equals "
        "(1-2^(1-ib)) zeta(ib)/(1-2^(-ib)), which at b = 1 differs from "
        "zeta(1+i) by ~0.30 in modulus.",
    )


_REGISTRY: Dict[str, Callable] = {
    "eq2": _check_eq2,
    "eq3": _check_eq3,
    "eq4": _check_eq4,
    "zeta5": _check_zeta5,
    "eq5": _check_eq5,
    "eq9": _check_eq9,
    "eq10": _check_eq10,
    "eq11_f2": _check_eq11_f2,
    "eq13": _check_eq13,
    "eq16": _check_eq16,
    "eq21": _check_eq21,
    "eq22": _check_eq22,
    "eq23": _check_eq23,
    "eq24": _check_eq24,
    "eq25": _check_eq25,
    "eq26": _check_eq26,
    "eq31": _check_eq31,
    "eq34": _check_eq34,
    "eq38": _check_eq38,
    "eq42": _check_eq42,
    "eq49": _check_eq49,
    "eq52": _check_eq52,
}

FORMULA_IDS = tuple(_REGISTRY)


def forensics(
    formula_set: List[str],
    tol=1e-30,
    digits: int = DEFAULT_DIGITS,
) -> List[ForensicsReport]:
    """Run the requested audits; reports come back in registry order."""
    if isinstance(formula_set, str):
        raise UsageError(
            f"formula_set must be a list of ids from FORMULA_IDS, not the string {formula_set!r}"
        )
    digits = check_digits(digits)
    with working(digits):
        tol = as_mpf(tol, digits)
    unknown = [fid for fid in formula_set if fid not in _REGISTRY]
    if unknown:
        raise UsageError(f"unknown formula id(s): {', '.join(unknown)}")
    wanted = set(formula_set)
    # keep the report-assembly arithmetic (mpc coercion, deviations) at full
    # working precision, not whatever ambient dps the caller happens to have
    with working(digits):
        return [fn(tol, digits) for fid, fn in _REGISTRY.items() if fid in wanted]
