import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

from zetakit.bern import Convention, bernoulli
import zetakit.numerics as nm
from zetakit import forensics as fz, oddzeta as oz, zetacore
from zetakit.errors import AccuracyError, ConfigError, DomainError, PoleError
from zetakit.zetacore import (
    euler_product,
    zeta_dirichlet,
    zeta_eta_real,
    zeta_even_closed,
    zeta_even_recurrence,
    zeta_negative_int,
    zeta_oracle,
    zeta_reference,
)
from zetakit.lineone import zeta_line_one
from zetakit.primes import primes_array_up_to

from test_lineone import _count_calls, _count_everywhere


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: B_0..B_n by the Akiyama-Tanigawa transform
    (which lands on the B1 = +1/2 convention)."""
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    return out


def test_bernoulli_against_recurrence_oracle():
    oracle = bernoulli_akiyama_tanigawa(60)
    for n in range(61):
        assert bernoulli(n, Convention.B1_PLUS_HALF) == oracle[n]
    # conventions differ only at n = 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(1, Convention.B1_PLUS_HALF) == Fraction(1, 2)
    for n in (0, 2, 4):
        assert bernoulli(n) == bernoulli(n, Convention.B1_PLUS_HALF)


def test_bernoulli_basics():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)


def test_bernoulli_odd_vanish():
    for m in range(1, 21):
        assert bernoulli(2 * m + 1) == 0


def test_dirichlet_values_and_errors():
    r = zeta_dirichlet(2, mpf("1e-8"))
    assert r.converged
    assert abs(r.value - mp.pi ** 2 / 6) <= r.trunc_estimate
    r = zeta_dirichlet(4, mpf("1e-10"))
    assert abs(r.value - mp.pi ** 4 / 90) <= r.trunc_estimate
    with pytest.raises(PoleError):
        zeta_dirichlet(1, mpf("1e-8"))
    with pytest.raises(DomainError):
        zeta_dirichlet(mpf("0.5"), mpf("1e-8"))


def test_dirichlet_negative_tol_is_a_domain_error_before_any_term(monkeypatch):
    # a negative tol has no logarithm to plan from: refused before any term
    # is summed; a tol of 0 is still refused as past the term budget
    sums = _count_everywhere(monkeypatch, "_inverse_powers")
    with pytest.raises(DomainError, match="tol must be >= 0"):
        zeta_dirichlet(2, -1)
    with pytest.raises(AccuracyError, match="budget of 2,000,000 terms"):
        zeta_dirichlet(2, 0)
    assert sums == []


def test_dirichlet_budget_exhaustion_is_honest(monkeypatch):
    # 1e-30 at s = 2 needs about 1e15 terms: refused before any term is
    # summed, naming the budget and the bound it reaches, 2e6^-2 = 2.5e-13
    sums = _count_everywhere(monkeypatch, "_inverse_powers")
    with pytest.raises(AccuracyError, match="budget of 2,000,000 terms") as err:
        zeta_dirichlet(2, mpf("1e-30"))
    assert err.value.achieved == mpf(2_000_000) ** -2
    assert sums == []
    # at a budget of 1,000 terms, a tol just above 1000^-s is summed within
    # it and meets its bound; one just below is refused
    monkeypatch.setattr(zetacore, "_DIRICHLET_MAX_TERMS", 1000)
    for s in (2, mpf("2.5")):
        r = zeta_dirichlet(s, mpf(1000) ** -s * mpf("1.001"))
        assert r.converged and r.terms_used <= 1000
        assert abs(r.value - mp.zeta(s)) <= r.trunc_estimate
        with pytest.raises(AccuracyError, match="budget of 1,000 terms"):
            zeta_dirichlet(s, mpf(1000) ** -s * mpf("0.999"))


@pytest.mark.parametrize("s, tol", [("2.5", "1e-10"), ("1.5", "1e-7"), ("7.25", "1e-30")])
def test_dirichlet_non_integer_against_mpmath(s, tol):
    s = mpf(s)
    r = zeta_dirichlet(s, mpf(tol))
    assert r.converged
    assert abs(r.value - mp.zeta(s)) <= r.trunc_estimate <= mpf(tol)


def _assert_euler_product_matches_fprod(s, bound, digits):
    # the same finite product, multiplied out by mpmath 20 digits past the
    # working precision
    s = mpf(s)
    got = euler_product(s, bound, digits=digits)
    with mp.workdps(digits + 20):
        want = mp.fprod(1 / (1 - mpf(p) ** -s) for p in primes_array_up_to(bound).tolist())
        assert abs(got - want) <= mpf(10) ** -digits


@pytest.mark.parametrize("s, bound", [
    ("2", 100_000), ("2.5", 100_000), ("1.05", 20_000), ("7", 1_000), ("30.5", 1_000),
    # exact blocks only, 2-32 primes each
    ("3", 200_000),
    # blocks below 2^(63/s), then the stream: up to p = 55_103, the last
    # prime whose p^4 fits in int64, p < 512 at s = 7 and p < 128 at s = 9
    ("4", 60_000), ("7", 100_000), ("9", 1_000),
    # past s = 9 an integer s is all stream
    ("12", 1_000),
    # the stream's early stop once 2^wp/(p^30 - 1) is zero
    ("30", 100_000),
    # one prime, then two, each in a single block
    ("2", 2), ("2", 3),
])
def test_euler_product_against_mpmath_fprod(s, bound):
    _assert_euler_product_matches_fprod(s, bound, 50)


@pytest.mark.parametrize("digits", [15, 100])
def test_euler_product_against_mpmath_fprod_at_digits(digits):
    _assert_euler_product_matches_fprod("2", 100_000, digits)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=1_000),
       st.integers(min_value=15, max_value=80))
@settings(max_examples=40, deadline=None)
def test_euler_product_against_exact_fraction(s, bound, digits):
    # the finite product as an exact rational, with no mpmath in the reference
    want = Fraction(1)
    for p in primes_array_up_to(bound).tolist():
        want *= Fraction(p**s, p**s - 1)
    man, exp = euler_product(s, bound, digits).man_exp
    got = man * Fraction(2) ** exp
    assert abs(got - want) <= Fraction(1, 10**digits)


def test_eta_real_values():
    r = zeta_eta_real(2, mpf("1e-20"))
    assert abs(r.value - mp.pi ** 2 / 6) <= mpf("1e-19")
    # zeta(1/2) against the independent Euler-Maclaurin oracle
    r = zeta_eta_real(mpf("0.5"), mpf("1e-30"))
    oracle = zeta_oracle(mpf("0.5"), mpf("1e-35")).real
    assert abs(r.value - oracle) <= mpf("1e-29")
    assert abs(r.value - mpf("-1.4603545088")) < mpf("1e-10")
    d3 = zeta_dirichlet(3, mpf("1e-10"))
    r3 = zeta_eta_real(3, mpf("1e-20"))
    assert abs(r3.value - d3.value) <= d3.trunc_estimate + mpf("1e-19")


@given(st.integers(min_value=50, max_value=30_000), st.integers(min_value=15, max_value=60),
       st.data())
@settings(max_examples=40, deadline=None)
def test_eta_real_within_its_estimate_of_mpmath(milli_s, digits, data):
    # s in [0.05, 30] and tol from 1e-6 to 10^-(digits-5); whenever the eta
    # route claims convergence its estimate bounds the miss and meets tol
    assume(abs(milli_s - 1000) >= 5)
    e = data.draw(st.integers(min_value=6, max_value=digits - 5))
    with mp.workdps(digits + 20):
        s = mpf(milli_s) / 1000
        tol = mpf(10) ** -e
        r = zeta_eta_real(s, tol, digits)
        if r.converged:
            assert abs(r.value - mp.zeta(s)) <= r.trunc_estimate <= tol


def test_eta_real_errors():
    with pytest.raises(PoleError):
        zeta_eta_real(1, mpf("1e-8"))
    with pytest.raises(DomainError):
        zeta_eta_real(-1, mpf("1e-8"))
    # prefactor degeneracy just off the pole: |1 - 2^(1-s)| ~ ln2 * 1e-21
    with mp.workdps(60):
        with pytest.raises(PoleError):
            zeta_eta_real(1 + mpf("1e-21"), mpf("1e-8"))


def test_euler_product_values():
    assert abs(euler_product(2, 2) - mpf(4) / 3) < mpf("1e-48")
    assert abs(euler_product(2, 10 ** 5) - mp.pi ** 2 / 6) < mpf("1e-5")
    d3 = zeta_dirichlet(3, mpf("1e-11"))
    assert abs(euler_product(3, 10 ** 5) - d3.value) < mpf("1e-10")
    with pytest.raises(DomainError):
        euler_product(1, 100)
    with pytest.raises(DomainError):
        euler_product(2, 1)


def test_euler_product_bound_must_be_an_integer():
    with pytest.raises(DomainError, match="prime_bound must be an integer"):
        euler_product(2, 1e5)
    with pytest.raises(DomainError, match="prime_bound must be an integer"):
        euler_product(2, mpf(1000))
    # numpy integers are integers
    assert euler_product(2, np.int64(1_000)) == euler_product(2, 1_000)


def test_even_closed_values():
    assert abs(zeta_even_closed(2) - mp.pi ** 2 / 6) < mpf("1e-49")
    assert abs(zeta_even_closed(4) - mp.pi ** 4 / 90) < mpf("1e-49")
    r = zeta_dirichlet(20, mpf("1e-32"))
    assert abs(zeta_even_closed(20) - r.value) < mpf("1e-30")
    with pytest.raises(DomainError):
        zeta_even_closed(3)
    with pytest.raises(DomainError):
        zeta_even_closed(0)


def test_negative_int_values():
    assert zeta_negative_int(1) == Fraction(-1, 12)
    assert zeta_negative_int(2) == 0
    assert zeta_negative_int(0) == Fraction(-1, 2)
    assert zeta_negative_int(3) == Fraction(1, 120)
    for m in range(1, 11):
        assert zeta_negative_int(2 * m) == 0
    with pytest.raises(DomainError):
        zeta_negative_int(-1)


def test_even_recurrence_matches_closed_form():
    assert abs(zeta_even_recurrence(2) - mp.pi ** 2 / 6) < mpf("1e-49")
    assert abs(zeta_even_recurrence(4) - mp.pi ** 4 / 90) < mpf("1e-45")
    for two_k in range(2, 41, 2):
        d = abs(zeta_even_recurrence(two_k) - zeta_even_closed(two_k))
        assert d <= mpf("1e-30"), (two_k, d)


def test_oracle_values_and_errors():
    assert abs(zeta_oracle(2, mpf("1e-40")) - mp.pi ** 2 / 6) < mpf("1e-39")
    d3 = zeta_dirichlet(3, mpf("1e-10"))
    assert abs(zeta_oracle(3, mpf("1e-20")).real - d3.value) <= d3.trunc_estimate + mpf("1e-19")
    with pytest.raises(PoleError):
        zeta_oracle(1, mpf("1e-10"))
    with pytest.raises(DomainError):
        zeta_oracle(mpc(-1, 1), mpf("1e-10"))


def test_oracle_agrees_with_line_one_eta():
    z1 = zeta_oracle(mpc(1, 1), mpf("1e-18"))
    z2 = zeta_line_one(1, mpf("1e-18")).value
    assert abs(z1 - z2) < mpf("1e-15")


@pytest.mark.parametrize("s", [2, 3, 4, 6, 11])
def test_method_agreement(s):
    # each route carries its own honest error budget; agreement is checked
    # inside the summed budgets plus the 1e-12 cross-method allowance
    dir_tol = mpf("1e-9") if s == 2 else mpf("1e-11")
    r_dir = zeta_dirichlet(s, dir_tol)
    r_eta = zeta_eta_real(s, mpf("1e-13"))
    oracle = zeta_oracle(s, mpf("1e-13")).real
    # integer-tail bound on the Euler-product truncation (no prime density)
    ep = euler_product(s, 10 ** 6)
    ep_budget = mpf(10 ** 6) ** (1 - s) / (s - 1)
    vals = [
        (r_dir.value, r_dir.trunc_estimate),
        (r_eta.value, mpf("1e-13")),
        (oracle, mpf("1e-13")),
        (ep, ep_budget),
    ]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            vi, bi = vals[i]
            vj, bj = vals[j]
            assert abs(vi - vj) <= bi + bj + mpf("1e-12")


# mpmath's own zeta is an outside oracle; arguments are built at the test
# precision (conftest's 60 digits) so both sides see the same input.
@pytest.mark.parametrize("re, im", [
    ("2", "0"), ("3.5", "0"), ("1", "1"), ("1", "5.041667"), ("0.5", "14.134725"),
])
def test_oracle_matches_mpmath_zeta(re, im):
    s = mpc(mpf(re), mpf(im))
    tol = mpf("1e-30")
    assert abs(zeta_oracle(s, tol, digits=50) - mp.zeta(s)) <= tol


_ORACLE_ARGS = [(str(n), "0") for n in range(2, 16)] + [
    (x, "0") for x in ("2.5", "3.7", "6.25", "0.5", "1.5")
] + [
    ("1", b) for b in ("0.5", "1", "5", "14.134725")
]


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_oracle_carries_every_working_digit(digits):
    # Arguments are built at the oracle's precision: an ordinate parsed at
    # 15 digits is a different point, and its 1e-17 shift reads as a miss.
    # tol is loose on purpose; the value still holds past the printed digits.
    with mp.workdps(digits + 20):
        for re, im in _ORACLE_ARGS:
            s = mpc(mpf(re), mpf(im))
            z = zeta_oracle(s, mpf(10) ** -(digits - 20), digits=digits)
            assert abs(z - mp.zeta(s)) <= mpf(10) ** -(digits + 2), (re, im)


@pytest.mark.parametrize("s, tol", [
    (3, mpf(10) ** -70),  # below the 60-digit working floor at 50 digits
    (mpc("0.5", "1e7"), mpf("1e-20")),  # needs a shift past the budget
])
def test_oracle_fails_fast_without_summing(s, tol, monkeypatch):
    # the evaluator reads its coefficient table first, after the plan and
    # before the direct block: a call here means the summing step began
    calls = []

    def no_sum(*args):
        calls.append(args)
        raise AssertionError("an Euler-Maclaurin sum ran")

    monkeypatch.setattr(nm, "_em_coeffs", no_sum)
    with pytest.raises(AccuracyError):
        zeta_oracle(s, tol, digits=50)
    assert calls == []


def plan_full_loop(s, a0, target):
    """The Euler-Maclaurin plan for ``target`` min(1, a0^-sigma) searched
    over every M up to the order cap, with no early exit: the reference the
    planner must match.  y = log((a0 + N)/c), c = max(a0, 1), is solved
    for, as in the planner."""
    s, a0 = complex(s), float(a0)
    log_target = math.log(float(target))
    log_c = math.log(max(a0, 1.0))
    log_max = math.log(nm._EM_MAX_SHIFT + a0)
    log_poch = 0.0
    best = None
    for M in range(1, nm._em_max_order(-log_target / math.log(10)) + 1):
        for j in (2 * M - 2, 2 * M - 1):
            log_poch += math.log(max(abs(s + j), 1e-300))
        e = s.real + 2 * M - 1
        if e <= 0:
            continue
        y = (
            math.log(4) + log_poch - 2 * M * math.log(2 * math.pi) - math.log(e) - log_target
            - (2 * M - 1) * log_c
        ) / e
        if y + log_c > log_max:
            continue
        N = max(0, math.ceil(math.exp(y + log_c) - a0))
        if best is None or N + M < sum(best):
            best = (N, M)
    if best is None:
        raise AccuracyError("no plan")
    return best


_PLAN_S = [mpf(x) for x in ("0", "0.25", "0.5", "1.5", "2", "3", "3.5", "6", "20", "60",
                            "110", "200")] + [
    mpc(re, im) for re, im in (("1", "0.5"), ("1", "5"), ("1", "40"), ("0.5", "14.134725"),
                               ("0.25", "30"), ("1", "400"))
]


@pytest.mark.parametrize("s", _PLAN_S, ids=str)
def test_em_plan_early_exit_keeps_the_full_loop_plan(s):
    for a in (mpf(1), mpf(1) / 3, mpf(1) / 4, mpf("0.7"), mpf("2.5")):
        for target in [mpf(10) ** -(d + 10) for d in (15, 30, 50, 100, 120)] + [mpf("1e-6")]:
            assert nm.euler_maclaurin_plan(s, a, target) == plan_full_loop(s, a, target), (a, target)
    # a plan past the shift budget raises with or without the early exit
    for plan in (nm.euler_maclaurin_plan, plan_full_loop):
        with pytest.raises(AccuracyError):
            plan(mpc("0.5", "1e7"), 1, mpf("1e-20"))


# the (a, target) grid of test_em_plan_early_exit_keeps_the_full_loop_plan
_PLAN_GRID = [
    (a, target)
    for a in (mpf(1), mpf(1) / 3, mpf(1) / 4, mpf("0.7"), mpf("2.5"))
    for target in [mpf(10) ** -(d + 10) for d in (15, 30, 50, 100, 120)] + [mpf("1e-6")]
]


@pytest.mark.parametrize("s", _PLAN_S, ids=str)
def test_em_plan_memo_hit_is_the_search(s):
    # a second call is a hit on (complex(s), float(a), log(target)) and
    # returns the tuple the search gives on that key
    for a, target in _PLAN_GRID:
        first = nm.euler_maclaurin_plan(s, a, target)
        hits = nm._plan.cache_info().hits
        assert nm.euler_maclaurin_plan(s, a, target) is first
        assert nm._plan.cache_info().hits == hits + 1
        key = (complex(s), float(a), math.log(float(target)))
        assert first == nm._plan.__wrapped__(*key) == plan_full_loop(s, a, target), (a, target)


def test_em_plan_memo_shares_one_entry_per_float_log():
    nm._plan.cache_clear()
    t1 = mpf(10) ** -60
    t2 = t1 * (1 + mpf(2) ** -100)
    assert t1 != t2 and math.log(float(t1)) == math.log(float(t2))
    plan = nm.euler_maclaurin_plan(3, 1, t1)
    assert nm.euler_maclaurin_plan(mpf(3), mpf(1), t2) is plan
    info = nm._plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_em_plan_memo_keeps_no_error():
    # lru_cache stores no exception: an unplannable s searches and raises
    # on every call
    before = nm._plan.cache_info()
    for _ in range(2):
        with pytest.raises(AccuracyError):
            nm.euler_maclaurin_plan(mpc("0.5", "1e7"), 1, mpf("1e-20"))
    after = nm._plan.cache_info()
    assert (after.misses, after.hits) == (before.misses + 2, before.hits)


@pytest.mark.parametrize("target", [mpf("4.2764e-324"), mpf("1e-400")], ids=str)
def test_em_plan_keys_a_target_below_the_float_range_through_mp_log(target):
    # a subnormal float has lost its relative precision and 1e-400 is no
    # float at all: both key on log(target) taken in mpf
    plan = nm.euler_maclaurin_plan(164, 20, target)
    hits = nm._plan.cache_info().hits
    assert nm._plan(complex(164), 20.0, float(mp.log(target))) is plan
    assert nm._plan.cache_info().hits == hits + 1


def johansson_bound(s, a, N, M):
    """Johansson's bound on the remainder of the plan (N, M) at s, a, in
    mpf."""
    x = a + N
    sigma = mp.re(s)
    return (4 * abs(mp.rf(s, 2 * M)) / (2 * mp.pi) ** (2 * M)
            * x ** (1 - sigma - 2 * M) / (sigma + 2 * M - 1))


@pytest.mark.parametrize("s, alpha, digits", [
    (164, 20, 100),  # target 4.28e-324 absolute, a subnormal float: 5e-324
    (400, 20, 50),  # target 1e-580 absolute, below every float
])
def test_hurwitz_plan_meets_a_target_below_the_float_range(monkeypatch, s, alpha, digits):
    # the plan's target is relative to alpha^-s; the absolute remainder it
    # allows lies below the float range, and the bound meets it
    plans = _count_calls(monkeypatch, nm, "euler_maclaurin_plan")
    nm.hurwitz_zeta(s, alpha, digits=digits)
    ((s_, a, target), (N, M)), = plans
    absolute = target * a ** -s_
    assert float(absolute) < sys.float_info.min
    assert johansson_bound(s_, a, N, M) <= absolute, (N, M)


@pytest.mark.parametrize("digits", [15, 50, 100])
@pytest.mark.parametrize("sigma", ["3.5", "50", "1e17", "1e300"])
@pytest.mark.parametrize("alpha", ["1.5", "2.5", "775.75"])
def test_hurwitz_plan_relative_to_alpha_fits_the_one_table(monkeypatch, alpha, sigma, digits):
    # every plan at a > 1 meets the working floor times a^-sigma, and asks
    # for no more corrections than the one coefficient table of its digits
    plans = _count_calls(monkeypatch, nm, "euler_maclaurin_plan")
    nm.hurwitz_zeta(mpf(sigma), mpf(alpha), digits=digits)
    ((s_, a, target), (N, M)), = plans
    assert target == nm._em_floor(digits)
    with mp.workdps(digits + 20):
        assert johansson_bound(s_, a, N, M) <= target * a ** -mpf(s_), (N, M)
    assert M <= len(nm._em_coeffs(digits)), (N, M)


@pytest.mark.parametrize("sigma, frac, b", [("1e17", 0, 0), ("3e18", 0, 0), ("3e18", 0.5, 0),
                                             ("3e18", 0, 0.5), ("1e19", 0, 0), ("1e20", 0, 0),
                                             ("1e300", 0, 0)])
def test_plan_at_a_huge_real_part_meets_its_bound(monkeypatch, sigma, frac, b):
    # exp(log a) rounds onto a0 = 1 in floats once sigma passes about
    # 3e18; the plan (0, 1) then left a remainder near sigma/pi^2
    plans = _count_calls(monkeypatch, nm, "euler_maclaurin_plan")
    with mp.workdps(40):
        s = mpf(sigma) + frac
        s = mpc(s, b) if b else s
    value = zeta_reference(s, digits=30)
    ((s_, a, target), (N, M)), = plans
    assert johansson_bound(s_, a, N, M) <= target, (N, M)
    assert abs(value - 1) <= target


@pytest.mark.parametrize("call", [
    lambda: zeta_reference(mpf("1e400")),
    lambda: zeta_reference(10**400),
    lambda: zeta_oracle(mpc(2, "1e400"), mpf("1e-20")),
    lambda: nm.hurwitz_zeta(3, mpf("1e400")),
    lambda: nm.hurwitz_zeta(mpf("1e400"), 2),
], ids=["reference", "reference-int", "oracle-imag", "hurwitz-shift", "hurwitz-order"])
def test_an_order_or_shift_past_the_float_range_is_a_domain_error(monkeypatch, call):
    # the planner works in floats: outside their range it refuses before
    # any plan or sum, instead of an OverflowError
    searches = _count_everywhere(monkeypatch, "_plan")
    with pytest.raises(DomainError, match="float range"):
        call()
    assert searches == []


def test_eta_route_at_a_huge_whole_s_forms_no_power():
    # p^-k for a whole k past the table's range is 0 or -1 from a shift:
    # the table never forms p^k, which at k = 10^12 fits in no memory, so
    # a fresh process capped at 2 GB returns zeta(10^12) = 1 within seconds
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
        "from mpmath import mpf\n"
        "from zetakit.zetacore import zeta_eta_real\n"
        "r = zeta_eta_real(10**12, mpf('1e-30'))\n"
        "assert abs(r.value - 1) <= r.trunc_estimate, r\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": path})

def test_em_table_past_capacity_is_refused_before_any_bernoulli_number(monkeypatch):
    # 1,475 digits fit the 1,000-correction capacity; one digit more raises
    # before a Bernoulli number is read
    assert nm._em_max_order(1475 + 11) == nm._EM_MAX_CORRECTIONS
    reads = _count_calls(monkeypatch, nm, "bernoulli")
    with pytest.raises(ConfigError, match="exceeds capacity 1000"):
        nm._em_coeffs(1476)
    with pytest.raises(ConfigError, match="exceeds capacity 1000"):
        zeta_oracle(3, mpf("1e-30"), digits=20000)
    assert reads == []


@pytest.mark.parametrize("argv", [
    ["eval", "--s", "3", "--b", "0", "--digits", "20000"],
    ["line1", "--b", "1", "--method", "eta", "--digits", "20000"],
    ["eval", "--method", "even-closed", "--s", "20000"],
], ids=["oracle", "eta", "even-closed"])
def test_cli_refuses_a_table_past_capacity_within_seconds(argv):
    # a fresh process: exit 2 naming the ConfigError, with no traceback,
    # before the table would have been built
    out = _run_cli_within_5s(argv)
    assert out.returncode == 2, out.stderr
    assert "ConfigError" in out.stderr and "Traceback" not in out.stderr, out.stderr


def _run_cli_within_5s(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "zetakit.cli", *argv], capture_output=True,
                          text=True, timeout=5, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("argv", [
    ["eval", "--s", "2.5"],
    ["eval", "--s", "3", "--digits", "20000"],
], ids=["default", "20000-digits"])
def test_cli_refuses_a_dirichlet_plan_past_its_budget_within_seconds(argv):
    # a fresh process: the default method at the default tol 1e-30 plans
    # 1e12 (s = 2.5) or 1e10 (s = 3) terms; exit 2 naming the budget, with
    # no traceback, before any term is summed
    out = _run_cli_within_5s(argv)
    assert out.returncode == 2, out.stderr
    assert "AccuracyError" in out.stderr and "budget" in out.stderr, out.stderr
    assert "Traceback" not in out.stderr, out.stderr


def test_em_coefficient_memo_is_exact():
    # a hit on the fixed-point table returns the bits of a fresh build, and
    # each entry m 2^-e is B_2k/(2k)! rounded down to one unit of m
    for digits in (15, 50, 120):
        table = nm._em_coeffs(digits)
        assert nm._em_coeffs(digits) is table
        assert nm._em_coeffs.__wrapped__(digits) == table
        assert len(table) == nm._em_max_order(digits + 11)
        bits = nm._fixed_point_bits(digits, nm._EM_MAX_SHIFT + len(table))
        for k, (m, e) in enumerate(table, 1):
            exact = bernoulli(2 * k) / math.factorial(2 * k)
            assert Fraction(m, 2 ** e) <= exact < Fraction(m + 1, 2 ** e)
            assert abs(m).bit_length() in (bits, bits + 1)


# Complex s on Re(s) = 1 and in the critical strip, and real s in (-1/2, 16),
# each at 15-120 digits.  The argument is a float, so it is the same point at
# every precision.
_ORACLE_S = st.one_of(
    st.builds(complex, st.just(1.0),
              st.floats(min_value=-40, max_value=40).filter(lambda b: abs(b) >= 0.05)),
    st.builds(complex, st.floats(min_value=0.01, max_value=0.99),
              st.floats(min_value=-40, max_value=40)),
    st.floats(min_value=-0.49, max_value=16).filter(lambda x: abs(x - 1) > 1e-3),
)


@given(_ORACLE_S, st.integers(min_value=15, max_value=120))
@settings(max_examples=40, deadline=None)
def test_oracle_sweep_against_mpmath(s, digits):
    with mp.workdps(digits + 20):
        arg = mpc(s) if isinstance(s, complex) else mpf(s)
        z = zeta_oracle(arg, mpf(10) ** -digits, digits=digits)
        assert abs(z - mp.zeta(arg)) <= mpf(10) ** -(digits + 2), (s, digits)


# ---------------------------------------------------------------------------
# One Euler-Maclaurin pass over a run of integer orders
# ---------------------------------------------------------------------------


def squared_power_em(k, a, digits):
    """zeta(k, a) on the plan of ``euler_maclaurin_plan`` for the working
    floor min(1, a^-k), read another way: at the order's own fraction bits,
    each power (c/(n + a))^k, c = max(a, 1), by squaring its fixed-point
    ratio, and the tail (x/c)^-k (x/(k-1) + 1/2 + S) in mpf at the
    fixed-point precision; times a^-k, taken at 2,000 bits more, when
    a > 1, and rounded once at the caller's precision."""
    N, M = nm.euler_maclaurin_plan(k, a, nm._em_floor(digits))
    coeffs = nm._em_coeffs(digits)
    wp = nm._fixed_point_bits(digits, N + M)
    bits = wp + max(0, -mp.mag(a))
    A = to_fixed(a._mpf_, bits)
    C = A if a > 1 else 1 << bits
    X = (N << bits) + A
    total = sum(nm._fixed_pow((C << bits) // ((n << bits) + A), k, bits) for n in range(N))
    u, S = (k << 2 * bits) // X, 0
    for j in range(1, M + 1):
        if j > 1:
            u = (u * (k + 2 * j - 3) * (k + 2 * j - 2) << 2 * bits) // (X * X)
        m, sh = coeffs[j - 1]
        S += m * u >> sh
    with mp.workprec(wp):
        x = mpf((X, -bits))
        tail = (x / max(a, 1)) ** -k * (x / (k - 1) + mpf((S, -bits)) + mpf(0.5))
    total += to_fixed(tail._mpf_, bits)
    if a <= 1:
        return mpf((total, -bits))
    with mp.workprec(bits + 2000):
        scale = a ** -k
    return mp.fmul(mp.ldexp(mpf(total, prec=total.bit_length()), -bits), scale)


_RUN_SHIFTS = ("1", "1/3", "1/4", "0.3", "1.7", "3")


def _shift(text):
    p, _, q = text.partition("/")
    return mpf(p) / int(q or 1)


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
@pytest.mark.parametrize("shift", _RUN_SHIFTS)
def test_em_orders_equal_single_order_evaluations(digits, shift):
    # one pass over orders 2..120 returns, bit for bit, what one order at a
    # time returns, and what the powers by squaring with an mpf tail give
    orders = range(2, 121)
    with mp.workdps(digits + 10):
        a = _shift(shift)
        values = nm._em_orders(orders, a, digits)
        for k, v in zip(orders, values):
            assert v == nm.hurwitz_zeta(k, a, None, digits), k
            assert v == squared_power_em(k, a, digits), k


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
def test_em_orders_within_their_floor_of_mpmath(digits):
    # each value is the remainder its plan allows, floor min(1, a^-k), plus
    # one rounding at the working precision: within floor |zeta(k, a)|.
    # mpmath reads zeta(k, 3) as zeta(k) - 1 - 2^-k, which cancels k log10(3)
    # digits, so the reference carries those on top of its 20 extra.
    orders = range(2, 121)
    for shift in _RUN_SHIFTS:
        with mp.workdps(digits + 10):
            a = _shift(shift)
            floor = mpf(10) ** -(digits + 10)
            values = nm._em_orders(orders, a, digits)
        for k, v in zip(orders, values):
            with mp.workdps(digits + 30 + max(0, math.ceil(k * math.log10(a)))):
                ref = mp.zeta(k, a)
                assert abs(v - ref) <= floor * ref, (shift, k)


@pytest.mark.parametrize("route", ["eq49", "odd_error_table"])
def test_integer_order_runs_make_one_kernel_pass(monkeypatch, route):
    # eq49 sums zeta(k, 1) for k = 2..K and the odd table zeta(3), zeta(5),
    # ...: each in one pass, with no Hurwitz or oracle call per order
    singles = [_count_everywhere(monkeypatch, name)
               for name in ("hurwitz_zeta", "zeta_oracle", "zeta_reference", "_euler_maclaurin")]
    passes = _count_everywhere(monkeypatch, "_em_orders")
    if route == "eq49":
        fz.forensics(["eq49"], mpf("1e-30"), 50)
        step, first = 1, 2
    else:
        oz.odd_error_table(15, 2, mpf("1e-25"), 50)
        step, first = 2, 3
    assert singles == [[], [], [], []]
    (orders, *_), = passes
    assert list(orders) == list(range(first, orders[-1] + 1, step))
    assert orders[-1] >= (100 if route == "eq49" else 15)


def test_odd_error_table_fails_fast_without_summing(monkeypatch):
    # below the working floor the table raises before its one pass plans or
    # sums any order
    calls = []

    def no_sum(*args):
        calls.append(args)
        raise AssertionError("an Euler-Maclaurin sum ran")

    monkeypatch.setattr(nm, "_em_coeffs", no_sum)
    monkeypatch.setattr(nm, "euler_maclaurin_plan", no_sum)
    with pytest.raises(AccuracyError, match="below the working-precision floor"):
        oz.odd_error_table(15, 2, mpf(10) ** -70, digits=50)
    assert calls == []
