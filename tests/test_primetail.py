import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from zetakit import oddzeta, primetail
from zetakit.errors import DomainError
from zetakit.primes import primes_array_up_to
from zetakit.precision import GUARD_DIGITS, as_mpf, working
from zetakit.primetail import (
    _log1p_fixed,
    _log_zeta_above_head_bound,
    _plan_cutoff,
    _plan_terms,
    _tail_bound,
    _totients,
    t_closed,
    t_direct,
    t_exact,
)
from zetakit.zetacore import zeta_dirichlet

from conftest import run_fresh
from test_lineone import _count_everywhere


def brute_t(s: int, bound: int):
    """Independent float64 evaluation of the prime sum with its tail bound."""
    p = primes_array_up_to(bound).astype(np.float64)
    value = float(np.sum(1.0 / (p ** s - 1.0)))
    tail = float(mpf(bound) ** (1 - s) / ((s - 1) * (1 - mpf(bound) ** (-s))))
    return value, tail


def test_t_direct_matches_brute_enumeration_s2():
    r = t_direct(2, mpf("1e-6"))
    assert r.converged
    brute, brute_tail = brute_t(2, 2_000_000)
    # both are partial sums below their bounds of the same limit
    assert abs(r.value - brute) <= r.trunc_estimate + brute_tail + mpf("1e-9")
    assert abs(r.value - mpf("0.5516932")) < mpf("1e-6")


def test_t_direct_matches_brute_enumeration_s3():
    r = t_direct(3, mpf("1e-9"))
    brute, brute_tail = brute_t(3, 500_000)
    assert abs(r.value - brute) <= r.trunc_estimate + brute_tail + mpf("1e-12")
    assert abs(r.value - mpf("0.1941181")) < mpf("1e-6")


def test_t_direct_large_s_dominated_by_two():
    r = t_direct(30, mpf("1e-25"))
    assert abs(r.value - mpf(2) ** -30) <= 3 * mpf(3) ** -30


def odd_nonprimepower_sum(s, limit: int):
    """Enumerated ``sum m^(-s)`` over odd non-prime-powers 15 <= m < limit.

    An independent sieve-based enumeration (float64 accumulation, pairwise
    summation) that audits the gap between the two t(s) routes.  Returns
    ``(value, tail_bound)`` where the bound covers the omitted m >= limit.
    """
    sf = float(s)
    is_pp = np.zeros(limit, dtype=bool)  # prime or prime power
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.nonzero(sieve)[0]
    is_pp[primes] = True
    for p in primes.tolist():
        q = p * p
        while q < limit:
            is_pp[q] = True
            q *= p
    m = np.arange(15, limit, 2, dtype=np.int64)
    m = m[~is_pp[m]]
    value = float(np.sum(m.astype(np.float64) ** (-sf)))
    # odd integers have density 1/2; integral bound on the tail
    tail = mpf(0.5) * mpf(limit) ** (1 - sf) / (sf - 1)
    return mpf(value), tail


def primezeta_tail(s, dps):
    """t(s) = sum_{m >= 1} P(ms) from mpmath's prime zeta function."""
    with mp.workdps(dps):
        total = mpf(0)
        m = 0
        while True:
            m += 1
            term = mp.primezeta(m * s)
            total += term
            if term < mpf(10) ** (-dps - 2):
                return total


@given(
    st.one_of(st.integers(min_value=2, max_value=6),
              st.floats(min_value=2, max_value=6)),
    st.integers(min_value=4, max_value=6),
)
@settings(max_examples=12, deadline=None)
def test_t_direct_is_an_honest_partial_sum(s, k):
    # a partial sum of positive terms: short of t(s) by no more than the
    # claimed tail bound, compared at 20 digits past the working precision
    s = mpf(s)
    r = t_direct(s, mpf(10) ** -k, digits=30)
    assert r.converged and r.trunc_estimate <= mpf(10) ** -k
    with mp.workdps(50):
        short = primezeta_tail(s, 50) - r.value
    assert 0 <= short <= r.trunc_estimate


def test_t_direct_cap_hit_is_honest(monkeypatch):
    monkeypatch.setattr(primetail, "_DEFAULT_BOUND_CAP", 200_000)
    r = t_direct(2, mpf("1e-8"))
    assert not r.converged
    assert r.trunc_estimate > mpf("1e-8")
    assert r.terms_used == primes_array_up_to(200_000).size
    short = primezeta_tail(mpf(2), 70) - r.value
    assert 0 <= short <= r.trunc_estimate


@pytest.mark.parametrize("s, tol", [
    ("2.25", "1e-6"), ("2.6", "1e-6"), ("2.99", "1e-6"), ("3.4", "1e-6"),
    ("3.75", "1e-6"), ("2", "3e-7"), ("6", "1e-4"), ("30", "1e-25"),
])
def test_t_direct_cutoff_is_minimal(s, tol):
    # the planned P certifies tol, and the bound at every smaller cut-off,
    # the prime before P among them, does not: no smaller prime set would do
    s, tol = mpf(s), mpf(tol)
    P = _plan_cutoff(s, tol)
    assert _tail_bound(mpf(P), s) <= tol < _tail_bound(mpf(P - 1), s)
    primes = primes_array_up_to(P)
    before = int(primes[-2]) if primes[-1] == P else int(primes[-1])
    assert _tail_bound(mpf(before), s) > tol
    r = t_direct(s, tol)
    assert r.converged and r.terms_used == primes.size
    assert r.trunc_estimate == _tail_bound(mpf(P), s)


def test_t_direct_domain():
    with pytest.raises(DomainError):
        t_direct(1, mpf("1e-6"))
    with pytest.raises(DomainError):
        t_direct(mpf("0.5"), mpf("1e-6"))


def test_t_direct_negative_tol_is_a_domain_error_before_any_sieve(monkeypatch):
    # a negative or NaN tol is refused before the plan and the sieve; a
    # tol of 0 still plans to the cap and returns unconverged
    sieves = _count_everywhere(monkeypatch, "primes_array_up_to")
    for tol in (-1, float("nan"), mpf("nan"), "nan"):
        with pytest.raises(DomainError, match="tol must be >= 0"):
            t_direct(2, tol)
    assert sieves == []
    monkeypatch.setattr(primetail, "_DEFAULT_BOUND_CAP", 1000)
    r = t_direct(2, 0)
    assert not r.converged and r.terms_used == primes_array_up_to(1000).size


def test_t_closed_values():
    # zeta(2)(1 - 1/4) - 1 + 1/3 evaluated directly
    expected = (mp.pi ** 2 / 6) * mpf(3) / 4 - 1 + mpf(1) / 3
    assert abs(t_closed(2) - expected) < mpf("1e-40")
    assert abs(t_closed(2) - mpf("0.5670338834")) < mpf("1e-10")
    d3 = zeta_dirichlet(3, mpf("1e-12"))
    expected3 = d3.value * mpf(7) / 8 - 1 + mpf(1) / 7
    assert abs(t_closed(3) - expected3) <= d3.trunc_estimate + mpf("1e-12")


def test_t_closed_large_s_leading_order():
    s = 40
    lead = mpf(2) ** -s + mpf(3) ** -s
    assert abs(t_closed(s) - lead) <= 3 * mpf(4) ** -s


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("s", [20, 61, 121, "160.5", 241, 401])
def test_t_closed_keeps_its_relative_precision_at_large_s(s, digits):
    # t(s) is about 2^-s, a difference of O(1) terms: formed at the working
    # precision it would lose s log10(2) digits
    with mp.workdps(digits + 140):
        s = mpf(s)
        want = mp.zeta(s) * (1 - mpf(2) ** -s) - 1 + 1 / (mpf(2) ** s - 1)
        assert abs(t_closed(s, digits) / want - 1) <= mpf(10) ** -(digits + 5), s


@pytest.mark.parametrize("s", ["1e4", "1e300"])
def test_t_closed_past_its_pad_range_is_two_to_the_minus_s(s):
    # once (3/2)^-s is below the floor, t(s) is 2^-s to every working digit
    # and takes no pad: a pad of s log10(2) digits would not fit in memory
    s = mpf(s)
    assert abs(t_closed(s) * mpf(2) ** s - 1) <= mpf(10) ** -55


def test_t_closed_domain():
    with pytest.raises(DomainError):
        t_closed(1)


def test_gap_positive_and_equals_missing_odd_composites():
    # the closed form over-counts by exactly sum m^-s over odd
    # non-prime-powers m >= 15
    for s, tol, limit in [(2, mpf("3e-7"), 4_000_000), (3, mpf("1e-9"), 100_000)]:
        direct = t_direct(s, tol)
        gap = t_closed(s) - direct.value
        assert gap > 0
        brute, brute_tail = odd_nonprimepower_sum(s, limit)
        assert abs(gap - brute) <= direct.trunc_estimate + brute_tail + mpf("1e-9")


@pytest.mark.parametrize("s", [4, 6, 8])
def test_gap_positive_more_arguments(s):
    direct = t_direct(s, mpf("1e-12"))
    assert t_closed(s) - direct.value > 0
    assert direct.trunc_estimate <= mpf("1e-12")


def test_gap_ratio_decays_faster_than_eighth():
    # the gap is dominated by the m = 15 term, so one step in s shrinks it
    # by roughly 1/15 (certainly below 1/8); a few percent of relative
    # accuracy per gap is ample for that comparison
    gaps = {}
    for s in range(2, 9):
        tol = mpf(15) ** (-s) / 25
        gaps[s] = t_closed(s) - t_direct(s, tol).value
    for s in range(2, 8):
        assert gaps[s + 1] / gaps[s] < mpf(1) / 8


@pytest.mark.parametrize("digits", [30, 50, 100])
@pytest.mark.parametrize(
    "s", ["2", "3", "4", "5", "6", "7", "8", "9", "12", "40", "2.5", "3.7", "6.25"]
)
def test_t_exact_against_primezeta(s, digits):
    # the exact route carries the working precision: its miss against
    # sum_m P(ms) stays within its claimed bound, and that bound within
    # 10^-(digits+2); s is built at the oracle's precision
    dps = digits + 20
    with mp.workdps(dps):
        s = mpf(s)
        want = primezeta_tail(s, dps)
    r = t_exact(s, digits)
    with mp.workdps(dps):
        assert abs(r.value - want) <= r.trunc_estimate <= mpf(10) ** -(digits + 2)
    assert r.converged


@pytest.mark.parametrize("s", ["1.05", "1.2"])
def test_t_exact_near_one_against_primezeta(s):
    # near s = 1, zeta_{>100}(s) is 2 or more, so the first Moebius term
    # takes the working-precision logarithm rather than the log1p series
    digits, dps = 30, 50
    with mp.workdps(dps):
        s = mpf(s)
        want = primezeta_tail(s, dps)
    r = t_exact(s, digits)
    with mp.workdps(dps):
        assert abs(r.value - want) <= r.trunc_estimate <= mpf(10) ** -(digits + 2)
    assert r.converged


def test_t_exact_past_the_bernoulli_capacity_in_a_fresh_process():
    # zeta(y) at an even y past the Bernoulli table's capacity of B_4000,
    # and at y = 3000 inside it, comes from the short direct sum: each call
    # returns within its bound, in a fresh process, in under a second
    code = (
        "import time\n"
        "from mpmath import mpf\n"
        "from zetakit.primetail import t_exact\n"
        "for s in (3000, 4001, 4002):\n"
        "    start = time.perf_counter()\n"
        "    r = t_exact(s)\n"
        "    took = time.perf_counter() - start\n"
        "    want = sum(1 / (mpf(p) ** s - 1) for p in (2, 3, 5, 7))\n"
        "    assert abs(r.value - want) <= r.trunc_estimate, (s, r)\n"
        "    assert took < 1, (s, took)\n"
    )
    run_fresh(["-c", code], check=True, timeout=60)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), float("-inf"), "nan", "+inf"])
@pytest.mark.parametrize("route", ["t_exact", "t_direct", "t_closed"])
def test_prime_tails_refuse_a_non_finite_s_before_any_sieve(monkeypatch, route, s):
    sieves = _count_everywhere(monkeypatch, "primes_array_up_to")
    call = {"t_exact": lambda: t_exact(s), "t_direct": lambda: t_direct(s, mpf("1e-6")),
            "t_closed": lambda: t_closed(s)}[route]
    with pytest.raises(DomainError, match="finite"):
        call()
    assert sieves == []


def test_totients_match_their_definition():
    phi = _totients(200)
    assert phi[1:] == [sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1) for n in range(1, 201)]


@pytest.mark.parametrize("wp", [64, 230, 1000])
def test_log1p_fixed_within_a_few_units_per_term(wp):
    # the series' value is off by about two units per term summed
    for num, shift in [(1, 9), (-1, 9), (3, 12), (1, 40), (-5, 200), (7, 64), (0, 1)]:
        d = (num << wp) >> shift
        if abs(d) >= 1 << (wp - 8):
            continue
        with mp.workprec(wp + 40):
            want = mp.log1p(mpf((d, -wp))) * mpf(2) ** wp
        terms = wp // max(1, shift - abs(num).bit_length() + 1) + 2
        assert abs(_log1p_fixed(d, wp) - want) <= 2 * terms + 2, (num, shift)


@pytest.mark.parametrize("s", ["2", "3.7"])
def test_t_exact_takes_no_euler_product_and_no_sieve(monkeypatch, s):
    # the head primes are a literal tuple and their Euler factors come from
    # the head's own fixed-point powers
    products = _count_everywhere(monkeypatch, "euler_product")
    sieves = _count_everywhere(monkeypatch, "primes_array_up_to")
    r = t_exact(mpf(s), 50)
    assert r.terms_used > 1
    assert products == [] and sieves == []


def test_f_ratio_exact_tails_take_no_euler_product_and_no_sieve(monkeypatch):
    # f_ratio passes its zeta(2s) and zeta(2s+1) to the exact tails, which
    # sieve nothing and call no Euler product
    products = _count_everywhere(monkeypatch, "euler_product")
    sieves = _count_everywhere(monkeypatch, "primes_array_up_to")
    results = []
    real = oddzeta._t_exact

    def recorded(s, digits, zeta_s=None):
        assert zeta_s is not None
        results.append(real(s, digits, zeta_s))
        return results[-1]

    monkeypatch.setattr(oddzeta, "_t_exact", recorded)
    oddzeta.f_ratio(2, "direct", mpf("1e-40"), 50)
    assert len(results) == 2 and all(r.terms_used > 1 for r in results)
    assert products == [] and sieves == []


@pytest.mark.parametrize("s, orders", [("2", None), ("3", [3, 9, 15]), ("2.5", [5, 15, 25])])
def test_t_exact_takes_its_odd_integer_orders_from_one_em_run(monkeypatch, s, orders):
    # every odd integer ns, a non-integer s's among them, comes from one
    # Euler-Maclaurin run over the ascending orders; none at all at s = 2
    runs = _count_everywhere(monkeypatch, "_em_orders")
    t_exact(mpf(s), 50)
    if orders is None:
        assert runs == []
    else:
        assert len(runs) == 1 and list(runs[0][0][:3]) == orders


def _old_stopping_terms(s, digits):
    """The n of the stopping loop that ``_t_exact`` ran before its plan:
    one mpf bound per term, stopping after the first term whose bound on
    the omitted terms is at most the floor."""
    with working(digits):
        floor = mpf(10) ** (-(digits + GUARD_DIGITS))
    with working(digits + 3):
        ratio = 1 - mpf(100) ** (-s)
        n = 0
        while True:
            n += 1
            tail = _log_zeta_above_head_bound((n + 1) * s) / ratio
            if tail <= floor:
                return n


@pytest.mark.parametrize("digits", [15, 30, 50, 100, 300])
@pytest.mark.parametrize(
    "s", ["1.5", "2", "3", "4", "5", "6", "7", "8", "9", "12", "40", "2.5", "3.7", "6.25"]
)
def test_t_exact_plan_is_minimal_and_honest(s, digits):
    # the float plan, certified in mpf, stops where the old mpf loop did:
    # its bound is at most the floor, and at one term fewer it is not
    s = as_mpf(s, digits)
    n, tail, floor = _plan_terms(s, digits)
    assert n == _old_stopping_terms(s, digits)
    with working(digits + 3):
        ratio = 1 - mpf(100) ** (-s)
        assert tail == _log_zeta_above_head_bound((n + 1) * s) / ratio <= floor
        if n > 1:
            assert _log_zeta_above_head_bound(n * s) / ratio > floor


def test_t_exact_head_primes_are_the_primes_up_to_100():
    assert primetail._HEAD_PRIMES == tuple(primes_array_up_to(100).tolist())


def test_t_exact_domain():
    with pytest.raises(DomainError):
        t_exact(1)
