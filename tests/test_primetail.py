import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from zetakit import oddzeta, primetail
from zetakit.errors import DomainError
from zetakit.primes import primes_array_up_to
from zetakit.primetail import (
    _plan_cutoff,
    _tail_bound,
    t_closed,
    t_direct,
    t_exact,
)
from zetakit.zetacore import zeta_dirichlet


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


def _count_euler_products(monkeypatch):
    """Wrap ``primetail.euler_product`` so each call is counted and still
    computed."""
    calls = []
    real = primetail.euler_product

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(primetail, "euler_product", counted)
    return calls


@pytest.mark.parametrize("s", ["2", "3.7"])
def test_t_exact_takes_one_euler_product_per_term(monkeypatch, s):
    # every Moebius term removes the Euler factors of p <= 100 through one
    # euler_product call, and nothing else in t_exact calls it
    calls = _count_euler_products(monkeypatch)
    r = t_exact(mpf(s), 50)
    assert r.terms_used > 1
    assert len(calls) == r.terms_used


def test_f_ratio_exact_tails_take_one_euler_product_per_term(monkeypatch):
    # f_ratio passes its zeta(2s) and zeta(2s+1) to the exact tails: the
    # first term still removes the head's Euler factors
    calls = _count_euler_products(monkeypatch)
    results = []
    real = oddzeta._t_exact

    def recorded(s, digits, zeta_s=None):
        assert zeta_s is not None
        results.append(real(s, digits, zeta_s))
        return results[-1]

    monkeypatch.setattr(oddzeta, "_t_exact", recorded)
    oddzeta.f_ratio(2, "direct", mpf("1e-40"), 50)
    assert len(results) == 2
    assert len(calls) == sum(r.terms_used for r in results)


def test_t_exact_domain():
    with pytest.raises(DomainError):
        t_exact(1)
