import math
import random
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import bernfrac, mp

import zetakit.numerics as nm
from zetakit import bern
from zetakit.bern import bernoulli, tangent_number
from zetakit.errors import ConfigError, DomainError
from zetakit.precision import GUARD_DIGITS, as_mpf, working


def _bernfrac(n):
    p, q = bernfrac(n)
    return Fraction(int(p), int(q))


# B_0, B_2, ... from the reference recurrence, grown by _binomial_recurrence.
_BINOMIAL = [Fraction(1)]


def _binomial_recurrence(m):
    """B_0, B_2, ..., B_2m from sum_{r<2m} C(2m+1, r) B_r = -C(2m+1, 2m) B_2m,
    where only even r and r = 1 (B_1 = -1/2) contribute: the recurrence the
    tangent numbers replaced, transcribed here as a reference."""
    even = _BINOMIAL
    while len(even) <= m:
        n = 2 * len(even)
        s = sum(math.comb(n + 1, 2 * j) * b for j, b in enumerate(even))
        s += Fraction(-(n + 1), 2)
        even.append(-s / (n + 1))
    return even[: m + 1]


def test_bernoulli_equals_mpmath_bernfrac_to_600():
    for n in range(0, 601, 2):
        assert bernoulli(n) == _bernfrac(n), n


@pytest.mark.parametrize("n", [602, 800, 1000, 1234, 1500, 1848, 1998, 2000])
def test_bernoulli_equals_mpmath_bernfrac_sampled_to_2000(n):
    assert bernoulli(n) == _bernfrac(n)


def test_tangent_numbers_give_the_bernoulli_numbers():
    # tan x = x + 2 x^3/3! + 16 x^5/5! + 272 x^7/7! + 7936 x^9/9! + ...
    assert [tangent_number(j) for j in range(1, 6)] == [1, 2, 16, 272, 7936]
    for j in range(1, 301):
        four = 4 ** j
        want = Fraction((-1) ** (j - 1) * 2 * j * tangent_number(j), four * (four - 1))
        assert bernoulli(2 * j) == want, j


def _fresh_memo(monkeypatch):
    monkeypatch.setattr(bern, "_TANGENT", [0, 1])
    monkeypatch.setattr(bern, "_COLUMN", [1])


def _memo():
    return list(bern._TANGENT), list(bern._COLUMN)


def test_memo_is_independent_of_growth_order(monkeypatch):
    # one index at a time, one call to B_600, and a shuffled order each
    # build the same lists, to exactly the index asked for
    builds = []
    even = _binomial_recurrence(300)
    for order in (range(0, 601, 2), [600], random.Random(7).sample(range(0, 601, 2), 301)):
        _fresh_memo(monkeypatch)
        values = {n: bernoulli(n) for n in order}
        builds.append(_memo())
        assert all(values[n] == even[n // 2] for n in values)
    assert builds[0] == builds[1] == builds[2]
    tangent, column = builds[0]
    assert len(tangent) == len(column) + 1 == 301
    assert column[-1] == tangent[-1]
    assert [bernoulli(n) for n in range(0, 601, 2)] == even


def test_concurrent_readers_build_the_one_thread_memo(monkeypatch):
    # more threads than cores, each asking in its own shuffled order, with a
    # short switch interval: every value and the memo equal a one-thread build
    _fresh_memo(monkeypatch)
    values = {n: bernoulli(n) for n in range(0, 401, 2)}
    want = _memo()
    _fresh_memo(monkeypatch)
    errors = []

    def reader(seed):
        try:
            for n in random.Random(seed).sample(range(0, 401, 2), 201):
                assert bernoulli(n) == values[n], n
        except Exception as e:  # a lost update may surface as any error
            errors.append(e)

    threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _memo() == want


@pytest.mark.parametrize("digits", [15, 30, 50, 100, 300])
def test_em_coeffs_equal_the_binomial_recurrence(digits):
    count = nm._em_max_order(digits + GUARD_DIGITS + 1)
    bits = nm._fixed_point_bits(digits, nm._EM_MAX_SHIFT + count)
    even = _binomial_recurrence(count)
    want = []
    for k in range(1, count + 1):
        c = even[k] / math.factorial(2 * k)
        e = bits + c.denominator.bit_length() - abs(c.numerator).bit_length()
        want.append(((c.numerator << e) // c.denominator, e))
    assert nm._em_coeffs(digits) == tuple(want)


def _gap_asymptotic_from_fractions(digits):
    # the table from c_k = (4^k - 1) B_2k / (2k) as a Fraction
    shift_to = int(0.75 * (digits + 8)) + 1
    goal = digits + 5
    bits = nm._gap_bits(digits)
    coeffs, limits, log_limits = [], [], []
    with working(digits):
        k = 1
        while True:
            c = (4 ** k - 1) * _binomial_recurrence(k)[k] / (2 * k)
            log10_c = float(mp.log10(2 * abs(as_mpf(c, digits + 10))))
            log_limit = (log10_c + goal) / (2 * k - 1)
            limit = 10 ** log_limit if log_limit < 308 else math.inf
            limits.append(limit)
            log_limits.append(log_limit)
            if limit <= shift_to:
                return shift_to, tuple(coeffs), tuple(limits), tuple(log_limits)
            coeffs.append((c.numerator << bits) // c.denominator)
            k += 1


@pytest.mark.parametrize("digits", [15, 50, 100, 400])
def test_gap_asymptotic_equals_the_fraction_formula(digits):
    assert nm._gap_asymptotic(digits) == _gap_asymptotic_from_fractions(digits)


@pytest.mark.parametrize("n", [2.5, 4.0, "4", Fraction(4), None])
def test_a_non_integral_index_is_a_domain_error(n):
    with pytest.raises(DomainError, match="must be an integer"):
        bernoulli(n)
    with pytest.raises(DomainError, match="must be an integer"):
        tangent_number(n)


def test_an_integer_like_index_is_taken():
    assert bernoulli(np.int64(4)) == Fraction(-1, 30)
    assert tangent_number(np.int64(3)) == 16


def test_an_index_past_capacity_is_refused_before_the_memo_grows(monkeypatch):
    # the cap covers the largest table the package builds, the
    # Euler-Maclaurin coefficients up to B_2000
    assert 2 * nm._EM_MAX_CORRECTIONS <= bern._MAX_INDEX
    _fresh_memo(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="Bernoulli index 4002 exceeds capacity 4000"):
        bernoulli(bern._MAX_INDEX + 2)
    with pytest.raises(ConfigError, match="exceeds capacity"):
        bernoulli(10**9)
    with pytest.raises(ConfigError, match="exceeds capacity"):
        tangent_number(bern._MAX_INDEX // 2 + 1)
    assert time.perf_counter() - start < 1
    assert _memo() == ([0, 1], [1])
    # odd indices need no memo
    assert bernoulli(bern._MAX_INDEX + 1) == 0


def test_negative_indices_are_domain_errors():
    with pytest.raises(DomainError, match=">= 0"):
        bernoulli(-2)
    with pytest.raises(DomainError, match=">= 1"):
        tangent_number(0)
