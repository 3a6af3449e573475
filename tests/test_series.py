import pytest
from mpmath import mp, mpf

from zetakit.errors import ConfigError, EvaluationError
from zetakit.numerics import _fixed_point_bits, _inverse_powers, accelerate_alternating
from zetakit.primes import primes_array_up_to


def ln2_oracle(dps=60):
    """ln 2 by Newton inversion of the exponential's Taylor series."""
    with mp.workdps(dps):
        def exp_taylor(x):
            term = mpf(1)
            total = mpf(1)
            for k in range(1, 500):
                term *= x / k
                total += term
                if abs(term) < mpf(10) ** (-(dps + 5)):
                    break
            return total

        x = mpf("0.7")
        for _ in range(60):
            e = exp_taylor(x)
            dx = (e - 2) / e
            x -= dx
            if abs(dx) < mpf(10) ** (-(dps + 2)):
                break
        return x


def test_non_finite_term_reports_index():
    def coeff(n):
        return mpf("inf") if n == 7 else 1 / mpf(n)

    with pytest.raises(EvaluationError) as exc:
        accelerate_alternating(coeff, 30)
    assert exc.value.index == 7


def test_accel_ln2_order_30_gives_25_digits():
    r = accelerate_alternating(lambda n: 1 / mpf(n), 30)
    assert abs(r.value - ln2_oracle()) < mpf("1e-25")
    assert r.terms_used == 30


def test_accel_eta_two():
    # (1 - 2^(1-2)) * zeta(2) = pi^2 / 12
    r = accelerate_alternating(lambda n: 1 / mpf(n) ** 2, 30)
    assert abs(r.value - mp.pi ** 2 / 12) < mpf("1e-24")


def test_accel_makes_no_convergence_claim():
    # ln 2 at order 30: the error model gives about 3 * 5.83^-30 = 3e-23
    r = accelerate_alternating(lambda n: 1 / mpf(n), 30)
    assert not r.converged  # no tol requested, no claim made
    assert abs(r.value - ln2_oracle()) <= r.trunc_estimate <= mpf("1e-22")


def test_accel_zero_series():
    r = accelerate_alternating(lambda n: mpf(0), 12)
    assert r.value == 0


def test_accel_order_limits():
    with pytest.raises(ConfigError):
        accelerate_alternating(lambda n: mpf(1) / n, 3)
    with pytest.raises(ConfigError):
        accelerate_alternating(lambda n: mpf(1) / n, 10_001)


@pytest.mark.parametrize("s", ["0.5", "1.3", "2", "3.1", "4"])
def test_accel_matches_partial_alternating_sums(s):
    # the classic alternating-series bound certifies the partial sum to its
    # first omitted term; the accelerated value must sit inside that window
    s = mpf(s)
    N = 2001
    partial = mpf(0)
    for n in range(1, N + 1):
        partial += (-1) ** (n - 1) / mpf(n) ** s
    first_omitted = 1 / mpf(N + 1) ** s
    acc = accelerate_alternating(lambda n: 1 / mpf(n) ** s, 60)
    assert abs(acc.value - partial) <= first_omitted * mpf("1.01") + mpf("1e-18")


# ---------------------------------------------------------------------------
# Fixed-point inverse powers
# ---------------------------------------------------------------------------


def _kernel_sequences():
    primes = primes_array_up_to(200_000)
    return {
        # consecutive primes: the mpf head, then short chained steps
        "primes": primes[:3000],
        # every 400th prime: gaps of several thousand, so g/m reaches the
        # chaining threshold from both sides
        "sparse primes": primes[::400],
        "hand-picked gaps": [2, 3, 97, 101, 1000, 1061, 1200, 10**6, 10**6 + 31,
                             10**6 + 62_000, 10**6 + 62_500, 2**40, 2**40 + 7],
        "integers": range(1, 600),
    }


@pytest.mark.parametrize("name", sorted(_kernel_sequences()))
@pytest.mark.parametrize("s", ["1.0001", "2", "2.6", "7.25", "30", "30.5"])
@pytest.mark.parametrize("minus_one", [False, True])
def test_inverse_powers_term_by_term(name, s, minus_one):
    # each streamed term against 2^wp/(n^s - minus) evaluated by mpmath at
    # twice the fixed-point precision; a chained n^-s may be off by a few
    # units of 2^-wp more than its predecessor, and y/(1 - y) with y <= 1/2
    # at most quadruples that, plus one for its own rounding
    ns = _kernel_sequences()[name]
    ints = [int(n) for n in ns]
    if minus_one and ints[0] == 1:
        ints, ns = ints[1:], ints[1:]
    s = mpf(s)
    wp = _fixed_point_bits(30, len(ints))
    terms = list(_inverse_powers(ns, s, wp, minus_one=minus_one))
    with mp.workprec(2 * wp + 64):
        wants = [mp.ldexp(1 / (mpf(n) ** s - minus_one), wp) for n in ints]
        for i, (n, got, want) in enumerate(zip(ints, terms, wants)):
            limit = 4 * (i + 1)
            if minus_one:
                limit = 4 * limit + 1
            assert abs(got - want) <= limit, (n, i, float(got - want))
        # the stream stops only where the terms have run below a unit
        assert all(want < 4 * len(ints) for want in wants[len(terms):])
