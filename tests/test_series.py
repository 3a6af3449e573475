import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

from zetakit.errors import ConfigError, EvaluationError
from zetakit.numerics import (
    _ACCEL_GUARD_BITS,
    _accel_plan,
    _binomial_fixed,
    _crvz_weights,
    _fixed_point_bits,
    _guard_for_order,
    _inverse_power_table,
    _inverse_powers,
    accelerate_alternating,
)
from zetakit.precision import working
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


@pytest.mark.parametrize("b", ["0.01", "0.5", "1", "10", "40", "100"])
def test_flat_accel_plan_bounds_the_error_at_fixed_orders(b):
    # the flat series sum (-1)^(n-1) n^(-ib) has the Abel sum altzeta(ib);
    # at each order the plan's bound 2 (1 + kappa n) (3+sqrt8)^(-n) /
    # |Gamma(1+ib)| must cover the acceleration's error, at 200 digits
    with mp.workdps(200):
        b = mpf(b)
        want = mp.altzeta(mpc(0, b))
        c = 1 / abs(mp.gamma(mpc(1, b)))
        kappa = mp.pi * (1 - 1 / mp.sqrt(2))
        for order in (4, 8, 16, 50, 150):
            theorem = 2 * (1 + kappa * order) * c / (3 + mp.sqrt(8)) ** order
            planned, bound = _accel_plan(theorem * (1 + mpf("1e-30")), b, flat=True)
            assert planned == order
            assert abs(bound / theorem - 1) < mpf("1e-30")
            got = accelerate_alternating(lambda n: mpf(n) ** mpc(0, -b), order, 200).value
            assert abs(got - want) <= bound, (order, mp.nstr(abs(got - want) / bound, 3))


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
# Integer acceleration weights, the fixed-point sum and the n^-s table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("order", [4, 5, 30, 81, 200])
def test_crvz_weights_equal_the_rational_recurrence(order):
    # the recurrence as it reads with b_(k+1) = (k+n)(k-n) b_k/((k+1/2)(k+1)),
    # run in Fractions, and d = ((3+sqrt8)^n + (3+sqrt8)^-n)/2 rounded
    # from 300 extra digits (the tail (3+sqrt8)^-n is below 1/2)
    weights, d = _crvz_weights(order)
    with mp.workdps(int(0.8 * order) + 300):
        assert d == int(mp.nint(((3 + mp.sqrt(8)) ** order + (3 + mp.sqrt(8)) ** -order) / 2))
    b, c = Fraction(-1), Fraction(-d)
    want = []
    for k in range(order):
        c = b - c
        want.append(c)
        b = (k + order) * (k - order) * b / ((k + Fraction(1, 2)) * (k + 1))
    assert all(w.denominator == 1 for w in want)
    assert list(weights) == want
    assert all(abs(w) < d for w in weights)
    assert _crvz_weights(order) is _crvz_weights(order)


def _parts(z):
    """Real and imaginary parts of an mpf or mpc, exactly."""
    return (z.real, z.imag) if isinstance(z, mpc) else (z, mpf(0))


def _exact(x):
    """An mpf as the Fraction it is exactly."""
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@given(
    st.integers(min_value=4, max_value=200),
    st.integers(min_value=15, max_value=100),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=40, deadline=None)
def test_accel_within_order_ulp_of_exact_weights(order, digits, is_complex, seed):
    # the coefficients are mixed in size and sign; the reference sums them
    # exactly with the integer weights; an ulp is one unit of the largest
    # coefficient at the precision the acceleration works at
    rng = random.Random(seed)
    with working(digits, pad=_guard_for_order(order)):
        prec = mp.prec

        def part():
            return mp.ldexp(mpf(rng.randrange(-2**prec, 2**prec)), rng.randrange(-prec - 40, -prec + 8))

        coeffs = [mpc(part(), part()) if is_complex else part() for _ in range(order)]
    weights, d = _crvz_weights(order)
    value = accelerate_alternating(lambda n: coeffs[n - 1], order, digits).value
    top = max(mp.mag(abs(c)) for c in coeffs)
    ulp = Fraction(2) ** (top - prec)
    for i, got in enumerate(_parts(value)):
        want = sum(w * _exact(_parts(c)[i]) for w, c in zip(weights, coeffs)) / d
        assert abs(_exact(got) - want) <= order * ulp, (i, float(abs(_exact(got) - want) / ulp))


def _within_one_unit(re, im, s, bits, count):
    """Each n^-s 2^bits of the table, n <= count, within one unit of a
    direct power at 40 extra digits, part by part."""
    assert len(re) == count and (im is None) == isinstance(s, mpf)
    for n in range(1, count + 1):
        with mp.workprec(bits + 140):
            want = (mpc(n) if im is not None else mpf(n)) ** -s * mpf(2) ** bits
            assert abs(re[n - 1] - mp.re(want)) <= 1, n
            if im is not None:
                assert abs(im[n - 1] - mp.im(want)) <= 1, n


def _eta_table(s, order, digits):
    """The n^-s table of ``order`` entries at the fixed point the eta
    series sums at, and its fraction bits."""
    with working(digits, pad=_guard_for_order(order)):
        bits = mp.prec + order.bit_length() + _ACCEL_GUARD_BITS
    return _inverse_power_table(s, order, bits), bits


@pytest.mark.parametrize("digits", [15, 30, 50, 120])
@pytest.mark.parametrize("s", ["0.25", "1", "2.6", "3", "17.5", "40.3", "111.1", "200", "1+0.3j",
                               "1-7.1j", "1+40j", "0+1j", "0+13.5j", "2.5+7j", "200+3j"])
def test_inverse_power_table_within_ulps_of_direct_powers(digits, s):
    # real s (up to 111.1, where e^(-s ln p) needs the bits of mag(s)),
    # Re(s) = 1 with |b| <= 40 (the eta route), Re(s) = 0 (the flat route),
    # 2.5+7j (both the modulus and the phase) and a whole Re(s) = 200, where
    # p^-200 lies below one unit for most p, at the fixed point the eta
    # series sums at: one unit there is 2^-(bitlen(order) + 8) of an ulp
    # of the guarded precision, and every integer pair lies within it, not
    # within log2(n) ulps
    s = mpc(complex(s)) if "j" in s else mpf(s)
    order = 150
    (re, im), bits = _eta_table(s, order, digits)
    assert re[0] == 1 << bits and (im is None or im[0] == 0)
    _within_one_unit(re, im, s, bits, order)


@pytest.mark.parametrize("digits", [15, 30, 50, 120])
@pytest.mark.parametrize("order", [3, 10])
def test_inverse_power_table_extra_bits_at_a_large_imaginary_part(digits, order):
    # at b = 10^5 the phase b ln p takes mag(s) = 17 bits above the unit;
    # without the table's ``extra`` bits a short table misses by 3 units
    s = mpc(1, 100000)
    (re, im), bits = _eta_table(s, order, digits)
    _within_one_unit(re, im, s, bits, order)


@pytest.mark.parametrize("s", ["-0.4", "0.5", "-0.25+3j", "0.5+14.134725j", "1+400j"])
def test_inverse_power_table_over_the_oracle_range(s):
    # the oracle's direct block reads the table for Re(s) > -1/2, where
    # |n^-s| grows like n^(1/2), and for large |Im s|, and at a length
    # where composites chain up to 9 products (1024 = 2^10)
    s = mpc(complex(s)) if "j" in s else mpf(s)
    bits = _fixed_point_bits(50, 2000)
    re, im = _inverse_power_table(s, 2000, bits)
    _within_one_unit(re, im, s, bits, 2000)
    assert _inverse_power_table(s, 0, bits) == ((), None if im is None else ())


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


@pytest.mark.parametrize("s", ["1.0001", "1.5", "2.589285", "3.419829", "7.25", "40.5", "1000000.5"])
@pytest.mark.parametrize("wp", [64, 230, 1100])
def test_binomial_fixed_within_its_stated_units(s, wp):
    # each coefficient is binom(-s, k) 2^wp with its magnitude short by at
    # least 0 and under 1 + 2k |binom(-s, k)| 2^-32 units, and sign (-1)^k
    s = mpf(s)
    coeffs = _binomial_fixed(s, wp, 60)
    b, x = Fraction(1), _exact(s)
    for k, c in enumerate(coeffs):
        want = b * 2**wp
        assert c == 0 or (c < 0) == (k % 2 == 1), k
        short = abs(want) - abs(c)
        assert 0 <= short < 1 + 2 * k * abs(b) / 2**32, (k, float(short))
        b *= -(x + k) / (k + 1)


def _chained_steps(ints):
    """For each n, the chained steps since the last unchained term, by the
    rule of _inverse_powers: bitlen(m) - bitlen(n - m) > 4."""
    steps, c, m = [], 0, 0
    for n in ints:
        c = c + 1 if m.bit_length() - (n - m).bit_length() > 4 else 0
        steps.append(c)
        m = n
    return steps


@pytest.mark.parametrize("digits", [15, 50, 300])
@pytest.mark.parametrize("s", ["1.5", "2.589285", "3.419829", "7.25", "40.5", "1000000.5"])
def test_inverse_powers_within_their_stated_units(s, digits):
    # every term of the non-integer stream against mpmath at twice the
    # precision: under 1.25 + 3c units of 2^-wp, c the chained steps since
    # the last unchained term, and with minus_one under 4 times that plus
    # one; the stream stops only where 0 is within that bound of the term
    # and of every later one
    primes = [int(p) for p in primes_array_up_to(10_000)]
    sequences = {
        "primes": primes,
        "integers": list(range(1, 1500)) + list(range(1500, 10_001, 37)),
        "sparse primes": primes[::50],
    }
    s = mpf(s)
    for name, ints in sequences.items():
        steps = _chained_steps(ints)
        wp = _fixed_point_bits(digits, len(ints))
        with mp.workprec(2 * wp + 64):
            powers = [mp.ldexp(mpf(n) ** -s, wp) for n in ints]
        for minus_one in (False, True):
            if minus_one and ints[0] == 1:
                ns, wants, cs = ints[1:], powers[1:], steps[1:]
            else:
                ns, wants, cs = ints, powers, steps
            terms = list(_inverse_powers(ns, s, wp, minus_one=minus_one))
            with mp.workprec(2 * wp + 64):
                if minus_one:
                    one = mp.ldexp(1, wp)
                    wants = [y * one / (one - y) for y in wants]
                for n, got, want, c in zip(ns, terms, wants, cs):
                    limit = 1.25 + 3 * c
                    if minus_one:
                        limit = 4 * limit + 1
                    assert abs(got - want) < limit, (name, minus_one, n, c, float(got - want))
                if len(terms) < len(ns):
                    limit = 1.25 + 3 * cs[len(terms)]
                    if minus_one:
                        limit = 4 * limit + 1
                    assert all(want < limit for want in wants[len(terms):]), (name, minus_one)
