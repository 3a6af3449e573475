import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import to_fixed

from zetakit.errors import AccuracyError, DomainError
from zetakit.forensics import _digamma_gap
from zetakit.numerics import (
    _GAP_X0,
    _digamma_gap_fixed,
    _gap_bits,
    digamma,
    digamma_gap,
    hurwitz_zeta,
)
from zetakit.precision import working
from zetakit.zetacore import zeta_dirichlet, zeta_oracle

from test_series import ln2_oracle


import functools


@functools.lru_cache(maxsize=4)
def gamma_oracle(dps=70):
    """Euler's constant from the harmonic-minus-log limit, Richardson-
    extrapolated over n = 2^j (the error is a power series in 1/n)."""
    with mp.workdps(dps):
        vals = []
        H = mpf(0)
        n = 0
        for j in range(18):
            target = 2 ** j
            while n < target:
                n += 1
                H += mpf(1) / n
            if j >= 2:
                vals.append(H - mp.log(target))
        T = vals[:]
        for k in range(1, len(vals)):
            T = [(2 ** k * T[i + 1] - T[i]) / (2 ** k - 1) for i in range(len(T) - 1)]
        return T[0]


def test_gamma_oracle_self_consistency():
    # two extrapolation depths must agree well beyond the test tolerances
    with mp.workdps(60):
        g = gamma_oracle()
        assert abs(g - mpf("0.57721566490153286060651209008240243104215933593992")) < mpf("1e-35")


def test_digamma_at_one_is_minus_gamma():
    assert abs(digamma(1) + gamma_oracle()) < mpf("1e-25")


def test_digamma_at_two_recurrence():
    # psi(2) = psi(1) + 1
    assert abs(digamma(2) - (digamma(1) + 1)) < mpf("1e-45")
    assert abs(digamma(2) - (1 - gamma_oracle())) < mpf("1e-25")


def test_digamma_at_half_duplication():
    assert abs(digamma(mpf("0.5")) + gamma_oracle() + 2 * ln2_oracle()) < mpf("1e-25")


@pytest.mark.parametrize("x", ["0.1", "0.5", "1", "3.7", "10"])
def test_digamma_recurrence_residual(x):
    x = mpf(x)
    res = abs(digamma(x + 1) - digamma(x) - 1 / x)
    assert res <= mpf(10) ** (-(50 - 5))


@given(st.floats(min_value=0.05, max_value=50))
@settings(max_examples=40, deadline=None)
def test_digamma_recurrence_property(x):
    x = mpf(repr(x))
    res = abs(digamma(x + 1) - digamma(x) - 1 / x)
    assert res <= mpf("1e-40")


def test_digamma_domain():
    with pytest.raises(DomainError):
        digamma(0)
    with pytest.raises(DomainError):
        digamma(-2.5)


def brute_hurwitz(s, alpha, terms):
    """Partial sum plus integral-tail sandwich: returns (low, high)."""
    with mp.workdps(60):
        s = mpf(s)
        alpha = mpf(alpha)
        part = mpf(0)
        for n in range(terms):
            part += (n + alpha) ** (-s)
        hi_tail = (terms - 1 + alpha) ** (1 - s) / (s - 1)
        lo_tail = (terms + alpha) ** (1 - s) / (s - 1)
        return part + lo_tail, part + hi_tail


def test_hurwitz_reduces_to_zeta_at_alpha_one():
    assert abs(hurwitz_zeta(2, 1) - mp.pi ** 2 / 6) < mpf("1e-45")


def test_hurwitz_at_half():
    # zeta(s, 1/2) = (2^s - 1) zeta(s): at s = 2 this is pi^2/2
    v = hurwitz_zeta(2, mpf("0.5"))
    assert abs(v - mp.pi ** 2 / 2) < mpf("1e-45")
    lo, hi = brute_hurwitz(2, mpf("0.5"), 4000)
    assert lo - mpf("1e-30") <= v <= hi + mpf("1e-30")


def test_hurwitz_third_brute_force_sandwich():
    v = hurwitz_zeta(4, mpf(1) / 3, mpf("1e-30"))
    lo, hi = brute_hurwitz(4, mpf(1) / 3, 3000)
    assert lo - mpf("1e-30") <= v <= hi + mpf("1e-30")


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        hurwitz_zeta(1, mpf("0.5"))
    with pytest.raises(DomainError):
        hurwitz_zeta(mpf("0.5"), 1)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0)


@pytest.mark.parametrize("s", [2, 3, 4, 6])
def test_hurwitz_alpha_one_matches_zeta_routes(s):
    tight = mpf(10) ** (-45)
    v = hurwitz_zeta(s, 1, tight)
    assert abs(v - zeta_oracle(s, tight).real) <= mpf(10) ** (-44)
    # alpha = 1 and the oracle run the same evaluation, bit for bit
    d = 50
    assert hurwitz_zeta(s, 1, None, d) == zeta_oracle(s, mpf(10) ** (-(d - 2)), d).real
    # the defining-series route at a budget it can honestly reach
    r = zeta_dirichlet(s, mpf("1e-8"))
    assert abs(v - r.value) <= r.trunc_estimate + mpf("1e-20")


@pytest.mark.parametrize("s, alpha", [
    ("2", (1, 3)), ("4", (1, 4)), ("3.5", (7, 10)),
])
def test_hurwitz_matches_mpmath_zeta(s, alpha):
    # mpmath's zeta(s, a) is an outside oracle; the arguments are built at
    # the test precision (conftest's 60 digits), not at mpmath's default.
    s = mpf(s)
    a = mpf(alpha[0]) / alpha[1]
    tol = mpf("1e-30")
    assert abs(hurwitz_zeta(s, a, tol, digits=50) - mp.zeta(s, a)) <= tol


@pytest.mark.parametrize("s, alpha", [
    ("2", (1, 3)), ("4", (1, 4)), ("3.5", (7, 10)), ("12", (1, 3)),
])
def test_hurwitz_at_100_digits(s, alpha):
    digits = 100
    with mp.workdps(digits + 20):
        s = mpf(s)
        a = mpf(alpha[0]) / alpha[1]
        v = hurwitz_zeta(s, a, None, digits)
        assert abs(v - mp.zeta(s, a)) <= mpf(10) ** -(digits - 2)


def test_hurwitz_tol_below_working_floor_raises():
    # 50 digits work at 60; no shift can reach 1e-70
    with pytest.raises(AccuracyError):
        hurwitz_zeta(2, mpf(1) / 3, mpf(10) ** -70, digits=50)


# ---------------------------------------------------------------------------
# One-pass digamma gap, against mpmath's psi as an outside oracle
# ---------------------------------------------------------------------------


def psi_gap_oracle(x):
    # 130 digits: 80 for the widest target plus the ~20 that cancel between
    # the two psi values at x = 1e20
    with mp.workdps(130):
        x = mpf(x)
        return mp.psi(0, x / 2 + 1) - mp.psi(0, (x + 1) / 2)


def gap_rel_error(value, x):
    want = psi_gap_oracle(x)
    with mp.workdps(130):
        return abs(value - want) / want


# log-spaced over [1e-30, 1e20] plus both sides of the branch point x0
with mp.workdps(130):
    GAP_GRID = [mpf(10) ** (mpf(i) / 4) for i in range(-120, 81)] + [
        _GAP_X0 * (1 - mpf(2) ** -60), _GAP_X0, _GAP_X0 * (1 + mpf(2) ** -60),
        mpf("0.2"), mpf("0.3"), mpf(1), mpf(2),
    ]


@pytest.mark.parametrize("digits", [25, 32, 50, 80])
def test_digamma_gap_matches_mpmath_psi(digits):
    worst = max(gap_rel_error(digamma_gap(x, digits), x) for x in GAP_GRID)
    assert worst <= mpf(10) ** -digits


@given(st.floats(min_value=-30, max_value=20), st.sampled_from([15, 25, 32, 40, 50]))
@settings(max_examples=60, deadline=None)
def test_digamma_gap_matches_mpmath_psi_property(log10_x, digits):
    with mp.workdps(130):
        x = mpf(10) ** mpf(repr(log10_x))
    assert gap_rel_error(digamma_gap(x, digits), x) <= mpf(10) ** -digits


@pytest.mark.parametrize("digits", [25, 32, 50, 80])
def test_digamma_gap_agrees_with_two_digamma_reading(digits):
    # The audits read the gap as two digamma calls.  Up to x = 1e6 the two
    # readings agree to the full precision.  Each digamma value is about
    # ln x while the gap is about 1/x, so the two-digamma reading loses
    # about log10(x) digits to cancellation and is not compared above that.
    with mp.workdps(digits + 10):  # the caller's precision, as in quadrature
        for x in GAP_GRID:
            if x <= mpf("1e6"):
                one, two = digamma_gap(x, digits), _digamma_gap(x, digits)
                assert abs(one - two) / one <= mpf(10) ** -digits, x


@pytest.mark.parametrize("digits", [25, 32, 50, 80])
def test_digamma_gap_equals_its_fixed_point_entry(digits):
    # the integral route reads the gap through the integer entry at more
    # fraction bits than the gap's own tables hold; it agrees with the
    # public mpf to one unit of the coarser of that mpf's last place and
    # the tables' 2^-_gap_bits
    bits = _gap_bits(digits) + 32
    for x in GAP_GRID:
        with working(digits):
            x = +x
            want = digamma_gap(x, digits)
            unit = max(mp.ldexp(1, mp.mag(want) - mp.prec), mp.ldexp(1, -_gap_bits(digits)))
        got = _digamma_gap_fixed(to_fixed(x._mpf_, bits), bits, digits)
        with mp.workprec(bits + 64):
            assert abs(mp.ldexp(got, -bits) - want) <= unit, x


@pytest.mark.parametrize("digits", [15, 32, 50])
def test_digamma_gap_keeps_its_relative_accuracy_to_1e40(digits):
    # past GAP_GRID: the gap is about 1/x, so a fixed point without mag(x)
    # more fraction bits would lose log2(x) bits of it; the oracle carries
    # the 40 digits that cancel between the two psi values at 1e40
    with mp.workdps(180):
        grid = [mpf(10) ** (mpf(i) / 4) for i in range(80, 161, 3)] + [mpf(10) ** 40]
    for x in grid:
        with mp.workdps(180):
            want = mp.psi(0, x / 2 + 1) - mp.psi(0, (x + 1) / 2)
            assert abs(digamma_gap(x, digits) - want) / want <= mpf(10) ** -digits, x


def test_digamma_gap_past_the_float_range_of_its_term_limits():
    # at 400 digits the one-term limit 10^(digits+4.7) is no float: the
    # gap must neither overflow nor, at y = x + 1 past the float range,
    # drop the asymptotic term it still needs (without it, x = 10^400 is
    # off by 5e-401 relative).  Each x is dyadic, so both sides read the
    # same number; the oracle carries 430 digits plus the log10(x) that
    # cancel between the two psi values.
    for base, exponent in ((2, -5), (3, 1), (2, 17), (10, 400)):
        x = mpf(base) ** exponent
        got = digamma_gap(x, 400)
        with mp.workdps(430 + max(0, int(mp.log10(x)))):
            want = mp.psi(0, x / 2 + 1) - mp.psi(0, (x + 1) / 2)
            assert abs(got - want) / want <= mpf(10) ** -404, (base, exponent)


def test_integral_route_at_400_digits_in_a_fresh_process():
    # the gap kernel's tables past 303 digits, from the CLI: exit 0 and a
    # value within its est_error of zeta(1+i).  The sum's digits follow
    # tol, so tol 1e-300 is what makes it sum at about 311 digits
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "zetakit.cli", "line1", "--b", "1", "--method", "integral",
         "--digits", "400", "--tol", "1e-300", "--format", "json"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0, out.stderr
    row, = json.loads(out.stdout)["rows"]
    with mp.workdps(430):
        value = mp.mpc(mpf(row["value_re"]), mpf(row["value_im"]))
        assert abs(value - mp.zeta(mp.mpc(1, 1))) <= mpf(row["est_error"])


def test_two_digamma_reading_loses_digits_at_large_x():
    # the cancellation named above, shown: at x = 1e16 and 32 digits the
    # two-digamma reading misses mpmath by more than 1e-28 relative (3e-26
    # measured), the kernel by less than 1e-32
    digits, x = 32, mpf("1e16")
    with mp.workdps(digits + 10):
        two = _digamma_gap(x, digits)
    assert gap_rel_error(two, x) > mpf(10) ** -(digits - 4)
    assert gap_rel_error(digamma_gap(x, digits), x) <= mpf(10) ** -digits


def test_digamma_gap_domain():
    with pytest.raises(DomainError):
        digamma_gap(0)
    with pytest.raises(DomainError):
        digamma_gap(mpf("-0.5"))


# Hurwitz zeta against mpmath's zeta(s, a): integer s in 2..120 and
# non-integer real s, a in (0, 4], 15-120 digits.  The gate is the
# oracle's 10^-(digits+2), relative: a small a makes a^-s huge and a > 1
# makes it tiny.  mpmath's own value is good to about 10^-dps absolute
# near 1, so it runs with s log10(a) digits more when a > 1.
@given(
    st.one_of(st.integers(min_value=2, max_value=120),
              st.floats(min_value=1.01, max_value=120).filter(lambda x: x != int(x))),
    st.floats(min_value=0, max_value=4, exclude_min=True),
    st.integers(min_value=15, max_value=120),
)
@example(120, 4.0, 50)
@settings(max_examples=60, deadline=None)
def test_hurwitz_sweep_against_mpmath(s, a, digits):
    with mp.workdps(digits + 20 + max(0, math.ceil(s * math.log10(a)))):
        v = hurwitz_zeta(s, a, None, digits)
        ref = mp.zeta(s, a)
        assert abs(v - ref) <= mpf(10) ** -(digits + 2) * ref, (s, a, digits)


@pytest.mark.parametrize("digits", [15, 30, 50, 100, 120])
def test_hurwitz_integer_s_within_an_ulp_of_its_plan(digits):
    # The sum is rounded once, so an integer-s value is off mpmath by at
    # most half a unit in the last place (ulp) of the working precision, a
    # fraction of an ulp of fixed-point rounding, and the remainder the plan
    # allows, 10^-(digits+10): within 2 ulp wherever that remainder is
    # under an ulp.
    target = mpf(10) ** -(digits + 10)
    for p, q in ((1, 1), (1, 3), (1, 4)):
        for s in list(range(2, 21)) + list(range(23, 121, 7)):
            with mp.workdps(digits + 10):
                a = mpf(p) / q  # the point hurwitz_zeta sees
                v = hurwitz_zeta(s, a, None, digits)
                ulp = mp.ldexp(1, mp.mag(v) - mp.prec)
            with mp.workdps(digits + 40):
                err = abs(v - mp.zeta(s, a))
            assert err <= ulp + target, (a, s, err / ulp)


def _run_capped(code, timeout):
    """Run ``code`` in a fresh process capped at 2 GB of address space,
    failing on a nonzero exit or on ``timeout`` seconds."""
    src = Path(__file__).resolve().parent.parent / "src"
    head = "import resource\nresource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", head + code], check=True, timeout=timeout,
                   env={**os.environ, "PYTHONPATH": path})


def test_hurwitz_at_a_huge_order_and_shift_sums_relative_to_the_shift():
    # Summed relative to a^-s, zeta(k, 2) = 2^-k (1 + (2/3)^k + ...) is
    # exactly 2^-k once (2/3)^k is below the floor, at k = 10^7 and 10^300
    # alike, with no fraction bits that grow with k.  zeta(1167.3, 775.75)
    # is checked against its definition in mpmath: a^s zeta(s, a) = sum_n
    # (1 + n/a)^-s, whose terms past n = 600 add at most (a/(s-1))
    # (1 + 600/a)^(1-s) < 1e-290 relative.
    code = (
        "from mpmath import mp, mpf\n"
        "from zetakit.numerics import hurwitz_zeta\n"
        "for s, digits in ((mpf('1e7'), 30), (mpf('1e300'), None)):\n"
        "    v = hurwitz_zeta(s, 2, digits=digits)\n"
        "    assert v._mpf_[1:3] == (1, -int(s)), v._mpf_[:3]\n"
        "s, a, digits = mpf('1167.3'), mpf('775.75'), 100\n"
        "v = hurwitz_zeta(s, a, digits=digits)\n"
        "with mp.workdps(digits + 40):\n"
        "    ref = mp.fsum((1 + n / a) ** -s for n in range(600)) * a ** -s\n"
        "    assert abs(v - ref) <= mpf(10) ** -(digits + 10) * ref, abs(v - ref) / ref\n"
    )
    _run_capped(code, timeout=60)


def test_hurwitz_at_a_huge_non_integer_order_is_the_power_of_its_shift():
    # zeta(10^15 + 1/2, a) = a^-s (1 + ((a+1)/a)^-s + ...), whose second
    # term lies far below an ulp: the value is a^-s within one ulp, which
    # needs a^-s taken at mag(s ln a) bits above the working precision
    code = (
        "from mpmath import mp, mpf\n"
        "from zetakit.numerics import hurwitz_zeta\n"
        "from zetakit.precision import working\n"
        "digits = 30\n"
        "with mp.workdps(40):\n"
        "    s = mpf(10) ** 15 + mpf(1) / 2\n"
        "for a in (2, 3):\n"
        "    v = hurwitz_zeta(s, a, digits=digits)\n"
        "    with working(digits):\n"
        "        ulp = mp.ldexp(1, mp.mag(v) - mp.prec)\n"
        "    with mp.workprec(2000):\n"
        "        ref = mpf(a) ** -s\n"
        "        assert abs(v - ref) <= ulp, (a, abs(v - ref) / ulp)\n"
    )
    _run_capped(code, timeout=60)
