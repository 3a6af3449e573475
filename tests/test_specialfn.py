import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from zetakit.errors import DomainError
from zetakit.numerics import digamma, hurwitz_zeta
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
