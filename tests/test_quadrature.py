import pytest
from mpmath import mp, mpf, mpc

from zetakit.errors import AccuracyError, DomainError
from zetakit.numerics import integrate_interval, integrate_semiaxis


def test_exponential_integrates_to_one():
    v = integrate_semiaxis(lambda x: mp.exp(-x), 0, mpf("1e-20"))
    assert abs(v - 1) <= mpf("1e-19")


def test_partial_fraction_integrand():
    # integral of 1/((x+1)(x+2)) over (0, inf) = [ln((x+1)/(x+2))] = ln 2
    v = integrate_semiaxis(lambda x: 1 / ((x + 1) * (x + 2)), 0, mpf("1e-20"))
    assert abs(v - mp.log(2)) <= mpf("1e-19")


def test_damped_mellin_kernel():
    # oracle: integral_0^inf x^(a-1)/(x+n) dx = pi n^(a-1)/sin(pi a)
    eps, b, n = mpf("1e-3"), mpf("0.5"), 3
    a = mpc(eps, -b)
    closed = mp.pi * mpc(n) ** (a - 1) / mp.sin(mp.pi * a)
    v = integrate_semiaxis(lambda x: x ** (a - 1) / (x + n), 1 - eps, abs(closed) * mpf("1e-12"))
    assert abs(v - closed) / abs(closed) <= mpf("1e-11")


@pytest.mark.parametrize("c", ["0.37", "1", "5"])
def test_split_additivity(c):
    tol = mpf("1e-15")
    f = lambda x: mp.exp(-x) * (1 + x) ** -2
    c = mpf(c)
    whole = integrate_semiaxis(f, 0, tol)
    low, _ = integrate_interval(f, mpf(0), c, tol)
    high = integrate_semiaxis(lambda y: f(y + c), 0, tol)
    assert abs(whole - (low + high)) < 10 * tol


def test_interval_engine_smooth():
    v, err = integrate_interval(lambda x: mp.sin(x), 0, mp.pi, mpf("1e-30"))
    assert abs(v - 2) <= mpf("1e-28")
    assert abs(v - 2) <= err <= mpf("1e-30")


def test_interval_engine_depth_exhaustion():
    # |x - 1/3|^(-1/2) has an interior singularity the bisection cannot
    # resolve within a tiny depth budget
    f = lambda x: abs(x - mpf(1) / 3) ** mpf("-0.5")
    with pytest.raises(AccuracyError) as exc:
        integrate_interval(f, 0, 1, mpf("1e-25"), max_depth=5)
    assert exc.value.achieved is not None


def test_semiaxis_rejects_bad_args():
    with pytest.raises(DomainError):
        integrate_semiaxis(lambda x: mp.exp(-x), -1, mpf("1e-10"))
    with pytest.raises(DomainError):
        integrate_semiaxis(lambda x: mp.exp(-x), 0, mpf(0))


def test_semiaxis_rejects_nonintegrable_origin():
    with pytest.raises(DomainError):
        integrate_semiaxis(lambda x: 1 / (x * (x + 1)), 1, mpf("1e-10"))
