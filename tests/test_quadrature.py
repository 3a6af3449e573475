import pytest
from mpmath import mp, mpc, mpf

from zetakit import numerics
from zetakit.errors import AccuracyError
from zetakit.numerics import integrate_interval


def test_interval_engine_smooth():
    v, err = integrate_interval(lambda x: mp.sin(x), 0, mp.pi, mpf("1e-30"))
    assert abs(v - 2) <= mpf("1e-28")
    assert abs(v - 2) <= err <= mpf("1e-30")


def test_interval_engine_order_exhaustion(monkeypatch):
    # |x - 1/3|^(-1/2) has an interior singularity that no Gauss-Legendre
    # order within a small cap resolves
    monkeypatch.setattr(numerics, "_MAX_ORDER", 64)
    f = lambda x: abs(x - mpf(1) / 3) ** mpf("-0.5")
    with pytest.raises(AccuracyError, match="by order 64") as exc:
        integrate_interval(f, 0, 1, mpf("1e-25"))
    assert exc.value.achieved > mpf("1e-25")


DIGITS = (30, 50, 100)


@pytest.mark.parametrize("digits", DIGITS)
def test_oscillatory_closed_form(digits):
    # int_(-6)^2 e^(u(1-ib)) du over about 6 periods, against its antiderivative
    with mp.workdps(digits + 20):
        b, tol = mpf(5), mpf(10) ** -(digits // 2)
        c = mpc(1, -b)
        exact = (mp.exp(2 * c) - mp.exp(-6 * c)) / c
    v, err = integrate_interval(lambda u: mp.exp(c * u), -6, 2, tol, digits=digits)
    with mp.workdps(digits + 20):
        assert abs(v - exact) <= err <= tol
