import pytest
from mpmath import mp, mpc, mpf

from zetakit import numerics
from zetakit.errors import AccuracyError
from zetakit.numerics import integrate_interval


def test_interval_engine_smooth():
    v, err = integrate_interval(lambda x: mp.sin(x), 0, mp.pi, mpf("1e-30"))
    assert abs(v - 2) <= mpf("1e-28")
    assert abs(v - 2) <= err <= mpf("1e-30")


def test_interval_engine_depth_exhaustion(monkeypatch):
    # |x - 1/3|^(-1/2) has an interior singularity the bisection cannot
    # resolve within a tiny depth budget
    monkeypatch.setattr(numerics, "_MAX_DEPTH", 5)
    f = lambda x: abs(x - mpf(1) / 3) ** mpf("-0.5")
    with pytest.raises(AccuracyError) as exc:
        integrate_interval(f, 0, 1, mpf("1e-25"))
    assert exc.value.achieved is not None


# ---------------------------------------------------------------------------
# Gauss 12 / Kronrod 25 panel rule
# ---------------------------------------------------------------------------

DIGITS = (30, 50, 100)


@pytest.mark.parametrize("digits", DIGITS)
def test_kronrod_rule_is_exact_to_degree_37(digits):
    nodes = numerics._kronrod_nodes(digits + 10)
    assert len(nodes) == 25
    with mp.workdps(digits + 20):
        for k in range(38):
            exact = mpf(2) / (k + 1) if k % 2 == 0 else 0
            moment = mp.fsum(w * x**k for x, w, _ in nodes)
            assert abs(moment - exact) <= mpf(10) ** -(digits + 5), k
        # degree 38 is beyond the rule, so the check above has teeth
        assert abs(mp.fsum(w * x**38 for x, w, _ in nodes) - mpf(2) / 39) > mpf("1e-20")


@pytest.mark.parametrize("digits", DIGITS)
def test_kronrod_rule_embeds_the_gauss_rule(digits):
    gauss = [(x, w_g) for x, _, w_g in numerics._kronrod_nodes(digits + 10) if w_g]
    assert gauss == list(numerics._legendre_nodes(12, digits + 10))


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
