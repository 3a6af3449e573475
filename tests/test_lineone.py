import itertools
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf, mpc

from zetakit import lineone
from zetakit.errors import AccuracyError, DegeneracyError, DomainError, PoleError
from zetakit.lineone import (
    digamma_gap_check,
    eta_zero_ordinate,
    eta_zero_scan,
    hurwitz_expansion_check,
    mellin_check,
    residue_probe,
    uniform_norm_probe,
    zeta_line_one,
    zeta_line_one_flat,
    zeta_line_one_integral,
)
from zetakit.zetacore import zeta_oracle


# ---------------------------------------------------------------------------
# eta route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", ["1", "14.134725"])
def test_eta_route_matches_oracle(b):
    b = mpf(b)
    pt = zeta_line_one(b, mpf("1e-16"))
    z = zeta_oracle(mpc(1, b), mpf("1e-18"))
    assert abs(pt.value - z) < mpf("1e-15")
    assert pt.method == "eta"
    assert pt.est_error <= mpf("1e-15")


def test_eta_route_pole_and_degeneracy():
    with pytest.raises(PoleError):
        zeta_line_one(0)
    with pytest.raises(PoleError):
        zeta_line_one(mpf("1e-8"))
    with pytest.raises(DegeneracyError):
        zeta_line_one(eta_zero_ordinate(1))


@pytest.mark.parametrize("b", ["1", "5"])
def test_conjugate_symmetry(b):
    b = mpf(b)
    plus = zeta_line_one(b, mpf("1e-16")).value
    minus = zeta_line_one(-b, mpf("1e-16")).value
    assert abs(minus - mp.conj(plus)) < mpf("1e-14")


# ---------------------------------------------------------------------------
# flat (Abel-regularized) route
# ---------------------------------------------------------------------------


def test_flat_route_identity_and_deviation():
    pt = zeta_line_one_flat(1, 40)
    # the regularized series evaluates to (1-2^(1-ib)) zeta(ib)/(1-2^(-ib))
    s0 = mpc(0, 1)
    z0 = zeta_oracle(s0, mpf("1e-20"))
    target = (1 - 2 ** (1 - s0)) * z0 / (1 - 2 ** (-s0))
    assert abs(pt.value - target) < mpf("1e-8")
    # and is NOT zeta(1+ib)
    z1 = zeta_line_one(1, mpf("1e-12")).value
    assert abs(pt.value - z1) > mpf("0.1")
    assert pt.method == "flat"


def test_flat_route_degenerate_at_zero_line():
    with pytest.raises(DegeneracyError):
        zeta_line_one_flat(eta_zero_ordinate(1), 40)


def test_order_ramps_fail_loudly_when_orders_never_agree(monkeypatch):
    values = itertools.cycle([mpc(0), mpc(1)])
    monkeypatch.setattr(
        lineone, "accelerate_alternating",
        lambda *args, **kwargs: SimpleNamespace(value=next(values)),
    )
    with pytest.raises(AccuracyError, match="^eta acceleration failed") as exc:
        zeta_line_one(1)
    assert exc.value.achieved == 1
    with pytest.raises(AccuracyError, match="^flat-series acceleration failed") as exc:
        zeta_line_one_flat(1)
    assert exc.value.achieved == 1


# ---------------------------------------------------------------------------
# integral route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b", ["1", "5"])
def test_integral_route_matches_eta(b):
    b = mpf(b)
    p_int = zeta_line_one_integral(b, mpf("1e-9"))
    p_eta = zeta_line_one(b, mpf("1e-12"))
    assert abs(p_int.value - p_eta.value) < mpf("1e-8")
    assert p_int.method == "integral"


@pytest.mark.parametrize("b", ["0.5", "1", "5"])
def test_integral_route_error_estimate_is_honest(b):
    # mpmath's zeta is an outside oracle; the argument is built at the test
    # precision (conftest's 60 digits)
    b, tol = mpf(b), mpf("1e-9")
    pt = zeta_line_one_integral(b, tol, digits=50)
    assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error <= tol


def test_integral_route_near_pole_grows():
    pt = zeta_line_one_integral(mpf("0.01"), mpf("1e-8"))
    assert abs(pt.value) > 50  # ~ 1/(b ln 2)
    assert abs(mpc(0, mpf("0.01")) * pt.value - 1) < mpf("0.01")


def test_integral_route_domain():
    with pytest.raises(DomainError):
        zeta_line_one_integral(mpf("1e-4"))
    with pytest.raises(DomainError):
        zeta_line_one_integral(60)


# ---------------------------------------------------------------------------
# Mellin check
# ---------------------------------------------------------------------------


def test_mellin_check_examples():
    assert mellin_check(mpf("0.5"), 3, mpf("1e-3")) < mpf("1e-10")
    assert mellin_check(mpf("0.5"), 1, mpf("1e-2")) < mpf("1e-10")


def test_mellin_check_eps_zero_rejected():
    with pytest.raises(DomainError):
        mellin_check(mpf("0.5"), 3, 0)
    with pytest.raises(DomainError):
        mellin_check(0, 3, mpf("1e-3"))


def test_mellin_trend_toward_zero_damping():
    # the deviation stays tiny as eps shrinks: the undamped limit is sound
    devs = [mellin_check(mpf("0.5"), 3, mpf(e)) for e in ("1e-1", "1e-2", "1e-3")]
    assert all(d < mpf("1e-10") for d in devs)


# ---------------------------------------------------------------------------
# digamma-gap identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", ["0.5", "1", "2", "10"])
def test_digamma_gap_residual_tiny(x):
    assert digamma_gap_check(mpf(x), mpf("1e-20")) <= mpf("1e-20")


def test_digamma_gap_small_x_limit():
    # x -> 0: the sum tends to -ln 2 and the gap to 2 ln 2
    assert digamma_gap_check(mpf("1e-6"), mpf("1e-10")) < mpf("1e-5")


def test_digamma_gap_domain():
    with pytest.raises(DomainError):
        digamma_gap_check(0)


# ---------------------------------------------------------------------------
# Hurwitz double expansion
# ---------------------------------------------------------------------------


def test_hurwitz_expansion_interior_point():
    assert hurwitz_expansion_check(1, 40) < mpf("1e-10")


def test_hurwitz_expansion_decay_in_K():
    d2 = hurwitz_expansion_check(1, 2, digits=30)
    d3 = hurwitz_expansion_check(1, 3, digits=30)
    assert d3 < d2
    # the deviation tracks the first omitted term, i.e. halves per K step
    d20 = hurwitz_expansion_check(1, 20, digits=30)
    d21 = hurwitz_expansion_check(1, 21, digits=30)
    assert mpf("1.6") < d20 / d21 < mpf("2.4")


def test_hurwitz_expansion_boundary_oscillates():
    # at x = 0 the expansion sits exactly on its convergence radius: the
    # k-terms tend to +/-2 instead of vanishing and the truncated sum
    # oscillates around the target with O(1) amplitude
    d40 = hurwitz_expansion_check(0, 40, digits=30)
    d41 = hurwitz_expansion_check(0, 41, digits=30)
    assert mpf("0.5") < d40 < mpf("1.5")
    assert mpf("0.5") < d41 < mpf("1.5")


def test_hurwitz_expansion_domain():
    with pytest.raises(DomainError):
        hurwitz_expansion_check(-1, 10)
    with pytest.raises(DomainError):
        hurwitz_expansion_check(1, 1)


# ---------------------------------------------------------------------------
# eta zero line
# ---------------------------------------------------------------------------


def test_eta_zero_ordinates():
    with mp.workdps(40):
        assert abs(eta_zero_ordinate(1) - 2 * mp.pi / mp.log(2)) < mpf("1e-35")
        assert abs(eta_zero_ordinate(1) - mpf("9.0647202837")) < mpf("1e-9")
        assert abs(eta_zero_ordinate(2) - mpf("18.1294405673")) < mpf("1e-9")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_eta_vanishes_on_zero_line(k):
    assert eta_zero_scan(k, mpf("1e-13")) < mpf("1e-12")


def test_zeta_finite_nonzero_at_eta_zeros():
    for k in (1, 2, 3):
        z = zeta_oracle(mpc(1, eta_zero_ordinate(k)), mpf("1e-12"))
        assert mpf("0.1") < abs(z) < 10


def test_eta_zero_scan_rejects_zero_index():
    with pytest.raises(DomainError):
        eta_zero_scan(0)


# ---------------------------------------------------------------------------
# residue probe
# ---------------------------------------------------------------------------


def test_residue_probe_examples():
    p2 = residue_probe(mpf("1e-2"))
    p3 = residue_probe(mpf("1e-3"))
    assert p2 < mpf("6e-3")
    assert p3 < mpf("6e-4")
    assert mpf(8) < p2 / p3 < mpf(12)


def test_residue_probe_domain():
    with pytest.raises(DomainError):
        residue_probe(mpf("0.5"))
    with pytest.raises(DomainError):
        residue_probe(0)


# ---------------------------------------------------------------------------
# uniform-norm probes
# ---------------------------------------------------------------------------


def test_probe_bounds_hold_across_grid():
    for n in (1, 10, 100):
        for k in (2, 3, 4):
            p = uniform_norm_probe("2i", n, k, grid=300)
            assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))
        p = uniform_norm_probe("2ii", n, grid=300)
        assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))
        p = uniform_norm_probe("1", n, grid=300)
        assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))


def test_probe_published_bound_values():
    assert abs(uniform_norm_probe("2i", 10, 2).bound - mpf("0.0025")) < mpf("1e-20")
    assert abs(uniform_norm_probe("2ii", 5).bound - mpf(1) / 132) < mpf("1e-20")
    p = uniform_norm_probe("1", 100)
    assert abs(p.bound - mpf(1) / 101) < mpf("1e-20")
    assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))


def test_probe_bound_decay_rates():
    # lemma 1 bound halves when n doubles (large n); lemma 2i scales by
    # 2^-k exactly; lemma 2ii tends to 1/4
    b1 = uniform_norm_probe("1", 100).bound / uniform_norm_probe("1", 200).bound
    assert abs(1 / b1 - mpf("0.5")) < mpf("0.025")
    for k in (2, 3, 4):
        r = uniform_norm_probe("2i", 20, k).bound / uniform_norm_probe("2i", 10, k).bound
        assert abs(r - mpf(2) ** -k) < mpf("1e-20")
    r = uniform_norm_probe("2ii", 200).bound / uniform_norm_probe("2ii", 100).bound
    assert abs(r - mpf("0.25")) < mpf("0.0125")


def test_probe_argument_validation():
    with pytest.raises(DomainError):
        uniform_norm_probe("2i", 10, None)
    with pytest.raises(DomainError):
        uniform_norm_probe("1", 0)
    with pytest.raises(DomainError):
        uniform_norm_probe("1", 10, grid=50)
    with pytest.raises(DomainError):
        uniform_norm_probe("nope", 10)
