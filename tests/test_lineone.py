import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc

from zetakit import forensics as fx, lineone as lo, numerics as nm
from zetakit.errors import AccuracyError, ConfigError, DegeneracyError, DomainError, PoleError
from zetakit.lineone import (
    eta_zero_ordinate,
    eta_zero_scan,
    mellin_check,
    uniform_norm_probe,
    zeta_line_one,
    zeta_line_one_flat,
    zeta_line_one_integral,
)
from zetakit.precision import working
from zetakit.zetacore import zeta_eta_real, zeta_oracle

from conftest import run_fresh


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


@given(st.integers(min_value=2_000_000, max_value=100_000_000),
       st.integers(min_value=15, max_value=60), st.integers(min_value=6, max_value=20))
@settings(max_examples=30, deadline=None)
def test_eta_route_within_its_estimate_of_mpmath(b_e7, digits, e):
    # b in [0.2, 10] and tol down to 10^-min(20, digits-5)
    with mp.workdps(digits + 20):
        b = mpf(b_e7) / 10**7
        tol = mpf(10) ** -min(e, digits - 5)
        pt = zeta_line_one(b, tol, digits)
        assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error


@given(st.integers(min_value=2_000_000, max_value=400_000_000), st.booleans(),
       st.integers(min_value=15, max_value=100), st.data())
@settings(max_examples=30, deadline=None)
def test_eta_route_within_its_bound_of_mpmath_to_b_40(b_e7, negative, digits, data):
    # b in +-[0.2, 40] and tol from 1e-6 down to a tenth above the working floor
    e = data.draw(st.integers(min_value=6, max_value=digits + 9))
    with mp.workdps(digits + 20):
        b = mpf(-b_e7 if negative else b_e7) / 10**7
        pt = zeta_line_one(b, mpf(10) ** -e, digits)
        assert pt.terms_used >= 4
        assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error


def _prime_count(n):
    return sum(all(p % q for q in range(2, math.isqrt(p) + 1)) for p in range(2, n + 1))


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call and its result are recorded."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _count_everywhere(monkeypatch, name):
    """Wrap ``name`` in every zetakit module that binds it, all feeding one
    list of calls."""
    calls = []
    modules = [m for key, m in sys.modules.items()
               if key.startswith("zetakit") and hasattr(m, name)]
    real = getattr(modules[0], name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("route, arg", [("line", "0.5"), ("line", "14.134725"), ("line", "40"),
                                        ("zeros", "1"), ("real", "0.25"), ("real", "3"),
                                        ("flat", "0.5"), ("flat", "14.134725"), ("flat", "40")])
def test_eta_route_makes_one_planned_acceleration(monkeypatch, route, arg):
    # s = 1 + i arg on the line, 1 + i b_arg on the zero line, arg when
    # real, and i arg for the flat series; the acceleration is one weighted
    # sum of the integer kernel, of as many terms as the order, planned once
    # by the one eta quotient of numerics
    accels = _count_calls(monkeypatch, nm, "_crvz_sum")
    plans = _count_calls(monkeypatch, nm, "_accel_plan")
    digits = 50
    floor = mpf(10) ** -(digits + 10)
    with mp.workdps(digits + 20):
        if route in ("line", "flat"):
            b = mpf(arg)
            pref = abs(1 - mpf(2) ** mpc(0, -b))
            if route == "flat":
                point = zeta_line_one_flat(b, digits)
            else:
                point = zeta_line_one(b, mpf("1e-15"), digits)
            order, est = point.terms_used, point.est_error
        elif route == "zeros":
            b = eta_zero_ordinate(int(arg), digits + 10)
            pref, est = mpf(1), None
            eta_zero_scan(int(arg), digits)
            order = len(accels[0][0][0])
        else:
            b = mpf(0)
            pref = abs(1 - mpf(2) ** (1 - mpf(arg)))
            r = zeta_eta_real(mpf(arg), mpf("1e-15"), digits)
            order, est = r.terms_used, r.trunc_estimate
        assert len(accels) == 1 and len(plans) == 1
        assert len(accels[0][0][0]) == order
        (target, *_), (planned, bound) = plans[0]
        assert abs(target / (floor * pref) - 1) < mpf("1e-50")
        assert planned == order
        # C = 1/|Gamma(1+ib)| on Re(s) = 1 and 0, and C = 1 for real s;
        # the flat bound carries the factor 1 + kappa n
        c = 1 / abs(mp.gamma(mpc(1, b))) if b else mpf(1)
        kappa = mp.pi * (1 - 1 / mp.sqrt(2)) if route == "flat" else 0

        def theorem(n):
            return 2 * (1 + kappa * n) * c / (3 + mp.sqrt(8)) ** n

        # the least order whose bound meets the target, and that bound
        assert theorem(order) <= target < theorem(order - 1)
        assert abs(bound / theorem(order) - 1) < mpf("1e-50")
        if est is not None:
            assert abs(est - (bound + mpf(10) ** -(digits + 2)) / pref) <= mpf("1e-50") * est


@pytest.mark.parametrize("route, b", [("line", "0.5"), ("line", "14.134725"), ("line", "40"),
                                      ("zeros", "2")])
def test_eta_acceleration_makes_one_cis_per_prime(monkeypatch, route, b):
    # n^-(1+ib) is multiplicative: one fixed-point cos/sin pair of -b ln p
    # per prime p <= order, and no mpf expj
    accels = _count_calls(monkeypatch, nm, "_crvz_sum")
    cis = _count_calls(monkeypatch, nm, "cos_sin_fixed")
    expj = _count_calls(monkeypatch, mp, "expj")
    if route == "line":
        zeta_line_one(mpf(b), mpf("1e-15"), 50)
    else:
        eta_zero_scan(int(b), 50)
    (re, _, _), _ = accels[0]
    assert len(accels) == 1
    assert len(cis) == _prime_count(len(re))
    assert not expj


@pytest.mark.parametrize("b", ["0.5", "14.134725", "40"])
@pytest.mark.parametrize("digits", [50, 100])
def test_oracle_makes_one_cis_per_prime(monkeypatch, b, digits):
    # the oracle's direct block at s = 1+ib reads the same multiplicative
    # table: one fixed-point cos/sin pair per prime p <= N of its plan,
    # none per term, and no mpf expj
    plans = _count_calls(monkeypatch, nm, "euler_maclaurin_plan")
    cis = _count_calls(monkeypatch, nm, "cos_sin_fixed")
    expj = _count_calls(monkeypatch, mp, "expj")
    with mp.workdps(digits + 10):
        s = mpc(1, mpf(b))
    zeta_oracle(s, mpf("1e-20"), digits)
    (_, (N, _)), = plans
    assert N > 0
    assert len(cis) == _prime_count(N)
    assert not expj


def test_eta_route_tol_guards_the_working_floor(monkeypatch):
    accels = _count_calls(monkeypatch, nm, "_crvz_sum")
    with pytest.raises(AccuracyError, match="below the working-precision floor"):
        zeta_line_one(1, mpf("1e-61"), 50)
    assert not accels
    zeta_line_one(1, mpf("1e-60"), 50)
    assert len(accels) == 1
    with pytest.raises(AccuracyError, match="below the working-precision floor"):
        zeta_line_one(1, mpf("1e-61"), 50)
    assert len(accels) == 1


class _LoglessContext:
    """mpmath's context with its logarithms taken away: in place of the
    ``mp`` that numerics reads, any ``mp.log`` or ``mp.expm1`` there fails
    the test."""

    def __init__(self, ctx):
        self._ctx = ctx

    def __getattr__(self, name):
        if name in ("log", "expm1"):
            raise AssertionError(f"mp.{name} at the working precision ran before the refusal")
        return getattr(self._ctx, name)


@pytest.mark.parametrize("call", [
    lambda: zeta_line_one(1, mpf("1e-100"), 20000),
    lambda: zeta_line_one_flat(1, 20000),
    lambda: zeta_line_one(mpf("1e400")),
], ids=["eta", "flat", "b-past-the-float-range"])
def test_eta_route_refuses_an_order_past_capacity_before_planning(monkeypatch, call):
    # 20,000 digits at b = 1 need order 26,140, and |b| = 1e400 an order
    # past every float: a 53-bit estimate in the plan refuses both before
    # it takes a logarithm at the working precision
    plans = _count_calls(monkeypatch, nm, "_accel_plan")
    monkeypatch.setattr(nm, "mp", _LoglessContext(nm.mp))
    with pytest.raises(ConfigError, match="exceeds table capacity 10000"):
        call()
    assert plans == []


def test_accel_plan_refuses_exactly_the_orders_past_capacity():
    # the plan's bound at order n, transcribed: a target just above the
    # bound at 10,000 plans that order, and one just below it, whose order
    # is 10,001, is refused
    for digits, b in itertools.product((15, 50, 300), (0, "1e-100", "0.5", "1", "40", "400")):
        with mp.workdps(digits + 10):
            kappa = mp.pi * (1 - 1 / mp.sqrt(2))
            b = mpf(b)
            c = mp.sqrt(mp.sinh(mp.pi * b) / (mp.pi * b)) if b else 1
            for flat in (False, True):
                def bound(n):
                    return 2 * (1 + kappa * n if flat else 1) * c / (3 + mp.sqrt(8)) ** n

                for n in (9_999, 10_000):
                    order, _ = nm._accel_plan(bound(n) * (1 + mpf("1e-6")), b, flat)
                    assert order == n, (digits, b, flat)
                for n in (10_001, 10_002, 20_000):
                    with pytest.raises(ConfigError, match="exceeds table capacity 10000"):
                        nm._accel_plan(bound(n) * (1 + mpf("1e-6")), b, flat)
                with pytest.raises(ConfigError, match="exceeds table capacity 10000"):
                    nm._accel_plan(bound(10_000) * (1 - mpf("1e-6")), b, flat)


@pytest.mark.parametrize("call", [
    "from zetakit.lineone import mellin_check; mellin_check(10**4, 0.01, 30)",
    "from mpmath import mpf; from zetakit.numerics import digamma_gap; "
    "digamma_gap(mpf('0.1'), 8000)",
], ids=["mellin", "gap-taylor"])
def test_planned_acceleration_past_capacity_fails_fast_in_a_fresh_process(call):
    # the Mellin audit's sums plan order 17,878 and the gap's Taylor table
    # 10,464; each is refused by its plan before any term is formed
    code = (
        "from zetakit.errors import ConfigError\n"
        "try:\n"
        f"    {call}\n"
        "except ConfigError as e:\n"
        "    assert 'exceeds table capacity 10000' in str(e), e\n"
        "else:\n"
        "    raise SystemExit('no ConfigError')\n"
    )
    run_fresh(["-c", code], check=True, timeout=5)


# ---------------------------------------------------------------------------
# flat (Abel-regularized) route
# ---------------------------------------------------------------------------


def test_flat_route_identity_and_deviation():
    pt = zeta_line_one_flat(1)
    # the regularized series evaluates to (1-2^(1-ib)) zeta(ib)/(1-2^(-ib))
    s0 = mpc(0, 1)
    z0 = zeta_oracle(s0, mpf("1e-20"))
    target = (1 - 2 ** (1 - s0)) * z0 / (1 - 2 ** (-s0))
    assert abs(pt.value - target) < mpf("1e-8")
    # and is NOT zeta(1+ib)
    z1 = zeta_line_one(1, mpf("1e-12")).value
    assert abs(pt.value - z1) > mpf("0.1")
    assert pt.method == "flat"


@given(st.integers(min_value=2_000_000, max_value=400_000_000),
       st.integers(min_value=15, max_value=120))
@settings(max_examples=30, deadline=None)
def test_flat_route_within_its_estimate_of_its_identity(b_e7, digits):
    # b in [0.2, 40] against the mpmath transcription of the regularized
    # sum; the estimate itself carries every working digit
    with mp.workdps(digits + 20):
        b = mpf(b_e7) / 10**7
        s0 = mpc(0, b)
        pref = 1 - 2 ** (-s0)
        target = (1 - 2 ** (1 - s0)) * mp.zeta(s0) / pref
        pt = zeta_line_one_flat(b, digits)
        assert abs(pt.value - target) <= pt.est_error
        assert pt.est_error * abs(pref) <= mpf(10) ** -(digits + 1)


def test_flat_route_degenerate_at_zero_line():
    with pytest.raises(DegeneracyError):
        zeta_line_one_flat(eta_zero_ordinate(1))


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


@pytest.mark.parametrize("b", ["0.5", "1", "5", "-5", "14.134725", "-14.134725"])
def test_integral_route_error_estimate_is_honest(b):
    # mpmath's zeta is an outside oracle; the argument is built at the test
    # precision (conftest's 60 digits)
    b = mpf(b)
    for tol in (mpf("1e-9"), mpf("1e-30")):
        pt = zeta_line_one_integral(b, tol, digits=50)
        assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error <= tol, tol


@given(st.integers(min_value=5_000_000, max_value=200_000_000), st.booleans(),
       st.sampled_from(["1e-9", "1e-20", "1e-30"]), st.integers(min_value=30, max_value=60))
@settings(max_examples=30, deadline=None)
def test_integral_route_within_its_estimate_of_mpmath_to_b_20(b_e7, negative, tol, digits):
    # b in +-[0.5, 20]: up to 2,801 nodes, so e^(kh), e^(-kh) and cis(bkh)
    # run the longest fixed-point recurrences the route makes below |b| = 20
    with mp.workdps(digits + 20):
        b = mpf(-b_e7 if negative else b_e7) / 10**7
        pt = zeta_line_one_integral(b, mpf(tol), digits)
        assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error <= mpf(tol)


@pytest.mark.parametrize("b, tol, digits", [
    ("1", "1e-30", 1000), ("25", "1e-20", 2000), ("3", "1e-100", 1000),
    ("0.001", "1e-40", 400), ("40", "1e-30", 300),
])
def test_integral_route_within_its_estimate_at_high_digits(b, tol, digits):
    # the sum's digits come from b and tol alone, so --digits 1000 or 2000
    # no longer sums every node at that precision; the value stays within
    # est_error of mpmath, run at the digits that resolve tol
    pt = zeta_line_one_integral(b, tol, digits)
    with mp.workdps(-mp.mag(mpf(tol)) // 3 + 20):
        assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error <= mpf(tol)


@pytest.mark.parametrize("digits", [30, 50])
@pytest.mark.parametrize("k, delta", [(1, "1e-11"), (1, "3e-11"), (2, "1e-11"), (2, "3e-11"),
                                      (3, "1e-11")])
@pytest.mark.parametrize("tol_digits", [3, 10])
def test_integral_route_within_its_estimate_near_the_zero_line(k, delta, digits, tol_digits):
    # |1 - 2^(-ib)| is about 1e-11 here: the prefactor and the assembly run
    # 14 digits above the working precision, so eta / pref keeps its bound
    # (at the working precision its rounding alone is 1e4 times the bound),
    # down to a tol at the working floor 10^-(digits+10), given as a string
    # so that the route rounds it as it rounds the floor
    with mp.workdps(digits + 20):
        b = 2 * k * mp.pi / mp.log(2) + mpf(delta)
        tol = f"1e-{digits + tol_digits}"
        pt = zeta_line_one_integral(b, tol, digits)
        tol = mpf(tol)
        assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error <= tol


def test_integral_route_tol_guards_the_working_floor(monkeypatch):
    # the value is rounded about 10^-(digits+10) relative, so a tol below
    # that floor would claim an est_error the value misses (tol 1e-80 at 30
    # digits: est_error 4.9e-81 against a miss of 1.1e-53)
    gaps = _count_calls(monkeypatch, lo, "_digamma_gap_fixed")
    with pytest.raises(AccuracyError, match="below the working-precision floor"):
        zeta_line_one_integral(1, mpf("1e-41"), 30)
    assert not gaps
    pt = zeta_line_one_integral(1, mpf("1e-40"), 30)
    with mp.workdps(60):
        assert abs(pt.value - mp.zeta(mpc(1, 1))) <= pt.est_error <= mpf("1e-40")


def test_integral_route_near_pole_grows():
    pt = zeta_line_one_integral(mpf("0.01"), mpf("1e-8"))
    assert abs(pt.value) > 50  # ~ 1/(b ln 2)
    assert abs(mpc(0, mpf("0.01")) * pt.value - 1) < mpf("0.01")


def test_integral_route_domain():
    with pytest.raises(DomainError):
        zeta_line_one_integral(mpf("1e-4"))
    with pytest.raises(DomainError):
        zeta_line_one_integral(60)


@pytest.mark.parametrize("built, digits", [(60, 50), (420, 400), (30, 15)])
def test_integral_route_domain_edge_does_not_depend_on_the_precision_of_b(built, digits):
    # b = 0.001 built above the route's precision, whose rounding there may
    # fall below 1e-3 rounded there, is still in range; a value one part in
    # 10^6 below 1e-3, and |b| = 50.001, are still refused
    with mp.workdps(built):
        edge = mpf("0.001")
        outside = edge * (1 - mpf("1e-6")), mpf("50.001"), mpf("-50.001")
    for b in (edge, -edge):
        pt = zeta_line_one_integral(b, digits=digits)
        with mp.workdps(30):
            assert abs(pt.value - mp.zeta(mpc(1, b))) <= pt.est_error
    for b in outside:
        with pytest.raises(DomainError, match=r"1e-3 <= \|b\| <= 50"):
            zeta_line_one_integral(b, digits=digits)


# ---------------------------------------------------------------------------
# Mellin check
# ---------------------------------------------------------------------------


def test_mellin_check_examples():
    assert mellin_check(mpf("0.5"), mpf("1e-3")) < mpf("1e-10")
    assert mellin_check(mpf("0.5"), mpf("1e-2")) < mpf("1e-10")


def test_mellin_check_eps_zero_rejected():
    with pytest.raises(DomainError):
        mellin_check(mpf("0.5"), 0)
    with pytest.raises(DomainError):
        mellin_check(0, mpf("1e-3"))


def test_mellin_check_accepts_the_upper_end():
    # 0.1 is in (0, 0.1] however it arrives: as a float, as an mpf made at
    # mpmath's default 15 digits, or as a string read at the working precision
    with mp.workdps(15):
        eps15 = mpf("0.1")
    for eps in (0.1, eps15, "0.1", mpf("0.1")):
        assert mellin_check(mpf("0.5"), eps) <= mpf("1e-12"), eps


def test_mellin_check_names_the_violated_end():
    with pytest.raises(DomainError, match="only for eps > 0"):
        mellin_check(mpf("0.5"), mpf("-1e-3"))
    with pytest.raises(DomainError, match="exceeds 0.1"):
        mellin_check(mpf("0.5"), mpf("0.1000001"))
    with pytest.raises(DomainError, match="exceeds 0.1"):
        mellin_check(mpf("0.5"), 0.2)


def test_mellin_trend_toward_zero_damping():
    # the deviation stays tiny as eps shrinks: the undamped limit is sound
    for b, e, digits in itertools.product(("0.5", "3", "10"), ("1e-1", "1e-2", "1e-3"), (30, 50)):
        dev = mellin_check(mpf(b), mpf(e), digits=digits)
        assert dev <= mpf("1e-12"), (b, e, digits, dev)


def test_mellin_deviation_near_the_working_floor(monkeypatch):
    # two planned accelerations and no quadrature: over the same grid each
    # deviation is within 10^-(digits-2), from two weighted sums per call
    quad = _count_everywhere(monkeypatch, "integrate_interval")
    accels = _count_calls(monkeypatch, lo, "_crvz_sum")
    grid = list(itertools.product(("0.5", "3", "10"), ("1e-1", "1e-2", "1e-3"), (30, 50)))
    for b, e, digits in grid:
        dev = mellin_check(mpf(b), mpf(e), digits=digits)
        assert dev <= mpf(10) ** -(digits - 2), (b, e, digits, dev)
    assert not quad
    assert len(accels) == 2 * len(grid)


def test_mellin_sums_plan_for_their_moment_constants(monkeypatch):
    # S_1 has C <= 1/eps and S_2 C <= 1/(1-eps); the floor is padded by
    # ceil(pi b / ln 10) digits
    plans = _count_calls(monkeypatch, lo, "_accel_plan")
    digits, b, eps = 30, mpf(3), mpf("1e-3")
    mellin_check(b, eps, digits=digits)
    pad = math.ceil(math.pi * 3 / math.log(10))
    floor = mpf(10) ** -(digits + pad + 10)
    (first, _), (second, _) = plans
    assert abs(first[0] / (floor * eps) - 1) < mpf("1e-30")
    assert abs(second[0] / (floor * (1 - eps)) - 1) < mpf("1e-30")


# ---------------------------------------------------------------------------
# digamma-gap identity (the audit's two readings, forensics eq42)
# ---------------------------------------------------------------------------


def gap_identity_residual(x, digits=50):
    """|gap/2 - sum (-1)^(n-1)/(x+n)| from eq42's two readings."""
    with working(digits):
        alt, gap = fx._gap_identity_sides(mpf(x), digits)
        return abs(gap / 2 - alt)


@pytest.mark.parametrize("x", ["0.5", "1", "2", "10"])
def test_digamma_gap_residual_tiny(x):
    assert gap_identity_residual(x) <= mpf("1e-20")


def test_digamma_gap_small_x_limit():
    # x -> 0: the sum tends to -ln 2 and the gap to 2 ln 2
    assert gap_identity_residual("1e-6") < mpf("1e-5")


# ---------------------------------------------------------------------------
# Hurwitz double expansion (forensics eq49)
# ---------------------------------------------------------------------------


def expansion_deviation(x, K, digits=50):
    """|gap - 2 sum_{k=2}^{K} (-1/2)^k zeta(k, (x+1)/2)| from eq49's two
    readings."""
    with working(digits):
        x = mpf(x)
        return abs(fx._digamma_gap(x, digits) - fx._hurwitz_expansion(x, K, digits))


def test_hurwitz_expansion_interior_point():
    assert expansion_deviation(1, 40) < mpf("1e-10")


def test_hurwitz_expansion_decay_in_K():
    d2 = expansion_deviation(1, 2, digits=30)
    d3 = expansion_deviation(1, 3, digits=30)
    assert d3 < d2
    # the deviation tracks the first omitted term, i.e. halves per K step
    d20 = expansion_deviation(1, 20, digits=30)
    d21 = expansion_deviation(1, 21, digits=30)
    assert mpf("1.6") < d20 / d21 < mpf("2.4")


def test_hurwitz_expansion_boundary_oscillates():
    # at x = 0 the expansion sits exactly on its convergence radius: the
    # k-terms tend to +/-2 instead of vanishing and the truncated sum
    # oscillates around the target with O(1) amplitude
    d40 = expansion_deviation(0, 40, digits=30)
    d41 = expansion_deviation(0, 41, digits=30)
    assert mpf("0.5") < d40 < mpf("1.5")
    assert mpf("0.5") < d41 < mpf("1.5")


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
    assert eta_zero_scan(k) < mpf("1e-12")


@pytest.mark.parametrize("digits", [30, 50, 100])
def test_eta_zero_scan_reaches_the_rounding_floor(digits):
    for k in range(1, 6):
        assert eta_zero_scan(k, digits) <= mpf(10) ** -(digits + 2), k


def test_zeta_finite_nonzero_at_eta_zeros():
    for k in (1, 2, 3):
        z = zeta_oracle(mpc(1, eta_zero_ordinate(k)), mpf("1e-12"))
        assert mpf("0.1") < abs(z) < 10


def test_eta_zero_scan_rejects_zero_index():
    with pytest.raises(DomainError):
        eta_zero_scan(0)


# ---------------------------------------------------------------------------
# uniform-norm probes
# ---------------------------------------------------------------------------


def test_probe_bounds_hold_across_grid():
    for n in (1, 10, 100):
        for k in (2, 3, 4):
            p = uniform_norm_probe("2i", n, k)
            assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))
        p = uniform_norm_probe("2ii", n)
        assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))
        p = uniform_norm_probe("1", n)
        assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))


def _probe_reference(lemma, n, k, grid, digits):
    """The plain mpf grid scan: every point, in grid order."""
    with mp.workdps(digits + 10):
        lo, hi = (mpf(1), mpf(200)) if lemma == "1" else (mpf(0), mpf(100))
        step = (hi - lo) / (grid - 1)
        f = {
            "1": lambda x: 1 / (x * (x + n)),
            "2i": lambda x: (1 / (2 * n + x + 1)) ** k,
            "2ii": lambda x: 1 / ((2 * n + x + 1) * (2 * n + x + 2)),
        }[lemma]
        sup = mpf(0)
        for i in range(grid):
            v = f(lo + i * step)
            if v > sup:
                sup = v
        return sup


@pytest.mark.parametrize(
    "lemma, k",
    [("1", None), ("2ii", None)] + [("2i", k) for k in (2, 4, 47, 60)],
)
@pytest.mark.parametrize("n", [1, 10, 100, 10**6, 10**400])
def test_probe_screen_matches_full_mpf_scan(lemma, n, k):
    # every family decreases in x, so the value at the left end must be
    # bit for bit the supremum of any grid that starts there, including
    # where rounding flattens the family (n = 10^400) or k is large
    for digits in (15, 50):
        p = uniform_norm_probe(lemma, n, k, digits=digits)
        for grid in (100, 400, 1237):
            ref = _probe_reference(lemma, n, k, grid, digits)
            assert p.grid_sup._mpf_ == ref._mpf_, (grid, digits)


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
        uniform_norm_probe("nope", 10)
