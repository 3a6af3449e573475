import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

import zetakit.oddzeta as oz
from zetakit.errors import AccuracyError, DegeneracyError, DomainError
from zetakit.oddzeta import (
    f_ratio,
    odd_error_table,
    zeta_known_ref,
    zeta_odd_closed,
    zeta_odd_literature,
    zeta_odd_prime,
)
from zetakit.numerics import hurwitz_zeta
from zetakit.precision import working
from zetakit.zetacore import zeta_oracle

from test_lineone import _count_everywhere


def ref_zeta(arg, tol="1e-40"):
    return zeta_oracle(arg, mpf(tol)).real


# ---------------------------------------------------------------------------
# f_ratio
# ---------------------------------------------------------------------------


def test_f_ratio_raises_on_unconverged_prime_sum():
    # the exact tails carry every working digit, so only a tol below the
    # working floor 1e-60 (at 50 digits) is out of reach: t(2) must not
    # pass silently into f_direct
    with pytest.raises(AccuracyError, match=r"t\(2\)") as info:
        f_ratio(1, "direct", mpf("1e-70"), digits=50)
    assert info.value.achieved > mpf("1e-70")


def test_f_ratio_at_one():
    sample = f_ratio(1, "closed", mpf("1e-5"))
    assert abs(sample.f_closed - mpf("2.13")) < mpf("0.02")
    assert sample.f_direct is None
    assert sample.f == sample.f_closed
    direct = f_ratio(1, "direct", mpf("1e-5"))
    assert abs(direct.f_direct - mpf("2.08")) < mpf("0.01")
    assert direct.f == direct.f_direct
    assert direct.f_closed == sample.f_closed
    assert sample.reference_zetas["zeta_2s"] > 1


def test_f_ratio_tends_to_two():
    assert abs(f_ratio(20, "closed", mpf("1e-10")).f_closed - 2) < mpf("1e-5")
    assert abs(f_ratio(20, "direct", mpf("1e-10")).f_direct - 2) < mpf("1e-5")


def test_f_ratio_closed_makes_no_direct_sum(monkeypatch):
    # closed mode never reads a true prime tail, so it must not compute one
    def refuse(*args, **kwargs):
        raise AssertionError("closed-mode f_ratio called _t_exact")

    monkeypatch.setattr(oz, "_t_exact", refuse, raising=True)
    sample = f_ratio(1)
    assert sample.f_direct is None
    assert abs(sample.f_closed - mpf("2.13")) < mpf("0.02")


def test_f_ratio_errors():
    with pytest.raises(DomainError):
        f_ratio(0)
    with pytest.raises(DomainError):
        f_ratio(1, "bogus")


# ---------------------------------------------------------------------------
# closed-form approximation
# ---------------------------------------------------------------------------


def test_odd_closed_against_published_table():
    assert abs(zeta_odd_closed(1, 2) - mpf("1.21992")) < mpf("1e-4")
    # the published value column rounds 1.0085911 to "1.00861" (its own
    # difference column 2.4187e-4 pins the unrounded value), so 5e-5 is the
    # honest agreement level for this row
    assert abs(zeta_odd_closed(3, 2) - mpf("1.00861")) < mpf("5e-5")
    assert abs(zeta_odd_closed(3, 2) - mpf("1.0085911489")) < mpf("1e-10")


def test_odd_closed_with_measured_f_is_identity():
    for s in (1, 2, 5):
        f = f_ratio(s, "closed", mpf("1e-6")).f_closed
        v = zeta_odd_closed(s, f)
        assert abs(v - ref_zeta(2 * s + 1)) < mpf(10) ** (-(50 - 8))


def test_odd_closed_self_consistency_sweep():
    for s in range(1, 11):
        f = f_ratio(s, "closed", mpf("1e-6")).f_closed
        assert abs(zeta_odd_closed(s, f) - ref_zeta(2 * s + 1)) < mpf("1e-42")


def test_odd_closed_needs_no_odd_zeta_inputs(monkeypatch):
    # the closed-form route consumes only zeta(2s) and f: make every other
    # zeta evaluator and prime-tail route explode if touched
    def boom(*a, **k):
        raise AssertionError("closed-form route must not call this")

    for name in ("_zeta_orders", "zeta_reference", "_t_exact"):
        monkeypatch.setattr(oz, name, boom, raising=True)
    v = zeta_odd_closed(3, 2)
    assert abs(v - mpf("1.0085911489")) < mpf("1e-10")


def test_odd_closed_errors():
    with pytest.raises(DomainError):
        zeta_odd_closed(0, 2)
    with pytest.raises(DomainError):
        zeta_odd_closed(1, -1)
    # f = A/c1 makes the denominator vanish
    with mp.workdps(60):
        z2 = mp.pi ** 2 / 6
        A = 1 - mpf(1) / 4 - (1 - mpf(1) / 3) / z2
        c1 = 1 - mpf(1) / 8
        with pytest.raises(DegeneracyError):
            zeta_odd_closed(1, A / c1)


def test_monotone_f_approach():
    devs = []
    for s in range(2, 16):
        devs.append(abs(f_ratio(s, "closed", mpf("1e-6")).f_closed - 2))
    for a, b in zip(devs, devs[1:]):
        assert b < a


# ---------------------------------------------------------------------------
# literal prime-sum form
# ---------------------------------------------------------------------------


def test_odd_prime_differs_from_table():
    v = zeta_odd_prime(1, 2)
    assert abs(v - mpf("1.1576")) < mpf("2e-3")
    # far from both the true zeta(3) and the closed-form value
    assert abs(v - ref_zeta(3)) > mpf("0.04")


def test_odd_prime_converges_to_reference():
    # the literal prime-sum form keeps the full f = 2 bias (~|f(s)-2|/2),
    # so its error shrinks with s but much more slowly than the closed
    # variant: ~6e-3 at s = 5, under 1e-3 only from s ~ 8
    err5 = abs(zeta_odd_prime(5, 2) - ref_zeta(11))
    assert err5 < mpf("1e-2")
    err8 = abs(zeta_odd_prime(8, 2) - ref_zeta(17))
    assert err8 < mpf("1e-3")
    assert err8 < err5


def test_odd_prime_identity_with_measured_f():
    # the identity holds exactly for any prime cutoff as long as both sides
    # share it, so a loose tolerance is fine here
    tol = mpf("1e-6")
    for s in (1, 3):
        f = f_ratio(s, "direct", tol).f_direct
        v = zeta_odd_prime(s, f)
        # identical t values cancel: the residual is only the difference
        # between the two zeta(2s) sources (closed form vs oracle)
        assert abs(v - ref_zeta(2 * s + 1)) < mpf("1e-40")


# ---------------------------------------------------------------------------
# exact reference representations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("target", [3, 5, 7])
def test_known_ref_constants(target):
    v = zeta_known_ref(target, mpf("1e-40"))
    assert abs(v - ref_zeta(target)) < mpf("1e-30")


def test_known_ref_domain():
    with pytest.raises(DomainError):
        zeta_known_ref(9, mpf("1e-10"))


# ---------------------------------------------------------------------------
# literature series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_literature_eq24(n):
    v = zeta_odd_literature(n, "eq24", mpf("1e-22"))
    assert abs(v - ref_zeta(2 * n + 1)) < mpf("1e-20")


@pytest.mark.parametrize("variant", ["eq25", "eq26"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_literature_hurwitz_variants(variant, n):
    v = zeta_odd_literature(n, variant, mpf("1e-14"))
    assert abs(v - ref_zeta(2 * n + 1)) < mpf("1e-12")


@pytest.mark.parametrize("n", [1, 2])
def test_literature_eq23(n):
    v = zeta_odd_literature(n, "eq23", mpf("1e-10"))
    assert abs(v - ref_zeta(2 * n + 1)) < mpf("1e-10")


@pytest.mark.parametrize(
    "m, digits, variant",
    [
        # eq23 cases keep plain m-digits ids; the other variants add a suffix
        pytest.param(m, digits, v, id=f"{m}-{digits}" + ("" if v == "eq23" else f"-{v}"))
        for v in oz.LITERATURE_VARIANTS
        for m in range(1, 8)
        for digits in (30, 50, 80, 100)
    ],
)
def test_literature_eq23_against_mpmath(m, digits, variant):
    tol = mpf(10) ** -(digits - 10)
    v = zeta_odd_literature(m, variant, tol, digits=digits)
    with mp.workdps(digits + 20):
        assert abs(v - mp.zeta(2 * m + 1)) <= tol


@pytest.mark.parametrize("variant", oz.LITERATURE_VARIANTS)
def test_literature_series_evaluated_once_per_level(variant, monkeypatch):
    # each lower odd value is computed once, so zeta(2n+1) costs exactly n
    # series evaluations: eq23 sums one _eq23_head per level, eq24-26 one
    # _lit_even_sum per level; the Hurwitz numerators zeta(2j, 1/3 or 1/4)
    # of eq25 and eq26 come from one Euler-Maclaurin pass over 2, 4, ...,
    # 2n, and no variant calls hurwitz_zeta
    levels = [_count_everywhere(monkeypatch, name) for name in ("_eq23_head", "_lit_even_sum")]
    passes = _count_everywhere(monkeypatch, "_em_orders")
    singles = _count_everywhere(monkeypatch, "hurwitz_zeta")
    for n in range(1, 8):
        for calls in levels + [passes]:
            calls.clear()
        zeta_odd_literature(n, variant, mpf("1e-20"), digits=30)
        assert sum(map(len, levels)) == n, n
        if variant in ("eq25", "eq26"):
            (orders, a, *_), = passes
            assert list(orders) == list(range(2, 2 * n + 1, 2)), n
            assert abs(a * (3 if variant == "eq25" else 4) - 1) < mpf("1e-35"), n
        else:
            assert passes == [], n
    assert singles == []


@pytest.mark.parametrize("digits", [15, 30, 50, 100])
@pytest.mark.parametrize("variant", ["eq25", "eq26"])
def test_literature_numerators_equal_per_order_hurwitz_values(variant, digits):
    # the one pass gives each numerator the bits of its own hurwitz_zeta
    # call, whatever the length n of the run
    q = 3 if variant == "eq25" else 4
    with working(digits):
        single = []
        for j in range(1, 21):
            z = hurwitz_zeta(2 * j, mpf(1) / q, digits=digits)
            even = oz._zeta_even_interior(2 * j, digits)
            if q == 3:
                single.append(2 * z - (mpf(3) ** (2 * j) - 1) * even)
            else:
                single.append(z - mpf(2) ** (2 * j - 1) * (mpf(2) ** (2 * j) - 1) * even)
    for n in range(1, 21):
        assert oz._lit_numerators(n, variant, digits) == single[:n], n


@pytest.mark.parametrize("two_k", [62, 80, 100, 150, 400])
def test_zeta_even_interior_at_100_digits(two_k):
    # past the Bernoulli closed form the direct sum must still carry every
    # working digit: 11 fixed terms miss zeta(62) by about 12^-62
    with mp.workdps(130):
        assert abs(oz._zeta_even_interior(two_k, 100) - mp.zeta(two_k)) <= mpf(10) ** -108


def test_zeta_even_interior_memo_is_exact():
    # the memo returns the bits of a fresh call, whatever the caller's
    # precision, on both sides of the closed-form/direct-sum switch
    memo = oz._zeta_even_interior
    for digits in (15, 30, 50, 100):
        edge = max(60, digits + 12)
        for two_k in (edge - 2, edge, edge + 2, edge + 4):
            fresh = memo.__wrapped__(two_k, digits)
            assert memo(two_k, digits)._mpf_ == fresh._mpf_
            memo.cache_clear()
            with mp.workdps(15):
                low = memo(two_k, digits)
            memo.cache_clear()
            with mp.workdps(200):
                high = memo(two_k, digits)
            assert low._mpf_ == high._mpf_ == fresh._mpf_
    # each precision keeps its own entry
    memo.cache_clear()
    values = [memo(80, digits) for digits in (15, 30, 50, 100)]
    assert memo.cache_info().currsize == 4
    assert len({v._mpf_ for v in values}) == 4


@given(st.sampled_from([3, 5, 7]), st.integers(min_value=15, max_value=120), st.data())
@settings(max_examples=40, deadline=None)
def test_known_ref_within_tol_of_mpmath(target, digits, data):
    # every precision and tolerance the series allow, against mp.zeta at
    # 20 digits past the working precision
    e = data.draw(st.integers(min_value=6, max_value=digits - 5))
    with mp.workdps(digits + 20):
        tol = mpf(10) ** -e
        value = zeta_known_ref(target, tol, digits)
        miss = abs(value - mp.zeta(target))
        assert miss <= tol
        # the sums are planned for the working floor, whatever tol is
        assert miss <= mpf(10) ** -(digits + 2)


@given(
    st.sampled_from(oz.LITERATURE_VARIANTS),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=15, max_value=120),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_literature_within_floor_of_mpmath(variant, n, digits, data):
    # every level is planned for the floor 10^-(digits+10): the value misses
    # mp.zeta (run 20 digits higher) by at most 10^-(digits+2), and two
    # tolerances from the floor up to 1e-6 give the same bits
    e1, e2 = (data.draw(st.integers(min_value=6, max_value=digits + 10)) for _ in range(2))
    with mp.workdps(digits + 20):
        value = zeta_odd_literature(n, variant, mpf(10) ** -e1, digits)
        other = zeta_odd_literature(n, variant, mpf(10) ** -e2, digits)
        assert value._mpf_ == other._mpf_
        assert abs(value - mp.zeta(2 * n + 1)) <= mpf(10) ** -(digits + 2)


@pytest.mark.parametrize("call", [
    lambda tol: zeta_known_ref(3, tol, 30),
    lambda tol: zeta_odd_literature(3, "eq24", tol, 30),
    lambda tol: zeta_odd_literature(2, "eq23", tol, 30),
], ids=["ref3", "eq24", "eq23"])
def test_tol_below_floor_raises_before_any_term(call, monkeypatch):
    # the floor at 30 digits is 1e-40; below it nothing is summed
    def refuse(*args):
        raise AssertionError("an even zeta value was read")

    monkeypatch.setattr(oz, "_zeta_even_interior", refuse)
    with pytest.raises(AccuracyError, match="floor"):
        call(mpf("1e-41"))


def test_literature_errors():
    with pytest.raises(DomainError):
        zeta_odd_literature(0, "eq24", mpf("1e-10"))
    with pytest.raises(DomainError):
        zeta_odd_literature(1, "eq99", mpf("1e-10"))


# ---------------------------------------------------------------------------
# error table
# ---------------------------------------------------------------------------


def test_error_table_shape_and_diffs():
    rows = odd_error_table(15, 2, mpf("1e-25"))
    assert [r.argument for r in rows] == [3, 5, 7, 9, 11, 13, 15]
    for r in rows:
        assert abs(r.abs_diff - abs(r.formula_value - r.reference_value)) == 0
    published = {
        3: "1.7861e-2", 5: "2.3021e-3", 7: "2.4187e-4", 9: "2.5985e-5",
        11: "2.8476e-6", 13: "3.1468e-7", 15: "3.4890e-8",
    }
    for r in rows:
        # two significant figures against the published difference column
        assert f"{float(r.abs_diff):.1e}" == f"{float(mpf(published[r.argument])):.1e}"


def test_error_table_single_row():
    rows = odd_error_table(3, 2, mpf("1e-25"))
    assert len(rows) == 1
    assert abs(rows[0].abs_diff - mpf("1.7861e-2")) < mpf("1e-4")


def test_error_table_decay_band():
    rows = odd_error_table(15, 2, mpf("1e-25"))
    diffs = {r.argument: r.abs_diff for r in rows}
    for s in range(2, 7):
        ratio = diffs[2 * s + 3] / diffs[2 * s + 1]
        assert mpf(1) / 12 <= ratio <= mpf(1) / 7


def test_error_table_domain():
    with pytest.raises(DomainError):
        odd_error_table(4, 2)
