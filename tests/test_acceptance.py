"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a PASS line when it holds (run with ``pytest -s`` to see them)."""

import time

import pytest
from mpmath import mp, mpf, mpc

from zetakit.forensics import forensics
from zetakit.lineone import (
    digamma_gap_check,
    eta_zero_ordinate,
    eta_zero_scan,
    uniform_norm_probe,
    zeta_line_one,
    zeta_line_one_flat,
    zeta_line_one_integral,
)
from zetakit.oddzeta import f_ratio, odd_error_table, zeta_known_ref, zeta_odd_literature
from zetakit.primetail import t_closed, t_direct
from zetakit.zetacore import (
    zeta_even_closed,
    zeta_even_recurrence,
    zeta_oracle,
)
from zetakit.bern import Convention, bernoulli

from test_primetail import odd_nonprimepower_sum
from test_zetacore import bernoulli_akiyama_tanigawa


def _sig2(x) -> str:
    return f"{float(x):.1e}"


PUBLISHED_VALUES = {3: "1.21992", 7: "1.00861", 9: "1.00204", 13: "1.00012", 15: "1.00003"}
PUBLISHED_DIFFS = {
    3: "1.7861e-2", 5: "2.3021e-3", 7: "2.4187e-4", 9: "2.5985e-5",
    11: "2.8476e-6", 13: "3.1468e-7", 15: "3.4890e-8",
}


@pytest.fixture(scope="module")
def table_rows():
    t0 = time.perf_counter()
    rows = odd_error_table(15, 2, mpf("1e-25"), digits=50)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_acceptance_1_table_reproduction(table_rows):
    rows, elapsed = table_rows
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    by_arg = {r.argument: r for r in rows}
    # formula column against the printed values (zeta(5) handled separately:
    # its printed row is self-inconsistent; zeta(11) validated via its
    # difference entry only, the printed values there drop a zero)
    for arg, printed in PUBLISHED_VALUES.items():
        assert abs(by_arg[arg].formula_value - mpf(printed)) <= mpf("5e-5"), arg
    # difference column to two significant figures, all rows
    for arg, printed in PUBLISHED_DIFFS.items():
        assert _sig2(by_arg[arg].abs_diff) == _sig2(mpf(printed)), arg
    assert abs(by_arg[11].abs_diff - mpf("2.8476e-6")) < mpf("5e-10")
    print(f"\nACCEPTANCE 1 PASS: table rows 3..15 reproduced "
          f"(5 printed values within 5e-5, all 7 differences to 2 sig figs, "
          f"zeta(11) via its difference entry; {elapsed:.2f}s < 5s)")


@pytest.mark.xfail(
    strict=True,
    reason="the published zeta(5) row is self-inconsistent: its value column "
    "(1.03933) disagrees with its own difference column (1.036927 + 2.3021e-3 "
    "= 1.039229); the canonical evaluation (1.0392739, whose difference "
    "2.3461e-3 matches the printed difference to 2 sig figs) sits 5.6e-5 "
    "from the printed value, outside the 5e-5 gate",
)
def test_acceptance_1_zeta5_printed_value(table_rows):
    rows, _ = table_rows
    by_arg = {r.argument: r for r in rows}
    assert abs(by_arg[5].formula_value - mpf("1.03933")) <= mpf("5e-5")


def test_acceptance_2_exponential_convergence(table_rows):
    rows, _ = table_rows
    diffs = {r.argument: r.abs_diff for r in rows}
    ratios = []
    for s in range(2, 7):
        ratio = diffs[2 * s + 3] / diffs[2 * s + 1]
        assert mpf(1) / 12 <= ratio <= mpf(1) / 7, (s, ratio)
        ratios.append(float(ratio))
    print(f"\nACCEPTANCE 2 PASS: difference ratios {['%.4f' % r for r in ratios]} "
          f"all inside [1/12, 1/7]")


def test_acceptance_3_f_tends_to_two():
    f1 = f_ratio(1, "closed", mpf("1e-5"))
    assert abs(f1.f_closed - mpf("2.13")) <= mpf("0.02")
    devs = [abs(f_ratio(s, "closed", mpf("1e-6")).f_closed - 2) for s in range(2, 16)]
    for a, b in zip(devs, devs[1:]):
        assert b < a
    f10 = abs(f_ratio(10, "closed", mpf("1e-6")).f_closed - 2)
    assert f10 < mpf("5e-3")
    print(f"\nACCEPTANCE 3 PASS: f(1) = {float(f1.f_closed):.4f} (2.13 +/- 0.02), "
          f"|f(s)-2| strictly decreasing on s = 2..15, |f(10)-2| = {float(f10):.2e} < 5e-3")


def test_acceptance_4_reference_constants():
    worst_exact = mpf(0)
    for target in (3, 5, 7):
        ref = zeta_oracle(target, mpf("1e-40"), digits=50).real
        v = zeta_known_ref(target, mpf("1e-25"), digits=50)
        worst_exact = max(worst_exact, abs(v - ref))
        assert abs(v - ref) <= mpf("1e-20"), target
    for n in (1, 2, 3):
        ref = zeta_oracle(2 * n + 1, mpf("1e-40"), digits=50).real
        v = zeta_odd_literature(n, "eq24", mpf("1e-22"), digits=50)
        worst_exact = max(worst_exact, abs(v - ref))
        assert abs(v - ref) <= mpf("1e-20"), n
    worst_hz = mpf(0)
    for variant in ("eq25", "eq26"):
        for n in (1, 2, 3):
            ref = zeta_oracle(2 * n + 1, mpf("1e-40"), digits=50).real
            v = zeta_odd_literature(n, variant, mpf("1e-14"), digits=50)
            worst_hz = max(worst_hz, abs(v - ref))
            assert abs(v - ref) <= mpf("1e-12"), (variant, n)
    print(f"\nACCEPTANCE 4 PASS: ref3/ref5/ref7 and eq24(n=1..3) within "
          f"{float(worst_exact):.1e} <= 1e-20; eq25/eq26 within {float(worst_hz):.1e} <= 1e-12")


def test_acceptance_5_bernoulli_free_recurrence():
    worst = mpf(0)
    for two_k in range(2, 41, 2):
        d = abs(zeta_even_recurrence(two_k, 50) - zeta_even_closed(two_k, 50))
        worst = max(worst, d)
        assert d <= mpf("1e-30"), two_k
    oracle = bernoulli_akiyama_tanigawa(60)
    for n in range(61):
        assert bernoulli(n, Convention.B1_PLUS_HALF) == oracle[n], n
    print(f"\nACCEPTANCE 5 PASS: recurrence vs closed form within "
          f"{float(worst):.1e} <= 1e-30 for 2k = 2..40; exact Bernoulli match for n <= 60")


def test_acceptance_6_line_one_triangle():
    worst = mpf(0)
    for b in (mpf("0.5"), mpf(1), mpf(5), mpf("14.134725")):
        eta_pt = zeta_line_one(b, mpf("1e-12"), digits=50)
        int_pt = zeta_line_one_integral(b, mpf("1e-9"), digits=50)
        oracle = zeta_oracle(mpc(1, b), mpf("1e-14"), digits=50)
        d1 = abs(eta_pt.value - int_pt.value)
        d2 = abs(eta_pt.value - oracle)
        d3 = abs(int_pt.value - oracle)
        worst = max(worst, d1, d2, d3)
        assert max(d1, d2, d3) <= mpf("1e-8"), b
    # the residue at the pole: |i b zeta(1+ib) - 1| shrinks like gamma |b|
    probes = {}
    for b in (mpf("1e-2"), mpf("1e-3")):
        p = abs(mpc(0, b) * zeta_line_one(b, mpf("1e-15"), digits=50).value - 1)
        assert p < 6 * abs(b) * mpf("0.6"), b
        probes[b] = p
    ratio = probes[mpf("1e-2")] / probes[mpf("1e-3")]
    assert mpf(8) <= ratio <= mpf(12)
    print(f"\nACCEPTANCE 6 PASS: method triangle within {float(worst):.1e} <= 1e-8 "
          f"at b in {{0.5, 1, 5, 14.134725}}; residue probes with ratio {float(ratio):.2f}")


def test_acceptance_7_zero_line():
    for k in (1, 2, 3):
        e = eta_zero_scan(k, digits=50)
        assert e < mpf("1e-12"), k
        z = zeta_oracle(mpc(1, eta_zero_ordinate(k, 50)), mpf("1e-12"), digits=50)
        assert mp.isfinite(z.real) and mp.isfinite(z.imag)
        assert abs(z) > mpf("0.1"), k
    print("\nACCEPTANCE 7 PASS: |eta(1 + i 2k pi/ln 2)| < 1e-12 for k = 1..3 "
          "with zeta finite and |zeta| > 0.1 at each")


def test_acceptance_8_forensics_findings():
    # the flat series is NOT zeta(1+ib) but IS the regularized eta quotient
    flat = zeta_line_one_flat(1, digits=50)
    s0 = mpc(0, 1)
    z0 = zeta_oracle(s0, mpf("1e-20"), digits=50)
    identity = (1 - 2 ** (1 - s0)) * z0 / (1 - 2 ** (-s0))
    d_id = abs(flat.value - identity)
    assert d_id <= mpf("1e-8")
    d_dev = abs(flat.value - zeta_line_one(1, mpf("1e-12"), digits=50).value)
    assert d_dev > mpf("0.1")
    # corrected digamma-gap identity
    worst_gap = mpf(0)
    for x in (mpf("0.5"), mpf(1), mpf(2), mpf(10)):
        r = digamma_gap_check(x, digits=50)
        worst_gap = max(worst_gap, r)
        assert r <= mpf("1e-20"), x
    # closed-vs-direct prime-tail gap equals the enumerated odd-composite sum
    direct = t_direct(2, mpf("3e-7"), digits=50)
    gap = t_closed(2, digits=50) - direct.value
    brute, tail = odd_nonprimepower_sum(2, 4_000_000)
    d_gap = abs(gap - brute)
    assert d_gap <= mpf("1e-6")
    print(f"\nACCEPTANCE 8 PASS: flat series matches its regularized identity to "
          f"{float(d_id):.1e} and misses zeta(1+i) by {float(d_dev):.2f} > 0.1; "
          f"digamma-gap residuals <= {float(worst_gap):.1e}; prime-tail gap vs "
          f"enumeration {float(d_gap):.1e} <= 1e-6")


def test_acceptance_9_uniform_norm_probes():
    for n in (1, 10, 100):
        for k in (2, 3, 4):
            p = uniform_norm_probe("2i", n, k, digits=50)
            assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))
        for lemma in ("2ii", "1"):
            p = uniform_norm_probe(lemma, n, digits=50)
            assert p.grid_sup <= p.bound * (1 + mpf("1e-6"))
    # decay when n doubles, at each lemma's own rate, within 5%
    r1 = uniform_norm_probe("1", 200).bound / uniform_norm_probe("1", 100).bound
    assert abs(r1 - mpf("0.5")) <= mpf("0.025")
    for k in (2, 3, 4):
        r = uniform_norm_probe("2i", 20, k).bound / uniform_norm_probe("2i", 10, k).bound
        assert abs(r - mpf(2) ** -k) <= mpf("0.05") * mpf(2) ** -k
    r2 = uniform_norm_probe("2ii", 200).bound / uniform_norm_probe("2ii", 100).bound
    assert abs(r2 - mpf("0.25")) <= mpf("0.0125")
    print("\nACCEPTANCE 9 PASS: all grid suprema within their bounds; doubling n "
          "scales the bounds at the analytic rates (1/2, 2^-k, 1/4) within 5%")
