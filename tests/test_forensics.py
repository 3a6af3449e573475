import inspect

import pytest
from mpmath import mp, mpf

from zetakit import primetail
from zetakit.errors import AccuracyError, UsageError
from zetakit.forensics import FORMULA_IDS, forensics

from test_lineone import _count_everywhere

SUBSET = ["eq2", "eq3", "eq16", "eq21", "eq24", "eq25", "eq26", "eq31", "eq34", "eq42", "eq52"]


@pytest.fixture(scope="module")
def reports():
    return {r.formula_id: r for r in forensics(SUBSET, tol=mpf("1e-18"), digits=30)}


def test_expected_verdicts(reports):
    assert reports["eq2"].verdict == "exact"
    assert reports["eq16"].verdict == "approximation"
    assert reports["eq42"].verdict == "suspected_typo"
    assert reports["eq52"].verdict == "suspected_typo"
    assert reports["eq25"].verdict == "exact"
    assert reports["eq21"].verdict == "suspected_typo"
    assert reports["eq24"].verdict == "suspected_typo"
    assert reports["eq26"].verdict == "suspected_typo"


def test_verdict_invariants(reports):
    for r in reports.values():
        if r.verdict == "exact":
            assert r.deviation <= mpf("1e-18")
        if r.verdict == "suspected_typo":
            assert r.deviation > mpf("1e-3")


def test_eq16_gap_magnitude(reports):
    assert abs(reports["eq16"].deviation - mpf("0.0153")) < mpf("3e-4")


def test_registry_order_is_deterministic():
    out = forensics(["eq42", "eq2", "eq16"], tol=mpf("1e-12"), digits=20)
    assert [r.formula_id for r in out] == ["eq2", "eq16", "eq42"]


def test_unknown_id_rejected():
    with pytest.raises(UsageError):
        forensics(["eq999"])


def test_bare_string_rejected():
    # a str is not a list of ids: "all" must not be read as "a", "l", "l"
    with pytest.raises(UsageError, match="FORMULA_IDS"):
        forensics("all")


def test_registry_contains_all_studied_formulas():
    for fid in ("eq2", "eq9", "eq10", "eq13", "eq16", "eq23", "eq38", "eq49", "eq52", "zeta5"):
        assert fid in FORMULA_IDS


# Outside-oracle transcriptions of the printed readings, with mpmath's zeta,
# Hurwitz zeta and nsum (evaluated at the tests' 60 digits).


def _printed_eq23(m):
    pref = (-1) ** m * mp.pi ** (2 * m) / (1 - mpf(2) ** (-2 * m))
    series = mp.nsum(
        lambda n: (2 - mpf(2) ** (1 - 2 * n)) * mp.factorial(2 * n - 1)
        / mp.factorial(2 * m + 2 * n + 1) * mp.zeta(2 * n),
        [1, mp.inf],
    )
    second = sum(
        ((mpf(2) ** (2 * j - 2 * m) - 1) - mp.pi ** (2 * j) * mp.zeta(2 * m - 2 * j + 1))
        / mp.factorial(2 * j + 1)
        for j in range(1, m)
    )
    return pref * (-mp.log(2) / mp.factorial(2 * m + 1) + series) + second / (1 - mpf(2) ** (-2 * m))


def _printed_eq24(n):
    pref = (-1) ** (n - 1) * (2 * mp.pi) ** (2 * n) / (
        mp.factorial(2 * n) * (mpf(2) ** (2 * n + 1) - 1)
    )
    ksum = mp.nsum(lambda k: mp.zeta(2 * k) / ((k + n) * mpf(4) ** k), [0, mp.inf])
    jsum = sum(
        (-1) ** j / mp.factorial(2 * n - 2 * j)
        * (mpf(2) ** (2 * j) - 1) / (2 * mp.pi) ** (2 * j) * mp.zeta(2 * j + 1)
        for j in range(1, n)
    )
    return pref * (mp.log(2) + ksum) + mp.factorial(2 * n) * jsum


def _printed_eq26_n1():
    pref = (2 * mp.pi) ** 2 / (mp.factorial(2) * (mpf(2) ** 5 + mpf(2) ** 2 - 1))
    ksum = mp.nsum(lambda k: mp.zeta(2 * k) / ((k + 1) * mpf(16) ** k), [0, mp.inf])
    hsum = -(mp.zeta(2, mpf(1) / 4) - 2 * 3 * mp.zeta(2)) / (2 * mp.pi)
    return pref * (mp.log(2) + ksum - mp.factorial(2) * hsum)


def test_printed_readings_match_mpmath_transcription():
    tol = mpf("1e-20")
    got = {r.formula_id: r.formula_value for r in forensics(["eq23", "eq24", "eq26"], tol=tol, digits=30)}
    # every check runs its series at the run tol
    assert abs(got["eq23"] - _printed_eq23(2)) <= tol
    assert abs(got["eq24"] - _printed_eq24(2)) <= tol
    assert abs(got["eq26"] - _printed_eq26_n1()) <= tol
    # and, planned for the working floor 1e-40, to 10^-(digits+2)
    gate = mpf("1e-32")
    assert abs(got["eq23"] - _printed_eq23(2)) <= gate
    assert abs(got["eq24"] - _printed_eq24(2)) <= gate
    assert abs(got["eq26"] - _printed_eq26_n1()) <= gate


def test_forensics_module_is_not_shadowed_by_the_package():
    # the package re-exports names from the forensics module, never the
    # function under the module's own name
    import zetakit.forensics as F

    assert inspect.ismodule(F)
    assert callable(F.forensics)
    assert callable(F.zeta_reference)


@pytest.mark.parametrize("fid", ["eq16"])
def test_unconverged_prime_tail_is_not_reported(monkeypatch, fid):
    # with the prime cap at 2e5, eq16's direct sum t(2) stops at a bound of
    # 1.03e-6, short of the 3e-7 it asks for: the audit must fail, not
    # report on a short sum (eq9 and eq13 read the exact tail)
    monkeypatch.setattr(primetail, "_DEFAULT_BOUND_CAP", 200_000)
    with pytest.raises(AccuracyError, match=r"t\(2"):
        forensics([fid], digits=30)


def test_eq49_reads_the_digamma_gap_once(monkeypatch):
    # the gap is two digamma calls; the report and its deviation share one
    # reading of it
    calls = _count_everywhere(monkeypatch, "digamma")
    forensics(["eq49"], mpf("1e-30"), 50)
    assert len(calls) == 2
