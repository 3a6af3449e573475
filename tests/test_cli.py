import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

from zetakit.cli import build_parser, run

from test_golden import GOLDEN, GOLDEN_DIR
from test_primetail import primezeta_tail


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_odd_table_csv_shape(capsys):
    code, out = capture(capsys, ["odd-table", "--max", "15", "--f", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["argument", "formula_value", "reference_value", "abs_diff"]
    assert len(rows) == 8  # header + 7 rows
    assert [r[0] for r in rows[1:]] == ["3", "5", "7", "9", "11", "13", "15"]
    assert abs(float(rows[1][1]) - 1.21992) < 5e-5


def test_byte_determinism(capsys):
    argv = ["odd-table", "--max", "7", "--f", "2", "--format", "json"]
    _, out1 = capture(capsys, argv)
    _, out2 = capture(capsys, argv)
    assert out1 == out2
    argv = ["zeros", "--k", "1..2", "--format", "csv"]
    _, out1 = capture(capsys, argv)
    _, out2 = capture(capsys, argv)
    assert out1 == out2


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_the_parser_clean(capsys):
    # a run that fails in the parser, then a golden argv in the same process
    code, _ = capture(capsys, ["line1", "--order", "3"])
    assert code == 1
    code, out = capture(capsys, GOLDEN["line1-flat"])
    assert code == 0
    assert out == (GOLDEN_DIR / "line1-flat.out").read_text()


def test_parser_reuse_keeps_each_subcommand_defaults(capsys):
    # odd-table's --f and --digits leave eval's defaults as a fresh parser has them
    code, _ = capture(capsys, ["odd-table", "--max", "5", "--f", "3", "--digits", "30"])
    assert code == 0
    argv = ["eval", "--s", "3"]
    args = vars(build_parser().parse_args(argv))
    assert args == vars(build_parser.__wrapped__().parse_args(argv))
    assert args == {"command": "eval", "digits": 50, "tol": None, "format": "text",
                    "out": None, "s": "3", "b": None, "method": "dirichlet", "f": "2",
                    "prime_bound": 1_000_000}


def test_zeros_rows(capsys):
    code, out = capture(capsys, ["zeros", "--k", "1..3", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert abs(float(rows[0][1]) - 9.0647203) < 1e-6
    assert all(float(r[2]) < 1e-12 for r in rows)


def test_zeros_meets_a_tol_below_1e_20(capsys):
    code, out = capture(capsys, ["zeros", "--k", "1", "--digits", "100", "--tol", "1e-90",
                                 "--format", "json"])
    assert code == 0
    row, = json.loads(out)["rows"]
    assert mp.mpf(row["abs_eta"]) <= mp.mpf("1e-90")


def test_eval_methods(capsys):
    code, out = capture(capsys, ["eval", "--s", "2", "--method", "dirichlet",
                                 "--tol", "1e-8", "--format", "csv"])
    assert code == 0
    val = float(list(csv.reader(io.StringIO(out)))[1][2])
    assert abs(val - 1.6449340668) < 1e-7

    for method, s, expect, tol in [
        ("eta", "2", 1.6449340668, 1e-9),
        ("even-closed", "4", 1.0823232337, 1e-9),
        ("even-recurrence", "4", 1.0823232337, 1e-9),
        ("odd-approx", "3", 1.2198849615, 1e-9),
        ("ref3", "3", 1.2020569032, 1e-9),
        ("eq24", "3", 1.2020569032, 1e-9),
    ]:
        code, out = capture(capsys, ["eval", "--s", s, "--method", method,
                                     "--tol", "1e-15", "--format", "csv"])
        assert code == 0, method
        val = float(list(csv.reader(io.StringIO(out)))[1][2])
        assert abs(val - expect) < tol, method

    code, out = capture(capsys, ["eval", "--s", "2", "--method", "euler",
                                 "--prime-bound", "100000", "--format", "csv"])
    assert code == 0
    val = float(list(csv.reader(io.StringIO(out)))[1][2])
    assert abs(val - 1.6449340668) < 1e-4


def test_eval_complex_oracle(capsys):
    code, out = capture(capsys, ["eval", "--s", "1", "--b", "1", "--format", "csv"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert abs(float(row[3]) - 0.5821580598) < 1e-9
    assert abs(float(row[4]) + 0.9268485643) < 1e-9


def test_line1_methods(capsys):
    code, out = capture(capsys, ["line1", "--b", "1", "--method", "eta", "--format", "csv"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert abs(float(row[2]) - 0.5821580598) < 1e-9

    code, out = capture(capsys, ["line1", "--b", "1", "--method", "flat", "--format", "csv"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert abs(float(row[2]) - 0.5838718718) < 1e-7  # the regularized value

    code, out = capture(capsys, ["line1", "--b", "1", "--method", "integral", "--format", "csv"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert abs(float(row[2]) - 0.5821580598) < 1e-8


def test_line1_has_no_order_flag(capsys):
    # the flat route plans its own order from its bound, so --order is a
    # usage error
    code, _ = capture(capsys, ["line1", "--b", "1", "--method", "flat", "--order", "40"])
    assert code == 1


@pytest.mark.parametrize("argv, attempted", [
    # both routes run at no less than 10^-(digits-10)
    (["--method", "integral", "--tol", "1e-45"], 1e-40),
    (["--method", "eta", "--digits", "20", "--tol", "1e-15"], 1e-10),
])
def test_line1_header_reports_attempted_tol(capsys, argv, attempted):
    code, out = capture(capsys, ["line1", "--b", "1", "--format", "json"] + argv)
    assert code == 0
    payload = json.loads(out)
    assert float(payload["tol"]) == attempted
    assert float(payload["rows"][0]["est_error"]) <= attempted


def test_probe_json(capsys):
    code, out = capture(capsys, ["probe", "--lemma", "2i", "--n", "10", "--k", "2",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["within_bound"] is True
    assert float(row["bound"]) == pytest.approx(0.0025)
    # csv and text print the boolean cell as a word
    code, out = capture(capsys, ["probe", "--lemma", "2i", "--n", "10", "--k", "2",
                                 "--format", "csv"])
    assert code == 0
    header, row = csv.reader(io.StringIO(out))
    assert dict(zip(header, row))["within_bound"] == "true"


def test_probe_has_no_grid_flag(capsys):
    # the probe reads each family at its maximiser, so a grid size is a
    # usage error
    code, _ = capture(capsys, ["probe", "--lemma", "1", "--n", "10", "--grid", "1000"])
    assert code == 1


def test_forensics_csv(capsys):
    code, out = capture(capsys, ["forensics", "--ids", "eq2,eq42", "--format", "csv",
                                 "--tol", "1e-20", "--digits", "30"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "formula_id"
    assert [r[0] for r in rows[1:]] == ["eq2", "eq42"]
    verdicts = {r[0]: r[6] for r in rows[1:]}
    assert verdicts["eq2"] == "exact"
    assert verdicts["eq42"] == "suspected_typo"


def test_fscan(capsys):
    code, out = capture(capsys, ["fscan", "--s-min", "1", "--s-max", "3",
                                 "--mode", "closed", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 3
    assert abs(float(rows[0][1]) - 2.1287) < 1e-3
    # closed mode sums no direct prime tail, so f_direct is left empty
    assert [row[2] for row in rows] == ["", "", ""]


def test_fscan_direct_mode(capsys):
    code, out = capture(capsys, ["fscan", "--s-min", "2", "--s-max", "3",
                                 "--mode", "direct", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    # direct mode: the deviation column tracks f_direct
    assert abs(float(rows[0][3]) - abs(float(rows[0][2]) - 2)) < 1e-12


def test_fscan_has_no_direct_tolerance(capsys):
    # the exact prime tails carry every working digit, so fscan takes no
    # tolerance for them: the flag is a usage error
    code, _ = capture(capsys, ["fscan", "--mode", "direct", "--s-min", "1", "--s-max", "1",
                               "--tol-direct", "1e-6"])
    assert code == 1


def test_fscan_direct_reaches_tol_1e40(capsys):
    # the exact prime tails carry every working digit, so f_direct meets a
    # tol far below what any direct prime sum could
    code, out = capture(capsys, ["fscan", "--mode", "direct", "--s-min", "1", "--s-max", "4",
                                 "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["s"] for r in rows] == [1, 2, 3, 4]
    with mp.workdps(80):
        for r in rows:
            s = r["s"]
            t_even, t_odd = primezeta_tail(2 * s, 80), primezeta_tail(2 * s + 1, 80)
            want = (t_even / mp.zeta(2 * s)) / (t_odd / mp.zeta(2 * s + 1))
            assert abs(mp.mpf(r["f_direct"]) - want) <= mp.mpf("1e-40"), s


def test_compare_csv_deterministic(capsys):
    argv = ["compare", "--targets", "3", "--format", "csv", "--digits", "30", "--tol", "1e-20"]
    code, out1 = capture(capsys, argv)
    assert code == 0
    _, out2 = capture(capsys, argv)
    assert out1 == out2
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["target", "method", "value", "abs_error", "terms"]
    methods = [r[1] for r in rows[1:]]
    assert "odd-approx" in methods and "eq24" in methods and "ref3" in methods


def test_out_file(tmp_path, capsys):
    path = tmp_path / "table.csv"
    code = run(["odd-table", "--max", "3", "--format", "csv", "--out", str(path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert len(rows) == 2


def test_tol_tightening_never_worsens_estimates(capsys):
    ests = []
    for tol in ("1e-10", "1e-20"):
        _, out = capture(capsys, ["eval", "--s", "2", "--method", "eta",
                                  "--tol", tol, "--format", "csv"])
        ests.append(float(list(csv.reader(io.StringIO(out)))[1][3]))
    assert ests[1] <= ests[0]


def test_exit_codes(capsys):
    # domain error -> 2
    code, _ = capture(capsys, ["eval", "--s", "1", "--method", "dirichlet"])
    assert code == 2
    # usage errors -> 1
    code, _ = capture(capsys, ["eval", "--s", "3", "--method", "nosuch"])
    assert code == 1
    code, _ = capture(capsys, ["odd-table", "--max", "4"])
    assert code == 1
    code, _ = capture(capsys, ["forensics", "--ids", "bogus"])
    assert code == 1
    code, _ = capture(capsys, ["zeros", "--k", "x..y"])
    assert code == 1
    code, _ = capture(capsys, ["odd-table", "--max", "5", "--digits", "10"])
    assert code == 1
    code, _ = capture(capsys, ["odd-table", "--max", "5", "--tol", "1e-80"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["compare", "--targets", ","],
    ["compare", "--targets", ""],
    ["forensics", "--ids", ","],
    ["forensics", "--ids", ""],
])
def test_an_empty_selection_is_a_usage_error(capsys, argv):
    # as zeros refuses a --k that selects nothing: exit 1, a usage message,
    # no report and no traceback
    code = run(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert err.startswith("usage error:") and "selects no" in err, err
    assert out == ""


def test_huge_real_s_on_the_oracle(capsys):
    # zeta(10^19) = 1; an order past the float range is a domain error,
    # exit 2 with a message, not a traceback
    code, out = capture(capsys, ["eval", "--s", "1e19", "--b", "0", "--digits", "30",
                                 "--format", "json"])
    assert code == 0 and json.loads(out)["rows"][0]["value_re"] == "1.0"
    code = run(["eval", "--s", "1e400", "--b", "0"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: DomainError") and "float range" in err


@pytest.mark.parametrize("argv, flag", [
    (["line1", "--b", "nan"], "--b"),
    (["eval", "--s", "nan"], "--s"),
    (["eval", "--s", "inf"], "--s"),
    (["eval", "--s", "2", "--b", "nan"], "--b"),
    (["eval", "--s", "2", "--tol", "nan"], "--tol"),
    (["odd-table", "--max", "5", "--f", "nan"], "--f"),
    (["eval", "--s", "3", "--method", "odd-approx", "--f", "inf"], "--f"),
    (["compare", "--targets", "3", "--f", "nan"], "--f"),
    (["eval", "--s", "abc"], "--s"),
])
def test_non_finite_numbers_are_usage_errors(capsys, argv, flag):
    # --s, --b, --f and --tol parse through one check: a NaN, an infinity
    # or a non-number exits 1 with a usage message and prints no row
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} must be")


@pytest.mark.parametrize("argv, flag, value", [
    (["line1"], "--b", "-1e1"),
    (["line1", "--method", "flat"], "--b", "-2.5E+0"),
    (["eval", "--s", "3"], "--b", "-1e-3"),
    (["eval", "--b", "2"], "--s", "-.25"),
    (["eval", "--b", "2"], "--s", "-1/4"),
])
def test_negative_numbers_in_every_form_are_values(capsys, argv, flag, value):
    # a negative number in exponent, point or fraction form is read as the
    # option's value, byte for byte as it is after '='
    code, out = capture(capsys, argv + [flag, value, "--format", "json"])
    joined_code, joined = capture(capsys, argv + [f"{flag}={value}", "--format", "json"])
    assert code == joined_code == 0
    assert out == joined and out


@pytest.mark.parametrize("argv, flag", [
    (["line1", "--b", "-inf"], "--b"),
    (["eval", "--s", "3", "--b", "-INF"], "--b"),
    (["eval", "--s", "-inf"], "--s"),
])
def test_negative_infinity_is_the_finite_usage_error(capsys, argv, flag):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {flag} must be finite")


def test_default_tol_follows_digits(capsys):
    # without --tol the run tolerance is max(1e-30, 10^-(digits-5))
    code, out = capture(capsys, ["odd-table", "--max", "5", "--digits", "30",
                                 "--format", "json"])
    assert code == 0
    assert json.loads(out)["tol"] == "1.0e-25"
    _, explicit = capture(capsys, ["odd-table", "--max", "5", "--digits", "30",
                                   "--tol", "1e-25", "--format", "json"])
    assert out == explicit


def test_euler_prime_bound_zero_is_domain_error(capsys):
    # 0 is a real bound, not "use the default": euler_product rejects it
    code = run(["eval", "--s", "2", "--method", "euler", "--prime-bound", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "prime_bound must be >= 2" in captured.err


def _assert_numpy_unloaded(argv):
    """Run ``argv`` through ``cli.run`` in a fresh process, which imports
    zetakit, and fail if numpy was loaded."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import contextlib, io, sys\n"
        "from zetakit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run({argv!r}) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})


def test_import_and_odd_table_leave_numpy_unloaded():
    # numpy is loaded by the prime sieve only; a fresh process that imports
    # zetakit and prints the odd table sieves no prime
    _assert_numpy_unloaded(["odd-table", "--max", "15", "--format", "json"])


@pytest.mark.parametrize("argv", [
    ["fscan", "--mode", "direct", "--s-min", "1", "--s-max", "4"],
    ["forensics", "--ids", "eq9,eq13"],
])
def test_exact_prime_tails_leave_numpy_unloaded(argv):
    # the exact prime tails take their head primes from a literal tuple, so
    # a fresh process that prints them sieves no prime
    _assert_numpy_unloaded(argv)


@pytest.mark.parametrize("argv, code", [
    (["zeros", "--k", "1", "--digits", "20"], 0),
    (["eval", "--s", "3", "--digits", "20", "--tol", "1e-100"], 1),
    (["line1", "--b", "0", "--digits", "20"], 2),
], ids=["success", "usage-error", "domain-error"])
def test_run_restores_the_callers_precision(capsys, argv, code):
    # the subcommand runs in one working-precision context, opened by run,
    # which closes it on every exit; a tol below its floor and the pole at
    # b = 0 both raise inside it
    with mp.workprec(77):
        assert run(argv) == code
        assert mp.prec == 77
    capsys.readouterr()
