"""Byte-for-byte golden outputs of fast CLI commands.

Each entry of ``GOLDEN`` is re-run through ``cli.run`` and its stdout is
compared with ``tests/golden/<name>.out``.  To (re)write the files after a
deliberate output change, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf

from zetakit.cli import run

from conftest import run_fresh

GOLDEN_DIR = Path(__file__).parent / "golden"

_SMALL = ["--digits", "30", "--tol", "1e-20"]

# eq16, which runs the direct prime sum t_direct, is left to the acceptance
# gate; eq9, eq10 and eq13 take their primes from t_exact and the Euler
# product, under 0.1 s each.
_FORENSICS_IDS = (
    "eq2", "eq3", "eq4", "zeta5", "eq5", "eq9", "eq10", "eq11_f2", "eq13", "eq21",
    "eq22", "eq23", "eq24", "eq25", "eq26", "eq31", "eq34", "eq38", "eq42", "eq49",
    "eq52",
)

GOLDEN = {
    "odd-table-json": ["odd-table", "--max", "15", "--format", "json"],
    "odd-table-csv": ["odd-table", "--max", "15", "--format", "csv"] + _SMALL,
    "zeros": ["zeros", "--k", "1..3", "--format", "json"],
    "line1-eta": ["line1", "--b", "1", "--method", "eta", "--format", "json"],
    "line1-flat": ["line1", "--b", "1", "--method", "flat", "--format", "json"],
    "line1-integral": ["line1", "--b", "1", "--method", "integral", "--format", "json"],
    "probe-1": ["probe", "--lemma", "1", "--n", "10", "--format", "json"],
    "probe-2i": ["probe", "--lemma", "2i", "--n", "10", "--k", "3", "--format", "json"],
    "probe-2ii": ["probe", "--lemma", "2ii", "--n", "10", "--format", "json"],
    "compare-json": ["compare", "--targets", "3,5", "--format", "json"] + _SMALL,
    # the Euler-Maclaurin oracle off the real axis, s = 1 + ib
    "eval-oracle": ["eval", "--b", "14.134725", "--format", "json"],
    **{
        f"eval-{method}": ["eval", "--method", method, "--format", "json"] + extra
        for method, extra in [
            ("ref3", []),
            ("ref5", []),
            ("ref7", []),
            ("eq23", ["--s", "5"] + _SMALL),
            ("eq24", ["--s", "5"] + _SMALL),
            ("eq25", ["--s", "5"] + _SMALL),
            ("eq26", ["--s", "5"] + _SMALL),
            ("even-closed", ["--s", "6"]),
            ("even-recurrence", ["--s", "6"]),
            ("odd-approx", ["--s", "7"]),
            ("eta", ["--s", "0.5"]),
        ]
    },
    # the prime-sum and Dirichlet-sum routes, integer and non-integer s
    "fscan-direct": ["fscan", "--mode", "direct", "--s-min", "2", "--s-max", "4",
                     "--format", "json"],
    **{
        f"eval-{method}-s{s}": ["eval", "--method", method, "--s", s, "--format", "json"]
        + extra
        for method, s, extra in [
            ("euler", "2", ["--prime-bound", "100000"]),
            ("euler", "2.5", ["--prime-bound", "100000"]),
            ("dirichlet", "3", ["--tol", "1e-10"]),
            ("dirichlet", "2.5", ["--tol", "1e-10"]),
        ]
    },
    **{
        f"forensics-{fid}": ["forensics", "--ids", fid, "--format", "csv"] + _SMALL
        for fid in _FORENSICS_IDS
    },
}


def cli_output(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.out").read_text()
    assert cli_output(GOLDEN[name]) == expected


def test_literature_goldens_against_mpmath():
    # the pinned eq23 and compare bytes must hold true values, not just stable ones
    tol = mpf("1e-20")
    row, = json.loads((GOLDEN_DIR / "eval-eq23.out").read_text())["rows"]
    assert abs(mpf(row["value"]) - mp.zeta(5)) <= tol
    rows = json.loads((GOLDEN_DIR / "compare-json.out").read_text())["rows"]
    assert {r["target"] for r in rows} == {3, 5}
    for r in rows:
        miss = abs(mpf(r["value"]) - mp.zeta(r["target"]))
        assert abs(miss - mpf(r["abs_error"])) <= tol, r["method"]
        if r["method"] != "odd-approx":
            assert miss <= tol, r["method"]


def test_golden_bytes_do_not_depend_on_the_import_precision():
    # module-level constants are rounded when zetakit is imported: importing
    # it under mp.dps = 60 must still give the line1-integral golden's bytes
    code = (
        "from mpmath import mp\n"
        "mp.dps = 60\n"
        "from zetakit.cli import run\n"
        f"raise SystemExit(run({GOLDEN['line1-integral']!r}))\n"
    )
    out = run_fresh(["-c", code], capture_output=True, text=True, check=True).stdout
    assert out == (GOLDEN_DIR / "line1-integral.out").read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with mp.workdps(60):  # the ambient precision conftest gives the tests
        for name in sys.argv[1:] or sorted(GOLDEN):
            (GOLDEN_DIR / f"{name}.out").write_text(cli_output(GOLDEN[name]))
