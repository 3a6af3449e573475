"""Byte-for-byte golden outputs of fast CLI commands.

Each entry of ``GOLDEN`` is re-run through ``cli.run`` and its stdout is
compared with ``tests/golden/<name>.out``.  To (re)write the files after a
deliberate output change, run ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest
from mpmath import mp

from zetakit.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

_SMALL = ["--digits", "30", "--tol", "1e-20"]

# Forensics ids that run a direct prime sum (eq9, eq10, eq13, eq16) are left
# to test_forensics and the acceptance gate.
_FORENSICS_IDS = (
    "eq2", "eq3", "eq4", "zeta5", "eq5", "eq11_f2", "eq21", "eq22", "eq23",
    "eq24", "eq25", "eq26", "eq31", "eq34", "eq38", "eq42", "eq49", "eq52",
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
    **{
        f"eval-{method}": ["eval", "--method", method, "--format", "json"] + extra
        for method, extra in [
            ("ref3", []),
            ("ref5", []),
            ("ref7", []),
            ("eq24", ["--s", "5"] + _SMALL),
            ("eq25", ["--s", "5"] + _SMALL),
            ("eq26", ["--s", "5"] + _SMALL),
            ("even-closed", ["--s", "6"]),
            ("even-recurrence", ["--s", "6"]),
            ("odd-approx", ["--s", "7"]),
            ("eta", ["--s", "0.5"]),
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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with mp.workdps(60):  # the ambient precision conftest gives the tests
        for name in sys.argv[1:] or sorted(GOLDEN):
            (GOLDEN_DIR / f"{name}.out").write_text(cli_output(GOLDEN[name]))
