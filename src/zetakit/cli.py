"""Command-line front end.

One subcommand per artifact: ``eval`` (single zeta evaluations), ``odd-table``
(the odd-argument error table), ``fscan`` (the linking ratio over a range),
``line1`` (zeta on Re(s) = 1), ``zeros`` (the eta zero line), ``probe``
(uniform-norm probes), ``forensics`` (formula audits), and ``compare``
(terms/time comparison of the odd-argument evaluators).

Reports are written as text, CSV ('.' decimal separator, header row), or
JSON (all reals as decimal strings).  CSV/JSON output is byte-deterministic
for a fixed argv.  Exit codes: 0 success, 1 usage error, 2 domain/accuracy
error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
import time
from dataclasses import dataclass, replace
from typing import List, Optional

from mpmath import mp, mpf, mpc

from .errors import UsageError, ZetakitError
from .forensics import FORMULA_IDS, forensics as run_forensics
from .lineone import (
    eta_zero_ordinate,
    eta_zero_scan,
    uniform_norm_probe,
    zeta_line_one,
    zeta_line_one_flat,
    zeta_line_one_integral,
)
from .oddzeta import (
    LITERATURE_VARIANTS,
    f_ratio,
    odd_error_table,
    zeta_known_ref,
    zeta_odd_closed,
    zeta_odd_literature,
)
from .precision import MIN_DIGITS, as_mpf, to_decimal, working
from .zetacore import (
    _zeta_orders,
    euler_product,
    zeta_dirichlet,
    zeta_eta_real,
    zeta_even_closed,
    zeta_even_recurrence,
    zeta_oracle,
)

EVAL_METHODS = (
    "dirichlet",
    "eta",
    "euler",
    "even-closed",
    "even-recurrence",
    "odd-approx",
    "ref3",
    "ref5",
    "ref7",
    "eq23",
    "eq24",
    "eq25",
    "eq26",
)


@dataclass
class RunConfig:
    digits: int = 50
    tol: mpf = mpf("1e-30")
    output_format: str = "text"
    output_path: Optional[str] = None

    def validate(self):
        # digits and format are already checked by run() and argparse
        with working(self.digits):
            floor = mpf(10) ** (-(self.digits - 5))
            if self.tol < floor:
                raise UsageError(
                    f"--tol must be >= 10^-(digits-5) = {mp.nstr(floor, 3)}"
                )


# A dash before a digit, a point and a digit, or inf: the negative numbers
# of every form ``_real_arg`` parses (-1e1, -.5, -1/3, -inf), no option name.
_NEGATIVE_NUMBER = re.compile(r"^-(\d|\.\d|inf$)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse reads only -N and -N.N as negative numbers and takes any
    other word after a dash for an option; this parser, and each of its
    subparsers, reads ``_NEGATIVE_NUMBER`` as a value instead."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--digits", type=int, default=50)
    p.add_argument("--tol", type=str, default=None,
                   help="default max(1e-30, 10^-(digits-5))")
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.add_argument("--out", type=str, default=None)


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argument parser, built once per process: ``_Parser.error``
    raises and every parse makes a fresh namespace, so no state carries
    from one ``run`` to the next."""
    parser = _Parser(prog="zetakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate zeta by one named method")
    _common_flags(p)
    p.add_argument("--s", type=str, default=None, help="real argument")
    p.add_argument("--b", type=str, default=None, help="imaginary part (uses the oracle)")
    p.add_argument("--method", choices=EVAL_METHODS, default="dirichlet")
    p.add_argument("--f", type=str, default="2", help="linking constant for odd-approx")
    p.add_argument("--prime-bound", type=int, default=1_000_000, help="Euler product cutoff")

    p = sub.add_parser("odd-table", help="odd-argument error table")
    _common_flags(p)
    p.add_argument("--max", type=int, required=True, help="largest odd argument")
    p.add_argument("--f", type=str, default="2")

    p = sub.add_parser("fscan", help="linking ratio f(s) over a range of s")
    _common_flags(p)
    p.add_argument("--s-min", type=int, default=1)
    p.add_argument("--s-max", type=int, default=10)
    p.add_argument("--mode", choices=("closed", "direct"), default="closed")

    p = sub.add_parser("line1", help="zeta(1+ib)")
    _common_flags(p)
    p.add_argument("--b", type=str, required=True)
    p.add_argument("--method", choices=("eta", "flat", "integral"), default="eta")

    p = sub.add_parser("zeros", help="|eta| on the zero line b_k = 2k pi/ln 2")
    _common_flags(p)
    p.add_argument("--k", type=str, required=True, help="integer or range a..b")

    p = sub.add_parser("probe", help="uniform-norm probes")
    _common_flags(p)
    p.add_argument("--lemma", choices=("1", "2i", "2ii"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser("forensics", help="audit the studied formulas")
    _common_flags(p)
    p.add_argument("--ids", type=str, default="all",
                   help="comma-separated formula ids, or 'all'")

    p = sub.add_parser("compare", help="accuracy/terms/time of the odd evaluators")
    _common_flags(p)
    p.add_argument("--targets", type=str, default="3,5,7")
    p.add_argument("--f", type=str, default="2")

    return parser


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


@dataclass
class Report:
    command: str
    config: RunConfig
    columns: List[str]
    rows: List[dict]


def _fmt(v, digits) -> str:
    if isinstance(v, mpf):
        return to_decimal(v, digits)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def render(report: Report) -> str:
    digits = report.config.digits
    fmt = report.config.output_format
    if fmt == "json":

        def cell(v):
            if isinstance(v, (bool, int, str)):
                return v
            return _fmt(v, digits)

        payload = {
            "command": report.command,
            "digits": digits,
            "tol": to_decimal(report.config.tol, digits),
            "rows": [{col: cell(row[col]) for col in report.columns} for row in report.rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(report.columns)
        for row in report.rows:
            w.writerow([_fmt(row[c], digits) for c in report.columns])
        return buf.getvalue()
    # text: fixed-width columns
    cells = [[_fmt(row[c], min(digits, 20)) for c in report.columns] for row in report.rows]
    widths = [
        max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
        for i, col in enumerate(report.columns)
    ]
    lines = ["  ".join(col.ljust(w) for col, w in zip(report.columns, widths))]
    for r in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _real_arg(value, name, digits) -> mpf:
    """``value`` as an mpf at ``digits``; a UsageError unless it is a
    finite number."""
    try:
        x = as_mpf(value, digits)
    except ValueError as e:
        raise UsageError(f"{name} must be a number, got {value!r}") from e
    if not mp.isfinite(x):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return x


def _int_arg(value, name):
    try:
        return int(value)
    except (TypeError, ValueError) as e:
        raise UsageError(f"{name} must be an integer, got {value!r}") from e


def _cmd_eval(args, cfg: RunConfig) -> Report:
    d = cfg.digits
    with working(d):
        tol = cfg.tol
        if args.b is not None:
            s = mpc(_real_arg(args.s or "1", "--s", d), _real_arg(args.b, "--b", d))
            value = zeta_oracle(s, tol, digits=d)
            rows = [{"method": "oracle", "s": s.real, "b": s.imag,
                     "value_re": value.real, "value_im": value.imag}]
            return Report("eval", cfg, ["method", "s", "b", "value_re", "value_im"], rows)
        if args.s is None and args.method not in ("ref3", "ref5", "ref7"):
            raise UsageError("eval needs --s (or --b)")
        method = args.method
        est = None
        if method == "dirichlet":
            r = zeta_dirichlet(_real_arg(args.s, "--s", d), tol, digits=d)
            value, est = r.value, r.trunc_estimate
        elif method == "eta":
            r = zeta_eta_real(_real_arg(args.s, "--s", d), tol, digits=d)
            value, est = r.value, r.trunc_estimate
        elif method == "euler":
            value = euler_product(_real_arg(args.s, "--s", d), args.prime_bound, digits=d)
        elif method == "even-closed":
            value = zeta_even_closed(_int_arg(args.s, "--s"), d)
        elif method == "even-recurrence":
            value = zeta_even_recurrence(_int_arg(args.s, "--s"), d)
        elif method == "odd-approx":
            arg = _int_arg(args.s, "--s")
            if arg < 3 or arg % 2 == 0:
                raise UsageError("odd-approx needs an odd --s >= 3")
            value = zeta_odd_closed((arg - 1) // 2, _real_arg(args.f, "--f", d), d)
        elif method in ("ref3", "ref5", "ref7"):
            value = zeta_known_ref(int(method[3:]), tol, digits=d)
        else:  # literature variants
            arg = _int_arg(args.s, "--s")
            if arg < 3 or arg % 2 == 0:
                raise UsageError(f"{method} needs an odd --s >= 3")
            value = zeta_odd_literature((arg - 1) // 2, method, tol, digits=d)
        row = {"method": method, "s": args.s if args.s is not None else "", "value": value,
               "est_error": est if est is not None else ""}
        return Report("eval", cfg, ["method", "s", "value", "est_error"], [row])


def _cmd_odd_table(args, cfg: RunConfig) -> Report:
    if args.max < 3 or args.max % 2 == 0:
        raise UsageError("--max must be an odd integer >= 3")
    with working(cfg.digits):
        f = _real_arg(args.f, "--f", cfg.digits)
        rows = odd_error_table(args.max, f, cfg.tol, cfg.digits)
    out = [
        {"argument": r.argument, "formula_value": r.formula_value,
         "reference_value": r.reference_value, "abs_diff": r.abs_diff}
        for r in rows
    ]
    return Report("odd-table", cfg,
                  ["argument", "formula_value", "reference_value", "abs_diff"], out)


def _cmd_fscan(args, cfg: RunConfig) -> Report:
    if args.s_min < 1 or args.s_max < args.s_min:
        raise UsageError("need 1 <= s-min <= s-max")
    with working(cfg.digits):
        rows = []
        for s in range(args.s_min, args.s_max + 1):
            sample = f_ratio(s, args.mode, digits=cfg.digits)
            rows.append({
                "s": s,
                "f_closed": sample.f_closed,
                "f_direct": sample.f_direct if sample.f_direct is not None else "",
                "abs_f_minus_2": abs(sample.f - 2),
                "mode": args.mode,
            })
    return Report("fscan", cfg, ["s", "f_closed", "f_direct", "abs_f_minus_2", "mode"], rows)


def _cmd_line1(args, cfg: RunConfig) -> Report:
    d = cfg.digits
    with working(d):
        b = _real_arg(args.b, "--b", d)
        # --tol may go down to 10^-(d-5); the routes run at 10^-(d-10) or above
        tol = max(cfg.tol, mpf(10) ** (-(d - 10)))
        if args.method == "eta":
            pt = zeta_line_one(b, tol, digits=d)
        elif args.method == "integral":
            pt = zeta_line_one_integral(b, tol, digits=d)
        else:
            tol = cfg.tol  # the flat series takes no tolerance
            pt = zeta_line_one_flat(b, digits=d)
        row = {"b": pt.b, "method": pt.method, "value_re": pt.value.real,
               "value_im": pt.value.imag, "est_error": pt.est_error,
               "terms_used": pt.terms_used}
    # the header reports the tolerance the route attempted
    return Report("line1", replace(cfg, tol=tol),
                  ["b", "method", "value_re", "value_im", "est_error", "terms_used"], [row])


def _parse_k_range(spec: str) -> List[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError as e:
            raise UsageError(f"bad --k range {spec!r}") from e
        if hi < lo:
            raise UsageError("--k range must be increasing")
        return [k for k in range(lo, hi + 1) if k != 0]
    try:
        return [int(spec)]
    except ValueError as e:
        raise UsageError(f"bad --k value {spec!r}") from e


def _cmd_zeros(args, cfg: RunConfig) -> Report:
    ks = _parse_k_range(args.k)
    if not ks:
        raise UsageError("--k selects no nonzero index")
    with working(cfg.digits):
        rows = []
        for k in ks:
            b = eta_zero_ordinate(k, cfg.digits)
            rows.append({"k": k, "b": b, "abs_eta": eta_zero_scan(k, cfg.digits)})
    return Report("zeros", cfg, ["k", "b", "abs_eta"], rows)


def _cmd_probe(args, cfg: RunConfig) -> Report:
    with working(cfg.digits):
        p = uniform_norm_probe(args.lemma, args.n, args.k, cfg.digits)
        row = {"lemma": p.lemma, "n": p.n, "k": p.k if p.k is not None else "",
               "grid_sup": p.grid_sup, "bound": p.bound,
               "within_bound": bool(p.grid_sup <= p.bound * (1 + mpf("1e-6")))}
    return Report("probe", cfg,
                  ["lemma", "n", "k", "grid_sup", "bound", "within_bound"], [row])


def _cmd_forensics(args, cfg: RunConfig) -> Report:
    ids = list(FORMULA_IDS) if args.ids == "all" else [
        t.strip() for t in args.ids.split(",") if t.strip()
    ]
    if not ids:
        raise UsageError("--ids selects no formula id")
    reports = run_forensics(ids, cfg.tol, cfg.digits)
    rows = [
        {"formula_id": r.formula_id,
         "oracle_re": r.oracle_value.real, "oracle_im": r.oracle_value.imag,
         "formula_re": r.formula_value.real, "formula_im": r.formula_value.imag,
         "deviation": r.deviation, "verdict": r.verdict, "note": r.note}
        for r in reports
    ]
    return Report("forensics", cfg,
                  ["formula_id", "oracle_re", "oracle_im", "formula_re", "formula_im",
                   "deviation", "verdict", "note"], rows)


def _cmd_compare(args, cfg: RunConfig) -> Report:
    try:
        targets = [int(t) for t in args.targets.split(",") if t.strip()]
    except ValueError as e:
        raise UsageError("--targets must be comma-separated odd integers") from e
    if not targets:
        raise UsageError("--targets selects no target")
    if any(arg < 3 or arg % 2 == 0 for arg in targets):
        raise UsageError("targets must be odd integers >= 3")
    d = cfg.digits
    include_times = cfg.output_format == "text"
    rows = []
    with working(d):
        fval = _real_arg(args.f, "--f", d)
        tol = cfg.tol
        # the oracle's references, one pass over the distinct targets
        orders = sorted(set(targets))
        refs = dict(zip(orders, _zeta_orders(orders, tol, d)))
        for arg in targets:
            n = (arg - 1) // 2
            ref = refs[arg]
            methods = [("odd-approx", lambda: (zeta_odd_closed(n, fval, d), 1))]
            if arg in (3, 5, 7):
                methods.append(
                    (f"ref{arg}", lambda a=arg: (zeta_known_ref(a, tol, digits=d), None))
                )
            for variant in LITERATURE_VARIANTS:
                def run(v=variant):
                    stats = {}
                    val = zeta_odd_literature(n, v, tol, digits=d, _stats=stats)
                    return val, stats.get("terms")
                methods.append((variant, run))
            for name, fn in methods:
                t0 = time.perf_counter()
                value, terms = fn()
                ms = (time.perf_counter() - t0) * 1000
                row = {"target": arg, "method": name, "value": value,
                       "abs_error": abs(value - ref),
                       "terms": terms if terms is not None else ""}
                if include_times:
                    row["ms"] = f"{ms:.1f}"
                rows.append(row)
    cols = ["target", "method", "value", "abs_error", "terms"]
    if include_times:
        cols.append("ms")
    return Report("compare", cfg, cols, rows)


_DISPATCH = {
    "eval": _cmd_eval,
    "odd-table": _cmd_odd_table,
    "fscan": _cmd_fscan,
    "line1": _cmd_line1,
    "zeros": _cmd_zeros,
    "probe": _cmd_probe,
    "forensics": _cmd_forensics,
    "compare": _cmd_compare,
}


def run(argv: List[str]) -> int:
    """Parse argv, execute the subcommand, write the report; return exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = RunConfig(digits=args.digits, output_format=args.format,
                        output_path=args.out)
        if cfg.digits < MIN_DIGITS:
            raise UsageError(f"--digits must be >= {MIN_DIGITS}")
        with working(cfg.digits):
            if args.tol is None:
                cfg.tol = max(mpf("1e-30"), mpf(10) ** (5 - cfg.digits))
            else:
                cfg.tol = _real_arg(args.tol, "--tol", cfg.digits)
        cfg.validate()
        report = _DISPATCH[args.command](args, cfg)
        text = render(report)
        if cfg.output_path:
            with open(cfg.output_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 1
    except ZetakitError as e:
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
