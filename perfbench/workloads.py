"""Workload definitions: seeded inputs, the job list of one pass, and the
oracle checks that judge every result.

Every oracle here is mpmath's own implementation (``mp.zeta``,
``mp.zeta(s, a)``, ``mp.primezeta``) or an independent float64 sum over a
sieve written in this file, never a zetakit route.  Jobs look the package
functions up on their modules at call time, so the tracer's rebinding is
seen by the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np
from mpmath import mp, mpc, mpf

# Extra digits the oracles carry beyond the job's own precision.
ORACLE_PAD = 20

# The README's forensics verdict table.
VERDICTS = {
    "eq2": "exact", "eq3": "exact", "eq4": "exact", "eq5": "exact",
    "eq25": "exact", "eq31": "exact", "eq34": "exact", "eq49": "exact",
    "zeta5": "approximation", "eq9": "approximation", "eq10": "approximation",
    "eq11_f2": "approximation", "eq13": "approximation", "eq16": "approximation",
    "eq21": "suspected_typo", "eq22": "suspected_typo", "eq23": "suspected_typo",
    "eq24": "suspected_typo", "eq26": "suspected_typo", "eq38": "suspected_typo",
    "eq42": "suspected_typo", "eq52": "suspected_typo",
}
# Forensics ids that sum over primes; they belong to the prime-tail layer,
# so odd_series leaves them out.
PRIME_IDS = ("eq9", "eq10", "eq13", "eq16")


class CheckError(Exception):
    """A result missed its oracle."""


@dataclass
class Job:
    """One timed call.  ``check`` raises CheckError on a wrong result and
    returns a short fingerprint that must repeat exactly in every pass."""

    name: str
    call: Callable[[], object]
    check: Callable[[object], str]
    digest: bool = False  # the fingerprint is a SHA-256 of CLI output


@dataclass
class Workload:
    jobs: List[Job]
    # checks over a whole pass: results keyed by job name in, names of the
    # jobs that failed out
    pass_checks: List[Callable[[Dict[str, object]], List[str]]] = field(default_factory=list)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def _fp(x) -> str:
    return mp.nstr(x, 60) if isinstance(x, (mpf, mpc)) else repr(x)


# ---------------------------------------------------------------------------
# line_one
# ---------------------------------------------------------------------------

LINE_ONE_DIGITS = 50
LINE_ONE_GATE = mpf("1e-8")  # acceptance 6: pairwise and against mp.zeta
LINE_ONE_SCAN = 12


def _line_one_jobs(zk, bstr: str, integral: bool, tag: str = "") -> List[Job]:
    """zeta(1+ib) by the eta route and the oracle, and by the integral route
    first when ``integral`` is set."""
    d = LINE_ONE_DIGITS
    with mp.workdps(d + ORACLE_PAD):
        b = mpf(bstr)
        want = mp.zeta(mpc(1, b))

    def near(value):
        with mp.workdps(d + ORACLE_PAD):
            err = abs(mpc(value) - want)
        _require(err <= LINE_ONE_GATE,
                 f"b={bstr}: |value - mp.zeta| = {mp.nstr(err, 3)} > {LINE_ONE_GATE}")
        return _fp(value)

    def point(method):
        def check(r):
            _require(r.method == method, f"b={bstr}: method {r.method!r}")
            return near(r.value) + f" terms={r.terms_used}"
        return check

    jobs = [
        Job(f"{tag}eta b={bstr}", lambda: zk.lineone.zeta_line_one(b, mpf("1e-15"), d), point("eta")),
        Job(f"{tag}oracle b={bstr}",
            lambda: zk.zetacore.zeta_oracle(mpc(1, b), mpf("1e-20"), d), near),
    ]
    if integral:
        jobs.insert(0, Job(f"integral b={bstr}",
                           lambda: zk.lineone.zeta_line_one_integral(b, mpf("1e-9"), d),
                           point("integral")))
    return jobs


def _line_one(zk, seed: int) -> Workload:
    rng = random.Random(seed)
    # One b in each stratum [0.5, 2), [2, 4), [4, 6], drawn from a window of
    # width 0.25 at its middle: the integral's cost more than doubles across
    # a stratum, so a draw from the whole stratum would move a pass's time by
    # +-15% from seed to seed.  The windows share one uniform u and the last
    # is mirrored, so the cost slopes cancel to first order.
    u = rng.random()
    trios = [_line_one_jobs(zk, f"{b:.6f}", True)
             for b in (1.125 + 0.25 * u, 2.875 + 0.25 * u, 5.125 - 0.25 * u)]
    # The fast routes also scan a seeded grid over [0.5, 6].  Their cost
    # changes irregularly with b (the order ramp, the oracle's doublings),
    # so the median job is taken over the whole range, not three points.
    v = rng.random()
    scan = [job for i in range(LINE_ONE_SCAN)
            for job in _line_one_jobs(zk, f"{0.5 + (i + v) * 5.5 / LINE_ONE_SCAN:.6f}", False,
                                      "scan ")]

    def triangle(results):
        """Acceptance 6: the three routes agree pairwise."""
        failed = []
        for trio in trios:
            names = [job.name for job in trio]
            if not all(n in results for n in names):
                continue  # a member already failed on its own
            integral, eta, oracle = (results[n] for n in names)
            vals = [integral.value, eta.value, oracle]
            if max(abs(vals[i] - vals[j]) for i, j in ((0, 1), (0, 2), (1, 2))) > LINE_ONE_GATE:
                failed += names
        return failed

    jobs = [job for trio in trios for job in trio] + scan
    return Workload(jobs, [triangle])


def _warm_line_one(zk):
    d = LINE_ONE_DIGITS
    zk.lineone.zeta_line_one_integral(mpf("0.5"), mpf("1e-9"), d)
    zk.lineone.zeta_line_one(mpf("0.5"), mpf("1e-15"), d)
    zk.zetacore.zeta_oracle(mpc(1, mpf("0.5")), mpf("1e-20"), d)


# ---------------------------------------------------------------------------
# prime_tail
# ---------------------------------------------------------------------------

PRIME_DIGITS = 50
PRIME_TOL = mpf("1e-6")


def _sieve(n: int) -> np.ndarray:
    """Primes <= n by a plain sieve of Eratosthenes (independent of zetakit)."""
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0]


def _t_oracle(s) -> mpf:
    """t(s) = sum_p 1/(p^s - 1) = sum_{m >= 1} P(ms), P = mp.primezeta."""
    total = mpf(0)
    m = 0
    while True:
        m += 1
        term = mp.primezeta(m * s)
        total += term
        if term < mpf(10) ** (-mp.dps - 2):
            return total


def _t_closed_oracle(s) -> mpf:
    return mp.zeta(s) * (1 - mpf(2) ** (-s)) - 1 + 1 / (mpf(2) ** s - 1)


def _f_ratio_job(zk, s: int) -> Job:
    d = PRIME_DIGITS
    with mp.workdps(d + ORACLE_PAD):
        z_even, z_odd = mp.zeta(2 * s), mp.zeta(2 * s + 1)
        t_even, t_odd = _t_oracle(2 * s), _t_oracle(2 * s + 1)
        f_closed = (_t_closed_oracle(2 * s) / z_even) / (_t_closed_oracle(2 * s + 1) / z_odd)
        f_true = (t_even / z_even) / (t_odd / z_odd)
        # each direct tail is short of the true one by at most PRIME_TOL
        f_slack = f_true * (PRIME_TOL / t_even + PRIME_TOL / t_odd) * mpf("1.01")
        full = mpf(10) ** (-(d - 5))

    def check(r):
        with mp.workdps(d + ORACLE_PAD):
            for got, want, what in ((r.reference_zetas["zeta_2s"], z_even, "zeta(2s)"),
                                    (r.reference_zetas["zeta_2s_plus_1"], z_odd, "zeta(2s+1)"),
                                    (r.f_closed, f_closed, "f_closed")):
                _require(abs(got - want) <= full,
                         f"f_ratio({s}): {what} off by {mp.nstr(abs(got - want), 3)}")
            err = abs(r.f_direct - f_true)
        _require(err <= f_slack,
                 f"f_ratio({s}): f_direct off by {mp.nstr(err, 3)} > {mp.nstr(f_slack, 3)}")
        return _fp(r.f_direct)

    return Job(f"f_ratio s={s}", lambda: zk.oddzeta.f_ratio(s, "direct", PRIME_TOL, d), check)


def _t_direct_job(zk, sstr: str) -> Job:
    d = PRIME_DIGITS
    with mp.workdps(d + ORACLE_PAD):
        s = mpf(sstr)
        want = _t_oracle(s)
        rounding = mpf(10) ** (-(d - 5))

    def check(r):
        _require(r.converged, f"t_direct({sstr}) did not converge")
        with mp.workdps(d + ORACLE_PAD):
            short = want - r.value
        # a partial sum of positive terms: short of t(s), by at most the bound
        _require(-rounding <= short <= r.trunc_estimate,
                 f"t_direct({sstr}): short by {mp.nstr(short, 3)}, "
                 f"bound {mp.nstr(r.trunc_estimate, 3)}")
        return _fp(r.value) + f" primes={r.terms_used}"

    return Job(f"t_direct s={sstr}", lambda: zk.primetail.t_direct(s, PRIME_TOL, d), check)


def _euler_job(zk, bound: int) -> Job:
    d = PRIME_DIGITS
    primes = _sieve(bound).astype(np.float64)
    log_prod = -math.fsum(np.log1p(-primes ** -2.0).tolist())

    def check(r):
        got = float(mp.log(r))
        _require(abs(got - log_prod) <= 1e-12,
                 f"euler_product(2, {bound}): log {got!r} vs {log_prod!r}")
        with mp.workdps(d + ORACLE_PAD):
            gap = mp.log(mp.zeta(2) / r)
        # log(zeta(2)/E) = sum_{p > bound} -log(1 - p^-2) lies in (0, 1/(bound-1)]
        _require(0 < gap <= mpf(1) / (bound - 1), f"euler_product(2, {bound}): tail {gap}")
        return _fp(r)

    return Job(f"euler_product bound={bound}",
               lambda: zk.zetacore.euler_product(2, bound, d), check)


def _prime_tail(zk, seed: int) -> Workload:
    rng = random.Random(seed)
    jobs = [_f_ratio_job(zk, s) for s in (1, 2, 3, 4)]
    # Non-integer s from two strata of [2.25, 3.75]: there the 1e5 start
    # bound already meets the tolerance, so the prime count (and the cost)
    # does not depend on the draw, and the sum converges far below the cap.
    jobs += [_t_direct_job(zk, f"{lo + 0.75 * rng.random():.6f}") for lo in (2.25, 3.0)]
    # Two bounds from [5.5e5, 6.5e5], mirrored about 6e5, so the primes
    # summed per pass stay nearly constant across seeds; the narrow window
    # also keeps both products costlier than the t_direct jobs, so the
    # median job does not change from seed to seed.
    b1 = 550_000 + int(100_000 * rng.random())
    jobs += [_euler_job(zk, b1), _euler_job(zk, 1_200_000 - b1)]
    return Workload(jobs)


def _warm_prime_tail(zk):
    zk.primetail.t_direct(3, PRIME_TOL, PRIME_DIGITS)
    zk.zetacore.zeta_reference(3, PRIME_DIGITS)


# ---------------------------------------------------------------------------
# odd_series
# ---------------------------------------------------------------------------

ODD_DIGITS = (30, 50, 100)
FORENSICS_DIGITS = (30, 50)  # at 100 digits eq23/24/26 take seconds each
# ``compare`` runs the eq23 series, whose terms decay only polynomially; at
# 50 or 100 digits that one command would take half of a pass.
COMPARE_DIGITS = 30
ODD_TABLE_MAX = 15


def _tol(d: int) -> mpf:
    return mpf(10) ** (-(d - 20))


def _odd_closed_oracle(s: int, f) -> mpf:
    """zeta(2s+1) from the f-linking relation with mp.zeta(2s)."""
    p = mpf(2) ** (2 * s)
    A = 1 - 1 / p - (1 - 1 / (p - 1)) / mp.zeta(2 * s)
    B = (2 * p - 2) / (2 * p - 1)
    c1 = 1 - 1 / (2 * p)
    return B / (c1 - A / f)


def _cli_job(zk, argv: List[str], check_rows) -> Job:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = zk.cli.run(argv)
        return rc, buf.getvalue()

    def check(r):
        rc, text = r
        _require(rc == 0, f"cli {' '.join(argv)}: exit {rc}")
        check_rows(json.loads(text)["rows"])
        return hashlib.sha256(text.encode()).hexdigest()

    return Job("cli " + " ".join(argv), call, check, digest=True)


def _odd_jobs_at(zk, d: int, hurwitz_args) -> List[Job]:
    """The odd_series jobs at ``d`` digits, with tolerance 10^-(d-20)."""
    tol = _tol(d)
    job_tol = tol * 10  # what a job at tolerance ``tol`` may miss by
    full = mpf(10) ** (-(d - 5))  # for routes that work at full precision
    tag = f"d={d}"
    with mp.workdps(d + ORACLE_PAD):
        zeta_odd = {k: mp.zeta(k) for k in range(3, ODD_TABLE_MAX + 1, 2)}
        closed = {k: _odd_closed_oracle((k - 1) // 2, 2) for k in zeta_odd}
        zeros_b = {k: 2 * k * mp.pi / mp.log(2) for k in (1, 2, 3)}

    def near(x, want, limit, what):
        with mp.workdps(d + ORACLE_PAD):
            err = abs((mpf(x) if isinstance(x, str) else mpc(x)) - want)
        _require(err <= limit, f"{what}: off by {mp.nstr(err, 3)} > {mp.nstr(limit, 3)}")
        return _fp(x)

    def check_table(rows):
        _require([r.argument for r in rows] == list(zeta_odd), "odd_error_table arguments")
        for r in rows:
            near(r.reference_value, zeta_odd[r.argument], job_tol, f"table ref {r.argument}")
            near(r.formula_value, closed[r.argument], full, f"table formula {r.argument}")
        return " ".join(_fp(r.abs_diff) for r in rows)

    jobs = [Job(f"odd_error_table {tag}",
                lambda: zk.oddzeta.odd_error_table(ODD_TABLE_MAX, 2, tol, d), check_table)]
    for t in (3, 5, 7):
        jobs.append(Job(f"zeta_known_ref({t}) {tag}",
                        lambda t=t: zk.oddzeta.zeta_known_ref(t, tol, d),
                        lambda r, t=t: near(r, zeta_odd[t], job_tol, f"zeta_known_ref({t})")))
    for variant in ("eq24", "eq25", "eq26"):
        for n in (1, 2, 3):
            jobs.append(Job(
                f"zeta_odd_literature({n}, {variant}) {tag}",
                lambda n=n, v=variant: zk.oddzeta.zeta_odd_literature(n, v, tol, d),
                lambda r, n=n, v=variant: near(r, zeta_odd[2 * n + 1], job_tol, f"{v} n={n}")))
    for s, a in hurwitz_args:
        with mp.workdps(d + ORACLE_PAD):
            sm, am = mpf(s), mpf(a)
            want = mp.zeta(sm, am)
        jobs.append(Job(f"hurwitz_zeta({s}, {a}) {tag}",
                        lambda sm=sm, am=am: zk.numerics.hurwitz_zeta(sm, am, None, d),
                        lambda r, want=want, s=s, a=a: near(r, want, full, f"hurwitz({s}, {a})")))

    def rows_table(rows):
        _require([r["argument"] for r in rows] == list(zeta_odd), "odd-table arguments")
        for r in rows:
            k = r["argument"]
            near(r["reference_value"], zeta_odd[k], job_tol, f"odd-table ref {k}")
            near(r["formula_value"], closed[k], full, f"odd-table formula {k}")

    def rows_zeros(rows):
        _require([r["k"] for r in rows] == [1, 2, 3], "zeros k")
        for r in rows:
            near(r["b"], zeros_b[r["k"]], full, f"zeros b_{r['k']}")
            _require(float(r["abs_eta"]) <= 1e-12, f"zeros |eta(b_{r['k']})|")

    def rows_compare(rows):
        _require(len(rows) == 3 * 6, f"compare: {len(rows)} rows")
        for r in rows:
            t = r["target"]
            if r["method"] == "odd-approx":
                near(r["value"], closed[t], full, f"compare {t} odd-approx")
            else:
                # the CLI loosens tol to >= 1e-(digits-10), and eq23's to >= 1e-10
                near(r["value"], zeta_odd[t], mpf("1e-9"), f"compare {t} {r['method']}")

    with mp.workdps(d):
        common = ["--digits", str(d), "--tol", mp.nstr(tol, 3), "--format", "json"]
    jobs += [
        _cli_job(zk, ["odd-table", "--max", str(ODD_TABLE_MAX)] + common, rows_table),
        _cli_job(zk, ["zeros", "--k", "1..3"] + common, rows_zeros),
    ]
    if d == COMPARE_DIGITS:
        jobs.append(_cli_job(zk, ["compare"] + common, rows_compare))
    if d in FORENSICS_DIGITS:
        for fid in VERDICTS:
            if fid in PRIME_IDS:
                continue

            def check_verdict(r, fid=fid):
                _require(len(r) == 1 and r[0].formula_id == fid, f"forensics {fid}: report")
                _require(r[0].verdict == VERDICTS[fid],
                         f"forensics {fid}: verdict {r[0].verdict} != {VERDICTS[fid]}")
                return r[0].verdict + " " + _fp(r[0].deviation)

            jobs.append(Job(f"forensics {fid} {tag}",
                            lambda fid=fid: zk.forensics_module.forensics([fid], tol, d),
                            check_verdict))
    return jobs


def _odd_series(zk, seed: int) -> Workload:
    rng = random.Random(seed)
    hurwitz_args = [(f"{2 + 4 * rng.random():.6f}", f"{0.25 + 1.75 * rng.random():.6f}")
                    for _ in range(4)]
    jobs = [job for d in ODD_DIGITS for job in _odd_jobs_at(zk, d, hurwitz_args)]
    rng.shuffle(jobs)
    return Workload(jobs)


def _warm_odd_series(zk):
    for d in ODD_DIGITS:
        zk.zetacore.zeta_reference(3, d)
        zk.numerics.hurwitz_zeta(2, mpf("0.5"), None, d)


_WORKLOADS = {"line_one": _line_one, "prime_tail": _prime_tail, "odd_series": _odd_series}
_WARM_UPS = {"line_one": _warm_line_one, "prime_tail": _warm_prime_tail,
             "odd_series": _warm_odd_series}


def warm_up(name: str, zk) -> None:
    """One untimed call per precision the workload uses, filling the lazy
    tables (Bernoulli memo, quadrature nodes, digamma coefficients)."""
    _WARM_UPS[name](zk)


def build(name: str, zk, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``.

    ``zk`` is a namespace holding the zetakit modules, looked up at call
    time so that rebinding by the tracer is honoured.
    """
    return _WORKLOADS[name](zk, seed)
