"""zetakit benchmark: one workload, one command, every metric by name.

    python3 perfbench/run.py --workload line_one|prime_tail|odd_series \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script compiles ``src/`` to bytecode,
measures set-up (import plus one warm-up call per precision) in several
fresh processes, then runs the workload in one more fresh, single-threaded
process: the seeded job list is repeated, pass after pass, for ``--seconds``
and every result is checked against mpmath.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any check failed.

With ``--trace 0`` the metrics are end to end:

* ``wall_s``       -- seconds for one pass of the job list (time to the
                      whole checked set of solutions);
* ``job_s.p50``    -- median seconds per job;
* ``setup_s``      -- median set-up seconds over the set-up processes;
* ``peak_rss_mb``  -- peak resident memory of the workload process.

With ``--trace 1`` untraced and traced passes alternate, and the metrics are
per layer: ``<module>.<function>.calls`` (per pass, exact), ``.s``
(inclusive) and ``.self_s`` (medians over traced passes), exact work counts
read off results, and ``trace.overhead_frac``, traced over untraced pass
time minus 1.

Times are in seconds at a fixed machine speed.  On a shared 2-core Xeon
host at 2.1 GHz the speed of the same code drifts by up to +-30% from one
half-minute to the next (8 identical line-one-sized runs spread 5.8-7.3 s,
CPU time tracking wall time), so the workload process times a reference
kernel between jobs and scales by it; see worker.py.  Raw seconds are
printed and kept in ``perfbench/out/``.

Failures (raised, unconverged or off their oracle) are counted in
``failed``; ``fail_frac`` is printed on its own line but is not a metric,
since it is 0 on a healthy tree.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # only compileall below writes bytecode

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("line_one", "prime_tail", "odd_series")
SETUP_PROCESSES = 7
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_SLACK_S = 100

# one thread per process: numpy's BLAS must not fan out across the cores
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def child(args, timeout):
    """Run perfbench/worker.py with ``args``; return its JSON output."""
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    p = argparse.ArgumentParser(description="zetakit benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    src = ROOT / "src" / "zetakit"
    if not src.is_dir():
        sys.stderr.write(f"no zetakit sources at {src}; run from the root of a checkout\n")
        return 2
    if not compileall.compile_dir(str(src), quiet=1) or not compileall.compile_dir(
            str(HERE), maxlevels=0, quiet=1):
        sys.stderr.write("bytecode compilation failed\n")
        return 2

    setups = [child(["--role", "setup", "--workload", args.workload], SETUP_TIMEOUT_S)
              for _ in range(SETUP_PROCESSES)]
    res = child(["--role", "run", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                args.seconds + RUN_TIMEOUT_SLACK_S)

    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {res['passes']} passes, "
          f"{attempted} jobs, {failed} failed, fail_frac {failed / attempted:.6g}")
    print(f"raw seconds per untraced pass {[round(t, 3) for t in res['raw_pass_s']]}, "
          f"machine speed factor {res['speed']:.4f}")
    for name, msg in sorted(res["failures"].items()):
        print(f"FAIL {name}: {msg}")
    for name, digest in sorted(res["digests"].items()):
        print(f"sha256 {digest} {name}")

    if args.trace:
        metrics = {}
        for name, row in res["layers"].items():
            metrics[f"{name}.calls"] = metric(row["calls"], "count")
            metrics[f"{name}.s"] = metric(row["s"], "s")
            metrics[f"{name}.self_s"] = metric(row["self_s"], "s")
        for name, n in res["counts"].items():
            metrics[name] = metric(n, "count")
            print(f"count {name} = {n}")
        metrics["trace.overhead_frac"] = metric(res["overhead_frac"], "ratio")
    else:
        metrics = {
            "wall_s": metric(res["wall_s"], "s"),
            "job_s.p50": metric(res["job_s.p50"], "s"),
            "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        }

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = dict(res, setups=setups, metrics=metrics, seed=args.seed, workload=args.workload)
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
