"""One workload in a fresh process: set zetakit up, then run the job list
pass after pass until the time is up, checking every result.

    python3 perfbench/worker.py --role setup --workload NAME
    python3 perfbench/worker.py --role run --workload NAME --seed N --seconds S --trace 0|1

Prints one JSON object.  ``run.py`` starts this script; call it by hand
only to debug a workload.

Machine speed on a shared host drifts by +-30% over tens of seconds, far
more than the changes the benchmark must resolve.  So a fixed mpmath
reference kernel, which uses no zetakit code, is timed between jobs about
every REF_EVERY_S seconds, and reported times are scaled by REF_KERNEL_S
over the kernel's measured time (see ``Passes``): seconds at the speed
REF_KERNEL_S was measured at.  Raw seconds are kept in the output too.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
clock = time.perf_counter

# The reference kernel's time on an undisturbed core of a 2-core Xeon
# host at 2.1 GHz (Python 3.11.7, mpmath 1.3.0, pure-Python backend).
REF_KERNEL_S = 0.0125
REF_EVERY_S = 0.25
JOB_WINDOW = 2
SETUP_REF_SAMPLES = 5


def reference_kernel():
    """Fixed mpmath work (no zetakit): mpf arithmetic and elementary
    functions at 60 digits, the mix the workloads spend their time in."""
    from mpmath import mp, mpf

    with mp.workdps(60):
        t = mpf(0)
        for n in range(1, 1500):
            t += mpf(1) / (mpf(n) ** 2 + 1)
        x = mpf(2)
        for _ in range(100):
            x = mp.log(x + 3) + mp.exp(x / 7)
    return t


def timed_reference():
    t0 = clock()
    reference_kernel()
    return clock() - t0


def set_up(workload: str):
    """Import zetakit from the checkout and warm its lazy tables; return the
    module namespace and the raw seconds it took."""
    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import zetakit
    from zetakit import bern, cli, lineone, numerics, oddzeta, primes, primetail, zetacore

    import workloads

    if not Path(zetakit.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"zetakit imported from {zetakit.__file__}, not from this checkout")
    zk = SimpleNamespace(bern=bern, cli=cli, lineone=lineone, numerics=numerics,
                         oddzeta=oddzeta, primes=primes, primetail=primetail,
                         zetacore=zetacore, forensics_module=sys.modules["zetakit.forensics"])
    workloads.warm_up(workload, zk)
    return zk, clock() - t0


def run_pass(wl, fingerprints):
    """Run every job once, timing the reference kernel before the first job
    and then whenever REF_EVERY_S of job time has passed since the last
    sample, and once more after the last job.

    Returns (job seconds, index of the sample before each job, reference
    samples, failure messages by job name).
    """
    from workloads import CheckError

    times, before, refs, results, failures = [], [], [], {}, {}
    since_ref = REF_EVERY_S
    for job in wl.jobs:
        if since_ref >= REF_EVERY_S:
            refs.append(timed_reference())
            since_ref = 0.0
        before.append(len(refs) - 1)
        t0 = clock()
        try:
            result = job.call()
        except Exception as e:  # any raise is a failed job, not a crash
            failures[job.name] = f"raised {type(e).__name__}: {e}"
            continue
        finally:
            times.append(clock() - t0)
            since_ref += times[-1]
        try:
            fp = job.check(result)
        except CheckError as e:
            failures[job.name] = str(e)
            continue
        if fingerprints.setdefault(job.name, fp) != fp:
            failures[job.name] = "result differs from the first pass"
            continue
        results[job.name] = result
    refs.append(timed_reference())
    for check in wl.pass_checks:
        for name in check(results):
            failures.setdefault(name, "pass-level consistency check failed")
    return times, before, refs, failures


class Passes:
    """Job seconds and reference samples of the untraced or the traced passes
    of a run.

    Pass times are scaled by REF_KERNEL_S over the mean of all samples: the
    samples come every REF_EVERY_S of job time, so the two means cover the
    same stretch of machine speed.  A single job is scaled by the mean of
    the JOB_WINDOW samples on each side of it instead, since a job of a few
    milliseconds sees only the speed of that moment.
    """

    def __init__(self):
        self.log = []  # per pass: job seconds, sample index before each job, samples

    def add(self, times, before, refs):
        self.log.append({"times": times, "before": before, "refs": refs})

    def speed(self):
        """Factor that turns raw seconds into seconds at reference speed."""
        return REF_KERNEL_S / statistics.fmean(r for p in self.log for r in p["refs"])

    def raw_walls(self):
        return [sum(p["times"]) for p in self.log]

    def wall(self):
        """Mean seconds per pass at reference speed."""
        return self.speed() * statistics.fmean(self.raw_walls())

    def job_p50(self):
        """Median seconds per job at reference speed."""
        scaled = []
        for p in self.log:
            refs = p["refs"]
            for t, i in zip(p["times"], p["before"]):
                near = refs[max(0, i + 1 - JOB_WINDOW):i + 1 + JOB_WINDOW]
                scaled.append(t * REF_KERNEL_S / statistics.fmean(near))
        return statistics.median(scaled)


def run(args):
    zk, _ = set_up(args.workload)
    import layertrace
    import workloads

    wl = workloads.build(args.workload, zk, args.seed)
    tracer = layertrace.Tracer() if args.trace else None
    fingerprints = {}
    plain, traced = Passes(), Passes()
    layer_passes, count_passes = [], []
    attempted, failed, failures = 0, 0, {}
    last_spans = []
    deadline = clock() + args.seconds
    tracing = False  # with --trace 1, untraced and traced passes alternate
    while True:
        if tracing:
            tracer.install()
        try:
            times, before, refs, fails = run_pass(wl, fingerprints)
        finally:
            if tracing:
                tracer.uninstall()
        attempted += len(times)
        failed += len(fails)
        for name, msg in fails.items():
            failures.setdefault(name, msg)
        if tracing:
            traced.add(times, before, refs)
            last_spans, counts = tracer.take()
            layer_passes.append(layertrace.summarize(last_spans))
            count_passes.append(counts)
        else:
            plain.add(times, before, refs)
        if clock() >= deadline and (not args.trace or traced.log):
            break
        if args.trace:
            tracing = not tracing

    out = {
        "passes": len(plain.log) + len(traced.log),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": {job.name: fingerprints.get(job.name) for job in wl.jobs if job.digest},
        "speed": plain.speed(),
        "raw_pass_s": plain.raw_walls(),
        "log": plain.log,
        "wall_s": plain.wall(),
        "job_s.p50": plain.job_p50(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        calls = [{k: v["calls"] for k, v in p.items()} for p in layer_passes]
        if any(c != calls[0] for c in calls) or any(c != count_passes[0] for c in count_passes):
            out["failed"] += 1
            out["failures"]["trace"] = "call counts differ between traced passes"
        tspeed = traced.speed()
        out["layers"] = {
            name: {
                "calls": calls[0][name],
                "s": tspeed * statistics.median(p[name]["s"] for p in layer_passes),
                "self_s": tspeed * statistics.median(p[name]["self_s"] for p in layer_passes),
            }
            for name in layertrace.layer_names()
        }
        out["counts"] = {f"{layer}.{key}": count_passes[0].get(f"{layer}.{key}", 0)
                         for layer, key in layertrace.COUNTS}
        out["overhead_frac"] = traced.wall() / plain.wall() - 1
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        layertrace.dump(last_spans, str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return out


def setup_sample(workload):
    """Set-up seconds, raw and at reference speed (the kernel is timed right
    after, while the machine is still at the speed set-up ran at)."""
    _, raw = set_up(workload)
    refs = [timed_reference() for _ in range(SETUP_REF_SAMPLES)]
    return {"raw_setup_s": raw, "setup_s": raw * REF_KERNEL_S / statistics.fmean(refs)}


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--role", choices=("setup", "run"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    out = setup_sample(args.workload) if args.role == "setup" else run(args)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
