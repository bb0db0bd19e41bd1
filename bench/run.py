"""Benchmark of semiralg: four workloads, timed end to end, traced per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tropical-closure --seed 1 --seconds 15 --trace 0

Workloads: tropical-closure, interval-lift, real-factor-solve, cli-jobs
(see ``workloads.py`` for what each runs and why).  One caller runs the
jobs of a workload in a closed loop, in the main thread, for at least
``--seconds`` seconds and at least 100 jobs, in whole rounds.  Every
output is checked against an independent oracle after the timed phase.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same loop, then one traced round, a counting pass and fixed
micro-measurements, and prints the per-layer metrics.  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark imports semiralg from ``src/`` of the checkout it lives
in and exits with code 2, printing no result, when that is missing.
"""

import time

_T0 = time.perf_counter()

import argparse          # noqa: E402 - the clock above starts first
import json              # noqa: E402
import os                # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
from pathlib import Path  # noqa: E402

import calib             # noqa: E402 - imports nothing from the program

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3        # fresh-process set-ups whose median is setup_s

END_TO_END = {
    "job_time.p50": "cu",
    "job_time.p90": "cu",
    "throughput": "1/kcu",
    "ok_share": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build inputs, write files, warm up, and exit")
    return p.parse_args(argv)


def import_program():
    """Import semiralg from this checkout only; None when it is absent."""
    if not (SRC / "semiralg" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import semiralg
    if Path(semiralg.__file__).resolve().parent != (SRC / "semiralg").resolve():
        return None
    return semiralg


def bound_of(metric, default=0.25):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return default
    return next((m["bound"] for m in spec.get("end_to_end", ())
                 if m["name"] == metric), default)


def set_up(args, workdir):
    """Everything before the timed phase that setup_s measures."""
    import harness
    import workloads
    plan = workloads.build_plan(args.workload, args.seed, workdir)
    for job in workloads.warmup_jobs(args.workload, workdir):
        harness.run_job(job, calib.Calibrator())
    return plan


def time_setups(args):
    """Set-up seconds of fresh processes that only set up.

    Each is the wall time from spawn to exit, scaled to the reference
    speed of the calibration kernel by the mean kernel time the process
    sampled while it set up (it prints that mean as its only output).
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        samples.append(wall * calib.REFERENCE_MS / float(done.stdout.split()[-1]))
    return samples


def verdicts(plan, log_path, oracle):
    """Oracle verdict per pool slot, from the logged outcomes."""
    out = {}
    with open(log_path) as fh:
        for r, jobs in enumerate(plan):
            for slot, job in enumerate(jobs):
                outcome = json.loads(fh.readline())
                out[(r, slot)] = (oracle.check(job, outcome), outcome)
    return out


def tally(records, pool_verdicts, loop):
    """(failed, wrong, reasons) over every attempted job."""
    failed = wrong = 0
    reasons = {}
    for rec in records:
        (verdict, why), _ = pool_verdicts[rec.slot]
        if verdict == "ok" and rec.digest != loop.pool_digests[rec.slot]:
            verdict = "error" if rec.raised is not None else "wrong"
            why = "output differs from the same input's first run"
        if verdict != "ok":
            failed += 1
            wrong += verdict == "wrong"
            reasons[why] = reasons.get(why, 0) + 1
    return failed, wrong, reasons


def end_to_end(records, setup_samples, peak_rss_mb, failed):
    import harness
    cu = [r.cu for r in records]
    return {
        "job_time.p50": harness.job_percentile(records, 50),
        "job_time.p90": harness.job_percentile(records, 90),
        "throughput": 1000 * len(cu) / sum(cu),
        "ok_share": (len(records) - failed) / len(records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(args, workdir, plan, loop, untraced, calib_ms):
    import harness
    import layers
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    first = len(loop.records)
    try:
        loop.tracer = tracer
        loop.run_round(len(loop.records) // len(plan[0]))
    finally:
        loop.tracer = None
        tracer.uninstall()
    traced = loop.records[first:]
    harness.normalize(traced)
    out = layers.span_metrics(tracer.spans, len(traced))
    out["trace.overhead"] = (harness.job_percentile(traced, 50)
                             / harness.job_percentile(untraced, 50) - 1)
    out["calib.ms"] = calib_ms
    out["gc.collections"] = statistics.mean(r.gcs for r in untraced)
    counts, misses = layers.counting_pass(plan)
    out.update(counts)
    out.update(layers.scalar_fma_metrics())
    out.update(layers.lift_metrics())
    out["closure.fork_speedup"], fork_identical = layers.fork_speedup(args.seed)
    out["cli.cold_start_ms"] = layers.cold_start_ms(ROOT, workdir)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    notes = [f"closed form mismatch: {m}" for m in misses]
    if not fork_identical:
        notes.append("threaded block closure differs from the serial one")
    if tracer.missing:
        notes.append("not traced (absent): " + ", ".join(tracer.missing))
    return out, notes, not misses and fork_identical


def main(argv=None):
    args = parse_args(argv)
    semiralg = import_program()
    if semiralg is None:
        sys.stderr.write(f"error: no semiralg package under {SRC}\n")
        return 2
    import harness
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"known: {', '.join(workloads.WORKLOADS)}\n")
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        sampler = calib.Calibrator()
        with sampler.running():
            plan = set_up(args, workdir)
        own_setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(statistics.mean(ms for _, ms in sampler.samples))
            return 0
        setup_samples = [] if args.trace else time_setups(args)

        log_path = workdir / "outcomes.jsonl"
        timed_start = time.perf_counter()
        with open(log_path, "w") as log:
            loop = harness.Loop(plan, log)
            rounds = loop.run_for(args.seconds, workloads.MIN_JOBS)
        timed_s = time.perf_counter() - timed_start
        untraced = list(loop.records)
        harness.normalize(untraced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        calib_samples = [ms for r in untraced for ms in r.calib]
        calib_ms = statistics.median(calib_samples)

        notes = []
        counts_ok = True
        if args.trace:
            metrics, notes, counts_ok = per_layer(args, workdir, plan, loop,
                                                  untraced, calib_ms)
            units = layers.PER_LAYER
        else:
            metrics = None
            units = END_TO_END

        oracle_start = time.perf_counter()
        import oracles
        pool = verdicts(plan, log_path, oracles.Oracle())
        oracle_s = time.perf_counter() - oracle_start
        failed, wrong, reasons = tally(loop.records, pool, loop)
        if metrics is None:
            metrics = end_to_end(untraced, setup_samples, peak_rss_mb,
                                 tally(untraced, pool, loop)[0])
        if args.trace:
            metrics.update(layers.byte_counts(
                plan[0], [pool[(0, s)][1] for s in range(len(plan[0]))]))

        if set(metrics) != set(units):
            raise RuntimeError("metrics differ from their list: "
                               f"{sorted(set(metrics) ^ set(units))}")
        calib_spread = harness.spread(calib_samples)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
              f"{len(untraced)} timed jobs in {rounds} rounds of {len(plan[0])}, "
              f"closed loop, one caller")
        raw = {"job_time.p50": harness.job_percentile(untraced, 50, "ms"),
               "job_time.p90": harness.job_percentile(untraced, 90, "ms")}
        for name, value in metrics.items():
            extra = f"   ({raw[name]:.2f} ms raw)" if name in raw else ""
            label = "   (computed)" if units[name].endswith("computed") else ""
            print(f"  {name:36s} {value:14.6g} {units[name]}{extra}{label}")
        print(f"  calibration: median {calib_ms:.4f} ms, spread {calib_spread:.3f}"
              + ("  FLAGGED: exceeds the bound" if calib_spread > bound_of("job_time.p50")
                 else ""))
        print(f"  failed_share {failed / len(loop.records):.4f}; "
              f"own set-up {own_setup_s:.2f} s, timed phase {timed_s:.1f} s, "
              f"oracle {oracle_s:.1f} s")
        print(f"  digest sha256:{loop.digest.hexdigest()} (first {len(plan)} rounds)")
        verdict = "ok" if wrong == 0 and counts_ok else "WRONG OUTPUT"
        print(f"  oracle: {verdict}; {len(loop.records)} jobs attempted, {failed} failed, "
              f"{wrong} with wrong output")
        for why, n in sorted(reasons.items()):
            print(f"    {n} x {why}")
        for note in notes:
            print(f"  note: {note}")
        result = {"correct": wrong == 0 and counts_ok,
                  "attempted": len(loop.records), "failed": failed,
                  "metrics": {k: {"value": v, "unit": units[k]}
                              for k, v in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass        # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
