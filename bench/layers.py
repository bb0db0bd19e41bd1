"""Per-layer metrics of the traced run.

Three sources, kept apart so that no count is taken inside timed code:

* spans from :mod:`tracing`, recorded over one traced round of the
  workload, give self times and call counts per layer;
* a counting pass re-runs one small job of every kind with counting
  wrappers (``OpCounter`` for LDM, a descriptor copy whose ``fma``
  counts calls for the closures) and checks the counts against their
  closed forms;
* fixed micro-measurements (scalar and interval ``fma``, the interval
  lift ratio, the thread fork path, a cold CLI start) that do not
  depend on the workload and so read the same on every workload.

Metric names, units and meanings are listed in ``PER_LAYER``.  A span
metric of a layer that the workload never calls reads 0.
"""

import dataclasses
import gc
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import semiralg
from semiralg import NEG_INF, POS_INF, ClosureOptions, Matrix, OpCounter

import harness
import tracing
import workloads

CARRIERS = ("maxplus", "maxplus_complete", "minplus", "maxmin", "boolean",
            "rplus", "rplus_complete", "real_field")
LIFTED = ("maxplus", "minplus", "maxmin")

PER_LAYER = {
    **{f"semirings.fma_ns.{c}": "ns" for c in CARRIERS},
    "closure.block.self_ms": "ms",
    "closure.gauss_jordan.self_ms": "ms",
    "closure.iterative.self_ms": "ms",
    "closure.iterative.iterations": "count",
    "closure.solve_bellman.self_ms": "ms",
    "closure.accumulates": "count",
    "closure.fork_speedup": "ratio",
    "matrices.mul.self_ms": "ms",
    "matrices.mul.calls": "count",
    **{f"intervals.fma_ns.{c}": "ns" for c in LIFTED},
    "intervals.lift_ratio.gauss_jordan": "ratio",
    "intervals.lift_ratio.block": "ratio",
    "intervals.lift_ratio.ldm": "ratio",
    "intervals.gc_collections": "count",
    "ldm.factorize.self_ms": "ms",
    "ldm.symmetric_factorize.self_ms": "ms",
    "ldm.solve.self_ms": "ms",
    "ldm.solve.calls": "count",
    "ldm.ops.adds": "count",
    "ldm.ops.muls": "count",
    "ldm.ops.stars": "count",
    "graphs.to_matrix.self_ms": "ms",
    "graphs.frontend.self_ms": "ms",
    "serialize.decode.self_ms": "ms",
    "serialize.encode.self_ms": "ms",
    "serialize.bytes_in": "B.computed",
    "serialize.bytes_out": "B.computed",
    "cli.parse.self_ms": "ms",
    "cli.read.self_ms": "ms",
    "cli.compute_share": "fraction",
    "cli.cold_start_ms": "ms",
    "calib.ms": "ms",
    "trace.overhead": "ratio",
    "gc.collections": "count",
}

# span names grouped into the metric they feed
SPAN_GROUPS = {
    "closure.block": ("closure.block",),
    "closure.gauss_jordan": ("closure.gauss_jordan",),
    "closure.iterative": ("closure.iterative",),
    "closure.solve_bellman": ("closure.solve_bellman",),
    "matrices.mul": ("matrices.mul",),
    "ldm.factorize": ("ldm.factorize",),
    "ldm.symmetric_factorize": ("ldm.symmetric_factorize",),
    "ldm.solve": ("ldm.solve",),
    "graphs.to_matrix": ("graphs.to_matrix",),
    "graphs.frontend": ("graphs.shortest_paths", "graphs.widest_paths",
                        "graphs.max_profit", "graphs.real_matrix_star"),
    "serialize.decode": ("serialize.loads", "serialize.matrix_from_json",
                         "serialize.graph_from_json"),
    "serialize.encode": ("serialize.dumps", "serialize.matrix_to_json",
                         "serialize.triple_to_json", "cli.render"),
    "cli.parse": ("cli.main",),
    "cli.read": ("cli.read",),
}
KERNELS = {"closure.block", "closure.gauss_jordan", "closure.iterative",
           "closure.dispatch", "closure.solve_bellman", "matrices.mul",
           "ldm.factorize", "ldm.symmetric_factorize", "ldm.solve"}


# ---------------------------------------------------------------- spans

def span_metrics(spans, jobs):
    """Self time per call (ms) per layer, and per-job call counts."""
    selfs = tracing.self_times(spans)
    total, calls = {}, {}
    for span, self_ns in zip(spans, selfs):
        total[span[0]] = total.get(span[0], 0) + self_ns
        calls[span[0]] = calls.get(span[0], 0) + 1
    out = {}
    for metric, names in SPAN_GROUPS.items():
        n = sum(calls.get(s, 0) for s in names)
        ns = sum(total.get(s, 0) for s in names)
        out[f"{metric}.self_ms"] = ns / n / 1e6 if n else 0.0
    out["matrices.mul.calls"] = calls.get("matrices.mul", 0) / jobs
    out["ldm.solve.calls"] = calls.get("ldm.solve", 0) / jobs
    mains = [s for s in spans if s[0] == "cli.main"]
    main_ns = sum(s[2] - s[1] for s in mains)
    kernel_ns = sum(spans[i][2] - spans[i][1] for i in tracing.outermost(spans, KERNELS)
                    if _under(spans, i, "cli.main"))
    out["cli.compute_share"] = kernel_ns / main_ns if main_ns else 0.0
    return out


def _under(spans, sid, name):
    parent = spans[sid][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# ---------------------------------------------------------------- counting

def counting_fma(d, tally):
    base = d.fma

    def fma(acc, x, y):
        tally[0] += 1
        return base(acc, x, y)
    return dataclasses.replace(d, fma=fma)


def ldm_closed_forms(n):
    return {"adds": (2 * n**3 - 3 * n**2 + n) // 6,
            "muls": (2 * n**3 + 3 * n**2 - 5 * n) // 6,
            "stars": n * (n + 1) // 2}


def counting_pass(plan):
    """Counts over one job of every (kind, carrier) pair of round 0 at
    its smallest size.  Returns (metrics, list of closed-form misses)."""
    chosen = {}
    for job in plan[0]:
        key = (job.kind, job.carrier, job.spec.get("format"))
        if key not in chosen or job.n < chosen[key].n:
            chosen[key] = job
    accumulates, iterations, misses = 0, [], []
    ops = OpCounter()
    for job in chosen.values():
        spec = job.spec
        if job.kind.startswith("cli."):
            if job.kind == "cli.factor" and spec.get("format") == "json":
                code, out = workloads.run_main(spec["argv"][:1] + ["--count-ops"]
                                               + spec["argv"][1:])
                counts = json.loads(out)["counts"]
                _check_counts(counts, ldm_closed_forms(job.n), job, misses)
                for k in ("adds", "muls", "stars"):
                    setattr(ops, k, getattr(ops, k) + counts[k])
            continue
        if job.kind in ("closure_block", "closure_gauss_jordan", "solve_bellman",
                        "closure_iterative"):
            tally = [0]
            d = counting_fma(workloads.descriptor(job.carrier, spec.get("interval", False)),
                             tally)
            A = Matrix(d, [[workloads.decode(v) for v in row] for row in spec["A"]])
            if job.kind == "closure_block":
                semiralg.closure_block(A)
            elif job.kind == "closure_gauss_jordan":
                semiralg.closure_gauss_jordan(A)
                if tally[0] != job.n ** 3:
                    misses.append(f"{job.kind} {job.carrier} n={job.n}: "
                                  f"{tally[0]} accumulates, expected n^3")
            elif job.kind == "solve_bellman":
                B = Matrix(d, [[workloads.decode(v) for v in row] for row in spec["B"]])
                semiralg.solve_bellman(A, B)
            else:
                res = semiralg.closure_iterative(
                    A, ClosureOptions(algorithm="iterative", max_iterations=60))
                iterations.append(res.iterations)
            accumulates += tally[0]
        elif job.kind in ("ldm_factorize", "symmetric_factorize", "solve_ldm"):
            A = workloads.to_matrix(job.carrier, spec["A"], spec.get("interval", False))
            counter = OpCounter()
            n = job.n
            if job.kind == "ldm_factorize":
                semiralg.ldm_factorize(A, counter)
                expect = ldm_closed_forms(n)
            elif job.kind == "symmetric_factorize":
                semiralg.symmetric_factorize(A, counter)
                expect = {"stars": n * (n - 1) // 2}
            else:
                triple = semiralg.ldm_factorize(A)
                semiralg.solve_ldm(triple, spec["b"], counter)
                expect = {"adds": n * n - n, "muls": n * n, "stars": n}
            _check_counts(counter.as_dict(), expect, job, misses)
            for k in ("adds", "muls", "stars"):
                setattr(ops, k, getattr(ops, k) + getattr(counter, k))
    metrics = {"closure.accumulates": accumulates,
               "closure.iterative.iterations":
                   statistics.mean(iterations) if iterations else 0.0,
               "ldm.ops.adds": ops.adds, "ldm.ops.muls": ops.muls,
               "ldm.ops.stars": ops.stars}
    return metrics, misses


def _check_counts(got, expect, job, misses):
    for k, v in expect.items():
        if got[k] != v:
            misses.append(f"{job.kind} {job.carrier} n={job.n}: {k}={got[k]}, "
                          f"closed form {v}")


def byte_counts(jobs, outcomes):
    """Computed, not measured: input file sizes and stdout lengths, per job."""
    bytes_in = sum(Path(arg).stat().st_size for job in jobs
                   for arg in job.spec.get("argv", ()) if arg.endswith(".json"))
    bytes_out = sum(len(out["stdout"].encode()) for out in outcomes
                    if isinstance(out, dict) and "stdout" in out)
    return {"serialize.bytes_in": bytes_in / len(jobs),
            "serialize.bytes_out": bytes_out / len(jobs)}


# ---------------------------------------------------------------- micro

def _operand(rng, carrier):
    """Operands for the scalar fma batch; one in eight is a tag."""
    tag = rng.random() < 0.125
    if carrier in ("maxplus", "maxplus_complete"):
        if tag:
            return POS_INF if carrier == "maxplus_complete" and rng.random() < 0.5 \
                else NEG_INF
        return float(rng.randint(-9, 9))
    if carrier == "minplus":
        return POS_INF if tag else float(rng.randint(-9, 9))
    if carrier == "maxmin":
        return float(rng.randint(0, 10))
    if carrier == "boolean":
        return rng.random() < 0.5
    if carrier == "rplus_complete" and tag:
        return POS_INF
    if carrier == "real_field":
        return rng.uniform(-1.0, 1.0)
    return rng.random()


def _fma_loop(fma, batch):
    start = time.perf_counter_ns()
    for acc, x, y in batch:
        fma(acc, x, y)
    return time.perf_counter_ns() - start


def fma_ns(fma, batch, reps=7):
    """Best ns per call over ``reps`` passes of the batch (loop included)."""
    return min(_fma_loop(fma, batch) for _ in range(reps)) / len(batch)


def scalar_fma_metrics(size=4000):
    out = {}
    for carrier in CARRIERS:
        rng = random.Random(f"fma/{carrier}")
        d = (semiralg.make_semiring("maxmin", workloads.MAXMIN_BOUNDS)
             if carrier == "maxmin" else semiralg.make_semiring(carrier))
        batch = [tuple(d.coerce(_operand(rng, carrier)) for _ in range(3))
                 for _ in range(size)]
        out[f"semirings.fma_ns.{carrier}"] = fma_ns(d.fma, batch)
    for carrier in LIFTED:
        rng = random.Random(f"ifma/{carrier}")
        d = workloads.descriptor(carrier, interval=True)
        batch = [tuple(d.coerce(workloads.decode(
                     workloads.interval_matrix(rng, carrier, 1, 0.875)[0][0]))
                       for _ in range(3))
                 for _ in range(size)]
        out[f"intervals.fma_ns.{carrier}"] = fma_ns(d.fma, batch)
    return out


def _interleaved(calls, reps):
    """Best time (ms) of each call, the calls interleaved rep by rep."""
    times = [[] for _ in calls]
    for _ in range(reps):
        for k, call in enumerate(calls):
            gc.collect()
            start = time.perf_counter_ns()
            call()
            times[k].append((time.perf_counter_ns() - start) / 1e6)
    return [min(t) for t in times]


def lift_metrics(reps=5):
    """Lifted call / the same call on the lo-endpoint matrix (maxplus, dense),
    best of ``reps`` interleaved runs each, as acceptance criterion 6 times it."""
    rng = random.Random("lift")
    out = {}
    gcs = []
    for name, n, fn in (("gauss_jordan", 64, semiralg.closure_gauss_jordan),
                        ("block", 64, semiralg.closure_block),
                        ("ldm", 48, semiralg.ldm_factorize)):
        data = workloads.interval_matrix(rng, "maxplus", n, 1.0)
        lifted = workloads.to_matrix("maxplus", data, interval=True)
        scalar = workloads.to_matrix("maxplus", [[c[0] for c in row] for row in data])

        def lifted_call(lifted=lifted, fn=fn):
            before = harness.gc_collections()
            fn(lifted)
            gcs.append(harness.gc_collections() - before)

        t_lift, t_scalar = _interleaved([lifted_call, lambda: fn(scalar)], reps)
        out[f"intervals.lift_ratio.{name}"] = t_lift / t_scalar
    out["intervals.gc_collections"] = statistics.mean(gcs)
    return out


def fork_speedup(seed, reps=3):
    """Serial block closure time / ``threads=2`` time, on two dense maxplus
    n = 96 inputs; the two results must be identical."""
    rng = random.Random(f"fork/{seed}")
    mats = [workloads.to_matrix(
                "maxplus", workloads.tropical_matrix(rng, "maxplus", 96, 96, 1.0))
            for _ in range(2)]
    forked = ClosureOptions(parallel=True, threads=2)
    serial_t, fork_t = _interleaved(
        [lambda: [semiralg.closure_block(a) for a in mats],
         lambda: [semiralg.closure_block(a, forked) for a in mats]], reps)
    identical = all(semiralg.closure_block(a) == semiralg.closure_block(a, forked)
                    for a in mats)
    return serial_t / fork_t, identical


def cold_start_ms(root, workdir, reps=3):
    """One small CLI job in a fresh interpreter, median wall time."""
    rng = random.Random("cold")
    data = workloads.tropical_matrix(rng, "minplus", 8, 8, 0.5)
    path = workloads.CliFiles(Path(workdir) / "cold").write(
        {"rows": 8, "cols": 8, "data": data})
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from semiralg.cli import main; sys.exit(main(sys.argv[2:]))")
    argv = [sys.executable, "-c", code, str(Path(root) / "src"),
            "closure", "--semiring", "minplus", path]
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)   # see time_setups
        times.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(times)
