"""Time the boolean kernels against a baseline revision.

Runs boolean Gauss-Jordan closure, block closure and matrix product at
n = 64, 128 and 256 on dense and sparse inputs; then the shapes the
benchmark's workloads run on boolean: ``solve_bellman`` with an n x 8
right-hand side at n = 64, 96 and 128 as in tropical-closure,
and block closure at n = 8, 16 and 24 as in the cli-jobs ``closure``
jobs; and, as the control that a change to the row kernels costs the
other carriers nothing, maxplus, minplus and maxmin Gauss-Jordan and
block closure at n = 128.  Each call runs on the working tree's
``src/semiralg`` and on the same package at a baseline git revision,
loaded side by side in one process.

Timing is interleaved best-of-N: every repetition times each case on
both sides, alternating which side runs first, with the collector
parked.  A timing below n = 64 covers several calls, so that it is
not lost in the clock's noise; every time is given per call.  Only
ratios within one run mean anything; absolute times drift between
runs.  The control rows also time a second copy of the baseline: on a
shared machine two copies of one program can differ by several per
cent, and that spread bounds what a control row can show.  Every
result is checked to be identical on all sides.

    python3 tools/bench_boolean.py --baseline HEAD~1 --out BENCH_boolean.json
"""

import argparse
import gc
import importlib.util
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAXMIN_BOUNDS = (0.0, 10.0)


def load_package(name, path):
    """Import the package directory ``path`` under the module name ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def extract_baseline(rev, into):
    """``src/semiralg`` at git revision ``rev``, extracted under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/semiralg"],
        check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter where this Python has it (3.12, and backports)
        safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        tar.extractall(into, **safe)
    return Path(into) / "src" / "semiralg"


def weight(rng, carrier):
    # star-safe: maxplus cycles weigh < 0, minplus cycles > 0
    if carrier == "boolean":
        return True
    if carrier == "maxplus":
        return float(-rng.randint(1, 9))
    return float(rng.randint(1, 9))


def plain_matrix(carrier, n, density, seed, cols=None):
    rng = random.Random(f"{carrier}/{n}/{density}/{seed}")
    zero = {"boolean": False, "maxplus": "-inf", "minplus": "inf",
            "maxmin": 0.0}[carrier]
    return [[weight(rng, carrier) if rng.random() < density else zero
             for _ in range(cols or n)] for _ in range(n)]


def to_matrix(lib, carrier, data):
    d = (lib.make_semiring("maxmin", MAXMIN_BOUNDS) if carrier == "maxmin"
         else lib.make_semiring(carrier))
    tags = {"-inf": lib.NEG_INF, "inf": lib.POS_INF}
    return lib.Matrix(d, [[tags.get(v, v) if isinstance(v, str) else v
                           for v in row] for row in data])


OPERATIONS = {
    "gauss_jordan": lambda lib, A, B: lib.closure_gauss_jordan(A),
    "block": lambda lib, A, B: lib.closure_block(A),
    "product": lambda lib, A, B: A.mul(A),
    "solve_bellman": lambda lib, A, B: lib.solve_bellman(A, B),
}
# the right-hand side of solve_bellman: n x 8 at density 0.5, as in the
# tropical-closure workload
B_COLS, B_DENSITY = 8, 0.5


def cases():
    """(carrier, op, n, density, sides): the boolean rows, the workload
    shapes, then the controls, which also time a second copy of the
    baseline, so that the spread of two identical programs shows next to
    the change."""
    for op in ("gauss_jordan", "block", "product"):
        for n in (64, 128, 256):
            for density in (1.0, 0.3, 0.02):
                yield "boolean", op, n, density, ("baseline", "change")
    # tropical-closure draws boolean matrices at density 1.0 and 0.3, and
    # cli-jobs at 0.5 below n = 96
    for n in (64, 96, 128):
        for density in (1.0, 0.3):
            yield "boolean", "solve_bellman", n, density, ("baseline", "change")
    for n in (8, 16, 24):
        yield "boolean", "block", n, 0.5, ("baseline", "change")
    for carrier in ("maxplus", "minplus", "maxmin"):
        for op in ("gauss_jordan", "block"):
            yield carrier, op, 128, 1.0, ("baseline", "change", "baseline_copy")


def calls_per_timing(n):
    return 1 if n >= 64 else 25


def timed(run, calls):
    t = time.perf_counter()
    for _ in range(calls):
        result = run()
    return (time.perf_counter() - t) / calls, result


def measure(libs, reps):
    """Per case, the wall times of each side and whether all agree."""
    plan = []
    for carrier, op, n, density, sides in cases():
        data = plain_matrix(carrier, n, density, 0)
        b_data = (plain_matrix(carrier, n, B_DENSITY, 1, B_COLS)
                  if op == "solve_bellman" else None)
        plan.append(((carrier, op, n, density),
                     {side: (to_matrix(libs[side], carrier, data),
                             b_data and to_matrix(libs[side], carrier, b_data))
                      for side in sides}))
    times = {key: {side: [] for side in inputs} for key, inputs in plan}
    identical = {key: True for key, _ in plan}
    gc.collect()
    gc.disable()
    try:
        for rep in range(reps):
            for key, inputs in plan:
                # every other repetition runs the sides in reverse order
                sides = list(inputs)[::1 if rep % 2 == 0 else -1]
                results = []
                for side in sides:
                    dt, result = timed(
                        lambda: OPERATIONS[key[1]](libs[side], *inputs[side]),
                        calls_per_timing(key[2]))
                    times[key][side].append(dt)
                    # repr: each side has its own infinity tags, which
                    # compare by identity
                    results.append([list(map(repr, row))
                                    for row in result.to_lists()])
                identical[key] &= all(r == results[0] for r in results)
                del results
            gc.collect()
    finally:
        gc.enable()
    return times, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="HEAD",
                        help="git revision to compare with (default HEAD)")
    parser.add_argument("--reps", type=int, default=7,
                        help="repetitions per case and side (default 7)")
    parser.add_argument("--out", default="BENCH_boolean.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        baseline = extract_baseline(args.baseline, tmp)
        libs = {"change": load_package("semiralg", ROOT / "src" / "semiralg"),
                "baseline": load_package("semiralg_baseline", baseline),
                "baseline_copy": load_package("semiralg_baseline_copy",
                                              baseline)}
        times, identical = measure(libs, args.reps)

    def paired(a, b):
        # the median ratio of two sides timed next to each other
        return round(statistics.median(x / y for x, y in zip(a, b)), 3)

    rows = []
    for key, t in times.items():
        carrier, op, n, density = key
        row = {"carrier": carrier, "op": op, "n": n, "density": density,
               "baseline_ms": round(min(t["baseline"]) * 1e3, 4),
               "change_ms": round(min(t["change"]) * 1e3, 4),
               "speedup": round(min(t["baseline"]) / min(t["change"]), 3),
               "paired_speedup": paired(t["baseline"], t["change"])}
        if "baseline_copy" in t:
            row["copy_speedup"] = round(
                min(t["baseline"]) / min(t["baseline_copy"]), 3)
            row["copy_paired_speedup"] = paired(t["baseline"],
                                                t["baseline_copy"])
        row["identical"] = identical[key]
        rows.append(row)
    report = {"what": "best-of-N wall time per call of the baseline revision "
                      "and the working tree, interleaved in one process; "
                      "speedup is the ratio of the bests, paired_speedup the "
                      "median ratio of the runs next to each other, and "
                      "copy_speedup and copy_paired_speedup the same for a "
                      "second copy of the baseline",
              "baseline": args.baseline, "reps": args.reps,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": len(os.sched_getaffinity(0)),
              "rows": rows}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for r in rows:
        copy = (f' copy x{r["copy_speedup"]} paired x{r["copy_paired_speedup"]}'
                if "copy_speedup" in r else "")
        print(f'{r["carrier"]:<7} {r["op"]:<13} n={r["n"]:<3} '
              f'density={r["density"]:<4} {r["baseline_ms"]:>9.3f} -> '
              f'{r["change_ms"]:>8.3f} ms  x{r["speedup"]:<7} '
              f'paired x{r["paired_speedup"]:<6}{copy} '
              f'{"identical" if r["identical"] else "DIFFERENT"}')
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
