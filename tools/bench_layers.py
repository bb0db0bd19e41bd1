"""Time the layers of semiralg against a baseline revision.

Each row is one kernel call on one carrier at one size:

- boolean Gauss-Jordan closure, block closure and matrix product at
  n = 64, 128 and 256 on dense and sparse inputs; ``solve_bellman``
  with an n x 8 right-hand side at n = 64, 96 and 128, as in the
  tropical-closure workload; and block closure at n = 8, 16 and 24, as
  in the cli-jobs ``closure`` jobs;
- rplus and real_field at the shapes of the real-factor-solve workload,
  on contractions of row-sum norm 0.4: the matrix product and
  Gauss-Jordan at n = 64 and 96, the partial-sum series
  (``closure_iterative``, summed by doubling and cut at A^60) at n = 32,
  ``ldm_factorize`` and ``symmetric_factorize`` (on a symmetric
  contraction) at n = 64 and 96, a repeat ``solve_ldm`` through factors made before the timing
  at n = 64 and 96, and, on real_field, ``real_matrix_star`` at
  n = 96, as in the cli-jobs ``invert`` jobs;
- maxplus and minplus Gauss-Jordan, block closure, matrix product and
  ``solve_bellman`` with an n x 8 right-hand side at the
  tropical-closure shapes, n = 64 and 128 dense and n = 96 at density
  0.3, also with the worker off, and block closures at n = 8, 16 and 24
  at density 0.5, as in the cli-jobs ``closure`` jobs, where nothing
  ships; each on integral weights, where a call from n = 24 packs its
  rows into ints, and, as the control, on the same weights divided by
  8 (input "1.0/8" and so on), exact but not integral, so on list rows;
  the control rows also time a second copy of the baseline;
- maxmin Gauss-Jordan, block closure and ``solve_bellman`` with an
  n x 8 right-hand side at the tropical-closure shapes, n = 64 and 128
  dense and n = 96 at density 0.3, which sweep over the arcs and ship
  nothing, also with the worker off;
- on the interval lifts of maxplus and maxmin (``maxplus_interval`` and
  ``maxmin_interval``: each weight w widened to [w - 2, w], on maxmin
  cut at the zero 0), Gauss-Jordan and ``solve_bellman`` at n = 48 and
  64, whose hi endpoint runs ship, each also with the worker off.

Each call runs on the working tree's ``src/semiralg`` and on the same
package at a baseline git revision, loaded side by side in one process.
The field kernels that can split a call with the worker process of
``semiralg.offload`` (the matrix product, which ships its bottom half of
rows, the series, written on that product, and the row stripes of
Gauss-Jordan, ``ldm_factorize`` and ``real_matrix_star``), the maxplus
and minplus rows at the tropical-closure shapes, the maxmin rows and the
lifted rows, run twice on each side: as shipped, and with the worker
off, that copy's ``offload.SHIP_MIN_WORK`` rebound to infinity for the
call, so that the whole job runs here.  Their ``ship_speedup`` is the
worker-off time over the shipped time of the working tree: below 1,
shipping costs more than it saves.

Timing is interleaved best-of-N: every repetition times each row on
every side, alternating which side runs first, with the collector
parked.  A timing below n = 32, and one of a repeat solve, covers
several calls, so that it is not lost in the clock's noise; every time
is given per call.  Only ratios within one run mean anything; absolute
times drift between runs.  The control rows also time a second copy of
the baseline: on a shared machine two copies of one program can differ
by several per cent, and that spread bounds what a control row can
show.  Every result is checked to be identical on all sides, by
``repr``.  Needs only the standard library.

    python3 tools/bench_layers.py --baseline HEAD~1 --out BENCH_layers.json
    python3 tools/bench_layers.py --only rplus,real_field --out fields.json
"""

import argparse
import gc
import importlib.util
import io
import json
import math
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
FIELDS = ("rplus", "real_field")
# the interval lifts, by the carrier that each lifts
LIFTED = {"maxplus_interval": "maxplus", "maxmin_interval": "maxmin"}


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


# ---------------------------------------------------------------- inputs

def weight(rng, carrier):
    # star-safe: maxplus cycles weigh < 0, minplus cycles > 0
    if carrier == "boolean":
        return True
    if carrier == "maxplus":
        return float(-rng.randint(1, 9))
    return float(rng.randint(1, 9))


def plain_matrix(carrier, n, density, seed, cols=None):
    if carrier in LIFTED:
        # each weight w widened to [w - 2, w], cut at maxmin's zero 0; a
        # zero stays one
        base = LIFTED[carrier]
        return [[(v, v) if v in ("-inf", 0.0) else
                 (max(v - 2.0, 0.0) if base == "maxmin" else v - 2.0, v)
                 for v in row]
                for row in plain_matrix(base, n, density, seed, cols)]
    rng = random.Random(f"{carrier}/{n}/{density}/{seed}")
    zero = {"boolean": False, "maxplus": "-inf", "minplus": "inf",
            "maxmin": 0.0}[carrier]
    return [[weight(rng, carrier) if rng.random() < density else zero
             for _ in range(cols or n)] for _ in range(n)]


def contraction(carrier, n, seed, norm=0.4):
    """Dense matrix whose largest absolute row sum is ``norm``, as the
    real-factor-solve workload draws them."""
    rng = random.Random(f"{carrier}/{n}/contraction/{seed}")
    lo = -1.0 if carrier == "real_field" else 0.0
    out = []
    for _ in range(n):
        row = [rng.uniform(lo, 1.0) for _ in range(n)]
        s = sum(abs(v) for v in row)
        out.append([v * norm / s for v in row])
    return out


def symmetric_contraction(n, seed, norm=0.4):
    rng = random.Random(f"{n}/symmetric/{seed}")
    r = [[rng.random() for _ in range(n)] for _ in range(n)]
    s = [[(r[i][j] + r[j][i]) / 2 for j in range(n)] for i in range(n)]
    scale = norm / max(sum(row) for row in s)
    return [[v * scale for v in row] for row in s]


def to_matrix(lib, carrier, data):
    tags = {"-inf": lib.NEG_INF, "inf": lib.POS_INF}

    def value(v):
        if isinstance(v, tuple):
            return tuple(map(value, v))
        return tags.get(v, v) if isinstance(v, str) else v

    base = LIFTED.get(carrier, carrier)
    d = (lib.make_semiring("maxmin", MAXMIN_BOUNDS) if base == "maxmin"
         else lib.make_semiring(base))
    if carrier in LIFTED:
        d = lib.lift_semiring(d)
    return lib.Matrix(d, [list(map(value, row)) for row in data])


# ---------------------------------------------------------------- rows

# the right-hand side of solve_bellman: n x 8 at density 0.5, as in the
# tropical-closure workload
B_COLS, B_DENSITY = 8, 0.5
SERIES = 60                     # the series' cut, as in real-factor-solve
SOLVES = 16                     # solves per factorization, as there

# op: run(lib, *args), the timed call on the arguments that prepare()
# makes before the timing
OPERATIONS = {
    "gauss_jordan": lambda lib, A: lib.closure_gauss_jordan(A),
    "block": lambda lib, A: lib.closure_block(A),
    "product": lambda lib, A: A.mul(A),
    "solve_bellman": lambda lib, A, B: lib.solve_bellman(A, B),
    "iterative": lambda lib, A: lib.closure_iterative(
        A, lib.ClosureOptions(algorithm="iterative", max_iterations=SERIES)),
    "ldm_factorize": lambda lib, A: lib.ldm_factorize(A),
    "symmetric_factorize": lambda lib, A: lib.symmetric_factorize(A),
    "solve_ldm": lambda lib, triple, b: lib.solve_ldm(triple, b),
    "real_matrix_star": lambda lib, A: lib.real_matrix_star(A),
}
# the field kernels that may split a call with the worker process
SHIPS = ("product", "gauss_jordan", "iterative", "ldm_factorize",
         "real_matrix_star")


def prepare(lib, carrier, op, data, divisor=1):
    """The arguments of a row's call on ``lib``; a right-hand side has
    its weights divided by ``divisor``, as ``data`` has."""
    A = to_matrix(lib, carrier, data)
    n = len(data)
    if op == "solve_bellman":
        B = plain_matrix(carrier, n, B_DENSITY, 1, B_COLS)
        if divisor != 1:
            B = divided(B, divisor)
        return A, to_matrix(lib, carrier, B)
    if op == "solve_ldm":
        # the factors, and one solve run, as a repeat solve finds them
        triple, b = lib.ldm_factorize(A), contraction(carrier, n, 1)[0]
        lib.solve_ldm(triple, b)
        return triple, b
    return (A,)


def cases(only=None):
    """(carrier, op, n, input, sides): the boolean rows and the workload
    shapes, the field rows, then the controls, which also time a second
    copy of the baseline, so that the spread of two identical programs
    shows next to the change.  A field row of a kernel that ships, and a
    control row, also runs with the worker off on both sides.  ``input``
    is a density, or the kind of contraction of a field row."""
    pair = ("baseline", "change")
    off = ("baseline_off", "change_off")
    rows = []
    for op in ("gauss_jordan", "block", "product"):
        for n in (64, 128, 256):
            for density in (1.0, 0.3, 0.02):
                rows.append(("boolean", op, n, density, pair))
    # tropical-closure draws boolean matrices at density 1.0 and 0.3, and
    # cli-jobs at 0.5 below n = 96
    for n in (64, 96, 128):
        for density in (1.0, 0.3):
            rows.append(("boolean", "solve_bellman", n, density, pair))
    for n in (8, 16, 24):
        rows.append(("boolean", "block", n, 0.5, pair))
    for carrier in FIELDS:
        shapes = [("product", 64), ("product", 96), ("gauss_jordan", 64),
                  ("gauss_jordan", 96), ("iterative", 32),
                  ("ldm_factorize", 64), ("ldm_factorize", 96)]
        if carrier == "rplus":
            shapes += [("symmetric_factorize", 64), ("symmetric_factorize", 96)]
        shapes += [("solve_ldm", 64), ("solve_ldm", 96)]
        if carrier == "real_field":
            shapes.append(("real_matrix_star", 96))
        for op, n in shapes:
            kind = ("symmetric contraction" if op == "symmetric_factorize"
                    else "contraction")
            sides = pair + off if op in SHIPS else pair
            rows.append((carrier, op, n, kind, sides))
    for carrier in ("maxplus", "minplus"):
        # integral weights, then the control: the same divided by 8
        for scale, extra in (("", ()), ("/8", ("baseline_copy",))):
            for op in ("gauss_jordan", "block", "product", "solve_bellman"):
                for n, density in ((64, 1.0), (96, 0.3), (128, 1.0)):
                    rows.append((carrier, op, n,
                                 f"{density}{scale}" if scale else density,
                                 pair + extra + off))
            for n in (8, 16, 24):
                rows.append((carrier, "block", n,
                             f"0.5{scale}" if scale else 0.5, pair + extra))
    for op in ("gauss_jordan", "block", "solve_bellman"):
        for n, density in ((64, 1.0), (96, 0.3), (128, 1.0)):
            rows.append(("maxmin", op, n, density, pair + off))
    for carrier in LIFTED:
        for op in ("gauss_jordan", "solve_bellman"):
            for n in (48, 64):
                rows.append((carrier, op, n, 1.0, pair + off))
    return [row for row in rows if only is None or row[0] in only]


def input_data(carrier, n, kind):
    if kind == "symmetric contraction":
        return symmetric_contraction(n, 0)
    if kind == "contraction":
        return contraction(carrier, n, 0)
    density, divisor = input_kind(kind)
    data = plain_matrix(carrier, n, density, 0)
    return data if divisor == 1 else divided(data, divisor)


def input_kind(kind):
    """The density of an input ``kind`` and the divisor of its weights:
    a density, or a string such as "0.3/8", each weight divided by 8."""
    if isinstance(kind, str) and "/" in kind:
        density, divisor = kind.split("/")
        return float(density), int(divisor)
    return kind, 1


def divided(data, divisor):
    # the tags are strings, and stay
    return [[v if isinstance(v, str) else v / divisor for v in row]
            for row in data]


def calls_per_timing(op, n):
    if op == "solve_ldm":
        return SOLVES
    return 1 if n >= 32 else 25


def timed(run, calls):
    t = time.perf_counter()
    for _ in range(calls):
        result = run()
    return (time.perf_counter() - t) / calls, result


def as_reprs(result):
    """The result as nested lists of reprs: each side has its own
    infinity tags, which compare by identity."""
    if isinstance(result, list):                        # a solve
        return list(map(repr, result))
    if hasattr(result, "truncated"):                    # the series
        return [as_reprs(result.matrix), result.iterations, result.truncated]
    if hasattr(result, "D"):                            # LDM factors
        return [as_reprs(result.L), list(map(repr, result.D)),
                as_reprs(result.M)]
    return [list(map(repr, row)) for row in result.to_lists()]


def run_side(lib, run, args, calls, worker_off):
    """Per-call time and result of ``run`` on ``lib``; with
    ``worker_off``, that copy's calls ship nothing."""
    ship_min_work = lib.offload.SHIP_MIN_WORK
    if worker_off:
        lib.offload.SHIP_MIN_WORK = math.inf
    try:
        return timed(lambda: run(lib, *args), calls)
    finally:
        lib.offload.SHIP_MIN_WORK = ship_min_work


def measure(libs, reps, only=None):
    """Per row, the wall times of each side and whether all agree."""
    plan = []
    for carrier, op, n, kind, sides in cases(only):
        data = input_data(carrier, n, kind)
        args = {side: prepare(libs[side.removesuffix("_off")], carrier, op,
                              data, input_kind(kind)[1])
                for side in sides}
        plan.append(((carrier, op, n, kind), OPERATIONS[op], args))
    times = {key: {side: [] for side in args} for key, _, args in plan}
    identical = {key: True for key, _, _ in plan}
    gc.collect()
    gc.disable()
    try:
        for rep in range(reps):
            for key, run, args in plan:
                # every other repetition runs the sides in reverse order
                sides = list(args)[::1 if rep % 2 == 0 else -1]
                results = []
                for side in sides:
                    dt, result = run_side(
                        libs[side.removesuffix("_off")], run, args[side],
                        calls_per_timing(key[1], key[2]),
                        side.endswith("_off"))
                    times[key][side].append(dt)
                    results.append(as_reprs(result))
                identical[key] &= all(r == results[0] for r in results)
                del results
            gc.collect()
    finally:
        gc.enable()
    return times, identical


def paired(a, b):
    # the median ratio of two sides timed next to each other
    return round(statistics.median(x / y for x, y in zip(a, b)), 3)


def report_row(key, t, identical):
    carrier, op, n, kind = key
    row = {"carrier": carrier, "op": op, "n": n, "input": kind,
           "calls_per_timing": calls_per_timing(op, n),
           "baseline_ms": round(min(t["baseline"]) * 1e3, 4),
           "change_ms": round(min(t["change"]) * 1e3, 4),
           "speedup": round(min(t["baseline"]) / min(t["change"]), 3),
           "paired_speedup": paired(t["baseline"], t["change"])}
    if "change_off" in t:
        row.update({
            "baseline_off_ms": round(min(t["baseline_off"]) * 1e3, 4),
            "change_off_ms": round(min(t["change_off"]) * 1e3, 4),
            "off_speedup": round(min(t["baseline_off"])
                                 / min(t["change_off"]), 3),
            "off_paired_speedup": paired(t["baseline_off"], t["change_off"]),
            "baseline_ship_speedup": round(min(t["baseline_off"])
                                           / min(t["baseline"]), 3),
            "ship_speedup": round(min(t["change_off"]) / min(t["change"]), 3),
            "ship_paired_speedup": paired(t["change_off"], t["change"])})
    if "baseline_copy" in t:
        row["copy_speedup"] = round(
            min(t["baseline"]) / min(t["baseline_copy"]), 3)
        row["copy_paired_speedup"] = paired(t["baseline"], t["baseline_copy"])
    row["identical"] = identical
    return row


def describe(r):
    extra = ""
    if "ship_speedup" in r:
        extra += (f' off {r["baseline_off_ms"]:.3f} -> {r["change_off_ms"]:.3f}'
                  f' x{r["off_speedup"]} paired x{r["off_paired_speedup"]}'
                  f' ship x{r["baseline_ship_speedup"]} -> x{r["ship_speedup"]}')
    if "copy_speedup" in r:
        extra += (f' copy x{r["copy_speedup"]}'
                  f' paired x{r["copy_paired_speedup"]}')
    return (f'{r["carrier"]:<10} {r["op"]:<19} n={r["n"]:<3} '
            f'{str(r["input"]):<21} {r["baseline_ms"]:>9.3f} -> '
            f'{r["change_ms"]:>8.3f} ms  x{r["speedup"]:<6} '
            f'paired x{r["paired_speedup"]:<6}{extra} '
            f'{"identical" if r["identical"] else "DIFFERENT"}')


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="HEAD",
                        help="git revision to compare with (default HEAD)")
    parser.add_argument("--reps", type=int, default=7,
                        help="repetitions per row and side (default 7)")
    parser.add_argument("--only", type=lambda s: set(s.split(",")),
                        help="comma-separated carriers to run (default all)")
    parser.add_argument("--out", default="BENCH_layers.json")
    args = parser.parse_args(argv)

    # the commit, which outlives a name such as HEAD
    rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.baseline],
        check=True, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        baseline = extract_baseline(rev, tmp)
        libs = {"change": load_package("semiralg", ROOT / "src" / "semiralg"),
                "baseline": load_package("semiralg_baseline", baseline),
                "baseline_copy": load_package("semiralg_baseline_copy",
                                              baseline)}
        times, identical = measure(libs, args.reps, args.only)

    rows = [report_row(key, t, identical[key]) for key, t in times.items()]
    report = {"what": "best-of-N wall time per call of the baseline revision "
                      "and the working tree, interleaved in one process; "
                      "speedup is the ratio of the bests, paired_speedup the "
                      "median ratio of the runs next to each other, "
                      "copy_speedup and copy_paired_speedup the same for a "
                      "second copy of the baseline, off_* the same with the "
                      "worker off (offload.SHIP_MIN_WORK at infinity on both "
                      "sides), and ship_speedup the working tree's worker-off "
                      "time over its shipped time (baseline_ship_speedup the "
                      "baseline's)",
              "baseline": rev, "reps": args.reps,
              "python": platform.python_version(), "machine": platform.machine(),
              "cpus": len(os.sched_getaffinity(0)),
              "rows": rows}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for r in rows:
        print(describe(r))
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
