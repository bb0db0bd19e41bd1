"""Seeded inputs and job plans for the four benchmark workloads.

A plan is a list of *pool rounds*.  Every round holds the same multiset
of job kinds, carriers and sizes; only the random values differ between
rounds and seeds.  The timed loop runs whole rounds and cycles through
the pool, so every run measures the same mixture of jobs whatever its
length, and the percentiles of one run compare with those of another.

Inputs are built in "plain" form first: JSON-shaped data with the
infinities as the tokens ``"inf"``/``"-inf"`` and interval cells as
``[lo, hi]`` pairs.  The oracles read only that plain form; the program
receives matrices decoded from it, or JSON files written from it.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import semiralg
import semiralg.cli
from semiralg import NEG_INF, POS_INF, ClosureOptions, Matrix

WORKLOADS = ("tropical-closure", "interval-lift", "real-factor-solve", "cli-jobs")
MIN_JOBS = 100          # every run times at least this many jobs

# semiring zero per carrier, in plain form; maxmin always runs on [0, 10]
ZERO = {"maxplus": "-inf", "minplus": "inf", "maxmin": 0.0, "boolean": False,
        "rplus": 0.0, "real_field": 0.0}
MAXMIN_BOUNDS = (0.0, 10.0)


def descriptor(carrier, interval=False):
    base = (semiralg.make_semiring("maxmin", MAXMIN_BOUNDS) if carrier == "maxmin"
            else semiralg.make_semiring(carrier))
    return semiralg.lift_semiring(base) if interval else base


def decode(v):
    """Plain token to a carrier value (intervals as (lo, hi) pairs)."""
    if v == "-inf":
        return NEG_INF
    if v == "inf":
        return POS_INF
    if isinstance(v, list):
        return (decode(v[0]), decode(v[1]))
    return v


def to_matrix(carrier, data, interval=False):
    return Matrix(descriptor(carrier, interval),
                  [[decode(v) for v in row] for row in data])


# ---------------------------------------------------------------- generators

def weight(rng, carrier):
    """One arc weight; integer-valued, and star-safe for the carrier."""
    if carrier == "maxplus":
        return float(-rng.randint(1, 9))     # every cycle weighs < 0
    if carrier == "boolean":
        return True
    return float(rng.randint(1, 9))          # minplus (cycles > 0), maxmin


def tropical_matrix(rng, carrier, rows, cols, density):
    zero = ZERO[carrier]
    return [[weight(rng, carrier) if rng.random() < density else zero
             for _ in range(cols)] for _ in range(rows)]


def interval_matrix(rng, carrier, n, density):
    """Interval cells [lo, hi]; each endpoint matrix is star-safe."""
    zero = ZERO[carrier]
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if rng.random() >= density:
                row.append([zero, zero])
                continue
            lo = weight(rng, carrier)
            step = float(rng.randint(0, 2))
            if carrier == "maxplus":
                hi = min(lo + step, -1.0)
            elif carrier == "minplus":
                # canonical order is reversed: lo is the larger number
                hi = max(lo - step, 1.0)
            else:
                hi = min(lo + step, 9.0)
            row.append([lo, hi])
        out.append(row)
    return out


def contraction(rng, carrier, n, norm=0.4):
    """Dense matrix whose largest absolute row sum is ``norm``."""
    lo = -1.0 if carrier == "real_field" else 0.0
    out = []
    for _ in range(n):
        row = [rng.uniform(lo, 1.0) for _ in range(n)]
        s = sum(abs(v) for v in row)
        out.append([v * norm / s for v in row])
    return out


def symmetric_contraction(rng, n, norm=0.4):
    r = [[rng.random() for _ in range(n)] for _ in range(n)]
    s = [[(r[i][j] + r[j][i]) / 2 for j in range(n)] for i in range(n)]
    scale = norm / max(sum(row) for row in s)
    out = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            out[i][j] = out[j][i] = s[i][j] * scale
    return out


def vector(rng, carrier, n):
    lo = -1.0 if carrier == "real_field" else 0.0
    return [rng.uniform(lo, 1.0) for _ in range(n)]


# ---------------------------------------------------------------- jobs

@dataclass
class Job:
    """One call into the program.

    ``call`` runs it and returns the result; ``spec`` is the plain data
    the oracle needs; ``expect`` is the exit code a CLI job must return.
    """
    kind: str
    carrier: str
    n: int
    call: object
    spec: dict = field(default_factory=dict)
    expect: int = 0


class FactorSlot:
    """Holds a factor between a factor job and the solve jobs after it."""
    triple = None


def _closure_jobs(carrier, n, data, b_data, interval, kinds):
    A = to_matrix(carrier, data, interval)
    spec = {"A": data, "interval": interval}
    jobs = []
    if "block" in kinds:
        jobs.append(Job("closure_block", carrier, n,
                        lambda: semiralg.closure_block(A), spec))
    if "gauss_jordan" in kinds:
        jobs.append(Job("closure_gauss_jordan", carrier, n,
                        lambda: semiralg.closure_gauss_jordan(A), spec))
    if "solve_bellman" in kinds:
        B = to_matrix(carrier, b_data, interval)
        jobs.append(Job("solve_bellman", carrier, n,
                        lambda: semiralg.solve_bellman(A, B),
                        dict(spec, B=b_data)))
    if "ldm" in kinds:
        jobs.append(Job("ldm_factorize", carrier, n,
                        lambda: semiralg.ldm_factorize(A), spec))
    return jobs


def tropical_round(rng):
    """3 kinds x 4 carriers x n in {64, 96, 128}; one matrix per cell.

    The closure kernels and the scalar ``fma`` do nearly all the work;
    intervals, LDM and serialization do none, so this workload is their
    no-change control.
    """
    jobs = []
    for ci, carrier in enumerate(("maxplus", "minplus", "maxmin", "boolean")):
        for ni, n in enumerate((64, 96, 128)):
            density = 1.0 if (ci + ni) % 2 == 0 else 0.3
            data = tropical_matrix(rng, carrier, n, n, density)
            b_data = tropical_matrix(rng, carrier, n, 8, 0.5)
            jobs += _closure_jobs(carrier, n, data, b_data, False,
                                  ("block", "gauss_jordan", "solve_bellman"))
    return jobs


def interval_round(rng):
    """Lifted maxplus/minplus/maxmin at n in {48, 64}, dense and sparse.

    The lifted ``fma`` does the work, so a change to the interval layer
    shows here, with tropical-closure as its control.  LDM runs only on
    the dense n = 48 inputs: lifted, it costs about 5x a lifted
    Gauss-Jordan, and its cost hardly depends on the density.
    """
    jobs = []
    for carrier in ("maxplus", "minplus", "maxmin"):
        for n in (48, 64):
            for density in (1.0, 0.3):
                data = interval_matrix(rng, carrier, n, density)
                lo_b = tropical_matrix(rng, carrier, n, 8, 0.5)
                b_data = [[[v, v] for v in row] for row in lo_b]
                kinds = ("block", "gauss_jordan", "solve_bellman")
                if n == 48 and density == 1.0:
                    kinds += ("ldm",)
                jobs += _closure_jobs(carrier, n, data, b_data, True, kinds)
    return jobs


SOLVES_PER_FACTOR = 16


def real_round(rng):
    """real_field and rplus contractions (row-sum norm 0.4).

    Each factor job is followed by 16 solves through its factors, so LDM
    is used two ways and a change that speeds factoring at the cost of
    solving shows.  Gauss-Jordan (the inverse of E - A) and a series cut
    at 60 terms cover the non-idempotent closures.
    """
    jobs = []
    for carrier, symmetric in (("real_field", False), ("rplus", False),
                               ("rplus", True)):
        for n in (64, 96):
            data = (symmetric_contraction(rng, n) if symmetric
                    else contraction(rng, carrier, n))
            A = to_matrix(carrier, data)
            spec = {"A": data}
            held = FactorSlot()
            kind = "symmetric_factorize" if symmetric else "ldm_factorize"

            def factor_job(A=A, held=held, kind=kind):
                # looked up per call, so that a traced run sees the call
                held.triple = getattr(semiralg, kind)(A)
                return held.triple

            jobs.append(Job(kind, carrier, n, factor_job, spec))
            for _ in range(SOLVES_PER_FACTOR):
                b = vector(rng, carrier, n)
                jobs.append(Job("solve_ldm", carrier, n,
                                lambda held=held, b=b:
                                    semiralg.solve_ldm(held.triple, b),
                                dict(spec, b=b)))
            if not symmetric:
                jobs.append(Job("closure_gauss_jordan", carrier, n,
                                lambda A=A: semiralg.closure_gauss_jordan(A), spec))
    series = ClosureOptions(algorithm="iterative", max_iterations=60)
    for carrier in ("real_field", "rplus"):
        data = contraction(rng, carrier, 32)
        A = to_matrix(carrier, data)
        jobs.append(Job("closure_iterative", carrier, 32,
                        lambda A=A: semiralg.closure_iterative(A, series),
                        {"A": data}))
    return jobs


# ---------------------------------------------------------------- CLI jobs

CLI_SIZES = (8, 16, 24, 8, 16, 24, 96, 96)      # small : medium = 3 : 1
CLI_CARRIERS = {
    "closure": ("minplus", "maxplus", "maxmin", "boolean"),
    "solve": ("maxplus", "minplus"),
    "factor": ("maxplus", "minplus"),
    "paths": ("minplus", "maxmin"),
    "profit": ("maxplus",),
    "invert": ("real_field",),
}


def semiring_flag(carrier):
    if carrier == "maxmin":
        return "maxmin,%g,%g" % MAXMIN_BOUNDS
    return carrier


def graph_of(data, carrier):
    zero = ZERO[carrier]
    return {"n": len(data),
            "arcs": [[i + 1, j + 1, w] for i, row in enumerate(data)
                     for j, w in enumerate(row) if w != zero]}


def non_contraction(rng, n):
    """E - A is diagonally dominant, hence invertible; A is no contraction."""
    return [[2.0 + rng.uniform(0.0, 0.5) if i == j else rng.uniform(-0.05, 0.05)
             for j in range(n)] for i in range(n)]


class CliFiles:
    """Writes input files for one round into a directory of its own."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def write(self, obj=None, text=None):
        self.count += 1
        path = self.root / f"in{self.count:04d}.json"
        path.write_text(text if text is not None else json.dumps(obj))
        return str(path)


def _cli_call(argv):
    return lambda: run_main(argv)


def run_main(argv):
    """``semiralg.cli.main`` in process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = semiralg.cli.main(argv)
    return code, out.getvalue()


def _cli_inputs(rng, files, cmd, slot, n):
    """Returns (carrier, argv tail, spec) for one well-formed input."""
    carriers = CLI_CARRIERS[cmd]
    carrier = carriers[slot % len(carriers)]
    density = 0.3 if n >= 96 else 0.5
    if cmd in ("closure", "factor"):
        data = tropical_matrix(rng, carrier, n, n, density)
        path = files.write({"rows": n, "cols": n, "data": data})
        return carrier, [path], {"A": data}
    if cmd == "solve":
        data = tropical_matrix(rng, carrier, n, n, density)
        b_data = tropical_matrix(rng, carrier, n, 4, 0.5)
        return carrier, [files.write({"rows": n, "cols": n, "data": data}),
                         files.write({"rows": n, "cols": 4, "data": b_data})], \
            {"A": data, "B": b_data}
    if cmd == "paths":
        data = tropical_matrix(rng, carrier, n, n, density)
        return carrier, [files.write(graph_of(data, carrier))], {"A": data}
    if cmd == "profit":
        data = tropical_matrix(rng, carrier, n, n, density)
        b = [float(rng.randint(-5, 5)) for _ in range(n)]
        return carrier, [files.write(graph_of(data, carrier)), files.write(b)], \
            {"A": data, "b": b}
    # invert: the first small input of each format is no contraction
    data = non_contraction(rng, n) if slot == 0 else contraction(rng, carrier, n)
    return carrier, [files.write({"rows": n, "cols": n, "data": data})], {"A": data}


def _failure_jobs(files):
    """Malformed inputs covering every documented exit code, plus two
    inputs the program is known to mishandle (exit 2 and exit 0 expected)."""
    pos_cycle = [[1.0, -1.0], [-1.0, -2.0]]
    cases = [
        (2, ["closure", "--semiring", "minplus"],
         [files.write(text='{"rows": 2, "cols": 2, "data": [[1.0, ')]),
        (2, ["closure", "--semiring", "maxplus"],
         [files.write({"rows": 1, "cols": 2, "data": [[0.0, "-2.0"]]})]),
        # an integer literal too large for a float
        (2, ["closure", "--semiring", "minplus"],
         [files.write(text='{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + "]]}")]),
        (3, ["solve", "--semiring", "maxplus"],
         [files.write({"rows": 2, "cols": 2, "data": pos_cycle}),
          files.write({"rows": 3, "cols": 1, "data": [[0.0], [0.0], [0.0]]})]),
        (4, ["closure", "--semiring", "maxplus"],
         [files.write({"rows": 2, "cols": 2, "data": pos_cycle})]),
        (5, ["closure", "--semiring", "tropical"],
         [files.write({"rows": 2, "cols": 2, "data": pos_cycle})]),
        (1, ["closure", "--semiring", "maxplus", "--algorithm", "iterative"],
         [files.write({"rows": 2, "cols": 2, "data": pos_cycle})]),
    ]
    jobs = [Job("cli.fail", argv[2], 2, _cli_call(argv + paths),
                {"argv": argv + paths}, expect=code)
            for code, argv, paths in cases]
    # E - A is invertible, but the unpivoted elimination meets a pivot of 1
    inv = [[1.0, 2.0], [3.0, 4.0]]
    argv = ["invert", "--semiring", "real_field", files.write(
        {"rows": 2, "cols": 2, "data": inv})]
    jobs.append(Job("cli.invert", "real_field", 2, _cli_call(argv),
                    {"A": inv, "argv": argv, "format": "json"}))
    return jobs


def cli_round(rng, files):
    """All six commands in both formats, small (n 8-24) and medium (n 96)
    inputs 3:1, and the malformed inputs of ``_failure_jobs``.

    The only workload where serialization, the CLI and the graph front
    ends carry weight: per-call overhead shows on the small jobs (p50),
    compute on the medium ones (p90).
    """
    jobs = []
    for cmd in CLI_CARRIERS:
        for slot, n in enumerate(CLI_SIZES):
            carrier, paths, spec = _cli_inputs(rng, files, cmd, slot, n)
            for fmt in ("json", "table"):
                argv = [cmd, "--semiring", semiring_flag(carrier),
                        "--format", fmt] + paths
                jobs.append(Job("cli." + cmd, carrier, n, _cli_call(argv),
                                dict(spec, argv=argv, format=fmt)))
    return jobs + _failure_jobs(files)


# ---------------------------------------------------------------- plans

def seed_rng(workload, seed, round_index):
    return random.Random(f"{workload}/{seed}/{round_index}")


def round_size(workload):
    return {"tropical-closure": 36, "interval-lift": 39,
            "real-factor-solve": 108, "cli-jobs": 104}[workload]


def pool_rounds(workload):
    """Distinct input rounds; the first ones always run, so the digest
    over them does not depend on how many rounds fit the time budget."""
    return math.ceil(MIN_JOBS / round_size(workload))


def build_round(workload, seed, r, workdir):
    rng = seed_rng(workload, seed, r)
    if workload == "tropical-closure":
        return tropical_round(rng)
    if workload == "interval-lift":
        return interval_round(rng)
    if workload == "real-factor-solve":
        return real_round(rng)
    if workload == "cli-jobs":
        return cli_round(rng, CliFiles(Path(workdir) / f"round{r}"))
    raise ValueError(f"unknown workload {workload!r}")


def build_plan(workload, seed, workdir):
    return [build_round(workload, seed, r, workdir)
            for r in range(pool_rounds(workload))]


def warmup_jobs(workload, workdir):
    """One small job of every kind the workload runs, on fixed inputs."""
    rng = random.Random(f"warmup/{workload}")
    if workload == "tropical-closure":
        jobs = []
        for carrier in ("maxplus", "minplus", "maxmin", "boolean"):
            jobs += _closure_jobs(carrier, 8, tropical_matrix(rng, carrier, 8, 8, 0.5),
                                  tropical_matrix(rng, carrier, 8, 2, 0.5), False,
                                  ("block", "gauss_jordan", "solve_bellman"))
        return jobs
    if workload == "interval-lift":
        jobs = []
        for carrier in ("maxplus", "minplus", "maxmin"):
            b = [[[v, v] for v in row] for row in tropical_matrix(rng, carrier, 8, 2, 0.5)]
            jobs += _closure_jobs(carrier, 8, interval_matrix(rng, carrier, 8, 0.5), b,
                                  True, ("block", "gauss_jordan", "solve_bellman", "ldm"))
        return jobs
    if workload == "real-factor-solve":
        return [j for j in real_round(rng)
                if j.n <= 64 and j.kind != "closure_iterative"][:20]
    files = CliFiles(Path(workdir) / "warmup")
    jobs = []
    for cmd in CLI_CARRIERS:
        carrier, paths, spec = _cli_inputs(rng, files, cmd, 1, 8)
        for fmt in ("json", "table"):
            argv = [cmd, "--semiring", semiring_flag(carrier), "--format", fmt] + paths
            jobs.append(Job("cli." + cmd, carrier, 8, _cli_call(argv), spec))
    return jobs
