"""Shared fixtures, sample pools, and random-instance generators.

Randomized tests draw from seeded ``random.Random`` instances so every
run exercises the same cases.  Tropical matrices are built from
integer-valued floats: max/min/+ are exact on those, which lets the
cross-algorithm tests assert bitwise equality instead of tolerances.
"""

import math
import os
import random
import sys
import threading

import pytest

import semiralg as sa
from semiralg import NEG_INF, POS_INF, Matrix, WeightedDigraph, make_semiring
from semiralg import offload, semirings
from semiralg.errors import SemiringError

SEED = 20260819

IDEMPOTENT_NAMES = ["maxplus", "maxplus_complete", "minplus", "maxmin", "boolean"]
ALL_NAMES = IDEMPOTENT_NAMES + ["rplus", "rplus_complete", "real_field"]

# ---------------------------------------------------------------- descriptors


def descriptor(name):
    """Catalog descriptor by name; maxmin gets the default [0, 10] bounds."""
    if name == "maxmin":
        return make_semiring("maxmin", (0.0, 10.0))
    return make_semiring(name)


# Scalar pools for law probes.  Every value is legal in its carrier and
# the pools include both neutral elements and the infinity tags where
# the carrier has them.
SCALAR_SAMPLES = {
    "rplus": [0.0, 0.25, 0.5, 1.0, 2.0],
    "rplus_complete": [0.0, 0.5, 1.0, 3.0, POS_INF],
    "maxplus": [NEG_INF, -3.0, -1.0, 0.0, 2.0],
    "maxplus_complete": [NEG_INF, -2.0, 0.0, 1.0, POS_INF],
    "minplus": [POS_INF, 0.0, 1.0, 2.5, 7.0],
    "maxmin": [0.0, 2.0, 5.0, 10.0],
    "boolean": [False, True],
    "real_field": [0.0, 0.25, 1.0, -0.5, 2.0],
}


def scalar_samples(name):
    return list(SCALAR_SAMPLES[name])


@pytest.fixture
def rng():
    return random.Random(SEED)


# ------------------------------------------------------- random star-safe data


def star_safe_weight(name, rand):
    """One random arc weight that keeps every cycle weight below one.

    On maxplus that means nonpositive weights, on minplus nonnegative
    ones; maxmin and boolean have total stars, so anything goes.
    Integer-valued floats keep tropical arithmetic exact.
    """
    if name in ("maxplus", "maxplus_complete"):
        return float(rand.randint(-5, 0))
    if name == "minplus":
        return float(rand.randint(0, 6))
    if name == "maxmin":
        return float(rand.randint(0, 10))
    if name == "boolean":
        return True
    raise ValueError(f"no star-safe weight rule for {name}")


def random_stable_matrix(name, n, rand, density=0.6):
    """Random n x n matrix over an idempotent carrier with A* defined."""
    d = descriptor(name)
    zero = d.zero
    data = [[star_safe_weight(name, rand) if rand.random() < density else zero
             for _ in range(n)] for _ in range(n)]
    return Matrix(d, data)


def random_nilpotent_matrix(name, n, rand, lo=1, hi=3, density=0.7):
    """Strictly triangular (under a hidden permutation) integer matrix.

    Nilpotency makes the closure a finite sum of walk products; with
    integer entries those sums are exact in doubles, so even rplus and
    real_field instances can be compared bitwise against enumeration.
    """
    d = descriptor(name)
    order = list(range(n))
    rand.shuffle(order)
    data = [[d.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if order[i] < order[j] and rand.random() < density:
                w = rand.randint(lo, hi)
                if name == "real_field" and rand.random() < 0.5:
                    w = -w
                if w:
                    data[i][j] = float(w)
    return Matrix(d, data)


def random_oracle_matrix(name, n, rand):
    """Stable matrix suited to brute-force walk enumeration, any carrier."""
    if name in ("rplus", "rplus_complete", "real_field"):
        return random_nilpotent_matrix(name, n, rand)
    return random_stable_matrix(name, n, rand)


def random_contraction(n, rand, radius=0.4):
    """Real matrix scaled so its row-sum norm (hence spectral radius)
    is at most ``radius``."""
    d = descriptor("real_field")
    rows = [[rand.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    norm = max(sum(abs(v) for v in row) for row in rows)
    scale = radius / norm if norm else 0.0
    return Matrix(d, [[v * scale for v in row] for row in rows])


def pivoted_rows(seed):
    """A seeded n x n input, n in 2..9, on which Gauss-Jordan in index
    order meets a unit pivot at once: entry (0, 0) and about a third of
    the other diagonal entries are 1.  Half are sparse small integers,
    half dense thousandths in [-1, 1)."""
    rand = random.Random(seed)
    n = 2 + int(rand.random() * 8)
    sparse = rand.random() < 0.5
    if sparse:
        rows = [[float(int(rand.random() * 7) - 3) if rand.random() < 0.5
                 else 0.0 for _ in range(n)] for _ in range(n)]
    else:
        rows = [[int(rand.random() * 2000 - 1000) / 1000 for _ in range(n)]
                for _ in range(n)]
    for i in range(n):
        if i == 0 or rand.random() < 0.3:
            rows[i][i] = 1.0
    return rows


def dominant_rows(rand, n, row, pivot):
    """The rows A of E - A = 2E plus small entries, whose pivots stay on
    the diagonal, but for row ``row`` (1-based): zero but for ``pivot``
    right of the diagonal, which no step before its own changes.  Exact
    off the diagonal."""
    m = [[2.0 if i == j else rand.uniform(-0.01, 0.01) for j in range(n)]
         for i in range(n)]
    m[row - 1] = [pivot * (j == row) for j in range(n)]
    return [[(1.0 - v if i == j else -v) for j, v in enumerate(r)]
            for i, r in enumerate(m)]


def random_graph(name, n, rand, density=0.5):
    """Random digraph with star-safe arc weights (absent arcs omitted)."""
    d = descriptor(name)
    arcs = []
    for u in range(1, n + 1):
        for v in range(1, n + 1):
            if rand.random() < density:
                w = star_safe_weight(name, rand)
                if not d.is_zero(w):
                    arcs.append((u, v, w))
    return WeightedDigraph(n, tuple(arcs), d)


def random_symmetric_stable_matrix(name, n, rand, density=0.6):
    """Symmetric star-safe matrix for the symmetric factorization tests."""
    d = descriptor(name)
    data = [[d.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rand.random() < density:
                w = star_safe_weight(name, rand)
                data[i][j] = w
                data[j][i] = w
    return Matrix(d, data)


def interval_samples(base_name, cap=12):
    """All ordered pairs from the scalar pool, as intervals, capped."""
    base = descriptor(base_name)
    out = []
    pool = scalar_samples(base_name)
    for lo in pool:
        for hi in pool:
            if base.leq(lo, hi):
                out.append(sa.make_interval(base, lo, hi))
    if len(out) > cap:
        step = len(out) / cap
        out = [out[int(k * step)] for k in range(cap)]
    return out


def pair_endpoints(base, lo_matrix, hi_matrix):
    """Zip two base matrices into one interval matrix."""
    lifted = sa.lift_semiring(base)
    data = [[sa.Interval(lo_matrix[i, j], hi_matrix[i, j])
             for j in range(lo_matrix.cols)] for i in range(lo_matrix.rows)]
    return Matrix(lifted, data)


def interval_hull(base, a, b):
    """Interval matrix spanning two base matrices entry by entry."""
    rows, cols = range(a.rows), range(a.cols)
    lo = [[a[i, j] if base.leq(a[i, j], b[i, j]) else b[i, j] for j in cols]
          for i in rows]
    hi = [[b[i, j] if base.leq(a[i, j], b[i, j]) else a[i, j] for j in cols]
          for i in rows]
    return pair_endpoints(base, Matrix._wrap(base, lo), Matrix._wrap(base, hi))


def random_interval_matrix(base_name, n, rand, density=0.6):
    """Interval matrix whose endpoint matrices are each star-safe."""
    a = random_stable_matrix(base_name, n, rand, density=density)
    b = random_stable_matrix(base_name, n, rand, density=density)
    return interval_hull(descriptor(base_name), a, b)


# star-safe endpoints, signed zeros among them, per liftable carrier
SIGNED_ENDPOINTS = {
    "maxplus": [NEG_INF, -0.0, 0.0, -1.0, -2.5],
    "maxplus_complete": [NEG_INF, -0.0, 0.0, -1.0, -2.5],
    "minplus": [POS_INF, -0.0, 0.0, 1.0, 2.5],
    "maxmin": [0.0, -0.0, 2.0, 10.0],
    "boolean": [False, True],
    "rplus": [0.0, -0.0, 0.0625, 0.03125],
    "rplus_complete": [0.0, -0.0, 0.0625, 0.03125],
}


def signed_interval_matrix(name, rows, cols, rand, symmetric=False):
    """Interval matrix over the lift of ``name`` whose endpoints are drawn
    from ``SIGNED_ENDPOINTS``."""
    base = descriptor(name)
    pool = SIGNED_ENDPOINTS[name]

    def cell():
        a, b = rand.choice(pool), rand.choice(pool)
        return (a, b) if base.leq(a, b) else (b, a)

    data = [[cell() for _ in range(cols)] for _ in range(rows)]
    if symmetric:
        data = [[data[min(i, j)][max(i, j)] for j in range(cols)]
                for i in range(rows)]
    return Matrix(sa.lift_semiring(base), data)


# ------------------------------------------------------------- row kernels

# The catalog carriers with C-level row kernels; maxmin also runs with
# infinite bounds, so that both infinity tags reach its kernels.
KERNEL_CARRIERS = ["maxplus", "minplus", "maxmin", "maxmin_inf", "boolean",
                   "rplus", "real_field"]


def kernel_descriptor(label):
    if label == "maxmin_inf":
        return make_semiring("maxmin", (NEG_INF, POS_INF))
    return descriptor(label)


def kernel_rows(label, rows, cols, rand):
    """Star-safe rows mixing zeros, infinity tags, signed zeros and
    fractional values, whose rounding depends on the order of a fold."""
    small = 0.5 / max(rows, cols)

    def value():
        r = rand.random()
        if label == "boolean":
            return r < 0.4
        if r < 0.1:
            return -0.0
        if label == "maxplus":
            return NEG_INF if r < 0.4 else -rand.choice([0.0, 1.0, rand.random()])
        if label == "minplus":
            return POS_INF if r < 0.4 else rand.choice([0.0, 1.0, rand.random()])
        if label == "maxmin":
            return rand.choice([0.0, 10.0, 2.0, 10 * rand.random()])
        if label == "maxmin_inf":
            return rand.choice([NEG_INF, POS_INF, 0.0, rand.uniform(-3, 3)])
        if label == "rplus":
            return 0.0 if r < 0.4 else rand.uniform(0.0, small)
        return 0.0 if r < 0.4 else rand.uniform(-small, small)   # real_field

    return [[value() for _ in range(cols)] for _ in range(rows)]


# the catalog carriers of the shipping tests: those with row kernels, and
# the two complete ones, whose rows are those of their incomplete kin
CATALOG_LABELS = KERNEL_CARRIERS + ["maxplus_complete", "rplus_complete"]


def catalog_matrix(name, rows, cols, rand):
    """Star-safe rows over a catalog carrier, signed zeros among them;
    square ones carry -0.0 on the diagonal."""
    label = {"maxplus_complete": "maxplus", "rplus_complete": "rplus"}.get(
        name, name)
    data = kernel_rows(label, rows, cols, rand)
    if rows == cols:
        for i in range(rows):
            data[i][i] = -0.0 if label != "boolean" else data[i][i]
    return Matrix(kernel_descriptor(name), data)


def assert_bit_identical(got, want):
    """Equal matrices whose float entries also print alike (-0.0 vs 0.0)."""
    assert got == want
    assert repr(got.to_lists()) == repr(want.to_lists())


def widest_by_tie_rule(d, rows, rhs=None):
    """The rows of [A* | A*B] over the maxmin ``d``, A ``rows`` and B
    ``rhs`` (or none), by brute force under the tie rule of the sweep.
    The arcs w > zero of [A | B], B's into one sink per column, are
    taken one at a time, widest first and equal weights in the order of
    their rows, then columns; a pair that a search finds reached first
    after the arc of weight w reads w, unless its input entry is as
    wide, which stays.  The diagonal of A* is the one."""
    def rank(v):    # the tags as the floats that they stand for
        return math.copysign(math.inf, v.sign) if v in (NEG_INF, POS_INF) else v

    n = len(rows)
    out = [list(a) + list(b) for a, b in zip(rows, rhs or [[]] * n)]
    m = len(out[0])
    arcs = sorted(((u, v) for u in range(n) for v in range(m)
                   if rank(out[u][v]) > rank(d.zero)),
                  key=lambda arc: -rank(out[arc[0]][arc[1]]))
    succ = {u: set() for u in range(m)}
    reached = [{x} for x in range(n)]
    for u, v in arcs:
        w = rows[u][v] if v < n else rhs[u][v - n]
        succ[u].add(v)
        for x in range(n):
            seen, todo = {x}, [x]
            while todo:
                for y in succ[todo.pop()] - seen:
                    seen.add(y)
                    todo.append(y)
            for y in seen - reached[x]:
                if rank(out[x][y]) != rank(w):
                    out[x][y] = w
            reached[x] = seen
    for x in range(n):
        out[x][x] = d.one
    return out


def assert_swept(got, want, rows, rhs=None):
    """``got``, a maxmin closure of ``rows`` (or the least solution with
    ``rhs``) from the sweep, equals ``want`` by value and prints as the
    tie rule says (``widest_by_tie_rule``)."""
    assert got == want
    ref = widest_by_tie_rule(got.descriptor, rows, rhs)
    if rhs is not None:
        ref = [row[len(rows):] for row in ref]
    assert repr(got.to_lists()) == repr(ref)


# ------------------------------------------------- runs on the worker process

PYTEST_PID = os.getpid()


def ship_placements(monkeypatch, *kinds):
    """Every run of ``kinds``, module-level functions handed to
    ``offload.split_job``, may go to the worker, also where the calling
    thread may use only one CPU; the list returned records each
    placement of one, True for a run that went."""
    placements = []
    place = offload._ship

    def spy(run, args, d):
        worker = place(run, args, d)
        if run in kinds:
            placements.append(worker is not None)
        return worker

    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    monkeypatch.setattr(offload, "_one_cpu", lambda: False)
    monkeypatch.setattr(offload, "_ship", spy)
    return placements


def shipped_and_here(monkeypatch, placements, call, ships=True):
    """The outcomes of ``call`` with every run that ``placements``
    records shipped and with every one in this process: (result, None)
    or (None, (type, message, location)).  With ``ships`` false, the
    call offers no such run to the worker at all, as a maxmin closure or
    solve, which sweeps here, does not."""
    outcomes = []
    for threshold in (0, math.inf):
        monkeypatch.setattr(offload, "SHIP_MIN_WORK", threshold)
        placements.clear()
        try:
            outcomes.append((call(), None))
        except SemiringError as exc:
            outcomes.append((None, (type(exc), str(exc),
                                    getattr(exc, "location", None))))
        if not ships:
            assert placements == []
        elif threshold == 0:
            assert placements and all(placements)
        else:       # below the threshold a run stays here unasked
            assert not any(placements)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    return outcomes


def fork_anew(monkeypatch, name="maxplus", **replaced):
    """The next worker forks with the kernels of the catalog carrier
    ``name`` ``replaced``, such as ``eliminate``, the step; the kernels
    to put back.  The test's last worker ends with it
    (``_no_worker_with_replaced_kernels``)."""
    if offload._worker is not None:
        offload._worker.stop()
    d = make_semiring(name)
    kernels = semirings.row_kernels(d)
    monkeypatch.setitem(semirings._kernels, d, kernels._replace(**replaced))
    _FORKED_ANEW.append(d)
    return kernels


_FORKED_ANEW = []       # the carriers of fork_anew in the running test


@pytest.fixture(autouse=True)
def _no_worker_with_replaced_kernels():
    """After a test that called ``fork_anew``, stop the worker: a test that
    fails before it puts the kernels back may leave a worker forked with
    the replaced ones, which would serve the next test's shipped runs."""
    yield
    if _FORKED_ANEW and offload._worker is not None:
        offload._worker.stop()
    _FORKED_ANEW.clear()


class _FailingRecv:
    """A pipe end whose ``recv`` takes what is there and raises ``exc``."""

    def __init__(self, conn, exc):
        self.conn, self.exc = conn, exc

    def recv(self):
        self.conn.recv()
        raise self.exc


def failing_reply(monkeypatch, exc):
    """The next reply of the worker is read and then raises ``exc``, as
    one that does not unpickle does, or an interrupt while the caller
    waits on it; the replies after it are read as they are."""
    reply = offload._Worker.reply
    pending = [exc]

    def failing(self):
        if not pending:
            return reply(self)
        conn = self.conn
        self.conn = _FailingRecv(conn, pending.pop())
        try:
            return reply(self)
        finally:
            self.conn = conn

    monkeypatch.setattr(offload._Worker, "reply", failing)


def in_threads(work, count):
    """``work(k)`` for k in range(count), each in a thread of its own,
    the interpreter switching between them as often as it can; more
    threads than cores make a reply that reached the wrong call show."""
    threads = [threading.Thread(target=work, args=(k,)) for k in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not offload._busy.locked()


# ------------------------------------------------------------ acceptance hook

ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
