"""Weighted digraphs and the path reading of matrix algebra.

A square matrix over a semiring is the arc-weight table of a digraph
on nodes 1..n (graph indices are 1-based; matrix indices stay
0-based).  Entry (i, j) of A^k then accumulates the weights of all
walks of length k from node i+1 to node j+1, and the closure A*
accumulates over walks of every length.  ``brute_force_star`` checks
that reading by explicit enumeration and is the oracle the test suite
trusts.
"""

import math
import os
from dataclasses import dataclass
from itertools import repeat

from .closure import ClosureOptions, _require_square, closure, solve_bellman
from .errors import (DimensionMismatch, IllegalElement, IndexOutOfRange,
                     InvalidGraph, InvalidPath, OracleScaleExceeded,
                     StarUndefined, WrongDescriptor)
from .matrices import Matrix, _is_int, identity
from . import offload
from .semirings import SemiringDescriptor, list_kernels

__all__ = ["WeightedDigraph", "Path", "graph_to_matrix", "matrix_to_graph",
           "path_weight", "brute_force_star", "shortest_paths", "widest_paths",
           "max_profit", "real_matrix_star"]

_ORACLE_MAX_N = 8
_ORACLE_MAX_LEN = 8


@dataclass(frozen=True)
class WeightedDigraph:
    """Arc list form of a weighted digraph; nodes are 1..n."""
    n: int
    arcs: tuple
    descriptor: SemiringDescriptor

    def __post_init__(self):
        if not _is_int(self.n):
            raise InvalidGraph(f"n must be an int, got {self.n!r}")
        if self.n < 1:
            raise InvalidGraph("graph needs at least one node")
        d = self.descriptor
        seen = set()
        clean = []
        for arc in self.arcs:
            try:
                u, v, w = arc
            except (TypeError, ValueError):
                raise InvalidGraph(
                    f"an arc is (u, v, w), got {arc!r}") from None
            if not (_is_int(u) and _is_int(v)):
                raise InvalidGraph(
                    f"arc nodes must be ints, got ({u!r}, {v!r})")
            if not (1 <= u <= self.n) or not (1 <= v <= self.n):
                raise IndexOutOfRange(f"arc ({u}, {v}) outside 1..{self.n}")
            if (u, v) in seen:
                raise InvalidGraph(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
            w = d.coerce(w)
            if d.is_zero(w):
                raise InvalidGraph(
                    f"arc ({u}, {v}) carries the zero weight; drop the arc instead")
            clean.append((u, v, w))
        object.__setattr__(self, "arcs", tuple(clean))

    def arc_map(self):
        return {(u, v): w for u, v, w in self.arcs}


@dataclass(frozen=True)
class Path:
    """A walk given by its node sequence, length = len(nodes) - 1."""
    nodes: tuple

    def __post_init__(self):
        if len(self.nodes) < 1:
            raise InvalidPath("a path visits at least one node")
        for node in self.nodes:
            if not _is_int(node):
                raise InvalidPath(f"path nodes must be ints, got {node!r}")


def graph_to_matrix(g: WeightedDigraph) -> Matrix:
    """The n x n arc-weight matrix of ``g``.

    Raises MemoryError, before anything is allocated, when its rows,
    about n (56 + 8 n) bytes of lists, would exceed the physical memory:
    where the system overcommits memory, building them would not fail
    but run the system out of memory.
    """
    if g.n * (56 + 8 * g.n) > _physical_memory():
        raise MemoryError(f"an n x n matrix with n = {g.n} exceeds the "
                          "physical memory")
    zero = g.descriptor.zero
    A = [[zero] * g.n for _ in range(g.n)]
    for u, v, w in g.arcs:
        A[u - 1][v - 1] = w
    return Matrix._wrap(g.descriptor, A)


def _physical_memory():
    """Bytes of physical memory, or infinity where the system cannot say."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):    # no sysconf, or no such name
        return math.inf
    return size if size > 0 else math.inf


def matrix_to_graph(A: Matrix) -> WeightedDigraph:
    if A.rows != A.cols:
        raise InvalidGraph(f"adjacency matrix must be square, got {A.rows}x{A.cols}")
    d = A.descriptor
    arcs = []
    for i in range(A.rows):
        for j in range(A.cols):
            w = A[i, j]
            if not d.is_zero(w):
                arcs.append((i + 1, j + 1, w))
    return WeightedDigraph(A.rows, tuple(arcs), d)


def path_weight(g: WeightedDigraph, path: Path):
    """Product of arc weights along the walk; the empty walk weighs one."""
    d = g.descriptor
    nodes = path.nodes
    for node in nodes:
        if not (1 <= node <= g.n):
            raise IndexOutOfRange(f"node {node} outside 1..{g.n}")
    weights = g.arc_map()
    acc = d.one
    for u, v in zip(nodes, nodes[1:]):
        w = weights.get((u, v))
        if w is None:
            raise InvalidPath(f"no arc from {u} to {v}")
        acc = d.mul(acc, w)
    return acc


def brute_force_star(g: WeightedDigraph, max_len: int) -> Matrix:
    """Sum path weights over every walk of length <= max_len, per (i, j).

    Walks are enumerated explicitly arc by arc (depth first, arcs in
    sorted order), independently of any matrix kernel.  Hard caps keep
    the enumeration honest about its exponential cost.
    """
    if not _is_int(max_len):
        raise InvalidPath(f"max_len must be an int, got {max_len!r}")
    if g.n > _ORACLE_MAX_N or max_len > _ORACLE_MAX_LEN:
        raise OracleScaleExceeded(
            f"brute force capped at n <= {_ORACLE_MAX_N}, max_len <= {_ORACLE_MAX_LEN}")
    if max_len < 0:
        raise InvalidPath("max_len must be >= 0")
    d = g.descriptor
    add, mul = d.add, d.mul
    out = identity(d, g.n).to_lists()
    adjacency = {u: [] for u in range(1, g.n + 1)}
    for u, v, w in sorted(g.arcs):
        adjacency[u].append((v, w))

    def extend(start, node, weight, steps_left):
        row = out[start - 1]
        for v, w in adjacency[node]:
            acc = mul(weight, w)
            row[v - 1] = add(row[v - 1], acc)
            if steps_left > 1:
                extend(start, v, acc, steps_left - 1)

    if max_len > 0:
        for s in range(1, g.n + 1):
            extend(s, s, d.one, max_len)
    return Matrix._wrap(d, out)


def _carrier(d: SemiringDescriptor) -> str:
    """The name of ``d``, or of its base for an interval lift: a path
    problem on intervals is its pair of base problems."""
    return d.name if d.base is None else d.base.name


def shortest_paths(g: WeightedDigraph,
                   options: "ClosureOptions | None" = None) -> Matrix:
    """All-pairs shortest path weights; needs minplus or its lift."""
    if _carrier(g.descriptor) != "minplus":
        raise WrongDescriptor(f"shortest paths need minplus, got {g.descriptor.label}")
    return closure(graph_to_matrix(g), options)


def widest_paths(g: WeightedDigraph,
                 options: "ClosureOptions | None" = None) -> Matrix:
    """All-pairs maximal bottleneck widths; needs maxmin or its lift."""
    if _carrier(g.descriptor) != "maxmin":
        raise WrongDescriptor(f"widest paths need maxmin, got {g.descriptor.label}")
    return closure(graph_to_matrix(g), options)


def max_profit(g: WeightedDigraph, terminal, horizon: "int | None",
               options: "ClosureOptions | None" = None):
    """Best achievable profit per start node of a staged decision walk.

    Arc weights are per-step profits over maxplus (or intervals over
    it), ``terminal`` is the reward collected at the node a walk ends
    in.  With ``horizon`` k the walk takes exactly k steps: A^k b, taken
    as k products with the vector, k n^2 operations, without forming
    A^k.  ``horizon=None`` searches over all lengths, which requires the
    closure (and so either no profitable cycles or the completed
    carrier).
    """
    if _carrier(g.descriptor) not in ("maxplus", "maxplus_complete"):
        raise WrongDescriptor(f"profit search needs maxplus, got {g.descriptor.label}")
    d = g.descriptor
    A = graph_to_matrix(g)
    b = Matrix(d, [[v] for v in terminal])
    if b.rows != g.n:
        raise DimensionMismatch(
            f"terminal rewards: expected {g.n} values, got {b.rows}")
    if horizon is None:
        values = solve_bellman(A, b, options)
    else:
        if not _is_int(horizon):
            raise InvalidPath(f"horizon must be an int or None, got {horizon!r}")
        if horizon < 0:
            raise InvalidPath("horizon must be >= 0")
        values = b
        for _ in range(horizon):
            values = A.mul(values)
    return [values[i, 0] for i in range(g.n)]


def real_matrix_star(A: Matrix) -> Matrix:
    """Closure over the real field: the inverse of (E - A).

    Gauss-Jordan elimination on E - A, in place (``_pivoted_rows``),
    with partial pivoting by columns (Golub & Van Loan, *Matrix
    Computations*, 3.4, on the transpose): step k pivots row k on the
    lowest unused column c with its largest entry p, and row k turns
    into row c of A*, read at the pivot columns.  When p is 0, E - A is
    singular to working precision and ``StarUndefined`` names row k + 1;
    when 1/p is no finite float, ``IllegalElement`` names row and pivot.

    The top half of the rows stays here and the bottom half goes to the
    worker process, the two stripes stepping at the same time
    (``offload.split_job``), when the work of the bottom one, its rows
    times n^2, reaches ``offload.SHIP_MIN_WORK`` (from n = 32).
    """
    if A.descriptor.name != "real_field":
        raise WrongDescriptor(f"needs real_field, got {A.descriptor.label}")
    _require_square(A)
    d, n = A.descriptor, A.rows
    h = n // 2
    rows = offload.split_job(_pivoted_rows, d, A._data, h, (n - h) * n * n, n)
    return Matrix._wrap(d, [row for _, row in sorted(rows)])


def _pivoted_rows(peer, d, A, lo, n):
    """For each of the rows A, rows lo.. of an n x n matrix, (c, the
    row of A* it turns into, read at the pivot columns), c its pivot
    column: row k of E - A after the Gauss-Jordan steps with partial
    pivoting by columns in rows 0..n-1 is row c of A*.  The steps are
    taken at the same time as the process that holds the other rows, at
    the other end of the pipe ``peer``, or, with ``peer`` None, here on
    every row, A holding them all.  Private: a public name may be
    rebound by a wrapper that does not pickle.

    The stripe that holds row k sends it before step k, and the other
    takes it, so both pick the same pivot column from the same values.
    Each scales its own copy of the row and subtracts its multiples
    from its other rows.
    """
    kernels = list_kernels(d)
    mul, axpy = kernels.mul, kernels.axpy
    C = [axpy([0.0] * i + [1.0] + [0.0] * (n - 1 - i), -1.0, row)
         for i, row in enumerate(A, lo)]                     # e_i - a_i
    hi = lo + len(C)
    free = list(range(n))               # the columns not pivoted yet
    placed = []
    for k in range(n):
        if lo <= k < hi:
            rowk = C[k - lo]
            if peer is not None:
                peer.send(rowk)
        else:
            rowk = peer.recv()
        c = max(free, key=list(map(abs, rowk)).__getitem__)
        p = rowk[c]
        if p == 0.0:
            raise StarUndefined(
                "E - A is singular to working precision: row "
                f"{k + 1} has no nonzero entry left",
                element=1.0, location=k + 1)
        s = 1.0 / p
        if not (s and math.isfinite(s)):
            raise IllegalElement(f"the pivot {p!r} of row {k + 1} has no "
                                 "reciprocal in the float range")
        free.remove(c)
        placed.append(c)
        # column c turns into a column of the inverse: 1/p in the pivot
        # row, -a/p in a row whose entry there was a
        rowk[c] = 1.0
        rowk = list(map(mul, repeat(s), rowk))
        if lo <= k < hi:
            C[k - lo] = rowk
        for j, row in enumerate(C):
            if row is not rowk:
                a, row[c] = row[c], 0.0
                C[j] = axpy(row, -a, rowk)
    decode = kernels.decode
    return [(placed[k], list(map(decode(row).__getitem__, placed)))
            for k, row in enumerate(C, lo)]
