"""Weighted digraphs and the path reading of matrix algebra.

A square matrix over a semiring is the arc-weight table of a digraph
on nodes 1..n (graph indices are 1-based; matrix indices stay
0-based).  Entry (i, j) of A^k then accumulates the weights of all
walks of length k from node i+1 to node j+1, and the closure A*
accumulates over walks of every length.  ``brute_force_star`` checks
that reading by explicit enumeration and is the oracle the test suite
trusts.
"""

from dataclasses import dataclass

from .closure import ClosureOptions, closure, closure_gauss_jordan
from .errors import (IndexOutOfRange, InvalidGraph, InvalidPath,
                     OracleScaleExceeded, StarUndefined, WrongDescriptor)
from .matrices import Matrix, identity, zeros
from .semirings import SemiringDescriptor, row_kernels

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
        if self.n < 1:
            raise InvalidGraph("graph needs at least one node")
        d = self.descriptor
        seen = set()
        clean = []
        for arc in self.arcs:
            u, v, w = arc
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


def graph_to_matrix(g: WeightedDigraph) -> Matrix:
    A = zeros(g.descriptor, g.n, g.n).to_lists()
    for u, v, w in g.arcs:
        A[u - 1][v - 1] = w
    return Matrix._wrap(g.descriptor, A)


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


def shortest_paths(g: WeightedDigraph,
                   options: "ClosureOptions | None" = None) -> Matrix:
    """All-pairs shortest path weights; needs the minplus semiring."""
    if g.descriptor.name != "minplus":
        raise WrongDescriptor(f"shortest paths need minplus, got {g.descriptor.label}")
    return closure(graph_to_matrix(g), options)


def widest_paths(g: WeightedDigraph,
                 options: "ClosureOptions | None" = None) -> Matrix:
    """All-pairs maximal bottleneck widths; needs a maxmin semiring."""
    if g.descriptor.name != "maxmin":
        raise WrongDescriptor(f"widest paths need maxmin, got {g.descriptor.label}")
    return closure(graph_to_matrix(g), options)


def max_profit(g: WeightedDigraph, terminal, horizon: "int | None",
               options: "ClosureOptions | None" = None):
    """Best achievable profit per start node of a staged decision walk.

    Arc weights are per-step profits over maxplus, ``terminal`` is the
    reward collected at the node a walk ends in.  With ``horizon`` k
    the walk takes exactly k steps; ``horizon=None`` searches over all
    lengths, which requires the closure (and so either no profitable
    cycles or the completed carrier).
    """
    if g.descriptor.name not in ("maxplus", "maxplus_complete"):
        raise WrongDescriptor(f"profit search needs maxplus, got {g.descriptor.label}")
    d = g.descriptor
    A = graph_to_matrix(g)
    b = Matrix(d, [[v] for v in terminal])
    if b.rows != g.n:
        raise InvalidGraph(f"terminal rewards: expected {g.n} values, got {b.rows}")
    if horizon is None:
        values = closure(A, options).mul(b)
    else:
        if horizon < 0:
            raise InvalidPath("horizon must be >= 0")
        values = A.pow(horizon).mul(b)
    return [values[i, 0] for i in range(g.n)]


def real_matrix_star(A: Matrix) -> Matrix:
    """Closure over the real field: the inverse of (E - A) when it exists.

    Gauss-Jordan elimination first, pivot by pivot in index order.  When
    a pivot has no star (a diagonal entry of 1 as it reaches its turn),
    the elimination runs on P A P^T for a permutation P whose order of
    pivots meets none, and A* = P^T (P A P^T)* P.  If no such order is
    found, ``StarUndefined`` names the pivots that blocked.
    """
    if A.descriptor.name != "real_field":
        raise WrongDescriptor(f"needs real_field, got {A.descriptor.label}")
    try:
        return closure_gauss_jordan(A)
    except StarUndefined as exc:
        order = _pivot_order(A, exc)
    rows = A._data
    S = closure_gauss_jordan(
        Matrix._wrap(A.descriptor, [[rows[i][j] for j in order] for i in order]))
    place = [0] * A.rows        # place[i]: the position of pivot i in order
    for p, i in enumerate(order):
        place[i] = p
    return Matrix._wrap(A.descriptor, [[S._data[place[i]][place[j]]
                                        for j in range(A.rows)]
                                       for i in range(A.rows)])


# the elimination steps the pivot search may take, per row of the matrix
_PIVOT_SEARCH_STEPS = 8


def _pivot_order(A: Matrix, failure: StarUndefined) -> list:
    """An order of the indices of A in which Gauss-Jordan finds the star
    of every pivot, by depth-first search, the largest pivot of E - A
    first; else ``failure``'s message extended by the pivots that block.

    After pivots S the candidates' values are the diagonal of the block
    of A's other indices, updated by the elimination steps of S; that
    block is the search's state.  A step updates its entries by the
    same operations, in the same order, as the Gauss-Jordan run on the
    permuted matrix does, so that run meets the same pivots.
    """
    d = A.descriptor
    kernels = row_kernels(d)
    mul, axpy = kernels.mul, kernels.axpy
    blocked = set()

    def candidates(idx, B):
        ok = []
        for p, row in enumerate(B):
            try:
                d.star(row[p])
                ok.append(p)
            except StarUndefined:
                blocked.add(idx[p] + 1)     # 1-based, as locations are
        return iter(sorted(ok, key=lambda p: -abs(1.0 - B[p][p])))

    def eliminate(idx, B, p):
        s = d.star(B[p][p])
        pivot = B[p]
        rest = [axpy(row, mul(row[p], s), pivot)
                for q, row in enumerate(B) if q != p]
        return idx[:p] + idx[p + 1:], [row[:p] + row[p + 1:] for row in rest]

    start = (list(range(A.rows)), list(map(kernels.encode, A._data)))
    steps = _PIVOT_SEARCH_STEPS * A.rows
    path = []       # (index eliminated, the other candidates at its depth)
    idx, B = start
    tries = candidates(idx, B)
    while idx:
        p = next(tries, None)
        if p is None:
            if not path:
                raise StarUndefined(
                    f"{failure} at pivots {_listing(blocked)}; no symmetric "
                    "permutation of the matrix avoids them",
                    element=failure.element, location=failure.location)
            tries = path.pop()[1]
            # back one pivot: the block again, from the pivots on the path
            idx, B = start
            for i, _ in path:
                idx, B = eliminate(idx, B, idx.index(i))
            steps -= len(path)
            continue
        steps -= 1
        if steps < 0:
            raise StarUndefined(
                f"{failure}; no symmetric permutation that avoids pivots "
                f"{_listing(blocked)} was found in "
                f"{_PIVOT_SEARCH_STEPS * A.rows} elimination steps",
                element=failure.element, location=failure.location)
        path.append((idx[p], tries))
        idx, B = eliminate(idx, B, p)
        tries = candidates(idx, B)
    return [i for i, _ in path]


def _listing(pivots):
    return ", ".join(map(str, sorted(pivots)))
