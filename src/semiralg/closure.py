"""Matrix closure A* = E + A + A^2 + ... three ways.

``closure_block`` recurses on a 2x2 block partition (the escalator
scheme), ``closure_gauss_jordan`` eliminates pivot by pivot in the
Floyd-Warshall shape, and ``closure_iterative`` accumulates partial
sums of powers.  All three agree exactly on idempotent carriers.

The block recursion and the elimination run on the descriptor's row
kernels (``semirings.row_kernels``): they encode the matrix once at
entry, decode it once at exit, and hand each pivot to ``star`` as a
carrier value, so a failing pivot reads as it does in the matrix.
They never index a row themselves.  The kernels read a pivot
(``entry``), cut a block into four and glue it back (``split``,
``join``), add and multiply blocks (``add_rows``, ``product``, the
kernel of ``Matrix.mul`` too) and take a Gauss-Jordan step
(``eliminate``).  So one program runs on list rows and on boolean rows
packed into ints, one bit per entry, where a step ORs the pivot row
into every row that has bit k set: one big-int operation per row.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidOptions, NoStabilization
from .intervals import endpoint_runs, is_lift, join_endpoints
from .matrices import Matrix, identity
from .semirings import kernel_star, row_kernels

__all__ = ["ClosureOptions", "IterativeClosure", "closure", "closure_block",
           "closure_gauss_jordan", "closure_iterative", "solve_bellman"]

_ALGORITHMS = ("block", "gauss_jordan", "iterative")


@dataclass(frozen=True)
class ClosureOptions:
    algorithm: str = "block"
    split: "int | None" = None     # block size of the leading diagonal block
    max_iterations: int = 60       # truncation point for non-idempotent series
    # read by no code; kept only until the benchmark retires
    # closure.fork_speedup, which still passes them (ROADMAP item 1)
    parallel: bool = False
    threads: int = 4

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise InvalidOptions(f"algorithm must be one of {_ALGORITHMS}")
        if self.split is not None and self.split < 1:
            raise InvalidOptions("split must be at least 1")
        if self.max_iterations < 1:
            raise InvalidOptions("max_iterations must be at least 1")


@dataclass(frozen=True)
class IterativeClosure:
    """Partial-sum closure result; ``truncated`` marks a cut-off series."""
    matrix: Matrix
    iterations: int
    truncated: bool


def _require_square(A):
    if A.rows != A.cols:
        raise DimensionMismatch(f"closure needs a square matrix, got {A.rows}x{A.cols}")


def _close_rec(d, kernels, M, offset, opts):
    n = len(M)
    if n == 1:
        return [kernels.encode([kernel_star(d, kernels, kernels.entry(M[0], 0),
                                            offset + 1)])]
    if opts.split is None:
        k = (n + 1) // 2
    else:
        k = min(opts.split, n - 1)
    A11, A12 = kernels.split(M[:k], k)
    A21, A22 = kernels.split(M[k:], k)
    add_rows, product = kernels.add_rows, kernels.product

    S11 = _close_rec(d, kernels, A11, offset, opts)
    P, Q = product(S11, A12), product(A21, S11)
    D = list(map(add_rows, A22, product(A21, P)))
    SD = _close_rec(d, kernels, D, offset + k, opts)
    TR, BL = product(P, SD), product(SD, Q)
    TL = list(map(add_rows, S11, product(TR, Q)))
    return kernels.join(TL, TR) + kernels.join(BL, SD)


def closure_block(A: Matrix, options: "ClosureOptions | None" = None) -> Matrix:
    """Closure by recursive 2x2 block partitioning."""
    _require_square(A)
    opts = options or ClosureOptions()
    n = A.rows
    if opts.split is not None and n > 1 and opts.split > n - 1:
        raise InvalidOptions(f"split {opts.split} out of range 1..{n - 1}")
    d = A.descriptor
    if is_lift(d):
        return join_endpoints(d, *endpoint_runs(closure_block, A, opts))
    kernels = row_kernels(d)
    data = _close_rec(d, kernels, list(map(kernels.encode, A._data)), 0, opts)
    return Matrix._wrap(d, list(map(kernels.decode, data)))


def _finish(d, kernels, C):
    """The closure from the kernel rows after every pivot's step."""
    C = list(map(kernels.decode, C))
    for i, row in enumerate(C):
        row[i] = d.add(row[i], d.one)
    return Matrix._wrap(d, C)


def closure_gauss_jordan(A: Matrix) -> Matrix:
    """Closure by pivot elimination over the whole matrix."""
    _require_square(A)
    d = A.descriptor
    if is_lift(d):
        return join_endpoints(d, *endpoint_runs(closure_gauss_jordan, A))
    kernels = row_kernels(d)
    entry, eliminate, encode_one = (kernels.entry, kernels.eliminate,
                                    kernels.encode_one)
    C = list(map(kernels.encode, A._data))
    for k in range(A.rows):
        s = encode_one(kernel_star(d, kernels, entry(C[k], k), k + 1))
        C = eliminate(C, k, s)
    return _finish(d, kernels, C)


def closure_iterative(A: Matrix,
                      options: "ClosureOptions | None" = None) -> IterativeClosure:
    """Accumulate E + A + A^2 + ... until a fixpoint or the iteration cap.

    Idempotent carriers must stabilize within n steps when every cycle
    weight is below the multiplicative unit; failing that raises
    NoStabilization.  Other carriers run exactly ``max_iterations``
    steps and flag the result as truncated, stopping early only if the
    partial sums reach an exact fixpoint.
    """
    _require_square(A)
    opts = options or ClosureOptions()
    d = A.descriptor
    limit = A.rows if d.flags.idempotent else opts.max_iterations
    S = identity(d, A.rows)
    P = A
    for k in range(1, limit + 1):
        S_next = S.add(P)
        if S_next == S:
            return IterativeClosure(S_next, k, False)
        S = S_next
        if k < limit:
            P = P.mul(A)
    if d.flags.idempotent:
        raise NoStabilization(
            f"partial sums still changing after {limit} steps; "
            "some cycle weight exceeds the multiplicative unit")
    return IterativeClosure(S, limit, True)


def closure(A: Matrix, options: "ClosureOptions | None" = None) -> Matrix:
    """Dispatch on ``options.algorithm`` (block by default).  An iterative
    run on a non-idempotent carrier returns the cut series, unflagged."""
    opts = options or ClosureOptions()
    if opts.algorithm == "block":
        return closure_block(A, opts)
    if opts.algorithm == "gauss_jordan":
        return closure_gauss_jordan(A)
    return closure_iterative(A, opts).matrix


def solve_bellman(A: Matrix, B: Matrix,
                  options: "ClosureOptions | None" = None) -> Matrix:
    """Least solution X = A*B of X = AX + B.  With ``iterative`` on a
    non-idempotent carrier, A* is the cut series and nothing says so."""
    _require_square(A)
    A._check_same(B, "chain")
    return closure(A, options).mul(B)
