"""Matrix closure A* = E + A + A^2 + ... three ways.

``closure_block`` recurses on a 2x2 block partition (the escalator
scheme), ``closure_gauss_jordan`` eliminates pivot by pivot in the
Floyd-Warshall shape, and ``closure_iterative`` accumulates partial
sums of powers.  All three agree exactly on idempotent carriers.

The block recursion and the elimination run on the descriptor's row
kernels (``semirings.row_kernels``): they encode the matrix once at
entry, decode it once at exit, and hand each pivot to ``star`` as a
carrier value, so a failing pivot reads as it does in the matrix.
The block recursion multiplies with ``matrices.product``, the kernel
of ``Matrix.mul``.

The block recursion can fork its independent block products onto
worker threads.  Parallel runs compute the very same expression tree
as serial runs (only the schedule changes), so results are identical
bit for bit.
"""

import threading
from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidOptions, NoStabilization
from .intervals import endpoint_runs, is_lift, join_endpoints
from .matrices import Matrix, identity, product
from .semirings import kernel_star, row_kernels

__all__ = ["ClosureOptions", "IterativeClosure", "closure", "closure_block",
           "closure_gauss_jordan", "closure_iterative", "solve_bellman"]

_ALGORITHMS = ("block", "gauss_jordan", "iterative")


@dataclass(frozen=True)
class ClosureOptions:
    algorithm: str = "block"
    split: "int | None" = None     # block size of the leading diagonal block
    max_iterations: int = 60       # truncation point for non-idempotent series
    parallel: bool = False
    parallel_grain: int = 16       # blocks smaller than this never fork
    threads: int = 4

    def __post_init__(self):
        if self.algorithm not in _ALGORITHMS:
            raise InvalidOptions(f"algorithm must be one of {_ALGORITHMS}")
        if self.split is not None and self.split < 1:
            raise InvalidOptions("split must be at least 1")
        if self.max_iterations < 1:
            raise InvalidOptions("max_iterations must be at least 1")
        if self.parallel_grain < 1:
            raise InvalidOptions("parallel_grain must be at least 1")
        if self.threads < 1:
            raise InvalidOptions("threads must be at least 1")


@dataclass(frozen=True)
class IterativeClosure:
    """Partial-sum closure result; ``truncated`` marks a cut-off series."""
    matrix: Matrix
    iterations: int
    truncated: bool


def _require_square(A):
    if A.rows != A.cols:
        raise DimensionMismatch(f"closure needs a square matrix, got {A.rows}x{A.cols}")


class _Limiter:
    """Hands out fork permits; refuses once all worker slots are taken."""

    __slots__ = ("_sem",)

    def __init__(self, workers):
        self._sem = threading.BoundedSemaphore(workers) if workers > 0 else None

    def try_acquire(self):
        return self._sem is not None and self._sem.acquire(blocking=False)

    def release(self):
        self._sem.release()


def _both(f, g, limiter, want_fork):
    """Evaluate two independent thunks, forking f when a slot is free."""
    if want_fork and limiter is not None and limiter.try_acquire():
        result, trouble = [], []

        def run():
            try:
                result.append(f())
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                trouble.append(exc)

        worker = threading.Thread(target=run)
        worker.start()
        try:
            gv = g()
        finally:
            worker.join()
            limiter.release()
        if trouble:
            raise trouble[0]
        return result[0], gv
    return f(), g()


def _close_rec(d, kernels, M, offset, opts, limiter):
    n = len(M)
    if n == 1:
        return [[kernel_star(d, kernels, M[0][0], offset + 1)]]
    if opts.split is None:
        k = (n + 1) // 2
    else:
        k = min(opts.split, n - 1)
    A11 = [row[:k] for row in M[:k]]
    A12 = [row[k:] for row in M[:k]]
    A21 = [row[:k] for row in M[k:]]
    A22 = [row[k:] for row in M[k:]]
    add_rows = kernels.add_rows

    S11 = _close_rec(d, kernels, A11, offset, opts, limiter)
    fork = n >= opts.parallel_grain
    # the two products on either side of the closed leading block are
    # independent of each other, as are the two off-diagonal results
    P, Q = _both(lambda: product(kernels, S11, A12),
                 lambda: product(kernels, A21, S11), limiter, fork)
    D = list(map(add_rows, A22, product(kernels, A21, P)))
    SD = _close_rec(d, kernels, D, offset + k, opts, limiter)
    TR, BL = _both(lambda: product(kernels, P, SD),
                   lambda: product(kernels, SD, Q), limiter, fork)
    TL = list(map(add_rows, S11, product(kernels, TR, Q)))

    out = [tl + tr for tl, tr in zip(TL, TR)]
    out += [bl + br for bl, br in zip(BL, SD)]
    return out


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
    limiter = _Limiter(opts.threads - 1) if opts.parallel else None
    kernels = row_kernels(d)
    data = _close_rec(d, kernels, list(map(kernels.encode, A._data)), 0, opts,
                      limiter)
    return Matrix._wrap(d, list(map(kernels.decode, data)))


def _eliminate(d, kernels, C, k):
    """The kernel rows C after the elimination step of pivot k."""
    s = kernel_star(d, kernels, C[k][k], k + 1)
    # pivot row and column are read at their pre-update values: the
    # step builds a new list of rows and axpy never mutates a row
    mul, axpy, rowk = kernels.mul, kernels.axpy, C[k]
    return [axpy(row, mul(row[k], s), rowk) for row in C]


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
    C = list(map(kernels.encode, A._data))
    for k in range(A.rows):
        C = _eliminate(d, kernels, C, k)
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
    """Dispatch on ``options.algorithm`` (block by default)."""
    opts = options or ClosureOptions()
    if opts.algorithm == "block":
        return closure_block(A, opts)
    if opts.algorithm == "gauss_jordan":
        return closure_gauss_jordan(A)
    return closure_iterative(A, opts).matrix


def solve_bellman(A: Matrix, B: Matrix,
                  options: "ClosureOptions | None" = None) -> Matrix:
    """Least solution X = A*B of the fixpoint equation X = AX + B."""
    _require_square(A)
    A._check_same(B, "chain")
    return closure(A, options).mul(B)
