"""Matrix closure A* = E + A + A^2 + ... three ways.

``closure_block`` recurses on a 2x2 block partition (the escalator
scheme), ``closure_gauss_jordan`` eliminates pivot by pivot in the
Floyd-Warshall shape, and ``closure_iterative`` accumulates partial
sums of powers.  All three agree exactly on idempotent carriers.

The block recursion can fork its independent block products onto
worker threads.  Parallel runs compute the very same expression tree
as serial runs (only the schedule changes), so results are identical
bit for bit.
"""

import threading
from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidOptions, NoStabilization, StarUndefined
from .intervals import endpoint_runs, is_lift, join_endpoints
from .matrices import Matrix, identity

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


def _mul_ll(d, X, Y):
    mul, fma = d.mul, d.fma
    cols = list(zip(*Y))
    m = len(X[0])
    out = []
    for xr in X:
        x0 = xr[0]
        row = []
        for yc in cols:
            acc = mul(x0, yc[0])
            for k in range(1, m):
                acc = fma(acc, xr[k], yc[k])
            row.append(acc)
        out.append(row)
    return out


def _add_ll(d, X, Y):
    add = d.add
    return [[add(a, b) for a, b in zip(xr, yr)] for xr, yr in zip(X, Y)]


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


def _close_rec(d, M, offset, opts, limiter):
    n = len(M)
    if n == 1:
        try:
            return [[d.star(M[0][0])]]
        except StarUndefined as exc:
            if exc.location is None:
                exc.location = offset + 1   # 1-based pivot position
            raise
    if opts.split is None:
        k = (n + 1) // 2
    else:
        k = min(opts.split, n - 1)
    A11 = [row[:k] for row in M[:k]]
    A12 = [row[k:] for row in M[:k]]
    A21 = [row[:k] for row in M[k:]]
    A22 = [row[k:] for row in M[k:]]

    S11 = _close_rec(d, A11, offset, opts, limiter)
    fork = n >= opts.parallel_grain
    # the two products on either side of the closed leading block are
    # independent of each other, as are the two off-diagonal results
    P, Q = _both(lambda: _mul_ll(d, S11, A12),
                 lambda: _mul_ll(d, A21, S11), limiter, fork)
    D = _add_ll(d, A22, _mul_ll(d, A21, P))
    SD = _close_rec(d, D, offset + k, opts, limiter)
    TR, BL = _both(lambda: _mul_ll(d, P, SD),
                   lambda: _mul_ll(d, SD, Q), limiter, fork)
    TL = _add_ll(d, S11, _mul_ll(d, TR, Q))

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
    if is_lift(A.descriptor):
        return join_endpoints(A.descriptor, *endpoint_runs(
            lambda M, _: closure_block(M, opts), A))
    limiter = _Limiter(opts.threads - 1) if opts.parallel else None
    data = _close_rec(A.descriptor, A._data, 0, opts, limiter)
    return Matrix._wrap(A.descriptor, data)


def closure_gauss_jordan(A: Matrix) -> Matrix:
    """Closure by pivot elimination over the whole matrix in place."""
    _require_square(A)
    d = A.descriptor
    if is_lift(d):
        return join_endpoints(d, *endpoint_runs(
            lambda M, _: closure_gauss_jordan(M), A))
    star, mul, fma, add = d.star, d.mul, d.fma, d.add
    n = A.rows
    C = [row[:] for row in A._data]
    for k in range(n):
        try:
            s = star(C[k][k])
        except StarUndefined as exc:
            if exc.location is None:
                exc.location = k + 1   # 1-based pivot position
            raise
        # pivot row and column are read at their pre-update values
        rowk = C[k][:]
        colk = [C[i][k] for i in range(n)]
        for i in range(n):
            a = mul(colk[i], s)
            rowi = C[i]
            for j in range(n):
                rowi[j] = fma(rowi[j], a, rowk[j])
    one = d.one
    for i in range(n):
        C[i][i] = add(C[i][i], one)
    return Matrix._wrap(d, C)


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
