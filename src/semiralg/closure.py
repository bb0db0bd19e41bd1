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

Both use the worker process of ``offload`` when the work is large
enough to pay for the trip (``offload.side_by_side``, whose rule says
when the whole job runs here instead).  The block
recursion has two independent products at each level, P = S11 A12
with Q = A21 S11 and TR = P SD with BL = SD Q: Q and BL go to the
worker while this process computes P and TR.  Its two other products,
A21 P for D and TR Q for TL, are split by rows, the bottom half going
to the worker.  Each comes back before the recursion goes on, so the
products of the next level may use the worker too.  The elimination
hands the bottom half of the rows to the worker, and the two stripes
take the steps at the same time (``_stripe``): the step at pivot k
updates a row from itself and the pivot row k before the step alone,
so the stripe that holds row k sends it to the other before its own
step, and each then takes the step on its own rows (Kumar, Grama,
Gupta and Karypis, *Introduction to Parallel Computing*, 2nd ed.,
ch. 10, Floyd's algorithm, pipelined 1-D mapping).  The serial
elimination is the one stripe that holds every row.  The partial sums
split by rows too, as row i of A^(k+1) is row i of A^k times A: the
worker takes the bottom half of the rows of the series (``_series``),
and at each step the two stripes tell each other whether their sums
changed, so that both stop where the serial loop stops; the serial
series is the one stripe that holds every row.  A shipped product or
stripe is the same kernel on the same rows, so the result is the same
bit for bit.

Over an interval lift the block recursion and the elimination are
lifted calls (``intervals.lifted``).  The series runs on the intervals,
its products lifted calls of ``Matrix.mul``.
"""

from dataclasses import dataclass

from .errors import DimensionMismatch, InvalidOptions, NoStabilization
from .intervals import is_lift, lifted
from .matrices import Matrix, identity
from . import offload
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
    P, Q = _products(d, product, S11, A12, A21, S11)
    D = list(map(add_rows, A22, _split_product(d, product, A21, P)))
    SD = _close_rec(d, kernels, D, offset + k, opts)
    TR, BL = _products(d, product, P, SD, SD, Q)
    TL = list(map(add_rows, S11, _split_product(d, product, TR, Q)))
    return kernels.join(TL, TR) + kernels.join(BL, SD)


def _split_product(d, product, X, Y):
    """``product(X, Y)``, its top rows here and its bottom rows on the
    worker process when that pays (see ``_products``)."""
    m = len(X) // 2
    if ((len(X) - m) * len(Y) * (len(Y[0]) if type(Y[0]) is list else 1)
            < offload.SHIP_MIN_WORK):
        return product(X, Y)
    top, bottom = _products(d, product, X[:m], Y, X[m:], Y)
    return top + bottom


def _products(d, product, X1, Y1, X2, Y2):
    """``product(X1, Y1)`` here and ``X2 Y2`` meanwhile on the worker
    process when that pays; both here, one after the other, when
    ``side_by_side`` says so.  The work of a product is its rows times
    its inner dimension times the width of a kernel row, which is 1 for
    a boolean row packed into an int: such products are too cheap to
    ship.

    A product below ``offload.SHIP_MIN_WORK`` never ships, so a pair of
    them is multiplied here without asking: most pairs of a recursion
    are small, and ``side_by_side`` adds about 1.5 us to each, some 4 %
    of a boolean closure at n = 128 or a tropical one at n = 24."""
    work = len(X2) * len(Y2) * (len(Y2[0]) if type(Y2[0]) is list else 1)
    pair = work >= offload.SHIP_MIN_WORK and offload.side_by_side(
        lambda peer: product(X1, Y1), _product, (d, X2, Y2), work, d)
    return pair or (product(X1, Y1), product(X2, Y2))


def _product(peer, d, X, Y):
    # private: a public name may be rebound by a wrapper that does not pickle
    return row_kernels(d).product(X, Y)


def closure_block(A: Matrix, options: "ClosureOptions | None" = None) -> Matrix:
    """Closure by recursive 2x2 block partitioning."""
    _require_square(A)
    opts = options or ClosureOptions()
    n = A.rows
    if opts.split is not None and n > 1 and opts.split > n - 1:
        raise InvalidOptions(f"split {opts.split} out of range 1..{n - 1}")
    d = A.descriptor
    if is_lift(d):
        return lifted(closure_block, A, opts)
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
    """Closure by pivot elimination over the whole matrix.

    The top half of the rows stays here and the bottom half goes to the
    worker process, the two stripes stepping at the same time
    (``_stripe``), when the work of the bottom one, its rows times n
    times the width of a kernel row, reaches ``offload.SHIP_MIN_WORK``;
    a packed boolean row counts 1, so boolean ships from n = 181 only.
    When ``side_by_side`` says so, one stripe here holds every row.
    """
    _require_square(A)
    d = A.descriptor
    if is_lift(d):
        return lifted(closure_gauss_jordan, A)
    kernels = row_kernels(d)
    C = list(map(kernels.encode, A._data))
    n = A.rows
    h = n // 2
    stripes = n > 1 and offload.side_by_side(
        lambda peer: _stripe(peer, d, C[:h], 0, n), _stripe, (d, C[h:], h, n),
        (n - h) * n * (n if type(C[0]) is list else 1), d)
    if not stripes:
        return _finish(d, kernels, _stripe(None, d, C, 0, n))
    top, bottom = stripes
    return _finish(d, kernels, top + bottom)


def _stripe(peer, d, C, lo, n):
    """The encoded rows C, rows lo.. of an n x n matrix, after the
    Gauss-Jordan steps at pivots 0..n-1, taken at the same time as the
    process that holds the other rows, at the other end of the pipe
    ``peer``; or, with ``peer`` None, taken here on every row, C holding
    them all.  Private: a public name may be rebound by a wrapper that
    does not pickle.

    The stripe that holds pivot row k sends it before its step, and the
    other takes it, so each step reads the row as it was before the
    step.
    """
    kernels = row_kernels(d)
    entry, eliminate, encode_one = (kernels.entry, kernels.eliminate,
                                    kernels.encode_one)
    hi = lo + len(C)
    for k in range(n):
        if lo <= k < hi:
            krow = C[k - lo]
            if peer is not None:
                peer.send(krow)
        else:
            krow = peer.recv()
        s = encode_one(kernel_star(d, kernels, entry(krow, k), k + 1))
        C = eliminate(C, k, s, krow)
    return C


def closure_iterative(A: Matrix,
                      options: "ClosureOptions | None" = None) -> IterativeClosure:
    """Accumulate E + A + A^2 + ... until a fixpoint or the iteration cap.

    Idempotent carriers must stabilize within n steps when every cycle
    weight is below the multiplicative unit; failing that raises
    NoStabilization.  Other carriers run exactly ``max_iterations``
    steps and flag the result as truncated, stopping early only if the
    partial sums reach an exact fixpoint.

    Rows n//2.. of the series go to the worker process, the two
    stripes stepping at the same time (``_series``), when the work of
    the bottom one, its rows times n times the width of a kernel row
    times the iteration cap, reaches ``offload.SHIP_MIN_WORK``.  When
    ``side_by_side`` says so, one stripe here holds every row.
    """
    _require_square(A)
    opts = options or ClosureOptions()
    d = A.descriptor
    n = A.rows
    limit = n if d.flags.idempotent else opts.max_iterations
    S = identity(d, n)._data
    h = n // 2
    width = n if row_kernels(d).fold is not None else 1     # packed: 1
    stripes = n > 1 and offload.side_by_side(
        lambda peer: _series(peer, d, S[:h], A._data[:h], A, limit), _series,
        (d, S[h:], A._data[h:], A, limit), (n - h) * n * width * limit, d)
    if stripes:
        (top, k), (bottom, _) = stripes
        S = top + bottom
    else:
        S, k = _series(None, d, S, A._data, A, limit)
    if k is not None:
        return IterativeClosure(Matrix._wrap(d, S), k, False)
    if d.flags.idempotent:
        raise NoStabilization(
            f"partial sums still changing after {limit} steps; "
            "some cycle weight exceeds the multiplicative unit")
    return IterativeClosure(Matrix._wrap(d, S), limit, True)


def _series(peer, d, S, P, A, limit):
    """(rows, k): the rows S of the partial sum E + A + ... + A^k, which
    start as rows of E, and k, the step at which the sums stopped
    changing, or None when they still changed at step ``limit``.  P
    holds the same rows of A; the stripe runs at the same time as the
    process that holds the other rows, at the other end of the pipe
    ``peer``, or, with ``peer`` None, here on every row.  Private: a
    public name may be rebound by a wrapper that does not pickle.

    Row i of the next power is row i of this one times A, so a stripe
    needs no rows of the other.  At each step a stripe sends whether its
    sums changed before its product for the next step, and takes the
    other's after it, so the wait hides behind the product; both stop at
    the first step at which neither changed and drop that product, which
    the serial loop never computes.
    """
    S, P = Matrix._wrap(d, S), Matrix._wrap(d, P)
    for k in range(1, limit + 1):
        S_next = S.add(P)
        said = S_next != S
        if peer is not None:
            peer.send(said)
        if k < limit and (said or peer is not None):
            P = P.mul(A)
        heard = peer is not None and peer.recv()
        if not said and not heard:
            return S_next._data, k
        S = S_next
    return S._data, None


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
