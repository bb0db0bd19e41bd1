"""Matrix closure A* = E + A + A^2 + ... three ways, and least solutions.

``closure_block`` recurses on a 2x2 block partition (the escalator
scheme), ``closure_gauss_jordan`` eliminates pivot by pivot in the
Floyd-Warshall shape, and ``closure_iterative`` sums the powers of A
by doubling.  All three agree exactly on idempotent carriers.

``solve_bellman`` finds the least solution A*B of X = AX + B without
forming A*.  The equation is linear over the semiring, so one Gaussian
elimination solves it on every carrier (Carre, "An algebra for network
routing problems", 1971; Backhouse and Carre, 1975): the Gauss-Jordan
step at each pivot k, on the rows of [A | B] below k only and on their
columns k.. only, then a back substitution on the B columns, (n^3 -
n)/3 + m (n - 1)^2 accumulates against about n^3 + n^2 m for A* and
then A*B.  Its pivots are those of the Gauss-Jordan closure, so a star
fails at the same pivot.  The forward pass runs in two row stripes,
the odd rows on the worker process: as in the Gauss-Jordan stripes,
the stripe that holds row k sends it to the other before that one
needs it (``_forward``), and a cyclic hold keeps the two balanced while
each step works on fewer rows.  The serial forward pass is the one
stripe that holds every row.

The block recursion and the eliminations run on the descriptor's row
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

The closures use the worker process of ``offload`` when the work is
large enough to pay for the trip (``offload.split_job``, whose rule
says when the whole job runs here instead).  The block recursion has
two independent products at each level, P = S11 A12 with Q = A21 S11
and TR = P SD with BL = SD Q: Q and BL go to the worker while this
process computes P and TR.  Its two other products, A21 P for D and
TR Q for TL, are split by rows, the bottom half going to the worker.
Each comes back before the recursion goes on, so the products of the
next level may use the worker too.  The elimination hands the bottom
half of the rows to the worker, and the two stripes take the steps at
the same time (``_stripe``): the step at pivot k updates a row from
itself and the pivot row k before the step alone, so the stripe that
holds row k sends it to the other before its own step, and each then
takes the step on its own rows (Kumar, Grama, Gupta and Karypis,
*Introduction to Parallel Computing*, 2nd ed., ch. 10, Floyd's
algorithm, pipelined 1-D mapping).  The serial elimination is
the one stripe that holds every row.  The products of the recursion
run through the helpers of ``Matrix.mul`` (``matrices._products``,
``matrices._split_product``), and the series is written on
``Matrix.mul`` and ``Matrix.add`` alone, so its products ship their
bottom rows as every product does.  A shipped product or stripe is the
same kernel on the same rows, so the result is the same bit for bit.

On catalog maxmin the block and Gauss-Jordan closures and the least
solution run none of this: they run one sweep over the arcs of the
graph of [A | B], widest first (``RowKernels.sweep``, the kernel's
``semirings._sweep``), here, with nothing shipped; there the algorithm
name selects nothing.  The values are those of the eliminations; only a
signed zero that ties may differ, by the sweep's tie rule.  A copy of
the instance (``dataclasses.replace``) keeps the eliminations, so it
checks the sweep.

Over an interval lift the block recursion and the eliminations are
lifted calls (``intervals.lifted``), so a lift of maxmin sweeps in its
endpoint runs.  The series runs on the intervals, its products lifted
calls of ``Matrix.mul``.
"""

from dataclasses import dataclass
from operator import add as _concat

from .errors import DimensionMismatch, InvalidOptions, NoStabilization
from .intervals import is_lift, lifted
from .matrices import Matrix, _is_int, _products, _split_product, identity
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
        for name in ("split", "max_iterations"):
            value = getattr(self, name)
            if value is None and name == "split":
                continue
            if not _is_int(value):
                raise InvalidOptions(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise InvalidOptions(f"{name} must be at least 1")


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
    add_rows = kernels.add_rows

    S11 = _close_rec(d, kernels, A11, offset, opts)
    P, Q = _products(d, S11, A12, A21, S11)
    D = list(map(add_rows, A22, _split_product(d, A21, P)))
    SD = _close_rec(d, kernels, D, offset + k, opts)
    TR, BL = _products(d, P, SD, SD, Q)
    TL = list(map(add_rows, S11, _split_product(d, TR, Q)))
    return kernels.join(TL, TR) + kernels.join(BL, SD)


def closure_block(A: Matrix, options: "ClosureOptions | None" = None) -> Matrix:
    """Closure by recursive 2x2 block partitioning.

    On catalog maxmin this is the sweep over the arcs, as for
    ``closure_gauss_jordan``: the algorithm name selects nothing, and
    ``split`` is only checked.
    """
    _require_square(A)
    opts = options or ClosureOptions()
    n = A.rows
    if opts.split is not None and n > 1 and opts.split > n - 1:
        raise InvalidOptions(f"split {opts.split} out of range 1..{n - 1}")
    d = A.descriptor
    if is_lift(d):
        return lifted(closure_block, A, opts)
    kernels = row_kernels(d)
    data = list(map(kernels.encode, A._data))
    if kernels.sweep is not None:
        data = kernels.sweep(data, n)
    else:
        data = _close_rec(d, kernels, data, 0, opts)
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
    (``_stripe``, ``offload.split_job``), when the work of the bottom one,
    its rows times n times the width of a kernel row, reaches
    ``offload.SHIP_MIN_WORK``; a packed boolean row counts 1, so boolean
    ships from n = 181 only.

    On catalog maxmin it eliminates nothing: the closure is one sweep
    over the arcs, widest first, here (``semirings._sweep``), as for
    ``closure_block``, so the algorithm name selects nothing there.
    """
    _require_square(A)
    d = A.descriptor
    if is_lift(d):
        return lifted(closure_gauss_jordan, A)
    kernels = row_kernels(d)
    C = list(map(kernels.encode, A._data))
    n = A.rows
    if kernels.sweep is not None:
        return Matrix._wrap(d, list(map(kernels.decode, kernels.sweep(C, n))))
    h = n // 2
    return _finish(d, kernels, offload.split_job(
        _stripe, d, C, h, (n - h) * n * (n if type(C[0]) is list else 1), n))


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
    """Sum E + A + A^2 + ... by doubling, until a fixpoint or the cap.

    S holds the first t terms, E through A^(t-1), and P is A^t.  A step
    doubles the terms, S + P S with P P, or adds one, E + A S with A P.
    The first step doubles from S = E, so its P S is A itself and takes
    no product; on maxplus and minplus that keeps the signed zeros of A,
    which a product by E would turn to 0.0.  Every term is a power of
    A, so this needs only distributivity (repeated squaring: Aho,
    Hopcroft and Ullman, *The Design and Analysis of Computer
    Algorithms*, 1974, ch. 5; Lehmann, "Algebraic structures for
    transitive closure", *TCS* 4, 1977).  The products and sums are
    matrix operations, which decode what they make, so a value past the
    float range raises at the step that makes it.  A step that leaves S
    unchanged ends the series, and ``iterations`` is the highest power
    of A in S.  Where terms can cancel (a carrier not ``positive``, such
    as real_field), an unchanged doubling only says A^t S = 0, so there
    only a step of one term, E + A S = S, ends the series.

    A carrier that is not idempotent runs to exactly ``max_iterations``
    + 1 terms, a doubling for each binary digit of that count after the
    first and one term more for each digit 1, about 2 log2 N + 2
    popcount(N) - 1 products for N terms, and flags the result as
    truncated unless a step left S unchanged.  Idempotent carriers
    ignore the cap and only double.  When every cycle weight is below
    the multiplicative unit, E through A^(n-1) is the closure, so a step
    that still changes a sum holding those powers raises
    NoStabilization.
    """
    _require_square(A)
    opts = options or ClosureOptions()
    d = A.descriptor
    n = A.rows
    E = identity(d, n)
    terms = None if d.flags.idempotent else opts.max_iterations + 1
    S, P, t = E, A, 1
    while terms is None or t < terms:
        # one term more where the binary digits of the count say so: t
        # runs through the leading digits of ``terms``
        grow = (terms is not None
                and terms >> (terms.bit_length() - t.bit_length()) > t)
        X, B, t_next = (A, E, t + 1) if grow else (P, S, 2 * t)
        Q = X if t == 1 else X.mul(S)
        if terms is None or t_next < terms:     # the last needs no next power
            P = X.mul(P)
        S_next = B.add(Q)
        if S_next == S and (grow or d.flags.positive):
            return IterativeClosure(S_next, t_next - 1, False)
        if terms is None and t >= n:
            raise NoStabilization(
                f"partial sums through A^{t_next - 1} still changing; "
                "some cycle weight exceeds the multiplicative unit")
        S, t = S_next, t_next
    return IterativeClosure(S, t - 1, True)


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
    """Least solution X = A*B of X = AX + B.

    ``block`` and ``gauss_jordan`` both name one elimination on the rows
    of [A | B] (``_solve``), which never forms A*; ``split`` has no
    effect on it.  On catalog maxmin both name the sweep over the arcs
    of [A | B] instead, each column of B a sink.  ``iterative``
    multiplies the cut series by B; on a non-idempotent carrier nothing
    says that it was cut.
    """
    _require_square(A)
    A._check_same(B, "chain")
    opts = options or ClosureOptions()
    if opts.algorithm == "iterative":
        return closure_iterative(A, opts).matrix.mul(B)
    return _solve(A, B)


def _solve(A, B):
    """A*B by elimination on the encoded rows of [A | B].

    The forward pass takes the Gauss-Jordan step at each pivot k on the
    rows below k only (``_forward``), so the pivots, and the failure of
    a star, are those of ``closure_gauss_jordan``.  Row k then reads
    x_k = s_k (b_k + the sum over j > k of a_kj x_j), s_k the star of
    its pivot, and the back substitution solves these on the B columns
    from the last row up: one product with the rows of X found so far,
    one sum and one 1 x 1 product for the scaling by s_k.

    The rows go to two stripes held cyclically, the odd rows on the
    worker process, when the work of that stripe, the steps on its rows
    times the width of a kernel row, reaches ``offload.SHIP_MIN_WORK``
    (from n = 38 with 8 columns in B).  A packed boolean row counts 0,
    so boolean stays here: a step on it costs less than the message that
    carries the pivot row, and two stripes took 9.5 and 27.3 ms at n =
    256 and 512, against 7.4 and 26.5 ms here (two Xeon CPUs).  When
    ``offload.split_job`` says so, one stripe here holds every row.  Private:
    a lifted call ships it by name, and a public name may be rebound by
    a wrapper that does not pickle.  On catalog maxmin the sweep over
    the arcs takes the place of all of this, the columns of B as sinks:
    a sweep and then a product by B took longer.
    """
    d = A.descriptor
    if is_lift(d):
        return lifted(_solve, A, B)
    kernels = row_kernels(d)
    n = A.rows
    C = list(map(kernels.encode, map(_concat, A._data, B._data)))
    if kernels.sweep is not None:
        X = kernels.split(kernels.sweep(C, n), n)[1]
        return Matrix._wrap(d, list(map(kernels.decode, X)))
    width = n + B.cols if type(C[0]) is list else 0     # packed: 0
    C[0::2], C[1::2] = offload.split_job(
        _forward, d, [C[0::2], C[1::2]], 1, (n // 2) ** 2 * width, n)
    split, product, add_rows, entry, encode = (
        kernels.split, kernels.product, kernels.add_rows, kernels.entry,
        kernels.encode)
    X = [None] * n
    for k in reversed(range(n)):
        # row k holds columns k.. of [A | B]: the pivot, a_kj for j > k
        # and the B columns
        (coefficients,), (x,) = split(C[k:k + 1], n - k)
        if k + 1 < n:
            tail = split([coefficients], 1)[1]
            x = add_rows(x, product(tail, X[k + 1:])[0])
        s = kernel_star(d, kernels, entry(coefficients, 0), k + 1)
        X[k] = product([encode([s])], [x])[0]
    return Matrix._wrap(d, list(map(kernels.decode, X)))


def _forward(peer, d, stripes, first, n):
    """The cyclic stripes of the encoded rows of [A | B], A n x n, after
    the forward steps at pivots 0..n-1, each on the rows below its
    pivot: with ``peer`` None, both stripes, the even rows and the odd,
    ``first`` 0; else the one stripe of rows first, first + 2, ...,
    taken at the same time as the process that holds the other, at the
    other end of the pipe ``peer``.  Row k comes back as its columns k..
    only, the pivot, the coefficients after it and the B columns: a step
    takes a row below its pivot k from column k on and drops column k,
    which nothing reads again.  Private: a public name may be rebound by
    a wrapper that does not pickle.

    The step at pivot k updates a row below k from itself and row k, and
    leaves row k as it is, so row k is final once the step at k - 1 is
    taken.  The stripe that holds it then takes that step on it first
    and sends it, before its other rows; so the stripe that takes the
    step at k finds row k waiting when it needs it.  Rows held
    cyclically keep the stripes balanced, as each step works on fewer
    rows than the one before (Kumar, Grama, Gupta and Karypis,
    *Introduction to Parallel Computing*, 2nd ed., ch. 8, cyclic 1-D
    mapping).  Without a peer, the two stripes interleave into one that
    holds every row.
    """
    kernels = row_kernels(d)
    entry, eliminate, split, encode_one = (kernels.entry, kernels.eliminate,
                                           kernels.split, kernels.encode_one)
    if peer is None:
        C = [None] * n
        C[0::2], C[1::2] = stripes
        step = 1
    else:
        C = stripes[0][:]
        step = 2
        if first == 0:
            peer.send(C[0])
    for k in range(n):
        i, theirs = divmod(k - first, step)     # C[i + 1:] lie below row k
        krow = peer.recv() if theirs else C[i]
        s = encode_one(kernel_star(d, kernels, entry(krow, 0), k + 1))
        if theirs and i + 1 < len(C):           # row k + 1, ours
            C[i + 1:i + 2] = split(eliminate(C[i + 1:i + 2], 0, s, krow), 1)[1]
            peer.send(C[i + 1])
            i += 1
        C[i + 1:] = split(eliminate(C[i + 1:], 0, s, krow), 1)[1]
    return [C[0::2], C[1::2]] if peer is None else [C]
