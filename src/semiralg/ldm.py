"""Triangular factorization of Bellman systems.

``ldm_factorize`` rewrites a square matrix A into a strictly lower
factor L, a diagonal D and a strictly upper factor M such that the
closure decomposes as A* = M* D* L*.  Solving X = AX + B then costs
three cheap passes (``solve_ldm``): a forward substitution through L,
a diagonal closure through D, and a back substitution through M, all
carried in one buffer.

Every loop runs on the descriptor's row kernels on list rows
(``semirings.list_kernels``; boolean, whose own kernels pack a row into
an int, gets the fold of its ``fma``) as row folds: each entry of a
substitution or of a factor column is one ``fold`` over a row slice, in
the order over k of the scalar definition.  Inputs are encoded at entry and
results decoded at exit; each pivot goes to ``star`` as a carrier
value, so a failure names the same location and reads the same.

The factorization runs its column loop in two row stripes when that
pays, the bottom rows on the worker process of ``offload`` (see
``_ldm_rows``; ``offload.side_by_side`` says when the whole loop runs
here instead): the forward pass of a column at row i reads only rows up
to i, so the top stripe sends the bottom one each column pushed through
its own rows and never waits for it, a one-way pipeline (Kumar, Grama,
Gupta and Karypis, *Introduction to Parallel Computing*, 2nd ed.,
ch. 8, pipelined 1-D row mappings).  Each entry is the same fold on the
same values wherever it runs, so the factors are the same bit for bit.
``symmetric_factorize`` and the substitutions stay in this process: the
column loop of the former is a forward pass alone, in which a bottom
stripe would wait for the top one at every column, and a substitution
is a single pass of n^2 / 2 terms, less work than shipping its factors
to the worker.

Factor once, solve many: the stages run on factors prepared in kernel
form (``_Solver``): the strict rows of L, the strict rows of M
reversed, so that the back substitution is the forward one over the
reversed vector, and D with its stars once computed.  The first
uncounted ``solve_ldm`` on a triple checks the factors, prepares them
and keeps them on the triple; later solves (and every column of
``solve_via_ldm``) check only the vector and cost the three passes
alone.  A solve that fails keeps nothing, so it fails again the same
way.  Every other call (a single substitution stage, a counted solve)
prepares its factors for that one call, on the same stage code.  Over
an interval lift the stages run the lifted fold on the intervals
themselves, one code path for every lifted solve: on dense maxplus
intervals at n = 48 a repeat solve took 20 ms where two endpoint runs
took 1.8 ms, and ``solve_via_ldm`` with 8 columns 170 against 22 ms
(two Xeon CPUs).  No benchmark workload solves over a lift.

Every function here takes an optional :class:`OpCounter`.  Counting
runs on :func:`counted`, a copy of the descriptor whose ``add``,
``mul`` and ``star`` tally into the counter; the copy gets the fold
kernels, so each folded term is one add and one mul.  A counted call
over an interval lift runs on its counted copy too, the lifted fold,
in this process, not as a lifted call (``intervals.lifted``); so it
counts one operation per interval operation, and fails as an uncounted
call does.  The counts are exact functions of n:

    forward/back substitution   (n^2 - n)/2 adds, same muls
    diagonal closure            n stars, n muls
    combined solve              n^2 - n adds, n^2 muls, n stars
    factorization               (2n^3 - 3n^2 + n)/6 adds,
                                (2n^3 + 3n^2 - 5n)/6 muls,
                                n(n + 1)/2 stars
"""

from dataclasses import dataclass, replace

from .errors import (DescriptorMismatch, DimensionMismatch, NotCommutative,
                     NotSymmetric, ShapeViolation)
from .intervals import is_lift, lifted
from .matrices import Matrix
from . import offload
from .semirings import fma_of, kernel_star, list_kernels, same_descriptor

__all__ = ["OpCounter", "LdmTriple", "forward_substitution",
           "back_substitution", "diagonal_solve", "solve_ldm", "counted",
           "solve_via_ldm", "ldm_factorize", "symmetric_factorize"]


@dataclass
class OpCounter:
    """Tally of semiring operations applied to carrier elements."""
    adds: int = 0
    muls: int = 0
    stars: int = 0

    def reset(self):
        self.adds = self.muls = self.stars = 0

    def as_dict(self):
        return {"adds": self.adds, "muls": self.muls, "stars": self.stars}


@dataclass(frozen=True)
class LdmTriple:
    """Strictly lower L, diagonal D (as a vector), strictly upper M."""
    L: Matrix
    D: tuple
    M: Matrix
    # the factors prepared by the first uncounted solve that got through
    # (see solve_ldm); not a field, so == and repr do not see it
    _solver = None

    def __getstate__(self):
        # a solver holds kernels, which do not pickle; the copy builds its own
        return {k: v for k, v in self.__dict__.items() if k != "_solver"}

    @property
    def descriptor(self):
        return self.L.descriptor

    @property
    def n(self):
        return self.L.rows


def counted(d, counter: "OpCounter | None"):
    """``d`` itself without a counter; with one, a copy of ``d`` whose
    ``add``, ``mul`` and ``star`` tally into it and whose ``fma`` is
    ``add(acc, mul(x, y))`` (``semirings.fma_of``).

    Being a copy, it gets the fold row kernels, so every folded term
    counts one add and one mul; ``fma`` equals ``add(acc, mul(x, y))``
    bit for bit, so its results are those of ``d``.
    """
    if counter is None:
        return d
    base_add, base_mul, base_star = d.add, d.mul, d.star

    def add(x, y):
        counter.adds += 1
        return base_add(x, y)

    def mul(x, y):
        counter.muls += 1
        return base_mul(x, y)

    def star(x):
        counter.stars += 1
        return base_star(x)

    return replace(d, add=add, mul=mul, star=star, fma=fma_of(add, mul))


def _coerce_vector(d, b, n):
    vec = [d.coerce(v) for v in b]
    if len(vec) != n:
        raise ShapeViolation(f"vector length {len(vec)} does not match n = {n}")
    return vec


def _require_strict_triangle(A, lower: bool, what: str):
    if A.rows != A.cols:
        raise ShapeViolation(f"{what} factor must be square")
    d = A.descriptor
    n = A.rows
    for i, row in enumerate(A._data):
        lo, hi = (i, n) if lower else (0, i + 1)
        # list.count tests `is`, then ==, as is_zero does
        if row[lo:hi].count(d.zero) != hi - lo:
            j = next(j for j in range(lo, hi) if not d.is_zero(row[j]))
            raise ShapeViolation(
                f"{what} factor has a nonzero entry at ({i}, {j})")


class _Solver:
    """Factors in kernel form, ready for the substitution stages.

    Built over one descriptor (``counted(d, counter)`` for a counted
    run) from any of L, the diagonal D and M; a stage whose factor is
    None is skipped.  ``lower`` holds row i of L up to the diagonal,
    ``upper`` row i of M from its end back to the diagonal, the last
    row first, so the back substitution is the forward one over the
    reversed vector.  ``stars`` holds the stars of D once the diagonal
    stage has run without error.
    """
    __slots__ = ("d", "kernels", "lower", "diag", "upper", "stars")

    def __init__(self, d, L, D, M):
        kernels = list_kernels(d)
        encode = kernels.encode
        self.d, self.kernels, self.stars = d, kernels, None
        self.lower = (None if L is None else
                      [encode(row[:i]) for i, row in enumerate(L._data)])
        self.diag = None if D is None else encode(D)
        self.upper = (None if M is None else
                      [encode(M._data[i][:i:-1])
                       for i in range(M.rows - 1, -1, -1)])

    def solve(self, b):
        """x = M* D* L* b for the coerced vector ``b``, the stages on one
        buffer: each keeps the values of the one before."""
        kernels = self.kernels
        x = kernels.encode(b)
        if self.lower is not None:
            _substitute_rows(kernels.fold, self.lower, x)
        if self.diag is not None:
            x = self._diagonal(x)
        if self.upper is not None:
            x.reverse()
            _substitute_rows(kernels.fold, self.upper, x)
            x.reverse()
        return kernels.decode(x)

    def _diagonal(self, x):
        kernels = self.kernels
        mul = kernels.mul
        if self.stars is not None:
            return list(map(mul, self.stars, x))
        stars = []
        for i, v in enumerate(self.diag):
            s = kernels.encode_one(
                kernel_star(self.d, kernels, v, i + 1))   # 1-based index
            stars.append(s)
            x[i] = mul(s, x[i])
        self.stars = stars
        return x


def _substitute_rows(fold, rows, x):
    # x[i] folds rows[i] against x[:i], in place; zip stops at the row
    for i, row in enumerate(rows):
        x[i] = fold(x[i], row, x)


def _substitute(d, L, D, M, b, counter=None):
    """The stages of L, D and M (None skips one) on the coerced vector
    ``b`` over ``d`` counted into ``counter``, on a solver built for this
    call.  The factors are checked already."""
    return _Solver(counted(d, counter), L, D, M).solve(b)


def forward_substitution(L: Matrix, b, counter: "OpCounter | None" = None):
    """Least solution of x = Lx + b for strictly lower triangular L."""
    _require_strict_triangle(L, lower=True, what="lower")
    d = L.descriptor
    return _substitute(d, L, None, None, _coerce_vector(d, b, L.rows),
                       counter)


def back_substitution(M: Matrix, b, counter: "OpCounter | None" = None):
    """Least solution of x = Mx + b for strictly upper triangular M."""
    _require_strict_triangle(M, lower=False, what="upper")
    d = M.descriptor
    return _substitute(d, None, None, M, _coerce_vector(d, b, M.rows),
                       counter)


def diagonal_solve(diag, b, descriptor=None, counter: "OpCounter | None" = None):
    """Least solution of x = Dx + b for a diagonal system.

    ``diag`` is either a diagonal Matrix or a plain sequence of the
    diagonal values; the latter form needs ``descriptor`` passed in.
    """
    if isinstance(diag, Matrix):
        d = diag.descriptor
        n = diag.rows
        if diag.cols != n:
            raise ShapeViolation("diagonal matrix must be square")
        for i in range(n):
            for j in range(n):
                if i != j and not d.is_zero(diag[i, j]):
                    raise ShapeViolation(f"off-diagonal entry at ({i}, {j})")
        dv = [diag[i, i] for i in range(n)]
    else:
        if descriptor is None:
            raise TypeError("diagonal_solve needs a descriptor with a plain sequence")
        d = descriptor
        n = len(diag)
        dv = [d.coerce(v) for v in diag]
    return _substitute(d, None, dv, None, _coerce_vector(d, b, n), counter)


def _solve_triple(triple, b, counter):
    """X for the coerced vector ``b`` through the checked ``triple``.

    An uncounted solve runs on the triple's solver, which the first
    such solve builds and keeps once it got through; a failed solve
    keeps nothing.
    """
    d = triple.descriptor
    if counter is not None:
        return _substitute(d, triple.L, triple.D, triple.M, b, counter)
    solver = triple._solver
    if solver is not None:
        return solver.solve(b)
    solver = _Solver(d, triple.L, triple.D, triple.M)
    x = solver.solve(b)
    object.__setattr__(triple, "_solver", solver)
    return x


def solve_ldm(triple: LdmTriple, b, counter: "OpCounter | None" = None):
    """Solve X = AX + B through the factors: X = M* D* L* B.

    The first uncounted solve on a triple checks and encodes its
    factors and computes the stars of D; later ones reuse that work.
    """
    L, D, M = triple.L, triple.D, triple.M
    d = L.descriptor
    n = L.rows
    if triple._solver is None:
        if M.rows != n or M.cols != n or len(D) != n:
            raise ShapeViolation("factors disagree on n")
        if not same_descriptor(L.descriptor, M.descriptor):
            raise DescriptorMismatch("factors built over different semirings")
        _require_strict_triangle(L, lower=True, what="lower")
        _require_strict_triangle(M, lower=False, what="upper")
    return _solve_triple(triple, _coerce_vector(d, b, n), counter)


def solve_via_ldm(A: Matrix, B, counter: "OpCounter | None" = None):
    """Solve X = AX + B by factorizing A once and substituting.

    B may be an n x s matrix (returns a matrix) or a plain length-n
    vector (returns a list).
    """
    triple = ldm_factorize(A, counter)
    if not isinstance(B, Matrix):
        return solve_ldm(triple, B, counter)
    if B.rows != A.rows:
        raise DimensionMismatch(
            f"right-hand side has {B.rows} rows, system has {A.rows}")
    if not same_descriptor(A.descriptor, B.descriptor):
        raise DescriptorMismatch("system and right-hand side disagree")
    # the factors are well formed and B is coerced: substitute directly
    sols = [_solve_triple(triple, list(col), counter) for col in zip(*B._data)]
    return Matrix._wrap(A.descriptor, [list(row) for row in zip(*sols)])


def ldm_factorize(A: Matrix, counter: "OpCounter | None" = None) -> LdmTriple:
    """Factor A column by column on a single working copy.

    Column j is first pushed through the already-built lower factor
    (the updates read partially factored entries, not the original
    ones), then split into its upper, diagonal and lower parts.

    Rows 3n/5.. go to the worker process (``_ldm_rows``) when their
    number times n^2 reaches ``offload.SHIP_MIN_WORK``, from n = 35;
    a counted call stays here, where its counter is.  When
    ``side_by_side`` says so, one stripe here holds every row.
    """
    if A.rows != A.cols:
        raise DimensionMismatch(f"factorization needs a square matrix, got {A.rows}x{A.cols}")
    d = A.descriptor
    if counter is None and is_lift(d):
        return lifted(ldm_factorize, A)
    dc = counted(d, counter)
    n = A.rows
    kernels = list_kernels(dc)
    C = list(map(kernels.encode, A._data))
    h = 3 * n // 5
    # a counter tallies in this process, so a counted call stays here
    stripes = counter is None and n > 1 and offload.side_by_side(
        # a copy: the rows change in place, and when the whole loop runs
        # here after all it needs them as they were
        lambda peer: _ldm_rows(peer, dc, [row[:] for row in C[:h]], 0, n),
        _ldm_rows, (dc, C[h:], h, n), (n - h) * n * n, dc)
    if not stripes:
        C = _ldm_rows(None, dc, C, 0, n)
    else:
        top, bottom = stripes
        C = top + bottom

    C = list(map(kernels.decode, C))
    zero = d.zero
    L = Matrix._wrap(d, [row[:i] + [zero] * (n - i) for i, row in enumerate(C)])
    M = Matrix._wrap(d, [[zero] * (i + 1) + row[i + 1:]
                         for i, row in enumerate(C)])
    D = tuple(row[i] for i, row in enumerate(C))
    return LdmTriple(L, D, M)


def _ldm_rows(peer, dc, C, lo, n):
    """The kernel rows C, rows lo.. of the n x n working copy of
    ``ldm_factorize`` over ``dc``, after its column loop, taken at the
    same time as the process that holds the rows above them, at the
    other end of the pipe ``peer``; or, with ``peer`` None, taken here
    on every row, C holding them all.  Private: a public name may be
    rebound by a wrapper that does not pickle.

    Column j runs through the lower factor so far, v[i] folding row i
    of it against v[:i] over the rows up to j (the forward pass); then
    the upper entry of each row i < j becomes star(C[i][i]) v[i], and
    each row below j folds its lower part against v[:j] and is
    multiplied by the star of the pivot v[j].  The pass at row i reads
    rows up to i alone, so the top stripe never waits for the bottom
    one: it runs the pass over its own rows and sends v over them, and
    the bottom stripe runs the rest.
    """
    kernels = list_kernels(dc)
    fold, mul, encode_one = kernels.fold, kernels.mul, kernels.encode_one
    hi = lo + len(C)
    first = max(lo, 1)  # the first row whose forward pass folds a term
    sends = peer is not None and hi < n
    for j in range(n):
        k = j + 1 - lo      # rows lo..j of the pass are C[:k]
        own = C[:k] if k > 0 else []
        if lo:
            v = peer.recv()
            v += [row[j] for row in own]
        else:
            v = [row[j] for row in own]
        for i, row in enumerate(own[first - lo:], first):
            v[i] = fold(v[i], row[:i], v)
        if sends:
            peer.send(v)
        for i, row in enumerate(C[:k - 1] if k > 1 else (), lo):
            row[j] = mul(encode_one(kernel_star(dc, kernels, row[i],
                                                (j + 1, i + 1))),
                         v[i])   # 1-based (column, pivot)
        if j < hi:
            if k > 0:
                C[k - 1][j] = v[j]
            lower = C[k:] if k > 0 else C
            vj = v[:j]
            for row in lower:
                row[j] = fold(row[j], row, vj)
            s = encode_one(kernel_star(dc, kernels, v[j], (j + 1, j + 1)))
            for row in lower:
                row[j] = mul(row[j], s)
    return C


def symmetric_factorize(A: Matrix, counter: "OpCounter | None" = None) -> LdmTriple:
    """Factor a symmetric matrix, computing only one triangle.

    Requires commutative multiplication; then the lower factor is the
    transpose of the upper one and the lower-triangle work of
    ``ldm_factorize`` can be skipped, roughly halving the adds and
    muls and cutting stars to (n^2 - n)/2.
    """
    if A.rows != A.cols:
        raise DimensionMismatch(f"factorization needs a square matrix, got {A.rows}x{A.cols}")
    d = A.descriptor
    if not d.flags.commutative_mul:
        raise NotCommutative(
            f"symmetric factorization needs commutative mul; {d.label} lacks it")
    n = A.rows
    rows = A._data
    for i in range(n):
        for j in range(i):
            if not d.eq(rows[i][j], rows[j][i]):
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")
    if counter is None and is_lift(d):
        return lifted(symmetric_factorize, A)
    dc = counted(d, counter)
    kernels = list_kernels(dc)
    fold, mul, encode_one = kernels.fold, kernels.mul, kernels.encode_one
    E = list(map(kernels.encode, rows))
    # T[i] is row i of L up to the diagonal: U[k][i] for k < i, the
    # transposed upper factor, so a fold over k reads a row
    T = []
    diag = []
    for j in range(n):
        v = [row[j] for row in E[:j + 1]]
        t = []
        for i in range(j):
            v[i] = fold(v[i], T[i], v)
            t.append(mul(encode_one(kernel_star(dc, kernels, diag[i],
                                                (j + 1, i + 1))),
                         v[i]))   # 1-based (column, pivot)
        v[j] = fold(v[j], t, v)
        T.append(t)
        diag.append(v[j])

    zero = d.zero
    L = [t + [zero] * (n - i) for i, t in enumerate(map(kernels.decode, T))]
    M = [list(col) for col in zip(*L)]
    return LdmTriple(Matrix._wrap(d, L), tuple(kernels.decode(diag)),
                     Matrix._wrap(d, M))
