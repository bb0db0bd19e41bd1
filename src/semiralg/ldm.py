"""Triangular factorization of Bellman systems.

``ldm_factorize`` rewrites a square matrix A into a strictly lower
factor L, a diagonal D and a strictly upper factor M such that the
closure decomposes as A* = M* D* L*.  Solving X = AX + B then costs
three cheap passes (``solve_ldm``): a forward substitution through L,
a diagonal closure through D, and a back substitution through M, all
carried in one buffer.

Every loop runs on the descriptor's row kernels
(``semirings.row_kernels``) as row folds: each entry of a substitution
or of a factor column is one ``fold`` over a row slice, in the order
over k of the scalar definition.  Inputs are encoded at entry and
results decoded at exit; each pivot goes to ``star`` as a carrier
value, so a failure names the same location and reads the same.

Every function here takes an optional :class:`OpCounter`.  Counting
runs on :func:`counted`, a copy of the descriptor whose ``add``,
``mul`` and ``star`` tally into the counter; the copy gets the fold
kernels, so each folded term is one add and one mul.  The counts are
exact functions of n:

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
from .intervals import endpoint_runs, is_lift, join_endpoints
from .matrices import Matrix
from .semirings import kernel_star, row_kernels, same_descriptor

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

    @property
    def descriptor(self):
        return self.L.descriptor

    @property
    def n(self):
        return self.L.rows


def counted(d, counter: "OpCounter | None"):
    """``d`` itself without a counter; with one, a copy of ``d`` whose
    ``add``, ``mul`` and ``star`` tally into it and whose ``fma`` is
    ``add(acc, mul(x, y))``.

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

    return replace(d, add=add, mul=mul, star=star,
                   fma=lambda acc, x, y: add(acc, mul(x, y)))


def _join_triples(d, lo, hi):
    return LdmTriple(join_endpoints(d, lo.L, hi.L),
                     tuple(join_endpoints(d, lo.D, hi.D)),
                     join_endpoints(d, lo.M, hi.M))


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


# The substitution stages take the counted descriptor, its kernels, the
# factors as carrier values and the vector x in kernel form, which they
# update in place and return.

def _forward(d, kernels, L, x):
    fold, encode = kernels.fold, kernels.encode
    for i, row in enumerate(L._data):
        x[i] = fold(x[i], encode(row[:i]), x)
    return x


def _back(d, kernels, M, x):
    # j = n - 1 ... i + 1, as reversed slices
    fold, encode = kernels.fold, kernels.encode
    rows = M._data
    for i in range(len(x) - 2, -1, -1):
        x[i] = fold(x[i], encode(rows[i][:i:-1]), x[:i:-1])
    return x


def _diagonal(d, kernels, dv, x):
    mul = kernels.mul
    for i, v in enumerate(kernels.encode(dv)):
        x[i] = mul(kernel_star(d, kernels, v, i + 1), x[i])   # 1-based index
    return x


def _solve(d, kernels, L, dv, M, x):
    # one buffer through all three stages: the back substitution keeps
    # the diagonal stage's values instead of reinitializing from b
    return _back(d, kernels, M,
                 _diagonal(d, kernels, dv, _forward(d, kernels, L, x)))


def _substitute(stage, d, *args, counter=None):
    """``stage`` on the factors ``args[:-1]`` and the vector ``args[-1]``
    over ``d`` counted into ``counter``, the vector in kernel form; on a
    lift, its two endpoint runs joined back into intervals (the
    arguments are checked already)."""
    if is_lift(d):
        return join_endpoints(d, *endpoint_runs(
            _substitute, stage, d.base, *args, counter=counter))
    d = counted(d, counter)
    kernels = row_kernels(d)
    *factors, b = args
    return kernels.decode(stage(d, kernels, *factors, kernels.encode(b)))


def forward_substitution(L: Matrix, b, counter: "OpCounter | None" = None):
    """Least solution of x = Lx + b for strictly lower triangular L."""
    _require_strict_triangle(L, lower=True, what="lower")
    d = L.descriptor
    return _substitute(_forward, d, L, _coerce_vector(d, b, L.rows),
                       counter=counter)


def back_substitution(M: Matrix, b, counter: "OpCounter | None" = None):
    """Least solution of x = Mx + b for strictly upper triangular M."""
    _require_strict_triangle(M, lower=False, what="upper")
    d = M.descriptor
    return _substitute(_back, d, M, _coerce_vector(d, b, M.rows),
                       counter=counter)


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
    return _substitute(_diagonal, d, dv, _coerce_vector(d, b, n),
                       counter=counter)


def solve_ldm(triple: LdmTriple, b, counter: "OpCounter | None" = None):
    """Solve X = AX + B through the factors: X = M* D* L* B."""
    L, D, M = triple.L, triple.D, triple.M
    d = L.descriptor
    n = L.rows
    if M.rows != n or M.cols != n or len(D) != n:
        raise ShapeViolation("factors disagree on n")
    if not same_descriptor(L.descriptor, M.descriptor):
        raise DescriptorMismatch("factors built over different semirings")
    _require_strict_triangle(L, lower=True, what="lower")
    _require_strict_triangle(M, lower=False, what="upper")
    return _substitute(_solve, d, L, D, M, _coerce_vector(d, b, n),
                       counter=counter)


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
    sols = [_substitute(_solve, A.descriptor, triple.L, triple.D, triple.M,
                        list(col), counter=counter) for col in zip(*B._data)]
    return Matrix._wrap(A.descriptor, [list(row) for row in zip(*sols)])


def ldm_factorize(A: Matrix, counter: "OpCounter | None" = None) -> LdmTriple:
    """Factor A column by column on a single working copy.

    Column j is first pushed through the already-built lower factor
    (the updates read partially factored entries, not the original
    ones), then split into its upper, diagonal and lower parts.
    """
    if A.rows != A.cols:
        raise DimensionMismatch(f"factorization needs a square matrix, got {A.rows}x{A.cols}")
    d = A.descriptor
    if is_lift(d):
        return _join_triples(d, *endpoint_runs(ldm_factorize, A, counter=counter))
    n = A.rows
    dc = counted(d, counter)
    kernels = row_kernels(dc)
    fold, mul = kernels.fold, kernels.mul
    C = list(map(kernels.encode, A._data))
    for j in range(n):
        # column j through the lower factor so far: v[i] folds C[i][k] v[k]
        # over k < i, for the upper part with the v[k] just completed
        v = [row[j] for row in C[:j + 1]]
        for i in range(1, j + 1):
            v[i] = fold(v[i], C[i][:i], v)
        for i in range(j):
            C[i][j] = mul(kernel_star(dc, kernels, C[i][i], (j + 1, i + 1)),
                          v[i])   # 1-based (column, pivot)
        C[j][j] = v[j]
        vj = v[:j]
        lower = C[j + 1:]
        for row in lower:
            row[j] = fold(row[j], row, vj)
        s = kernel_star(dc, kernels, v[j], (j + 1, j + 1))
        for row in lower:
            row[j] = mul(row[j], s)

    C = list(map(kernels.decode, C))
    zero = d.zero
    L = Matrix._wrap(d, [row[:i] + [zero] * (n - i) for i, row in enumerate(C)])
    M = Matrix._wrap(d, [[zero] * (i + 1) + row[i + 1:]
                         for i, row in enumerate(C)])
    D = tuple(row[i] for i, row in enumerate(C))
    return LdmTriple(L, D, M)


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
    if is_lift(d):
        return _join_triples(d, *endpoint_runs(symmetric_factorize, A, counter=counter))

    dc = counted(d, counter)
    kernels = row_kernels(dc)
    fold, mul = kernels.fold, kernels.mul
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
            t.append(mul(kernel_star(dc, kernels, diag[i], (j + 1, i + 1)),
                         v[i]))   # 1-based (column, pivot)
        v[j] = fold(v[j], t, v)
        T.append(t)
        diag.append(v[j])

    zero = d.zero
    L = [t + [zero] * (n - i) for i, t in enumerate(map(kernels.decode, T))]
    M = [list(col) for col in zip(*L)]
    return LdmTriple(Matrix._wrap(d, L), tuple(kernels.decode(diag)),
                     Matrix._wrap(d, M))
