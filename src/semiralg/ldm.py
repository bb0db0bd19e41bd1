"""Triangular factorization of Bellman systems.

``ldm_factorize`` rewrites a square matrix A into a strictly lower
factor L, a diagonal D and a strictly upper factor M such that the
closure decomposes as A* = M* D* L*.  Solving X = AX + B then costs
three cheap passes (``solve_ldm``): a forward substitution through L,
a diagonal closure through D, and a back substitution through M, all
carried in one buffer.

Every function here takes an optional :class:`OpCounter` and tallies
each semiring operation it performs on carrier elements.  The counts
are exact functions of n:

    forward/back substitution   (n^2 - n)/2 adds, same muls
    diagonal closure            n stars, n muls
    combined solve              n^2 - n adds, n^2 muls, n stars
    factorization               (2n^3 - 3n^2 + n)/6 adds,
                                (2n^3 + 3n^2 - 5n)/6 muls,
                                n(n + 1)/2 stars
"""

from dataclasses import dataclass

from .errors import (DescriptorMismatch, DimensionMismatch, NotCommutative,
                     NotSymmetric, ShapeViolation, StarUndefined)
from .intervals import endpoint_runs, is_lift, join_endpoints
from .matrices import Matrix
from .semirings import same_descriptor

__all__ = ["OpCounter", "LdmTriple", "forward_substitution",
           "back_substitution", "diagonal_solve", "solve_ldm",
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


def _counted(d, counter):
    if counter is None:
        return d.add, d.mul, d.star
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

    return add, mul, star


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
    for i in range(n):
        for j in range(n):
            off_triangle = j >= i if lower else j <= i
            if off_triangle and not d.is_zero(A[i, j]):
                raise ShapeViolation(
                    f"{what} factor has a nonzero entry at ({i}, {j})")


def _forward(d, L, x, counter):
    add, mul, _ = _counted(d, counter)
    rows = L._data
    for i in range(1, len(x)):
        xi = x[i]
        row = rows[i]
        for j in range(i):
            xi = add(xi, mul(row[j], x[j]))
        x[i] = xi
    return x


def _back(d, M, x, counter):
    add, mul, _ = _counted(d, counter)
    rows = M._data
    n = len(x)
    for i in range(n - 2, -1, -1):
        xi = x[i]
        row = rows[i]
        for j in range(n - 1, i, -1):
            xi = add(xi, mul(row[j], x[j]))
        x[i] = xi
    return x


def _diagonal(d, dv, x, counter):
    _, mul, star = _counted(d, counter)
    for i in range(len(x)):
        try:
            s = star(dv[i])
        except StarUndefined as exc:
            if exc.location is None:
                exc.location = i + 1   # 1-based index
            raise
        x[i] = mul(s, x[i])
    return x


def _solve(d, L, dv, M, x, counter):
    # one buffer through all three stages: the back substitution keeps
    # the diagonal stage's values instead of reinitializing from b
    return _back(d, M, _diagonal(d, dv, _forward(d, L, x, counter), counter),
                 counter)


def _substitute(kernel, d, counter, *args):
    """``kernel(d, *args, counter)``; on a lift, its two endpoint runs
    joined back into intervals (the arguments are checked already)."""
    if is_lift(d):
        return join_endpoints(d, *endpoint_runs(
            lambda *ends: kernel(d.base, *ends), *args, counter=counter))
    return kernel(d, *args, counter)


def forward_substitution(L: Matrix, b, counter: "OpCounter | None" = None):
    """Least solution of x = Lx + b for strictly lower triangular L."""
    _require_strict_triangle(L, lower=True, what="lower")
    d = L.descriptor
    return _substitute(_forward, d, counter, L, _coerce_vector(d, b, L.rows))


def back_substitution(M: Matrix, b, counter: "OpCounter | None" = None):
    """Least solution of x = Mx + b for strictly upper triangular M."""
    _require_strict_triangle(M, lower=False, what="upper")
    d = M.descriptor
    return _substitute(_back, d, counter, M, _coerce_vector(d, b, M.rows))


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
    return _substitute(_diagonal, d, counter, dv, _coerce_vector(d, b, n))


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
    return _substitute(_solve, d, counter, L, D, M, _coerce_vector(d, b, n))


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
    sols = [solve_ldm(triple, [B[i, j] for i in range(B.rows)], counter)
            for j in range(B.cols)]
    data = [[sols[j][i] for j in range(B.cols)] for i in range(B.rows)]
    return Matrix._wrap(A.descriptor, data)


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
    add, mul, star = _counted(d, counter)
    C = [row[:] for row in A._data]
    v = [None] * n
    for j in range(n):
        for i in range(j + 1):
            v[i] = C[i][j]
        for k in range(j):
            vk = v[k]
            for i in range(k + 1, j + 1):
                v[i] = add(v[i], mul(C[i][k], vk))
        for i in range(j):
            try:
                s = star(C[i][i])
            except StarUndefined as exc:
                if exc.location is None:
                    exc.location = (j + 1, i + 1)   # 1-based (column, pivot)
                raise
            C[i][j] = mul(s, v[i])
        C[j][j] = v[j]
        for k in range(j):
            vk = v[k]
            for i in range(j + 1, n):
                C[i][j] = add(C[i][j], mul(C[i][k], vk))
        try:
            pivot_star = star(v[j])
        except StarUndefined as exc:
            if exc.location is None:
                exc.location = (j + 1, j + 1)   # 1-based (column, pivot)
            raise
        for i in range(j + 1, n):
            C[i][j] = mul(C[i][j], pivot_star)

    zero = d.zero
    L = Matrix._wrap(d, [[C[i][j] if j < i else zero for j in range(n)]
                         for i in range(n)])
    M = Matrix._wrap(d, [[C[i][j] if j > i else zero for j in range(n)]
                         for i in range(n)])
    D = tuple(C[i][i] for i in range(n))
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

    add, mul, star = _counted(d, counter)
    zero = d.zero
    U = [[zero] * n for _ in range(n)]
    diag = [None] * n
    v = [None] * n
    for j in range(n):
        for i in range(j + 1):
            v[i] = rows[i][j]
        for k in range(j):
            # the upper entry doubles as the transposed lower factor entry
            try:
                s = star(diag[k])
            except StarUndefined as exc:
                if exc.location is None:
                    exc.location = (j + 1, k + 1)   # 1-based (column, pivot)
                raise
            mkj = mul(s, v[k])
            U[k][j] = mkj
            vk = v[k]
            for i in range(k + 1, j):
                v[i] = add(v[i], mul(U[k][i], vk))
            v[j] = add(v[j], mul(mkj, vk))
        diag[j] = v[j]

    M = Matrix._wrap(d, [row[:] for row in U])
    L = Matrix._wrap(d, [[U[j][i] for j in range(n)] for i in range(n)])
    return LdmTriple(L, tuple(diag), M)
