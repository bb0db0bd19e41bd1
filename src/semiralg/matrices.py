"""Dense matrices over a semiring descriptor.

Matrices are immutable: every public constructor validates and
normalizes entries through the descriptor's ``coerce``, and no method
mutates ``self``.  The product is an operation of the descriptor's
row kernels (``semirings.row_kernels``), ``product``, which the block
closure multiplies with too, through ``_split_product``.  Each of its
entries equals a fixed left-to-right fold of ``fma`` over k, so float
results are reproducible across runs and across algorithms that share
this kernel; on boolean it ORs whole packed rows, and on integral
maxplus and minplus inputs it runs on packed rows of 32-bit fields
(``_matrix_product``).  The entrywise sum
runs on the row kernels' ``add_rows``, as the block closure's sums do,
so a sum that leaves the float range raises ``IllegalElement`` as a
product does.

A product ships the bottom half of its rows to the worker process of
``offload`` when that half pays (``_split_product``): the same kernel on
the same rows, so the result is the same bit for bit.  Over an interval
lift the product is a lifted call (``intervals.lifted``), as the
closures are; its endpoint runs hold the worker, so nothing in them
ships.  A matrix over a catalog descriptor pickles, as its descriptor
does, so that it can travel to the worker.
"""

from .errors import (DescriptorMismatch, DimensionMismatch, InvalidOptions,
                     _require_type)
from . import offload
from .semirings import (SemiringDescriptor, kernels_of, kernels_within,
                        magnitude, row_kernels, same_descriptor)

__all__ = ["Matrix", "identity", "zeros"]


def _matrix_product(A, B):
    """A B on rows packed into ints (``semirings.kernels_within``) where
    M(A) + M(B) < 2^29, M the largest magnitude of a finite entry, and
    the rows of B are wide enough; else on list rows.  Every term
    a_ik + b_kj, and so every entry, is at most M(A) + M(B) in
    magnitude, so a field holds it exactly."""
    d = A.descriptor
    kernels = kernels_within(d, B.cols, lambda: magnitude(d, A._data)
                             + magnitude(d, B._data))
    encode = kernels.encode
    out = _split_product(d, list(map(encode, A._data)),
                         list(map(encode, B._data)))
    return Matrix._wrap(d, list(map(kernels.decode, out)))


def _split_product(d, X, Y):
    """The product X Y of kernel rows, its top rows here and its bottom
    rows on the worker process when their work pays (``offload.split_job``):
    rows times inner dimension times the width of a kernel row, which is
    1 for a row packed into an int.  A product by a column of list
    rows stays here: the rows it would ship are as large as their work."""
    width = len(Y[0]) if type(Y[0]) is list else 1     # packed: 1
    cut = 0 if width == 1 and type(Y[0]) is list else len(X) // 2
    return offload.split_job(_product, d, X, cut,
                             (len(X) - cut) * len(Y) * width, Y)


def _product(peer, d, X, lo, Y):
    # X Y, X from row lo of a left factor.  Private: a public name may
    # be rebound by a wrapper that does not pickle
    return kernels_of(d, Y[0]).product(X, Y)


# lift -> intervals.lifted, which runs its products, entered by
# intervals.lift_semiring, since this module cannot import intervals (it
# imports Matrix); a copy of a lift with some operation replaced is no key
_lifted_calls: dict = {}


class Matrix:
    __slots__ = ("descriptor", "rows", "cols", "_data")

    def __init__(self, descriptor: SemiringDescriptor, rows_data):
        coerce = _require_type(descriptor, SemiringDescriptor,
                               "descriptor").coerce
        data = [[coerce(v) for v in row] for row in rows_data]
        if not data or not data[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("ragged rows")
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def _wrap(cls, descriptor, data):
        # internal: adopt already-coerced rows without re-validating
        m = object.__new__(cls)
        object.__setattr__(m, "descriptor", descriptor)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        object.__setattr__(m, "_data", data)
        return m

    def __reduce__(self):
        # the rows as they are; only a catalog descriptor pickles
        return Matrix._wrap, (self.descriptor, self._data)

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i):
        return list(self._data[i])

    def to_lists(self):
        return [list(row) for row in self._data]

    def __repr__(self):
        return f"<{self.rows}x{self.cols} matrix over {self.descriptor.label}>"

    def __eq__(self, other):
        """Exact structural equality (same semiring, same entries)."""
        if not isinstance(other, Matrix):
            return NotImplemented
        return (same_descriptor(self.descriptor, other.descriptor)
                and self._data == other._data)

    __hash__ = None

    def _check_same(self, other, need_shape=None):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected a Matrix, got {type(other).__name__}")
        if not same_descriptor(self.descriptor, other.descriptor):
            raise DescriptorMismatch(
                f"{self.descriptor.label} vs {other.descriptor.label}")
        if need_shape == "same" and (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        if need_shape == "chain" and self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot chain {self.rows}x{self.cols} with {other.rows}x{other.cols}")

    def add(self, other) -> "Matrix":
        self._check_same(other, "same")
        d = self.descriptor
        kernels = row_kernels(d)
        encode = kernels.encode
        out = map(kernels.add_rows, map(encode, self._data),
                  map(encode, other._data))
        return Matrix._wrap(d, list(map(kernels.decode, out)))

    def mul(self, other) -> "Matrix":
        self._check_same(other, "chain")
        lifted = _lifted_calls.get(self.descriptor)
        if lifted is not None:
            return lifted(_matrix_product, self, other)
        return _matrix_product(self, other)

    __add__ = add
    __matmul__ = mul

    def pow(self, k: int) -> "Matrix":
        """k-fold product; A ** 0 is the identity."""
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        if not _is_int(k):
            raise InvalidOptions(f"k must be an int, got {k!r}")
        if k < 0:
            raise ValueError("negative power")
        result = identity(self.descriptor, self.rows)
        for _ in range(k):
            result = result.mul(self)
        return result

    __pow__ = pow

    def leq(self, other) -> bool:
        self._check_same(other, "same")
        f = self.descriptor.leq
        return all(f(a, b) for ra, rb in zip(self._data, other._data)
                   for a, b in zip(ra, rb))

    def equals(self, other) -> bool:
        """Entrywise equality at the descriptor's own tolerance."""
        self._check_same(other, "same")
        f = self.descriptor.eq
        return all(f(a, b) for ra, rb in zip(self._data, other._data)
                   for a, b in zip(ra, rb))

    def allclose(self, other, tol: float) -> bool:
        """Entrywise |a - b| <= tol for finite float carriers."""
        if not isinstance(tol, (int, float)) or isinstance(tol, bool):
            raise TypeError(f"tol must be a float, got {tol!r}")
        self._check_same(other, "same")
        for ra, rb in zip(self._data, other._data):
            for a, b in zip(ra, rb):
                if a is b:
                    continue
                if type(a) is not float or type(b) is not float or abs(a - b) > tol:
                    return False
        return True

    def transpose(self) -> "Matrix":
        data = [[self._data[i][j] for i in range(self.rows)]
                for j in range(self.cols)]
        return Matrix._wrap(self.descriptor, data)

    def is_square(self) -> bool:
        return self.rows == self.cols


def _is_int(v):
    """True for an int that is not a bool: a count, size or index."""
    return isinstance(v, int) and not isinstance(v, bool)


def identity(descriptor: SemiringDescriptor, n: int) -> Matrix:
    _require_type(descriptor, SemiringDescriptor, "descriptor")
    if not _is_int(n):
        raise DimensionMismatch(f"n must be an int, got {n!r}")
    if n < 1:
        raise DimensionMismatch("identity needs n >= 1")
    zero, one = descriptor.zero, descriptor.one
    data = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return Matrix._wrap(descriptor, data)


def zeros(descriptor: SemiringDescriptor, rows: int, cols: int) -> Matrix:
    _require_type(descriptor, SemiringDescriptor, "descriptor")
    for name, value in (("rows", rows), ("cols", cols)):
        if not _is_int(value):
            raise DimensionMismatch(f"{name} must be an int, got {value!r}")
    if rows < 1 or cols < 1:
        raise DimensionMismatch("zeros needs positive dimensions")
    zero = descriptor.zero
    data = [[zero] * cols for _ in range(rows)]
    return Matrix._wrap(descriptor, data)
