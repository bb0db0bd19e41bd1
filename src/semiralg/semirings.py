"""Semiring descriptors and the catalog of shipped instances.

A descriptor bundles the carrier operations of one semiring: ``add``
and ``mul`` with their neutral elements ``zero`` and ``one``, the
(possibly partial) closure ``star``, the canonical partial order
``leq``, an equality predicate ``eq`` with the tolerance appropriate
for the carrier, and ``coerce``, which validates and normalizes a
value into the carrier.  ``add`` and ``mul`` validate every argument
and reject illegal values, results too: one past the float range
raises ``IllegalElement`` as the row kernels below do, and on maxplus
and minplus a product that overflows to the zero's infinity is that
tag, as there.  They are the reference that the scalar API, the law
checker, the lifted operations and the fold kernels below run on.

``fma(acc, x, y)`` is ``add(acc, mul(x, y))`` on every shipped
descriptor and on the lifts, built by :func:`fma_of`, so the fold
kernels below run on the validating ``add`` and ``mul`` alone.

The matrix kernels (the product and the entrywise sum, which runs on
``add_rows``), the closures and the LDM factorizations and
substitutions run on whole rows through :func:`row_kernels`.
Every descriptor gets the left fold of its own ``fma`` over k; six
catalog instances (maxplus, minplus, maxmin, boolean, rplus and
real_field) get kernels on IEEE floats and bools instead, which make
no descriptor call per entry, equal to that fold bit for bit wherever
the fold returns: ``max`` or ``min`` over ``map`` for the tropical
folds, plain loops and comprehensions on the float operators for the
others.  Boolean packs each row into one int, a bit per entry; LDM,
which writes single entries, runs boolean on the fold
(:func:`list_kernels`).  Inside such a kernel the infinity tags are
IEEE infinities; they become tags again on the way out, so a finite
sum that overflows to the zero's infinity also comes out as the tag,
and any other value past the float range raises ``IllegalElement``
there.  ``maxplus_complete`` and ``rplus_complete`` keep the fold:
IEEE gives NaN for -inf + inf and 0 * inf, where they have a value.
An overflow raises ``IllegalElement`` on every descriptor: in ``add``
or ``mul`` on the fold, in the decode of the IEEE kernels.

The closures, the least solution and the product of catalog maxplus
and minplus pack their rows as well, a 32-bit field per entry, where
every finite entry is an integral float other than -0.0, the rows are at
least 24 entries wide and the call's bound is below 2^29
(:func:`kernels_within`): no value can overflow there, and the values
are those of the IEEE kernels, bit for bit.

Shipped semirings, by name:

========================  =============================================
rplus                     nonnegative reals, + and *
rplus_complete            rplus with a top element +inf, total star
maxplus                   reals with -inf, max and +
maxplus_complete          maxplus with +inf adjoined, total star
minplus                   reals with +inf, min and +
maxmin                    interval [a, b] of reals, max and min
boolean                   {false, true}, or and and
real_field                all reals, + and *; star is (1 - x)^-1
========================  =============================================
"""

import math
import sys
import weakref
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress
from operator import (add as _add, and_ as _and, getitem as _getitem,
                      itemgetter, mul as _mul, or_ as _or)
from typing import Callable, NamedTuple

from .errors import IllegalElement, InvalidBounds, StarUndefined, UnknownSemiring
from .scalars import NEG_INF, POS_INF, Infinity, usual_leq

__all__ = ["SemiringFlags", "SemiringDescriptor", "make_semiring", "RowKernels",
           "row_kernels", "list_kernels", "kernel_star"]


@dataclass(frozen=True)
class SemiringFlags:
    idempotent: bool
    complete: bool
    commutative_mul: bool
    positive: bool


@dataclass(frozen=True, eq=False, repr=False)
class SemiringDescriptor:
    name: str
    zero: object
    one: object
    add: Callable
    mul: Callable
    star: Callable
    leq: Callable
    eq: Callable
    coerce: Callable
    fma: Callable
    flags: SemiringFlags
    params: tuple = ()
    base: "SemiringDescriptor | None" = None

    @property
    def label(self) -> str:
        if self.base is not None:
            return f"interval({self.base.label})"
        if self.params:
            lo, hi = self.params
            return f"{self.name}[{lo},{hi}]"
        return self.name

    def is_zero(self, v) -> bool:
        return v is self.zero or v == self.zero

    def __repr__(self):
        return f"<semiring {self.label}>"

    def __reduce_ex__(self, protocol):
        # a catalog instance pickles as the make_semiring call that returns
        # it, so it arrives as the catalog instance of the receiving
        # process; any other descriptor holds closures, which do not pickle
        if in_catalog(self):
            return make_semiring, (self.name, self.params or None)
        return super().__reduce_ex__(protocol)


def same_descriptor(a: SemiringDescriptor, b: SemiringDescriptor) -> bool:
    if a is b:
        return True
    if a.name != b.name or a.params != b.params:
        return False
    if (a.base is None) != (b.base is None):
        return False
    return a.base is None or same_descriptor(a.base, b.base)


def _finite(v, name):
    t = type(v)
    if t is float:
        if math.isfinite(v):
            return v
        raise IllegalElement(f"IEEE {v!r} is not a {name} element; use the infinity tags")
    if t is int:
        try:
            return float(v)
        except OverflowError:
            raise IllegalElement(f"an integer of {v.bit_length()} bits is too "
                                 f"large for a {name} element") from None
    raise IllegalElement(f"{v!r} is not a {name} element")


# a result outside [-_MAX, _MAX] left the float range
_MAX = sys.float_info.max


def _left_range(v, name):
    return IllegalElement(f"a result left the float range ({v!r}); it is not "
                          f"a {name} element")


def _in_range(v, name):
    """The float ``v``, a result of finite arguments, if it is in range."""
    if -_MAX <= v <= _MAX:
        return v
    raise _left_range(v, name)


def _eq_exact(x, y):
    if x is y:
        return True
    if isinstance(x, Infinity) or isinstance(y, Infinity):
        return False
    return x == y


def _eq_close(x, y):
    if x is y:
        return True
    if isinstance(x, Infinity) or isinstance(y, Infinity):
        return False
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


def fma_of(add, mul):
    """``fma(acc, x, y)`` as ``add(acc, mul(x, y))`` over the given
    operations, which validate their arguments and results."""
    return lambda acc, x, y: add(acc, mul(x, y))


def _make_maxplus(complete: bool) -> SemiringDescriptor:
    name = "maxplus_complete" if complete else "maxplus"

    def coerce(v):
        if v is NEG_INF:
            return v
        if v is POS_INF:
            if complete:
                return v
            raise IllegalElement(f"inf is not a {name} element")
        return _finite(v, name)

    def add(x, y):
        x = coerce(x)
        y = coerce(y)
        if x is NEG_INF:
            return y
        if y is NEG_INF:
            return x
        if x is POS_INF or y is POS_INF:
            return POS_INF
        return x if x >= y else y

    def mul(x, y):
        x = coerce(x)
        y = coerce(y)
        # the bottom tag absorbs even the top one
        if x is NEG_INF or y is NEG_INF:
            return NEG_INF
        if x is POS_INF or y is POS_INF:
            return POS_INF
        s = x + y
        if s <= _MAX:
            return s if s >= -_MAX else NEG_INF
        raise _left_range(s, name)

    def star(x):
        x = coerce(x)
        if x is NEG_INF:
            return 0.0
        if x is POS_INF or x > 0.0:
            if complete:
                return POS_INF
            raise StarUndefined(f"star needs x <= 0 in {name}, got {x!r}", element=x)
        return 0.0

    return SemiringDescriptor(
        name=name, zero=NEG_INF, one=0.0,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_exact,
        coerce=coerce, fma=fma_of(add, mul),
        flags=SemiringFlags(idempotent=True, complete=complete,
                            commutative_mul=True, positive=True))


def _make_minplus() -> SemiringDescriptor:
    name = "minplus"

    def coerce(v):
        if v is POS_INF:
            return v
        if v is NEG_INF:
            raise IllegalElement(f"-inf is not a {name} element")
        return _finite(v, name)

    def add(x, y):
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF:
            return y
        if y is POS_INF:
            return x
        return x if x <= y else y

    def mul(x, y):
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF or y is POS_INF:
            return POS_INF
        s = x + y
        if s >= -_MAX:
            return s if s <= _MAX else POS_INF
        raise _left_range(s, name)

    def star(x):
        x = coerce(x)
        if x is POS_INF or x >= 0.0:
            return 0.0
        raise StarUndefined(f"star needs x >= 0 in {name}, got {x!r}", element=x)

    def leq(x, y):
        # canonical order: zero = +inf sits at the bottom
        return usual_leq(y, x)

    return SemiringDescriptor(
        name=name, zero=POS_INF, one=0.0,
        add=add, mul=mul, star=star, leq=leq, eq=_eq_exact,
        coerce=coerce, fma=fma_of(add, mul),
        flags=SemiringFlags(idempotent=True, complete=False,
                            commutative_mul=True, positive=True))


def _make_maxmin(lo, hi) -> SemiringDescriptor:
    name = "maxmin"
    flo = lo if isinstance(lo, Infinity) else float(lo)
    fhi = hi if isinstance(hi, Infinity) else float(hi)
    floats = type(flo) is float and type(fhi) is float

    def coerce(v):
        # the common case first, in one chained comparison: a NaN or an
        # IEEE infinity fails it, and finite bounds admit no tag
        if floats and type(v) is float and flo <= v <= fhi:
            return v
        if isinstance(v, Infinity):
            if v is flo or v is fhi:
                return v
            raise IllegalElement(f"{v!r} is outside [{flo},{fhi}]")
        v = _finite(v, name)
        if usual_leq(flo, v) and usual_leq(v, fhi):
            return v
        raise IllegalElement(f"{v!r} is outside [{flo},{fhi}]")

    def add(x, y):
        x = coerce(x)
        y = coerce(y)
        return x if usual_leq(y, x) else y

    def mul(x, y):
        x = coerce(x)
        y = coerce(y)
        return x if usual_leq(x, y) else y

    def star(x):
        coerce(x)
        return fhi

    return SemiringDescriptor(
        name=name, zero=flo, one=fhi,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_exact,
        coerce=coerce, fma=fma_of(add, mul), params=(flo, fhi),
        flags=SemiringFlags(idempotent=True, complete=True,
                            commutative_mul=True, positive=True))


def _make_boolean() -> SemiringDescriptor:
    def coerce(v):
        if type(v) is bool:
            return v
        raise IllegalElement(f"{v!r} is not a boolean element")

    def add(x, y):
        return coerce(x) or coerce(y)

    def mul(x, y):
        return coerce(x) and coerce(y)

    def star(x):
        coerce(x)
        return True

    def leq(x, y):
        return y or not x

    return SemiringDescriptor(
        name="boolean", zero=False, one=True,
        add=add, mul=mul, star=star, leq=leq, eq=_eq_exact,
        coerce=coerce, fma=fma_of(add, mul),
        flags=SemiringFlags(idempotent=True, complete=True,
                            commutative_mul=True, positive=True))


def _make_rplus(complete: bool) -> SemiringDescriptor:
    name = "rplus_complete" if complete else "rplus"

    def coerce(v):
        if v is POS_INF:
            if complete:
                return v
            raise IllegalElement(f"inf is not a {name} element")
        if v is NEG_INF:
            raise IllegalElement(f"-inf is not a {name} element")
        v = _finite(v, name)
        if v < 0.0:
            raise IllegalElement(f"{v!r} is negative, not a {name} element")
        return v

    def add(x, y):
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF or y is POS_INF:
            return POS_INF
        return _in_range(x + y, name)

    def mul(x, y):
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF:
            return 0.0 if y == 0.0 else POS_INF
        if y is POS_INF:
            return 0.0 if x == 0.0 else POS_INF
        return _in_range(x * y, name)

    def star(x):
        x = coerce(x)
        if x is not POS_INF and x < 1.0:
            return 1.0 / (1.0 - x)
        if complete:
            return POS_INF
        raise StarUndefined(f"star needs x < 1 in {name}, got {x!r}", element=x)

    return SemiringDescriptor(
        name=name, zero=0.0, one=1.0,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_close,
        coerce=coerce, fma=fma_of(add, mul),
        flags=SemiringFlags(idempotent=False, complete=complete,
                            commutative_mul=True, positive=True))


def _make_real_field() -> SemiringDescriptor:
    name = "real_field"

    def coerce(v):
        return _finite(v, name)

    def add(x, y):
        return _in_range(coerce(x) + coerce(y), name)

    def mul(x, y):
        return _in_range(coerce(x) * coerce(y), name)

    def star(x):
        x = coerce(x)
        if x == 1.0:
            raise StarUndefined(f"star of 1 does not exist in {name}", element=x)
        return 1.0 / (1.0 - x)

    return SemiringDescriptor(
        name=name, zero=0.0, one=1.0,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_close,
        coerce=coerce, fma=fma_of(add, mul),
        flags=SemiringFlags(idempotent=False, complete=False,
                            commutative_mul=True, positive=False))


# ---------------------------------------------------------------- row kernels

class RowKernels(NamedTuple):
    """The row-level operations the matrix kernels run on.

    They act on kernel values and kernel rows.  ``encode`` maps one row
    of carrier values to a kernel row and ``decode`` maps a kernel row
    back to a new list; ``encode_one`` and ``decode_one`` do the same
    for one value.

    Arithmetic: ``mul`` is the scalar product, ``add_rows`` the
    entrywise sum of two rows, ``product(X, Y)`` the matrix product of
    two lists of rows as a new list, and ``eliminate(C, k, s, krow)``
    the rows of C after the Gauss-Jordan step at pivot k whose pivot row
    is ``krow`` and whose star is ``s``: ``row + (row[k] s) krow`` for
    every row, each read before the step.  C may hold every row, krow
    among them, or a stripe of them, with or without krow.
    ``fold(acc, xrow, ycol)`` is one entry of a substitution or
    factorization step and ``axpy(row, a, krow)`` the row ``row + a
    krow``.  Each equals its definition by the
    descriptor's operations bit for bit: ``fold`` the left fold over k
    of ``fma`` that starts from ``acc`` (``acc`` itself for empty rows),
    an entry of ``product`` the same fold started from ``mul(x[0],
    y[0])``, ``axpy`` and ``eliminate`` one ``fma`` per entry and
    ``add_rows`` one ``add`` per entry.  ``fold`` runs over ``zip(xrow,
    ycol)``, so the shorter row sets its length.  No operation mutates
    a row; ``axpy`` and ``eliminate`` may return their input itself.

    Shape: ``entry(row, k)`` is the kernel value in column k,
    ``split(rows, k)`` cuts every row of a list at column k and returns
    the list of heads and the list of tails, and ``join(heads, tails)``
    glues two such lists back, row by row.  The closures and the
    product touch rows only through these operations.

    Kernel rows are lists, except on boolean, where a row is one int:
    bit j holds entry j, and a length bit at position n holds the width
    of the row.  There a split is a mask and a shift, a sum is ``|``,
    the Gauss-Jordan step ORs the pivot row into each row with bit k
    set, and row i of a product is the OR of the rows of Y that the
    bits of row i of X select: one big-int operation per row where a
    list takes one Python operation per entry.  Its kernel values are
    the carrier's bools.  On catalog maxplus and minplus a call may take
    packed rows too, ints of one 32-bit field per entry and a length
    bit above them, whose sums and products take a few big-int
    operations per row (:func:`_packed_tropical_kernels`); the call
    picks them from its whole input (:func:`kernels_within`), and a run
    handed such rows reads their form from them (:func:`kernels_of`).
    Their kernel values are the ints of the fields.  Packed rows have no
    ``fold`` and no ``axpy`` (both None); code that reads or writes
    single entries of a row (LDM) runs on :func:`list_kernels`.

    ``sweep(C, n)``, on catalog maxmin alone (None elsewhere), takes the
    encoded rows of [A | B], A n x n, to those of [A* | A*B] in one
    pass over the arcs of the graph of [A | B] (:func:`_sweep`); the
    closures and the least solution run on it there instead of
    eliminating.
    """
    encode: Callable
    decode: Callable
    encode_one: Callable
    decode_one: Callable
    mul: Callable
    add_rows: Callable
    product: Callable
    eliminate: Callable
    fold: "Callable | None"
    axpy: "Callable | None"
    entry: Callable
    split: Callable
    join: Callable
    sweep: "Callable | None" = None


def row_kernels(d: SemiringDescriptor) -> RowKernels:
    """The row kernels of ``d``.

    The six catalog instances whose values map onto IEEE floats or bools
    get kernels of their own, which compute on the floats and bools
    with no descriptor call per entry, and boolean packs its rows into
    ints; every other descriptor (the complete
    carriers, lifts, and any copy of a catalog instance, whose
    operations may have been replaced) gets the fold of its own ``fma``,
    built once per descriptor.
    """
    kernels = _kernels.get(d)
    return kernels if kernels is not None else _fold_kernels(d)


def list_kernels(d: SemiringDescriptor) -> RowKernels:
    """Row kernels of ``d`` whose rows are lists: ``row_kernels(d)``, or
    the fold of ``d``'s own ``fma`` where those pack their rows."""
    kernels = row_kernels(d)
    return kernels if kernels.fold is not None else _fold_kernels(d)


def magnitude(d: SemiringDescriptor, rows) -> float:
    """The largest magnitude of a finite entry of ``rows``, lists of
    values of ``d``, or 0.0 when there is none, if packed rows of ``d``
    can hold those entries: ``d`` is catalog maxplus or minplus, and
    every finite entry is an integral float other than -0.0; else inf."""
    if d not in _packed:
        return math.inf
    values = set().union(*rows)
    values.discard(d.zero)
    if not values:
        return 0.0
    if not all(type(v) is float and v.is_integer() for v in values):
        return math.inf
    # the set holds one of 0.0 and -0.0, which are equal
    if 0.0 in values and any(v == 0.0 and math.copysign(1.0, v) < 0.0
                             for row in rows if 0.0 in row for v in row):
        return math.inf
    return max(max(values), -min(values))


def kernels_within(d: SemiringDescriptor, width, bound) -> RowKernels:
    """The kernels of a call over ``d`` whose kernel rows are ``width``
    entries wide and whose bound is ``bound()``: no value the call
    stores exceeds the bound in magnitude, and no term twice the bound.
    They are the packed tropical kernels where ``d`` has them, the rows
    are at least 24 entries wide and the bound is below 2^29, so that
    every value and term fits a field; else ``row_kernels(d)``.  A call
    whose entries packed rows cannot hold has the bound inf
    (:func:`magnitude`).

    Below 24 entries list rows are faster, so ``bound`` is not called
    there.  Measured, paired, on rows of integral weights at density
    0.5 (Python 3.11, two Xeon CPUs): packed rows ran a block closure
    at n = 16 and 24 in x0.98 and x1.14 of the time on list rows, a
    least solution with 4 columns at n = 16 and 20 in x1.02 and x1.09,
    and a product by one column, rows one entry wide, in x0.3-0.4.
    """
    packed = _packed.get(d)
    if (packed is not None and width >= _PACK_MIN_WIDTH
            and bound() < _PACK_LIMIT):
        return packed
    return row_kernels(d)


def kernels_of(d: SemiringDescriptor, row) -> RowKernels:
    """The kernels that read ``row``, a kernel row over ``d``: the packed
    tropical kernels for an int row over catalog maxplus or minplus,
    else ``row_kernels(d)``.  So a run reads the form of its rows from
    them, in the worker process too."""
    if type(row) is int:
        packed = _packed.get(d)
        if packed is not None:
            return packed
    return row_kernels(d)


def kernel_star(d, kernels, v, location):
    """The star of kernel value ``v``, as a carrier value.

    The pivot goes to ``d.star`` as a carrier value, so a failure reads
    as in the matrix; it gets ``location`` unless it has one already.
    """
    try:
        return d.star(kernels.decode_one(v))
    except StarUndefined as exc:
        if exc.location is None:
            exc.location = location
        raise


def _same(v):
    return v


def _split_lists(rows, k):
    return [row[:k] for row in rows], [row[k:] for row in rows]


def _list_kernels(encode, decode, encode_one, decode_one, mul, dot, fold,
                  axpy, add_rows, sweep=None):
    """Kernels on list rows from their arithmetic; ``dot(xrow, ycol)``,
    the fold started from the first product, is one entry of a product."""
    def product(X, Y):
        cols = list(zip(*Y))
        return [[dot(xrow, ycol) for ycol in cols] for xrow in X]

    def eliminate(C, k, s, krow):
        return [axpy(row, mul(row[k], s), krow) for row in C]

    return RowKernels(encode, decode, encode_one, decode_one, mul, add_rows,
                      product, eliminate, fold, axpy, _getitem, _split_lists,
                      lambda heads, tails: list(map(_add, heads, tails)),
                      sweep)


def _fold_decode(d):
    """decode of the fold kernels: a copy of the row, which rejects a
    float past the range, as the IEEE kernels' decode does.  No carrier
    holds an IEEE infinity or NaN, and ``add`` and ``mul`` reject one,
    so such a float can only come from an ``fma`` other than
    ``fma_of``'s: a copy's that was replaced, or a descriptor's own."""
    name = d.label
    # the endpoints of a lift's values are floats of its base carrier
    entries = chain.from_iterable if d.base is not None else iter

    def decode(row):
        for v in entries(row):
            if type(v) is float and not math.isfinite(v):
                raise _left_range(v, name)
        return list(row)

    return decode


def _fold_kernels(d):
    kernels = _folds.get(d)
    if kernels is None:
        kernels = _folds[d] = _new_fold_kernels(d)
    return kernels


def _new_fold_kernels(d):
    mul, fma, add = d.mul, d.fma, d.add
    decode = _fold_decode(d)

    def fold(acc, xrow, ycol):
        for x, y in zip(xrow, ycol):
            acc = fma(acc, x, y)
        return acc

    def dot(xrow, ycol):
        pairs = zip(xrow, ycol)
        x, y = next(pairs)
        acc = mul(x, y)
        for x, y in pairs:
            acc = fma(acc, x, y)
        return acc

    def axpy(row, a, krow):
        return [fma(r, a, k) for r, k in zip(row, krow)]

    def add_rows(xrow, yrow):
        return list(map(add, xrow, yrow))

    return _list_kernels(list, decode, _same, lambda v: decode([v])[0], mul,
                         dot, fold, axpy, add_rows)


def _codec(name, *tags, valid=None):
    """encode, decode, encode_one and decode_one between the given tags
    and IEEE infinities.

    With ``valid``, decode rejects a kernel value it calls false: a
    finite result that overflowed to an infinity the carrier has no tag
    for, or a NaN made from one.  A NaN or such an infinity also makes
    the sum of the row fail ``valid``, so one C-level ``sum`` screens
    the row and only a failing one is scanned entry by entry.
    """
    to_ieee = {t: math.copysign(math.inf, t.sign) for t in tags}
    to_tag = {v: t for t, v in to_ieee.items()}
    if tags:
        encode = lambda row: [to_ieee.get(v, v) for v in row]
        untag = lambda row: [to_tag.get(v, v) for v in row]
        encode_one = lambda v: to_ieee.get(v, v)
        untag_one = lambda v: to_tag.get(v, v)
    else:
        encode = untag = list
        encode_one = untag_one = _same
    if valid is None:
        return encode, untag, encode_one, untag_one

    def decode(row):
        if not valid(sum(row)):
            for v in row:
                if not valid(v):
                    raise _left_range(v, name)
        return untag(row)

    def decode_one(v):
        if valid(v):
            return untag_one(v)
        raise _left_range(v, name)

    return encode, decode, encode_one, decode_one


# In the tropical and maxmin kernels a row update by the zero returns the
# row unchanged, as the fold does: its fma hands back acc when a factor is
# the zero.  max and min keep the first of equal values, as fma keeps acc,
# so a fold puts acc first.

def _maxplus_kernels(d, _ninf=-math.inf):
    def axpy(row, a, krow):
        if a == _ninf:
            return row
        return [r if r >= (s := a + k) else s for r, k in zip(row, krow)]

    return _list_kernels(*_codec(d.name, NEG_INF, valid=math.inf.__gt__), _add,
                         lambda xrow, ycol: max(map(_add, xrow, ycol)),
                         lambda acc, xrow, ycol:
                             max(chain((acc,), map(_add, xrow, ycol))),
                         axpy,
                         lambda xrow, yrow: [x if x >= y else y
                                             for x, y in zip(xrow, yrow)])


def _minplus_kernels(d, _pinf=math.inf):
    def axpy(row, a, krow):
        if a == _pinf:
            return row
        return [r if r <= (s := a + k) else s for r, k in zip(row, krow)]

    return _list_kernels(*_codec(d.name, POS_INF, valid=(-math.inf).__lt__),
                         _add,
                         lambda xrow, ycol: min(map(_add, xrow, ycol)),
                         lambda acc, xrow, ycol:
                             min(chain((acc,), map(_add, xrow, ycol))),
                         axpy,
                         lambda xrow, yrow: [x if x <= y else y
                                             for x, y in zip(xrow, yrow)])


def _sweep(C, n, zero, one):
    """The rows of [A* | A*B] from the kernel rows C of [A | B] on
    maxmin, A n x n, B n x m with m >= 0, ``zero`` and ``one`` the
    encoded bounds.

    Entry (x, y) of A* is the width of the widest path from x to y, and
    every width is the weight of one arc, so one pass over the arcs w >
    zero of the graph of A, widest first, finds them all (Pollack, "The
    maximum capacity through a network", *Oper. Res.* 8, 1960;
    Vassilevska, Williams and Yuster, "All pairs bottleneck paths and
    max-min matrix products in truly subcubic time", *ToC* 5, 2009).
    Each node keeps the nodes it reaches and the nodes that reach it as
    packed ints, as the boolean kernels do (Italiano, "Amortized
    efficiency of a path retrieval data structure", *TCS* 48, 1986).
    The arc (u, v, w) adds nothing when u reaches v already; otherwise
    every x that reaches u and not v comes to reach each node that v
    reaches and x does not, at width exactly w, since every arc taken
    before is at least as wide.  Each pair is set once, so the work
    beyond the pass is n^2.  Column n + j of B is a sink node with an
    arc y -> n + j of weight b_yj and none out, so the sink columns are
    A*B.  A diagonal arc reaches what its node reaches already, and the
    diagonal of A* is ``one``.

    The tie rule: where an input entry is as wide as the widest path, it
    stays, as the eliminations keep their accumulator on a tie; arcs of
    equal weight go in the order of their rows, then columns.  So the
    values are those of every elimination, and a signed zero may be
    another's only where 0 lies strictly inside the bounds.  Values are compared,
    never combined, so the codec's tags order as the floats they encode.
    """
    m = len(C[0])
    arcs = [(w, u, v) for u, row in enumerate(C)
            for v, w in enumerate(row) if w > zero]
    arcs.sort(key=itemgetter(0), reverse=True)     # stable: ties in order
    reach = [1 << x for x in range(m)]
    into = reach[:]
    R = [row[:] for row in C]
    left = n * (m - 1)                  # the pairs x != y not yet reached
    for w, u, v in arcs:
        xs = into[u] & ~into[v]
        if not xs:
            continue
        rv = reach[v]
        while xs:
            low = xs & -xs
            xs ^= low
            x = low.bit_length() - 1
            new = rv & ~reach[x]
            reach[x] |= new
            left -= new.bit_count()
            row = R[x]
            while new:
                bit = new & -new
                new ^= bit
                y = bit.bit_length() - 1
                if row[y] != w:
                    row[y] = w
                into[y] |= low
        if not left:
            break
    for x in range(n):
        R[x][x] = one
    return R


def _maxmin_kernels(d):
    # max and min only pick among their arguments, so every kernel value
    # is an input value and decode needs no range check.  The closures
    # and the least solution run on the sweep, not on these folds: they
    # remain for the product, the series and LDM
    encode, decode, encode_one, decode_one = _codec(
        d.name, *(t for t in d.params if isinstance(t, Infinity)))
    zero = encode_one(d.zero)
    one = encode_one(d.one)

    def fold(acc, xrow, ycol):
        # the fold takes min(x, y) only when it exceeds acc, that is when
        # both x and y do; every other term is skipped without a min.
        # No C-level expression beats this loop: min() and max() on two
        # arguments cost more per call than the fold's fma
        for x, y in zip(xrow, ycol):
            if x > acc and y > acc:
                acc = x if x <= y else y
        return acc

    def dot(xrow, ycol):
        # fold's loop, started from the first product
        pairs = zip(xrow, ycol)
        x, y = next(pairs)
        acc = x if x <= y else y
        for x, y in pairs:
            if x > acc and y > acc:
                acc = x if x <= y else y
        return acc

    def axpy(row, a, krow):
        if a == zero:
            return row
        return [r if r >= a or r >= k else a if a <= k else k
                for r, k in zip(row, krow)]

    return _list_kernels(encode, decode, encode_one, decode_one, min, dot, fold,
                         axpy,
                         lambda xrow, yrow: [x if x >= y else y
                                             for x, y in zip(xrow, yrow)],
                         lambda C, n: _sweep(C, n, zero, one))


def _packed_shape(width):
    """``split`` and ``join`` of rows packed into ints, ``width`` bits per
    entry and a length bit above the last entry."""
    def split(rows, k):
        shift = k * width
        low, bit = (1 << shift) - 1, 1 << shift
        return ([row & low | bit for row in rows],
                [row >> shift for row in rows])

    def join(heads, tails):
        shift = heads[0].bit_length() - 1
        bit = 1 << shift
        return [tail << shift | head ^ bit for head, tail in zip(heads, tails)]

    return split, join


# bools as the bytes 0 and 1, to the digits of a binary literal and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _boolean_kernels(d):
    # a row is one int: bit j holds entry j, and a length bit at position
    # n holds the width, so that a row of zeros knows it too
    def encode(row):
        return int((bytes(row) + b"\x01")[::-1].translate(_TO_DIGITS), 2)

    def bits(x):
        # the entries of row x as the bytes 0 and 1, entry 0 first
        return format(x, "b").encode()[:0:-1].translate(_FROM_DIGITS)

    def decode(x):
        return list(map(bool, bits(x)))

    def product(X, Y):
        # row i is the OR of the rows of Y that the bits of X[i] select
        width = 1 << (Y[0].bit_length() - 1)
        return [reduce(_or, compress(Y, bits(x)), width) for x in X]

    def eliminate(C, k, s, krow):
        # s is the star of a pivot, which is True on boolean
        bit = 1 << k
        return [row | krow if row & bit else row for row in C]

    return RowKernels(encode, decode, bool, bool, _and, _or, product,
                      eliminate, None, None,
                      lambda row, k: row >> k & 1 == 1, *_packed_shape(1))


_FIELD = 32                     # bits per entry of a packed tropical row
_GUARD = _FIELD - 1             # the top bit of a field; the value below it
_VALUE = (1 << _GUARD) - 1
_BIAS = 1 << 30                 # the field of 0.0
# a call packs its tropical rows when they are this wide at least and
# its bound is below _PACK_LIMIT (kernels_within): every value then fits
# a field, and every term too
_PACK_MIN_WIDTH = 24
_PACK_LIMIT = 1 << 29
# the array typecode of a field: a C unsigned int, 4 bytes where CPython
# runs, in the machine's byte order
_U32 = "I"
_BIG_ENDIAN = sys.byteorder == "big"


@lru_cache(maxsize=64)
def _masks(top):
    """The low bits and the guards of the fields of a packed row whose
    length bit is bit ``top``."""
    units = int.from_bytes(b"\x01\x00\x00\x00" * (top // _FIELD), "little")
    return units, units << _GUARD


def _to_row(fields):
    """The packed row of the list of fields, with its length bit."""
    packed = array(_U32, fields)
    if _BIG_ENDIAN:
        packed.byteswap()
    return int.from_bytes(packed, "little") | 1 << _FIELD * len(fields)


def _of_row(x):
    """The fields of the packed row x, entry 0 first."""
    size = (x.bit_length() - 1) // 8    # 4 bytes a field, below the length bit
    fields = array(_U32, x.to_bytes(size + 1, "little")[:size])
    if _BIG_ENDIAN:
        fields.byteswap()
    return fields


def _packed_tropical_kernels(d):
    """Kernels on catalog maxplus and minplus rows of integral values,
    each row one int (``RowKernels``).

    Entry j is the 32-bit field j of the row: 0 for the zero, and
    _BIAS + v for a finite v on maxplus, _BIAS - v on minplus, so that
    the semiring sum of two entries is the larger field on both
    carriers.  The top bit of each field, its guard, stays clear in a
    row, and a length bit above the last field holds the width.  The
    product of two finite entries is the sum of their fields less
    _BIAS, and the sum of two rows r and t, r kept on a tie, takes seven
    big-int operations (Lamport, "Multiple byte processing with
    full-word instructions", *CACM* 18, 1975): with G the guards, field
    j of diff = (r | G) - t is 2^31 + r_j - t_j, so its guard is set
    where r_j >= t_j; M = m - (m >> 31), m = diff & G, fills those
    fields, and t + (diff & M) adds r_j - t_j to t there.  So a
    Gauss-Jordan step adds the pivot's factor to the live fields of the
    pivot row and takes that sum with each row, and row i of a product
    is the sum over k of the rows Y_k so shifted by x_ik: a handful of
    big-int operations per row where a list row takes one per entry.

    Every field holds the exact integer, the float kernels' values are
    exact below 2^53 and no -0.0 enters, so both give the same floats
    wherever every value and every term lies strictly between -_BIAS
    and _BIAS: a call packs only when its bound says so
    (``kernels_within``).
    """
    zero, bias, guard = d.zero, _BIAS, _GUARD
    maxplus = d.name == "maxplus"

    def encode(row):
        if maxplus:
            return _to_row([bias + int(v) if v is not zero else 0
                            for v in row])
        return _to_row([bias - int(v) if v is not zero else 0 for v in row])

    def decode(x):
        if maxplus:
            return [float(f - bias) if f else zero for f in _of_row(x)]
        return [float(bias - f) if f else zero for f in _of_row(x)]

    def encode_one(v):
        return 0 if v is zero else bias + int(v) if maxplus else bias - int(v)

    def decode_one(f):
        if not f:
            return zero
        return float(f - bias) if maxplus else float(bias - f)

    def add_rows(x, y):
        guards = _masks(x.bit_length() - 1)[1]
        diff = (x | guards) - y
        m = diff & guards
        return y + (diff & (m - (m >> guard)))

    def eliminate(C, k, s, krow):
        if not s:
            return C
        units, guards = _masks(krow.bit_length() - 1)
        ones = ((krow | guards) - units & guards) >> guard   # live fields
        shift, base, value = k * _FIELD, s - 2 * bias, _VALUE
        out = []
        for row in C:
            a = row >> shift & value
            if a:
                t = krow + (a + base) * ones
                diff = (row | guards) - t
                m = diff & guards
                row = t + (diff & (m - (m >> guard)))
            out.append(row)
        return out

    def product(X, Y):
        top = Y[0].bit_length() - 1
        units, guards = _masks(top)
        terms = [(y, ((y | guards) - units & guards) >> guard) for y in Y]
        out = []
        for x in X:
            acc = 0         # no term yet
            for a, (y, ones) in zip(_of_row(x), terms):
                if a:
                    t = y + (a - bias) * ones
                    if acc:
                        diff = (acc | guards) - t
                        m = diff & guards
                        acc = t + (diff & (m - (m >> guard)))
                    else:
                        acc = t
            out.append(acc or 1 << top)
        return out

    return RowKernels(encode, decode, encode_one, decode_one,
                      lambda x, y: x + y - bias if x and y else 0, add_rows,
                      product, eliminate, None, None,
                      lambda row, k: row >> k * _FIELD & _VALUE,
                      *_packed_shape(_FIELD))


def _field_kernels(d):
    # no shortcut for a zero factor: 0 * k is -0.0 for negative k, and
    # -0.0 + 0.0 is 0.0, so even a zero row update can change a sign.
    # The folds and axpy are plain loops, which run the interpreter's
    # float opcodes where map over operator.add and operator.mul makes
    # two calls per entry; the folds go left to right over k and never
    # through sum, which compensates its rounding since Python 3.12.
    # add_rows makes one call per entry, and there map beats a loop on
    # Python 3.10 and 3.11
    def fold(acc, xrow, ycol):
        for x, y in zip(xrow, ycol):
            acc = acc + x * y
        return acc

    def dot(xrow, ycol):
        # fold's loop, started from the first product
        pairs = zip(xrow, ycol)
        x, y = next(pairs)
        acc = x * y
        for x, y in pairs:
            acc = acc + x * y
        return acc

    def axpy(row, a, krow):
        return [r + a * k for r, k in zip(row, krow)]

    return _list_kernels(*_codec(d.name, valid=math.isfinite), _mul, dot, fold,
                         axpy, lambda xrow, yrow: list(map(_add, xrow, yrow)))


_SPECIALISED = {"maxplus": _maxplus_kernels, "minplus": _minplus_kernels,
                "maxmin": _maxmin_kernels, "boolean": _boolean_kernels,
                "rplus": _field_kernels, "real_field": _field_kernels}
# catalog descriptor -> its specialised kernels; copies are not keys
_kernels: dict = {}
# catalog maxplus and minplus -> their packed tropical kernels
_packed: dict = {}
# descriptor -> its fold kernels, built at its first use.  Descriptors
# hash by identity, so a copy has kernels of its own, and the keys are
# weak, so they go with the copy
_folds = weakref.WeakKeyDictionary()

_CATALOG = {
    "rplus": lambda: _make_rplus(False),
    "rplus_complete": lambda: _make_rplus(True),
    "maxplus": lambda: _make_maxplus(False),
    "maxplus_complete": lambda: _make_maxplus(True),
    "minplus": _make_minplus,
    "boolean": _make_boolean,
    "real_field": _make_real_field,
}

_cache: dict = {}


def _norm_bound(v):
    if isinstance(v, Infinity):
        return v
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            f = float(v)
        except OverflowError:
            raise InvalidBounds(f"bad bound: an integer of {v.bit_length()} "
                                "bits does not fit a float") from None
        if math.isfinite(f):
            return f
    raise InvalidBounds(f"bad bound {v!r}: need a finite number or an infinity tag")


def make_semiring(name: str, bounds=None) -> SemiringDescriptor:
    """Return the cached descriptor for a catalog semiring.

    ``bounds`` is the pair (a, b) for ``maxmin`` and must satisfy a < b;
    all other names take no bounds.
    """
    if name == "maxmin":
        if bounds is None:
            raise InvalidBounds("maxmin needs bounds (a, b)")
        pair = tuple(bounds)
        if len(pair) != 2:
            raise InvalidBounds(f"need exactly two bounds, got {len(pair)}")
        a, b = (_norm_bound(v) for v in pair)
        if not usual_leq(a, b) or a is b or a == b:
            raise InvalidBounds(f"need a < b, got [{a},{b}]")
        key = ("maxmin", a if isinstance(a, Infinity) else float(a),
               b if isinstance(b, Infinity) else float(b))
        return _catalog_entry(key, lambda: _make_maxmin(a, b))
    if bounds is not None:
        raise InvalidBounds(f"{name} does not take bounds")
    try:
        builder = _CATALOG[name]
    except KeyError:
        raise UnknownSemiring(
            f"unknown semiring {name!r}; known: "
            + ", ".join(sorted([*_CATALOG, "maxmin"]))) from None
    return _catalog_entry(name, builder)


def in_catalog(d: SemiringDescriptor) -> bool:
    """True for the instance ``make_semiring`` returns, not for a copy."""
    return _cache.get((d.name, *d.params) if d.params else d.name) is d


def _catalog_entry(key, build):
    d = _cache.get(key)
    if d is None:
        d = _cache[key] = build()
        special = _SPECIALISED.get(d.name)
        if special is not None:
            _kernels[d] = special(d)
        if d.name in ("maxplus", "minplus"):
            _packed[d] = _packed_tropical_kernels(d)
    return d
