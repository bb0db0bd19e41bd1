"""Semiring descriptors and the catalog of shipped instances.

A descriptor bundles the carrier operations of one semiring: ``add``
and ``mul`` with their neutral elements ``zero`` and ``one``, the
(possibly partial) closure ``star``, the canonical partial order
``leq``, an equality predicate ``eq`` with the tolerance appropriate
for the carrier, and ``coerce``, which validates and normalizes a
value into the carrier.  ``fma(acc, x, y)`` computes
``add(acc, mul(x, y))`` in one call.  ``fma`` assumes its inputs were
already validated (matrices coerce every entry at construction); the
plain ``add``/``mul`` entry points reject illegal values.

The matrix kernels, the closures and the LDM factorizations and
substitutions run on whole rows through :func:`row_kernels`.
Every descriptor gets the left fold of its own ``fma`` over k; six
catalog instances (maxplus, minplus, maxmin, boolean, rplus and
real_field) get kernels on IEEE floats and bools instead, mostly loops
that run in C, equal to that fold bit for bit.  Inside such a kernel
the infinity tags are IEEE infinities; they become tags again on the
way out, so a finite sum that overflows to the zero's infinity also
comes out as the tag, and any other value past the float range raises
``IllegalElement`` there.  ``maxplus_complete`` and ``rplus_complete``
keep the fold: IEEE gives NaN for -inf + inf and 0 * inf, where they
have a value.  The fold's decode rejects a float past the range too,
so an overflow raises ``IllegalElement`` on every descriptor.

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
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add as _add, and_ as _and, mul as _mul, or_ as _or
from typing import Callable, NamedTuple

from .errors import IllegalElement, InvalidBounds, StarUndefined, UnknownSemiring
from .scalars import NEG_INF, POS_INF, Infinity, usual_leq

__all__ = ["SemiringFlags", "SemiringDescriptor", "make_semiring", "RowKernels",
           "row_kernels", "kernel_star"]


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
        if type(x) is float and type(y) is float \
                and math.isfinite(x) and math.isfinite(y):
            return x if x >= y else y
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
        if type(x) is float and type(y) is float \
                and math.isfinite(x) and math.isfinite(y):
            return x + y
        x = coerce(x)
        y = coerce(y)
        # the bottom tag absorbs even the top one
        if x is NEG_INF or y is NEG_INF:
            return NEG_INF
        if x is POS_INF or y is POS_INF:
            return POS_INF
        return x + y

    def star(x):
        x = coerce(x)
        if x is NEG_INF:
            return 0.0
        if x is POS_INF or x > 0.0:
            if complete:
                return POS_INF
            raise StarUndefined(f"star needs x <= 0 in {name}, got {x!r}", element=x)
        return 0.0

    if complete:
        # the top tag exists here, so IEEE mapping would hit inf - inf
        def fma(acc, x, y):
            if x is NEG_INF or y is NEG_INF:
                return acc
            try:
                s = x + y
                return acc if acc >= s else s
            except TypeError:
                return add(acc, mul(x, y))
    else:
        # a factor equal to the bottom tag annihilates the product, and the
        # bottom tag is the only non-float here, so after the identity test
        # only acc can still be a tag; it maps to IEEE -inf for comparison
        def fma(acc, x, y, _ninf=float("-inf")):
            if x is NEG_INF or y is NEG_INF:
                return acc
            try:
                s = x + y
                return acc if acc >= s else s
            except TypeError:
                s = x + y if type(x) is float and type(y) is float else _ninf
                if (acc if type(acc) is float else _ninf) >= s:
                    return acc
                return s

    return SemiringDescriptor(
        name=name, zero=NEG_INF, one=0.0,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_exact,
        coerce=coerce, fma=fma,
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
        if type(x) is float and type(y) is float \
                and math.isfinite(x) and math.isfinite(y):
            return x if x <= y else y
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF:
            return y
        if y is POS_INF:
            return x
        return x if x <= y else y

    def mul(x, y):
        if type(x) is float and type(y) is float \
                and math.isfinite(x) and math.isfinite(y):
            return x + y
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF or y is POS_INF:
            return POS_INF
        return x + y

    def star(x):
        x = coerce(x)
        if x is POS_INF or x >= 0.0:
            return 0.0
        raise StarUndefined(f"star needs x >= 0 in {name}, got {x!r}", element=x)

    def leq(x, y):
        # canonical order: zero = +inf sits at the bottom
        return usual_leq(y, x)

    def fma(acc, x, y, _pinf=float("inf")):
        # a factor equal to the bottom tag annihilates the product, and the
        # bottom tag is the only non-float here, so after the identity test
        # only acc can still be a tag; it maps to IEEE +inf for comparison
        if x is POS_INF or y is POS_INF:
            return acc
        try:
            s = x + y
            return acc if acc <= s else s
        except TypeError:
            s = x + y if type(x) is float and type(y) is float else _pinf
            if (acc if type(acc) is float else _pinf) <= s:
                return acc
            return s

    return SemiringDescriptor(
        name=name, zero=POS_INF, one=0.0,
        add=add, mul=mul, star=star, leq=leq, eq=_eq_exact,
        coerce=coerce, fma=fma,
        flags=SemiringFlags(idempotent=True, complete=False,
                            commutative_mul=True, positive=True))


def _make_maxmin(lo, hi) -> SemiringDescriptor:
    name = "maxmin"
    flo = lo if isinstance(lo, Infinity) else float(lo)
    fhi = hi if isinstance(hi, Infinity) else float(hi)
    # IEEE infinities serve only as comparison sentinels for the fast path
    _clo = float("-inf") if flo is NEG_INF else flo
    _chi = float("inf") if fhi is POS_INF else fhi

    def coerce(v):
        if isinstance(v, Infinity):
            if v is flo or v is fhi:
                return v
            raise IllegalElement(f"{v!r} is outside [{flo},{fhi}]")
        v = _finite(v, name)
        if usual_leq(flo, v) and usual_leq(v, fhi):
            return v
        raise IllegalElement(f"{v!r} is outside [{flo},{fhi}]")

    def add(x, y):
        if type(x) is float and type(y) is float \
                and _clo <= x <= _chi and _clo <= y <= _chi:
            return x if x >= y else y
        x = coerce(x)
        y = coerce(y)
        return y if usual_leq(x, y) else x

    def mul(x, y):
        if type(x) is float and type(y) is float \
                and _clo <= x <= _chi and _clo <= y <= _chi:
            return x if x <= y else y
        x = coerce(x)
        y = coerce(y)
        return x if usual_leq(x, y) else y

    def star(x):
        coerce(x)
        return fhi

    def fma(acc, x, y):
        try:
            s = x if x <= y else y
            return acc if s <= acc else s
        except TypeError:
            # an infinity tag took part; keep acc on ties, as above
            m = x if usual_leq(x, y) else y
            return acc if usual_leq(m, acc) else m

    return SemiringDescriptor(
        name=name, zero=flo, one=fhi,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_exact,
        coerce=coerce, fma=fma, params=(flo, fhi),
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

    def fma(acc, x, y):
        return acc or (x and y)

    return SemiringDescriptor(
        name="boolean", zero=False, one=True,
        add=add, mul=mul, star=star, leq=leq, eq=_eq_exact,
        coerce=coerce, fma=fma,
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
        if type(x) is float and type(y) is float \
                and 0.0 <= x < _HUGE and 0.0 <= y < _HUGE:
            return x + y
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF or y is POS_INF:
            return POS_INF
        return x + y

    def mul(x, y):
        if type(x) is float and type(y) is float \
                and 0.0 <= x < _HUGE and 0.0 <= y < _HUGE:
            return x * y
        x = coerce(x)
        y = coerce(y)
        if x is POS_INF:
            return 0.0 if y == 0.0 else POS_INF
        if y is POS_INF:
            return 0.0 if x == 0.0 else POS_INF
        return x * y

    def star(x):
        x = coerce(x)
        if x is not POS_INF and x < 1.0:
            return 1.0 / (1.0 - x)
        if complete:
            return POS_INF
        raise StarUndefined(f"star needs x < 1 in {name}, got {x!r}", element=x)

    def fma(acc, x, y):
        try:
            return acc + x * y
        except TypeError:
            return add(acc, mul(x, y))

    return SemiringDescriptor(
        name=name, zero=0.0, one=1.0,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_close,
        coerce=coerce, fma=fma,
        flags=SemiringFlags(idempotent=False, complete=complete,
                            commutative_mul=True, positive=True))


def _make_real_field() -> SemiringDescriptor:
    name = "real_field"

    def coerce(v):
        return _finite(v, name)

    def add(x, y):
        if type(x) is float and type(y) is float \
                and math.isfinite(x) and math.isfinite(y):
            return x + y
        return coerce(x) + coerce(y)

    def mul(x, y):
        if type(x) is float and type(y) is float \
                and math.isfinite(x) and math.isfinite(y):
            return x * y
        return coerce(x) * coerce(y)

    def star(x):
        x = coerce(x)
        if x == 1.0:
            raise StarUndefined(f"star of 1 does not exist in {name}", element=x)
        return 1.0 / (1.0 - x)

    def fma(acc, x, y):
        try:
            return acc + x * y
        except TypeError:
            return add(acc, mul(x, y))

    return SemiringDescriptor(
        name=name, zero=0.0, one=1.0,
        add=add, mul=mul, star=star, leq=usual_leq, eq=_eq_close,
        coerce=coerce, fma=fma,
        flags=SemiringFlags(idempotent=False, complete=False,
                            commutative_mul=True, positive=False))


_HUGE = float("inf")


# ---------------------------------------------------------------- row kernels

class RowKernels(NamedTuple):
    """The row-level operations the matrix kernels run on.

    They act on kernel values: ``encode`` maps one row of carrier values
    into that form and ``decode`` maps one back, each as a new list.
    ``mul`` is the scalar product, ``dot(xrow, ycol)`` one entry of a
    matrix product, ``fold(acc, xrow, ycol)`` one entry of a substitution
    or factorization step, ``axpy(row, a, krow)`` the row ``row + a krow``
    of a Gauss-Jordan update and ``add_rows`` the entrywise sum.  Each
    equals its definition by the descriptor's operations bit for bit:
    ``fold`` the left fold over k of ``fma`` that starts from ``acc``
    (``acc`` itself for empty rows), ``dot`` the same fold started from
    ``mul(x[0], y[0])``, ``axpy`` one ``fma`` per entry and ``add_rows``
    one ``add`` per entry.  ``dot`` and ``fold`` run over ``zip(xrow,
    ycol)``, so the shorter row sets their length.  ``axpy`` may return
    ``row`` itself; no operation mutates a row.
    """
    encode: Callable
    decode: Callable
    mul: Callable
    dot: Callable
    fold: Callable
    axpy: Callable
    add_rows: Callable


def row_kernels(d: SemiringDescriptor) -> RowKernels:
    """The row kernels of ``d``.

    The six catalog instances whose values map onto IEEE floats or bools
    get kernels of their own, mostly loops that run in C; every other
    descriptor (the complete carriers, lifts, and any copy of a catalog
    instance, whose operations may have been replaced) gets the fold of
    its own ``fma``.
    """
    kernels = _kernels.get(d)
    return kernels if kernels is not None else _fold_kernels(d)


def kernel_star(d, kernels, v, location):
    """Kernel value of the star of kernel value ``v``.

    The pivot goes to ``d.star`` as a carrier value, so a failure reads
    as in the matrix; it gets ``location`` unless it has one already.
    """
    try:
        return kernels.encode([d.star(kernels.decode([v])[0])])[0]
    except StarUndefined as exc:
        if exc.location is None:
            exc.location = location
        raise


def _fold_decode(d):
    """decode of the fold kernels: a copy of the row, which rejects a
    float past the range, as the IEEE kernels' decode does.  No carrier
    holds an IEEE infinity or NaN, so such a float can only come from an
    operation that overflowed."""
    name = d.label
    # the endpoints of a lift's values are floats of its base carrier
    entries = chain.from_iterable if d.base is not None else iter

    def decode(row):
        for v in entries(row):
            if type(v) is float and not math.isfinite(v):
                raise IllegalElement(f"a result left the float range ({v!r}); "
                                     f"it is not a {name} element")
        return list(row)

    return decode


def _fold_kernels(d):
    mul, fma, add = d.mul, d.fma, d.add

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

    return RowKernels(list, _fold_decode(d), mul, dot, fold, axpy, add_rows)


def _codec(name, *tags, valid=None):
    """Row encode/decode between the given tags and IEEE infinities.

    With ``valid``, decode rejects a kernel value it calls false: a
    finite result that overflowed to an infinity the carrier has no tag
    for, or a NaN made from one.  A NaN or such an infinity also makes
    the sum of the row fail ``valid``, so one C-level ``sum`` screens
    the row and only a failing one is scanned entry by entry.
    """
    to_ieee = {t: math.copysign(math.inf, t.sign) for t in tags}
    to_tag = {v: t for t, v in to_ieee.items()}
    encode = (lambda row: [to_ieee.get(v, v) for v in row]) if tags else list
    untag = (lambda row: [to_tag.get(v, v) for v in row]) if tags else list
    if valid is None:
        return encode, untag

    def decode(row):
        if not valid(sum(row)):
            for v in row:
                if not valid(v):
                    raise IllegalElement(
                        f"a result left the float range ({v!r}); it is not "
                        f"a {name} element")
        return untag(row)

    return encode, decode


# In the tropical and maxmin kernels a row update by the zero returns the
# row unchanged, as the fold does: its fma hands back acc when a factor is
# the zero.  max and min keep the first of equal values, as fma keeps acc,
# so a fold puts acc first.

def _maxplus_kernels(d, _ninf=-math.inf):
    def axpy(row, a, krow):
        if a == _ninf:
            return row
        return [r if r >= (s := a + k) else s for r, k in zip(row, krow)]

    return RowKernels(*_codec(d.name, NEG_INF, valid=math.inf.__gt__), _add,
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

    return RowKernels(*_codec(d.name, POS_INF, valid=(-math.inf).__lt__), _add,
                      lambda xrow, ycol: min(map(_add, xrow, ycol)),
                      lambda acc, xrow, ycol:
                          min(chain((acc,), map(_add, xrow, ycol))),
                      axpy,
                      lambda xrow, yrow: [x if x <= y else y
                                          for x, y in zip(xrow, yrow)])


def _maxmin_kernels(d):
    # max and min only pick among their arguments, so every kernel value
    # is an input value and decode needs no range check
    encode, decode = _codec(d.name,
                            *(t for t in d.params if isinstance(t, Infinity)))
    zero = encode([d.zero])[0]

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

    return RowKernels(encode, decode, min, dot, fold, axpy,
                      lambda xrow, yrow: [x if x >= y else y
                                          for x, y in zip(xrow, yrow)])


def _boolean_kernels(d):
    def axpy(row, a, krow):
        return list(map(_or, row, krow)) if a else row

    return RowKernels(list, list, _and,
                      lambda xrow, ycol: any(map(_and, xrow, ycol)),
                      lambda acc, xrow, ycol: acc or any(map(_and, xrow, ycol)),
                      axpy,
                      lambda xrow, yrow: list(map(_or, xrow, yrow)))


def _field_kernels(d):
    # no shortcut for a zero factor: 0 * k is -0.0 for negative k, and
    # -0.0 + 0.0 is 0.0, so even a zero row update can change a sign.
    # reduce, not sum: sum compensates its rounding since Python 3.12
    return RowKernels(*_codec(d.name, valid=math.isfinite), _mul,
                      lambda xrow, ycol: reduce(_add, map(_mul, xrow, ycol)),
                      lambda acc, xrow, ycol:
                          reduce(_add, map(_mul, xrow, ycol), acc),
                      lambda row, a, krow: list(map(_add, row,
                                                    map(_mul, repeat(a), krow))),
                      lambda xrow, yrow: list(map(_add, xrow, yrow)))


_SPECIALISED = {"maxplus": _maxplus_kernels, "minplus": _minplus_kernels,
                "maxmin": _maxmin_kernels, "boolean": _boolean_kernels,
                "rplus": _field_kernels, "real_field": _field_kernels}
# catalog descriptor -> its specialised kernels; copies are not keys
_kernels: dict = {}

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
    return d
