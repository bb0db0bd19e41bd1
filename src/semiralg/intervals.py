"""Order-interval lift of a positive semiring.

``lift_semiring(base)`` returns a full descriptor whose carrier is the
set of closed intervals [lo, hi] of the base carrier, lo below hi in
the base's canonical order, with every operation applied endpoint by
endpoint.  Positivity of the base makes the endpoint-wise operations
coincide with the set-image operations on intervals, so the lift is
again a semiring and every matrix algorithm runs on it unchanged.  The
lifted ``fma`` is ``add(acc, mul(x, y))`` (``semirings.fma_of``), so
every kernel that runs on the intervals themselves runs the fold of the
lifted operations, the lifted fold: the sums of the iterative closure,
the substitutions and every counted call (``ldm.counted``).

Because every lifted operation acts on each endpoint separately, a
matrix algorithm written on the semiring operations alone computes, on
an interval matrix, exactly the pair of its base runs on the lo and on
the hi matrix.  A base run may compute that function another way, as
the maxmin sweep does, which branches on values.  ``lifted(run, A,
*args)`` is the one way to run such a call: the two endpoint runs of
``run`` (``endpoint_runs``), joined back into intervals
(``join_endpoints``).  Both closures, both factorizations and the
matrix product run so over a lift.  The runs cannot tell which of their
failures came first, so when one fails, ``run`` runs once more on a
plain copy of the lift, the lifted fold, and the call raises what the
fold meets first.

The two endpoint runs are independent: the hi run goes to the worker
process of ``offload.split_job`` while the lo run runs here, and when
it stays here, both run here, lo first.  The lifted call holds the
worker while its runs last, so the block products and the stripes of
its runs stay in their process.  Both runs call the same module-level
function on the same values, so results are the same bit for bit
wherever the hi run goes.
"""

from dataclasses import fields, is_dataclass, replace
from itertools import repeat
from typing import NamedTuple

from .errors import (EmptyInterval, IllegalElement, NotPositive, SemiringError,
                     _require_type)
from .matrices import Matrix, _lifted_calls
from .offload import split_job
from .semirings import SemiringDescriptor, SemiringFlags, fma_of

__all__ = ["Interval", "make_interval", "contains", "lift_semiring"]


class Interval(NamedTuple):
    """Closed interval of a base carrier: all v with lo <= v <= hi."""
    lo: object
    hi: object


def make_interval(base: SemiringDescriptor, lo, hi) -> Interval:
    """Validate endpoints against the base and their mutual order."""
    lo = _require_type(base, SemiringDescriptor, "base").coerce(lo)
    hi = base.coerce(hi)
    if not base.leq(lo, hi):
        raise EmptyInterval(
            f"empty interval over {base.label}: {lo!r} does not precede {hi!r}")
    return Interval(lo, hi)


def contains(base: SemiringDescriptor, iv, v) -> bool:
    """Membership of a base element in the interval, per canonical order."""
    lo, hi = iv
    v = base.coerce(v)
    return base.leq(lo, v) and base.leq(v, hi)


_lift_cache: dict = {}


def lift_semiring(base: SemiringDescriptor) -> SemiringDescriptor:
    """Interval semiring over ``base``; requires a positive base.

    Cached per base descriptor, so repeated lifts share one instance.
    """
    if not _require_type(base, SemiringDescriptor, "base").flags.positive:
        raise NotPositive(
            f"interval lift needs a positive base semiring, got {base.label}")
    lift = _lift_cache.get(base)
    if lift is None:
        lift = _build_lift(base)
        _lift_cache[base] = lift
        _lifted_calls[lift] = lifted
    return lift


def is_lift(d: SemiringDescriptor) -> bool:
    """True for a descriptor built by ``lift_semiring`` itself.

    Only its operations are known to act endpoint by endpoint; a copy
    with some operation replaced keeps the generic lifted path.
    """
    return d.base is not None and _lift_cache.get(d.base) is d


def lifted(run, A: Matrix, *args):
    """``run(A, *args)`` for a matrix A over a lift: the two endpoint
    runs joined back into intervals.  When one raises a
    ``SemiringError``, ``run`` runs on a plain copy of the lift, the
    lifted fold, and raises what the fold meets first.  The fold meets
    every value that the endpoint runs meet, so it fails too; were it to
    get through, the endpoint run's failure is raised."""
    d = A.descriptor
    try:
        return join_endpoints(d, *endpoint_runs(run, A, *args))
    except SemiringError:
        run(Matrix._wrap(replace(d), A._data), *args)
        raise


def endpoint_runs(run, A: Matrix, *args):
    """``[run(*lo_args), run(*hi_args)]`` for a matrix A over a lift.

    ``run`` is a module-level function whose result is, value for value,
    the function of the entries that the lifted fold computes on each
    endpoint, so a monotone function of them: the lo result lies below
    the hi one, entry by entry.  It may branch on values to get there,
    as the maxmin sweep does.  A and each argument that is a Matrix
    stand for their endpoint, a Matrix over the base; any other argument
    goes to both runs as it is.  Its work for ``offload.split_job`` is the entries of A times
    the columns of the last matrix: n^3 for a closure or a
    factorization, n k m for a product.
    """
    ends = (A, *args)
    last = [a for a in ends if isinstance(a, Matrix)][-1]
    return split_job(_runs, A.descriptor.base,
                     [ends, [_endpoint(a, 1) for a in ends]],
                     1, A.rows * A.cols * last.cols, run)


def _runs(peer, d, ends, lo, run):
    """``run(*args)`` for each argument list of ``ends``, in order.  The
    lo run's come over the lift: it takes their lo endpoints once the hi
    run has shipped (split before the ship, they cost a lifted solve at
    n = 48 some 2 % of its time)."""
    if lo == 0:
        ends = [[_endpoint(a, 0) for a in ends[0]], *ends[1:]]
    return [run(*args) for args in ends]


def _endpoint(a, end):
    if isinstance(a, Matrix):
        return Matrix._wrap(a.descriptor.base,
                            [[v[end] for v in row] for row in a._data])
    return a


def join_endpoints(d: SemiringDescriptor, lo, hi):
    """Zip lo and hi base results into values of the lift ``d``.

    Two matrices give a Matrix over ``d``, two ``LdmTriple``s the triple
    of their joined fields, and two sequences a tuple.  An all-zero pair
    becomes the lift's one zero object, as the lifted operations return
    it.
    """
    if isinstance(lo, Matrix):
        return Matrix._wrap(d, [_joined(d, a, b)
                                for a, b in zip(lo._data, hi._data)])
    if is_dataclass(lo):
        return type(lo)(*[join_endpoints(d, getattr(lo, f.name),
                                         getattr(hi, f.name))
                          for f in fields(lo)])
    return tuple(_joined(d, lo, hi))


def _joined(d, lo, hi):
    # == is base.is_zero without its call: a tag equals only itself.  A
    # row whose hi endpoints hold no zero holds no zero pair, and its
    # intervals are made at C level, about a quarter faster dense
    zero, bzero, new = d.zero, d.base.zero, tuple.__new__
    if bzero not in hi:
        return list(map(new, repeat(Interval), zip(lo, hi)))
    return [zero if b == bzero and a == bzero else new(Interval, (a, b))
            for a, b in zip(lo, hi)]


def _build_lift(base: SemiringDescriptor) -> SemiringDescriptor:
    badd, bmul, bstar = base.add, base.mul, base.star
    bleq, beq, bcoerce = base.leq, base.eq, base.coerce
    bzero, label = base.zero, base.label
    # one canonical zero object, shared by every zero-valued entry: the
    # one form of a zero pair, which is_zero finds by identity first
    zero = Interval(bzero, bzero)

    def _canon(lo, hi, _new=tuple.__new__):
        # == is base.is_zero without its call: a tag equals only itself
        if lo == bzero and hi == bzero:
            return zero
        return _new(Interval, (lo, hi))

    def coerce(v):
        if type(v) is Interval:
            lo, hi = v
        elif isinstance(v, (tuple, list)) and len(v) == 2:
            lo, hi = v
        else:
            raise IllegalElement(f"{v!r} is not an interval over {label}")
        lo = bcoerce(lo)
        hi = bcoerce(hi)
        if not bleq(lo, hi):
            raise EmptyInterval(
                f"empty interval over {label}: {lo!r} does not precede {hi!r}")
        return _canon(lo, hi)

    def add(x, y):
        x = coerce(x)
        y = coerce(y)
        return _canon(badd(x[0], y[0]), badd(x[1], y[1]))

    def mul(x, y):
        x = coerce(x)
        y = coerce(y)
        return _canon(bmul(x[0], y[0]), bmul(x[1], y[1]))

    def star(x):
        x = coerce(x)
        # endpoint star keeps the order: star is monotone on its domain
        # in every shipped positive base
        return Interval(bstar(x[0]), bstar(x[1]))

    def leq(x, y):
        return bleq(x[0], y[0]) and bleq(x[1], y[1])

    def eq(x, y):
        return beq(x[0], y[0]) and beq(x[1], y[1])

    return SemiringDescriptor(
        name="interval", zero=zero,
        one=Interval(base.one, base.one),
        add=add, mul=mul, star=star, leq=leq, eq=eq,
        coerce=coerce, fma=fma_of(add, mul),
        base=base,
        flags=SemiringFlags(idempotent=base.flags.idempotent,
                            complete=base.flags.complete,
                            commutative_mul=base.flags.commutative_mul,
                            positive=True))

