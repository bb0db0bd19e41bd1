"""Order-interval lift of a positive semiring.

``lift_semiring(base)`` returns a full descriptor whose carrier is the
set of closed intervals [lo, hi] of the base carrier, lo below hi in
the base's canonical order, with every operation applied endpoint by
endpoint.  Positivity of the base makes the endpoint-wise operations
coincide with the set-image operations on intervals, so the lift is
again a semiring and every matrix algorithm runs on it unchanged.

Because every lifted operation acts on each endpoint separately, a
matrix algorithm that never branches on values computes, on an
interval matrix, exactly the pair of its base runs on the lo and on
the hi matrix.  The closures, factorizations and substitutions use
that, and so does the matrix product: ``endpoint_runs`` runs a kernel
once per endpoint and ``join_endpoints`` zips the two results back
into intervals.  The lifted ``fma`` (two base accumulates) serves
everything else.
"""

from typing import NamedTuple

from .errors import EmptyInterval, IllegalElement, NotPositive, StarUndefined
from .matrices import Matrix, _matrix_product, _split_products
from .semirings import SemiringDescriptor, SemiringFlags

__all__ = ["Interval", "make_interval", "contains", "lift_semiring"]


class Interval(NamedTuple):
    """Closed interval of a base carrier: all v with lo <= v <= hi."""
    lo: object
    hi: object


def make_interval(base: SemiringDescriptor, lo, hi) -> Interval:
    """Validate endpoints against the base and their mutual order."""
    lo = base.coerce(lo)
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
    if not base.flags.positive:
        raise NotPositive(
            f"interval lift needs a positive base semiring, got {base.label}")
    lifted = _lift_cache.get(base)
    if lifted is None:
        lifted = _build_lift(base)
        _lift_cache[base] = lifted
        _split_products[lifted] = _split_product
    return lifted


def is_lift(d: SemiringDescriptor) -> bool:
    """True for a descriptor built by ``lift_semiring`` itself.

    Only its operations are known to act endpoint by endpoint; a copy
    with some operation replaced keeps the generic lifted path.
    """
    return d.base is not None and _lift_cache.get(d.base) is d


def endpoint_runs(run, *args, counter=None):
    """``[run(*lo_args, counter), run(*hi_args, None)]``.

    Each argument is a Matrix over a lift, whose endpoint is a Matrix
    over the base, or a sequence of intervals, whose endpoint is a list
    of base values.  ``run`` must not branch on values.  Only the lo
    run gets ``counter``, so it tallies one operation per interval
    operation.  A lifted run stops at the first pivot where either
    endpoint star fails, the lo endpoint first; so when a run fails,
    the failure with the earlier location is raised, the lo run's on a
    tie.
    """
    results, failures = [], []
    for end, tally in ((0, counter), (1, None)):
        ends = [Matrix._wrap(a.descriptor.base,
                             [[v[end] for v in row] for row in a._data])
                if isinstance(a, Matrix) else [v[end] for v in a]
                for a in args]
        try:
            results.append(run(*ends, tally))
        except StarUndefined as exc:
            failures.append(exc)
    if failures:
        raise min(failures, key=lambda exc: exc.location)
    return results


def join_endpoints(d: SemiringDescriptor, lo, hi):
    """Zip lo and hi base results into values of the lift ``d``.

    Two matrices give a Matrix over ``d``, two sequences a list.  An
    all-zero pair becomes the lift's one zero object, as the lifted
    operations return it.
    """
    if isinstance(lo, Matrix):
        return Matrix._wrap(d, [join_endpoints(d, a, b)
                                for a, b in zip(lo._data, hi._data)])
    # == is base.is_zero without its call: a tag equals only itself
    zero, bzero, new = d.zero, d.base.zero, tuple.__new__
    return [zero if b == bzero and a == bzero else new(Interval, (a, b))
            for a, b in zip(lo, hi)]


def _split_product(A: Matrix, B: Matrix) -> Matrix:
    return join_endpoints(A.descriptor, *endpoint_runs(
        lambda X, Y, _: _matrix_product(X, Y), A, B))


def _build_lift(base: SemiringDescriptor) -> SemiringDescriptor:
    badd, bmul, bstar = base.add, base.mul, base.star
    bleq, beq, bcoerce = base.leq, base.eq, base.coerce
    bis_zero = base.is_zero
    label = base.label
    # one canonical zero object, shared by every zero-valued entry, so
    # kernels can recognize it with a single identity test
    zero = Interval(base.zero, base.zero)

    def _canon(lo, hi):
        if bis_zero(lo) and bis_zero(hi):
            return zero
        return Interval(lo, hi)

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
        coerce=coerce, fma=_generic_fma(base.fma, zero), base=base,
        flags=SemiringFlags(idempotent=base.flags.idempotent,
                            complete=base.flags.complete,
                            commutative_mul=base.flags.commutative_mul,
                            positive=True))


def _generic_fma(bfma, _zero):
    # two base accumulates; handing back acc itself when neither endpoint
    # moved relies on the base fma returning its own acc in that case
    def fma(acc, x, y, _new=tuple.__new__, _I=Interval):
        if x is _zero or y is _zero:
            return acc
        lo = bfma(acc[0], x[0], y[0])
        hi = bfma(acc[1], x[1], y[1])
        if lo is acc[0] and hi is acc[1]:
            return acc
        return _new(_I, (lo, hi))
    return fma
