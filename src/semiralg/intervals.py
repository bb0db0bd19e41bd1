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
into intervals.  The lifted ``fma`` is ``add(acc, mul(x, y))``
(``semirings.fma_of``), for the scalar API, the law checker and copies
of a lift, such as the counted copies of ``ldm.counted``, whose
operations may have been replaced and which therefore run the fold
kernels on the intervals themselves.

The two endpoint runs are independent.  ``endpoint_runs`` sends the hi
run to the package's one worker process (``offload.side_by_side``,
which also serves the block closure's products and the row stripes of
the Gauss-Jordan closure, the partial-sum closure and the LDM
factorization) and runs the lo run meanwhile.  The cases in which the hi run
stays in this process are those of ``offload._ship``; then, and when
the worker was lost, both runs run here, lo first.  The lifted call
holds the worker while its runs last, so the block products and the
stripes of its runs stay in their process.  Both runs call the same
module-level function on the same values, so results are the same bit
for bit wherever the hi run goes.
"""

from typing import NamedTuple

from .errors import EmptyInterval, IllegalElement, NotPositive
from .matrices import Matrix, _matrix_product, _split_products
from .offload import _attempt, results, side_by_side
from .semirings import SemiringDescriptor, SemiringFlags, fma_of

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


def endpoint_runs(run, *args):
    """``[run(*lo_args), run(*hi_args)]``.

    ``run`` is a module-level function.  Each argument that is a Matrix
    over a lift stands for its endpoint, a Matrix over the base; a list
    or tuple of intervals for the list of its endpoint values; any other
    argument goes to both runs as it is.  ``run`` must not branch on
    values.  A lifted run stops at the first pivot where either
    endpoint star fails, the lo endpoint first; so when both runs fail
    at a pivot, the failure with the earlier location is raised, the lo
    run's on a tie.  Any other failure is raised before those, the lo
    run's first.

    The two runs are independent, so the hi run goes to the worker
    process of ``offload.side_by_side`` while the lo run runs here.  Its
    work is the entries of the first operand, a matrix, times the
    columns of the last one (one for a vector): n^3 for a closure or a
    factorization, n k m for a product, n^2 for a substitution, and
    none for a diagonal solve, whose operands are vectors.
    """
    split = [a for a in args if isinstance(a, (Matrix, list, tuple))]
    first, last = split[0], split[-1]
    work, base = 0, None        # a diagonal solve stays here
    if isinstance(first, Matrix):
        work = first.rows * first.cols * (last.cols
                                          if isinstance(last, Matrix) else 1)
        base = first.descriptor.base

    def lo_run(peer):
        return run(*[_endpoint(a, 0) for a in args])

    hi = [_endpoint(a, 1) for a in args]
    return results(side_by_side(lo_run, _peerless, (run, *hi), work, base)
                   or [_attempt(lo_run, (None,)), _attempt(run, hi)])


def _peerless(peer, run, *args):
    """``run(*args)``, shipped: a hi run does not talk to the lo run."""
    return run(*args)


def _endpoint(a, end):
    if isinstance(a, Matrix):
        return Matrix._wrap(a.descriptor.base,
                            [[v[end] for v in row] for row in a._data])
    if isinstance(a, (list, tuple)):
        return [v[end] for v in a]
    return a


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
    return join_endpoints(A.descriptor, *endpoint_runs(_matrix_product, A, B))


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

