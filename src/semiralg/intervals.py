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

The two endpoint runs are independent.  ``endpoint_runs`` sends the hi
run to one worker process, forked at the first call that ships and
never at import, and runs the lo run meanwhile.  The hi run stays in
this process when its work is below ``SHIP_MIN_WORK`` (about n = 25
for a closure or a factorization), when the base is not a catalog
instance, when another thread's call holds the worker, when the worker
has died (the next call starts a new one), in a process forked from
the one that started it, and where there is no fork.  Both runs call
the same module-level function on the same values, so results are the
same bit for bit wherever the hi run goes.
"""

import _thread
import os
from typing import NamedTuple

from .errors import EmptyInterval, IllegalElement, NotPositive, StarUndefined
from .matrices import Matrix, _matrix_product, _split_products
from .semirings import SemiringDescriptor, SemiringFlags, in_catalog

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
    """``[run(*lo_args, counter=counter), run(*hi_args)]``.

    ``run`` is a module-level function.  Each argument that is a Matrix
    over a lift stands for its endpoint, a Matrix over the base; a list
    or tuple of intervals for the list of its endpoint values; any other
    argument goes to both runs as it is.  ``run`` must not branch on
    values.  Only the lo run gets ``counter``, so it tallies one
    operation per interval operation.  A lifted run stops at the first
    pivot where either endpoint star fails, the lo endpoint first; so
    when both runs fail at a pivot, the failure with the earlier
    location is raised, the lo run's on a tie.  Any other failure is
    raised before those, the lo run's first.

    The two runs are independent, so the hi run goes to a worker
    process (see ``_ship``) while the lo run runs here.  Both run the
    same function on the same values, so results are the same bit for
    bit wherever the hi run goes.
    """
    hi = [_endpoint(a, 1) for a in args]
    worker = _ship(run, hi, args)
    try:
        outcomes = [_attempt(run, [_endpoint(a, 0) for a in args], counter)]
    except BaseException:
        if worker is not None:      # its reply would reach the next call
            worker.stop()
            _busy.release()
        raise
    outcomes.append(_attempt(run, hi) if worker is None
                    else worker.outcome(run, hi))
    failures = [exc for _, exc in outcomes if exc is not None]
    if failures:
        others = [exc for exc in failures if not isinstance(exc, StarUndefined)]
        raise others[0] if others else min(failures, key=lambda exc: exc.location)
    return [result for result, _ in outcomes]


def _endpoint(a, end):
    if isinstance(a, Matrix):
        return Matrix._wrap(a.descriptor.base,
                            [[v[end] for v in row] for row in a._data])
    if isinstance(a, (list, tuple)):
        return [v[end] for v in a]
    return a


def _attempt(run, args, counter=None):
    """(result, None), or (None, the exception) when ``run`` raised one."""
    try:
        return (run(*args) if counter is None
                else run(*args, counter=counter)), None
    except Exception as exc:    # noqa: BLE001 - endpoint_runs picks which to raise
        return None, exc


# A hi run goes to the worker when its work is at least this many base
# operations, up to a constant factor (see ``_ship``); below it, shipping
# the operands and the result costs more than it saves.
SHIP_MIN_WORK = 16384

_worker = None                      # this process's worker, once started
_busy = _thread.allocate_lock()     # held by the call that uses the worker


def _ship(run, args, operands):
    """The worker, running ``run(*args)`` for this call, or None when the
    hi run stays in this process: when the work is small, this system
    has no fork, the base is not a catalog instance (only those pickle),
    the worker serves another thread's call, or it belongs to the process
    this one was forked from.

    The work is the entries of the first operand, a matrix, times the
    columns of the last one (one for a vector): n^3 for a closure or a
    factorization, n k m for a product, n^2 for a substitution, and none
    for a diagonal solve, whose operands are vectors.
    """
    global _worker
    split = [a for a in operands if isinstance(a, (Matrix, list, tuple))]
    first, last = split[0], split[-1]
    if (not isinstance(first, Matrix)
            or first.rows * first.cols * (last.cols if isinstance(last, Matrix)
                                          else 1) < SHIP_MIN_WORK
            or not hasattr(os, "fork")
            or not in_catalog(first.descriptor.base)
            or not _busy.acquire(blocking=False)):
        return None
    try:
        if _worker is None:
            _worker = _Worker()
        if _worker.pid == os.getpid():
            _worker.conn.send((run, args))
            return _worker
    except OSError:         # no worker could start, or it died
        if _worker is not None:
            _worker.stop()
    except Exception:       # noqa: BLE001 - a run or value that does not pickle
        pass
    _busy.release()
    return None


class _Worker:
    """One forked process that runs the hi endpoint runs of lifted calls,
    one call at a time, for the process that started it.

    It starts at the first call that ships, never at import.  The fork
    copies the imported modules, so a run and its arguments travel as
    pickles: a function by its name, a catalog descriptor as its
    ``make_semiring`` call.
    """

    def __init__(self):
        # imported here, not with this module: they cost ~20 ms.  signal
        # is for _serve: the forked worker should import nothing, as
        # another thread of this process may hold an import lock
        import multiprocessing
        import signal   # noqa: F401
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(target=_serve, args=(child, self.conn),
                                   daemon=True)
        self.process.start()
        child.close()
        self.pid = os.getpid()
        # not one of multiprocessing's children: at exit it terminates and
        # joins those, also in a copy of this process made by os.fork,
        # which would kill this worker and fail to join it.  The worker
        # leaves by itself when this process closes its end of the pipe.
        multiprocessing.process._children.discard(self.process)

    def outcome(self, run, args):
        """The outcome of the shipped run; ``run(*args)`` run here when
        the worker died or could not run it."""
        try:
            got = self.conn.recv()
        except (EOFError, OSError):
            self.stop()
            got = None
        except Exception:       # noqa: BLE001 - a reply that does not unpickle
            got = None
        except BaseException:
            self.stop()
            raise
        finally:
            _busy.release()
        return _attempt(run, args) if got is None else got

    def stop(self):
        """End the worker; the next call that ships starts another."""
        global _worker
        _worker = None
        self.process.kill()
        self.process.join()


def _serve(conn, parent_end):
    """The worker's loop: take (run, args), reply (result, exception), or
    None for a message it could not take or a reply it could not send.
    It ends, quietly, when the caller's end of the pipe closes."""
    import signal       # loaded already, by _Worker
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while True:
            try:
                run, args = conn.recv()
                conn.send(_attempt(run, args))
            except (EOFError, OSError):
                break
            except Exception:   # noqa: BLE001 - the caller runs it instead
                conn.send(None)
    finally:
        os._exit(0)


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
    # one canonical zero object, shared by every zero-valued entry, so
    # kernels can recognize it with a single identity test
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
