"""One worker process for two runs of one job.

``split_job(run, d, items, cut, work, arg)`` is the one way a job goes
to the worker.  A job is a list of items that one module-level function
``run`` handles in order, and the results of two runs on two parts of
the list join with ``+`` into the result of one run on all of it.  The
items are rows, the bottom ones shipped: of a matrix product, and the
row stripes of the Gauss-Jordan closure, of the LDM factorization and
of the inverse of E - A over the real field with partial pivoting by
columns (``graphs.real_matrix_star``).  Or they are two parts, the
second shipped: the product pairs of the block closure
(``matrices._products``), the two cyclic stripes of the elimination
that finds a least solution (``closure._solve``) and the two endpoint
runs of a lifted call (``intervals.endpoint_runs``).

The rule, stated once: the whole job runs here, as the serial loop,
unless its work reaches ``SHIP_MIN_WORK``, ``cut`` is strictly inside
the items and ``_ship`` takes the run; and it is redone here, whole,
when the worker is lost or either run raised an ``Exception``.  So a
job that fails raises what the serial loop meets first, and the runs
carry no failure to each other; and a run never writes the items it is
given, which the redo reads again.  A run that raises ends the worker: the caller stops it when
its own run raised, and the worker exits when its run did, so that the
caller's next ``recv``, ``send`` or reply fails.  Neither side ever
waits on the other.  A failing job so costs its serial redo, and the
worker that it ended a fork at the next call that ships: a maxplus
Gauss-Jordan at n = 64 whose pivot 41 fails took a median 29 ms against
9 ms when the stripes passed their failures to each other, and 45
against 21 ms together with the next good call (two Xeon CPUs).  That
is the price of one code path for every failure; no benchmark workload
ships a job that fails.

``run`` is the same module-level function on the same values wherever
it runs, so its result is the same bit for bit.

The worker is forked at the first call that ships, never at import.
Where the caller may run on two CPUs or more, the worker keeps to one
of them and the calling thread keeps off it while a call waits on the
worker.  Left to itself, the scheduler may wake the worker on the
caller's CPU and leave both there for many calls, which then run their
two runs one after the other.
"""

import _thread
import os

from .semirings import in_catalog

__all__ = ["split_job", "SHIP_MIN_WORK"]


# A run goes to the worker when its work is at least this many base
# operations, up to a constant factor; below it, shipping the operands
# and the result costs more than it saves.
SHIP_MIN_WORK = 16384

_worker = None                      # this process's worker, once started
_busy = _thread.allocate_lock()     # held by the call that uses the worker


def split_job(run, d, items, cut, work, arg=None):
    """``run(None, d, items, 0, arg)``, the whole job here; or, when
    ``work`` reaches ``SHIP_MIN_WORK``, ``0 < cut < len(items)`` and
    ``_ship`` takes the run, ``run(peer, d, items[:cut], 0, arg)`` here
    and ``run(peer, d, items[cut:], cut, arg)`` on the worker at once,
    joined with ``+``, unless the worker was lost (``_Worker.reply``)
    or either run raised an ``Exception``, when the whole job runs here.

    ``run`` is a module-level function and ``work`` its cost in base
    operations over the descriptor ``d``; ``peer`` is each run's end of
    one pipe.  A run that talks to the other sends what it needs with
    ``peer.send`` and takes what it needs with ``peer.recv``, and must
    leave nothing unread behind it when it returns; one that does not
    ignores ``peer``.  An exception in the run here stops the worker,
    which may wait on it; one that is not an ``Exception``, such as an
    interrupt, is raised.
    """
    if work >= SHIP_MIN_WORK and 0 < cut < len(items):
        worker = _ship(run, (d, items[cut:], cut, arg), work, d)
        if worker is not None:
            try:
                mine = run(worker.conn, d, items[:cut], 0, arg)
            except BaseException as exc:
                worker.stop()
                worker.release()
                if not isinstance(exc, Exception):
                    raise
            else:
                theirs = worker.reply()
                if theirs is not None:
                    return mine + theirs
    return run(None, d, items, 0, arg)


def _ship(run, args, work, d):
    """The worker, running ``run(its end of the pipe, *args)`` for this
    call; or None when the run stays in this process, the one list of
    those cases:

    - ``work`` is below ``SHIP_MIN_WORK``;
    - this system has no fork;
    - ``d`` is None or not a catalog instance (only those pickle);
    - another call holds the worker: another thread's, or a lifted call
      whose own products would otherwise wait on it; so does every run
      inside the worker itself, whose copy of ``_busy`` stays held;
    - the calling thread may use only one CPU (the worker would only
      take turns with it);
    - the worker died (the next call that ships starts a new one);
    - the worker belongs to the process this one was forked from.
    """
    global _worker
    if (work < SHIP_MIN_WORK
            or not hasattr(os, "fork")
            or d is None or not in_catalog(d)
            or not _busy.acquire(blocking=False)):
        return None
    try:
        # read once the worker is ours: a call that holds it has kept
        # its thread off a CPU (keep_off)
        if not _one_cpu():
            if _worker is None:
                _worker = _Worker()
            if _worker.pid == os.getpid():
                _worker.conn.send((run, args))
                _worker.keep_off()
                return _worker
    except OSError:         # no worker could start, or it died
        if _worker is not None:
            _worker.stop()
    except Exception:       # noqa: BLE001 - a run or value that does not pickle
        pass
    _busy.release()
    return None


class _Worker:
    """One forked process that runs the shipped runs, one call at a time,
    for the process that started it.

    It starts at the first call that ships, never at import.  The fork
    copies the imported modules, so a run and its arguments travel as
    pickles: a function by its name, a catalog descriptor as its
    ``make_semiring`` call.  The fork happens while ``_busy`` is held, so
    the worker's copy of it stays held and nothing the worker runs ships.
    """

    def __init__(self):
        # imported here, not with this module: they cost ~20 ms.  signal
        # is for _serve: the forked worker should import nothing, as
        # another thread of this process may hold an import lock
        import multiprocessing
        import signal   # noqa: F401
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.cpu = _worker_cpu()
        self.restore = None     # the calling thread's CPUs, while kept off
        self.process = ctx.Process(target=_serve,
                                   args=(child, self.conn, self.cpu),
                                   daemon=True)
        self.process.start()
        child.close()
        self.pid = os.getpid()
        # not one of multiprocessing's children: at exit it terminates and
        # joins those, also in a copy of this process made by os.fork,
        # which would kill this worker and fail to join it.  The worker
        # leaves by itself when this process closes its end of the pipe.
        multiprocessing.process._children.discard(self.process)

    def reply(self):
        """The worker's reply to this call, freeing the worker: the
        result of the shipped run, or None when the worker died or ended
        (its run raised), could not take the run, or replied what does
        not unpickle."""
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
            self.release()
        return got

    def keep_off(self):
        """Keep the calling thread off the worker's CPU until ``release``."""
        if self.cpu is None:
            return
        try:
            cpus = os.sched_getaffinity(0)
            if self.cpu in cpus and len(cpus) > 1:
                os.sched_setaffinity(0, cpus - {self.cpu})
                self.restore = cpus
        except OSError:         # the CPU set changed under us: stay as is
            pass

    def release(self):
        """Give the calling thread its CPUs back and free the worker for
        the next call."""
        cpus, self.restore = self.restore, None
        try:
            if cpus is not None:
                os.sched_setaffinity(0, cpus)
        except OSError:
            pass
        finally:
            _busy.release()

    def stop(self):
        """End the worker; the next call that ships starts another."""
        global _worker
        _worker = None
        self.process.kill()
        self.process.join()


def _cpus():
    """The CPUs the calling thread may use, or None where the system
    cannot say."""
    try:
        return os.sched_getaffinity(0)
    except (AttributeError, OSError):
        return None


def _one_cpu():
    """True when the calling thread may use only one CPU."""
    cpus = _cpus()
    return cpus is not None and len(cpus) < 2


def _worker_cpu():
    """The CPU the worker keeps to: the highest the calling thread may
    use, or None where it may use only one or the system cannot say."""
    cpus = _cpus()
    return max(cpus) if cpus is not None and len(cpus) > 1 else None


def _serve(conn, parent_end, cpu):
    """The worker's loop: take (run, args), reply ``run(conn, *args)``,
    or None for a message it could not take or a reply it could not
    send.  It ends, quietly, when the caller's end of the pipe closes,
    and when a run raises: the caller may wait on a message of that run,
    and learns of the failure when the pipe closes."""
    import signal       # loaded already, by _Worker
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
    try:
        while True:
            try:
                run, args = conn.recv()
            except (EOFError, OSError):
                break
            except Exception:   # noqa: BLE001 - the caller redoes the job
                conn.send(None)
                continue
            result = run(conn, *args)   # if it raises, the worker ends
            try:
                conn.send(result)
            except OSError:
                break
            except Exception:   # noqa: BLE001 - the caller redoes the job
                conn.send(None)
    finally:
        os._exit(0)
