"""The calibration kernel and the sampler that times it.

Job times are expressed in calibration units (``cu``).  On a small
shared machine the speed of the processor switches between states that
last from ten milliseconds to a second and differ by up to 2x.  So the
fixed calibration kernel (about 0.1 ms) runs five times just before and
just after every job and, from a ``SIGALRM`` timer in the same thread,
every 5 ms while a job runs.  A job's time, less the time those timer
samples took, is divided by the mean of the samples taken around and
during it: the calibration then sees the same mix of states as the job.

Set-up times are scaled the same way: the sampler runs while a fresh
process sets up, and its wall time is multiplied by ``REFERENCE_MS``
over the mean sample.  This module imports nothing from the program.
"""

import contextlib
import signal
import time

_CAL_N = 8
_CAL_C = [[float(-((i * 7 + j * 3) % 9) - 1) for j in range(_CAL_N)]
          for i in range(_CAL_N)]
_CAL_T = [[(v, v + 0.5) for v in row] for row in _CAL_C]


def _cal_fma(acc, x, y):
    if x is None or y is None:
        return acc
    try:
        s = x + y
        return acc if acc >= s else s
    except TypeError:
        return acc


def _cal_interval_fma(acc, x, y, _new=tuple.__new__):
    lo, hi = x[0] + y[0], x[1] + y[1]
    al, ah = acc
    if al >= lo:
        if ah >= hi:
            return acc
        lo = al
    elif hi <= ah:
        hi = ah
    return _new(tuple, (lo, hi))


def calibration_kernel():
    """Fixed pure-Python work shaped like the program's own kernels: a
    max-plus Gauss-Jordan sweep through a scalar accumulate function on an
    8 x 8 matrix, then half a sweep through an interval accumulate that
    builds tuples.  It shares no code with the program."""
    n = _CAL_N
    C = [row[:] for row in _CAL_C]
    for k in range(n):
        rowk, colk = C[k][:], [C[i][k] for i in range(n)]
        for i in range(n):
            a, rowi = colk[i], C[i]
            for j in range(n):
                rowi[j] = _cal_fma(rowi[j], a, rowk[j])
    T = [row[:] for row in _CAL_T]
    for k in range(n // 2):
        rowk = T[k][:]
        for rowi in T:
            a = rowi[k]
            for j in range(n):
                rowi[j] = _cal_interval_fma(rowi[j], a, rowk[j])
    return C, T


CAL_PERIOD_S = 0.005
BOUNDARY_SAMPLES = 5     # one sample is noisy by about 5 %
# the kernel's time at the fast speed of a 2-core Xeon; set-up seconds
# are reported as they would be at that speed
REFERENCE_MS = 0.1


class Calibrator:
    """Calibration samples: on request, and every ``CAL_PERIOD_S`` from a
    ``SIGALRM`` timer while ``running``.  Samples are (start ns, ms)."""

    def __init__(self):
        self.samples = []
        self._busy = False

    def sample(self, times=1):
        self._busy = True
        for _ in range(times):
            start = time.perf_counter_ns()
            calibration_kernel()
            self.samples.append((start, (time.perf_counter_ns() - start) / 1e6))
        self._busy = False

    def _on_timer(self, signum, frame):
        if not self._busy:       # a timer sample must not land inside another
            self.sample()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
