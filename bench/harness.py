"""Closed-loop timing of jobs, the calibration kernel, and result records.

One caller runs the jobs one after another in the main thread.  Each
job is timed alone: ``gc.collect()`` runs before it, outside the timed
region, and the collector stays enabled while it runs, because users
pay for it.

Job times are expressed in calibration units (``cu``); see ``calib``.
"""

import gc
import hashlib
import json
import math
import statistics
import time
from collections import defaultdict

from semiralg import NEG_INF, POS_INF, IterativeClosure, LdmTriple, Matrix

from calib import BOUNDARY_SAMPLES, Calibrator

# ---------------------------------------------------------------- results

def token(v):
    if v is NEG_INF:
        return "-inf"
    if v is POS_INF:
        return "inf"
    if isinstance(v, tuple):
        return [token(v[0]), token(v[1])]
    return v


def plain(result):
    """The JSON-shaped form of a job result, as the oracles read it."""
    if isinstance(result, Matrix):
        return [[token(v) for v in row] for row in result.to_lists()]
    if isinstance(result, LdmTriple):
        return {"l": plain(result.L), "d": [token(v) for v in result.D],
                "m": plain(result.M)}
    if isinstance(result, IterativeClosure):
        return {"matrix": plain(result.matrix), "iterations": result.iterations,
                "truncated": result.truncated}
    if isinstance(result, tuple):        # a CLI run: (exit code, stdout)
        return {"exit": result[0], "stdout": result[1]}
    return [token(v) for v in result]   # a solution vector


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def job_percentile(records, q, field="cu"):
    """Percentile over the jobs of one round, each job taken as the median
    over the run of its own time.

    Every round runs the same R jobs (the same kind, carrier and size at
    each position), so each position has one sample per round.  Its
    median is a steady time for that job; the percentile is then taken
    over the R positions, interpolating linearly between neighbours.  A
    percentile over the pooled samples instead would hang on single
    noisy samples at the edges of clusters of equal-cost jobs, and on
    how many rounds fitted the time.
    """
    by_slot = defaultdict(list)
    for rec in records:
        by_slot[rec.slot[1]].append(getattr(rec, field))
    values = sorted(statistics.median(v) for v in by_slot.values())
    h = (len(values) - 1) * q / 100
    k = math.floor(h)
    if k + 1 >= len(values):
        return values[-1]
    return values[k] + (h - k) * (values[k + 1] - values[k])


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 4:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def gc_collections():
    return sum(s["collections"] for s in gc.get_stats())


# ---------------------------------------------------------------- the loop

class Record:
    """Timing of one job; its result goes to the result log, not here."""
    __slots__ = ("slot", "round", "ms", "calib", "gcs", "digest", "raised", "cu")

    def __init__(self, slot, rnd, ms, calib, gcs, digest, raised):
        self.slot, self.round, self.ms = slot, rnd, ms
        self.calib, self.gcs = calib, gcs
        self.digest, self.raised = digest, raised
        self.cu = None


def normalize(records):
    """Set ``cu`` of each record: its time over the mean calibration of
    its own samples (before, during, after) and the samples nearest on
    either side, taken after the job before it and before the job after."""
    b = BOUNDARY_SAMPLES
    for k, rec in enumerate(records):
        near = list(rec.calib)
        if k > 0:
            near += records[k - 1].calib[-b:]
        if k + 1 < len(records):
            near += records[k + 1].calib[:b]
        rec.cu = rec.ms / statistics.mean(near)


def run_job(job, cal):
    """Time one job; ``cal`` takes calibration samples before and after.

    Returns (ms, calibration samples in ms, gc collections during the
    job, result, exception raised or None).  Time spent in timer samples
    during the job is not part of its ms.
    """
    gc.collect()
    before = gc_collections()
    first = len(cal.samples)
    cal.sample(BOUNDARY_SAMPLES)
    start = time.perf_counter_ns()
    try:
        result, raised = job.call(), None
    except Exception as exc:   # noqa: BLE001 - an unexpected raise is a failed job
        result, raised = None, exc
    end = time.perf_counter_ns()
    gcs = gc_collections() - before
    cal.sample(BOUNDARY_SAMPLES)
    taken = cal.samples[first:]
    inside = sum(ms for t, ms in taken if start <= t < end)
    ms = (end - start) / 1e6 - inside
    return ms, [ms_ for _, ms_ in taken], gcs, result, raised


def outcome(result, raised):
    if raised is not None:
        return {"raised": type(raised).__name__, "message": str(raised)[:200]}
    return plain(result)


class Loop:
    """Runs whole rounds of a plan and logs every outcome.

    Outcomes of the pool rounds go to ``log`` (a writable file of JSON
    lines) for the oracle; later rounds reuse pool inputs, so only
    their digests are kept and compared with the pool's.
    """

    def __init__(self, plan, log):
        self.calibrator = Calibrator()
        self.plan = plan
        self.log = log
        self.tracer = None       # a tracing.Tracer during a traced round
        self.records = []
        self.pool_digests = {}
        self.digest = hashlib.sha256()

    def run_round(self, r):
        pool = len(self.plan)
        with self.calibrator.running():
            for slot, job in enumerate(self.plan[r % pool]):
                self._run_slot(r, pool, slot, job)

    def _run_slot(self, r, pool, slot, job):
        if self.tracer is not None:
            self.tracer.job = (r, slot)
        ms, calib, gcs, result, raised = run_job(job, self.calibrator)
        body = canonical(outcome(result, raised))
        digest = hashlib.sha256(body).hexdigest()
        key = (r % pool, slot)
        if r < pool:
            self.pool_digests[key] = digest
            self.digest.update(body)
            self.log.write(body.decode() + "\n")
        self.records.append(Record(key, r, ms, calib, gcs, digest, raised))

    def run_for(self, seconds, min_jobs):
        """Whole rounds until ``seconds`` passed, ``min_jobs`` ran and every
        pool round ran once; returns the number of rounds."""
        start = time.perf_counter()
        r = 0
        while True:
            self.run_round(r)
            r += 1
            done = len(self.records)
            if r >= len(self.plan) and done >= min_jobs \
                    and time.perf_counter() - start >= seconds:
                return r
