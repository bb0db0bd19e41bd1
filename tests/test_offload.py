"""The split-job rule of ``offload.side_by_side``: when either run of a
split job raises, the worker ends and the caller does the whole job
here, so the job fails or gets through as it does in this process."""

import os

import pytest

from conftest import (PYTEST_PID, fork_anew, random_interval_matrix,
                      random_stable_matrix, ship_placements, shipped_and_here)
from semiralg import (closure_block, closure_gauss_jordan, closure_iterative,
                      ldm_factorize, make_semiring)
from semiralg import intervals, offload, semirings
from semiralg.closure import _product, _series, _stripe
from semiralg.errors import IllegalElement
from semiralg.ldm import _ldm_rows

MX = make_semiring("maxplus")

# the run that ships, the maxplus kernel it calls, and the call
SPLITS = {
    "block product pair": (_product, "product", closure_block),
    "gauss_jordan stripe": (_stripe, "eliminate", closure_gauss_jordan),
    "series stripe": (_series, "product",
                      lambda a: closure_iterative(a).matrix),
    "ldm stripe": (_ldm_rows, "fold", lambda a: ldm_factorize(a).M),
    "lifted hi run": (intervals._peerless, "eliminate", closure_gauss_jordan),
}


@pytest.mark.parametrize("side", ["caller", "worker"])
@pytest.mark.parametrize("kind", sorted(SPLITS))
def test_a_split_job_that_fails_is_redone_whole(monkeypatch, rng, kind, side):
    run, name, call = SPLITS[kind]
    make = random_interval_matrix if kind == "lifted hi run" else \
        random_stable_matrix
    a = make("maxplus", 8, rng)
    placements = ship_placements(monkeypatch, run)
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    served = []         # the workers that served a call, in this process

    def failing(*args):
        here = os.getpid() == PYTEST_PID
        if here and offload._worker is not None:
            served.append(offload._worker)
        if here == (side == "caller"):
            raise IllegalElement(f"the {name} kernel fails")
        return getattr(kernels, name)(*args)

    kernels = fork_anew(monkeypatch, "maxplus", **{name: failing})
    shipped, here = shipped_and_here(monkeypatch, placements,
                                     lambda: call(a))
    assert shipped == here
    # a job that fails in this process fails, and one that fails in the
    # worker alone gets through
    assert (here[1] is not None) == (side == "caller")
    assert served and not served[0].process.is_alive()
    assert offload._worker is None and not offload._busy.locked()
    assert affinity(0) == cpus
    monkeypatch.setitem(semirings._kernels, MX, kernels)
    # the next call ships, on a worker forked anew
    got, want = shipped_and_here(monkeypatch, placements, lambda: call(a))
    assert got == want and want[1] is None
    assert offload._worker.process.is_alive()
