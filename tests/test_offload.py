"""The split-job rule of ``offload.split_job``: when either run of a
split job raises, the worker ends and the caller does the whole job
here, so the job fails or gets through as it does in this process.
``SPLITS`` has one row per job kind that ships, and
``test_every_job_kind_has_a_row`` reads the modules for the runs handed
to ``split_job``, so a new job kind cannot skip the table."""

import ast
import importlib
import os
from pathlib import Path

import pytest

from conftest import (PYTEST_PID, fork_anew, random_contraction,
                      random_interval_matrix, random_stable_matrix,
                      ship_placements, shipped_and_here)
from semiralg import (closure_block, closure_gauss_jordan, closure_iterative,
                      ldm_factorize, make_semiring, real_matrix_star,
                      solve_bellman)
from semiralg import intervals, offload, semirings
from semiralg.closure import _forward, _stripe
from semiralg.errors import IllegalElement
from semiralg.graphs import _pivoted_rows
from semiralg.ldm import _ldm_rows
from semiralg.matrices import _product

# the run that ships, the kernel it calls, of maxplus unless the call
# inverts over real_field, and the call
SPLITS = {
    # every product of the block closure ships its bottom rows too
    "block product": (_product, "product", closure_block),
    "matrix product": (_product, "product", lambda a: a.mul(a)),
    "gauss_jordan stripe": (_stripe, "eliminate", closure_gauss_jordan),
    # the series ships the bottom rows of its products, as every
    # Matrix.mul does
    "series product": (_product, "product",
                      lambda a: closure_iterative(a).matrix),
    "ldm stripe": (_ldm_rows, "fold", lambda a: ldm_factorize(a).M),
    "solve stripe": (_forward, "eliminate", lambda a: solve_bellman(a, a)),
    "invert stripe": (_pivoted_rows, "axpy", real_matrix_star),
    "lifted hi run": (intervals._runs, "eliminate", closure_gauss_jordan),
}


def _split_job_runs():
    """The runs handed to ``offload.split_job`` anywhere in the package,
    as the functions they name."""
    runs = set()
    for path in sorted(Path(offload.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and "split_job" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))):
                module = importlib.import_module(f"semiralg.{path.stem}")
                runs.add(getattr(module, node.args[0].id))
    return runs


def test_every_job_kind_has_a_row():
    assert {run for run, _, _ in SPLITS.values()} == _split_job_runs()


def _matrix(kind, rng):
    if kind == "lifted hi run":
        return random_interval_matrix("maxplus", 8, rng)
    if kind == "invert stripe":
        return random_contraction(8, rng)
    return random_stable_matrix("maxplus", 8, rng)


@pytest.mark.parametrize("side", ["caller", "worker"])
@pytest.mark.parametrize("kind", sorted(SPLITS))
def test_a_split_job_that_fails_is_redone_whole(monkeypatch, rng, kind, side):
    run, name, call = SPLITS[kind]
    carrier = "real_field" if kind == "invert stripe" else "maxplus"
    a = _matrix(kind, rng)
    placements = ship_placements(monkeypatch, run)
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    served = []         # the workers that served a call, in this process

    def failing(*args):
        here = os.getpid() == PYTEST_PID
        if here and offload._worker is not None:
            served.append(offload._worker)
        # only a product that ships fails: a block closure's products by
        # a block of one row, at the foot of its recursion, stay here
        if here == (side == "caller") and (name != "product"
                                           or len(args[1]) > 1):
            raise IllegalElement(f"the {name} kernel fails")
        return getattr(kernels, name)(*args)

    kernels = fork_anew(monkeypatch, carrier, **{name: failing})
    shipped, here = shipped_and_here(monkeypatch, placements,
                                     lambda: call(a))
    assert shipped == here
    # a job that fails in this process fails, and one that fails in the
    # worker alone gets through
    assert (here[1] is not None) == (side == "caller")
    assert served and not served[0].process.is_alive()
    assert offload._worker is None and not offload._busy.locked()
    assert affinity(0) == cpus
    monkeypatch.setitem(semirings._kernels, make_semiring(carrier), kernels)
    # the next call ships, on a worker forked anew
    got, want = shipped_and_here(monkeypatch, placements, lambda: call(a))
    assert got == want and want[1] is None
    assert offload._worker.process.is_alive()
