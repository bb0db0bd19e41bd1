"""Self-tests of the benchmark itself (not of semiralg).

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import io
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness    # noqa: E402
import oracles    # noqa: E402
import run        # noqa: E402
import tracing    # noqa: E402
import workloads  # noqa: E402


def _specs(jobs):
    return [(j.kind, j.carrier, j.n, j.expect, repr(sorted(
        (k, v) for k, v in j.spec.items() if k != "argv"))) for j in jobs]


def test_generators_reproduce_inputs_for_a_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.build_round(workload, 7, 0, tmp_path / "a")
        again = workloads.build_round(workload, 7, 0, tmp_path / "b")
        other = workloads.build_round(workload, 8, 0, tmp_path / "c")
        assert len(first) == workloads.round_size(workload)
        assert _specs(first) == _specs(again)
        assert _specs(first) != _specs(other)
    files_a = sorted((tmp_path / "a").rglob("*.json"))
    files_b = sorted((tmp_path / "b").rglob("*.json"))
    assert [f.read_bytes() for f in files_a] == [f.read_bytes() for f in files_b]


def _run(plan):
    log = io.StringIO()
    loop = harness.Loop(plan, log)
    loop.run_round(0)
    lines = log.getvalue().splitlines()
    oracle = oracles.Oracle()
    pool = {(0, slot): (oracle.check(job, harness.json.loads(line)), None)
            for slot, (job, line) in enumerate(zip(plan[0], lines))}
    return loop, pool


def test_planted_wrong_result_raises_failed_share():
    rng = random.Random(3)
    data = workloads.tropical_matrix(rng, "minplus", 8, 8, 0.5)
    b_data = workloads.tropical_matrix(rng, "minplus", 8, 2, 0.5)
    jobs = workloads._closure_jobs("minplus", 8, data, b_data, False,
                                   ("block", "gauss_jordan", "solve_bellman"))
    loop, pool = _run([jobs])
    assert run.tally(loop.records, pool, loop) == (0, 0, {})

    honest = jobs[1].call

    def planted():
        rows = [[harness.token(v) for v in row] for row in honest().to_lists()]
        rows[0][0] = -1.0     # the oracle's diagonal is 0
        return workloads.to_matrix("minplus", rows)

    jobs[1].call = planted
    loop, pool = _run([jobs])
    failed, wrong, _ = run.tally(loop.records, pool, loop)
    assert (failed, wrong) == (1, 1)
    harness.normalize(loop.records)
    metrics = run.end_to_end(loop.records, [1.0], 10.0, failed)
    assert metrics["ok_share"] == 2 / 3


def test_expected_exit_code_and_uncaught_raise(tmp_path):
    files = workloads.CliFiles(tmp_path)
    jobs = workloads._failure_jobs(files)
    loop, pool = _run([jobs])
    verdicts = {job.spec["argv"][-1]: pool[(0, s)][0][0] for s, job in enumerate(jobs)}
    # every documented exit code is met except the two inputs the program
    # is known to mishandle, which count as errors, not as wrong output
    assert sorted(verdicts.values()).count("error") == 2
    assert "wrong" not in verdicts.values()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0, 100, None, 0),
        ("a", 10, 40, 0, 0),
        ("b", 30, 60, 0, 0),       # overlaps a, as a forked worker would
        ("c", 15, 20, 1, 0),
        ("d", 70, 80, 0, 0),
    ]
    assert tracing.self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 10]
    assert tracing.outermost(spans, {"a", "c", "d"}) == [1, 4]


def test_tracer_rebinds_and_restores():
    import semiralg
    import semiralg.cli
    original = semiralg.cli.closure
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert semiralg.cli.closure is not original
        assert semiralg.graphs.closure is semiralg.cli.closure
        a = workloads.to_matrix("minplus", [[1.0, 2.0], ["inf", 1.0]])
        semiralg.shortest_paths(semiralg.matrix_to_graph(a))
    finally:
        tracer.uninstall()
    assert semiralg.cli.closure is original
    names = [s[0] for s in tracer.spans]
    assert names[:1] == ["graphs.shortest_paths"] and "closure.block" in names
    assert not tracer.missing
