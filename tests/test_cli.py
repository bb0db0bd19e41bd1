"""End-to-end command line tests: payloads, formats, and exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import semiralg

from conftest import (descriptor, random_graph, random_interval_matrix,
                      random_stable_matrix)
from semiralg import (Interval, Matrix, NEG_INF, closure, graph_to_matrix,
                      matrix_to_graph, solve_bellman)
from semiralg.cli import main
from semiralg.serialize import (dumps, graph_to_json, matrix_to_json,
                                scalars_to_json)


def _write(path, payload):
    path.write_text(dumps(payload) if not isinstance(payload, str) else payload)
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _json_out(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, f"expected success, got {code}: {err}"
    return json.loads(out)


SHORTEST_GRAPH = {"n": 3, "arcs": [[1, 2, 5.0], [2, 3, 2.0], [1, 3, 9.0]]}
WIDEST_GRAPH = {"n": 3, "arcs": [[1, 2, 4.0], [2, 3, 7.0], [1, 3, 3.0]]}
PROFIT_GRAPH = {"n": 2, "arcs": [[1, 2, 3.0]]}


# ----------------------------------------------------------------- happy paths


def test_closure_on_shortest_path_graph(tmp_path, capsys):
    path = _write(tmp_path / "g.json", SHORTEST_GRAPH)
    payload = _json_out(capsys, "closure", "--semiring", "minplus", path)
    assert payload["result"]["data"][0][2] == 7.0
    assert payload["result"]["data"][2][0] == "inf"
    assert payload["result"]["data"][0][0] == 0.0


def test_closure_of_the_committed_reachability_example(capsys):
    # the input of the standard-library step of the CI workflow
    path = Path(__file__).resolve().parent / "data" / "reachability.json"
    payload = _json_out(capsys, "closure", "--semiring", "boolean", str(path))
    assert payload["result"]["data"] == [[True, True, True, False]] * 3 \
        + [[True] * 4]


def test_paths_shortest_and_widest(tmp_path, capsys):
    g1 = _write(tmp_path / "g1.json", SHORTEST_GRAPH)
    payload = _json_out(capsys, "paths", "--semiring", "minplus", g1)
    assert payload["result"]["data"][0][2] == 7.0
    g2 = _write(tmp_path / "g2.json", WIDEST_GRAPH)
    payload = _json_out(capsys, "paths", "--semiring", "maxmin,0,10", g2)
    assert payload["result"]["data"][0][2] == 4.0
    assert payload["result"]["data"][2][0] == 0.0  # unreachable -> lattice bottom


def test_profit_command(tmp_path, capsys):
    g = _write(tmp_path / "g.json", PROFIT_GRAPH)
    b = _write(tmp_path / "b.json", [0.0, 10.0])
    payload = _json_out(capsys, "profit", "--semiring", "maxplus",
                        "--horizon", "1", g, b)
    assert payload["result"] == [13.0, "-inf"]
    payload = _json_out(capsys, "profit", "--semiring", "maxplus",
                        "--horizon", "0", g, b)
    assert payload["result"] == [0.0, 10.0]
    payload = _json_out(capsys, "profit", "--semiring", "maxplus", g, b)
    assert payload["result"] == [13.0, 10.0]  # unbounded: acyclic graph


def test_solve_command_matches_library(tmp_path, capsys, rng):
    d = descriptor("maxplus")
    a = random_stable_matrix("maxplus", 4, rng)
    b = random_stable_matrix("maxplus", 4, rng)
    pa = _write(tmp_path / "a.json", matrix_to_json(a))
    pb = _write(tmp_path / "b.json", matrix_to_json(b))
    payload = _json_out(capsys, "solve", "--semiring", "maxplus", pa, pb)
    assert payload["result"] == matrix_to_json(solve_bellman(a, b))


def test_factor_counts_line(tmp_path, capsys, rng):
    a = random_stable_matrix("maxplus", 3, rng)
    pa = _write(tmp_path / "a.json", matrix_to_json(a))
    payload = _json_out(capsys, "factor", "--semiring", "maxplus",
                        "--count-ops", pa)
    assert payload["counts"] == {"adds": 5, "muls": 11, "stars": 6}
    assert set(payload["result"]) == {"l", "d", "m"}
    bare = _json_out(capsys, "factor", "--semiring", "maxplus", pa)
    assert "counts" not in bare


def test_invert_command(tmp_path, capsys):
    pa = _write(tmp_path / "a.json",
                {"data": [[0.0, 0.5], [0.0, 0.0]]})
    payload = _json_out(capsys, "invert", "--semiring", "real_field", pa)
    assert payload["result"]["data"] == [[1.0, 0.5], [0.0, 1.0]]


def test_iterative_closure_reports_progress(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[0.5]]})
    payload = _json_out(capsys, "closure", "--semiring", "real_field",
                        "--algorithm", "iterative", "--max-iterations", "10",
                        pa)
    assert payload["truncated"] is True
    assert payload["iterations"] == 10
    nil = _write(tmp_path / "n.json", {"data": [[0.0, 1.0], [0.0, 0.0]]})
    payload = _json_out(capsys, "closure", "--semiring", "real_field",
                        "--algorithm", "iterative", nil)
    assert payload["truncated"] is False


def test_iterative_solve_reports_progress(tmp_path, capsys):
    # the least solution is 2 in each row; three terms of the series give
    # 1 + 0.5 + 0.25 = 1.75 of A* and so 1.875 of X, which must say it is cut
    pa = _write(tmp_path / "a.json", {"data": [[0.5, 0.0], [0.0, 0.5]]})
    pb = _write(tmp_path / "b.json", {"data": [[1.0], [1.0]]})
    payload = _json_out(capsys, "solve", "--semiring", "rplus",
                        "--algorithm", "iterative", "--max-iterations", "3",
                        pa, pb)
    assert payload == {"iterations": 3, "truncated": True,
                       "result": {"rows": 2, "cols": 1,
                                  "data": [[1.875], [1.875]]}}
    nil = _write(tmp_path / "n.json", {"data": [[0.0, 1.0], [0.0, 0.0]]})
    payload = _json_out(capsys, "solve", "--semiring", "rplus",
                        "--algorithm", "iterative", nil, pb)
    assert (payload["iterations"], payload["truncated"]) == (2, False)
    assert payload["result"]["data"] == [[2.0], [1.0]]
    # the other algorithms print the matrix alone
    payload = _json_out(capsys, "solve", "--semiring", "rplus", pa, pb)
    assert payload == {"result": {"rows": 2, "cols": 1,
                                  "data": [[2.0], [2.0]]}}


def test_iterative_solve_checks_shapes_first(tmp_path, capsys):
    # as solve_bellman: A square, then B chained to A, before any series
    sq = _write(tmp_path / "sq.json", {"data": [[0.5, 0.0], [0.0, 0.5]]})
    wide = _write(tmp_path / "wide.json", {"data": [[0.5, 0.0]]})
    pb = _write(tmp_path / "b.json", {"data": [[1.0, 1.0]]})
    for pa, message in ((sq, "cannot chain 2x2 with 1x2"),
                        (wide, "closure needs a square matrix, got 1x2")):
        for algo in ("block", "iterative"):
            code, out, err = _run(capsys, "solve", "--semiring", "rplus",
                                  "--algorithm", algo, pa, pb)
            assert (code, out, err) == (3, "", f"error: {message}\n")


# ------------------------------------------------------------------ invariants


def test_tri_algorithm_agreement_through_cli(tmp_path, capsys, rng):
    a = random_stable_matrix("maxplus", 5, rng)
    pa = _write(tmp_path / "a.json", matrix_to_json(a))
    outputs = []
    for algo in ("block", "gauss_jordan", "iterative"):
        code, out, _ = _run(capsys, "closure", "--semiring", "maxplus",
                            "--algorithm", algo, pa)
        assert code == 0
        outputs.append(json.loads(out)["result"])
    assert outputs[0] == outputs[1] == outputs[2]


def test_matrix_and_graph_inputs_agree(tmp_path, capsys, rng):
    g = random_graph("minplus", 4, rng)
    pg = _write(tmp_path / "g.json", graph_to_json(g))
    pm = _write(tmp_path / "m.json", matrix_to_json(graph_to_matrix(g)))
    from_graph = _json_out(capsys, "closure", "--semiring", "minplus", pg)
    from_matrix = _json_out(capsys, "closure", "--semiring", "minplus", pm)
    assert from_graph == from_matrix


def test_byte_identical_reruns(tmp_path, capsys, rng):
    a = random_stable_matrix("minplus", 5, rng)
    pa = _write(tmp_path / "a.json", matrix_to_json(a))
    argv = ("closure", "--semiring", "minplus", pa)
    _, first, _ = _run(capsys, *argv)
    _, second, _ = _run(capsys, *argv)
    assert first == second


def test_interval_closure_equals_endpoint_runs(tmp_path, capsys, rng):
    from conftest import pair_endpoints, random_interval_matrix
    base = descriptor("maxplus")
    av = random_interval_matrix("maxplus", 4, rng)
    lo = Matrix(base, [[av[i, j].lo for j in range(4)] for i in range(4)])
    hi = Matrix(base, [[av[i, j].hi for j in range(4)] for i in range(4)])
    pv = _write(tmp_path / "iv.json", matrix_to_json(av))
    pl = _write(tmp_path / "lo.json", matrix_to_json(lo))
    ph = _write(tmp_path / "hi.json", matrix_to_json(hi))
    got = _json_out(capsys, "closure", "--semiring", "maxplus",
                    "--interval", pv)
    lo_out = _json_out(capsys, "closure", "--semiring", "maxplus", pl)
    hi_out = _json_out(capsys, "closure", "--semiring", "maxplus", ph)
    paired = pair_endpoints(base,
                            closure(lo), closure(hi))
    assert got["result"] == matrix_to_json(paired)
    # and the pairing really is the two scalar runs zipped
    for i in range(4):
        for j in range(4):
            assert got["result"]["data"][i][j] == [
                lo_out["result"]["data"][i][j],
                hi_out["result"]["data"][i][j]]


@pytest.mark.parametrize("argv", [("closure",),
                                  ("closure", "--algorithm", "gauss_jordan"),
                                  ("factor",)])
def test_an_interval_run_fails_as_the_lifted_fold(tmp_path, capsys, argv):
    # the lo run overflows and the hi star fails at pivot 1; the fold on
    # the intervals meets the star first
    path = _write(tmp_path / "a.json", {"rows": 2, "cols": 2, "data": [
        [[-1.0, 1.0], [1e308, 1e308]], [[1e308, 1e308], [-1.0, -1.0]]]})
    code, out, err = _run(capsys, *argv, "--semiring", "maxplus",
                          "--interval", path)
    assert (code, out) == (4, "")
    assert "star needs x <= 0 in maxplus, got 1.0" in err
    # a point interval may fail unlike its base matrix: the base kernels
    # of Gauss-Jordan carry the overflow 1e200 * 1e200 on to the next
    # pivot as inf, where the lifted fold raises it at once
    point = [[0.0, 0.0, 1e200], [0.0, 1.0, 0.0], [1e200, 0.0, 0.0]]
    base = _run(capsys, *argv, "--semiring", "rplus",
                _write(tmp_path / "p.json", {"data": point}))
    lift = _run(capsys, *argv, "--semiring", "rplus", "--interval",
                _write(tmp_path / "pi.json",
                       {"data": [[[v, v] for v in row] for row in point]}))
    assert base[:2] == (4, "") and "got 1.0 (at " in base[2]
    if "gauss_jordan" in argv:
        assert lift[:2] == (1, "") and "float range (inf)" in lift[2]
    else:
        assert lift == base


@pytest.mark.parametrize("command,semiring,horizon", [
    ("paths", "minplus", ()), ("paths", "maxmin,0,10", ()),
    ("profit", "maxplus", ("--horizon", "inf")),
    ("profit", "maxplus", ("--horizon", "2"))])
def test_interval_paths_and_profit_equal_endpoint_runs(tmp_path, capsys, rng,
                                                       command, semiring,
                                                       horizon):
    # the interval run is the pair of base runs on the lo and the hi input
    name = semiring.split(",")[0]
    base = descriptor(name)
    av = random_interval_matrix(name, 5, rng)
    b = [Interval(NEG_INF, NEG_INF), Interval(NEG_INF, 1.0)] + [
        Interval(v, v + rng.randint(0, 3))
        for v in (float(rng.randint(-3, 3)) for _ in range(3))]
    runs = []     # the interval run, then the base runs on lo and on hi
    for end, label in ((None, "iv"), (0, "lo"), (1, "hi")):
        if end is None:
            d, graph, vector = av.descriptor, av, b
        else:
            d = base
            graph = Matrix(base, [[v[end] for v in row] for row in av.to_lists()])
            vector = [v[end] for v in b]
        inputs = [_write(tmp_path / f"g_{label}.json",
                         graph_to_json(matrix_to_graph(graph)))]
        if command == "profit":
            inputs.append(_write(tmp_path / f"b_{label}.json",
                                 scalars_to_json(d, vector)))
        flags = ["--interval"] if end is None else []
        runs.append(_json_out(capsys, command, "--semiring", semiring,
                              *flags, *horizon, *inputs)["result"])
    got, lo, hi = runs
    if command == "paths":
        got, lo, hi = got["data"], lo["data"], hi["data"]
        assert got == [list(map(list, zip(*rows))) for rows in zip(lo, hi)]
    else:
        assert got == list(map(list, zip(lo, hi)))


def test_minplus_closure_is_negated_maxplus_closure(tmp_path, capsys, rng):
    g = random_graph("minplus", 4, rng)
    negated = {"n": g.n,
               "arcs": [[u, v, -w] for u, v, w in g.arcs]}
    p_min = _write(tmp_path / "min.json", graph_to_json(g))
    p_neg = _write(tmp_path / "neg.json", negated)
    out_min = _json_out(capsys, "closure", "--semiring", "minplus", p_min)
    out_max = _json_out(capsys, "closure", "--semiring", "maxplus", p_neg)
    for row_min, row_max in zip(out_min["result"]["data"],
                                out_max["result"]["data"]):
        for v_min, v_max in zip(row_min, row_max):
            if v_min == "inf":
                assert v_max == "-inf"
            else:
                assert v_max == -v_min


def test_emitted_matrix_reparses_to_equal_value(tmp_path, capsys, rng):
    a = random_stable_matrix("maxplus", 4, rng)
    pa = _write(tmp_path / "a.json", matrix_to_json(a))
    payload = _json_out(capsys, "closure", "--semiring", "maxplus", pa)
    pb = _write(tmp_path / "b.json", payload["result"])
    again = _json_out(capsys, "closure", "--semiring", "maxplus", pb)
    # closure is itself a fixpoint: (A*)* = A*
    assert again["result"] == payload["result"]


# --------------------------------------------------------------- table format


def test_table_renders_zero_as_dot(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[-1.0, "-inf"], ["-inf", -2.0]]})
    code, out, _ = _run(capsys, "closure", "--semiring", "maxplus",
                        "--format", "table", pa)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["0.0", "."]
    assert lines[1].split() == [".", "0.0"]


def test_table_counts_line(tmp_path, capsys, rng):
    a = random_stable_matrix("maxplus", 3, rng)
    pa = _write(tmp_path / "a.json", matrix_to_json(a))
    code, out, _ = _run(capsys, "factor", "--semiring", "maxplus",
                        "--count-ops", "--format", "table", pa)
    assert code == 0
    assert out.splitlines()[-1] == "counts: adds=5 muls=11 stars=6"
    assert "L:" in out and "D:" in out and "M:" in out


def test_table_iteration_lines(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[0.5]]})
    code, out, _ = _run(capsys, "closure", "--semiring", "real_field",
                        "--algorithm", "iterative", "--max-iterations", "5",
                        "--format", "table", pa)
    assert code == 0
    assert "iterations: 5" in out
    assert "truncated: true" in out


def test_table_iteration_lines_of_solve(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[0.5, 0.0], [0.0, 0.5]]})
    pb = _write(tmp_path / "b.json", {"data": [[1.0], [1.0]]})
    code, out, _ = _run(capsys, "solve", "--semiring", "rplus",
                        "--algorithm", "iterative", "--max-iterations", "3",
                        "--format", "table", pa, pb)
    assert (code, out) == (0, "1.875\n1.875\niterations: 3\ntruncated: true\n")


def test_table_interval_cells(tmp_path, capsys):
    pa = _write(tmp_path / "a.json",
                {"data": [[[-3.0, -1.0], ["-inf", "-inf"]],
                          [["-inf", -2.0], [-4.0, -4.0]]]})
    code, out, _ = _run(capsys, "closure", "--semiring", "maxplus",
                        "--interval", "--format", "table", pa)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["[0.0,0.0]", "."]
    assert lines[1].split() == ["[-inf,-2.0]", "[0.0,0.0]"]


# ------------------------------------------------------------------ exit codes


def test_exit_2_parse_failures(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus", missing)
    assert code == 2 and "error:" in err
    bad = _write(tmp_path / "bad.json", "{broken")
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus", bad)
    assert code == 2 and "line 1" in err
    neg = _write(tmp_path / "neg.json", {"data": [["-inf"]]})
    code, _, err = _run(capsys, "closure", "--semiring", "rplus", neg)
    assert code == 2
    # paths and profit read a graph, not a matrix
    b = _write(tmp_path / "b.json", [0.0])
    for argv in (["paths", "--semiring", "minplus", neg],
                 ["profit", "--semiring", "maxplus", neg, b]):
        assert _run(capsys, *argv) == (
            2, "", f'error: {neg}: expected a graph object with an "arcs" '
                   "field\n")


def test_exit_2_declared_size_not_an_integer(tmp_path, capsys):
    # true == 1 and 1.0 == 1, yet the format asks for integers
    for payload, key in (({"rows": True, "cols": 1.0, "data": [[1.0]]}, "rows"),
                         ({"rows": 1, "cols": 1.0, "data": [[1.0]]}, "cols")):
        path = _write(tmp_path / "size.json", payload)
        code, out, err = _run(capsys, "closure", "--semiring", "maxplus", path)
        assert code == 2 and out == ""
        assert f'"{key}" says' in err and "but data has 1" in err


def test_exit_2_integer_literal_too_large(tmp_path, capsys):
    big = _write(tmp_path / "big.json", '{"data": [[1' + "0" * 400 + "]]}")
    for semiring in ("minplus", "maxmin,0,10"):
        code, out, err = _run(capsys, "closure", "--semiring", semiring, big)
        assert code == 2 and out == ""
        assert "data[0][0]" in err and "too large" in err
    # past the interpreter's digit limit the JSON reader itself refuses it
    huge = _write(tmp_path / "huge.json", '{"data": [[1' + "0" * 5000 + "]]}")
    code, _, err = _run(capsys, "closure", "--semiring", "minplus", huge)
    assert code == 2 and "error:" in err


# every command that reads files, with the semiring it runs over and its
# input slots; each slot in turn holds the bad file, the others good ones
_READERS = {"closure": ("maxplus", "a"), "solve": ("maxplus", "ab"),
            "factor": ("maxplus", "a"), "paths": ("minplus", "g"),
            "profit": ("maxplus", "gb"), "invert": ("real_field", "a")}
_GOOD = {"a": {"data": [[-1.0]]}, "b": {"data": [[0.0]]},
         "g": {"n": 1, "arcs": []}}
_DEEP = 100_000


def _malformed(tmp_path, kind):
    path = tmp_path / "bad.json"
    if kind == "not utf-8":
        path.write_bytes(b"\xff\xfe\x00bad")
    elif kind == "nested too deeply":
        path.write_text("[" * _DEEP + "]" * _DEEP)
    elif kind == "cell nested too deeply":
        path.write_text('{"data": [[' + "[" * (_DEEP // 2)
                        + "]" * (_DEEP // 2) + "]]}")
    elif kind == "truncated":
        path.write_text('{"data": [[1.0, ')
    elif kind == "directory":
        path.mkdir()
    return str(path)           # "missing": never created


@pytest.mark.parametrize("kind", ["not utf-8", "nested too deeply",
                                  "cell nested too deeply", "truncated",
                                  "directory", "missing"])
@pytest.mark.parametrize("command,bad", [
    (cmd, name) for cmd, (_, slots) in _READERS.items() for name in slots])
def test_malformed_file_exits_2_without_traceback(tmp_path, capsys, command,
                                                  bad, kind):
    semiring, slots = _READERS[command]
    paths = [_malformed(tmp_path, kind) if name == bad else
             _write(tmp_path / f"{name}.json", _GOOD[name]) for name in slots]
    code, out, err = _run(capsys, command, "--semiring", semiring, *paths)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,bad", [
    (cmd, name) for cmd in ("solve", "profit") for name in _READERS[cmd][1]])
def test_invalid_json_error_names_its_file(tmp_path, capsys, command, bad):
    semiring, slots = _READERS[command]
    paths = [_malformed(tmp_path, "truncated") if name == bad else
             _write(tmp_path / f"{name}.json", _GOOD[name]) for name in slots]
    code, out, err = _run(capsys, command, "--semiring", semiring, *paths)
    assert (code, out) == (2, "")
    assert err == (f"error: {tmp_path / 'bad.json'}: line 1 column 17: "
                   "invalid JSON: Expecting value\n")


# past memory and past the index range: building the first row fails at
# its size check, before anything is allocated
@pytest.mark.parametrize("n", [2**62, 10**20])
@pytest.mark.parametrize("command", ["closure", "paths", "profit"])
def test_graph_too_large_for_its_matrix_exits_2(tmp_path, capsys, command, n):
    g = _write(tmp_path / "g.json", {"n": n, "arcs": []})
    inputs = [g, _write(tmp_path / "b.json", [0.0])][:len(_READERS[command][1])]
    code, out, err = _run(capsys, command, "--semiring", _READERS[command][0],
                          *inputs)
    assert (code, out) == (2, "")
    assert err == (f'error: {g}: "n" is {n}: an n x n matrix does not fit '
                   "in memory\n")


# the address space of the child below: a check that ran after the
# allocation would fill it before failing, not exit at once
_ADDRESS_CAP = 1 << 30


def _capped():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_CAP, _ADDRESS_CAP))


_PEAK_CHILD = """\
import resource, sys
from semiralg.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB on Linux")
@pytest.mark.parametrize("command,semiring,weight", [
    ("closure", "boolean", True), ("paths", "minplus", 1.0),
    ("profit", "maxplus", 1.0)])
def test_graph_past_the_physical_memory_exits_2_before_allocating(
        tmp_path, command, semiring, weight):
    # n = 10^7 makes a matrix of 800 TB; only the address-space cap keeps
    # a regression here from exhausting the machine
    n = 10**7
    g = _write(tmp_path / "g.json", {"n": n, "arcs": [[1, 2, weight]]})
    inputs = [g, _write(tmp_path / "b.json", [0.0])][:2 if command == "profit"
                                                     else 1]
    src = str(Path(semiralg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_CHILD, command, "--semiring", semiring,
         *inputs], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_capped)
    message, peak = done.stderr.splitlines()
    assert (done.returncode, done.stdout) == (2, "")
    assert message == (f'error: {g}: "n" is {n}: an n x n matrix does not '
                       "fit in memory")
    assert int(peak) < 200 * 1024     # KiB: no row of the matrix was built


def test_exit_2_argparse_usage(tmp_path, capsys):
    assert main([]) == 2                      # no command
    capsys.readouterr()
    assert main(["closure"]) == 2             # missing --semiring and input
    capsys.readouterr()
    code = main(["profit", "--semiring", "maxplus", "--horizon", "-1",
                 "g.json", "b.json"])
    assert code == 2                          # bad horizon value
    capsys.readouterr()
    pa = _write(tmp_path / "a.json", {"data": [[-1.0]]})
    code, out, err = _run(capsys, "closure", "--semiring", "maxplus",
                          "--threads", "2", pa)
    assert (code, out) == (2, "")             # no such flag
    assert "unrecognized arguments: --threads" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(semiralg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    good = _write(tmp_path / "g.json", SHORTEST_GRAPH)
    bad = _write(tmp_path / "bad.json", '{"n": 3, "arcs": [[1, 2, "x"]]')

    def run(path):
        return subprocess.run([sys.executable, "-m", "semiralg.cli", "closure",
                               "--semiring", "minplus", path],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    done = run(good)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["data"][0][2] == 7.0
    done = run(bad)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ")


def test_exit_3_dimension_mismatch(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[0.0, 1.0]]})
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus", pa)
    assert code == 3 and "error:" in err
    a = _write(tmp_path / "sq.json", {"data": [[0.0, 1.0], [1.0, 0.0]]})
    b = _write(tmp_path / "b.json", {"data": [[0.0]]})
    code, _, err = _run(capsys, "solve", "--semiring", "maxplus", a, b)
    assert code == 3
    g = _write(tmp_path / "g.json", PROFIT_GRAPH)
    short = _write(tmp_path / "short.json", [0.0])
    for horizon in ([], ["--horizon", "1"]):
        code, out, err = _run(capsys, "profit", "--semiring", "maxplus",
                              *horizon, g, short)
        assert (code, out) == (3, "")
        assert err == "error: terminal rewards: expected 2 values, got 1\n"


def test_exit_4_star_undefined_with_location(tmp_path, capsys):
    cyc = _write(tmp_path / "cyc.json",
                 {"n": 2, "arcs": [[1, 2, 1.0], [2, 1, 1.0]]})
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus", cyc)
    assert code == 4
    assert "(at " in err


def test_invert_exits_4_at_the_singular_row(tmp_path, capsys):
    # E - A = [[1, 2], [2, 4]]: the step on row 1 zeroes row 2
    pa = _write(tmp_path / "a.json", {"data": [[0.0, -2.0], [-2.0, -3.0]]})
    code, out, err = _run(capsys, "invert", "--semiring", "real_field", pa)
    assert (code, out) == (4, "")
    assert err == ("error: E - A is singular to working precision: row 2 "
                   "has no nonzero entry left (at 2)\n")


def test_invert_exits_1_at_a_pivot_without_a_reciprocal(tmp_path, capsys):
    # E - A = [[0, -1e-320], [-1e-320, 0]]: 1/p overflows
    pa = _write(tmp_path / "a.json", {"data": [[1.0, 1e-320], [1e-320, 1.0]]})
    code, out, err = _run(capsys, "invert", "--semiring", "real_field", pa)
    assert (code, out) == (1, "")
    assert err == ("error: the pivot -1e-320 of row 1 has no reciprocal in "
                   "the float range\n")


def test_exit_5_semiring_selection(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[0.0]]})
    code, _, err = _run(capsys, "closure", "--semiring", "galois", pa)
    assert code == 5 and "error:" in err
    code, _, _ = _run(capsys, "closure", "--semiring", "maxmin,5,1", pa)
    assert code == 5
    code, _, _ = _run(capsys, "closure", "--semiring", "maxmin,x,y", pa)
    assert code == 5
    g = _write(tmp_path / "g.json", SHORTEST_GRAPH)
    code, _, _ = _run(capsys, "paths", "--semiring", "maxplus", g)
    assert code == 5
    code, _, _ = _run(capsys, "invert", "--semiring", "maxplus", pa)
    assert code == 5
    code, _, _ = _run(capsys, "closure", "--semiring", "real_field",
                      "--interval", pa)
    assert code == 5  # interval lift needs a positive base
    gi = _write(tmp_path / "gi.json", {"n": 2, "arcs": [[1, 2, [1.0, 2.0]]]})
    code, _, err = _run(capsys, "paths", "--semiring", "maxplus", "--interval",
                        gi)
    assert code == 5 and "got interval(maxplus)" in err
    code, _, _ = _run(capsys, "invert", "--semiring", "real_field",
                      "--interval", pa)
    assert code == 5


def test_exit_1_other_failures(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[0.0]]})
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus",
                        "--count-ops", pa)
    assert code == 2  # argparse rejects the flag on this command
    capsys.readouterr()
    bad_iter = _write(tmp_path / "r.json", {"data": [[0.5, 0.5], [0.5, 0.5]]})
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus",
                        "--algorithm", "iterative", bad_iter)
    assert code == 1  # no stabilization in an idempotent carrier
    assert "error:" in err and "through A^3 still changing" in err
    # a path of weight 2e308, past the float range
    big = _write(tmp_path / "big.json", {"n": 3, "arcs": [[1, 2, 1e308],
                                                         [2, 3, 1e308]]})
    code, _, err = _run(capsys, "closure", "--semiring", "maxplus", big)
    assert code == 1 and "float range" in err


def test_exit_1_overflow_on_the_fold_carriers(tmp_path, capsys):
    # maxplus_complete runs the fold of its own fma, no IEEE kernels
    big = _write(tmp_path / "big.json", {"n": 3, "arcs": [[1, 2, 1e308],
                                                         [2, 3, 1e308]]})
    for algorithm in ("block", "gauss_jordan"):
        code, out, err = _run(capsys, "closure", "--semiring",
                              "maxplus_complete", "--algorithm", algorithm,
                              big)
        assert code == 1 and out == ""
        assert "not a maxplus_complete element" in err


def test_semiring_flag_parses_bounds(tmp_path, capsys):
    pa = _write(tmp_path / "a.json", {"data": [[3.0, 0.0], [0.0, 7.0]]})
    payload = _json_out(capsys, "closure", "--semiring", "maxmin,0,10", pa)
    assert payload["result"]["data"] == [[10.0, 0.0], [0.0, 10.0]]


# ---------------------------------------------------------------- fuzzing


# hypothesis draws small indices most: the first value is the usual one
_rare = st.sampled_from([False] * 19 + [True])
_sometimes = st.sampled_from([False] * 3 + [True])

# per carrier, values in its canonical order, signed zeros, range edges
# and values outside it among them; an interval cell pairs two of them
_POOLS = {"maxplus": ["-inf", -1e308, -1.0, -0.0, 0.0, 1.0, 2.5, 1e308],
          "minplus": ["inf", 1e308, 2.5, 1.0, 0.0, -0.0, -1.0],
          "maxmin": ["-inf", 0.0, 2.0, 5.0, 10.0, 11.0, "inf"],
          "boolean": [False, True],
          "rplus": [0.0, -0.0, 0.25, 0.5, 1.0, 2.0, 1e308, "inf"],
          "real_field": [-0.5, -0.0, 0.0, 0.5, 2.0, 1e308]}
# anything else a JSON cell can hold
_ODD = [10**400, -10**400, 5e-324, "nan", "+inf", "x", None, {}, [], [[0.0]],
        [0.0, 1.0, 2.0], 3, True, "-inf", "inf"]
_VALID = ["rplus", "rplus_complete", "maxplus", "maxplus_complete",
          "minplus", "boolean", "real_field", "maxmin,0,10", "maxmin,-inf,inf",
          "maxmin,-1e308,1e308"]
_INVALID = ["maxmin,10,0", "maxmin,0,0", "maxmin,0", "maxmin,0,1,2", "maxmin",
            "maxmin,a,b", "maxmin,0,1e400", "maxmin,nan,1", "boolean,0,1",
            "nope", "", "MAXPLUS"]
# the semirings each command runs over; any other exits 5
_RUNS_OVER = {"paths": ["minplus", "maxmin,0,10", "maxmin,-inf,inf"],
              "profit": ["maxplus", "maxplus_complete"],
              "invert": ["real_field"]}
# input slots: a matrix or a graph (a), a matrix (m), a graph (g) and a
# vector (v)
_SLOTS = {"closure": "a", "solve": "am", "factor": "m", "paths": "g",
          "profit": "gv", "invert": "m"}
_ALGO = {"closure", "solve", "paths", "profit"}


def _pool(semiring):
    name = semiring.split(",")[0].replace("_complete", "")
    return _POOLS.get(name, _POOLS["maxplus"])


@st.composite
def _cells(draw, pool, interval):
    if draw(_rare):
        return draw(st.sampled_from(_ODD))
    i = draw(st.integers(0, len(pool) - 1))
    if not interval:
        return pool[i]
    j = draw(st.integers(i, len(pool) - 1))
    return [pool[j], pool[i]] if draw(_rare) \
        else [pool[i], pool[j]]


@st.composite
def _matrix_objects(draw, cell, n):
    rows = n if draw(st.booleans()) else draw(st.integers(1, 4))
    cols = n if not draw(_sometimes) else draw(st.integers(1, 4))
    data = [[draw(cell) for _ in range(cols)] for _ in range(rows)]
    if draw(_rare):          # a ragged or an empty row
        data[-1] = data[-1][:draw(st.integers(0, cols - 1))]
    obj = {"data": data}
    for key, size in (("rows", rows), ("cols", cols)):
        if draw(st.booleans()):
            obj[key] = size if not draw(_rare) else draw(
                st.sampled_from([size + 1, 0, -1, 1.0, True, None, "2",
                                 10**400]))
    return obj


@st.composite
def _graph_objects(draw, cell, n):
    if draw(_rare):
        n = draw(st.sampled_from([0, -1, 1.5, "3", True, None, 2**62, 10**20,
                                  10**400]))
    top = n if type(n) is int and 1 <= n <= 5 else 3
    node = st.one_of(st.integers(1, top), st.sampled_from(
        [0, top + 1, -1, 1.0, "1", None]))
    good = st.tuples(st.integers(1, top), st.integers(1, top), cell)
    bad = st.one_of(st.tuples(node, node, cell), st.sampled_from(
        [(1, 2), (1, 2, 1.0, 0), None, 3, "arc"]))
    arcs = [draw(bad if draw(_rare) else good)
            for _ in range(draw(st.integers(0, 6)))]
    obj = {"n": n, "arcs": [list(a) if isinstance(a, tuple) else a
                            for a in arcs]}
    if draw(_rare):
        obj = draw(st.sampled_from([{"arcs": obj["arcs"]}, {"n": n},
                                    {"n": n, "arcs": {}}]))
    return obj


@st.composite
def _vector_objects(draw, cell, n):
    return [draw(cell) for _ in range(draw(st.sampled_from([n, n, 1, 0])))]


# inputs that are no JSON value, or no file
_BROKEN = [b'{"data": [[1.0, ', b"", b"nul", b"\xff\xfe", b"[" * 5000,
           b'{"data": [[1e999]]}', b'{"n": 2, "arcs": [[1, 2, 1e999]]}',
           "missing", "directory"]


@st.composite
def _cli_runs(draw):
    def value(good, bad):
        # mostly a value the command takes, at times one it refuses
        return draw(st.sampled_from(bad if draw(_rare)
                                    else good))

    command = draw(st.sampled_from(sorted(_SLOTS)))
    semiring = value(_RUNS_OVER.get(command, _VALID), _VALID + _INVALID)
    interval = draw(_sometimes)
    argv = [command, "--semiring", semiring] + ["--interval"] * interval
    if draw(st.booleans()):
        argv += ["--format", value(["table", "json"], ["csv"])]
    if command in _ALGO or draw(_rare):
        if draw(st.booleans()):
            argv += ["--algorithm", value(["block", "gauss_jordan",
                                           "iterative"], ["fast"])]
        if draw(_sometimes):
            argv += ["--split", value(["1", "2", "3"], ["0", "-1", "9", "x"])]
        if draw(_sometimes):
            argv += ["--max-iterations", value(["1", "3", "60"],
                                               ["0", "-2", "x"])]
    if command == "factor" and draw(st.booleans()):
        argv.append("--count-ops")
    if command == "profit" and draw(st.booleans()):
        argv += ["--horizon", value(["0", "1", "3", "inf"], ["-1", "x"])]
    cell = _cells(_pool(semiring), interval)
    n = draw(st.integers(1, 4))
    kinds = {"m": _matrix_objects, "g": _graph_objects, "v": _vector_objects}
    inputs = []
    for slot in _SLOTS[command]:
        if draw(_rare):
            inputs.append(draw(st.sampled_from(_BROKEN)))
            continue
        kind = draw(st.sampled_from("mg")) if slot == "a" else slot
        if draw(_rare):             # a value of another kind
            kind = draw(st.sampled_from(sorted(kinds)))
        inputs.append(draw(kinds[kind](cell, n)))
    return argv, inputs


def _input_file(root, k, obj):
    path = Path(root) / f"in{k}.json"
    if obj == "directory":
        path.mkdir()
    elif obj != "missing":
        # bytes are the file as it is; other values go as JSON
        path.write_bytes(obj if isinstance(obj, bytes)
                         else json.dumps(obj).encode())
    return str(path)


@settings(max_examples=400, deadline=None)
@given(_cli_runs())
def test_every_cli_run_exits_with_a_documented_code(run):
    # in process: an uncaught exception fails the test with its traceback
    argv, inputs = run
    with tempfile.TemporaryDirectory() as root:
        paths = [_input_file(root, k, obj) for k, obj in enumerate(inputs)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + paths)
    out, err = out.getvalue(), err.getvalue()
    assert code in range(6), (code, out, err)
    assert "Traceback" not in out + err
    assert out == "" if code else err == "", (code, out, err)
