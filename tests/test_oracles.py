"""Differential tests at scale: closures, factorizations and solves
against independent libraries.

The brute-force checks of the other test files stop at n <= 8.  Here
the closures and the least solutions run at n = 64 and 128 (boolean
also at 256) on the benchmark's seeded inputs
(``bench/workloads.py``) and are compared with the benchmark's oracles
(``bench/oracles.py``): scipy's Floyd-Warshall for minplus and maxplus,
networkx transitive closure for boolean, threshold reachability for
maxmin, and ``numpy.linalg.inv`` for the real field and rplus, also for
the pivoted inverse of E - A at n = 96 and 128; a least
solution is the oracle's A* times B, by a numpy product.  An LDM
triple is checked by ``M* D* L* = A*``, a solve through the factors by
``numpy.linalg.solve``, also through the symmetric factors.  The cut
series is compared with numpy's partial sums at every cut up to 70,
widest paths and the maxmin Gauss-Jordan closure under other bounds
with threshold reachability by scipy, shortest paths and the CLI
``paths`` at n = 96 with scipy's, a tropical product at n = 128 with
numpy's, the lifted least solutions, by elimination and through the
factors, with each endpoint's oracle, a profit over a horizon with
the max-plus recurrence in numpy, the CLI ``profit`` at n = 96 with
that recurrence or with scipy's A* times b, and a tropical solve
through the symmetric factors at n = 64 with scipy's A* times b.  The
complete carriers' closures at n = 64, with +inf arcs and cycles that
make entries infinite, are compared with strongly connected components
and reachability by scipy, then Bellman-Ford (maxplus_complete) or
``numpy.linalg.inv(E - A)`` (rplus_complete) on the rest.  The
tropical comparisons are exact; the real ones are within
``oracles.REAL_TOL`` relative, the cut series within 1e-12.  Skipped
where numpy, scipy or networkx is not installed.
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

for _module in ("numpy", "scipy", "networkx"):
    pytest.importorskip(_module)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import numpy as np  # noqa: E402
import oracles    # noqa: E402
import workloads  # noqa: E402
from harness import plain  # noqa: E402
from scipy.sparse.csgraph import (NegativeCycleError,  # noqa: E402
                                  connected_components,
                                  csgraph_from_dense, shortest_path)

from semiralg import (NEG_INF, POS_INF, ClosureOptions, Matrix,  # noqa: E402
                      WeightedDigraph, closure_block, closure_gauss_jordan,
                      closure_iterative, ldm_factorize, make_semiring,
                      max_profit, real_matrix_star, shortest_paths,
                      solve_bellman, solve_ldm, solve_via_ldm,
                      symmetric_factorize, widest_paths)
from semiralg.serialize import matrix_to_json  # noqa: E402

ALGORITHMS = {"block": closure_block, "gauss_jordan": closure_gauss_jordan}


def _rng(*key):
    return random.Random("test_oracles/" + "/".join(map(str, key)))


def _matches_oracle(carrier, data, result_data):
    """Plain result equals the oracle's A* of the plain input."""
    ref = oracles.star(carrier, oracles.array(data, carrier))
    return oracles.same(carrier, oracles.array(result_data, carrier), ref)


# boolean also at n = 256, where its packed rows span several machine words
TROPICAL_CASES = [(carrier, n) for carrier in ("minplus", "maxplus", "boolean",
                                               "maxmin")
                  for n in (64, 128)] + [("boolean", 256)]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("carrier,n", TROPICAL_CASES)
def test_tropical_closure_equals_oracle(carrier, n, algorithm):
    # dense at n = 64, sparse from n = 128, as the benchmark alternates them
    density = 1.0 if n == 64 else 0.3
    data = workloads.tropical_matrix(_rng(carrier, n), carrier, n, n, density)
    result = ALGORITHMS[algorithm](workloads.to_matrix(carrier, data))
    assert _matches_oracle(carrier, data, matrix_to_json(result)["data"])


@pytest.mark.parametrize("carrier", ["maxplus", "minplus"])
def test_tropical_product_equals_oracle(carrier):
    # the bottom 64 rows go to the worker; numpy's max or min over k of
    # A[i, k] + B[k, j], each sum rounded once as the kernel rounds it
    rng = _rng("product", carrier)
    data = workloads.tropical_matrix(rng, carrier, 128, 128, 0.3)
    b_data = [[v + rng.random() if isinstance(v, float) else v for v in row]
              for row in workloads.tropical_matrix(rng, carrier, 128, 128,
                                                   0.5)]
    got = workloads.to_matrix(carrier, data).mul(
        workloads.to_matrix(carrier, b_data))
    want = oracles.product(carrier, oracles.array(data, carrier),
                           oracles.array(b_data, carrier))
    assert np.array_equal(oracles.array(plain(got), carrier), want)


@pytest.mark.parametrize("carrier,n", TROPICAL_CASES)
def test_least_solution_equals_oracle(carrier, n):
    # the oracle's A* times B, as numpy products.  The elimination runs
    # in two row stripes on two processes, boolean at n = 256 only
    rng = _rng("solve", carrier, n)
    density = 1.0 if n == 64 else 0.3
    data = workloads.tropical_matrix(rng, carrier, n, n, density)
    b_data = workloads.tropical_matrix(rng, carrier, n, 8, 0.5)
    result = solve_bellman(workloads.to_matrix(carrier, data),
                           workloads.to_matrix(carrier, b_data))
    assert oracles.Oracle().bellman_ok(carrier, data, b_data,
                                       matrix_to_json(result)["data"], False)


@pytest.mark.parametrize("carrier", ["real_field", "rplus"])
def test_real_least_solution_equals_inverse_times_b(carrier):
    rng = _rng("solve", carrier, 64)
    data = workloads.contraction(rng, carrier, 64)
    b_data = workloads.contraction(rng, carrier, 64)[:8]
    b_data = [list(col) for col in zip(*b_data)]       # 64 x 8
    result = solve_bellman(workloads.to_matrix(carrier, data),
                           workloads.to_matrix(carrier, b_data))
    assert oracles.Oracle().bellman_ok(carrier, data, b_data,
                                       matrix_to_json(result)["data"], False)


def test_real_field_gauss_jordan_equals_inverse():
    data = workloads.contraction(_rng("real_field", 64), "real_field", 64)
    result = closure_gauss_jordan(workloads.to_matrix("real_field", data))
    assert _matches_oracle("real_field", data, matrix_to_json(result)["data"])


@pytest.mark.parametrize("n", [96, 128])
@pytest.mark.parametrize("kind", ["contraction", "non-contraction", "dense"])
def test_real_matrix_star_equals_inverse(kind, n):
    # the pivoted elimination in two row stripes against numpy.linalg.inv
    # of E - A.  The non-contraction has a diagonal of 2 to 2.5 and rows
    # of E - A whose other entries sum below 0.9 in magnitude, so E - A
    # is diagonally dominant; on both, the pivots stay on the diagonal.
    # Dense entries in [-1, 1] move them off it
    rng = _rng("invert", kind, n)
    if kind == "contraction":
        data = workloads.contraction(rng, "real_field", n)
    elif kind == "non-contraction":
        data = [[rng.uniform(2.0, 2.5) if i == j
                 else rng.uniform(-0.9, 0.9) / n for j in range(n)]
                for i in range(n)]
    else:
        data = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    result = real_matrix_star(workloads.to_matrix("real_field", data))
    assert _matches_oracle("real_field", data, matrix_to_json(result)["data"])


def test_lifted_closure_equals_endpoint_oracles():
    # at n = 64 the hi endpoint run goes to the endpoint worker process
    data = workloads.interval_matrix(_rng("interval", 64), "maxplus", 64, 0.3)
    result = closure_block(workloads.to_matrix("maxplus", data, interval=True))
    got = matrix_to_json(result)["data"]
    for k in (0, 1):
        assert _matches_oracle("maxplus", oracles.endpoint(data, k),
                               oracles.endpoint(got, k))


@pytest.mark.parametrize("carrier", ["maxplus", "minplus"])
def test_lifted_solves_equal_endpoint_oracles(carrier):
    # each endpoint's A* by scipy's shortest paths, times its B by a
    # numpy product: solve_bellman runs two endpoint runs, the
    # substitutions the lifted fold
    rng = _rng("lifted solve", carrier)
    data = workloads.interval_matrix(rng, carrier, 48, 0.3)
    b_data = workloads.interval_matrix(rng, carrier, 48, 0.5)
    b_data = [row[:4] for row in b_data]
    A = workloads.to_matrix(carrier, data, interval=True)
    B = workloads.to_matrix(carrier, b_data, interval=True)
    oracle = oracles.Oracle()
    assert oracle.bellman_ok(carrier, data, b_data,
                             plain(solve_bellman(A, B)), True)
    assert oracle.bellman_ok(carrier, data, b_data,
                             plain(solve_via_ldm(A, B)), True)
    b = [row[0] for row in b_data]
    x = solve_ldm(ldm_factorize(A), [workloads.decode(v) for v in b])
    assert oracle.bellman_ok(carrier, data, [[v] for v in b],
                             [[v] for v in plain(x)], True)


@pytest.mark.parametrize("carrier", ["maxplus", "minplus"])
def test_tropical_factorization_equals_oracle(carrier):
    data = workloads.tropical_matrix(_rng("ldm", carrier), carrier, 64, 64, 0.5)
    triple = ldm_factorize(workloads.to_matrix(carrier, data))
    assert oracles.Oracle().triple_ok(carrier, data, plain(triple), False)


def test_real_field_solve_through_the_factors_equals_oracle():
    rng = _rng("solve_ldm", 96)
    data = workloads.contraction(rng, "real_field", 96)
    triple = ldm_factorize(workloads.to_matrix("real_field", data))
    for _ in range(3):
        b = workloads.vector(rng, "real_field", 96)
        assert oracles.Oracle().solve_ok(data, b, plain(solve_ldm(triple, b)))


@pytest.mark.parametrize("carrier", ["maxplus", "minplus"])
def test_tropical_symmetric_solve_equals_oracle(carrier):
    # a symmetric star-safe matrix: arcs both ways, of equal weight
    rng = _rng("symmetric", carrier)
    data = workloads.tropical_matrix(rng, carrier, 64, 64, 0.5)
    for i in range(64):
        for j in range(i):
            data[i][j] = data[j][i]
    triple = symmetric_factorize(workloads.to_matrix(carrier, data))
    b = [row[0] for row in workloads.tropical_matrix(rng, carrier, 64, 1, 0.5)]
    x = solve_ldm(triple, [workloads.decode(v) for v in b])
    assert oracles.Oracle().bellman_ok(carrier, data, [[v] for v in b],
                                       [[v] for v in plain(x)], False)


@pytest.mark.parametrize("carrier", ["real_field", "rplus"])
def test_series_equals_inverse(carrier):
    # at most 60 partial sums of a contraction of norm 0.4, as the
    # benchmark runs them: a cut tail is below 1e-23
    data = workloads.contraction(_rng("series", carrier), carrier, 32)
    series = closure_iterative(workloads.to_matrix(carrier, data),
                               ClosureOptions(algorithm="iterative",
                                              max_iterations=60))
    assert oracles.Oracle().closure_ok(carrier, data, plain(series.matrix), False)


def _doubling_path(terms):
    """The term counts a series cut at ``terms`` passes through: each
    leading run of the binary digits of ``terms``, and twice the one
    before it."""
    heads = [terms >> k for k in range(terms.bit_length())]
    return set(heads) | {2 * h for h in heads[1:]}


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("carrier", ["real_field", "rplus"])
def test_the_series_is_cut_after_max_iterations(carrier, n):
    # numpy's E + A + ... + A^N at every cut N = 1..70, 2^j - 1, 2^j and
    # 2^j + 1 among them.  Unless a step left the sum unchanged, the
    # series is flagged as cut at N; if one did, it stopped at a term
    # count its doubling passes through
    data = workloads.contraction(_rng("cut", carrier, n), carrier, n)
    A = workloads.to_matrix(carrier, data)
    a = np.array(data)
    power, partial = np.eye(n), np.eye(n)
    for cap in range(1, 71):
        power = power @ a
        partial = partial + power
        res = closure_iterative(A, ClosureOptions(max_iterations=cap))
        got = np.array(plain(res.matrix))
        assert np.abs(got - partial).max() <= 1e-12 * np.abs(partial).max()
        if res.truncated:
            assert res.iterations == cap
        else:
            assert res.iterations <= cap
            assert res.iterations + 1 in _doubling_path(cap + 1)
        # a term of norm 0.4^10 is far above the rounding of the sum
        assert res.truncated or cap > 10


@pytest.mark.parametrize("n", [64, 96])
@pytest.mark.parametrize("carrier", ["real_field", "rplus"])
def test_symmetric_solve_through_the_factors_equals_oracle(carrier, n):
    rng = _rng("symmetric", carrier, n)
    data = workloads.symmetric_contraction(rng, n)
    triple = symmetric_factorize(workloads.to_matrix(carrier, data))
    for _ in range(2):
        b = workloads.vector(rng, carrier, n)
        assert oracles.Oracle().solve_ok(data, b, plain(solve_ldm(triple, b)))


def _widths(n, lo, hi, rng):
    """Arcs of sixteen widths between the bounds ``lo`` and ``hi``, so
    that paths tie and the oracle takes sixteen thresholds, and their
    n x n matrix, ``lo`` where no arc is."""
    arcs = [(i + 1, j + 1, lo + (hi - lo) * rng.randint(1, 16) / 16)
            for i in range(n) for j in range(n)
            if i != j and rng.random() < 0.1]
    W = np.full((n, n), lo)
    for u, v, w in arcs:
        W[u - 1, v - 1] = w
    return arcs, W


def _threshold_reachability(W, lo, hi):
    """The widest path from i to j: the largest t such that arcs of
    width t or more lead from i to j; none leaves the lower bound, and
    the diagonal is the upper one."""
    want = np.full(W.shape, lo)
    for t in np.unique(W[W > lo]):
        reach = np.isfinite(shortest_path(
            csgraph_from_dense((W >= t).astype(float)), unweighted=True))
        want[reach] = t
    np.fill_diagonal(want, hi)
    return want


@pytest.mark.parametrize("bounds", [(-5.0, 3.0), (2.0, 100.0)])
def test_widest_paths_equal_threshold_reachability(bounds):
    lo, hi = bounds
    arcs, W = _widths(96, lo, hi, _rng("widest", lo, hi))
    got = oracles.array(plain(widest_paths(
        WeightedDigraph(96, tuple(arcs), make_semiring("maxmin", bounds)))),
        "maxmin")
    assert np.array_equal(got, _threshold_reachability(W, lo, hi))


@pytest.mark.parametrize("bounds", [(-5.0, 3.0), (2.0, 100.0)])
def test_maxmin_gauss_jordan_equals_threshold_reachability(bounds):
    # the two stripes on two processes, under bounds other than [0, 10]
    lo, hi = bounds
    _, W = _widths(96, lo, hi, _rng("maxmin gauss_jordan", lo, hi))
    got = closure_gauss_jordan(Matrix(make_semiring("maxmin", bounds),
                                      W.tolist()))
    assert np.array_equal(oracles.array(plain(got), "maxmin"),
                          _threshold_reachability(W, lo, hi))


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_shortest_paths_equal_oracle(algorithm):
    data = workloads.tropical_matrix(_rng("paths", algorithm), "minplus", 96,
                                     96, 0.3)
    g = workloads.graph_of(data, "minplus")
    got = shortest_paths(WeightedDigraph(96, tuple(map(tuple, g["arcs"])),
                                         make_semiring("minplus")),
                         ClosureOptions(algorithm=algorithm))
    assert _matches_oracle("minplus", data, plain(got))


def test_cli_paths_equal_oracle(tmp_path):
    # as the cli-jobs workload runs it: a graph file, the default closure
    data = workloads.tropical_matrix(_rng("cli paths"), "minplus", 96, 96, 0.3)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(workloads.graph_of(data, "minplus")))
    code, out = workloads.run_main(["paths", "--semiring", "minplus",
                                    str(path)])
    assert code == 0
    assert _matches_oracle("minplus", data, json.loads(out)["result"]["data"])


@pytest.mark.parametrize("horizon", [0, 1, 7, 40])
def test_profit_over_a_horizon_equals_the_recurrence(horizon):
    # v <- max_j (a_ij + v_j), h times from the terminal rewards, each
    # sum rounded once, as the product with a vector rounds it
    n = 96
    rng = _rng("profit", horizon)
    arcs = [(i + 1, j + 1, rng.uniform(-1.0, 1.0)) for i in range(n)
            for j in range(n) if rng.random() < 0.3]
    terminal = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    got = max_profit(WeightedDigraph(n, tuple(arcs), make_semiring("maxplus")),
                     terminal, horizon)
    W = np.full((n, n), -np.inf)
    for u, v, w in arcs:
        W[u - 1, v - 1] = w
    want = np.array(terminal)
    for _ in range(horizon):
        want = (W + want[None, :]).max(axis=1)
    assert np.array_equal(oracles.array([plain(got)], "maxplus")[0], want)


@pytest.mark.parametrize("horizon", [None, 5])
def test_cli_profit_equals_oracle(tmp_path, horizon):
    # as the cli-jobs workload runs it: a graph file and integer terminal
    # rewards; over all walk lengths the values are A* b, with A* by
    # scipy's shortest paths on the negated weights, else the recurrence
    rng = _rng("cli profit", horizon)
    data = workloads.tropical_matrix(rng, "maxplus", 96, 96, 0.3)
    b = [float(rng.randint(-5, 5)) for _ in range(96)]
    graph, terminal = tmp_path / "g.json", tmp_path / "b.json"
    graph.write_text(json.dumps(workloads.graph_of(data, "maxplus")))
    terminal.write_text(json.dumps(b))
    argv = ["profit", "--semiring", "maxplus", str(graph), str(terminal)]
    if horizon is not None:
        argv[1:1] = ["--horizon", str(horizon)]
    code, out = workloads.run_main(argv)
    assert code == 0
    got = oracles.array([json.loads(out)["result"]], "maxplus")[0]
    W = oracles.array(data, "maxplus")
    if horizon is None:
        want = oracles.product("maxplus", oracles.star("maxplus", W),
                               np.array(b)[:, None])[:, 0]
    else:
        want = np.array(b)
        for _ in range(horizon):
            want = (W + want[None, :]).max(axis=1)
    assert np.array_equal(got, want)


# ------------------------------------------- the complete carriers at n = 64


def _blocks_of_sccs(rng, weight):
    """Arcs {(i, j): w} of a 64-node graph in eight blocks of eight nodes.
    A ring makes each block one strongly connected component, every other
    arc within it is drawn with probability 0.5, and three arcs lead from
    each block to each of the next two, so that some pairs are joined
    and others are not."""
    arcs = {}
    for b in range(8):
        nodes = range(8 * b, 8 * b + 8)
        for i in nodes:
            arcs[i, 8 * b + (i + 1) % 8] = weight(rng)
            for j in nodes:
                if (i, j) not in arcs and rng.random() < 0.5:
                    arcs[i, j] = weight(rng)
        for c in (b + 1, b + 2):
            for _ in range(3 if c < 8 else 0):
                arcs[rng.randrange(8 * b, 8 * b + 8),
                     rng.randrange(8 * c, 8 * c + 8)] = weight(rng)
    return arcs


def _complete_input(carrier, arcs):
    """The matrix of ``arcs`` over ``carrier``, math.inf as the top tag,
    and the arcs as a float array, nan where no arc is."""
    zero = NEG_INF if carrier == "maxplus_complete" else 0.0
    W = np.full((64, 64), np.nan)
    data = [[zero] * 64 for _ in range(64)]
    for (i, j), w in arcs.items():
        W[i, j] = w
        data[i][j] = POS_INF if w == math.inf else w
    return Matrix(make_semiring(carrier), data), W


def _infinite_pairs(W, bad):
    """Pairs (i, j) joined by a path through a node of ``bad`` or through
    an arc of weight inf: strongly connected components, then
    reachability (by scipy)."""
    R = np.isfinite(shortest_path(csgraph_from_dense(
        (~np.isnan(W)).astype(float)), unweighted=True))
    hit = (R[:, bad].astype(int) @ R[bad, :].astype(int)) > 0
    for u, v in zip(*np.nonzero(W == np.inf)):
        hit |= np.outer(R[:, u], R[v, :])
    return hit, R


def _components(W):
    """The strongly connected components of the finite arcs of W, as
    lists of nodes."""
    _, labels = connected_components(csgraph_from_dense(
        np.isfinite(W).astype(float)), directed=True, connection="strong")
    return [np.flatnonzero(labels == k) for k in range(labels.max() + 1)]


def _maxplus_complete_star(W):
    """A* over maxplus_complete: +inf where a path passes an arc of weight
    inf or a node on a cycle of positive weight, elsewhere the longest
    path weight, by Bellman-Ford on the negated arcs of the rest, and
    -inf where no path is."""
    finite = np.where(np.isfinite(W), -W, np.inf)      # negated, inf: none
    bad = []
    for nodes in _components(W):
        try:
            shortest_path(csgraph_from_dense(finite[np.ix_(nodes, nodes)],
                                             null_value=np.inf), method="BF")
        except NegativeCycleError:
            bad.extend(nodes)
    hit, _ = _infinite_pairs(W, bad)
    finite[bad, :] = finite[:, bad] = np.inf
    want = -shortest_path(csgraph_from_dense(finite, null_value=np.inf),
                          method="BF")
    want[hit] = np.inf
    return want


def _rplus_complete_star(W):
    """A* over rplus_complete: +inf where a path passes an arc of weight
    inf or a component of spectral radius 1 or more, elsewhere
    ``numpy.linalg.inv(E - A)`` on the rest; and whether a pair is
    joined by a path at all.  Every radius must lie well away from 1."""
    finite = np.where(np.isfinite(W), W, 0.0)
    bad = []
    for nodes in _components(W):
        radius = max(abs(np.linalg.eigvals(finite[np.ix_(nodes, nodes)])))
        assert radius <= 0.5 or radius >= 2
        if radius >= 2:
            bad.extend(nodes)
    hit, R = _infinite_pairs(W, bad)
    finite[bad, :] = finite[:, bad] = 0.0
    want = np.linalg.inv(np.eye(64) - finite)
    want[hit] = np.inf
    return want, R


def _floats(M):
    return np.array([[math.inf if v is POS_INF else -math.inf
                      if v is NEG_INF else v for v in row]
                     for row in M.to_lists()])


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_maxplus_complete_closure_equals_oracle(algorithm):
    # integer weights, so every path weight is exact: negative arcs, a
    # cycle of weight 3 in block 3 and an arc of weight inf from block 5
    # to block 6
    arcs = _blocks_of_sccs(_rng("maxplus_complete"),
                           lambda rng: -float(rng.randint(1, 9)))
    arcs[24, 25], arcs[25, 24] = 5.0, -2.0
    arcs[40, 49] = math.inf
    A, W = _complete_input("maxplus_complete", arcs)
    want = _maxplus_complete_star(W)
    assert np.isposinf(want).any() and np.isneginf(want).any()
    assert np.array_equal(_floats(ALGORITHMS[algorithm](A)), want)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_rplus_complete_closure_equals_oracle(algorithm):
    # each block scaled to spectral radius 0.4, block 3 to 2.5, and an
    # arc of weight inf from block 5 to block 6
    arcs = _blocks_of_sccs(_rng("rplus_complete"),
                           lambda rng: rng.uniform(0.05, 1.0))
    _, W = _complete_input("rplus_complete", arcs)
    for b in range(8):
        block = np.nan_to_num(W[8 * b:8 * b + 8, 8 * b:8 * b + 8])
        scale = (2.5 if b == 3 else 0.4) / float(max(abs(np.linalg.eigvals(block))))
        for (i, j) in arcs:
            if i // 8 == j // 8 == b:
                arcs[i, j] *= scale
    arcs[40, 49] = math.inf
    A, W = _complete_input("rplus_complete", arcs)
    want, joined = _rplus_complete_star(W)
    got = _floats(ALGORITHMS[algorithm](A))
    assert np.isposinf(want).any() and not joined.all()
    assert np.array_equal(np.isposinf(got), np.isposinf(want))
    assert (got[~joined] == 0.0).all()
    finite = np.isfinite(want)
    assert np.abs(got[finite] - want[finite]).max() <= oracles.REAL_TOL * max(
        1.0, np.abs(want[finite]).max())
