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
``numpy.linalg.solve``.  The tropical comparisons are exact; the real
ones are within ``oracles.REAL_TOL`` relative.  Skipped where numpy,
scipy or networkx is not installed.
"""

import random
import sys
from pathlib import Path

import pytest

for _module in ("numpy", "scipy", "networkx"):
    pytest.importorskip(_module)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import oracles    # noqa: E402
import workloads  # noqa: E402
from harness import plain  # noqa: E402

from semiralg import (ClosureOptions, closure_block,  # noqa: E402
                      closure_gauss_jordan, closure_iterative, ldm_factorize,
                      real_matrix_star, solve_bellman, solve_ldm)
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


@pytest.mark.parametrize("carrier", ["real_field", "rplus"])
def test_series_equals_inverse(carrier):
    # at most 60 partial sums of a contraction of norm 0.4, as the
    # benchmark runs them: a cut tail is below 1e-23
    data = workloads.contraction(_rng("series", carrier), carrier, 32)
    series = closure_iterative(workloads.to_matrix(carrier, data),
                               ClosureOptions(algorithm="iterative",
                                              max_iterations=60))
    assert oracles.Oracle().closure_ok(carrier, data, plain(series.matrix), False)
