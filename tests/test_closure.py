"""Closure algorithms: block recursion, pivot elimination, partial sums."""

import dataclasses
import itertools

import pytest

from conftest import (ALL_NAMES, IDEMPOTENT_NAMES, KERNEL_CARRIERS,
                      assert_bit_identical, descriptor, kernel_descriptor,
                      kernel_rows, random_interval_matrix,
                      random_oracle_matrix, random_stable_matrix)
from semiralg import (ClosureOptions, Matrix, NEG_INF, POS_INF, closure,
                      closure_block, closure_gauss_jordan, closure_iterative,
                      identity, lift_semiring, solve_bellman, zeros)
from semiralg.errors import (DimensionMismatch, IllegalElement,
                             InvalidOptions, NoStabilization, StarUndefined)

MX = descriptor("maxplus")
BOOL = descriptor("boolean")
REAL = descriptor("real_field")

ALGOS = [ClosureOptions(algorithm="block"),
         ClosureOptions(algorithm="gauss_jordan"),
         ClosureOptions(algorithm="iterative")]


# ------------------------------------------------------------- worked examples


@pytest.mark.parametrize("opts", ALGOS)
def test_two_node_maxplus_example(opts):
    a = Matrix(MX, [[NEG_INF, -1.0], [-2.0, NEG_INF]])
    assert closure(a, opts).to_lists() == [[0.0, -1.0], [-2.0, 0.0]]


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES + ["rplus", "real_field"])
def test_closure_of_zeros_is_identity(name):
    d = descriptor(name)
    for n in (1, 2, 4):
        assert closure(zeros(d, n, n)) == identity(d, n)


def test_nilpotent_real_closure_is_inverse():
    a = Matrix(REAL, [[0.0, 0.5], [0.0, 0.0]])
    assert closure(a).to_lists() == [[1.0, 0.5], [0.0, 1.0]]
    assert closure_gauss_jordan(a).to_lists() == [[1.0, 0.5], [0.0, 1.0]]


def test_positive_cycle_star_undefined_vs_complete():
    a = Matrix(MX, [[1.0]])
    with pytest.raises(StarUndefined):
        closure(a)
    mxc = descriptor("maxplus_complete")
    assert closure(Matrix(mxc, [[1.0]])).to_lists() == [[POS_INF]]


def test_star_undefined_reports_pivot_location():
    # the positive cycle closes on the second pivot
    a = Matrix(MX, [[NEG_INF, 3.0], [1.0, NEG_INF]])
    with pytest.raises(StarUndefined) as exc:
        closure_gauss_jordan(a)
    assert exc.value.location == 2
    with pytest.raises(StarUndefined) as exc:
        closure_block(a)
    assert exc.value.location == 2


def test_closure_needs_square():
    a = Matrix(MX, [[1.0, 2.0]])
    for opts in ALGOS:
        with pytest.raises(DimensionMismatch):
            closure(a, opts)


# ----------------------------------------------------------------- iterative


def test_iterative_stabilizes_at_two_on_example():
    a = Matrix(MX, [[NEG_INF, -1.0], [-2.0, NEG_INF]])
    res = closure_iterative(a)
    assert res.matrix.to_lists() == [[0.0, -1.0], [-2.0, 0.0]]
    assert res.iterations == 2
    assert res.truncated is False


def test_iterative_no_stabilization_on_positive_cycle():
    with pytest.raises(NoStabilization):
        closure_iterative(Matrix(MX, [[1.0]]))


def test_iterative_truncates_non_idempotent():
    a = Matrix(REAL, [[0.5]])
    res = closure_iterative(a, ClosureOptions(max_iterations=10))
    assert res.truncated is True
    assert res.iterations == 10
    # ten partial sums of the geometric series
    assert abs(res.matrix[0, 0] - sum(0.5 ** k for k in range(11))) < 1e-12


def test_iterative_exact_fixpoint_short_circuits():
    # nilpotent: series terminates exactly, truncated must be False
    a = Matrix(REAL, [[0.0, 0.5], [0.0, 0.0]])
    res = closure_iterative(a, ClosureOptions(max_iterations=50))
    assert res.truncated is False
    assert res.matrix.to_lists() == [[1.0, 0.5], [0.0, 1.0]]


# ----------------------------------------------------------------- the axiom


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES)
def test_closure_axiom_exact(name, rng):
    for n in (1, 2, 3, 5, 8):
        a = random_stable_matrix(name, n, rng)
        s = closure(a)
        e = identity(a.descriptor, n)
        assert a.mul(s).add(e) == s
        assert s.mul(a).add(e) == s
        # order facts: E <= A* and A <= A*
        assert e.leq(s) and a.leq(s)


def test_closure_axiom_real_field(rng):
    from conftest import random_contraction
    for n in (2, 4):
        a = random_contraction(n, rng)
        s = closure_gauss_jordan(a)
        e = identity(REAL, n)
        assert a.mul(s).add(e).allclose(s, 1e-9)
        assert s.mul(a).add(e).allclose(s, 1e-9)


# ------------------------------------------------------- algorithm agreement


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES)
def test_tri_algorithm_agreement(name, rng):
    for n in (1, 2, 3, 4, 6, 8):
        a = random_stable_matrix(name, n, rng)
        results = [closure(a, opts) for opts in ALGOS]
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES)
def test_split_invariance(name, rng):
    for n in (2, 3, 5, 7):
        a = random_stable_matrix(name, n, rng)
        reference = closure_block(a)
        for k in range(1, n):
            assert closure_block(a, ClosureOptions(split=k)) == reference


def test_split_validation():
    a = Matrix(MX, [[NEG_INF, -1.0], [-2.0, NEG_INF]])
    with pytest.raises(InvalidOptions):
        closure_block(a, ClosureOptions(split=2))   # out of 1..n-1
    with pytest.raises(InvalidOptions):
        ClosureOptions(split=0)
    with pytest.raises(InvalidOptions):
        ClosureOptions(algorithm="magic")
    with pytest.raises(InvalidOptions):
        ClosureOptions(max_iterations=0)
    # split=1 on a 1x1 matrix is fine: base case, no partition happens
    assert closure_block(Matrix(MX, [[-1.0]]),
                         ClosureOptions(split=1)).to_lists() == [[0.0]]


# ------------------------------------------------------------------ parallel


@pytest.mark.parametrize("name", ["maxplus", "minplus", "boolean"])
def test_parallel_matches_serial_bitwise(name, rng):
    # parallel and threads are accepted and ignored: the block closure
    # always runs serially
    opts = ClosureOptions(parallel=True, threads=2)
    for n in (1, 5, 16, 24, 64):
        a = random_stable_matrix(name, n, rng)
        assert_bit_identical(closure_block(a, opts), closure_block(a))


# ------------------------------------------------------------------- bellman


def test_solve_bellman_zero_system_returns_rhs():
    b = Matrix(MX, [[1.0], [2.0]])
    assert solve_bellman(zeros(MX, 2, 2), b) == b


def test_solve_bellman_satisfies_fixpoint(rng):
    for name in IDEMPOTENT_NAMES:
        a = random_stable_matrix(name, 4, rng)
        b = random_stable_matrix(name, 4, rng)
        x = solve_bellman(a, b)
        assert a.mul(x).add(b) == x


def test_boolean_least_solution_single_column_exhaustive(rng):
    """All 2^3 candidate single-column X at n = 3: A*B is the least fixpoint."""
    for _ in range(20):
        a = random_stable_matrix("boolean", 3, rng, density=0.4)
        b = Matrix(BOOL, [[rng.random() < 0.5] for _ in range(3)])
        s = solve_bellman(a, b)
        assert a.mul(s).add(b) == s
        for bits in itertools.product([False, True], repeat=3):
            x = Matrix(BOOL, [[v] for v in bits])
            if a.mul(x).add(b) == x:
                assert s.leq(x)


def test_closure_dispatcher_default_is_block(rng):
    a = random_stable_matrix("maxplus", 5, rng)
    assert closure(a) == closure_block(a)
    assert closure(a, ClosureOptions(algorithm="iterative")) \
        == closure_iterative(a).matrix


# ------------------------------------------------ row kernels against the fold
#
# A dataclasses.replace copy of a catalog descriptor runs the generic row
# kernels, the left fold of its own fma; the catalog instance runs its
# own kernels on IEEE floats and bools.  Both must agree bit for bit.


@pytest.mark.parametrize("label", KERNEL_CARRIERS)
def test_closures_match_the_fma_fold_bit_for_bit(label, rng):
    d = kernel_descriptor(label)
    fold = dataclasses.replace(d)
    series = ClosureOptions(max_iterations=4)
    for n in (1, 2, 3, 5, 8, 13):
        rows = kernel_rows(label, n, n, rng)
        rhs = kernel_rows(label, n, 3, rng)
        a, a_fold = Matrix(d, rows), Matrix(fold, rows)
        runs = [lambda a, b: closure_gauss_jordan(a),
                lambda a, b: closure_block(a),
                lambda a, b: solve_bellman(a, b),
                lambda a, b: closure_iterative(a, series).matrix]
        runs += [lambda a, b, k=k: closure_block(a, ClosureOptions(split=k))
                 for k in range(1, n)]
        for run in runs:
            assert_bit_identical(run(a, Matrix(d, rhs)),
                                 run(a_fold, Matrix(fold, rhs)))


FAILING_PIVOT = {
    "maxplus": [[-1.0, NEG_INF, -2.0], [NEG_INF, 0.5, NEG_INF],
                [-3.0, NEG_INF, -1.0]],
    "minplus": [[1.0, POS_INF, 2.0], [POS_INF, -0.5, POS_INF],
                [3.0, POS_INF, 1.0]],
    "rplus": [[0.25, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 0.5]],
    "real_field": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]],
}


@pytest.mark.parametrize("name", sorted(FAILING_PIVOT))
def test_star_failure_reads_as_in_the_fma_fold(name):
    d = descriptor(name)
    fold = dataclasses.replace(d)
    runs = [closure_gauss_jordan, closure_block,
            lambda a: closure_block(a, ClosureOptions(split=1))]
    for run in runs:
        failures = []
        for desc in (d, fold):
            with pytest.raises(StarUndefined) as info:
                run(Matrix(desc, FAILING_PIVOT[name]))
            failures.append((info.value.location, str(info.value)))
        assert failures[0] == failures[1]
        assert failures[0][0] == 2


# each matrix has a path of two arcs whose weight leaves the float range
OVERFLOWING_PATH = {
    "maxplus": (1e308, NEG_INF),
    "minplus": (-1e308, POS_INF),
    "rplus": (1e308, 0.0),
    "real_field": (-1e308, 0.0),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_PATH))
def test_results_past_the_float_range_are_rejected(name):
    d = descriptor(name)
    w, z = OVERFLOWING_PATH[name]
    a = Matrix(d, [[z, w, z], [z, z, w], [z, z, z]])
    runs = [closure_gauss_jordan, closure_block, lambda a: a.mul(a),
            lambda a: solve_bellman(a, identity(d, 3))]
    for run in runs:
        with pytest.raises(IllegalElement, match="float range"):
            run(a)
    if name == "maxplus":
        # kernels would turn -inf + inf into NaN in the next product
        square = Matrix(d, [[1e308, 1e308], [NEG_INF, 1e308]])
        with pytest.raises(IllegalElement, match="float range"):
            square.mul(square)


def _counting_copy(d, tally):
    def fma(acc, x, y, base=d.fma):
        tally[0] += 1
        return base(acc, x, y)
    return dataclasses.replace(d, fma=fma)


@pytest.mark.parametrize("name", ALL_NAMES + ["interval"])
def test_gauss_jordan_performs_n_cubed_accumulates(name, rng):
    for n in range(1, 9):
        if name == "interval":
            a = random_interval_matrix("maxplus", n, rng)
            d = lift_semiring(descriptor("maxplus"))
        else:
            a = random_oracle_matrix(name, n, rng)
            d = descriptor(name)
        tally = [0]
        closure_gauss_jordan(Matrix(_counting_copy(d, tally), a.to_lists()))
        assert tally[0] == n ** 3
