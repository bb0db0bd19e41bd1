"""Closure algorithms: block recursion, pivot elimination, partial sums."""

import dataclasses
import itertools
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ALL_NAMES, CATALOG_LABELS, IDEMPOTENT_NAMES,
                      KERNEL_CARRIERS, PYTEST_PID, assert_bit_identical,
                      assert_swept, catalog_matrix, descriptor, fork_anew,
                      in_threads, kernel_descriptor, kernel_rows,
                      random_interval_matrix, random_oracle_matrix,
                      random_stable_matrix, ship_placements, shipped_and_here)
from semiralg import (ClosureOptions, Matrix, NEG_INF, POS_INF, closure,
                      closure_block, closure_gauss_jordan, closure_iterative,
                      identity, lift_semiring, make_semiring,
                      real_matrix_star, solve_bellman, zeros)
from semiralg import intervals, offload, semirings
from semiralg.closure import _forward, _stripe
from semiralg.errors import (DimensionMismatch, IllegalElement,
                             InvalidOptions, NoStabilization, StarUndefined)
from semiralg.matrices import _pair, _product

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
    # A^2 adds nothing to E + A; the doubling sees that when E through A^3
    # equals E through A^1
    a = Matrix(MX, [[NEG_INF, -1.0], [-2.0, NEG_INF]])
    res = closure_iterative(a)
    assert res.matrix.to_lists() == [[0.0, -1.0], [-2.0, 0.0]]
    assert res.iterations == 3
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


@pytest.mark.parametrize("field", ["split", "max_iterations"])
@pytest.mark.parametrize("value", [2.5, 2.0, "3", True], ids=repr)
def test_options_that_are_no_int_are_invalid(field, value):
    # a float split would slice rows with it, and a float cap would fail
    # on bit_length, each as a raw Python error
    with pytest.raises(InvalidOptions, match=f"{field} must be an int"):
        ClosureOptions(**{field: value})


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
    # on maxmin the closures and the solve sweep: the fold matches them
    # by value, and the tie rule says which signed zero they print
    d = kernel_descriptor(label)
    fold = dataclasses.replace(d)
    check = assert_swept if d.name == "maxmin" else (
        lambda got, want, rows, rhs=None: assert_bit_identical(got, want))
    series = ClosureOptions(max_iterations=4)
    for n in (1, 2, 3, 5, 8, 13):
        rows = kernel_rows(label, n, n, rng)
        rhs = kernel_rows(label, n, 3, rng)
        a, a_fold = Matrix(d, rows), Matrix(fold, rows)
        closures = [closure_gauss_jordan, closure_block]
        closures += [lambda a, k=k: closure_block(a, ClosureOptions(split=k))
                     for k in range(1, n)]
        for run in closures:
            check(run(a), run(a_fold), rows)
        check(solve_bellman(a, Matrix(d, rhs)),
              solve_bellman(a_fold, Matrix(fold, rhs)), rows, rhs)
        assert_bit_identical(closure_iterative(a, series).matrix,
                             closure_iterative(a_fold, series).matrix)


_SWEPT_BOUNDS = {
    "[0, 10]": ((0.0, 10.0), [0.0, -0.0, 10.0, 2.0, 7.5]),
    "[-5, 5]": ((-5.0, 5.0), [-5.0, 5.0, 0.0, -0.0, 1.0, -2.0]),
    "tags": ((NEG_INF, POS_INF), [NEG_INF, POS_INF, 0.0, -0.0, 1.0, -2.0]),
}


@pytest.mark.parametrize("bounds", sorted(_SWEPT_BOUNDS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_maxmin_sweep_equals_the_fold(bounds, data):
    # values drawn from ties, both zeros and the bounds, where the sweep
    # and the eliminations can part
    (lo, hi), pool = _SWEPT_BOUNDS[bounds]
    d = make_semiring("maxmin", (lo, hi))
    fold = dataclasses.replace(d)
    n, m = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 3))
    value = st.sampled_from(pool) | st.floats(
        -5.0 if lo is NEG_INF else lo, 5.0 if hi is POS_INF else hi)
    rows = data.draw(st.lists(st.lists(value, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    rhs = data.draw(st.lists(st.lists(value, min_size=m, max_size=m),
                             min_size=n, max_size=n))
    for run in (closure_block, closure_gauss_jordan):
        assert_swept(run(Matrix(d, rows)), run(Matrix(fold, rows)), rows)
    assert_swept(solve_bellman(Matrix(d, rows), Matrix(d, rhs)),
                 solve_bellman(Matrix(fold, rows), Matrix(fold, rhs)),
                 rows, rhs)


def test_no_maxmin_closure_or_solve_enters_split_job(monkeypatch, rng):
    runs = []
    split_job = offload.split_job

    def spy(run, *args):
        runs.append(run)
        return split_job(run, *args)

    monkeypatch.setattr(offload, "split_job", spy)
    monkeypatch.setattr(intervals, "split_job", spy)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    monkeypatch.setattr(offload, "_one_cpu", lambda: False)
    for label in ("maxmin", "maxmin_inf"):
        a = catalog_matrix(label, 64, 64, rng)
        b = catalog_matrix(label, 64, 8, rng)
        for opts in ALGOS[:2]:
            closure(a, opts)
            solve_bellman(a, b, opts)
        closure_gauss_jordan(a)
    assert runs == []
    # a lifted call ships its hi endpoint run, and its runs sweep
    av = random_interval_matrix("maxmin", 16, rng)
    closure_block(av)
    closure_gauss_jordan(av)
    assert runs == [intervals._runs] * 2


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
            lambda a: closure_block(a, ClosureOptions(split=1)),
            lambda a: solve_bellman(a, Matrix(a.descriptor, rhs))]
    rhs = [[d.one, d.zero], [d.zero, d.one], [d.one, d.one]]
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


def test_real_matrix_star_performs_n_cubed_accumulates(rng):
    # n for row i of E - A, as e_i - a_i, and n on each of the n - 1
    # other rows at each of the n steps: n^3 in all, as Gauss-Jordan
    for n in (1, 2, 5, 9, 64):
        a = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
        tally = [0]
        real_matrix_star(Matrix(_counting_copy(REAL, tally), a))
        assert tally[0] == n ** 3


@pytest.mark.parametrize("name", ALL_NAMES + ["interval"])
def test_solve_bellman_performs_its_closed_form_accumulates(name, rng):
    # the step at pivot k takes n - k + m on each of the n - 1 - k rows
    # below k, and the back substitution n - k - 2 per column of B at
    # row k < n - 1: (n^3 - n)/3 + m (n - 1)^2 in all
    for n in range(1, 9):
        for m in (1, 3):
            if name == "interval":
                a, b = (random_interval_matrix("maxplus", k, rng)
                        for k in (n, n + m))
                d = lift_semiring(descriptor("maxplus"))
            else:
                a, b = (random_oracle_matrix(name, k, rng) for k in (n, n + m))
                d = descriptor(name)
            tally = [0]
            counted = _counting_copy(d, tally)
            b = [row[:m] for row in b.to_lists()[:n]]       # n x m
            solve_bellman(Matrix(counted, a.to_lists()), Matrix(counted, b))
            assert tally[0] == (n ** 3 - n) // 3 + m * (n - 1) ** 2


def test_an_overflow_in_an_eliminated_column_is_not_computed():
    # the step at pivot 1 would put 1e308 + 1e308 in column 0 of row 2,
    # which nothing reads: the forward pass steps a row below pivot k
    # from column k on, so the catalog kernels and the fold of a copy
    # both return the least solution
    a = [[NEG_INF] * 3, [1e308, NEG_INF, NEG_INF], [NEG_INF, 1e308, NEG_INF]]
    b = [[NEG_INF], [0.0], [0.0]]
    for d in (MX, dataclasses.replace(MX)):
        got = solve_bellman(Matrix(d, a), Matrix(d, b)).to_lists()
        assert repr(got) == repr([[NEG_INF], [0.0], [1e308]])


# ------------------------------------------- the block products on the worker


@pytest.fixture
def products(monkeypatch):
    """Every block product may go to the worker, the second of a pair
    (``_pair``) and the bottom rows of one split by rows (``_product``),
    also where the calling thread may use only one CPU; the list
    returned records each placement of one, True for a run that went."""
    return ship_placements(monkeypatch, _pair, _product)


@pytest.fixture
def stripes(monkeypatch):
    """As ``products``, for the bottom stripe of a Gauss-Jordan closure."""
    return ship_placements(monkeypatch, _stripe)


@pytest.fixture
def solves(monkeypatch):
    """As ``products``, for the odd rows of the elimination that solves."""
    return ship_placements(monkeypatch, _forward)


@pytest.fixture
def series(monkeypatch):
    """As ``products``: the series ships the bottom rows of its products,
    as every ``Matrix.mul`` does."""
    return ship_placements(monkeypatch, _product)


@pytest.mark.parametrize("name", CATALOG_LABELS)
def test_shipped_products_are_bit_identical(monkeypatch, products, rng, name):
    # every product ships: the independent pairs and both halves of the
    # products split by rows, D = A22 + A21 P and TL = S11 + TR Q
    for n in (2, 9, 16, 17):
        a = catalog_matrix(name, n, n, rng)
        (got, _), (want, _) = shipped_and_here(
            monkeypatch, products, lambda: closure_block(a),
            ships=not name.startswith("maxmin"))    # maxmin sweeps here
        assert_bit_identical(got, want)


def test_a_star_failure_in_the_second_recursion_reads_as_here(monkeypatch,
                                                              products, rng):
    # the pivot at 7 fails in the recursion on the trailing block, after
    # the products of the leading one went to the worker and came back
    data = kernel_rows("maxplus", 8, 8, rng)
    data[6][6] = 1.0
    a = Matrix(MX, data)
    shipped, here = shipped_and_here(monkeypatch, products,
                                     lambda: closure_block(a))
    assert shipped == here
    assert here[1][0] is StarUndefined and here[1][2] == 7
    assert not offload._busy.locked()
    good = catalog_matrix("maxplus", 8, 8, rng)
    (got, _), (want, _) = shipped_and_here(monkeypatch, products,
                                           lambda: closure_block(good))
    assert_bit_identical(got, want)


def test_an_interrupt_while_a_product_is_in_flight_stops_the_worker(
        monkeypatch, products, rng):
    a = catalog_matrix("maxplus", 16, 16, rng)
    want = closure_block(a)             # shipped: the worker is up
    worker = offload._worker
    kernels = semirings.row_kernels(MX)

    def interrupted(X, Y):
        # the user interrupts this process while its worker holds a product
        if os.getpid() == PYTEST_PID and offload._busy.locked():
            raise KeyboardInterrupt
        return kernels.product(X, Y)

    monkeypatch.setitem(semirings._kernels, MX,
                        kernels._replace(product=interrupted))
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    with pytest.raises(KeyboardInterrupt):
        closure_block(a)
    assert offload._worker is None and not offload._busy.locked()
    assert not worker.process.is_alive()
    assert affinity(0) == cpus
    monkeypatch.setitem(semirings._kernels, MX, kernels)
    products.clear()
    assert_bit_identical(closure_block(a), want)
    assert products and all(products)
    assert offload._worker not in (None, worker)


class _Unloadable:
    """A product that pickles in the worker and does not unpickle here."""

    def __reduce__(self):
        return _fail_to_unpickle, ()


def _fail_to_unpickle():
    raise pickle.UnpicklingError("bad reply")


@pytest.mark.parametrize("lost", ["killed", "unpicklable"])
def test_a_worker_lost_while_q_is_out_leaves_the_pair_here(
        monkeypatch, products, rng, tmp_path, lost):
    a = catalog_matrix("maxplus", 16, 16, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = closure_block(a)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    marker = tmp_path / "q"

    def q_lost(X, Y):
        # the worker's first product of 8 rows is Q = A21 S11 at the top
        # level; it dies with it, or replies what does not unpickle, once
        if (os.getpid() != PYTEST_PID and len(X) == 8
                and not marker.exists()):
            marker.touch()
            if lost == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return _Unloadable()
        return kernels.product(X, Y)

    kernels = fork_anew(monkeypatch, product=q_lost)
    closure_block(catalog_matrix("maxplus", 4, 4, rng))   # starts the worker
    worker = offload._worker
    products.clear()
    got = closure_block(a)
    assert marker.exists() and products and all(products)
    assert_bit_identical(got, want)
    assert not offload._busy.locked()
    if lost == "killed":
        assert not worker.process.is_alive() and offload._worker is not worker
    else:
        assert offload._worker is worker and worker.process.is_alive()
    monkeypatch.setitem(semirings._kernels, MX, kernels)
    products.clear()
    assert_bit_identical(closure_block(a), want)
    assert products and all(products)
    assert offload._worker.process.is_alive()


def test_a_lifted_block_closure_keeps_its_products_here(monkeypatch, products,
                                                        rng):
    av = random_interval_matrix("maxplus", 16, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = closure_block(av)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    got = []
    # the hi run holds the worker, so the products of both endpoint runs
    # stay in their process; a product that waited on it would hang
    thread = threading.Thread(target=lambda: got.append(closure_block(av)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert_bit_identical(got[0], want)
    assert products and not any(products)


def _busy_where_run(M):
    return os.getpid(), offload._busy.locked()


def test_the_worker_ships_nothing_itself(products, rng):
    av = random_interval_matrix("maxplus", 4, rng)
    here, there = intervals.endpoint_runs(_busy_where_run, av)
    assert here == (os.getpid(), True)      # held by this call
    assert there[0] != os.getpid() and there[1] is True


def test_threads_share_the_worker_for_products(products, rng):
    # a product that reached the wrong call would put one thread's block
    # in another's place
    _share_the_worker(closure_block, products, rng)


def _share_the_worker(kernel, placements, rng):
    # more threads than cores, switching often
    cases = [catalog_matrix(name, 12, 12, rng)
             for name in ("maxplus", "minplus", "maxmin", "real_field")] * 2
    want = [kernel(a) for a in cases]
    got = [[] for _ in cases]

    def work(k):
        for _ in range(10):
            got[k].append(kernel(cases[k]))

    in_threads(work, len(cases))
    assert any(placements) and not all(placements)
    for results, w in zip(got, want):
        assert len(results) == 10
        for g in results:
            assert_bit_identical(g, w)


# --------------------------------------- the Gauss-Jordan stripes on the worker


@pytest.mark.parametrize("name", CATALOG_LABELS)
def test_striped_elimination_is_bit_identical(monkeypatch, stripes, rng, name):
    for n in (2, 9, 16, 17):
        a = catalog_matrix(name, n, n, rng)
        (got, _), (want, _) = shipped_and_here(
            monkeypatch, stripes, lambda: closure_gauss_jordan(a),
            ships=not name.startswith("maxmin"))    # maxmin sweeps here
        assert_bit_identical(got, want)


@pytest.mark.parametrize("pivot", [3, 12])     # the caller's rows are 0..7
def test_a_failing_pivot_reads_as_here_in_either_stripe(monkeypatch, stripes,
                                                        rng, pivot):
    data = kernel_rows("maxplus", 16, 16, rng)
    data[pivot][pivot] = 1.0
    a = Matrix(MX, data)
    shipped, here = shipped_and_here(monkeypatch, stripes,
                                     lambda: closure_gauss_jordan(a))
    assert shipped == here
    assert here[1][0] is StarUndefined and here[1][2] == pivot + 1
    assert not offload._busy.locked()
    good = catalog_matrix("maxplus", 16, 16, rng)
    (got, _), (want, _) = shipped_and_here(
        monkeypatch, stripes, lambda: closure_gauss_jordan(good))
    assert_bit_identical(got, want)


@pytest.mark.parametrize("row", [1, 2])       # the caller's rows are 0, 1
def test_a_failure_in_one_stripe_alone_reads_as_here(monkeypatch, stripes,
                                                     rng, row):
    # over maxplus_complete, the step at pivot 0 raises in this row only:
    # its top tag meets a sum past the float range, 1e308 + 1e308
    data = [[-1.0, 1e308, -1.0, -1.0]] + [[-1.0] * 4 for _ in range(3)]
    data[row] = [1e308, POS_INF, -1.0, -1.0]
    a = Matrix(descriptor("maxplus_complete"), data)
    shipped, here = shipped_and_here(monkeypatch, stripes,
                                     lambda: closure_gauss_jordan(a))
    assert shipped == here
    assert here[1][0] is IllegalElement and "float range" in here[1][1]
    assert not offload._busy.locked()
    good = catalog_matrix("maxplus_complete", 4, 4, rng)
    (got, _), (want, _) = shipped_and_here(
        monkeypatch, stripes, lambda: closure_gauss_jordan(good))
    assert_bit_identical(got, want)


def test_an_interrupt_while_waiting_for_a_pivot_row_stops_the_worker(
        monkeypatch, stripes, rng):
    a = catalog_matrix("maxplus", 16, 16, rng)
    want = closure_gauss_jordan(a)

    def slow(C, k, s, krow):
        # the worker, at the caller's last pivot, keeps the caller
        # waiting for its first pivot row, and the user interrupts that
        if os.getpid() != PYTEST_PID and k == 7:
            time.sleep(0.2)
            os.kill(PYTEST_PID, signal.SIGUSR1)
        return kernels.eliminate(C, k, s, krow)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    kernels = fork_anew(monkeypatch, eliminate=slow)
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    handler = signal.signal(signal.SIGUSR1, interrupt)
    try:
        with pytest.raises(KeyboardInterrupt):
            closure_gauss_jordan(a)
    finally:
        signal.signal(signal.SIGUSR1, handler)
    assert stripes[-1] is True
    assert offload._worker is None and not offload._busy.locked()
    assert affinity(0) == cpus
    monkeypatch.setitem(semirings._kernels, MX, kernels)
    assert_bit_identical(closure_gauss_jordan(a), want)
    assert stripes[-1] is True and offload._worker.process.is_alive()


@pytest.mark.parametrize("pivot", [3, 12])
def test_a_worker_killed_mid_elimination_leaves_it_here(monkeypatch, stripes,
                                                        rng, pivot):
    a = catalog_matrix("maxplus", 16, 16, rng)
    want = closure_gauss_jordan(a)

    def dying(C, k, s, krow):
        if os.getpid() != PYTEST_PID and k == pivot:
            os.kill(os.getpid(), signal.SIGKILL)
        return kernels.eliminate(C, k, s, krow)

    kernels = fork_anew(monkeypatch, eliminate=dying)
    got = closure_gauss_jordan(a)
    assert stripes[-1] is True
    assert_bit_identical(got, want)
    assert offload._worker is None and not offload._busy.locked()
    monkeypatch.setitem(semirings._kernels, MX, kernels)
    assert_bit_identical(closure_gauss_jordan(a), want)
    assert stripes[-1] is True and offload._worker.process.is_alive()


def test_a_lifted_gauss_jordan_keeps_its_stripes_here(monkeypatch, stripes,
                                                      rng):
    av = random_interval_matrix("maxplus", 16, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = closure_gauss_jordan(av)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    got = []
    # the hi run holds the worker, so the stripes of both endpoint runs
    # stay in their process; a stripe that waited on it would hang
    thread = threading.Thread(
        target=lambda: got.append(closure_gauss_jordan(av)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert_bit_identical(got[0], want)
    assert stripes and not any(stripes)


def test_threads_share_the_worker_for_stripes(stripes, rng):
    _share_the_worker(closure_gauss_jordan, stripes, rng)


# ------------------------------------ the least solution in two row stripes


@pytest.mark.parametrize("name", CATALOG_LABELS)
def test_striped_solve_is_bit_identical(monkeypatch, solves, rng, name):
    for n in (2, 9, 16, 17):
        a = catalog_matrix(name, n, n, rng)
        b = catalog_matrix(name, n, 3, rng)
        (got, _), (want, _) = shipped_and_here(
            monkeypatch, solves, lambda: solve_bellman(a, b),
            ships=not name.startswith("maxmin"))    # maxmin sweeps here
        assert_bit_identical(got, want)


@pytest.mark.parametrize("pivot", [3, 12])     # the worker's rows are odd
def test_a_failing_solve_pivot_reads_as_here_in_either_stripe(
        monkeypatch, solves, rng, pivot):
    data = kernel_rows("maxplus", 16, 16, rng)
    data[pivot][pivot] = 1.0
    a = Matrix(MX, data)
    b = catalog_matrix("maxplus", 16, 3, rng)
    shipped, here = shipped_and_here(monkeypatch, solves,
                                     lambda: solve_bellman(a, b))
    assert shipped == here
    assert here[1][0] is StarUndefined and here[1][2] == pivot + 1
    assert not offload._busy.locked()
    good = catalog_matrix("maxplus", 16, 16, rng)
    (got, _), (want, _) = shipped_and_here(monkeypatch, solves,
                                           lambda: solve_bellman(good, b))
    assert_bit_identical(got, want)


@pytest.mark.parametrize("algorithm", ["block", "gauss_jordan"])
def test_a_solve_fails_at_the_gauss_jordan_pivot(monkeypatch, solves, rng,
                                                algorithm):
    # pivot 7 of 9 fails; the elimination meets the pivots of Gauss-Jordan
    data = kernel_rows("maxplus", 9, 9, rng)
    data[6][6] = 1.0
    a = Matrix(MX, data)
    b = catalog_matrix("maxplus", 9, 2, rng)
    with pytest.raises(StarUndefined) as info:
        closure_gauss_jordan(a)
    opts = ClosureOptions(algorithm=algorithm)
    shipped, here = shipped_and_here(monkeypatch, solves,
                                     lambda: solve_bellman(a, b, opts))
    assert shipped == here == (None, (StarUndefined, str(info.value), 7))


def test_a_lifted_solve_keeps_its_stripes_here(monkeypatch, solves, rng):
    av = random_interval_matrix("maxplus", 16, rng)
    bv = random_interval_matrix("maxplus", 16, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = solve_bellman(av, bv)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", 0)
    got = []
    # the hi run holds the worker, so the stripes of both endpoint runs
    # stay in their process; a stripe that waited on it would hang
    thread = threading.Thread(
        target=lambda: got.append(solve_bellman(av, bv)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert_bit_identical(got[0], want)
    assert solves and not any(solves)


# ------------------------------------------------- the series on the worker


def _series_outcome(a, opts=None):
    res = closure_iterative(a, opts)
    return repr(res.matrix.to_lists()), res.iterations, res.truncated


@pytest.mark.parametrize("name", CATALOG_LABELS)
def test_a_shipped_series_is_bit_identical(monkeypatch, series, rng, name):
    # the bottom rows of every product on the worker, against all here
    for n in (2, 9, 16, 17):
        a = catalog_matrix(name, n, n, rng)
        shipped, here = shipped_and_here(monkeypatch, series,
                                         lambda: _series_outcome(a))
        assert shipped == here and here[1] is None


# strictly upper triangular, so A^4 = 0 and E through A^3 is the closure;
# its entries are dyadic, so every sum is exact
NILPOTENT = [[0.0, 0.5, 0.25, 0.5], [0.0, 0.0, 0.5, 0.25],
             [0.0, 0.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("name,cap,iterations,truncated", [
    # 51 terms, 110011 in binary: E through A^1, A^2, A^5, then A^11
    # equals E through A^5
    ("rplus", 50, 11, False),
    # where terms can cancel, only a step of one term ends the series:
    # E through A^11 and A^23 are unchanged doublings, and A^24 adds
    # nothing
    ("real_field", 50, 24, False),
    # 5 terms, 101: A^1, A^3, then A^4, the last step, adds nothing
    ("rplus", 4, 4, False),
    ("real_field", 4, 4, False),
    # 4 terms, 100: A^1, A^3, and the cut
    ("rplus", 3, 3, True),
    ("real_field", 3, 3, True),
])
def test_a_nilpotent_series_ends_at_its_fixpoint(monkeypatch, series, name,
                                                 cap, iterations, truncated):
    a = Matrix(descriptor(name), NILPOTENT)
    opts = ClosureOptions(max_iterations=cap)
    shipped, here = shipped_and_here(monkeypatch, series,
                                     lambda: _series_outcome(a, opts))
    assert shipped == here
    assert here[0][1:] == (iterations, truncated)
    assert closure_iterative(a, opts).matrix == closure_gauss_jordan(a)


# A = -P for a projection P (P P = P): the terms run E, -P, P, -P, ...,
# so each doubling after the first leaves the sum unchanged while a step
# of one term still changes it.  Through an odd power the sum is E - P,
# through an even one E; the series never settles
CANCELLING = [
    ([[-1.0]], [[0.0]], [[1.0]]),
    ([[-0.5, -0.5], [-0.5, -0.5]], [[0.5, -0.5], [-0.5, 0.5]],
     [[1.0, 0.0], [0.0, 1.0]]),
]


@pytest.mark.parametrize("cap", [3, 7, 10, 11])
@pytest.mark.parametrize("data,odd,even", CANCELLING)
def test_a_series_whose_doublings_cancel_runs_to_its_cut(
        monkeypatch, series, data, odd, even, cap):
    a = Matrix(REAL, data)
    opts = ClosureOptions(max_iterations=cap)
    if a.rows > 1:
        shipped, here = shipped_and_here(monkeypatch, series,
                                         lambda: _series_outcome(a, opts))
        assert shipped == here
        outcome = here[0]
    else:       # one row has no halves: it stays here unasked
        outcome = _series_outcome(a, opts)
        assert series == []
    assert outcome == (repr(odd if cap % 2 else even), cap, True)


@pytest.mark.parametrize("row", [0, 3])     # the loop first or last on a chain
def test_a_shipped_series_that_never_settles_raises_as_here(monkeypatch,
                                                            series, row):
    data = [[-1.0 if j == i + 1 else NEG_INF for j in range(4)]
            for i in range(4)]
    data[row][row] = 1.0
    shipped, here = shipped_and_here(monkeypatch, series,
                                     lambda: _series_outcome(Matrix(MX, data)))
    assert shipped == here and here[1][0] is NoStabilization
    # E through A^3 holds every path; the doubling from E through A^3 to
    # E through A^7 still changes it
    assert "through A^7 still changing" in here[1][1]


# 2 x 2 real_field blocks on the diagonal of a 4 x 4 matrix, one for
# each half of the rows: a series that runs on; one whose product of
# step 1 leaves the float range as inf - inf, a NaN, or as inf; one that
# does so, as inf, in the first product of step 2
RUNS_ON = [[0.5, 0.0], [0.0, 0.5]]
PRODUCT_NAN = [[1e308, -1e308], [1e308, 0.0]]
PRODUCT_INF = [[0.0, 1e308], [0.0, 2.0]]
SUM_INF = [[0.0, 1e308], [0.0, 1.0]]


@pytest.mark.parametrize("top,bottom,value", [
    (PRODUCT_NAN, RUNS_ON, "nan"),          # the top rows alone
    (RUNS_ON, PRODUCT_NAN, "nan"),          # the bottom rows alone
    (SUM_INF, RUNS_ON, "inf"),
    (RUNS_ON, SUM_INF, "inf"),
    (PRODUCT_NAN, PRODUCT_INF, "nan"),      # both at once: the top's
    (PRODUCT_INF, PRODUCT_NAN, "inf"),
    # a failure of step 1 comes before one of step 2, in either half
    (SUM_INF, PRODUCT_NAN, "nan"),
    (PRODUCT_NAN, SUM_INF, "nan"),
])
def test_a_series_failure_reads_as_here_in_either_half(
        monkeypatch, series, rng, top, bottom, value):
    zero = [0.0, 0.0]
    a = Matrix(REAL, [row + zero for row in top] + [zero + row for row in bottom])
    shipped, here = shipped_and_here(monkeypatch, series,
                                     lambda: _series_outcome(a))
    assert shipped == here
    assert here[1][0] is IllegalElement and f"({value})" in here[1][1]
    assert not offload._busy.locked()
    good = catalog_matrix("real_field", 4, 4, rng)
    shipped, here = shipped_and_here(monkeypatch, series,
                                     lambda: _series_outcome(good))
    assert shipped == here and here[1] is None


def _chain(n):
    # maxplus arcs i -> i + 1: E through A^(n-1) is the closure, which
    # the doubling finds in the step from t = n to 2n when n is a power
    # of two
    return Matrix(MX, [[-1.0 if j == i + 1 else NEG_INF for j in range(n)]
                       for i in range(n)])


def test_a_worker_killed_mid_series_leaves_it_here(monkeypatch, series,
                                                   tmp_path):
    a = _chain(16)
    want = _series_outcome(a)
    assert want[1:] == (31, False)
    marker = tmp_path / "killed"
    calls = []

    def dying(X, Y):
        # the worker dies in its second product of the series, once: the
        # bottom 8 rows of a product split by rows
        if os.getpid() != PYTEST_PID and len(X) == 8:
            calls.append(len(X))
            if len(calls) == 2 and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
        return kernels.product(X, Y)

    kernels = fork_anew(monkeypatch, product=dying)
    closure_iterative(_chain(4))            # starts the worker
    worker = offload._worker
    series.clear()
    assert _series_outcome(a) == want
    assert marker.exists() and series and all(series)
    assert not worker.process.is_alive() and not offload._busy.locked()
    # the pairs after the lost one ship to a worker forked anew
    assert offload._worker not in (None, worker)
    assert offload._worker.process.is_alive()
    monkeypatch.setitem(semirings._kernels, MX, kernels)
    assert _series_outcome(a) == want


def test_a_lifted_series_ships_only_its_hi_runs(monkeypatch, series, rng):
    av = random_interval_matrix("maxplus", 16, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = _series_outcome(av)
    hi_runs = ship_placements(monkeypatch, intervals._runs)
    got = []
    # its products are lifted calls of Matrix.mul, each of whose hi
    # endpoint runs goes to the worker; the runs hold it, so no half of
    # their products ships
    thread = threading.Thread(target=lambda: got.append(_series_outcome(av)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert got == [want]
    assert hi_runs and all(hi_runs) and not any(series)


def test_threads_share_the_worker_for_series(series, rng):
    _share_the_worker(lambda a: closure_iterative(a).matrix, series, rng)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs CPU affinity")
def test_a_thread_on_one_cpu_ships_nothing(rng):
    # the worker could only take turns with it.  Floats only, so that
    # the rows print as Python
    a = Matrix(MX, [[-5.0 if v is NEG_INF else v for v in row]
                    for row in catalog_matrix("maxplus", 16, 16, rng)._data])
    src = str(Path(offload.__file__).resolve().parent.parent)
    code = f"""\
import os, sys
sys.path.insert(0, {src!r})
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
from semiralg import (Matrix, closure_block, closure_gauss_jordan,
                      closure_iterative, make_semiring)
from semiralg import offload
offload.SHIP_MIN_WORK = 0
a = Matrix(make_semiring("maxplus"), {a.to_lists()!r})
print(repr(closure_block(a).to_lists()))
print(repr(closure_gauss_jordan(a).to_lists()))
print(repr(closure_iterative(a).matrix.to_lists()))
print(offload._worker)
"""
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines() == [
        repr(closure_block(a).to_lists()),
        repr(closure_gauss_jordan(a).to_lists()),
        repr(closure_iterative(a).matrix.to_lists()), "None"]
