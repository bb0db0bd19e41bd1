"""Matrix construction, arithmetic, order, powers, Mat_nn(S) laws, and
the product that ships its bottom rows to the worker process."""

import dataclasses
import math
import threading

import pytest

from conftest import (ALL_NAMES, IDEMPOTENT_NAMES, KERNEL_CARRIERS,
                      assert_bit_identical, descriptor, interval_hull,
                      kernel_descriptor, kernel_rows, pair_endpoints,
                      random_interval_matrix, random_oracle_matrix,
                      random_stable_matrix, ship_placements, shipped_and_here)
from semiralg import (NEG_INF, POS_INF, Matrix, Path, WeightedDigraph,
                      identity, lift_semiring, matrix_to_graph, path_weight,
                      zeros)
from semiralg import intervals, offload
from semiralg.errors import (DescriptorMismatch, DimensionMismatch,
                             IllegalElement, InvalidOptions)
from semiralg.intervals import _endpoint as endpoint
from semiralg.matrices import _product

SHIP_MIN_WORK = offload.SHIP_MIN_WORK

MX = descriptor("maxplus")
MN = descriptor("minplus")
BOOL = descriptor("boolean")
REAL = descriptor("real_field")


# -------------------------------------------------------------- construction


def test_construction_coerces_and_validates():
    m = Matrix(MX, [[1, 2], [3, 4]])
    assert m.rows == m.cols == 2
    assert type(m[0, 0]) is float           # ints normalized to floats
    with pytest.raises(DimensionMismatch):
        Matrix(MX, [])
    with pytest.raises(DimensionMismatch):
        Matrix(MX, [[]])
    with pytest.raises(DimensionMismatch):
        Matrix(MX, [[1, 2], [3]])           # ragged
    with pytest.raises(IllegalElement):
        Matrix(MX, [[1, float("inf")]])
    with pytest.raises(IllegalElement):
        Matrix(descriptor("rplus"), [[-1.0]])


def test_matrices_are_immutable():
    m = Matrix(MX, [[1.0]])
    with pytest.raises(AttributeError):
        m.rows = 2
    assert m.to_lists() == [[1.0]]
    lists = m.to_lists()
    lists[0][0] = 99.0                      # mutating the copy is harmless
    assert m[0, 0] == 1.0
    row = m.row(0)
    row[0] = 99.0
    assert m[0, 0] == 1.0


def test_identity_and_zeros_known_values():
    e = identity(MX, 2)
    assert e.to_lists() == [[0.0, NEG_INF], [NEG_INF, 0.0]]
    z = zeros(MN, 1, 3)
    assert z.to_lists() == [[POS_INF, POS_INF, POS_INF]]
    assert identity(BOOL, 1).to_lists() == [[True]]
    with pytest.raises(DimensionMismatch):
        identity(MX, 0)
    with pytest.raises(DimensionMismatch):
        zeros(MX, 0, 3)


NO_INTS = [2.5, 2.0, "2", True, None]


@pytest.mark.parametrize("count", NO_INTS)
def test_a_count_that_is_no_int_is_rejected(count):
    a = Matrix(MX, [[1, 2], [3, 4]])
    with pytest.raises(InvalidOptions, match=r"^k must be an int"):
        a.pow(count)
    with pytest.raises(DimensionMismatch, match=r"^n must be an int"):
        identity(MX, count)
    with pytest.raises(DimensionMismatch, match=r"^rows must be an int"):
        zeros(MX, count, 2)
    with pytest.raises(DimensionMismatch, match=r"^cols must be an int"):
        zeros(MX, 2, count)


# ------------------------------------------------------------------- add/mul


def test_add_worked_example():
    a = Matrix(MX, [[1, 2], [3, 4]])
    b = Matrix(MX, [[4, 1], [0, 9]])
    assert a.add(b).to_lists() == [[4.0, 2.0], [3.0, 9.0]]
    assert (a + b).to_lists() == [[4.0, 2.0], [3.0, 9.0]]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_add_zero_matrix_is_neutral(name, rng):
    a = random_oracle_matrix(name, 3, rng)
    o = zeros(a.descriptor, 3, 3)
    assert a.add(o) == a
    assert o.add(a) == a


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES)
def test_add_idempotent(name, rng):
    a = random_stable_matrix(name, 4, rng)
    assert a.add(a) == a


@pytest.mark.parametrize("label", KERNEL_CARRIERS)
def test_add_matches_the_scalar_add_bit_for_bit(label, rng):
    # a dataclasses.replace copy adds with its own scalar add
    d = kernel_descriptor(label)
    copy = dataclasses.replace(d)
    cases = [kernel_rows(label, rows, cols, rng) for rows, cols in
             ((1, 1), (1, 5), (4, 1), (6, 7), (16, 16)) for _ in range(2)]
    if label != "boolean":
        cases += [[[0.0, -0.0, -0.0]], [[-0.0, 0.0, -0.0]]]      # ties
    for x, y in zip(cases[::2], cases[1::2]):
        assert_bit_identical(Matrix(d, x).add(Matrix(d, y)),
                             Matrix(copy, x).add(Matrix(copy, y)))


@pytest.mark.parametrize("label", [k for k in KERNEL_CARRIERS if k != "real_field"])
def test_lifted_add_is_the_pair_of_its_base_sums(label, rng):
    # the lift adds with the base's scalar add, a base matrix on the
    # base's row kernels
    base = kernel_descriptor(label)
    for rows, cols in ((1, 1), (3, 4), (9, 9)):
        x, y = (interval_hull(base, Matrix(base, kernel_rows(label, rows, cols, rng)),
                              Matrix(base, kernel_rows(label, rows, cols, rng)))
                for _ in range(2))
        lo, hi = ([endpoint(m, k) for m in (x, y)] for k in (0, 1))
        want = pair_endpoints(base, lo[0].add(lo[1]), hi[0].add(hi[1]))
        assert_bit_identical(x.add(y), want)


@pytest.mark.parametrize("label", ["real_field", "rplus", "rplus_complete",
                                   "interval(rplus)"])
def test_add_past_the_float_range_raises(label):
    # as a product past it does; the sum must not hold an IEEE inf
    if label == "interval(rplus)":
        d, big, one = lift_semiring(descriptor("rplus")), (1.0, 1e308), (1.0, 1.0)
    else:
        d, big, one = descriptor(label), 1e308, 1.0
    a = Matrix(d, [[big, one], [one, one]])
    with pytest.raises(IllegalElement, match="float range"):
        a.add(a)
    assert a.add(zeros(d, 2, 2)) == a


def test_mul_worked_example_minplus():
    a = Matrix(MN, [[0, 5], [POS_INF, 0]])
    b = Matrix(MN, [[0, 9], [POS_INF, 2]])
    assert a.mul(b).to_lists() == [[0.0, 7.0], [POS_INF, 2.0]]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_identity_is_multiplicative_unit(name, rng):
    a = random_oracle_matrix(name, 4, rng)
    e = identity(a.descriptor, 4)
    assert e.mul(a) == a
    assert a.mul(e) == a


def test_mul_matches_classical_real_product(rng):
    a = Matrix(REAL, [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
    b = Matrix(REAL, [[rng.uniform(-2, 2) for _ in range(3)] for _ in range(3)])
    c = a.mul(b)
    for i in range(3):
        for j in range(3):
            classical = sum(a[i, k] * b[k, j] for k in range(3))
            assert abs(c[i, j] - classical) < 1e-12


@pytest.mark.parametrize("label", KERNEL_CARRIERS)
def test_mul_matches_the_fma_fold_bit_for_bit(label, rng):
    # a dataclasses.replace copy runs the generic fold of its own fma
    d = kernel_descriptor(label)
    fold = dataclasses.replace(d)
    for rows, inner, cols in ((1, 1, 1), (1, 4, 3), (3, 1, 2), (5, 5, 5),
                              (4, 9, 6), (12, 16, 7)):
        x = kernel_rows(label, rows, inner, rng)
        y = kernel_rows(label, inner, cols, rng)
        assert_bit_identical(Matrix(d, x).mul(Matrix(d, y)),
                             Matrix(fold, x).mul(Matrix(fold, y)))


# ------------------------------------------------- the product on the worker


@pytest.fixture
def products(monkeypatch):
    """Every bottom half of a product may go to the worker, also where
    the calling thread may use only one CPU; the list returned records
    each placement of one, True for a half that went."""
    return ship_placements(monkeypatch, _product)


def _factors(label, rows, inner, cols, rng):
    d = kernel_descriptor(label)
    return (Matrix(d, kernel_rows(label, rows, inner, rng)),
            Matrix(d, kernel_rows(label, inner, cols, rng)))


@pytest.mark.parametrize("label", KERNEL_CARRIERS)
def test_a_shipped_product_is_bit_identical(monkeypatch, products, rng, label):
    # the bottom half of the rows on the worker against every row here;
    # 96 x 96 by 96 x 8 is the product of an iterative solve
    for shape in ((2, 2, 2), (9, 9, 9), (17, 17, 17), (96, 96, 8)):
        x, y = _factors(label, *shape, rng)
        (got, _), (want, _) = shipped_and_here(monkeypatch, products,
                                               lambda: x.mul(y))
        assert_bit_identical(got, want)
    # one row has no halves: a 1 x 5 by 5 x 5 stays here unasked
    x, y = _factors(label, 1, 5, 5, rng)
    products.clear()
    x.mul(y)
    assert products == []


@pytest.mark.parametrize("label,shape,ships", [
    # the bottom rows' work, rows times inner dimension times the width
    # of a kernel row, 1 for a packed boolean row, against SHIP_MIN_WORK
    *((label, (96, 96, 8), True) for label in KERNEL_CARRIERS
      if label != "boolean"),
    ("maxplus", (64, 64, 4), False),
    ("boolean", (192, 192, 192), True),
    ("boolean", (128, 128, 128), False),
    # one row, and a product by a column: nothing to gain by shipping
    ("maxplus", (1, 128, 128), False),
    ("maxplus", (192, 192, 1), False)])
def test_a_product_ships_its_bottom_rows_from_ship_min_work(
        monkeypatch, products, rng, label, shape, ships):
    x, y = _factors(label, *shape, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = x.mul(y)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", SHIP_MIN_WORK)
    products.clear()
    assert_bit_identical(x.mul(y), want)
    assert products == ([True] if ships else [])


def test_a_lifted_product_ships_only_its_hi_run(monkeypatch, products, rng):
    av = random_interval_matrix("maxplus", 32, rng)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", math.inf)
    want = av.mul(av)
    hi_runs = ship_placements(monkeypatch, intervals._runs)
    got = []
    # the hi run holds the worker, so the products of both endpoint runs
    # stay in their process; a half that waited on it would hang
    thread = threading.Thread(target=lambda: got.append(av.mul(av)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert_bit_identical(got[0], want)
    assert hi_runs == [True] and products and not any(products)


def test_rectangular_chain_shapes():
    a = Matrix(MX, [[1, 2, 3]])            # 1x3
    b = Matrix(MX, [[1], [2], [3]])        # 3x1
    assert a.mul(b).to_lists() == [[6.0]]  # max(1+1, 2+2, 3+3)
    assert b.mul(a).rows == 3 and b.mul(a).cols == 3


def test_shape_and_descriptor_mismatches():
    a = Matrix(MX, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        a.add(Matrix(MX, [[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(DimensionMismatch):
        a.mul(Matrix(MX, [[1, 2, 3]]))
    with pytest.raises(DescriptorMismatch):
        a.add(Matrix(MN, [[1, 2], [3, 4]]))
    with pytest.raises(DescriptorMismatch):
        a.mul(Matrix(MN, [[1, 2], [3, 4]]))
    with pytest.raises(TypeError):
        a.add([[1, 2], [3, 4]])


# ------------------------------------------------------------------ the laws


@pytest.mark.parametrize("name", ALL_NAMES)
def test_matrix_semiring_laws(name, rng):
    """Mat_nn(S) is a semiring: associativity, distributivity, neutrality."""
    exact = name not in ("rplus", "rplus_complete", "real_field")
    for n in (1, 2, 3, 5):
        a = random_oracle_matrix(name, n, rng)
        b = random_oracle_matrix(name, n, rng)
        c = random_oracle_matrix(name, n, rng)
        e = identity(a.descriptor, n)
        o = zeros(a.descriptor, n, n)

        def same(x, y):
            return x == y if exact else x.allclose(y, 1e-9)

        assert same(a.mul(b).mul(c), a.mul(b.mul(c)))
        assert same(a.mul(b.add(c)), a.mul(b).add(a.mul(c)))
        assert same(a.add(b).mul(c), a.mul(c).add(b.mul(c)))
        assert a.add(b) == b.add(a)
        assert same(a.add(b).add(c), a.add(b.add(c)))
        assert same(e.mul(a), a) and same(a.mul(e), a)
        assert a.mul(o) == o and o.mul(a) == o


@pytest.mark.parametrize("name", [n for n in ALL_NAMES if n != "real_field"])
def test_mul_is_order_monotone(name, rng):
    """A <= A' and B <= B' imply AB <= A'B' on positive carriers."""
    for _ in range(10):
        a = random_oracle_matrix(name, 3, rng)
        b = random_oracle_matrix(name, 3, rng)
        a2 = a.add(random_oracle_matrix(name, 3, rng))
        b2 = b.add(random_oracle_matrix(name, 3, rng))
        assert a.leq(a2) and b.leq(b2)
        assert a.mul(b).leq(a2.mul(b2))


# --------------------------------------------------------------------- order


def test_leq_worked_examples():
    assert Matrix(MX, [[1, 2]]).leq(Matrix(MX, [[1, 3]]))
    assert not Matrix(MX, [[1, 4]]).leq(Matrix(MX, [[1, 3]]))
    a = Matrix(MX, [[1, 2], [3, 4]])
    assert zeros(MX, 2, 2).leq(a)
    with pytest.raises(DimensionMismatch):
        a.leq(Matrix(MX, [[1]]))


# -------------------------------------------------------------------- powers


def test_pow_zero_is_identity():
    a = Matrix(MX, [[1, 2], [3, 4]])
    assert a.pow(0) == identity(MX, 2)
    assert (a ** 0) == identity(MX, 2)
    assert a.pow(1) == a
    with pytest.raises(ValueError):
        a.pow(-1)
    with pytest.raises(DimensionMismatch):
        Matrix(MX, [[1, 2]]).pow(2)


def test_pow_boolean_counts_reachability_in_k_steps():
    # 4-node cycle 1->2->3->4->1: A^k has True exactly at distance-k pairs
    g = WeightedDigraph(4, ((1, 2, True), (2, 3, True), (3, 4, True),
                            (4, 1, True)), BOOL)
    from semiralg import graph_to_matrix
    a = graph_to_matrix(g)
    p3 = a.pow(3)
    for i in range(4):
        for j in range(4):
            assert p3[i, j] is ((j - i) % 4 == 3)


@pytest.mark.parametrize("name", IDEMPOTENT_NAMES)
def test_pow_entries_sum_length_k_walks(name, rng):
    """A^k (i,j) equals the sum over all k-step walks i+1 -> j+1."""
    for n, k in [(2, 2), (3, 3), (4, 4)]:
        a = random_stable_matrix(name, n, rng)
        d = a.descriptor
        g = matrix_to_graph(a)
        arc = g.arc_map()
        p = a.pow(k)
        for i in range(n):
            for j in range(n):
                acc = d.zero
                stack = [(i + 1, d.one, 0)]
                while stack:
                    node, w, steps = stack.pop()
                    if steps == k:
                        if node == j + 1:
                            acc = d.add(acc, w)
                        continue
                    for nxt in range(1, n + 1):
                        wt = arc.get((node, nxt))
                        if wt is not None:
                            stack.append((nxt, d.mul(w, wt), steps + 1))
                assert d.eq(p[i, j], acc)


def test_pow_walk_weights_via_path_objects():
    # minplus 3-node path graph: (A^2)[0,2] is the 2-step path sum
    g = WeightedDigraph(3, ((1, 2, 5.0), (2, 3, 2.0)), MN)
    from semiralg import graph_to_matrix
    a = graph_to_matrix(g)
    two_step = path_weight(g, Path((1, 2, 3)))
    assert two_step == 7.0
    assert a.pow(2)[0, 2] == two_step


# ------------------------------------------------------------------ equality


def test_structural_equality_and_tolerant_equals():
    a = Matrix(REAL, [[1.0, 2.0]])
    b = Matrix(REAL, [[1.0, 2.0 + 1e-13]])
    assert a != b                     # == is exact
    assert a.equals(b)                # descriptor eq is 1e-9 relative
    assert not a.equals(Matrix(REAL, [[1.0, 2.1]]))
    assert a.allclose(b, 1e-9)
    assert not a.allclose(b, 1e-16)
    assert a != [[1.0, 2.0]]
    c = Matrix(MX, [[NEG_INF]])
    assert c == Matrix(MX, [[NEG_INF]])
    assert c.allclose(Matrix(MX, [[NEG_INF]]), 0.0)   # identical tags pass
    assert not c.allclose(Matrix(MX, [[0.0]]), 1e9)   # tag vs float never


def test_transpose():
    a = Matrix(MX, [[1, 2, 3], [4, 5, 6]])
    t = a.transpose()
    assert t.rows == 3 and t.cols == 2
    assert t[2, 1] == 6.0
    assert t.transpose() == a
    assert a.is_square() is False
    assert identity(MX, 2).is_square() is True
