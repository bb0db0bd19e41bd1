"""Graph bridge, path oracle, and the packaged path problems."""

import pytest

from conftest import (descriptor, dominant_rows, pivoted_rows,
                      random_contraction, random_graph, ship_placements,
                      shipped_and_here)
from semiralg import (ClosureOptions, Matrix, NEG_INF, POS_INF, Path,
                      WeightedDigraph, brute_force_star, closure,
                      closure_gauss_jordan, graph_to_matrix, identity,
                      lift_semiring, matrix_to_graph, max_profit, path_weight,
                      real_matrix_star, shortest_paths, widest_paths, zeros)
from semiralg import offload
from semiralg.errors import (DimensionMismatch, IllegalElement,
                             IndexOutOfRange, InvalidGraph, InvalidPath,
                             OracleScaleExceeded, StarUndefined,
                             WrongDescriptor)
from semiralg.graphs import _pivoted_rows
from semiralg.matrices import _product

MX = descriptor("maxplus")
MN = descriptor("minplus")
MM = descriptor("maxmin")
BOOL = descriptor("boolean")
REAL = descriptor("real_field")
SHIP_MIN_WORK = offload.SHIP_MIN_WORK


# ------------------------------------------------------------------ the bridge


def test_empty_graph_maps_to_zero_matrix():
    g = WeightedDigraph(3, (), MN)
    assert graph_to_matrix(g) == zeros(MN, 3, 3)


def test_single_loop_allowed():
    g = WeightedDigraph(2, ((1, 1, 4.0),), MX)
    a = graph_to_matrix(g)
    assert a[0, 0] == 4.0 and a[0, 1] is NEG_INF


def test_round_trip_graph_matrix_graph(rng):
    for name in ("maxplus", "minplus", "maxmin", "boolean"):
        g = random_graph(name, 5, rng)
        back = matrix_to_graph(graph_to_matrix(g))
        assert back.n == g.n
        assert sorted(back.arcs) == sorted(g.arcs)
        assert back.descriptor is g.descriptor


def test_round_trip_matrix_graph_matrix(rng):
    from conftest import random_stable_matrix
    a = random_stable_matrix("minplus", 4, rng)
    assert graph_to_matrix(matrix_to_graph(a)) == a


def test_graph_validation():
    with pytest.raises(InvalidGraph):
        WeightedDigraph(0, (), MX)
    with pytest.raises(IndexOutOfRange):
        WeightedDigraph(2, ((1, 3, 1.0),), MX)
    with pytest.raises(IndexOutOfRange):
        WeightedDigraph(2, ((0, 1, 1.0),), MX)
    with pytest.raises(InvalidGraph):
        WeightedDigraph(2, ((1, 2, 1.0), (1, 2, 2.0)), MX)  # duplicate
    with pytest.raises(InvalidGraph):
        WeightedDigraph(2, ((1, 2, NEG_INF),), MX)  # zero weight
    with pytest.raises(InvalidGraph):
        matrix_to_graph(Matrix(MX, [[0.0, 1.0]]))  # not square


def test_graph_coerces_weights():
    g = WeightedDigraph(2, ((1, 2, 3),), MX)  # int weight
    assert g.arcs[0][2] == 3.0 and type(g.arcs[0][2]) is float


# ------------------------------------------------------------------ path weight


def test_path_weight_examples():
    g = WeightedDigraph(3, ((1, 2, 5.0), (2, 3, 2.0)), MN)
    assert path_weight(g, Path((1, 2, 3))) == 7.0
    wide = WeightedDigraph(3, ((1, 2, 4.0), (2, 3, 7.0)), MM)
    assert path_weight(wide, Path((1, 2, 3))) == 4.0
    assert path_weight(g, Path((2,))) == MN.one  # zero-length walk
    with pytest.raises(InvalidPath):
        path_weight(g, Path((1, 3)))  # no such arc
    with pytest.raises(IndexOutOfRange):
        path_weight(g, Path((1, 2, 9)))
    with pytest.raises(InvalidPath):
        Path(())


# ------------------------------------------------------------------ the oracle


def test_brute_force_zero_length_is_identity(rng):
    g = random_graph("maxplus", 4, rng)
    assert brute_force_star(g, 0) == identity(MX, 4)


def test_brute_force_scale_caps(rng):
    big = WeightedDigraph(9, (), MN)
    with pytest.raises(OracleScaleExceeded):
        brute_force_star(big, 3)
    small = WeightedDigraph(2, (), MN)
    with pytest.raises(OracleScaleExceeded):
        brute_force_star(small, 9)
    with pytest.raises(InvalidPath):
        brute_force_star(small, -1)


def test_brute_force_matches_elimination_closure(rng):
    for _ in range(5):
        g = random_graph("minplus", 3, rng)
        assert brute_force_star(g, 2) == closure_gauss_jordan(graph_to_matrix(g))


def test_brute_force_boolean_reachability():
    # 1 -> 2 -> 3, 4 isolated
    g = WeightedDigraph(4, ((1, 2, True), (2, 3, True)), BOOL)
    r = brute_force_star(g, 3)
    reachable = {(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (1, 3)}
    for i in range(4):
        for j in range(4):
            assert r[i, j] is ((i + 1, j + 1) in reachable)


def test_matrix_power_counts_fixed_length_walks(rng):
    """A^k entry (i, j) accumulates exactly the length-k walk weights."""
    for name in ("maxplus", "minplus", "boolean", "maxmin"):
        d = descriptor(name)
        g = random_graph(name, 3, rng)
        a = graph_to_matrix(g)
        weights = g.arc_map()
        k = 3
        p = a.pow(k)
        import itertools
        for i in range(3):
            for j in range(3):
                acc = d.zero
                for mids in itertools.product(range(1, 4), repeat=k - 1):
                    seq = (i + 1,) + mids + (j + 1,)
                    legs = list(zip(seq, seq[1:]))
                    if all(leg in weights for leg in legs):
                        w = d.one
                        for leg in legs:
                            w = d.mul(w, weights[leg])
                        acc = d.add(acc, w)
                assert p[i, j] == acc


# ------------------------------------------------------------ packaged solvers


def test_shortest_paths_example():
    g = WeightedDigraph(3, ((1, 2, 5.0), (2, 3, 2.0), (1, 3, 9.0)), MN)
    dist = shortest_paths(g)
    assert dist[0, 2] == 7.0
    assert dist[0, 1] == 5.0 and dist[1, 2] == 2.0
    assert dist[2, 0] is POS_INF  # no way back
    assert dist[0, 0] == 0.0


def test_shortest_paths_disconnected_pair():
    g = WeightedDigraph(2, (), MN)
    assert shortest_paths(g)[0, 1] is POS_INF


def test_shortest_paths_triangle_fixed_point(rng):
    for _ in range(5):
        n = rng.randint(2, 6)
        g = random_graph("minplus", n, rng)
        a = graph_to_matrix(g)
        dist = shortest_paths(g)
        for i in range(n):
            for j in range(n):
                through = min(min(dist[i, k] if dist[i, k] is not POS_INF
                                  else float("inf"), float("inf")) +
                              (dist[k, j] if dist[k, j] is not POS_INF
                               else float("inf"))
                              for k in range(n))
                direct = a[i, j] if a[i, j] is not POS_INF else float("inf")
                expected = min(direct, through)
                got = dist[i, j] if dist[i, j] is not POS_INF else float("inf")
                assert got == expected


def test_widest_paths_example():
    mm = descriptor("maxmin")
    g = WeightedDigraph(3, ((1, 2, 4.0), (2, 3, 7.0), (1, 3, 3.0)), mm)
    width = widest_paths(g)
    assert width[0, 2] == 4.0  # max(3, min(4, 7))
    assert width[0, 0] == 10.0  # staying put never constrains
    assert width[2, 0] == 0.0  # unreachable


def test_widest_entries_are_path_bottlenecks(rng):
    """Every finite width is witnessed by an actual path's bottleneck."""
    for _ in range(5):
        n = rng.randint(2, 5)
        g = random_graph("maxmin", n, rng)
        width = widest_paths(g)
        adjacency = {u: [] for u in range(1, n + 1)}
        for u, v, w in g.arcs:
            adjacency[u].append((v, w))
        witnessed = {}

        def walk(start, node, bottleneck, depth):
            for v, w in adjacency[node]:
                b = min(bottleneck, w)
                witnessed.setdefault((start, v), set()).add(b)
                if depth > 1:
                    walk(start, v, b, depth - 1)

        for s in range(1, n + 1):
            walk(s, s, 10.0, n - 1)
        for i in range(n):
            for j in range(n):
                entry = width[i, j]
                if i == j:
                    assert entry == 10.0
                elif entry != 0.0:
                    assert entry in witnessed[(i + 1, j + 1)]


def test_max_profit_examples():
    g = WeightedDigraph(2, ((1, 2, 3.0),), MX)
    b = [0.0, 10.0]
    values = max_profit(g, b, 1)
    assert values[0] == 13.0
    assert values[1] is NEG_INF  # must move, but no arc leaves node 2
    assert max_profit(g, b, 0) == [0.0, 10.0]


def test_max_profit_unbounded_stabilizes_on_negative_cycle():
    g = WeightedDigraph(2, ((1, 2, 4.0), (2, 1, -5.0)), MX)  # cycle -1
    b = [0.0, 10.0]
    unbounded = max_profit(g, b, None)
    best_by_horizon = [
        max(max_profit(g, b, k)[i] if max_profit(g, b, k)[i] is not NEG_INF
            else float("-inf") for k in range(2))
        for i in range(2)
    ]
    assert unbounded == best_by_horizon
    assert unbounded == [14.0, 10.0]


def test_max_profit_unbounded_positive_cycle_diverges():
    g = WeightedDigraph(2, ((1, 2, 1.0), (2, 1, 1.0)), MX)
    with pytest.raises(StarUndefined):
        max_profit(g, [0.0, 0.0], None)
    complete = WeightedDigraph(
        2, ((1, 2, 1.0), (2, 1, 1.0)), descriptor("maxplus_complete"))
    values = max_profit(complete, [0.0, 0.0], None)
    assert values == [POS_INF, POS_INF]


def test_max_profit_validation():
    g = WeightedDigraph(2, ((1, 2, 3.0),), MX)
    for horizon in (1, None):
        with pytest.raises(DimensionMismatch,
                           match="expected 2 values, got 1"):
            max_profit(g, [0.0], horizon)  # terminal vector too short
    with pytest.raises(InvalidPath):
        max_profit(g, [0.0, 0.0], -1)


@pytest.mark.parametrize("horizon", [2.5, 2.0, "3", True], ids=repr)
def test_a_horizon_that_is_no_int_is_invalid(horizon):
    # a float horizon would fail in range as a raw Python error
    g = WeightedDigraph(2, ((1, 2, 3.0),), MX)
    with pytest.raises(InvalidPath, match="horizon must be an int"):
        max_profit(g, [0.0, 0.0], horizon)


def test_real_matrix_star_examples():
    assert real_matrix_star(zeros(REAL, 3, 3)) == identity(REAL, 3)
    a = Matrix(REAL, [[0.0, 0.5], [0.0, 0.0]])
    assert real_matrix_star(a) == Matrix(REAL, [[1.0, 0.5], [0.0, 1.0]])


def test_real_matrix_star_matches_series(rng):
    for _ in range(5):
        a = random_contraction(4, rng)
        star = real_matrix_star(a)
        series = identity(REAL, 4)
        term = identity(REAL, 4)
        for _ in range(40):
            term = term.mul(a)
            series = series.add(term)
        assert star.allclose(series, 1e-7)
        # composing with (E - A) recovers the identity
        e_minus_a = Matrix(REAL, [[(1.0 if i == j else 0.0) - a[i, j]
                                   for j in range(4)] for i in range(4)])
        assert star.mul(e_minus_a).allclose(identity(REAL, 4), 1e-9)


def _inverse_of_e_minus(rows):
    np = pytest.importorskip("numpy")
    return np.linalg.inv(np.eye(len(rows)) - np.array(rows, dtype=float))


def _assert_close(star, want, tol=1e-9):
    got = star.to_lists()
    scale = max(1.0, float(abs(want).max()))
    assert max(abs(got[i][j] - want[i][j]) for i in range(len(got))
               for j in range(len(got))) <= tol * scale


# E - A is invertible, but a pivot reaches 1 in index order
PIVOTED = [[[1.0, 2.0], [3.0, 4.0]],
           [[0.0, -1.0, -1.0], [-1.0, 0.0, -2.0], [-1.0, -2.0, 0.0]],
           [[0.5, 0.0, 0.0], [0.0, 1.0, 3.0], [0.0, -1.0, 0.0]]]


@pytest.mark.parametrize("rows", PIVOTED)
def test_real_matrix_star_pivots_symmetrically(rows):
    a = Matrix(REAL, rows)
    with pytest.raises(StarUndefined):
        closure_gauss_jordan(a)
    _assert_close(real_matrix_star(a), _inverse_of_e_minus(rows))


def test_real_matrix_star_pivots_random_unit_pivots(rng):
    np = pytest.importorskip("numpy")
    checked = 0
    while checked < 30:
        n = rng.randint(2, 7)
        rows = [[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        for i in rng.sample(range(n), rng.randint(1, n)):
            rows[i][i] = 1.0
        m = np.eye(n) - np.array(rows)
        if abs(np.linalg.det(m)) < 0.5:
            continue        # E - A singular, or too close to it
        _assert_close(real_matrix_star(Matrix(REAL, rows)), np.linalg.inv(m))
        checked += 1


def test_real_matrix_star_agrees_with_gauss_jordan_on_contractions(rng):
    for _ in range(5):
        a = random_contraction(6, rng)
        assert real_matrix_star(a).allclose(closure_gauss_jordan(a), 1e-12)


def test_real_matrix_star_inverts_where_every_symmetric_order_blocks():
    # both pivots are 1 in either order; a row swap makes the first one 3
    got = real_matrix_star(Matrix(REAL, [[1.0, 2.0], [2.0, 1.0]])).to_lists()
    assert got == [[0.0, -0.5], [-0.5, 0.0]]      # == ignores the zeros' sign
    _assert_close(Matrix(REAL, got), _inverse_of_e_minus([[1.0, 2.0],
                                                          [2.0, 1.0]]))


def test_real_matrix_star_inverts_a_unit_pivot_block():
    # pivots 5 and 6 are 1, and stay 1 after any steps on the first four
    rows = [[0.1 * (i == j) for j in range(6)] for i in range(6)]
    rows[4][4] = rows[5][5] = 1.0
    rows[4][5] = rows[5][4] = 2.0
    _assert_close(real_matrix_star(Matrix(REAL, rows)), _inverse_of_e_minus(rows))


@pytest.mark.parametrize("rows", [
    [[1e8]], [[1e20]], [[1.0, 1e300], [1e300, 0.5]],
    [[1.0, -1e-10], [-1e-10, 1.0]], [[1.0, -1e-20], [-1e-20, 1.0]]],
    ids=["1e8", "1e20", "1e300", "1e-10", "1e-20"])
def test_real_matrix_star_far_from_unit_scale(rows):
    # every entry within a relative 1e-12 of numpy's: an entry s far below
    # 1 keeps its digits, which adding E back at the end would round away
    # as (s - 1) + 1, and a pivot is not rounded into 1 + c
    got = real_matrix_star(Matrix(REAL, rows)).to_lists()
    want = _inverse_of_e_minus(rows)
    for i, row in enumerate(got):
        for j, v in enumerate(row):
            assert abs(v - want[i][j]) <= 1e-12 * abs(want[i][j])


def test_real_matrix_star_matches_numpy_on_seeded_unit_pivots():
    np = pytest.importorskip("numpy")
    for seed in range(3000):
        rows = pivoted_rows(seed)
        m = np.eye(len(rows)) - np.array(rows)
        if np.linalg.matrix_rank(m) == len(rows):
            _assert_close(real_matrix_star(Matrix(REAL, rows)), np.linalg.inv(m))


def test_real_matrix_star_matches_numpy_on_contractions(rng):
    for n in (1, 2, 5, 12, 24):
        a = random_contraction(n, rng, radius=0.9)
        _assert_close(real_matrix_star(a), _inverse_of_e_minus(a.to_lists()))


@pytest.mark.parametrize("rows,row", [
    ([[1.0, 0.0], [0.0, 1.0]], 1),
    ([[0.0, -2.0], [-2.0, -3.0]], 2),       # E - A = [[1, 2], [2, 4]]
    ([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]], 2)])
def test_real_matrix_star_names_the_singular_row(rows, row):
    # the message names the row of E - A left with no nonzero entry
    with pytest.raises(StarUndefined) as info:
        real_matrix_star(Matrix(REAL, rows))
    assert str(info.value) == ("E - A is singular to working precision: "
                               f"row {row} has no nonzero entry left")
    assert info.value.location == row


# ------------------------------------------- the inverse in two row stripes


@pytest.fixture
def inverts(monkeypatch):
    """The bottom stripe of every inverse may go to the worker, also
    where the calling thread may use only one CPU; the list returned
    records each placement of one, True for a stripe that went."""
    return ship_placements(monkeypatch, _pivoted_rows)


def _both_ways(monkeypatch, inverts, rows):
    """The inverse of E - A shipped and here, as ``repr`` of its rows,
    which must agree; or the failure, (type, message, location)."""
    shipped, here = shipped_and_here(
        monkeypatch, inverts, lambda: real_matrix_star(Matrix(REAL, rows)))
    assert repr(shipped) == repr(here)
    return repr(here[0].to_lists()) if here[1] is None else here[1]


@pytest.mark.parametrize("n", [32, 64, 97, 128])
def test_striped_inverse_is_bit_identical(monkeypatch, inverts, rng, n):
    # no contraction: the pivots leave the diagonal
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    _both_ways(monkeypatch, inverts, rows)
    pivots = [c for c, _ in _pivoted_rows(None, REAL, rows, 0, n)]
    assert sorted(pivots) == list(range(n)) and pivots != list(range(n))


def test_a_striped_step_sends_one_row(monkeypatch, inverts, rng):
    # the stripe that holds row k sends it, and the other takes it
    n = 33
    seen = []

    class Counted:
        """The worker, whose pipe end as the caller's run sees it counts
        what the run sends and takes; the reply comes by the worker's
        own end, uncounted."""

        def __init__(self, worker):
            self.worker = worker
            self.conn = self

        def send(self, row):
            seen.append("sent")
            self.worker.conn.send(row)

        def recv(self):
            seen.append("received")
            return self.worker.conn.recv()

        def __getattr__(self, name):
            return getattr(self.worker, name)

    ship = offload._ship

    def counted(*args):
        worker = ship(*args)
        return None if worker is None else Counted(worker)

    monkeypatch.setattr(offload, "_ship", counted)
    real_matrix_star(random_contraction(n, rng))
    assert inverts == [True]
    assert seen == ["sent"] * (n // 2) + ["received"] * (n - n // 2)


@pytest.mark.parametrize("row", [4, 30])     # held here, by the worker
def test_a_singular_inverse_fails_as_here_in_either_stripe(
        monkeypatch, inverts, rng, row):
    # row 4 or 30 of E - A is zero, and no step changes it
    n = 32
    assert _both_ways(monkeypatch, inverts, dominant_rows(rng, n, row, 0.0)) == (
        StarUndefined, "E - A is singular to working precision: row "
        f"{row} has no nonzero entry left", row)
    assert offload._worker is None and not offload._busy.locked()
    # the next call ships, on a worker forked anew
    rows = [[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)]
    _both_ways(monkeypatch, inverts, rows)
    assert offload._worker.process.is_alive()


@pytest.mark.parametrize("row", [4, 30])
def test_a_pivot_without_a_reciprocal_fails_as_here_in_either_stripe(
        monkeypatch, inverts, rng, row):
    rows = dominant_rows(rng, 32, row, 1e-320)
    assert _both_ways(monkeypatch, inverts, rows) == (
        IllegalElement, f"the pivot 1e-320 of row {row} has no reciprocal "
        "in the float range", None)


def test_an_inverse_ships_from_n_32(monkeypatch, inverts, rng):
    # the bottom stripe's rows times n^2 against offload.SHIP_MIN_WORK
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", SHIP_MIN_WORK)
    real_matrix_star(random_contraction(24, rng))
    assert inverts == []        # below the threshold: not even offered
    real_matrix_star(random_contraction(32, rng))
    assert inverts == [True]


def test_a_profit_horizon_keeps_its_products_by_a_column_here(monkeypatch,
                                                              rng):
    # each step multiplies by a column, whose shipped rows would be as
    # large as their work: at the threshold none is offered
    products = ship_placements(monkeypatch, _product)
    monkeypatch.setattr(offload, "SHIP_MIN_WORK", SHIP_MIN_WORK)
    g = random_graph("maxplus", 192, rng, density=0.1)
    terminal = [rng.uniform(-5.0, 5.0) for _ in range(192)]
    got = max_profit(g, terminal, 4)
    assert products == []
    monkeypatch.setattr(offload, "_one_cpu", lambda: True)
    assert repr(max_profit(g, terminal, 4)) == repr(got)


def test_wrong_descriptor_guards(rng):
    g_max = random_graph("maxplus", 3, rng)
    g_min = random_graph("minplus", 3, rng)
    with pytest.raises(WrongDescriptor):
        shortest_paths(g_max)
    with pytest.raises(WrongDescriptor):
        widest_paths(g_min)
    with pytest.raises(WrongDescriptor):
        max_profit(g_min, [0.0, 0.0, 0.0], 1)
    with pytest.raises(WrongDescriptor):
        real_matrix_star(graph_to_matrix(g_max))
    # a lift passes for its base; a lift of a lift does not
    twice = lift_semiring(lift_semiring(MN))
    shortest_paths(WeightedDigraph(2, (), lift_semiring(MN)))
    for run, d in ((shortest_paths, twice), (widest_paths, lift_semiring(MN)),
                   (shortest_paths, lift_semiring(MX)),
                   (lambda g: max_profit(g, [twice.zero], 1),
                    lift_semiring(lift_semiring(MX)))):
        with pytest.raises(WrongDescriptor, match="got interval"):
            run(WeightedDigraph(1, (), d))


def test_solvers_accept_closure_options(rng):
    g = random_graph("minplus", 5, rng)
    default = shortest_paths(g)
    tuned = shortest_paths(g, ClosureOptions(algorithm="block", split=2))
    assert default == tuned
