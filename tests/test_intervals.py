"""Interval lift: construction, algebra, and endpoint decomposition."""

import dataclasses

import pytest

from conftest import (assert_bit_identical, descriptor, interval_hull, interval_samples,
                      pair_endpoints, random_interval_matrix,
                      random_nilpotent_matrix, random_stable_matrix,
                      random_symmetric_stable_matrix, scalar_samples)
from semiralg import (ClosureOptions, Interval, LdmTriple, Matrix, NEG_INF,
                      OpCounter, back_substitution, closure, closure_block,
                      closure_gauss_jordan, closure_iterative, contains,
                      diagonal_solve, forward_substitution, graph_to_matrix,
                      identity, ldm_factorize, lift_semiring, make_interval,
                      matrix_to_graph, shortest_paths, solve_bellman,
                      solve_ldm, solve_via_ldm, symmetric_factorize,
                      widest_paths, zeros)
from semiralg import laws
from semiralg.errors import (DimensionMismatch, EmptyInterval, IllegalElement,
                             NotPositive, NotSymmetric, StarUndefined)

MX = descriptor("maxplus")
LIFT_NAMES = ["maxplus", "minplus", "maxmin", "boolean", "rplus",
              "maxplus_complete", "rplus_complete"]


# ------------------------------------------------------------- interval values


def test_make_interval_worked_examples():
    iv = make_interval(MX, NEG_INF, 3.0)
    assert iv.lo is NEG_INF and iv.hi == 3.0
    point = make_interval(MX, 2.0, 2.0)
    assert point == Interval(2.0, 2.0)
    with pytest.raises(EmptyInterval):
        make_interval(MX, 3.0, 1.0)


def test_make_interval_respects_base_order():
    mn = descriptor("minplus")
    # minplus order is reversed: 3 precedes 1, so (3, 1) is the valid one
    assert make_interval(mn, 3.0, 1.0) == Interval(3.0, 1.0)
    with pytest.raises(EmptyInterval):
        make_interval(mn, 1.0, 3.0)


def test_make_interval_coerces_and_validates_endpoints():
    assert make_interval(MX, 1, 2) == Interval(1.0, 2.0)
    with pytest.raises(IllegalElement):
        make_interval(MX, "garbage", 2.0)
    with pytest.raises(IllegalElement):
        make_interval(descriptor("rplus"), -1.0, 2.0)


def test_contains_closed_endpoints():
    iv = make_interval(MX, 1.0, 3.0)
    assert contains(MX, iv, 2.0)
    assert contains(MX, iv, 1.0)
    assert contains(MX, iv, 3.0)
    assert not contains(MX, iv, 4.0)
    assert not contains(MX, iv, 0.0)
    assert contains(MX, make_interval(MX, NEG_INF, 3.0), NEG_INF)


# ------------------------------------------------------------------- the lift


def test_lift_requires_positive_base():
    with pytest.raises(NotPositive):
        lift_semiring(descriptor("real_field"))


def test_lift_is_cached_and_carries_base():
    lifted = lift_semiring(MX)
    assert lift_semiring(MX) is lifted
    assert lifted.base is MX
    assert lifted.name == "interval"
    assert lifted.label == "interval(maxplus)"
    assert lift_semiring(descriptor("minplus")) is not lifted


def test_lift_flags():
    assert lift_semiring(MX).flags.idempotent is True
    assert lift_semiring(MX).flags.positive is True
    assert lift_semiring(MX).flags.complete is False
    assert lift_semiring(descriptor("maxplus_complete")).flags.complete is True
    assert lift_semiring(descriptor("rplus")).flags.idempotent is False


def test_lift_neutral_elements():
    lifted = lift_semiring(MX)
    assert lifted.zero == Interval(NEG_INF, NEG_INF)
    assert lifted.one == Interval(0.0, 0.0)
    assert lifted.is_zero(Interval(NEG_INF, NEG_INF))


def test_lifted_worked_examples():
    lifted = lift_semiring(MX)
    a = Interval(1.0, 2.0)
    b = Interval(0.0, 3.0)
    assert lifted.add(a, b) == Interval(1.0, 3.0)
    assert lifted.mul(a, b) == Interval(1.0, 5.0)
    assert lifted.star(Interval(-5.0, -1.0)) == Interval(0.0, 0.0)


def test_lifted_coerce():
    lifted = lift_semiring(MX)
    assert lifted.coerce([1, 3]) == Interval(1.0, 3.0)
    assert lifted.coerce((1.0, 3.0)) == Interval(1.0, 3.0)
    with pytest.raises(IllegalElement):
        lifted.coerce(1.0)  # bare scalar is not an interval
    with pytest.raises(IllegalElement):
        lifted.coerce([1.0, 2.0, 3.0])
    with pytest.raises(EmptyInterval):
        lifted.coerce([3.0, 1.0])


@pytest.mark.parametrize("name", LIFT_NAMES)
def test_lifted_descriptor_passes_axiom_suite(name):
    base = descriptor(name)
    lifted = lift_semiring(base)
    samples = interval_samples(name)
    assert laws.all_violations(lifted, samples) == []


@pytest.mark.parametrize("name", ["maxplus", "minplus", "maxmin", "boolean"])
def test_degenerate_intervals_embed_base(name):
    base = descriptor(name)
    lifted = lift_semiring(base)
    pool = scalar_samples(name)
    for x in pool:
        for y in pool:
            assert lifted.add(Interval(x, x), Interval(y, y)) \
                == Interval(base.add(x, y), base.add(x, y))
            assert lifted.mul(Interval(x, x), Interval(y, y)) \
                == Interval(base.mul(x, y), base.mul(x, y))


def test_lifted_fma_matches_add_mul(rng):
    for name in LIFT_NAMES:
        base = descriptor(name)
        lifted = lift_semiring(base)
        samples = interval_samples(name)
        assert laws.fused_accumulate_matches(lifted, samples) == []


def test_lifted_fma_returns_acc_on_dominated_update():
    lifted = lift_semiring(MX)
    acc = Interval(10.0, 20.0)
    dominated = lifted.fma(acc, Interval(0.0, 1.0), Interval(0.0, 1.0))
    assert dominated is acc
    moved = lifted.fma(acc, Interval(5.0, 30.0), Interval(6.0, 1.0))
    assert moved == Interval(11.0, 31.0)


def test_enclosure_property(rng):
    """Base results stay inside the interval results, op by op."""
    for name in ("maxplus", "minplus", "maxmin"):
        base = descriptor(name)
        lifted = lift_semiring(base)
        ivs = interval_samples(name)
        for _ in range(200):
            xh = rng.choice(ivs)
            yh = rng.choice(ivs)
            x = rng.choice([xh.lo, xh.hi])
            y = rng.choice([yh.lo, yh.hi])
            assert contains(base, lifted.add(xh, yh), base.add(x, y))
            assert contains(base, lifted.mul(xh, yh), base.mul(x, y))


@pytest.mark.parametrize("name", ["maxplus", "minplus", "maxmin", "boolean"])
def test_lifted_distributivity_exact(name):
    lifted = lift_semiring(descriptor(name))
    ivs = interval_samples(name, cap=8)
    for x in ivs:
        for y in ivs:
            for z in ivs:
                left = lifted.mul(x, lifted.add(y, z))
                right = lifted.add(lifted.mul(x, y), lifted.mul(x, z))
                assert left == right


# ------------------------------------------------------------ interval matrices


def test_interval_matrix_associativity(rng):
    for name in ("maxplus", "minplus", "maxmin"):
        for n in (2, 3, 4):
            x = random_interval_matrix(name, n, rng)
            y = random_interval_matrix(name, n, rng)
            z = random_interval_matrix(name, n, rng)
            assert x.mul(y).mul(z) == x.mul(y.mul(z))
            assert x.add(y).add(z) == x.add(y.add(z))
            assert x.mul(y.add(z)) == x.mul(y).add(x.mul(z))


def _split_endpoints(interval_matrix):
    base = interval_matrix.descriptor.base
    n, m = interval_matrix.rows, interval_matrix.cols
    lo = Matrix._wrap(base, [[interval_matrix[i, j].lo for j in range(m)]
                             for i in range(n)])
    hi = Matrix._wrap(base, [[interval_matrix[i, j].hi for j in range(m)]
                             for i in range(n)])
    return lo, hi


@pytest.mark.parametrize("name", ["maxplus", "minplus", "maxmin", "boolean"])
def test_closure_decomposes_endpoint_wise(name, rng):
    base = descriptor(name)
    for n in (1, 2, 4, 6):
        av = random_interval_matrix(name, n, rng)
        lo, hi = _split_endpoints(av)
        for algo in (closure_block, closure_gauss_jordan):
            assert algo(av) == pair_endpoints(base, algo(lo), algo(hi))


def _sampled(name, rows, cols, rand):
    lifted = lift_semiring(descriptor(name))
    pool = interval_samples(name) + [lifted.zero] * 4
    return Matrix(lifted, [[rand.choice(pool) for _ in range(cols)]
                           for _ in range(rows)])


@pytest.mark.parametrize("name", LIFT_NAMES)
def test_product_decomposes_endpoint_wise(name, rng):
    # the product of a lift is its pair of base products bit for bit, and
    # equals the lifted fma fold that a dataclasses.replace copy runs
    base = descriptor(name)
    fold = dataclasses.replace(lift_semiring(base))
    for rows, inner, cols in ((1, 1, 1), (1, 5, 3), (4, 1, 2), (6, 6, 6),
                              (7, 4, 1)):
        x = _sampled(name, rows, inner, rng)
        y = _sampled(name, inner, cols, rng)
        (lo_x, hi_x), (lo_y, hi_y) = _split_endpoints(x), _split_endpoints(y)
        got = x.mul(y)
        assert_bit_identical(got, pair_endpoints(base, lo_x.mul(lo_y),
                                                 hi_x.mul(hi_y)))
        assert_bit_identical(got, Matrix(fold, x.to_lists()).mul(
            Matrix(fold, y.to_lists())))


def test_product_keeps_the_base_runs_signed_zeros():
    # the fold makes (-0.0, -0.0) the zero object (0.0, 0.0) as it goes;
    # the two base runs keep the sign, as on the base carrier
    base = descriptor("rplus")
    lifted = lift_semiring(base)
    x = Matrix(lifted, [[(-0.0, 0.5), (-0.0, 1.0)]])
    y = Matrix(lifted, [[(0.0, 0.0)], [(1.0, 2.0)]])
    fold = dataclasses.replace(lifted)
    got = x.mul(y)
    assert repr(got[0, 0]) == "Interval(lo=-0.0, hi=2.0)"
    assert got == Matrix(fold, x.to_lists()).mul(Matrix(fold, y.to_lists()))
    lo_x, hi_x = _split_endpoints(x)
    lo_y, hi_y = _split_endpoints(y)
    assert_bit_identical(got, pair_endpoints(base, lo_x.mul(lo_y),
                                             hi_x.mul(hi_y)))


def test_product_rejects_results_past_the_float_range():
    lifted = lift_semiring(MX)
    x = Matrix(lifted, [[(1.0, 1e308), (NEG_INF, 1e308)]])
    y = Matrix(lifted, [[(0.0, 1e308)], [(0.0, 0.0)]])
    with pytest.raises(IllegalElement, match="float range"):
        x.mul(y)


@pytest.mark.parametrize("name", ["maxplus", "minplus", "maxmin"])
def test_solvers_decompose_endpoint_wise(name, rng):
    base = descriptor(name)
    n = 4
    av = random_interval_matrix(name, n, rng)
    bv = random_interval_matrix(name, n, rng)
    lo_a, hi_a = _split_endpoints(av)
    lo_b, hi_b = _split_endpoints(bv)
    assert solve_bellman(av, bv) \
        == pair_endpoints(base, solve_bellman(lo_a, lo_b),
                          solve_bellman(hi_a, hi_b))
    assert solve_via_ldm(av, bv) \
        == pair_endpoints(base, solve_via_ldm(lo_a, lo_b),
                          solve_via_ldm(hi_a, hi_b))


@pytest.mark.parametrize("name", ["maxplus", "minplus", "maxmin"])
def test_substitutions_decompose_endpoint_wise(name, rng):
    base = descriptor(name)
    for n in (1, 3, 6):
        t = ldm_factorize(random_interval_matrix(name, n, rng))
        b = random_interval_matrix(name, n, rng).to_lists()[0]
        lo_b, hi_b = [v.lo for v in b], [v.hi for v in b]
        (lo_l, hi_l), (lo_m, hi_m) = _split_endpoints(t.L), _split_endpoints(t.M)
        lo_d, hi_d = [v.lo for v in t.D], [v.hi for v in t.D]

        def joined(lo, hi):
            return [Interval(a, c) for a, c in zip(lo, hi)]

        assert forward_substitution(t.L, b) == joined(
            forward_substitution(lo_l, lo_b), forward_substitution(hi_l, hi_b))
        assert back_substitution(t.M, b) == joined(
            back_substitution(lo_m, lo_b), back_substitution(hi_m, hi_b))
        assert diagonal_solve(t.D, b, t.descriptor) == joined(
            diagonal_solve(lo_d, lo_b, base), diagonal_solve(hi_d, hi_b, base))
        assert solve_ldm(t, b) == joined(
            solve_ldm(LdmTriple(lo_l, tuple(lo_d), lo_m), lo_b),
            solve_ldm(LdmTriple(hi_l, tuple(hi_d), hi_m), hi_b))


def test_lifted_solve_counts_one_tally_per_interval_op(rng):
    for n in range(1, 9):
        t = ldm_factorize(random_interval_matrix("maxplus", n, rng))
        b = random_interval_matrix("maxplus", n, rng).to_lists()[0]
        c = OpCounter()
        solve_ldm(t, b, c)
        assert c.as_dict() == {"adds": n * n - n, "muls": n * n, "stars": n}
        c.reset()
        forward_substitution(t.L, b, c)
        back_substitution(t.M, b, c)
        assert c.as_dict() == {"adds": n * n - n, "muls": n * n - n, "stars": 0}


def test_factorization_decomposes_endpoint_wise(rng):
    base = descriptor("maxplus")
    general = random_interval_matrix("maxplus", 4, rng)
    symmetric = interval_hull(
        base, random_symmetric_stable_matrix("maxplus", 4, rng),
        random_symmetric_stable_matrix("maxplus", 4, rng))
    for factorize, av in ((ldm_factorize, general),
                          (symmetric_factorize, symmetric)):
        lo, hi = _split_endpoints(av)
        t = factorize(av)
        t_lo = factorize(lo)
        t_hi = factorize(hi)
        assert t.L == pair_endpoints(base, t_lo.L, t_hi.L)
        assert t.M == pair_endpoints(base, t_lo.M, t_hi.M)
        assert t.D == tuple(Interval(a, b) for a, b in zip(t_lo.D, t_hi.D))


def test_iterative_closure_decomposes_endpoint_wise(rng):
    cases = [(name, random_interval_matrix(name, n, rng), ClosureOptions())
             for name in ("maxplus", "minplus", "maxmin", "boolean")
             for n in (1, 3, 5)]
    rplus = descriptor("rplus")
    for n in (3, 5):
        # nilpotent endpoints on one support: an exact fixpoint within n steps
        a = random_nilpotent_matrix("rplus", n, rng)
        nil = interval_hull(rplus, a, Matrix(rplus, [[2 * v for v in row]
                                                     for row in a.to_lists()]))
        cases.append(("rplus", nil, ClosureOptions(max_iterations=60)))
        # a contraction cut off after 5 steps
        dense = interval_hull(
            rplus, *(Matrix(rplus, [[rng.randint(1, 3) / 16 for _ in range(n)]
                                    for _ in range(n)]) for _ in range(2)))
        cases.append(("rplus", dense, ClosureOptions(max_iterations=5)))
    truncations = 0
    for name, av, opts in cases:
        lo, hi = _split_endpoints(av)
        got = closure_iterative(av, opts)
        r_lo = closure_iterative(lo, opts)
        r_hi = closure_iterative(hi, opts)
        assert got.matrix == pair_endpoints(descriptor(name), r_lo.matrix,
                                            r_hi.matrix)
        assert got.iterations == max(r_lo.iterations, r_hi.iterations)
        assert got.truncated == (r_lo.truncated or r_hi.truncated)
        truncations += got.truncated
    assert truncations == 2


def test_lifted_factorization_counts_one_tally_per_interval_op(rng):
    for n in range(2, 9):
        c = OpCounter()
        ldm_factorize(random_interval_matrix("maxplus", n, rng), c)
        assert c.as_dict() == {
            "adds": (2 * n**3 - 3 * n**2 + n) // 6,
            "muls": (2 * n**3 + 3 * n**2 - 5 * n) // 6,
            "stars": n * (n + 1) // 2,
        }


def _diagonal_interval_matrix(diagonal):
    lifted = lift_semiring(MX)
    n = len(diagonal)
    return Matrix(lifted, [[diagonal[i] if i == j else (NEG_INF, NEG_INF)
                            for j in range(n)] for i in range(n)])


# the lifted run stops at the first pivot where either endpoint star
# fails, and checks lo before hi at the same pivot
STAR_FAILURES = [
    ([(-1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)], 2, "got 1.0"),
    ([(-1.0, -1.0), (1.0, 2.0), (-1.0, -1.0)], 2, "got 1.0"),
    ([(-1.0, 3.0), (-1.0, -1.0), (2.0, 3.0)], 1, "got 3.0"),
]


@pytest.mark.parametrize("diagonal,pivot,tail", STAR_FAILURES)
def test_star_failure_names_first_failing_pivot(diagonal, pivot, tail):
    av = _diagonal_interval_matrix(diagonal)
    for algo in (closure_gauss_jordan, closure_block):
        with pytest.raises(StarUndefined) as info:
            algo(av)
        assert info.value.location == pivot
        assert str(info.value).endswith(tail)
    with pytest.raises(StarUndefined) as info:
        ldm_factorize(av)
    assert info.value.location == (pivot, pivot)
    assert str(info.value).endswith(tail)
    zero = zeros(av.descriptor, av.rows, av.rows)
    triple = LdmTriple(zero, tuple(av[i, i] for i in range(av.rows)), zero)
    with pytest.raises(StarUndefined) as info:
        solve_ldm(triple, [(0.0, 0.0)] * av.rows)
    assert info.value.location == pivot
    assert str(info.value).endswith(tail)


def test_lifted_kernels_check_their_input_first():
    lifted = lift_semiring(MX)
    wide = Matrix(lifted, [[(0.0, 1.0), (0.0, 1.0)]])
    for kernel in (closure_block, closure_gauss_jordan, ldm_factorize,
                   symmetric_factorize):
        with pytest.raises(DimensionMismatch):
            kernel(wide)
    skew = Matrix(lifted, [[(0.0, 0.0), (-1.0, 0.0)],
                           [(-1.0, -1.0), (0.0, 0.0)]])
    with pytest.raises(NotSymmetric, match=r"entries \(1,0\) and \(0,1\)"):
        symmetric_factorize(skew)


def test_graph_pipeline_runs_on_intervals(rng):
    base = descriptor("minplus")
    av = random_interval_matrix("minplus", 4, rng)
    lo, hi = _split_endpoints(av)
    g = matrix_to_graph(av)
    assert graph_to_matrix(g) == av
    dist = closure(graph_to_matrix(g))
    assert dist == pair_endpoints(base, closure(lo), closure(hi))


def test_interval_identity_and_zeros():
    lifted = lift_semiring(MX)
    e = identity(lifted, 2)
    assert e[0, 0] == Interval(0.0, 0.0)
    assert e[0, 1] == Interval(NEG_INF, NEG_INF)
    assert zeros(lifted, 2, 2)[1, 1] == Interval(NEG_INF, NEG_INF)
