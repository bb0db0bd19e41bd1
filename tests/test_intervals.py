"""Interval lift: construction, algebra, and endpoint decomposition."""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (PYTEST_PID, assert_bit_identical, descriptor,
                      failing_reply, in_threads, interval_hull, interval_samples,
                      kernel_rows, pair_endpoints, random_interval_matrix,
                      random_nilpotent_matrix, random_stable_matrix,
                      random_symmetric_stable_matrix, scalar_samples,
                      ship_placements, shipped_and_here,
                      signed_interval_matrix)
from semiralg import (ClosureOptions, Interval, LdmTriple, Matrix, NEG_INF,
                      POS_INF, OpCounter, back_substitution, closure,
                      closure_block, closure_gauss_jordan, closure_iterative,
                      contains, diagonal_solve, forward_substitution,
                      graph_to_matrix, identity, ldm_factorize,
                      lift_semiring, make_interval, matrix_to_graph,
                      shortest_paths, solve_bellman, solve_ldm, solve_via_ldm,
                      symmetric_factorize, widest_paths, zeros)
from semiralg import intervals, laws, offload
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


def test_coerce_gives_the_one_zero_object():
    # a zero pair, in any spelling of the base zero, is the lift's zero
    for name, spellings in (("rplus", [(0.0, 0.0), (-0.0, 0.0), (0, -0.0)]),
                            ("maxmin", [(0, 0), (-0.0, -0.0)]),
                            ("maxplus", [(NEG_INF, NEG_INF)]),
                            ("boolean", [(False, False)])):
        lifted = lift_semiring(descriptor(name))
        for pair in spellings:
            assert lifted.coerce(pair) is lifted.zero
            assert Matrix(lifted, [[pair]])[0, 0] is lifted.zero
        assert lifted.coerce((lifted.zero.lo, lifted.one.hi)) is not lifted.zero


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


def _star_safe(name, rows, cols, rand, signed_zeros):
    """A lifted matrix whose endpoint matrices have closures, from
    ``kernel_rows``; without ``signed_zeros`` no endpoint is -0.0."""
    base = descriptor(name)
    label = name.replace("_complete", "")   # its values are legal there too
    lo, hi = (Matrix(base, [[v if signed_zeros or type(v) is not float
                             else v + 0.0 for v in row]
                            for row in kernel_rows(label, rows, cols, rand)])
              for _ in range(2))
    return interval_hull(base, lo, hi)


def _ldm_matrices(t):
    return [t.L, Matrix._wrap(t.L.descriptor, [list(t.D)]), t.M]


# kernel -> its results as matrices, from a square A and a B with 3 columns
ENDPOINT_KERNELS = {
    "product": lambda a, b: [a.mul(b)],
    "closure_gauss_jordan": lambda a, b: [closure_gauss_jordan(a)],
    "closure_block": lambda a, b: [closure_block(a)],
    "solve_bellman": lambda a, b: [solve_bellman(a, b)],
    "ldm_factorize": lambda a, b: _ldm_matrices(ldm_factorize(a)),
}


@pytest.mark.parametrize("name,kernel", [
    pytest.param(name, kernel,
                 id=name if kernel == "product" else f"{kernel}-{name}")
    for kernel in ENDPOINT_KERNELS for name in LIFT_NAMES])
def test_product_decomposes_endpoint_wise(name, kernel, rng):
    # a lifted kernel is its pair of base runs bit for bit, and equals the
    # run on a dataclasses.replace copy, whose fold kernels run the lift's
    # add, mul and star.  The copy makes a (-0.0, -0.0) the zero object
    # (0.0, 0.0) as it goes, so an input with a -0.0 is compared by ==
    base = descriptor(name)
    fold = dataclasses.replace(lift_semiring(base))
    run = ENDPOINT_KERNELS[kernel]
    cases = [(_star_safe(name, n, n, rng, signed),
              _star_safe(name, n, 3, rng, signed), signed)
             for n in (1, 2, 5, 8) for signed in (False, True)]
    if kernel == "product":
        cases += [(_sampled(name, rows, inner, rng),
                   _sampled(name, inner, cols, rng), False)
                  for rows, inner, cols in ((1, 1, 1), (1, 5, 3), (4, 1, 2),
                                            (6, 6, 6), (7, 4, 1))]
    for x, y, signed in cases:
        (lo_x, hi_x), (lo_y, hi_y) = _split_endpoints(x), _split_endpoints(y)
        got = run(x, y)
        for g, lo, hi in zip(got, run(lo_x, lo_y), run(hi_x, hi_y)):
            assert_bit_identical(g, pair_endpoints(base, lo, hi))
        copy = run(Matrix(fold, x.to_lists()), Matrix(fold, y.to_lists()))
        for g, c in zip(got, copy, strict=True):
            if signed:
                assert g == c
            else:
                assert_bit_identical(g, c)


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


def _raised(call, *args):
    with pytest.raises(StarUndefined) as info:
        call(*args)
    return str(info.value), info.value.location, info.value.element


# maxplus interval matrices by their diagonal and their other cells, and
# the endpoint whose star fails first: only the hi star fails; lo and hi
# fail at different pivots; both at the same pivot; the hi star fails
# and the lo run overflows after it
COUNTED_FAILURES = [
    ([(-1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)], (-5.0, -4.0), 1),
    ([(-1.0, -1.0), (-1.0, 1.0), (1.0, 2.0)], (-5.0, -4.0), 1),
    ([(-1.0, -1.0), (1.0, 2.0), (-1.0, -1.0)], (-5.0, -4.0), 0),
    ([(-1.0, 1.0), (-1.0, -1.0)], (1e308, 1e308), 1),
]


@pytest.mark.parametrize("diagonal,other,end", COUNTED_FAILURES)
def test_a_counted_lifted_call_fails_as_the_uncounted_one(diagonal, other,
                                                          end):
    lifted = lift_semiring(MX)
    n = len(diagonal)
    av = Matrix(lifted, [[diagonal[i] if i == j else other
                          for j in range(n)] for i in range(n)])
    failing = Matrix(MX, [[v[end] for v in row] for row in av.to_lists()])
    for factorize in (ldm_factorize, symmetric_factorize):
        c, c_base = OpCounter(), OpCounter()
        want = _raised(factorize, av)
        assert _raised(factorize, av, c) == want
        # the tally stops where the run on the failing endpoint stops
        assert _raised(factorize, failing, c_base) == want
        assert c.as_dict() == c_base.as_dict()


def test_counted_lifted_calls_match_uncounted_ones(monkeypatch, rng):
    n = 6
    av = random_interval_matrix("maxplus", n, rng)
    sym = interval_hull(MX, random_symmetric_stable_matrix("maxplus", n, rng),
                        random_symmetric_stable_matrix("maxplus", n, rng))
    b = random_interval_matrix("maxplus", n, rng).to_lists()[0]
    t = ldm_factorize(av)
    calls = [(ldm_factorize, (av,)), (symmetric_factorize, (sym,)),
             (solve_ldm, (t, b)), (forward_substitution, (t.L, b)),
             (back_substitution, (t.M, b)),
             (diagonal_solve, (t.D, b, av.descriptor))]
    half = (n * n - n) // 2
    counts = [((2 * n**3 - 3 * n**2 + n) // 6, (2 * n**3 + 3 * n**2 - 5 * n) // 6,
               n * (n + 1) // 2),
              ((n**3 - n) // 6, (n**3 - n) // 6 + half, half),
              (n * n - n, n * n, n), (half, half, 0), (half, half, 0),
              (0, n, n)]
    want = [repr(call(*args)) for call, args in calls]
    shipped = []
    monkeypatch.setattr(offload, "_ship", lambda *a: shipped.append(a))
    for (call, args), result, count in zip(calls, want, counts):
        c = OpCounter()
        assert repr(call(*args, counter=c)) == result
        assert (c.adds, c.muls, c.stars) == count, call.__name__
    assert shipped == []


@pytest.mark.parametrize("diagonal,other,end", COUNTED_FAILURES)
def test_a_lifted_closure_fails_as_the_lifted_fold(diagonal, other, end):
    # the endpoint runs cannot tell which of their failures came first;
    # on the last case the lo run overflows and the hi star fails, and
    # the fold on the intervals meets the star first
    lifted = lift_semiring(MX)
    n = len(diagonal)
    rows = [[diagonal[i] if i == j else other for j in range(n)]
            for i in range(n)]
    av = Matrix(lifted, rows)
    fold = Matrix(dataclasses.replace(lifted), rows)
    for closure_kernel in (closure_block, closure_gauss_jordan):
        assert _raised(closure_kernel, av) == _raised(closure_kernel, fold)


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


# ------------------------------------------------------- the hi run's worker


@pytest.fixture
def ship(monkeypatch):
    """Every hi run with a matrix operand goes to the worker, also where
    the calling thread may use only one CPU; the list returned records
    each placement of a hi run, True for a run that went.  Block
    products and Gauss-Jordan stripes are not recorded; those of an
    endpoint run find the worker held by their own lifted call."""
    return ship_placements(monkeypatch, intervals._runs)


def _assert_same(got, want):
    if isinstance(want, LdmTriple):
        assert_bit_identical(got.L, want.L)
        assert_bit_identical(got.M, want.M)
        got, want = got.D, want.D
    if isinstance(want, Matrix):
        assert_bit_identical(got, want)
    else:
        assert got == want and repr(got) == repr(want)


WORKER_KERNELS = ["closure_block", "closure_gauss_jordan", "solve_bellman",
                  "mul", "ldm_factorize", "symmetric_factorize", "solve_ldm"]


@pytest.mark.parametrize("kernel", WORKER_KERNELS)
@pytest.mark.parametrize("name", LIFT_NAMES)
def test_worker_runs_are_bit_identical(monkeypatch, ship, rng, name, kernel):
    a = signed_interval_matrix(name, 6, 6, rng)
    s = signed_interval_matrix(name, 6, 6, rng, symmetric=True)
    b = signed_interval_matrix(name, 6, 3, rng)
    x = signed_interval_matrix(name, 5, 6, rng)
    v = signed_interval_matrix(name, 1, 6, rng).to_lists()[0]
    call = {"closure_block": lambda: closure_block(a),
            "closure_gauss_jordan": lambda: closure_gauss_jordan(a),
            "solve_bellman": lambda: solve_bellman(a, b),
            "mul": lambda: x.mul(a),
            "ldm_factorize": lambda: ldm_factorize(a),
            "symmetric_factorize": lambda: symmetric_factorize(s),
            "solve_ldm": lambda: solve_ldm(ldm_factorize(a), v)}[kernel]
    (got, got_exc), (want, want_exc) = shipped_and_here(monkeypatch, ship, call)
    assert got_exc == want_exc
    if want_exc is None:
        _assert_same(got, want)


@pytest.mark.parametrize("diagonal,pivot,tail", STAR_FAILURES)
def test_worker_star_failure_reads_as_here(monkeypatch, ship, diagonal, pivot,
                                           tail):
    # the hi run alone fails, both fail with hi's pivot first, and both
    # fail at one pivot
    av = _diagonal_interval_matrix(diagonal)
    for call, location in ((lambda: closure_gauss_jordan(av), pivot),
                           (lambda: closure_block(av), pivot),
                           (lambda: ldm_factorize(av), (pivot, pivot))):
        shipped, here = shipped_and_here(monkeypatch, ship, call)
        assert shipped == here
        exc_type, message, at = shipped[1]
        assert exc_type is StarUndefined and message.endswith(tail)
        assert at == location
    # a lifted substitution runs the fold in this process
    zero = zeros(av.descriptor, av.rows, av.rows)
    triple = LdmTriple(zero, tuple(av[i, i] for i in range(av.rows)), zero)
    ship.clear()
    with pytest.raises(StarUndefined) as info:
        solve_ldm(triple, [(0.0, 0.0)] * 3)
    assert str(info.value).endswith(tail)
    assert info.value.location == pivot and not ship


# the failure a run raises, named by the first entry of its matrix
_FAILURES = {-5.0: lambda: IllegalElement("first kind"),
             -4.0: lambda: StarUndefined("pivot 2", location=2),
             -3.0: lambda: StarUndefined("pivot 1", location=1),
             -2.0: lambda: IllegalElement("second kind")}


def _fail_as_told(m):
    raise _FAILURES[m[0, 0]]()


@pytest.mark.parametrize("lo,hi,raised", [
    (-5.0, -2.0, "first kind"),
    (-4.0, -2.0, "pivot 2"),
    (-5.0, -3.0, "first kind"),
    (-4.0, -3.0, "pivot 2"),
])
def test_which_failure_is_raised(monkeypatch, ship, lo, hi, raised):
    # the lo run's, as in a serial loop over the two endpoints, wherever
    # the hi run went; a lifted call raises what the fold raises instead
    # (test_a_lifted_closure_fails_as_the_lifted_fold)
    av = Matrix(lift_semiring(MX), [[(lo, hi)]])
    shipped, here = shipped_and_here(
        monkeypatch, ship, lambda: intervals.endpoint_runs(_fail_as_told, av))
    assert shipped == here
    assert shipped[1][1] == raised


def test_worker_overflow_reads_as_here(monkeypatch, ship):
    # the hi product leaves the float range in the worker
    lifted = lift_semiring(MX)
    x = Matrix(lifted, [[(1.0, 1e308), (NEG_INF, 1e308)]])
    y = Matrix(lifted, [[(0.0, 1e308)], [(0.0, 0.0)]])
    shipped, here = shipped_and_here(monkeypatch, ship, lambda: x.mul(y))
    assert shipped == here
    assert shipped[1][0] is IllegalElement and "float range" in shipped[1][1]


def test_worker_keeps_the_closed_form_counts(ship, rng):
    # a counted lifted call runs on its counted copy, the fold over the
    # intervals themselves, so no run of it reaches the worker
    for n in (2, 5, 8):
        av = random_interval_matrix("maxplus", n, rng)
        c = OpCounter()
        t = ldm_factorize(av, c)
        assert c.as_dict() == {"adds": (2 * n**3 - 3 * n**2 + n) // 6,
                               "muls": (2 * n**3 + 3 * n**2 - 5 * n) // 6,
                               "stars": n * (n + 1) // 2}
        c.reset()
        solve_ldm(t, [(0.0, 0.0)] * n, c)
        assert c.as_dict() == {"adds": n * n - n, "muls": n * n, "stars": n}
    assert not any(ship)


def _held_in_the_worker(M):
    # a run that the worker cannot finish before it is killed, so no
    # reply of it can be waiting in the pipe
    if os.getpid() != PYTEST_PID:
        time.sleep(60)
    return closure_gauss_jordan(M)


def test_a_killed_worker_gives_correct_calls(monkeypatch, ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    worker = offload._worker
    worker.process.kill()
    worker.process.join(timeout=30)
    assert not worker.process.is_alive()
    # the send finds no worker: the hi run stays here, and the dead
    # worker is dropped (the stripes of the runs may start another)
    assert_bit_identical(closure_gauss_jordan(av), want)
    assert ship[-1] is False and offload._worker is not worker
    # the next call's worker dies before it replies: both runs are run
    # here again (the stripes of the runs may start another worker)
    reply = offload._Worker.reply
    killed = []

    def die_first(self):
        if not killed:
            killed.append(self)
            self.process.kill()
            self.process.join(timeout=30)
        return reply(self)

    monkeypatch.setattr(offload._Worker, "reply", die_first)
    runs = intervals.endpoint_runs(_held_in_the_worker, av)
    assert_bit_identical(intervals.join_endpoints(av.descriptor, *runs), want)
    assert ship[-1] is True and offload._worker is not killed[0]
    assert not offload._busy.locked()
    monkeypatch.setattr(offload._Worker, "reply", reply)
    assert_bit_identical(closure_gauss_jordan(av), want)
    assert ship[-1] is True and offload._worker.process.is_alive()


def _interrupted_here(M):
    # a run that the user interrupts in this process but not in the worker
    if os.getpid() == PYTEST_PID:
        raise KeyboardInterrupt
    return closure_gauss_jordan(M)


def test_an_interrupt_stops_the_worker(ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    worker = offload._worker
    with pytest.raises(KeyboardInterrupt):
        intervals.endpoint_runs(_interrupted_here, av)
    assert offload._worker is None and not offload._busy.locked()
    assert not worker.process.is_alive()
    assert_bit_identical(closure_gauss_jordan(av), want)
    assert ship == [True, True, True]


_RUNS_HERE = []


def _counted_here(M):
    # a run that notes each time it runs in this process
    if os.getpid() == PYTEST_PID:
        _RUNS_HERE.append(M)
    return closure_gauss_jordan(M)


def test_a_reply_that_does_not_unpickle_is_redone_here(monkeypatch, ship,
                                                       rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    worker = offload._worker
    failing_reply(monkeypatch, pickle.UnpicklingError("bad"))
    _RUNS_HERE.clear()
    runs = intervals.endpoint_runs(_counted_here, av)
    assert_bit_identical(intervals.join_endpoints(av.descriptor, *runs), want)
    assert ship[-1] is True
    # the lo run, then the whole job again here: lo, then hi
    lo, hi = intervals._endpoint(av, 0), intervals._endpoint(av, 1)
    assert _RUNS_HERE == [lo, lo, hi]
    assert offload._worker is worker and worker.process.is_alive()
    assert not offload._busy.locked()
    # the real reply was read, so the same worker serves the next call
    _RUNS_HERE.clear()
    runs = intervals.endpoint_runs(_counted_here, av)
    assert_bit_identical(intervals.join_endpoints(av.descriptor, *runs), want)
    assert ship[-1] is True and _RUNS_HERE == [intervals._endpoint(av, 0)]
    assert offload._worker is worker


def test_an_interrupt_while_waiting_stops_the_worker(monkeypatch, ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    worker = offload._worker
    failing_reply(monkeypatch, KeyboardInterrupt())
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    with pytest.raises(KeyboardInterrupt):
        closure_gauss_jordan(av)
    assert ship[-1] is True
    assert offload._worker is None and not offload._busy.locked()
    assert not worker.process.is_alive()
    assert affinity(0) == cpus
    assert_bit_identical(closure_gauss_jordan(av), want)
    assert ship[-1] is True and offload._worker not in (None, worker)


def test_the_worker_ignores_sigint(ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    worker = offload._worker
    os.kill(worker.process.pid, signal.SIGINT)
    assert_bit_identical(closure_gauss_jordan(av), want)
    assert offload._worker is worker and worker.process.is_alive()


_CALLER_CPUS = []


def _recording_cpus(M):
    # the calling thread's CPUs while its call waits on the worker
    if os.getpid() == PYTEST_PID:
        _CALLER_CPUS.append(os.sched_getaffinity(0))
        if len(_CALLER_CPUS) == 2:
            raise KeyboardInterrupt
    return closure_gauss_jordan(M)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a thread that may run on two CPUs")
def test_the_worker_and_the_caller_keep_to_their_own_cpus(ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    mine = os.sched_getaffinity(0)
    cpu = max(mine)
    _CALLER_CPUS.clear()
    intervals.endpoint_runs(_recording_cpus, av)
    worker = offload._worker
    assert os.sched_getaffinity(worker.process.pid) == {cpu}
    assert os.sched_getaffinity(0) == mine
    with pytest.raises(KeyboardInterrupt):
        intervals.endpoint_runs(_recording_cpus, av)
    assert _CALLER_CPUS == [mine - {cpu}] * 2
    assert os.sched_getaffinity(0) == mine
    # the interrupt stopped the worker; the next call starts another
    closure_gauss_jordan(av)
    assert os.sched_getaffinity(offload._worker.process.pid) == {cpu}
    assert ship == [True, True, True]


def test_runs_that_do_not_travel_stay_here(monkeypatch, ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    lo, hi = _split_endpoints(av)
    want = [closure_gauss_jordan(lo), closure_gauss_jordan(hi)]
    worker = offload._worker
    # a local function does not pickle: it is never sent
    ship.clear()
    got = intervals.endpoint_runs(lambda m: closure_gauss_jordan(m), av)
    assert ship == [False]
    # a function made after the worker started is sent, but the worker
    # cannot find it; it replies so, and the run goes on here
    def late(m):
        return closure_gauss_jordan(m)
    late.__qualname__ = late.__name__ = "late_run"
    monkeypatch.setattr(sys.modules[__name__], "late_run", late, raising=False)
    got_late = intervals.endpoint_runs(late, av)
    assert ship == [False, True]
    assert offload._worker is worker and worker.process.is_alive()
    for g in (got, got_late):
        for a, b in zip(g, want):
            assert_bit_identical(a, b)


def test_a_lift_of_a_copied_base_never_ships(ship, rng):
    lifted = lift_semiring(dataclasses.replace(MX))
    av = Matrix(lifted, random_interval_matrix("maxplus", 5, rng).to_lists())
    for kernel in (closure_block, closure_gauss_jordan, ldm_factorize):
        kernel(av)
    av.mul(av)
    assert ship and not any(ship)


def test_a_busy_worker_leaves_the_hi_run_here(ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    with offload._busy:       # as while another thread's call holds it
        got = closure_gauss_jordan(av)
    assert ship == [True, False]
    assert_bit_identical(got, want)


def test_threads_share_the_worker(ship, rng):
    # more threads than cores, switching often: a reply that reached the
    # wrong call would put one thread's result in another's place
    cases = [random_interval_matrix("minplus", 8, rng) for _ in range(6)]
    want = [closure_block(av) for av in cases]
    got = [[] for _ in cases]

    def work(k):
        for _ in range(20):
            got[k].append(closure_block(cases[k]))

    in_threads(work, len(cases))
    for results, w in zip(got, want):
        assert len(results) == 20
        for g in results:
            assert_bit_identical(g, w)


def test_a_forked_process_keeps_the_hi_run_here(ship, rng):
    av = random_interval_matrix("maxplus", 6, rng)
    want = closure_gauss_jordan(av)
    ctx = multiprocessing.get_context("fork")
    reader, writer = ctx.Pipe(duplex=False)

    def child():
        got = closure_gauss_jordan(av)
        writer.send((repr(got.to_lists()) == repr(want.to_lists()), ship[-1]))

    process = ctx.Process(target=child)
    process.start()
    assert reader.poll(60)
    assert reader.recv() == (True, False)
    process.join(timeout=30)
    assert not process.is_alive()
    assert ship == [True]


def _python(code):
    src = str(Path(intervals.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True, timeout=60)


_PRELUDE = """\
import os, sys
sys.path.insert(0, sys.argv[1])
from semiralg import Matrix, closure_block, lift_semiring, make_semiring, offload
av = Matrix(lift_semiring(make_semiring("maxplus")), [[(-1.0, 0.0)] * 20] * 20)
"""


def test_no_worker_at_import_nor_below_the_crossover():
    done = _python(_PRELUDE + """\
print(offload._worker, "multiprocessing" in sys.modules)
closure_block(av)
print(offload._worker, "multiprocessing" in sys.modules)
""")
    assert done.stdout == "None False\nNone False\n"


def test_a_plain_fork_leaves_the_worker_alone():
    # the copy made by os.fork exits through the usual interpreter exit
    done = _python(_PRELUDE + """\
offload.SHIP_MIN_WORK = 0
offload._one_cpu = lambda: False    # ship on a one-CPU host too
want = closure_block(av)
worker = offload._worker
pid = os.fork()
if pid == 0:
    closure_block(av)
    sys.exit(0)
os.waitpid(pid, 0)
print(closure_block(av) == want, offload._worker is worker,
      worker.process.is_alive())
""")
    assert (done.stdout, done.stderr) == ("True True True\n", "")


def test_the_worker_flushes_no_inherited_stream():
    # text buffered when the worker forks is written once, by this process
    done = _python(_PRELUDE + """\
offload.SHIP_MIN_WORK = 0
offload._one_cpu = lambda: False    # ship on a one-CPU host too
sys.stdout.write("once")
closure_block(av)
""")
    assert (done.stdout, done.stderr) == ("once", "")
