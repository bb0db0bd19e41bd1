"""Properties checked on drawn inputs: the three closure algorithms agree
exactly, the block closure does not depend on its split, the semiring
laws hold on drawn samples of every carrier and of every interval lift,
and a matrix reads back from its JSON as itself.

Drawn values keep each carrier's arithmetic exact: integers on the
tropical carriers, quarters on the fields, and any float on maxmin,
whose max and min never round.
"""

from hypothesis import given, settings, strategies as st

from conftest import descriptor
from semiralg import (NEG_INF, POS_INF, ClosureOptions, Matrix, closure_block,
                      closure_gauss_jordan, closure_iterative, laws,
                      lift_semiring, make_interval)
from semiralg.serialize import dumps, loads, matrix_from_json, matrix_to_json


def _integers(lo, hi):
    return st.integers(lo, hi).map(float)


def _quarters(lo, hi):
    return st.integers(4 * lo, 4 * hi).map(lambda k: k / 4)


SCALARS = {
    "maxplus": st.just(NEG_INF) | _integers(-8, 8),
    "maxplus_complete": st.sampled_from([NEG_INF, POS_INF]) | _integers(-8, 8),
    "minplus": st.just(POS_INF) | _integers(-8, 8),
    "maxmin": st.floats(0.0, 10.0),
    "boolean": st.booleans(),
    "rplus": _quarters(0, 4),
    "rplus_complete": st.just(POS_INF) | _quarters(0, 4),
    "real_field": _quarters(-4, 4),
}
# arc weights that keep every cycle weight at most one, so A* exists
STAR_SAFE = {
    "maxplus": _integers(-5, 0),
    "minplus": _integers(0, 6),
    "maxmin": st.floats(0.0, 10.0),
    "boolean": st.just(True),
}
LIFTABLE = sorted(name for name in SCALARS if descriptor(name).flags.positive)


def hulls(name):
    """Intervals of ``name`` spanning two drawn values."""
    base = descriptor(name)

    def hull(pair):
        lo, hi = pair if base.leq(*pair) else pair[::-1]
        return make_interval(base, lo, hi)

    return st.tuples(SCALARS[name], SCALARS[name]).map(hull)


@st.composite
def matrices(draw, d, cells, square=True):
    n = draw(st.integers(1, 6))
    m = n if square else draw(st.integers(1, 6))
    return Matrix(d, draw(st.lists(st.lists(cells, min_size=m, max_size=m),
                                   min_size=n, max_size=n)))


@st.composite
def star_safe_matrices(draw):
    """Square matrices over an idempotent carrier whose closure exists."""
    d = descriptor(draw(st.sampled_from(sorted(STAR_SAFE))))
    weight = STAR_SAFE[d.name]
    return draw(matrices(d, st.just(d.zero) | weight))


@st.composite
def any_matrices(draw):
    """Matrices over any carrier, or over the lift of a liftable one."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(LIFTABLE))
        d, cells = lift_semiring(descriptor(name)), hulls(name)
    else:
        name = draw(st.sampled_from(sorted(SCALARS)))
        d, cells = descriptor(name), SCALARS[name]
    return draw(matrices(d, cells, square=False))


@settings(max_examples=200, deadline=None)
@given(star_safe_matrices())
def test_closure_algorithms_agree_exactly(a):
    star = closure_block(a)
    assert closure_gauss_jordan(a) == star
    assert closure_iterative(a).matrix == star


@settings(max_examples=150, deadline=None)
@given(star_safe_matrices())
def test_block_closure_is_split_invariant(a):
    star = closure_block(a)
    for k in range(1, a.rows):
        assert closure_block(a, ClosureOptions(split=k)) == star


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.lists(SCALARS[name], min_size=1, max_size=4))))
def test_laws_hold_on_drawn_samples(case):
    name, samples = case
    assert laws.all_violations(descriptor(name), samples) == []


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(LIFTABLE).flatmap(
    lambda name: st.tuples(st.just(name),
                           st.lists(hulls(name), min_size=1, max_size=4))))
def test_lifted_laws_hold_on_drawn_hulls(case):
    name, samples = case
    assert laws.all_violations(lift_semiring(descriptor(name)), samples) == []


@settings(max_examples=200, deadline=None)
@given(any_matrices())
def test_json_round_trip(a):
    d = a.descriptor
    assert matrix_from_json(d, loads(dumps(matrix_to_json(a)))) == a
