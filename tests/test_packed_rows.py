"""Packed maxplus and minplus rows against list rows and the fold.

A call over catalog maxplus or minplus packs its rows into ints, one
32-bit field per entry (``semirings.kernels_within``), when every
finite entry is an integral float other than -0.0, its rows are at
least 24 entries wide and its bound keeps every value and term inside
a field.  Every call here runs three ways, which must print alike
(``repr``): on packed rows, with the width rule rebound to 1 so that
small shapes pack too; on list rows, with the rule at infinity; and on
the ``dataclasses.replace`` copy of the descriptor, which folds its
own ``fma``.  Nothing ships in these runs but where a test says so.
"""

import contextlib
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ship_placements, shipped_and_here
from semiralg import (ClosureOptions, Interval, Matrix, closure_block,
                      closure_gauss_jordan, closure_iterative, lift_semiring,
                      make_semiring, solve_bellman)
from semiralg import offload, semirings
from semiralg.cli import main
from semiralg.closure import _forward, _stripe
from semiralg.errors import SemiringError
from semiralg.matrices import _product
from semiralg.serialize import dumps, matrix_to_json

CARRIERS = ["maxplus", "minplus"]
SIZES = list(range(1, 14)) + [64]


def _weights(name, rows, cols, rng, density=0.6, low=0, high=9):
    """Integral weights, star-safe for ``low`` >= 0: at most 0 on
    maxplus and at least 0 on minplus; zero tags at 1 - ``density``."""
    d = make_semiring(name)
    sign = -1 if name == "maxplus" else 1
    return [[float(sign * rng.randint(low, high)) if rng.random() < density
             else d.zero for _ in range(cols)] for _ in range(rows)]


def _matrix(name, rows, cols, rng, **kw):
    return Matrix(make_semiring(name), _weights(name, rows, cols, rng, **kw))


def _fold(m):
    """``m`` over a copy of its descriptor, which folds its own fma."""
    return Matrix._wrap(dataclasses.replace(m.descriptor), m._data)


def _outcome(call, *args):
    try:
        return repr(call(*args).to_lists()), None
    except SemiringError as exc:
        return None, (type(exc), str(exc), getattr(exc, "location", None))


@contextlib.contextmanager
def _pack_min_width(width):
    saved = semirings._PACK_MIN_WIDTH
    semirings._PACK_MIN_WIDTH = width
    try:
        yield
    finally:
        semirings._PACK_MIN_WIDTH = saved


@contextlib.contextmanager
def _encoded():
    """The list of carriers whose packed kernels encoded a row here, one
    entry a row, while the block lasts."""
    seen, saved = [], dict(semirings._packed)

    def spy(name, kernels):
        def encode(row):
            seen.append(name)
            return kernels.encode(row)
        return kernels._replace(encode=encode)

    for name in CARRIERS:
        d = make_semiring(name)
        semirings._packed[d] = spy(name, saved[d])
    try:
        yield seen
    finally:
        semirings._packed.update(saved)


@contextlib.contextmanager
def _here():
    saved = offload.SHIP_MIN_WORK
    offload.SHIP_MIN_WORK = math.inf
    try:
        yield
    finally:
        offload.SHIP_MIN_WORK = saved


def _three_ways(call, *matrices, width=1):
    """The outcome of ``call(*matrices)``, the same on packed rows (the
    width rule at ``width``), on list rows and on the fold copies, and
    whether the packed run packed."""
    with _here(), _encoded() as seen:
        with _pack_min_width(width):
            packed = _outcome(call, *matrices)
        packs = bool(seen)
        seen.clear()
        with _pack_min_width(math.inf):
            listed = _outcome(call, *matrices)
        assert not seen
        fold = _outcome(call, *map(_fold, matrices))
    assert packed == listed
    assert packed == fold
    return packs


def _block_at(split):
    return lambda a: closure_block(a, ClosureOptions(split=split))


def test_only_catalog_maxplus_and_minplus_pack():
    packing = {d.name for d in semirings._packed}
    assert packing <= set(CARRIERS)
    for name in CARRIERS:
        d = make_semiring(name)
        assert semirings._packed[d].fold is None
        # LDM keeps list rows
        assert semirings.list_kernels(d) is semirings.row_kernels(d)
        assert semirings.magnitude(dataclasses.replace(d), [[1.0]]) == math.inf
    for name in ("maxplus_complete", "rplus", "boolean"):
        assert make_semiring(name) not in semirings._packed


@pytest.mark.parametrize("name", CARRIERS)
@pytest.mark.parametrize("n", [1, 2, 7, 24, 64])
def test_packed_rows_round_trip(name, n):
    d = make_semiring(name)
    kernels = semirings._packed[d]
    rng = random.Random(f"codec/{name}/{n}")
    big = (1 << 29) - 1
    for _ in range(4):
        row = [rng.choice([d.zero, 0.0, 1.0, -1.0, float(big), float(-big),
                           float(rng.randint(-99, 99))]) for _ in range(n)]
        packed = kernels.encode(row)
        assert packed.bit_length() == 32 * n + 1        # the length bit
        assert repr(kernels.decode(packed)) == repr(row)
        assert [kernels.decode_one(kernels.entry(packed, j))
                for j in range(n)] == row
        for k in range(1, n):
            (head,), (tail,) = kernels.split([packed], k)
            assert kernels.decode(head) == row[:k]
            assert kernels.decode(tail) == row[k:]
            assert kernels.join([head], [tail]) == [packed]


@pytest.mark.parametrize("name", CARRIERS)
@pytest.mark.parametrize("n", SIZES)
def test_closures_and_the_solve_match_list_rows_and_the_fold(name, n):
    rng = random.Random(f"closures/{name}/{n}")
    A = _matrix(name, n, n, rng)
    B = _matrix(name, n, 3, rng, density=0.5)
    assert _three_ways(closure_gauss_jordan, A)
    assert _three_ways(closure_block, A)
    assert _three_ways(solve_bellman, A, B)
    # every split but at n = 64, where the default one is 32
    splits = range(1, n) if n < 64 else (1, 63)
    for split in splits:
        assert _three_ways(_block_at(split), A)


@pytest.mark.parametrize("name", CARRIERS)
@pytest.mark.parametrize("n", SIZES)
def test_products_and_the_series_match_list_rows_and_the_fold(name, n):
    rng = random.Random(f"products/{name}/{n}")
    A = _matrix(name, n, n, rng)
    wide = _matrix(name, n, 5, rng)
    row = _matrix(name, 1, n, rng, density=1.0)
    mul = Matrix.mul
    assert _three_ways(mul, A, A)
    assert _three_ways(mul, A, wide)
    assert _three_ways(mul, row, A)
    assert _three_ways(mul, wide.transpose(), A)
    if n < 64:      # the series folds some 2 million fma at n = 64
        assert _three_ways(lambda a: closure_iterative(a).matrix, A)


def _intervals(name, n, rng):
    # each weight w widened to [w - 2, w] on maxplus, [w + 2, w] on
    # minplus: the hi endpoint lies above the lo one in the order
    lift = lift_semiring(make_semiring(name))
    zero = make_semiring(name).zero
    step = 2.0 if name == "maxplus" else -2.0
    data = [[lift.zero if v is zero else Interval(v - step, v)
             for v in row] for row in _weights(name, n, n, rng, low=2)]
    return Matrix(lift, data)


@pytest.mark.parametrize("name", CARRIERS)
@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_lifted_calls_match_list_rows_and_the_fold(name, n):
    rng = random.Random(f"lifted/{name}/{n}")
    A = _intervals(name, n, rng)
    B = _intervals(name, n, rng)
    for call in (closure_gauss_jordan, closure_block,
                 _block_at(max(1, n // 3))):
        assert _three_ways(call, A)
    assert _three_ways(solve_bellman, A, B)
    assert _three_ways(Matrix.mul, A, B)


def _bounded(name, n, top, rng):
    # dense weights of magnitude below ``top``, and ``top`` on the diagonal
    sign = -1.0 if name == "maxplus" else 1.0
    data = [[sign * rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        data[i][i] = sign * top
    return Matrix(make_semiring(name), data)


# a closure of n = 32 packs while 32 times its largest magnitude is below
# 2^29, so up to 2^24 - 1
BOUND = 2 ** 29 // 32


@pytest.mark.parametrize("name", CARRIERS)
@pytest.mark.parametrize("top, packs", [
    (BOUND - 1, True),          # the last magnitude that packs
    (BOUND, False),             # exactly at the bound
    (BOUND + 1, False),         # one past it
    (2.0 ** 53 + 2, False),     # past 2^53
])
def test_the_bound_decides_the_row_form(name, top, packs):
    rng = random.Random(f"bound/{name}/{top}")
    A = _bounded(name, 32, top, rng)
    B = _matrix(name, 32, 3, rng)
    for call in (closure_gauss_jordan, closure_block):
        assert _three_ways(call, A, width=24) is packs
    assert _three_ways(solve_bellman, A, B, width=24) is packs
    # a product packs while the sum of the largest magnitudes of its
    # factors is below 2^29
    half = _bounded(name, 32, top * 16, rng)
    assert _three_ways(Matrix.mul, half, half, width=24) is packs


@pytest.mark.parametrize("name", CARRIERS)
@pytest.mark.parametrize("value", [-0.0, 0.5, -0.5])
def test_a_signed_zero_or_a_fraction_keeps_list_rows(name, value):
    rng = random.Random(f"inexact/{name}/{value}")
    A = _matrix(name, 24, 24, rng)
    data = A.to_lists()
    data[3][7] = value if name == "minplus" or value <= 0 else -value
    A = Matrix(A.descriptor, data)
    B = _matrix(name, 24, 3, rng)
    for call in (closure_gauss_jordan, closure_block):
        assert not _three_ways(call, A, width=24)
    assert not _three_ways(solve_bellman, A, B, width=24)
    assert not _three_ways(Matrix.mul, A, A, width=24)


def _cycle(name, n, rng):
    """Star-safe weights but for one cycle of weight 1 (maxplus) or -1
    (minplus) through nodes 9 and 20."""
    A = _weights(name, n, n, rng, low=1)
    sign = 1.0 if name == "maxplus" else -1.0
    A[9][20], A[20][9] = sign * 3.0, sign * -2.0
    return Matrix(make_semiring(name), A)


@pytest.mark.parametrize("name", CARRIERS)
def test_a_failing_star_fails_alike_on_both_row_forms(name, tmp_path, capsys):
    rng = random.Random(f"star/{name}")
    A = _cycle(name, 32, rng)
    B = _matrix(name, 32, 3, rng)
    for call in (closure_gauss_jordan, closure_block):
        assert _three_ways(call, A, width=24)
        assert _outcome(call, A)[1][0].__name__ == "StarUndefined"
    assert _three_ways(solve_bellman, A, B, width=24)
    path = tmp_path / "a.json"
    path.write_text(dumps(matrix_to_json(A)))
    runs = []
    for width in (24, math.inf):
        with _pack_min_width(width), _encoded() as seen:
            code = main(["closure", "--semiring", name, str(path)])
        runs.append((code, capsys.readouterr(), bool(seen)))
    (code, err, packed), (code_list, err_list, listed) = runs
    assert packed and not listed
    assert code == code_list == 4
    assert err == err_list and "star needs" in err.err


@pytest.mark.parametrize("name", CARRIERS)
def test_packed_stripes_products_and_forward_passes_ship(monkeypatch, name):
    rng = random.Random(f"ship/{name}")
    A = _matrix(name, 64, 64, rng)
    B = _matrix(name, 64, 8, rng)
    placements = ship_placements(monkeypatch, _stripe, _product, _forward)
    for call in (closure_gauss_jordan, closure_block, lambda a: a.mul(a),
                 lambda a: solve_bellman(a, B)):
        with _encoded() as seen:
            shipped, here = shipped_and_here(monkeypatch, placements,
                                             lambda: call(A))
        assert seen                     # the rows packed
        assert repr(shipped[0].to_lists()) == repr(here[0].to_lists())
        with _pack_min_width(math.inf), _here():
            assert repr(call(A).to_lists()) == repr(here[0].to_lists())


def _drawn(name, rows, cols):
    d = make_semiring(name)
    entry = st.one_of(st.just(d.zero), st.integers(-6, 6).map(float))
    return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_rows_match_on_drawn_integral_matrices(data):
    name = data.draw(st.sampled_from(CARRIERS))
    d = make_semiring(name)
    n, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 5))
    A = Matrix(d, data.draw(_drawn(name, n, n)))
    B = Matrix(d, data.draw(_drawn(name, n, m)))
    C = Matrix(d, data.draw(_drawn(name, m, n)))
    split = data.draw(st.integers(1, max(1, n - 1)))
    assert _three_ways(closure_gauss_jordan, A)
    assert _three_ways(_block_at(split), A)
    assert _three_ways(solve_bellman, A, B)
    assert _three_ways(Matrix.mul, B, C)
