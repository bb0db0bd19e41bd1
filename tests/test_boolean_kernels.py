"""The packed boolean row kernels against the fold of ``fma``.

Boolean rows are packed into ints (``semirings.row_kernels``).  A copy of
the boolean descriptor is no catalog instance, so it gets the kernels on
list rows that fold its own ``fma``: the oracle every call here is
compared with, value for value and type for type.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from semiralg import (ClosureOptions, Matrix, closure_block,
                      closure_gauss_jordan, make_semiring, solve_bellman)
from semiralg.semirings import list_kernels, row_kernels

BOOLEAN = make_semiring("boolean")
ORACLE = dataclasses.replace(BOOLEAN)

SIZES = [1, 2, 63, 64, 65, 127, 129]
DENSITIES = [0.0, 0.02, 0.3, 1.0]


def _rows(rows, cols, density, seed):
    rng = random.Random(f"{rows}x{cols}/{density}/{seed}")
    return [[rng.random() < density for _ in range(cols)] for _ in range(rows)]


def _both(data):
    return Matrix(BOOLEAN, data), Matrix(ORACLE, data)


def _same(got, want):
    assert got.descriptor is BOOLEAN and want.descriptor is ORACLE
    rows = got.to_lists()
    assert rows == want.to_lists()
    assert all(type(v) is bool for row in rows for v in row)


def test_only_the_catalog_instance_packs_its_rows():
    assert row_kernels(BOOLEAN).fold is None
    assert row_kernels(ORACLE).fold is not None
    # LDM reads and writes single entries, so it gets the fold of fma
    assert list_kernels(BOOLEAN).encode is list
    assert list_kernels(BOOLEAN).mul is BOOLEAN.mul


@pytest.mark.parametrize("n", SIZES)
def test_packed_rows_round_trip(n):
    kernels = row_kernels(BOOLEAN)
    encode, decode = kernels.encode, kernels.decode
    for density in DENSITIES:
        for row in _rows(4, n, density, "codec"):
            packed = encode(row)
            assert packed.bit_length() == n + 1      # the length bit
            back = decode(packed)
            assert back == row and all(type(v) is bool for v in back)
            assert [kernels.entry(packed, j) for j in range(n)] == row
            for k in range(1, n):
                (head,), (tail,) = kernels.split([packed], k)
                assert decode(head) == row[:k] and decode(tail) == row[k:]
                assert kernels.join([head], [tail]) == [packed]


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("n", SIZES)
def test_packed_closures_match_the_fma_fold(n, density):
    A, A_oracle = _both(_rows(n, n, density, "closure"))
    B, B_oracle = _both(_rows(n, 8, density, "bellman"))
    _same(closure_gauss_jordan(A), closure_gauss_jordan(A_oracle))
    _same(closure_block(A), closure_block(A_oracle))
    _same(solve_bellman(A, B), solve_bellman(A_oracle, B_oracle))


@pytest.mark.parametrize("density", DENSITIES)
def test_packed_block_closure_at_every_split(density):
    for n in range(2, 10):
        A, A_oracle = _both(_rows(n, n, density, "split"))
        for split in range(1, n):
            opts = ClosureOptions(split=split)
            _same(closure_block(A, opts), closure_block(A_oracle, opts))


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("n", SIZES)
def test_packed_product_and_sum_match_the_fma_fold(n, density):
    A, A_oracle = _both(_rows(n, n, density, "A"))
    B, B_oracle = _both(_rows(n, 8, density, "B"))
    C, C_oracle = _both(_rows(8, n, density, "C"))
    D, D_oracle = _both(_rows(n, n, 0.3, "D"))
    _same(A.mul(A), A_oracle.mul(A_oracle))
    _same(A.mul(B), A_oracle.mul(B_oracle))
    _same(C.mul(A), C_oracle.mul(A_oracle))
    _same(A.add(D), A_oracle.add(D_oracle))
    # rectangular: n x 1 . 1 x n, 1 x n . n x 1 and 3 x n . n x 17
    col, col_oracle = _both(_rows(n, 1, density, "col"))
    row, row_oracle = _both(_rows(1, n, density, "row"))
    _same(col.mul(row), col_oracle.mul(row_oracle))
    _same(row.mul(col), row_oracle.mul(col_oracle))
    left = _rows(3, n, density, "left")
    left[0] = [False] * n       # selects no row of the right factor
    L, L_oracle = _both(left)
    R, R_oracle = _both(_rows(n, 17, density, "right"))
    _same(L.mul(R), L_oracle.mul(R_oracle))
    assert L.mul(R).to_lists()[0] == [False] * 17


def _drawn(rows, cols):
    # one draw per row, its bits the entries
    row = st.integers(0, (1 << cols) - 1).map(
        lambda bits: [bits >> j & 1 == 1 for j in range(cols)])
    return st.lists(row, min_size=rows, max_size=rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_kernels_match_the_fma_fold_on_drawn_shapes(data):
    n, m, p = (data.draw(st.integers(1, 40)) for _ in range(3))
    X, X_oracle = _both(data.draw(_drawn(n, m)))
    Y, Y_oracle = _both(data.draw(_drawn(m, p)))
    _same(X.mul(Y), X_oracle.mul(Y_oracle))
    A, A_oracle = _both(data.draw(_drawn(n, n)))
    opts = ClosureOptions(split=data.draw(st.integers(1, max(1, n - 1))))
    _same(closure_block(A, opts), closure_block(A_oracle, opts))
    B, B_oracle = _both(data.draw(_drawn(n, p)))
    _same(solve_bellman(A, B), solve_bellman(A_oracle, B_oracle))
