from __future__ import annotations

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dense_rows,
    rank_fraction_gauss,
    rank_minor_oracle,
    rank_modp_dense,
    si_pair,
    sparse_rows,
)
from sdepthlab.linalg import (
    boundary_matrix,
    boundary_rank,
    rank_char0,
    rank_gf2_packed,
    rank_modp,
)
import sdepthlab.depth as depth_module
from sdepthlab.monomials import Ideal, Monomial, QuotientPair

small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=5,
    )
)

# no entry is ±1, so the char-0 kernel meets non-unit pivots and gcds > 1
non_unit_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-7, max_value=7).filter(lambda x: abs(x) != 1),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=6,
    )
)


@given(small_matrices)
def test_rank_char0_matches_oracles(rows):
    expected = rank_fraction_gauss(rows)
    assert rank_char0(sparse_rows(rows)) == expected
    assert rank_minor_oracle(rows, 0) == expected


@given(small_matrices, st.sampled_from([2, 3, 32003]))
def test_rank_modp_matches_minor_oracle(rows, p):
    expected = rank_minor_oracle(rows, p)
    assert rank_modp(sparse_rows(rows), p) == expected
    assert rank_modp_dense(rows, p) == expected


@given(non_unit_matrices)
def test_rank_char0_without_unit_entries(rows):
    assert rank_char0(sparse_rows(rows)) == rank_fraction_gauss(rows)


@given(small_matrices)
def test_gf2_paths_agree(rows):
    packed = []
    for row in rows:
        r = 0
        for j, x in enumerate(row):
            if x & 1:
                r |= 1 << j
        packed.append(r)
    assert rank_gf2_packed(packed) == rank_modp(sparse_rows(rows), 2)


def test_rank_edge_cases():
    for p in (0, 2, 3):
        assert boundary_rank([], {}, p) == 0
        assert boundary_rank([0b11], {}, p) == 0
    assert rank_char0([]) == 0
    assert rank_char0([{}]) == 0
    assert rank_char0([{0: 0, 1: 0}, {}]) == 0
    assert rank_char0(sparse_rows([[0, 0], [0, 0]])) == 0
    assert rank_char0(sparse_rows([[1, 0], [0, 1]])) == 2
    assert rank_modp([], 3) == 0
    assert rank_modp([{0: 3, 1: -6}], 3) == 0
    assert rank_gf2_packed([]) == 0
    assert rank_gf2_packed([0b11, 0b11, 0b01]) == 2


def test_rank_leaves_its_rows_alone():
    rows = sparse_rows([[1, 2, 0], [2, 4, 1], [3, 6, 1]])
    before = [dict(r) for r in rows]
    assert rank_char0(rows) == rank_modp(rows, 3) == 2
    assert rows == before


def test_characteristic_sensitivity():
    # rank drops mod 2 but not mod 3 or over Q
    rows = sparse_rows([[1, 1], [1, -1]])
    assert rank_char0(rows) == 2
    assert rank_modp(rows, 3) == 2
    assert rank_modp(rows, 2) == 1


def test_char0_non_unit_pivots():
    # every row leads at its last column, where row 1's pivot entry is 2, so
    # rows 2..4 are first reduced by r ← 2·r − c·b; row 2 becomes
    # 4·(-1, 1, 0) and is divided by its gcd 4; row 3 = 2·row 1 + row 2
    # vanishes
    rows = [
        [1, 0, 2],
        [0, 2, 4],
        [2, 2, 8],
        [0, 3, 7],
    ]
    assert rank_char0(sparse_rows(rows)) == rank_fraction_gauss(rows) == 3


def _composite_is_zero(outer: list, inner: list, char: int) -> bool:
    """Whether the product of two boundary matrices vanishes in `char`."""
    for row in outer:
        if char == 2:
            acc = 0
            for g, irow in enumerate(inner):
                if (row >> g) & 1:
                    acc ^= irow
            if acc:
                return False
            continue
        total: dict[int, int] = {}
        for g, x in row.items():
            for h, y in inner[g].items():
                total[h] = total.get(h, 0) + x * y
        if any(t % char if char else t for t in total.values()):
            return False
    return True


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("n", range(1, 6))
def test_boundary_of_full_simplex(n, char):
    faces = {k: [f for f in range(1 << n) if f.bit_count() == k] for k in range(n + 1)}
    cols = {k: {f: c for c, f in enumerate(fs)} for k, fs in faces.items()}
    for k in range(1, n + 1):
        # the augmented chain complex of a simplex is exact
        assert boundary_rank(faces[k], cols[k - 1], char) == comb(n - 1, k - 1)
        rows = boundary_matrix(faces[k], cols[k - 1], char)
        sparse = boundary_matrix(faces[k], cols[k - 1], 0)
        assert all(len(row) == k for row in sparse)
        assert all(x in (-1, 1) for row in sparse for x in row.values())
        if char == 2:
            assert rows == [sum(1 << c for c in row) for row in sparse]
    for k in range(2, n + 1):
        outer = boundary_matrix(faces[k], cols[k - 1], char)
        inner = boundary_matrix(faces[k - 1], cols[k - 2], char)
        assert _composite_is_zero(outer, inner, char)


def _pair(n: int, i_gens, j_gens) -> QuotientPair:
    def ideal(gens):
        return Ideal(n, [Monomial.of(*g) for g in gens])

    if i_gens is None:
        return si_pair(ideal(j_gens))
    return QuotientPair(ideal(i_gens), ideal(j_gens))


# S/I and I/J pairs at n = 9..11 whose Koszul walks build matrices of up to
# 211 rows (about 290 distinct matrices in all)
KOSZUL_PAIRS = [
    (9, None, [(1, 3, 9), (1, 4, 6), (2, 5, 7), (3, 4, 7), (2, 3, 5, 8), (4, 5, 8, 9)]),
    (10, [(2, 5, 10), (2, 6, 10), (8, 9, 10), (1, 2, 4, 8), (1, 3, 7, 8)],
     [(1, 3, 5, 7, 8)]),
    (11, [(1, 2, 3), (3, 6, 7), (4, 7, 9), (8, 10, 11), (4, 7, 8, 10)],
     [(4, 6, 7, 9, 10), (1, 2, 3, 4, 5, 8), (1, 2, 4, 8, 10, 11),
      (1, 2, 3, 4, 6, 8, 9), (2, 3, 5, 6, 7, 8, 9, 10, 11)]),
]


def test_kernels_match_oracles_on_koszul_matrices(monkeypatch):
    # the Reisner engine shares `boundary_rank`, so its agreement with the
    # Koszul engine does not check ranks; here dense oracles do
    seen: dict = {}

    def record(src, cols, char):
        seen[tuple(src), tuple(cols)] = src, cols
        return boundary_rank(src, cols, char)

    monkeypatch.setattr(depth_module, "boundary_rank", record)
    for n, i_gens, j_gens in KOSZUL_PAIRS:
        Q = _pair(n, i_gens, j_gens)
        depth_module.depth(Q, 0)
        depth_module.depth(Q, 3)
    assert max(len(src) for src, _ in seen.values()) > 200
    for src, cols in seen.values():
        dense = dense_rows(boundary_matrix(src, cols, 0), len(cols))
        assert boundary_rank(src, cols, 0) == rank_fraction_gauss(dense)
        for p in (3, 32003):
            assert boundary_rank(src, cols, p) == rank_modp_dense(dense, p)
