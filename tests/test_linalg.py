from __future__ import annotations

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import rank_fraction_gauss, rank_minor_oracle
from sdepthlab.linalg import (
    boundary_matrix,
    boundary_rank,
    rank_char0,
    rank_gf2_packed,
    rank_modp,
    rank_rows,
)

small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-2, max_value=2),
                 min_size=ncols, max_size=ncols),
        min_size=1, max_size=5,
    )
)


@given(small_matrices)
def test_rank_char0_matches_oracles(rows):
    expected = rank_fraction_gauss(rows)
    assert rank_char0(rows) == expected
    assert rank_minor_oracle(rows, 0) == expected
    assert rank_rows(rows, 0) == expected


@given(small_matrices, st.sampled_from([2, 3, 32003]))
def test_rank_modp_matches_minor_oracle(rows, p):
    expected = rank_minor_oracle(rows, p)
    assert rank_modp(rows, p) == expected
    assert rank_rows(rows, p) == expected


@given(small_matrices)
def test_gf2_paths_agree(rows):
    packed = []
    for row in rows:
        r = 0
        for j, x in enumerate(row):
            if x & 1:
                r |= 1 << j
        packed.append(r)
    assert rank_gf2_packed(packed) == rank_modp(rows, 2)


def test_rank_edge_cases():
    assert rank_rows([], 0) == 0
    assert rank_rows([[]], 0) == 0
    assert rank_char0([[0, 0], [0, 0]]) == 0
    assert rank_char0([[1, 0], [0, 1]]) == 2
    assert rank_gf2_packed([]) == 0
    assert rank_gf2_packed([0b11, 0b11, 0b01]) == 2


def test_characteristic_sensitivity():
    # rank drops mod 2 but not mod 3 or over Q
    rows = [[1, 1], [1, -1]]
    assert rank_char0(rows) == 2
    assert rank_modp(rows, 3) == 2
    assert rank_modp(rows, 2) == 1


def test_bareiss_handles_zero_head_rows():
    # pivot column has a zero in a later row; the rescaling of that row must
    # still happen for the exact division to stay integral
    rows = [
        [2, 1, 0],
        [0, 3, 1],
        [2, 4, 1],
    ]
    assert rank_char0(rows) == rank_fraction_gauss(rows) == 2


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
        for h in range(len(inner[0])):
            total = sum(x * irow[h] for x, irow in zip(row, inner))
            if total % char if char else total:
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
        dense = boundary_matrix(faces[k], cols[k - 1], 0)
        assert all(x in (-1, 0, 1) for row in dense for x in row)
        if char == 2:
            assert rows == [sum(1 << c for c, x in enumerate(row) if x) for row in dense]
    for k in range(2, n + 1):
        outer = boundary_matrix(faces[k], cols[k - 1], char)
        inner = boundary_matrix(faces[k - 1], cols[k - 2], char)
        assert _composite_is_zero(outer, inner, char)
