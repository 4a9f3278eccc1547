"""Exact rank computation for the small incidence matrices of this package.

Three code paths, all exact:
  * characteristic 2 — rows packed into Python ints, XOR elimination;
  * characteristic 0 — fraction-free Bareiss elimination over the integers;
  * odd prime p — dense elimination mod p.

Matrices here are Koszul/boundary incidence matrices with entries in
{-1, 0, 1} and dimensions rarely beyond a few hundred; `boundary_matrix`
builds them for both the Koszul and the simplicial (Reisner) engines.
"""
from __future__ import annotations


def rank_gf2_packed(rows: list[int]) -> int:
    """Rank over GF(2) of rows given as bitmask-packed integers."""
    basis: dict[int, int] = {}
    rank = 0
    for r in rows:
        while r:
            low = r & -r
            piv = basis.get(low)
            if piv is None:
                basis[low] = r
                rank += 1
                break
            r ^= piv
    return rank


def rank_char0(rows: list[list[int]]) -> int:
    """Rank over Q via Bareiss fraction-free elimination (integer-exact)."""
    if not rows:
        return 0
    a = [row[:] for row in rows]
    nrows = len(a)
    ncols = len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = None
        for i in range(row, nrows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
        pivot = a[row][col]
        for i in range(row + 1, nrows):
            head = a[i][col]
            ri = a[i]
            rr = a[row]
            # every row below the pivot must be rescaled, even when head == 0;
            # skipping would break the exactness of the division by `prev`
            for j in range(col, ncols):
                ri[j] = (pivot * ri[j] - head * rr[j]) // prev
        prev = pivot
        row += 1
        rank += 1
    return rank


def rank_modp(rows: list[list[int]], p: int) -> int:
    if not rows:
        return 0
    a = [[x % p for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = None
        for i in range(row, nrows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], p - 2, p)
        arow = a[row]
        for i in range(row + 1, nrows):
            head = a[i][col]
            if head:
                factor = (head * inv) % p
                ri = a[i]
                for j in range(col, ncols):
                    ri[j] = (ri[j] - factor * arow[j]) % p
        row += 1
        rank += 1
    return rank


def rank_rows(rows: list[list[int]], char: int) -> int:
    """Rank over the field of the given characteristic (0 or a prime)."""
    if not rows or not rows[0]:
        return 0
    if char == 0:
        return rank_char0(rows)
    if char == 2:
        packed = []
        for row in rows:
            r = 0
            for j, x in enumerate(row):
                if x & 1:
                    r |= 1 << j
            packed.append(r)
        return rank_gf2_packed(packed)
    return rank_modp(rows, char)


def boundary_matrix(src: list[int], cols: dict[int, int], char: int) -> list:
    """The signed boundary map from the faces `src` to the faces in `cols`.

    Faces are vertex masks.  Face f maps to Σ_{j∈f} (-1)^{pos(j,f)} e_{f\\{j}},
    where pos(j,f) counts the vertices of f below j; faces missing from
    `cols` (face -> column index) drop out.  Over characteristic 2 each row
    is packed into an int, bit c for column c; otherwise rows are dense lists.
    """
    packed = char == 2
    rows: list = []
    for f in src:
        row = 0 if packed else [0] * len(cols)
        t = f
        while t:
            low = t & -t
            t ^= low
            col = cols.get(f ^ low)
            if col is None:
                continue
            if packed:
                row |= 1 << col
            else:
                row[col] = -1 if (f & (low - 1)).bit_count() & 1 else 1
        rows.append(row)
    return rows


def boundary_rank(src: list[int], cols: dict[int, int], char: int) -> int:
    """Rank of `boundary_matrix(src, cols, char)` in characteristic `char`."""
    if not src or not cols:
        return 0
    rows = boundary_matrix(src, cols, char)
    if char == 2:
        return rank_gf2_packed(rows)
    return rank_rows(rows, char)
