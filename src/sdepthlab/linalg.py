"""Exact rank computation for the sparse incidence matrices of this package.

Two code paths, both exact, both online echelon forms: a dict maps each
pivot column to the basis row that claimed it, and each incoming row is
reduced at its lead column until it vanishes or claims that column.
  * characteristic 2 — rows packed into Python ints, lead at the lowest
    bit, reduced by XOR;
  * characteristic 0 and odd primes p — rows as {column: entry} dicts of
    their nonzero entries, lead at the largest column.  Mod p each pivot
    row is scaled to lead 1 and a row r with lead entry c becomes
    r − c·b.  Over Q the entries stay integers: with b's lead entry
    e = ±1, r becomes r − (c/e)·b; otherwise r becomes e·r − c·b (an
    invertible step over Q, since e ≠ 0) and is divided by the gcd of
    its entries.

The char-0 step stays exact because nothing else gives the rank over Q:
floats round, and a rank mod p is smaller whenever p divides every
nonzero maximal minor, which would overstate the homology.

Matrices here are Koszul/boundary incidence matrices with entries in
{-1, 0, 1}, a few percent nonzero, and dimensions rarely beyond a few
hundred; `boundary_matrix` builds them for both the Koszul and the
simplicial (Reisner) engines.
"""
from __future__ import annotations

from math import gcd


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


def rank_char0(rows: list[dict[int, int]]) -> int:
    """Rank over Q of integer rows {column: entry}, by exact elimination over Z."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: x for j, x in row.items() if x}
        while r:
            lead = max(r)
            b = basis.get(lead)
            if b is None:
                basis[lead] = r
                break
            c, e = r[lead], b[lead]
            unit = e in (1, -1)
            if unit:
                c *= e  # c / e
            else:
                r = {j: e * x for j, x in r.items()}
            for j, x in b.items():
                y = r.get(j, 0) - c * x
                if y:
                    r[j] = y
                else:
                    del r[j]  # c·x ≠ 0, so a zero here cancels an entry of r
            if not unit and r:
                g = gcd(*r.values())
                if g != 1:
                    r = {j: x // g for j, x in r.items()}
    return len(basis)


def rank_modp(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p), p prime, of integer rows {column: entry}."""
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: x % p for j, x in row.items() if x % p}
        while r:
            lead = max(r)
            b = basis.get(lead)
            c = r[lead]
            if b is None:
                if c != 1:
                    inv = pow(c, -1, p)
                    r = {j: x * inv % p for j, x in r.items()}
                basis[lead] = r  # pivot entry 1
                break
            for j, x in b.items():
                y = (r.get(j, 0) - c * x) % p
                if y:
                    r[j] = y
                else:
                    del r[j]  # c·x ≢ 0 mod p, so a zero here cancels an entry of r
    return len(basis)


def boundary_matrix(src: list[int], cols: dict[int, int], char: int) -> list:
    """The signed boundary map from the faces `src` to the faces in `cols`.

    Faces are vertex masks.  Face f maps to Σ_{j∈f} (-1)^{pos(j,f)} e_{f\\{j}},
    where pos(j,f) counts the vertices of f below j; faces missing from
    `cols` (face -> column index) drop out.  Over characteristic 2 each row
    is packed into an int, bit c for column c; otherwise each row is a dict
    {column: ±1} of its nonzero entries.
    """
    packed = char == 2
    rows: list = []
    for f in src:
        row = 0 if packed else {}
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
    if char == 0:
        return rank_char0(rows)
    return rank_modp(rows, char)
