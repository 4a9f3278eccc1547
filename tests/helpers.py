"""Shared strategies, brute-force oracles, and the acceptance-line registry.

The oracles here are deliberately independent re-implementations: they favor
direct enumeration over the algorithms under test, so an agreement is
evidence rather than tautology.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product

from hypothesis import strategies as st

from sdepthlab.linalg import boundary_rank
from sdepthlab.monomials import Ideal, Monomial, QuotientPair
from sdepthlab.poset import strata
from sdepthlab.surgery import containment_violators, ml1_candidate_bs


# -- random instances --------------------------------------------------------

@st.composite
def quotient_pairs(draw, max_n: int = 5, max_gens: int = 4,
                   normalized: bool = True) -> QuotientPair:
    """Random validated pairs; J is sampled from members of I.

    With `normalized=True` every J generator has degree > d, so the pair
    never carries a normalization warning.
    """
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_gens))
    gens = [Monomial(draw(st.integers(min_value=1, max_value=(1 << n) - 1)))
            for _ in range(k)]
    I = Ideal(n, gens)
    d = min(g.degree for g in I.gens)
    floor = d + 1 if normalized else 1
    pool = [m for m in range(1, 1 << n)
            if I.member_mask(m) and m.bit_count() >= floor]
    jgens: list[Monomial] = []
    if pool:
        jn = draw(st.integers(min_value=0, max_value=3))
        jgens = [Monomial(draw(st.sampled_from(pool))) for _ in range(jn)]
    J = Ideal(n, jgens)
    if J.contains_ideal(I):
        J = Ideal(n)
    return QuotientPair(I, J)


@st.composite
def proper_ideals(draw, max_n: int = 5, max_gens: int = 4) -> Ideal:
    """Random nonzero, non-unit squarefree ideals (for S/I-form pairs)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=max_gens))
    gens = [Monomial(draw(st.integers(min_value=1, max_value=(1 << n) - 1)))
            for _ in range(k)]
    return Ideal(n, gens)


def unit_ideal(n: int) -> Ideal:
    return Ideal(n, [Monomial(0)])


def si_pair(I: Ideal, field: int = 0) -> QuotientPair:
    """The S/I form: the quotient of the unit ideal by I."""
    return QuotientPair(unit_ideal(I.ambient), I, field=field)


def rename_pair(Q: QuotientPair, n: int, to: dict[int, int]) -> QuotientPair:
    """Q in ambient n with each used variable x_i renamed x_{to[i]}."""
    def rename(ideal: Ideal) -> Ideal:
        return Ideal(n, [Monomial.of(*(to[i] for i in g.vars)) for g in ideal.gens])

    return QuotientPair(rename(Q.I), rename(Q.J), Q.field)


def restrict_to_support(Q: QuotientPair) -> tuple[QuotientPair, int]:
    """Q over only the variables its generators use, renamed x_1..x_m in
    order, and the number of variables left out."""
    used = sorted({i for g in Q.I.gens + Q.J.gens for i in g.vars})
    to = {i: j for j, i in enumerate(used, 1)}
    return rename_pair(Q, len(used), to), Q.ambient - len(used)


# -- brute-force oracles ------------------------------------------------------

def brute_poset_masks(Q: QuotientPair) -> list[int]:
    """Masks of squarefree monomials in I\\J, by direct membership tests."""
    return [m for m in range(1 << Q.ambient)
            if Q.I.member_mask(m) and not Q.J.member_mask(m)]


def brute_monomial_count(Q: QuotientPair, degree: int) -> int:
    """Number of (not necessarily squarefree) degree-k monomials in I\\J,
    counted by enumerating exponent vectors."""
    n = Q.ambient

    def count(idx: int, remaining: int, support: int) -> int:
        if idx == n:
            if remaining:
                return 0
            return int(Q.I.member_mask(support)
                       and not Q.J.member_mask(support))
        total = count(idx + 1, remaining, support)
        for e in range(1, remaining + 1):
            total += count(idx + 1, remaining - e, support | (1 << idx))
        return total

    return count(0, degree, 0)


def _homology(levels: dict[int, list[int]], char: int) -> dict[int, int]:
    """dim H_i of the complex whose i-th term has the basis levels[i]
    (subset masks, differential the signed face map), for every i."""
    def rank(i: int) -> int:
        cols = {f: k for k, f in enumerate(levels.get(i - 1, ()))}
        return boundary_rank(levels.get(i, []), cols, char)

    return {i: len(levels[i]) - rank(i) - rank(i + 1) for i in levels}


def koszul_betti(Q: QuotientPair, a: int, char: int) -> tuple[int, ...]:
    """dim H_i(x; I/J) in the squarefree multidegree `a`, for i = 0..n.

    Built from the definition, every rank exact and unscreened: K_i has the
    basis {F ⊆ a : |F| = i, x^(a\\F) ∈ I\\J}, tested by generator division.
    """
    levels: dict[int, list[int]] = {}
    for f in range(1 << Q.ambient):
        g = a & ~f
        if f & ~a == 0 and Q.I.member_mask(g) and not Q.J.member_mask(g):
            levels.setdefault(f.bit_count(), []).append(f)
    h = _homology(levels, char)
    return tuple(h.get(i, 0) for i in range(Q.ambient + 1))


def nonsquarefree_koszul_sweep(Q: QuotientPair, char: int) -> list[tuple]:
    """Nonzero Koszul homology of I/J in the multidegrees with exponents up
    to 2 on the active variables and some exponent 2, as (exponents, i, h).

    Multidegree a = x^e has K_i basis {F ⊆ supp(a) : |F| = i, x^e/x^F in
    I\\J}, and x^e/x^F has the support of e minus the F-variables of
    exponent 1.  Squarefree concentration predicts an empty list.
    """
    active = 0
    for g in Q.I.gen_masks() + Q.J.gen_masks():
        active |= g
    vvars = Monomial(active).vars
    hits = []
    for exps in product((0, 1, 2), repeat=len(vvars)):
        if 2 not in exps:
            continue
        supp = ones = 0
        for j, e in zip(vvars, exps):
            if e:
                supp |= 1 << (j - 1)
            if e == 1:
                ones |= 1 << (j - 1)
        levels: dict[int, list[int]] = {}
        for f in range(1 << Q.ambient):
            tgt = supp ^ (f & ones)
            if f & ~supp == 0 and Q.I.member_mask(tgt) and not Q.J.member_mask(tgt):
                levels.setdefault(f.bit_count(), []).append(f)
        hits.extend((exps, i, h) for i, h in _homology(levels, char).items() if h)
    return hits


def containment_kills_one_at_a_time(Q0: QuotientPair) -> list[Monomial]:
    """The C-containment violators of an r = 2 pair with J = 0, found the
    slow way: put the first violator into J, recompute the strata, repeat
    until none is left."""
    kill: list[Monomial] = []
    pair = Q0
    while True:
        report = strata(pair)
        f1, f2 = report.f_list
        bad = None
        for c in report.C:
            e_hits = [a for a in report.E if a.divides(c)]
            f_hit = f1.divides(c) or f2.divides(c)
            both_f = f1.divides(c) and f2.divides(c)
            if not (both_f or (e_hits and f_hit) or len(e_hits) >= 2):
                bad = c
                break
        if bad is None:
            return kill
        kill.append(bad)
        pair = QuotientPair(Q0.I, Ideal(Q0.ambient, kill))


def reference_ml1_sampler(rng, n: int = 6, max_tries: int = 400):
    """`sample_ml1_instance` tried the slow way, with the same RNG draws:
    every try builds I/0 and its strata, kills the containment violators
    found there plus up to two random other elements of C, and asks
    `ml1_candidate_bs` of the pair I/J."""
    for _ in range(max_tries):
        d = rng.randint(1, 2)
        common = rng.sample(range(1, n + 1), d - 1) if d > 1 else []
        rest = [v for v in range(1, n + 1) if v not in common]
        x_a, x_b = rng.sample(rest, 2)
        f1 = Monomial.of(*(common + [x_a]))
        f2 = Monomial.of(*(common + [x_b]))
        gens = [f1, f2]
        for _ in range(rng.randint(0, 2)):
            e = Monomial.of(*rng.sample(range(1, n + 1), d + 1))
            if not (f1.divides(e) or f2.divides(e)):
                gens.append(e)
        I = Ideal(n, gens)
        if len([g for g in I.gens if g.degree == d]) != 2:
            continue
        st0 = strata(QuotientPair(I, Ideal(n)))
        j_gens = list(containment_violators(st0))
        pool = [c.mask for c in st0.C if c not in j_gens]
        for _ in range(rng.randint(0, 2)):
            if pool:
                j_gens.append(Monomial(rng.choice(pool)))
        Q = QuotientPair(I, Ideal(n, j_gens))
        bs = ml1_candidate_bs(Q)
        if bs:
            return Q, bs
    return None


def rank_fraction_gauss(rows: list[list[int]]) -> int:
    """Rank over Q by plain Gaussian elimination with Fractions."""
    if not rows or not rows[0]:
        return 0
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for i in range(nrows):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y if y else x for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def rank_modp_dense(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) by dense row reduction of the whole matrix, column by
    column, with the pivot row swapped up."""
    if not rows or not rows[0]:
        return 0
    a = [[x % p for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = next((i for i in range(row, nrows) if a[i][col]), None)
        if piv is None:
            continue
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


def sparse_rows(dense: list[list[int]]) -> list[dict[int, int]]:
    """Dense rows as the {column: entry} dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def dense_rows(sparse: list[dict[int, int]], ncols: int) -> list[list[int]]:
    """{column: entry} rows as dense lists of length `ncols`."""
    out = []
    for row in sparse:
        dense = [0] * ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def _det_int(mat: list[list[int]]) -> int:
    if len(mat) == 1:
        return mat[0][0]
    total = 0
    for j, head in enumerate(mat[0]):
        if not head:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * head * _det_int(minor)
    return total


def rank_minor_oracle(rows: list[list[int]], char: int) -> int:
    """Rank as the largest k admitting a k-by-k minor with nonzero
    determinant (reduced mod the characteristic when positive)."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    for k in range(min(nrows, ncols), 0, -1):
        for ri in combinations(range(nrows), k):
            for ci in combinations(range(ncols), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                det = _det_int(sub)
                if char:
                    det %= char
                if det:
                    return k
    return 0


def expand_series(k_poly: tuple[int, ...], m: int, horizon: int) -> list[int]:
    """Coefficients 0..horizon of K(t)/(1-t)^m by iterated prefix sums."""
    coeffs = list(k_poly) + [0] * max(0, horizon + 1 - len(k_poly))
    coeffs = coeffs[: horizon + 1]
    for _ in range(m):
        run = 0
        for i in range(len(coeffs)):
            run += coeffs[i]
            coeffs[i] = run
    return coeffs


# -- acceptance-line registry -------------------------------------------------

CRITERIA: dict[int, str] = {}
ACCEPTANCE: dict[int, dict] = {}


@contextmanager
def criterion(num: int, budget: float | None = None):
    """Record one acceptance criterion's outcome and wall time.

    The body's assertions decide PASS/FAIL; `budget` (seconds) is itself an
    assertion.  Results feed the per-criterion summary lines printed at the
    end of the pytest run.
    """
    desc = CRITERIA[num]
    entry = {"desc": desc, "outcome": "FAIL", "seconds": None}
    ACCEPTANCE[num] = entry
    t0 = time.perf_counter()
    try:
        yield entry
        elapsed = time.perf_counter() - t0
        entry["seconds"] = elapsed
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
            )
        entry["outcome"] = "PASS"
    except BaseException:
        if entry["seconds"] is None:
            entry["seconds"] = time.perf_counter() - t0
        raise
