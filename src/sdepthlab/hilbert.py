"""Exact Hilbert series of I/J and the Hilbert depth hdepth1.

The (Z-graded) Hilbert series of I/J is K(t)/(1-t)^n with the K-polynomial

    K(t) = Σ_e α_e t^e (1-t)^{n-e},   α_e = |P_e| = |{u ∈ P_{I\\J} : deg u = e}|,

because the monomials of I\\J of degree k are counted by squarefree radical:
each u ∈ P contributes binom(k-1, deg u - 1) monomials with radical u.

hdepth1(H) is the largest p ≤ n such that K(t)/(1-t)^{n-p} has nonnegative
coefficients: a graded module with series H decomposes as a direct sum of
shifted polynomial subrings of dimension ≥ p iff that quotient is
coefficientwise nonnegative, so this is the Hilbert-series relaxation of the
Stanley depth.  It is decided on the layer counts alone, as in the Hilbert-depth
test of Ichim–Katthän–Moyano-Fernández, Math. Comp. 86 (2017).  The quotient is
Σ_e α_e t^e (1-t)^{p-e}; a term with e > p is t^e/(1-t)^{e-p}, nonnegative and
zero below degree e, and a term with e ≤ p is a polynomial of degree ≤ p.  So
no coefficient past degree p is negative, and hdepth1 ≥ p iff

    β_j^p = Σ_{e≤j} (-1)^{j-e} binom(p-e, j-e) α_e ≥ 0   for every j ≤ p.

The first j with β_j^{p+1} < 0 is the series' first negative coefficient at
p+1.  All arithmetic is in integers, and every check is finite.

Colon bound.  For a variable x with (I:x) ≠ (J:x),

    sdepth(I/J) ≤ sdepth((I:x)/(J:x)) ≤ hdepth1((I:x)/(J:x)),

the first inequality by Cimpoeaş's colon inequality for Stanley depth.  Sketch:
take a Stanley decomposition I/J = ⊕ u·K[Z].  The monomials w with xw in u·K[Z]
form (u/gcd(u,x))·K[Z] when x divides u or x ∈ Z, and nothing otherwise; w ↦ xw
is injective, so these spaces decompose (I:x)/(J:x) and each keeps its Z.  The
second inequality is sdepth ≤ hdepth1 for the colon pair.  The colon's layer
counts need no colon pair: a squarefree w lies in (I:x_j)\\(J:x_j) iff
w ∪ {j} ∈ P, so α'_e = a_j(e) + a_j(e+1), where a_j(e) counts the degree-e
elements of P that x_j divides.  `colon_refuter` reads them off the pair's
bitset by popcounts and runs the β check at one p.

A pair's hdepth1 reads `poset.layer_counts` and builds no series;
`hilbert_series` is only an input form of `hdepth1`.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .monomials import InputError, QuotientPair
from .poset import degree_bits, layer_counts, poset_view, variable_filter


@dataclass(frozen=True)
class HilbertSeries:
    """Series K_poly(t) / (1-t)^denom_exp; K_poly constant-term first."""

    denom_exp: int
    k_poly: tuple[int, ...]

    def coefficient(self, k: int) -> int:
        """Degree-k coefficient of the expanded series."""
        n = self.denom_exp
        return sum(
            kj * comb(k - j + n - 1, n - 1)
            for j, kj in enumerate(self.k_poly)
            if k - j >= 0
        )

    def to_json(self) -> dict:
        return {"denom_exp": self.denom_exp, "k_poly": list(self.k_poly)}


def _trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    last = -1
    for i, c in enumerate(coeffs):
        if c:
            last = i
    return coeffs[: last + 1] if last >= 0 else (0,)


def hilbert_series(Q: QuotientPair) -> HilbertSeries:
    n = Q.ambient
    # Σ_e α_e · t^e (1-t)^(n-e)
    acc = [0] * (n + 1)
    for e, c in enumerate(layer_counts(Q)):
        for i in range(n - e + 1):
            acc[e + i] += c * comb(n - e, i) * (-1) ** i
    return HilbertSeries(n, _trim(tuple(acc)))


@dataclass(frozen=True)
class HdepthResult:
    value: int
    failing_coefficient: int | None  # index witnessing failure at value+1

    def to_json(self) -> dict:
        return {"value": self.value, "failing_coefficient": self.failing_coefficient}


def _layer_counts(H: HilbertSeries) -> list[int]:
    """The layer counts α_0..α_n of H: α_e = Σ_{j≤e} K_j·binom(n-j, e-j)."""
    n, k_poly = H.denom_exp, H.k_poly
    alpha = [sum(kj * comb(n - j, e - j) for j, kj in enumerate(k_poly[: e + 1]))
             for e in range(n + 1)]
    if len(k_poly) > n + 1 or min(alpha) < 0:
        raise InputError(f"{H} is not a squarefree module series: deg K > n "
                         "or a negative layer count")
    return alpha


def _first_negative_beta(alpha: list[int], p: int) -> int | None:
    """The least j ≤ p with β_j^p < 0, or None when hdepth1 ≥ p."""
    for j in range(p + 1):
        if sum((-1) ** (j - e) * comb(p - e, j - e) * alpha[e] for e in range(j + 1)) < 0:
            return j
    return None


def hdepth1(H: HilbertSeries) -> HdepthResult:
    """hdepth1 of a squarefree module series; InputError on any other."""
    return _hdepth1_of_counts(_layer_counts(H))


def _hdepth1_of_counts(alpha: list[int]) -> HdepthResult:
    """hdepth1 of the module with layer counts α_0..α_n."""
    failing = None
    # β_0^0 = α_0 ≥ 0, so p = 0 always holds
    for p in range(len(alpha) - 1, 0, -1):
        negative = _first_negative_beta(alpha, p)
        if negative is None:
            return HdepthResult(value=p, failing_coefficient=failing)
        failing = negative
    return HdepthResult(value=0, failing_coefficient=failing)


def hdepth1_pair(Q: QuotientPair) -> HdepthResult:
    """hdepth1 of the pair, computed at most once per poset view.

    The check reads only the pair's layer counts, so the result is kept on
    the view, next to the pair's strata, and shared by `sdepth` (its search
    ceiling) and `EngineCache.hdepth`, which keeps no copy of its own.
    """
    view = poset_view(Q)
    if view.hdepth is None:
        view.hdepth = _hdepth1_of_counts(layer_counts(Q))
    return view.hdepth


def colon_refuter(Q: QuotientPair, k: int) -> int | None:
    """The least j with hdepth1((I:x_j)/(J:x_j)) < k over the nonzero colons,
    or None; an answer proves sdepth(I/J) < k by the colon bound."""
    n, bits = Q.ambient, poset_view(Q).bits
    for j in range(1, n + 1):
        on_j = bits & variable_filter(n, j)
        if not on_j:
            continue  # (I:x_j) = (J:x_j)
        # a_j(e): degree-e elements of P that x_j divides (a_j(n+1) = 0).
        # For k > n the check stops by j = n, so it reads no α'_e past n:
        # (1-t)K'(t) has degree ≤ n and coefficient sum 0, and each further
        # factor (1-t) moves its first negative coefficient no later
        a_j = [(on_j & degree_bits(n, e)).bit_count() for e in range(n + 2)]
        alpha = [a_j[e] + a_j[e + 1] for e in range(n + 1)]
        if _first_negative_beta(alpha, k) is not None:
            return j
    return None


def herzog_question(n: int) -> dict:
    """Compare hdepth1 of the maximal ideal against that of S ⊕ m."""
    from .monomials import Ideal, Monomial

    if not 1 <= n <= 12:
        raise InputError(f"n={n} outside [1, 12]")
    m_ideal = Ideal(n, [Monomial.of(i) for i in range(1, n + 1)])
    m_pair = QuotientPair(m_ideal, Ideal(n))
    a = hdepth1_pair(m_pair)
    # S = (1)/0 has every squarefree monomial: binom(n, e) in degree e
    b = _hdepth1_of_counts([c + comb(n, e) for e, c in enumerate(layer_counts(m_pair))])
    return {
        "n": n,
        "hdepth_m": a.value,
        "hdepth_s_plus_m": b.value,
        "equal": a.value == b.value,
    }
