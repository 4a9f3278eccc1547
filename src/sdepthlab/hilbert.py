"""Exact Hilbert series of I/J and the Hilbert depth hdepth1.

The (Z-graded) Hilbert series of I/J is K(t)/(1-t)^n with the K-polynomial

    K(t) = Σ_{u ∈ P_{I\\J}} t^{deg u} (1-t)^{n - deg u},

because the monomials of I\\J of degree k are counted by squarefree radical:
each u ∈ P contributes binom(k-1, deg u - 1) monomials with radical u.

hdepth1(H) is the largest p ≤ n such that K(t)/(1-t)^{n-p} has nonnegative
coefficients: a graded module with series H decomposes as a direct sum of
shifted polynomial subrings of dimension ≥ p iff that quotient is
coefficientwise nonnegative, so this is the Hilbert-series relaxation of the
Stanley depth.  All arithmetic is exact (integers and rationals).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .monomials import InputError, QuotientPair
from .poset import poset_view


@dataclass(frozen=True)
class HilbertSeries:
    """Series K_poly(t) / (1-t)^denom_exp; K_poly constant-term first."""

    denom_exp: int
    k_poly: tuple[int, ...]

    def __add__(self, other: "HilbertSeries") -> "HilbertSeries":
        if self.denom_exp != other.denom_exp:
            raise InputError(
                f"denominator exponent mismatch: {self.denom_exp} vs {other.denom_exp}"
            )
        a, b = self.k_poly, other.k_poly
        width = max(len(a), len(b))
        a = a + (0,) * (width - len(a))
        b = b + (0,) * (width - len(b))
        return HilbertSeries(self.denom_exp, _trim(tuple(x + y for x, y in zip(a, b))))

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
    view = poset_view(Q)
    # Σ_e |layer e| · t^e (1-t)^(n-e)
    acc = [0] * (n + 1)
    for e in range(view.d, n + 1):
        c = len(view.layer(e))
        for i in range(n - e + 1):
            acc[e + i] += c * comb(n - e, i) * (-1) ** i
    return HilbertSeries(n, _trim(tuple(acc)))


@dataclass(frozen=True)
class HdepthResult:
    value: int
    failing_coefficient: int | None  # index witnessing failure at value+1

    def to_json(self) -> dict:
        return {"value": self.value, "failing_coefficient": self.failing_coefficient}


def _nonneg_quotient(k_poly: tuple[int, ...], m: int) -> int | None:
    """None if K(t)/(1-t)^m is coefficientwise ≥ 0, else a failing index.

    Head (k ≤ deg K): m rounds of prefix sums.  Tail (k > deg K): the
    coefficient is the polynomial P(k) = Σ_j K_j·binom(k-j+m-1, m-1) of
    degree ≤ m-1; its sign stabilizes to the sign of the leading coefficient
    beyond the Cauchy root bound, so finitely many integer checks decide.
    """
    coeffs = list(k_poly)
    D = len(coeffs) - 1
    cur = coeffs[:]
    for _ in range(m):
        run = 0
        for i in range(len(cur)):
            run += cur[i]
            cur[i] = run
    for k, c in enumerate(cur):
        if c < 0:
            return k
    if m == 0:
        return None

    # exact tail polynomial in k (degree ≤ m-1), coefficients over Q
    tail = [Fraction(0)] * m
    for j, kj in enumerate(coeffs):
        if not kj:
            continue
        # binom(k-j+m-1, m-1) = Π_{i=1}^{m-1} (k-j+m-1-(i-1)) / (m-1)!
        poly = [Fraction(1)]
        for i in range(m - 1):
            shift = Fraction(m - 1 - j - i)
            poly = _poly_mul_linear(poly, shift)
        fact = 1
        for i in range(1, m):
            fact *= i
        for i, c in enumerate(poly):
            tail[i] += kj * c / fact
    while len(tail) > 1 and tail[-1] == 0:
        tail.pop()
    if len(tail) == 1 and tail[0] == 0:
        return None
    lead = tail[-1]
    if len(tail) == 1:
        return None if lead >= 0 else D + 1
    bound = 1 + max(abs(c / lead) for c in tail[:-1])
    hi = max(D + 1, int(bound) + 1)
    for k in range(D + 1, hi + 1):
        val = sum(c * k**i for i, c in enumerate(tail))
        if val < 0:
            return k
    if lead < 0:
        return hi + 1
    return None


def _poly_mul_linear(poly: list[Fraction], shift: Fraction) -> list[Fraction]:
    # poly(k) * (k + shift)
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += c
        out[i] += c * shift
    return out


def hdepth1(H: HilbertSeries) -> HdepthResult:
    n = H.denom_exp
    failing = None
    for p in range(n, -1, -1):
        idx = _nonneg_quotient(H.k_poly, n - p)
        if idx is None:
            return HdepthResult(value=p, failing_coefficient=failing)
        failing = idx
    raise InputError("series has a negative coefficient; not a module series")


def hdepth1_pair(Q: QuotientPair) -> HdepthResult:
    """hdepth1 of the pair's series, computed at most once per poset view.

    The series reads only the view's layers and n, so the result is kept on
    the view and shared by `sdepth` (its search ceiling) and `EngineCache`.
    """
    view = poset_view(Q)
    if view.hdepth is None:
        view.hdepth = hdepth1(hilbert_series(Q))
    return view.hdepth


def herzog_question(n: int) -> dict:
    """Compare hdepth1 of the maximal ideal against that of S ⊕ m."""
    from .monomials import Ideal, Monomial

    if not 1 <= n <= 12:
        raise InputError(f"n={n} outside [1, 12]")
    m_ideal = Ideal(n, [Monomial.of(i) for i in range(1, n + 1)])
    m_pair = QuotientPair(m_ideal, Ideal(n))
    h_m = hilbert_series(m_pair)
    s_series = HilbertSeries(n, (1,))
    h_sm = s_series + h_m
    a = hdepth1(h_m)
    b = hdepth1(h_sm)
    return {
        "n": n,
        "hdepth_m": a.value,
        "hdepth_s_plus_m": b.value,
        "equal": a.value == b.value,
    }
