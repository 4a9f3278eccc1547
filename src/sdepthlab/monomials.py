"""Squarefree monomials and squarefree monomial ideals.

A squarefree monomial in x_1..x_n is identified with its support, stored as a
bitmask (bit i-1 set  <=>  x_i divides the monomial).  Divisibility is mask
inclusion, lcm is union, gcd is intersection.  Ideals keep their minimal
generators as a divisibility antichain in canonical order: by degree, then
lexicographically on the sorted index tuple.  Variables are 1-indexed.
"""
from __future__ import annotations

from typing import Iterable, Iterator

MAX_AMBIENT = 16


class InputError(ValueError):
    """Structurally invalid algebraic input."""


class AmbientMismatchError(InputError):
    """Objects over different ambient variable counts were mixed."""


class EmptyQuotientError(InputError):
    """A quotient I/J with J = I (the zero module) was requested."""


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


_BITREV8 = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def canonical_key(mask: int) -> int:
    """Integer sort key of the canonical order on masks of up to 16 bits.

    Orders by degree, then lexicographically on the sorted index tuple: the
    lowest variable sits in the highest bit of the bit-reversed mask, so the
    complemented reversal sorts a set containing it first.
    """
    rev = (_BITREV8[mask & 0xFF] << 8) | _BITREV8[mask >> 8]
    return (mask.bit_count() << 16) | (0xFFFF ^ rev)


class Monomial:
    """A squarefree monomial; ``Monomial(0)`` is the unit monomial 1."""

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if mask < 0:
            raise InputError("negative support mask")
        self.mask = mask

    @classmethod
    def of(cls, *indices: int) -> "Monomial":
        for i in indices:
            if i < 1:
                raise InputError(f"variable index {i} out of range")
        return cls(mask_of(indices))

    @property
    def vars(self) -> tuple[int, ...]:
        return indices_of(self.mask)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def divides(self, other: "Monomial") -> bool:
        return self.mask & ~other.mask == 0

    def sort_key(self) -> int:
        return canonical_key(self.mask)

    def max_index(self) -> int:
        return self.mask.bit_length()

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.mask == other.mask

    def __hash__(self) -> int:
        return hash(self.mask)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "*".join(f"x{i}" for i in self.vars)

    def __repr__(self) -> str:
        return f"Monomial({self})"


def parse_monomial(text: str) -> Monomial:
    """Parse ``x2*x5`` / ``1`` syntax; whitespace around ``*`` is allowed."""
    text = text.strip()
    if text == "1":
        return Monomial(0)
    mask = 0
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor.startswith("x"):
            raise InputError(f"bad monomial factor {factor!r}")
        try:
            i = int(factor[1:])
        except ValueError:
            raise InputError(f"bad variable index in {factor!r}") from None
        if i < 1:
            raise InputError(f"variable index {i} out of range")
        if mask >> (i - 1) & 1:
            raise InputError(f"repeated variable x{i}: {text!r} is not squarefree")
        mask |= 1 << (i - 1)
    return Monomial(mask)


def _minimal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    # the divisibility-minimal masks in canonical order; a divisor sorts
    # before its multiples, so one pass in that order keeps the antichain
    out: list[int] = []
    for m in sorted(set(masks), key=canonical_key):
        if not any(g & ~m == 0 for g in out):
            out.append(m)
    return tuple(out)


class Ideal:
    """A squarefree monomial ideal given by its minimal generators.

    The zero ideal has no generators; the unit ideal is generated by 1.
    The ideal keeps only its generator masks, `gen_masks()`, in canonical
    order; `gens` builds the same generators as Monomials when read.
    """

    __slots__ = ("ambient", "_masks")

    def __init__(self, ambient: int, gens: Iterable[Monomial] = ()):
        if not 1 <= ambient <= MAX_AMBIENT:
            raise InputError(f"ambient n={ambient} out of range [1, {MAX_AMBIENT}]")
        masks = []
        for g in gens:
            if g.max_index() > ambient:
                raise InputError(f"generator {g} exceeds ambient n={ambient}")
            masks.append(g.mask)
        self._fill(ambient, masks)

    @classmethod
    def _of_masks(cls, ambient: int, masks: Iterable[int]) -> "Ideal":
        """The ideal generated by `masks`, which must lie inside x_1..x_ambient."""
        ideal = cls.__new__(cls)
        ideal._fill(ambient, masks)
        return ideal

    def _fill(self, ambient: int, masks: Iterable[int]) -> None:
        self.ambient = ambient
        self._masks = _minimal_masks(masks)

    @property
    def gens(self) -> tuple[Monomial, ...]:
        return tuple(map(Monomial, self._masks))

    def is_zero(self) -> bool:
        return not self._masks

    def is_unit(self) -> bool:
        return bool(self._masks) and self._masks[0] == 0

    def gen_masks(self) -> tuple[int, ...]:
        return self._masks

    def member(self, m: Monomial) -> bool:
        return self.member_mask(m.mask)

    def member_mask(self, mm: int) -> bool:
        return any(g & ~mm == 0 for g in self._masks)

    def contains_ideal(self, other: "Ideal") -> bool:
        mine = self._masks
        return all(any(g & ~h == 0 for g in mine) for h in other._masks)

    def _check_ambient(self, other) -> None:  # an ideal, pair or poset view
        if self.ambient != other.ambient:
            raise AmbientMismatchError(
                f"ambient mismatch: n={self.ambient} vs n={other.ambient}"
            )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Ideal)
            and self.ambient == other.ambient
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self._masks))

    def __str__(self) -> str:
        if not self._masks:
            return "0"
        return ", ".join(str(g) for g in self.gens)

    def __repr__(self) -> str:
        return f"Ideal(n={self.ambient}; {self})"


def minimalize(ambient: int, gens: Iterable[Monomial]) -> Ideal:
    return Ideal(ambient, gens)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    a._check_ambient(b)
    return Ideal._of_masks(a.ambient, [x | y for x in a._masks for y in b._masks])


def ideal_sum(a: Ideal, b: Ideal) -> Ideal:
    a._check_ambient(b)
    return Ideal._of_masks(a.ambient, a._masks + b._masks)


class QuotientPair:
    """A validated quotient module I/J of squarefree monomial ideals.

    Invariants: J ⊆ I and J ≠ I, so the poset of squarefree monomials in
    I\\J is nonempty.  A pair exists only as parsed or drawn input, and every
    engine reads it through its view (`poset.poset_view`), the normal form
    I'/J' of its poset built by `poset.view_of`, in which J' is generated in
    degrees > d.  A colon, split end or restriction of a pair is such a
    `poset.PosetView` alone.  The pair has no field: only depth depends on
    one, and `depth.depth` takes it.
    """

    __slots__ = ("ambient", "I", "J", "_key", "_poset")

    def __init__(self, I: Ideal, J: Ideal):
        I._check_ambient(J)
        if I.is_zero():
            raise InputError("I must be nonzero")
        if not I.contains_ideal(J):
            raise InputError("J is not contained in I")
        if J.contains_ideal(I):
            raise EmptyQuotientError("J = I gives the zero module")
        self.ambient = I.ambient
        self.I = I
        self.J = J
        # the pair's identity: equality and hashing
        self._key = (self.ambient, I.gen_masks(), J.gen_masks())
        self._poset = None  # PosetView, built on first use by poset.poset_view

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other) -> bool:
        return isinstance(other, QuotientPair) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"QuotientPair(n={self.ambient}; I=({self.I}); J=({self.J}))"


def colon_pair(Q, j: int):
    """(I:x_j)/(J:x_j) of a pair or view as `poset.view_of` its poset, or None
    when the colons coincide.  A squarefree w lies in it iff w ∪ {j} lies in
    P, so its poset is r | (r >> 2^(j-1)) for r the elements of P that x_j
    divides."""
    from .poset import poset_view, variable_filter, view_of  # poset imports this module

    n = Q.ambient
    if not 1 <= j <= n:
        raise InputError(f"variable index {j} out of range")
    r = poset_view(Q).bits & variable_filter(n, j)
    return view_of(n, r | (r >> (1 << (j - 1))))
