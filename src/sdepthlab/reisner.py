"""Independent depth oracle for S/I via the Stanley-Reisner correspondence.

For a proper squarefree ideal I, the complex Δ consists of the supports of
squarefree monomials outside I.  Local-cohomology nonvanishing is read off
reduced simplicial homology of links:

    depth S/I = min over faces σ ∈ Δ of (|σ| + 1 + min{ j : H̃_j(link σ) ≠ 0 })

with H̃_{-1}({∅}) = K (the empty face counts; a facet σ contributes |σ|).
It shares with the Koszul engine only the rank kernels of `linalg`: the
complexes, their bases, their unreduced boundary matrices
(`linalg.boundary_rank`, where the Koszul walk ranks a Morse-reduced
complex) and the homology bookkeeping are its own, so it cross-checks the
Koszul walk.  It does not check the ranks themselves; tests/test_linalg.py
compares those with independent oracles.
"""
from __future__ import annotations

from .linalg import boundary_rank, check_field
from .monomials import Ideal, InputError


def stanley_reisner_complex(I: Ideal) -> tuple[int, ...]:
    """All face masks of the complex attached to a proper nonzero ideal."""
    if I.is_zero():
        raise InputError("zero ideal has no Stanley-Reisner complex here")
    if I.is_unit():
        raise InputError("unit ideal gives the void complex")
    n = I.ambient
    return tuple(m for m in range(1 << n) if not I.member_mask(m))


def link_faces(faces: frozenset[int] | set[int], sigma: int) -> list[int]:
    return [phi for phi in faces if phi & sigma == 0 and (phi | sigma) in faces]


def reduced_homology_dims(faces, field: int) -> dict[int, int]:
    """Reduced homology dimensions H̃_j, j from -1 up, of a face list."""
    by_card: dict[int, list[int]] = {}
    for phi in faces:
        by_card.setdefault(phi.bit_count(), []).append(phi)

    def _rank(card: int) -> int:
        # boundary map from faces of `card` vertices to faces of card-1
        cols = {f: k for k, f in enumerate(by_card.get(card - 1, ()))}
        return boundary_rank(by_card.get(card, []), cols, field)

    out: dict[int, int] = {}
    for card, members in by_card.items():
        j = card - 1
        out[j] = len(members) - _rank(card) - _rank(card + 1)
    return out


def reisner_depth_oracle(I: Ideal, field: int = 0) -> int:
    """Depth of S/I over the field of the given characteristic."""
    check_field(field)
    faces = stanley_reisner_complex(I)
    face_set = frozenset(faces)
    best: int | None = None
    for sigma in faces:
        card = sigma.bit_count()
        if best is not None and card >= best:
            # a face contributes at least |σ| (facet case, j = -1)
            continue
        link = link_faces(face_set, sigma)
        dims = reduced_homology_dims(link, field)
        for j in sorted(dims):
            if dims[j]:
                value = card + 1 + j
                if best is None or value < best:
                    best = value
                break
    if best is None:
        raise AssertionError("no local cohomology detected; engine bug")
    return best
