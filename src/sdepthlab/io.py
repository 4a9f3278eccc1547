"""Plain-text input format for quotient pairs.

A pair file holds three data lines in any order, plus blank lines and `#`
comments::

    n=6
    I = x1*x2, x3
    J = x1*x2*x3
    # J = 0 denotes the zero ideal

Parsing reports syntax errors with 1-based line and column positions;
semantic errors (J not inside I, equal ideals, n out of range) come from
pair construction and are re-raised unchanged.
"""
from __future__ import annotations

from .monomials import (
    MAX_AMBIENT,
    Ideal,
    InputError,
    Monomial,
    QuotientPair,
    parse_monomial,
)


class ParseError(InputError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _parse_gen_list(text: str, line_no: int, col0: int) -> list[Monomial] | None:
    """Comma-separated monomials; a bare ``0`` is the zero ideal (None)."""
    if text.strip() == "0":
        return None
    gens = []
    col = col0
    for chunk in text.split(","):
        stripped = chunk.strip()
        at = col + (len(chunk) - len(chunk.lstrip()))
        if not stripped:
            raise ParseError("empty monomial entry", line_no, at)
        try:
            gens.append(parse_monomial(stripped))
        except InputError as exc:
            raise ParseError(str(exc), line_no, at) from None
        col += len(chunk) + 1
    return gens


def parse_input(text: str) -> QuotientPair:
    """Read the ``n= / I = / J =`` file format into a validated pair."""
    n: int | None = None
    raw: dict[str, tuple[str, int, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" not in body:
            raise ParseError(
                "expected `n=<int>`, `I = ...`, or `J = ...`",
                line_no,
                len(line) - len(line.lstrip()) + 1,
            )
        key, _, value = body.partition("=")
        name = key.strip()
        col0 = body.index("=") + 2
        if name == "n":
            if n is not None:
                raise ParseError("duplicate n= line", line_no, 1)
            try:
                n = int(value.strip())
            except ValueError:
                raise ParseError(
                    f"bad integer {value.strip()!r}", line_no, col0
                ) from None
            if not 1 <= n <= MAX_AMBIENT:
                raise ParseError(
                    f"n={n} out of range [1, {MAX_AMBIENT}]", line_no, col0
                )
        elif name in ("I", "J"):
            if name in raw:
                raise ParseError(f"duplicate {name} = line", line_no, 1)
            raw[name] = (value, line_no, col0)
        else:
            raise ParseError(f"unknown key {name!r}", line_no, 1)

    if n is None:
        raise ParseError("missing n= line", 1, 1)
    for name in ("I", "J"):
        if name not in raw:
            raise ParseError(f"missing {name} = line", 1, 1)

    ideals = {}
    for name in ("I", "J"):
        value, line_no, col0 = raw[name]
        gens = _parse_gen_list(value, line_no, col0)
        try:
            ideals[name] = Ideal(n, gens or ())
        except InputError as exc:
            raise ParseError(str(exc), line_no, col0) from None
    return QuotientPair(ideals["I"], ideals["J"])


def serialize_pair(Q: QuotientPair) -> str:
    """Canonical text form; `parse_input` round-trips it to an equal pair."""
    def gens(ideal: Ideal) -> str:
        if ideal.is_zero():
            return "0"
        return ", ".join(str(g) for g in ideal.gens)

    return f"n={Q.ambient}\nI = {gens(Q.I)}\nJ = {gens(Q.J)}\n"


def load_pair(path: str) -> QuotientPair:
    with open(path, encoding="utf-8") as fh:
        return parse_input(fh.read())
