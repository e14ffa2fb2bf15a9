"""Ordinals below w^w in Cantor normal form.

An ordinal is kept as a tuple of ``(exponent, coefficient)`` pairs with
strictly decreasing natural exponents and coefficients >= 1; the empty
tuple is 0.  This is enough to serve as the value type for
Cantor-Bendixson ranks of everything the expression language can denote.

Text form (whitespace insignificant)::

    ordinal := "0" | term ("+" term)*
    term    := "w" ("^" nat)? ("*" nat)?  |  nat

Exponents must strictly decrease left to right and coefficients must be
positive, i.e. only canonical forms parse.  ``w^1`` and ``w^0*n`` are
accepted as spellings of ``w`` and ``n``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import total_ordering

from .errors import ParseError


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """An ordinal below w^w in Cantor normal form."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        prev = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise ValueError(f"bad CNF term ({exp}, {coeff})")
            if prev is not None and exp >= prev:
                raise ValueError("CNF exponents must strictly decrease")
            prev = exp

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        return cls(() if n == 0 else ((0, n),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and self.terms[-1][0] != 0

    def __lt__(self, other: "Ordinal") -> bool:
        # CNF term tuples compare lexicographically exactly like the
        # ordinals they denote, including the shorter-prefix case.
        return self.terms < other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
                continue
            head = "w" if exp == 1 else f"w^{exp}"
            parts.append(head if coeff == 1 else f"{head}*{coeff}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Ordinal({self})"


ZERO = Ordinal()


_TOKEN = re.compile(r"\s*(?:(\d+)|(w)|([+^*]))")


def parse_cnf(text: str) -> Ordinal:
    """Parse the canonical text form; reject non-canonical input."""
    pos, end = 0, len(text)
    tokens: list[tuple[str, str, int]] = []
    while pos < end:
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1) is not None:
            tokens.append(("nat", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("w", "w", m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()

    if not tokens:
        raise ParseError("empty ordinal", 0)

    i = 0

    def peek():
        return tokens[i] if i < len(tokens) else ("eof", "", end)

    def take(kind, value=None):
        nonlocal i
        tok = peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(f"expected {value or kind}, found {tok[1] or 'end'}", tok[2])
        i += 1
        return tok

    def term() -> tuple[int, int]:
        tok = peek()
        if tok[0] == "nat":
            take("nat")
            return 0, int(tok[1])
        if tok[0] == "w":
            take("w")
            exp = 1
            if peek()[1] == "^":
                take("op", "^")
                exp = int(take("nat")[1])
            coeff = 1
            if peek()[1] == "*":
                take("op", "*")
                coeff = int(take("nat")[1])
            return exp, coeff
        raise ParseError(f"expected a term, found {tok[1] or 'end'}", tok[2])

    first = peek()
    if first[0] == "nat" and first[1] == "0" and len(tokens) == 1:
        return ZERO

    # each term with the offset of its first token, for the canonicity errors
    starts = [peek()[2]]
    terms = [term()]
    while peek()[1] == "+":
        take("op", "+")
        starts.append(peek()[2])
        terms.append(term())
    tok = peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])

    for (e1, _), (e2, _), start in zip(terms, terms[1:], starts[1:]):
        if e2 >= e1:
            raise ParseError("exponents must strictly decrease", start)
    for (_, c), start in zip(terms, starts):
        if c == 0:
            raise ParseError("zero coefficient is not canonical", start)
    return Ordinal(tuple(terms))
