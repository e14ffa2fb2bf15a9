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
import sys
from dataclasses import dataclass

from .errors import ParseError, SizeError, quote


@dataclass(frozen=True, order=True)
class Ordinal:
    """An ordinal below w^w in Cantor normal form, ordered by ``terms``:
    CNF term tuples compare lexicographically exactly like the ordinals
    they denote, including the shorter-prefix case."""

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
# a character that is neither whitespace nor part of a token
_BAD = re.compile(r"[^\s\dw+^*]")


def parse_cnf(text: str) -> Ordinal:
    """Parse the canonical text form; reject non-canonical input.

    Errors come in a fixed precedence: a character no token reads, then a
    syntax error, then exponents that do not strictly decrease, then a zero
    coefficient.  A number too long for ``int()`` is refused with
    ``SizeError`` when it is read.
    """
    bad = _BAD.search(text)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
    if text.strip() == "0":
        return ZERO
    # [exponent, coefficient, offset of the term's first token] per term
    terms: list[list[int]] = []
    # what the next token must be: a "term", the nat after "^" or "*", or
    # (None) one of the operators in `follow` or the end
    need, follow = "term", ""
    try:
        for m in _TOKEN.finditer(text):
            nat, tok, at = m.group(1), m.group(m.lastindex), m.start(m.lastindex)
            if need == "term":
                if nat is not None:
                    terms.append([0, int(nat), at])
                    follow = "+"
                elif tok == "w":
                    terms.append([1, 1, at])
                    follow = "^*+"
                else:
                    raise ParseError(f"expected a term, found {tok}", at)
                need = None
            elif need:
                if nat is None:
                    raise ParseError(f"expected nat, found {tok}", at)
                terms[-1][0 if need == "^" else 1] = int(nat)
                need, follow = None, "*+" if need == "^" else "+"
            elif tok in follow:
                need = "term" if tok == "+" else tok
            else:
                raise ParseError(f"trailing input {quote(tok)}", at)
    except ValueError:
        # int() refuses a literal only for having too many digits
        raise SizeError(f"a number of more than {sys.get_int_max_str_digits()} digits", at) from None
    if not terms:
        raise ParseError("empty ordinal", 0)
    if need:
        raise ParseError(f"expected {'a term' if need == 'term' else 'nat'}, found end", len(text))

    for (e1, _, _), (e2, _, start) in zip(terms, terms[1:]):
        if e2 >= e1:
            raise ParseError("exponents must strictly decrease", start)
    for _, c, start in terms:
        if c == 0:
            raise ParseError("zero coefficient is not canonical", start)
    return Ordinal(tuple((e, c) for e, c, _ in terms))
