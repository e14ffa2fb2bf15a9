"""Expression language for symbolic spectral spaces.

Grammar (whitespace insignificant)::

    expr   := "fan" | "cofan" | "omega1" | "cantor"
            | "tower(" ordinal ")"
            | "fin{" labels ";" covers "}"
            | "dual(" expr ")" | "con(" expr ")"
            | "sum(" expr "," expr ")"
    labels := ident ("," ident)*          (possibly empty)
    covers := ident "<" ident ("," ...)*  (possibly empty)

Primitives
----------
fan
    Countably many isolated points below a single closed point whose only
    neighborhood is the whole space.
cofan
    The Hochster dual of fan: one generic point whose open sets are the
    cofinite sets containing it, the shape of a one-dimensional
    noetherian-domain spectrum.
omega1
    A convergent sequence, i.e. the one-point compactification of a
    countable discrete set; it is the patch space of both fan and cofan.
cantor
    The Cantor set as a Stone space.
tower(a)
    Scaffolding for exercising ordinal-valued ranks: a compact scattered
    Stone space of Cantor-Bendixson rank exactly a (one model for
    a = b + 1 is the ordinal interval [0, w^b]; tower(0) is empty).  A
    nonempty compact scattered space always has successor rank, so the
    argument must be 0 or a successor ordinal.

Every expressible object denotes a spectral space, which keeps dual() and
con() total.  Normal forms contain no dual or con nodes at all: both
push through sums, act on finite posets directly and have fixed values on
the primitives, and dual(dual(e)) cancels while con is idempotent and
absorbs an inner dual (the patch topology of the dual is the patch
topology).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArityError, ParseError, SpectopError
from .ordinal import Ordinal, parse_cnf
from .poset import FinitePoset, construct_poset


@dataclass(frozen=True)
class Fan:
    pass


@dataclass(frozen=True)
class CoFan:
    pass


@dataclass(frozen=True)
class OmegaPlusOne:
    pass


@dataclass(frozen=True)
class Cantor:
    pass


@dataclass(frozen=True)
class Tower:
    rank: Ordinal

    def __post_init__(self):
        if self.rank.is_limit:
            raise ValueError(
                "tower rank must be 0 or a successor ordinal; a nonempty "
                "compact scattered space cannot have limit rank"
            )


@dataclass(frozen=True)
class Fin:
    poset: FinitePoset


@dataclass(frozen=True)
class Dual:
    inner: "SpaceExpr"


@dataclass(frozen=True)
class Con:
    inner: "SpaceExpr"


@dataclass(frozen=True)
class Sum:
    left: "SpaceExpr"
    right: "SpaceExpr"


SpaceExpr = Fan | CoFan | OmegaPlusOne | Cantor | Tower | Fin | Dual | Con | Sum

FAN = Fan()
COFAN = CoFan()
OMEGA_PLUS_ONE = OmegaPlusOne()
CANTOR = Cantor()


# -- normalization -------------------------------------------------------


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Innermost-first rewriting to the unique dual/con-free normal form."""
    match e:
        case Sum(left, right):
            return Sum(normalize(left), normalize(right))
        case Dual(inner):
            return _dual_nf(normalize(inner))
        case Con(inner):
            return _con_nf(normalize(inner))
        case _:
            return e


def _dual_nf(n: SpaceExpr) -> SpaceExpr:
    match n:
        case Fin(p):
            return Fin(p.dual())
        case Fan():
            return COFAN
        case CoFan():
            return FAN
        case Sum(left, right):
            return Sum(_dual_nf(left), _dual_nf(right))
        case _:
            # omega1, cantor and towers are Stone spaces, hence self-dual
            return n


def _con_nf(n: SpaceExpr) -> SpaceExpr:
    match n:
        case Fin(p):
            # the patch topology of a finite spectral space is discrete
            return Fin(construct_poset(p.elements, []))
        case Fan() | CoFan():
            return OMEGA_PLUS_ONE
        case Sum(left, right):
            return Sum(_con_nf(left), _con_nf(right))
        case _:
            # Stone spaces already carry their patch topology
            return n


def is_normal(e: SpaceExpr) -> bool:
    match e:
        case Dual(_) | Con(_):
            return False
        case Sum(left, right):
            return is_normal(left) and is_normal(right)
        case _:
            return True


# -- printing --------------------------------------------------------------


def print_expr(e: SpaceExpr) -> str:
    match e:
        case Fan():
            return "fan"
        case CoFan():
            return "cofan"
        case OmegaPlusOne():
            return "omega1"
        case Cantor():
            return "cantor"
        case Tower(rank):
            return f"tower({rank})"
        case Fin(p):
            labels = ",".join(p.elements)
            covers = ",".join(f"{a}<{b}" for a, b in p.covers)
            return "fin{" + labels + ";" + covers + "}"
        case Dual(inner):
            return f"dual({print_expr(inner)})"
        case Con(inner):
            return f"con({print_expr(inner)})"
        case Sum(left, right):
            return f"sum({print_expr(left)}, {print_expr(right)})"
    raise TypeError(f"not a space expression: {e!r}")


# -- parsing -----------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise ParseError(f"expected {ch!r}, found {found!r}", self.pos)
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        if self.pos == start:
            found = self.text[start] if start < len(self.text) else "end of input"
            raise ParseError(f"expected an identifier, found {found!r}", start)
        return self.text[start:self.pos]

    def expr(self) -> SpaceExpr:
        self.skip_ws()
        start = self.pos
        head = self.ident()
        if head == "fan":
            return FAN
        if head == "cofan":
            return COFAN
        if head == "omega1":
            return OMEGA_PLUS_ONE
        if head == "cantor":
            return CANTOR
        if head == "tower":
            return self._tower(start)
        if head == "fin":
            return self._fin(start)
        if head in ("dual", "con"):
            self.expect("(")
            inner = self.expr()
            if self.peek() == ",":
                raise ArityError(f"{head} takes exactly one argument", self.pos)
            self.expect(")")
            return Dual(inner) if head == "dual" else Con(inner)
        if head == "sum":
            self.expect("(")
            left = self.expr()
            if self.peek() == ")":
                raise ArityError("sum takes exactly two arguments", self.pos)
            self.expect(",")
            right = self.expr()
            if self.peek() == ",":
                raise ArityError("sum takes exactly two arguments", self.pos)
            self.expect(")")
            return Sum(left, right)
        raise ParseError(f"unknown space {head!r}", start)

    def _tower(self, start: int) -> Tower:
        self.expect("(")
        self.skip_ws()
        depth_end = self.text.find(")", self.pos)
        if depth_end < 0:
            raise ParseError("unterminated tower(...)", self.pos)
        body = self.text[self.pos:depth_end]
        try:
            rank = parse_cnf(body)
        except ParseError as exc:
            raise ParseError(f"bad tower rank: {exc.args[0]}", self.pos + exc.position) from None
        self.pos = depth_end + 1
        try:
            return Tower(rank)
        except ValueError as exc:
            raise ParseError(str(exc), start) from None

    def _fin(self, start: int) -> Fin:
        self.expect("{")
        labels: list[str] = []
        if self.peek() not in (";", "}"):
            labels.append(self.ident())
            while self.peek() == ",":
                self.expect(",")
                labels.append(self.ident())
        self.expect(";")
        covers: list[tuple[str, str]] = []
        if self.peek() != "}":
            covers.append(self._cover())
            while self.peek() == ",":
                self.expect(",")
                covers.append(self._cover())
        self.expect("}")
        try:
            return Fin(construct_poset(labels, covers))
        except (SpectopError, ValueError) as exc:
            raise ParseError(f"bad finite poset: {exc}", start) from None

    def _cover(self) -> tuple[str, str]:
        a = self.ident()
        self.expect("<")
        b = self.ident()
        return a, b


def parse_expr(text: str) -> SpaceExpr:
    """Parse an expression; raises ParseError (with position) on bad input."""
    p = _Parser(text)
    e = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError(f"trailing input {text[p.pos]!r}", p.pos)
    return e
