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
the primitives.  ``normalize`` is one explicit-stack pass that carries the
pending wrapper down the tree: a chain of dual/con nodes collapses to keep,
dual or patch, since dual(dual(e)) cancels, con absorbs a dual inside or
outside it (the patch space of the dual is the patch space, and a patch
space is a Stone space, hence self-dual) and con is idempotent.  Each
leaf's dual or patch form is then built once, at the leaf.

Parsing tokenizes the text in one regex pass (an identifier or one other
non-space character per token) and walks the token list once with a stack
of the combinators still open, as printing walks the tree with a stack, so
neither is bounded by the recursion limit; every ``ParseError`` names the
character offset of the offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import ArityError, ParseError, SizeError, SpectopError, quote
from .ordinal import Ordinal, parse_cnf
from .poset import IDENTIFIER, FinitePoset, construct_poset


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

# What a chain of dual/con nodes above a subtree does to it: nothing, the
# Hochster dual, or the patch topology.
_KEEP, _DUAL, _PATCH = range(3)

# the primitives that a wrapper changes; omega1, cantor and towers are Stone
# spaces, hence self-dual and their own patch space
_WRAPPED = {
    (Fan, _DUAL): COFAN,
    (CoFan, _DUAL): FAN,
    (Fan, _PATCH): OMEGA_PLUS_ONE,
    (CoFan, _PATCH): OMEGA_PLUS_ONE,
}

_JOIN = object()  # on the work stack: the next two finished trees are summands


def normalize(e: SpaceExpr) -> SpaceExpr:
    """The unique dual/con-free normal form of ``e``, in one pass with an
    explicit stack that carries the pending wrapper down to the leaves;
    ``e`` itself when it is normal already."""
    if is_normal(e):
        return e
    todo: list = [(e, _KEEP)]
    done: list[SpaceExpr] = []
    while todo:
        node, wrap = todo.pop()
        if node is _JOIN:
            done[-2:] = [Sum(*done[-2:])]
            continue
        while isinstance(node, (Dual, Con)):
            if isinstance(node, Con):
                wrap = _PATCH
            elif wrap != _PATCH:
                wrap = _KEEP if wrap == _DUAL else _DUAL
            node = node.inner
        if isinstance(node, Sum):
            todo += ((_JOIN, None), (node.right, wrap), (node.left, wrap))
        elif wrap == _KEEP:
            done.append(node)
        elif isinstance(node, Fin):
            p = node.poset
            # the patch topology of a finite spectral space is discrete
            done.append(Fin(p.dual() if wrap == _DUAL else FinitePoset(p.elements, ())))
        else:
            done.append(_WRAPPED.get((type(node), wrap), node))
    return done[0]


def leaves(e: SpaceExpr) -> Iterator[SpaceExpr]:
    """The ``Sum`` leaves of ``e``, left to right, walked with an explicit
    stack; every other node, ``Dual`` and ``Con`` included, is a leaf."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            stack += (node.right, node.left)
        else:
            yield node


def is_normal(e: SpaceExpr) -> bool:
    return not any(isinstance(leaf, (Dual, Con)) for leaf in leaves(e))


# -- printing --------------------------------------------------------------

# Each name of the grammar, spelled only here: the parser reads this table
# and the printer its inverse.  A primitive maps to its one value, any other
# name to its class and the number of expressions it takes; tower and fin
# take none, since their bodies have grammars of their own.
_GRAMMAR: dict[str, object] = {
    "fan": FAN, "cofan": COFAN, "omega1": OMEGA_PLUS_ONE, "cantor": CANTOR,
    "dual": (Dual, 1), "con": (Con, 1), "sum": (Sum, 2), "tower": (Tower, 0), "fin": (Fin, 0),
}
_NAME = {entry[0] if isinstance(entry, tuple) else type(entry): name for name, entry in _GRAMMAR.items()}


def print_expr(e: SpaceExpr) -> str:
    """The text of ``e``, which parses back to ``e``.  An explicit stack holds
    text pieces and subtrees still to print; the pieces are joined once."""
    pieces: list[str] = []
    todo: list = [e]
    while todo:
        node = todo.pop()
        text = node if isinstance(node, str) else _NAME.get(type(node))
        if text is None:
            raise TypeError(f"not a space expression: {node!r}")
        if isinstance(node, Sum):
            text += "("
            todo += (")", node.right, ", ", node.left)
        elif isinstance(node, (Dual, Con)):
            text += "("
            todo += (")", node.inner)
        elif isinstance(node, Tower):
            text += f"({node.rank})"
        elif isinstance(node, Fin):
            p = node.poset
            text += "{" + ",".join(p.elements) + ";" + ",".join(map("<".join, p.covers)) + "}"
        pieces.append(text)
    return "".join(pieces)


# -- parsing -----------------------------------------------------------------


# A token is an identifier (a maximal run of ``\w``, exactly what
# ``poset.IDENTIFIER`` matches) or one other non-space character; whitespace
# only separates tokens.
_TOKEN = re.compile(r"\w+|\S")


class _Parser:
    """One left-to-right walk over one tokenization of the text.

    ``tokens`` lists the tokens, then ``""`` for the end of input, and ``i``
    indexes the next unread one.  Character offsets are needed only for an
    error or a ``tower(...)`` body, so they are computed on the first such
    need: a match object per token would cost more than the token pass.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[str] = _TOKEN.findall(text)
        self.tokens.append("")
        self.i = 0
        self._starts: list[int] | None = None

    def start(self, i: int) -> int:
        """The character offset of token ``i``; the end of input is at len(text)."""
        if self._starts is None:
            self._starts = [m.start() for m in _TOKEN.finditer(self.text)]
            self._starts.append(len(self.text))
        return self._starts[i]

    def error(self, message: str, kind: type[ParseError] = ParseError) -> ParseError:
        """An error at the next unread token."""
        return kind(message, self.start(self.i))

    def found(self) -> str:
        """The next token's first character, quoted, for an error message."""
        token = self.tokens[self.i]
        return repr(token[0] if token else "end of input")

    def expect(self, token: str):
        if self.tokens[self.i] != token:
            raise self.error(f"expected {token!r}, found {self.found()}")
        self.i += 1

    def ident(self) -> str:
        token = self.tokens[self.i]
        # a token is all word characters or a single other one, so its first
        # character decides; isalnum() or "_" is exactly \w, and cheaper than
        # a regex call per token
        first = token[:1]
        if not (first.isalnum() or first == "_"):
            raise self.error(f"expected an identifier, found {self.found()}")
        self.i += 1
        return token

    def parse(self) -> SpaceExpr:
        """The whole text, as one expression.  A stack holds the combinators
        still open, each with the arguments read so far; a finished node is
        an argument of the innermost one, which it may finish in turn."""
        open_: list[tuple[str, type, int, list]] = []
        while True:
            head_at = self.i
            head = self.ident()
            entry = _GRAMMAR.get(head)
            if entry is None:
                raise ParseError(f"unknown space {quote(head)}", self.start(head_at))
            if not isinstance(entry, tuple):
                node = entry
            elif not entry[1]:  # tower or fin: a body with its own grammar
                node = (self._tower if entry[0] is Tower else self._fin)(head_at)
            else:
                self.expect("(")
                open_.append((head, *entry, []))
                continue
            while open_:
                head, make, arity, args = open_[-1]
                args.append(node)
                more = len(args) < arity
                # the separator that is not due here means a wrong arity
                if self.tokens[self.i] == (")" if more else ","):
                    words = "one argument" if arity == 1 else "two arguments"
                    raise self.error(f"{head} takes exactly {words}", ArityError)
                if more:
                    self.expect(",")
                    break  # read the next argument
                self.expect(")")
                open_.pop()
                node = make(*args)
            else:
                if self.tokens[self.i]:
                    raise self.error(f"trailing input {self.found()}")
                return node

    def _tower(self, head_at: int) -> Tower:
        # the ordinal has its own grammar, so its body goes to parse_cnf as text
        self.expect("(")
        body_start = self.start(self.i)
        body_end = self.text.find(")", body_start)
        if body_end < 0:
            raise ParseError("unterminated tower(...)", body_start)
        try:
            rank = parse_cnf(self.text[body_start:body_end])
        except (ParseError, SizeError) as exc:
            raise type(exc)(f"bad tower rank: {exc.message}", body_start + exc.position) from None
        while self.start(self.i) <= body_end:
            self.i += 1
        try:
            return Tower(rank)
        except ValueError as exc:
            raise ParseError(str(exc), self.start(head_at)) from None

    def _fin(self, head_at: int) -> Fin:
        self.expect("{")
        labels, covers = self._fin_sliced() or self._fin_tokens()
        try:
            return Fin(construct_poset(labels, covers))
        except (SpectopError, ValueError) as exc:
            raise ParseError(f"bad finite poset: {exc}", self.start(head_at)) from None

    def _fin_sliced(self) -> tuple[list[str], list[tuple[str, str]]] | None:
        """The body of ``fin{`` read as slices of the token list, or None
        when it is not well formed; the token walk then reads it again and
        names the error, so it stays the only code that raises.

        Up to the first ";" the body must be identifiers with "," between
        them, and from there up to the next "}" runs of ``a < b`` with ","
        between them, which is exactly what the token walk accepts."""
        tokens, i = self.tokens, self.i
        try:
            semi = tokens.index(";", i)
            close = tokens.index("}", semi)
        except ValueError:
            return None
        names, body = tokens[i:semi], tokens[semi + 1:close]
        commas, lts, links = names[1::2], body[1::4], body[3::4]
        # the identifier places joined: a token is a run of \w or a single
        # other character, so one match checks them all ("_" stands in
        # when there are none)
        words = "".join(names[::2]) + "".join(body[::2])
        if not ((len(names) % 2 or not names) and (len(body) % 4 == 3 or not body)
                and commas.count(",") == len(commas) and lts.count("<") == len(lts)
                and links.count(",") == len(links) and IDENTIFIER.fullmatch(words or "_")):
            return None
        self.i = close + 1
        return names[::2], list(zip(body[::4], body[2::4]))

    def _fin_tokens(self) -> tuple[list[str], list[tuple[str, str]]]:
        """The body of ``fin{``, token by token; raises on the first token
        that the grammar does not allow."""
        tokens = self.tokens
        labels: list[str] = []
        if tokens[self.i] not in (";", "}"):
            labels.append(self.ident())
            while tokens[self.i] == ",":
                self.i += 1
                labels.append(self.ident())
        self.expect(";")
        covers: list[tuple[str, str]] = []
        if tokens[self.i] != "}":
            while True:
                a = self.ident()
                self.expect("<")
                covers.append((a, self.ident()))
                if tokens[self.i] != ",":
                    break
                self.i += 1
        self.expect("}")
        return labels, covers


def parse_expr(text: str) -> SpaceExpr:
    """Parse an expression; raises ParseError (with position) on bad input."""
    return _Parser(text).parse()
