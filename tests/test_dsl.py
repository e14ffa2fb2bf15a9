import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

from spectop import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, ArityError, Con,
                     Dual, Fin, Ltg, Ordinal, ParseError, Sum, Tower, analyze,
                     construct_poset, evaluate, is_normal, leaves, normalize,
                     parse_cnf, parse_expr, print_expr)
from spectop.dsl import _Parser
from spectop.errors import SpectopError

from conftest import posets, space_exprs


# -- parsing ------------------------------------------------------------------


def test_parse_primitives():
    assert parse_expr("fan") == FAN
    assert parse_expr("cofan") == COFAN
    assert parse_expr("omega1") == OMEGA_PLUS_ONE
    assert parse_expr("cantor") == CANTOR


def test_parse_combinators():
    assert parse_expr("dual(fan)") == Dual(FAN)
    assert parse_expr("con(sum(fan, cantor))") == Con(Sum(FAN, CANTOR))
    assert parse_expr("sum(dual(fan), con(cofan))") == Sum(Dual(FAN), Con(COFAN))


def test_parse_fin():
    e = parse_expr("fin{a,b;a<b}")
    assert isinstance(e, Fin)
    assert e.poset.elements == ("a", "b")
    assert e.poset.covers == (("a", "b"),)
    assert parse_expr("fin{a;}") == Fin(construct_poset(["a"], []))
    assert parse_expr("fin{;}") == Fin(construct_poset([], []))


def test_parse_tower():
    assert parse_expr("tower(0)") == Tower(Ordinal())
    assert parse_expr("tower(3)") == Tower(Ordinal.from_int(3))
    assert parse_expr("tower(w + 1)") == Tower(parse_cnf("w + 1"))
    assert parse_expr("tower(w^2*2 + 3)") == Tower(parse_cnf("w^2*2 + 3"))


def test_parse_tower_rejects_limit_rank():
    with pytest.raises(ParseError):
        parse_expr("tower(w)")
    with pytest.raises(ParseError):
        parse_expr("tower(w^2 + w)")


def test_parse_whitespace_insignificant():
    assert parse_expr("  dual ( fan ) ") == Dual(FAN)
    assert parse_expr("fin{ a , b ; a < b }") == parse_expr("fin{a,b;a<b}")
    assert parse_expr("sum( fan ,cofan )") == Sum(FAN, COFAN)


@pytest.mark.parametrize(
    "text",
    ["dual(", "blah", "", "fan cofan", "fin{a,b}", "fin{a;a<z}",
     "fin{a,b;b<a,a<b}", "tower()", "dual()", "sum(,fan)"],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_expr(text)


def test_parse_arity_errors():
    with pytest.raises(ArityError):
        parse_expr("sum(fan)")
    with pytest.raises(ArityError):
        parse_expr("dual(fan, fan)")
    with pytest.raises(ArityError):
        parse_expr("sum(fan, fan, fan)")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("sum(fan, ")
    assert exc.value.position >= 5


_LIMIT_RANK = ("tower rank must be 0 or a successor ordinal; a nonempty compact "
               "scattered space cannot have limit rank")

# (input, exception type, message as printed, position)
PARSE_ERRORS = [
    # the malformed requests of the verdicts benchmark
    ("sum(fan, cofan", ParseError, "expected ')', found 'end of input' (at position 14)", 14),
    ("dual(fan", ParseError, "expected ')', found 'end of input' (at position 8)", 8),
    ("fan)", ParseError, "trailing input ')' (at position 3)", 3),
    ("fann", ParseError, "unknown space 'fann' (at position 0)", 0),
    ("sum(fan, foo)", ParseError, "unknown space 'foo' (at position 9)", 9),
    ("sum(fan)", ArityError, "sum takes exactly two arguments (at position 7)", 7),
    ("dual(fan, cofan)", ArityError, "dual takes exactly one argument (at position 8)", 8),
    ("sum(fan, fan, fan)", ArityError, "sum takes exactly two arguments (at position 12)", 12),
    ("fin{a,b;a<c}", ParseError, "bad finite poset: unknown element 'c' (at position 0)", 0),
    ("fin{a,a;}", ParseError, "bad finite poset: labels must be distinct (at position 0)", 0),
    ("fin{a,b;a<b,b<a}", ParseError,
     "bad finite poset: covering relation contains a cycle (at position 0)", 0),
    ("fin{a;a<a}", ParseError, "bad finite poset: self-loop on 'a' (at position 0)", 0),
    ("fin{a,b;a<}", ParseError, "expected an identifier, found '}' (at position 10)", 10),
    ("fin{a b;}", ParseError, "expected ';', found 'b' (at position 6)", 6),
    ("tower(w)", ParseError, f"{_LIMIT_RANK} (at position 0)", 0),
    ("tower(x)", ParseError, "bad tower rank: unexpected character 'x' (at position 6)", 6),
    ("tower(3", ParseError, "unterminated tower(...) (at position 6)", 6),
    ("tower(w*0)", ParseError, "bad tower rank: zero coefficient is not canonical (at position 6)", 6),
    ("", ParseError, "expected an identifier, found 'end of input' (at position 0)", 0),
    ("   ", ParseError, "expected an identifier, found 'end of input' (at position 3)", 3),
    ("con()", ParseError, "expected an identifier, found ')' (at position 4)", 4),
    ("@perfbench/missing-poset.json", ParseError,
     "expected an identifier, found '@' (at position 0)", 0),
    # arity
    ("dual(fan, fan)", ArityError, "dual takes exactly one argument (at position 8)", 8),
    # unknown heads
    ("blah", ParseError, "unknown space 'blah' (at position 0)", 0),
    ("dual(x)", ParseError, "unknown space 'x' (at position 5)", 5),
    ("Fan", ParseError, "unknown space 'Fan' (at position 0)", 0),
    ("dual(é)", ParseError, "unknown space 'é' (at position 5)", 5),
    # a missing ")", "}", ";", "<", "(", "{" or identifier
    ("dual(fan cofan)", ParseError, "expected ')', found 'c' (at position 9)", 9),
    ("sum(fan cofan)", ParseError, "expected ',', found 'c' (at position 8)", 8),
    ("fin{a,b;a<b", ParseError, "expected '}', found 'end of input' (at position 11)", 11),
    ("fin{a,b;a<b;}", ParseError, "expected '}', found ';' (at position 11)", 11),
    ("fin{a;", ParseError, "expected an identifier, found 'end of input' (at position 6)", 6),
    ("fin{a,b}", ParseError, "expected ';', found '}' (at position 7)", 7),
    ("fin{a,b;a b}", ParseError, "expected '<', found 'b' (at position 10)", 10),
    ("fin a,b;}", ParseError, "expected '{', found 'a' (at position 4)", 4),
    ("fin{a,;}", ParseError, "expected an identifier, found ';' (at position 6)", 6),
    ("fin{a,b;a<b,}", ParseError, "expected an identifier, found '}' (at position 12)", 12),
    ("dual fan", ParseError, "expected '(', found 'f' (at position 5)", 5),
    ("sum(fan,", ParseError, "expected an identifier, found 'end of input' (at position 8)", 8),
    ("sum(, fan)", ParseError, "expected an identifier, found ',' (at position 4)", 4),
    # trailing input
    ("fan cofan", ParseError, "trailing input 'c' (at position 4)", 4),
    ("fan,", ParseError, "trailing input ',' (at position 3)", 3),
    ("sum(fan, cofan))", ParseError, "trailing input ')' (at position 15)", 15),
    ("dual(fan) x", ParseError, "trailing input 'x' (at position 10)", 10),
    ("fin{é,x;é<x} x", ParseError, "trailing input 'x' (at position 13)", 13),
    # tower ranks: only the absolute position is printed
    ("tower(w^w+1)", ParseError, "bad tower rank: expected nat, found w (at position 8)", 8),
    ("tower( w^w + 1 )", ParseError, "bad tower rank: expected nat, found w (at position 9)", 9),
    ("tower()", ParseError, "bad tower rank: empty ordinal (at position 6)", 6),
    ("tower(2 + w)", ParseError, "bad tower rank: exponents must strictly decrease (at position 10)", 10),
    ("tower(w^2 + 3 + w)", ParseError, "bad tower rank: exponents must strictly decrease (at position 16)", 16),
    ("tower(w^2 + w*0 + 1)", ParseError, "bad tower rank: zero coefficient is not canonical (at position 12)", 12),
    ("tower(w^2 + w)", ParseError, f"{_LIMIT_RANK} (at position 0)", 0),
    ("tower", ParseError, "expected '(', found 'end of input' (at position 5)", 5),
    ("tower 3", ParseError, "expected '(', found '3' (at position 6)", 6),
    # leading and trailing whitespace, including non-ASCII whitespace
    ("  blah", ParseError, "unknown space 'blah' (at position 2)", 2),
    ("fan  x", ParseError, "trailing input 'x' (at position 5)", 5),
    ("fan cofan", ParseError, "trailing input 'c' (at position 4)", 4),
    ("\n", ParseError, "expected an identifier, found 'end of input' (at position 1)", 1),
    ("  dual( fan ", ParseError, "expected ')', found 'end of input' (at position 12)", 12),
    (" sum(fan ,  fan ,fan)", ArityError, "sum takes exactly two arguments (at position 16)", 16),
    ("  sum( fan )  ", ArityError, "sum takes exactly two arguments (at position 11)", 11),
    ("\tfin{ a ; a < z }\n", ParseError, "bad finite poset: unknown element 'z' (at position 1)", 1),
    ("  tower( w )  ", ParseError, f"{_LIMIT_RANK} (at position 2)", 2),
]


@pytest.mark.parametrize("text,kind,message,position", PARSE_ERRORS)
def test_parse_error_type_message_and_position(text, kind, message, position):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert type(exc.value) is kind
    assert str(exc.value) == message
    assert exc.value.position == position


# -- printing -----------------------------------------------------------------


def test_print_examples():
    assert print_expr(Dual(FAN)) == "dual(fan)"
    assert print_expr(Fin(construct_poset(["a"], []))) == "fin{a;}"
    assert print_expr(Sum(FAN, FAN)) == "sum(fan, fan)"
    assert print_expr(Tower(parse_cnf("w + 1"))) == "tower(w + 1)"
    assert print_expr(Con(Fin(construct_poset(["a", "b"], [("a", "b")])))) == "con(fin{a,b;a<b})"


@given(space_exprs())
def test_print_parse_roundtrip(e):
    assert parse_expr(print_expr(e)) == e


@given(posets())
def test_print_parse_roundtrip_finite(p):
    assert parse_expr(print_expr(Fin(p))) == Fin(p)


# -- normalization ---------------------------------------------------------------


def test_normalize_rule_instances():
    assert normalize(Dual(Dual(FAN))) == FAN
    assert normalize(Con(Con(CANTOR))) == CANTOR
    assert normalize(Con(Dual(FAN))) == OMEGA_PLUS_ONE
    assert normalize(Dual(FAN)) == COFAN
    assert normalize(Dual(COFAN)) == FAN
    assert normalize(Con(FAN)) == OMEGA_PLUS_ONE
    assert normalize(Con(COFAN)) == OMEGA_PLUS_ONE
    assert normalize(Dual(OMEGA_PLUS_ONE)) == OMEGA_PLUS_ONE
    assert normalize(Dual(CANTOR)) == CANTOR
    tower = Tower(Ordinal.from_int(5))
    assert normalize(Dual(tower)) == tower
    assert normalize(Con(tower)) == tower


def test_normalize_distributes_over_sum():
    assert normalize(Dual(Sum(FAN, CANTOR))) == Sum(COFAN, CANTOR)
    assert normalize(Con(Sum(FAN, COFAN))) == Sum(OMEGA_PLUS_ONE, OMEGA_PLUS_ONE)


def test_normalize_fin_rules():
    two_chain = construct_poset(["a", "b"], [("a", "b")])
    assert normalize(Dual(Fin(two_chain))) == Fin(two_chain.dual())
    assert normalize(Con(Fin(two_chain))) == Fin(construct_poset(["a", "b"], []))


@given(space_exprs())
def test_normalize_produces_normal_forms(e):
    assert is_normal(normalize(e))


@given(space_exprs())
def test_normalize_idempotent(e):
    nf = normalize(e)
    assert normalize(nf) is nf


@given(space_exprs())
def test_self_duality_law(e):
    assert normalize(Con(Dual(e))) == normalize(Con(e))


@given(space_exprs())
def test_dual_involution_law(e):
    assert normalize(Dual(Dual(e))) == normalize(e)


def test_leaves_left_to_right():
    e = Sum(Sum(FAN, Dual(COFAN)), Sum(CANTOR, Con(Sum(FAN, FAN))))
    assert list(leaves(e)) == [FAN, Dual(COFAN), CANTOR, Con(Sum(FAN, FAN))]
    assert list(leaves(Dual(Sum(FAN, FAN)))) == [Dual(Sum(FAN, FAN))]
    assert not is_normal(e) and not is_normal(Con(FAN))
    assert is_normal(Sum(FAN, Sum(CANTOR, FAN)))


def _wrapped(e, wrappers):
    for wrap in wrappers:
        e = wrap(e)
    return e


_TWO_CHAIN = construct_poset(["a", "b"], [("a", "b")])
_DEEP = 100_000


@pytest.mark.parametrize("wrappers,nf", [
    # an even number of duals cancels
    ([Dual] * _DEEP, Fin(_TWO_CHAIN)),
    ([Dual] * (_DEEP - 1), Fin(_TWO_CHAIN.dual())),
    # one con anywhere in the chain gives the patch space
    ([Dual] * (_DEEP // 2) + [Con] + [Dual] * (_DEEP // 2 - 1),
     Fin(construct_poset(["a", "b"], []))),
])
def test_deep_dual_con_chain_needs_no_recursion(wrappers, nf):
    e = _wrapped(Fin(_TWO_CHAIN), wrappers)
    assert normalize(e) == nf
    assert not is_normal(e)
    assert analyze(e) == analyze(nf)
    assert evaluate(e) == evaluate(nf)


def test_deep_sum_spine_needs_no_recursion():
    # sum(dual(fan), sum(con(cofan), ... sum(dual(fan), cantor)))
    depth = 10_000
    e = CANTOR
    for k in range(depth):
        e = Sum(Dual(FAN) if k % 2 else Con(COFAN), e)
    nf = normalize(e)
    expected = [COFAN if k % 2 else OMEGA_PLUS_ONE for k in reversed(range(depth))] + [CANTOR]
    assert list(leaves(nf)) == expected
    spine, node = 0, nf
    while isinstance(node, Sum):
        spine, node = spine + 1, node.right
    assert spine == depth
    assert is_normal(nf) and not is_normal(e)
    # cantor is its own dual and is not scattered, so LTG fails (Thm 7.8)
    assert analyze(e) == analyze(Sum(COFAN, Sum(OMEGA_PLUS_ONE, CANTOR)))
    assert evaluate(e) == evaluate(Sum(COFAN, Sum(OMEGA_PLUS_ONE, CANTOR)))
    assert evaluate(e).ltg is Ltg.FAILS


def _dual_con_chain():
    e = Fin(_TWO_CHAIN)
    for k in range(_DEEP):
        e = Con(e) if k % 2 else Dual(e)
    return e, "con(dual(" * (_DEEP // 2) + "fin{a,b;a<b}" + "))" * (_DEEP // 2)


def _sum_spine(left: bool):
    depth, e = 10_000, FAN
    for _ in range(depth):
        e = Sum(e, Dual(CANTOR)) if left else Sum(Dual(CANTOR), e)
    if left:
        return e, "sum(" * depth + "fan" + ", dual(cantor))" * depth
    return e, "sum(dual(cantor), " * depth + "fan" + ")" * depth


@pytest.mark.parametrize("build", [_dual_con_chain, lambda: _sum_spine(True), lambda: _sum_spine(False)],
                         ids=["dual-con-chain", "left-sum-spine", "right-sum-spine"])
def test_deep_print_parse_print_roundtrip(build):
    # compared as text: dataclass == on trees this deep would itself recurse
    e, expected = build()
    text = print_expr(e)
    assert text == expected
    assert print_expr(parse_expr(text)) == text


def test_tower_constructor_rejects_limits():
    with pytest.raises(ValueError):
        Tower(parse_cnf("w"))


# -- the sliced fin{...} read against the token walk ------------------------------


class _TokenWalkParser(_Parser):
    """The parser with ``fin{...}`` read by the token walk alone, as it was
    before the sliced read: the reference the sliced read must match."""

    def _fin(self, head_at):
        self.expect("{")
        tokens = self.tokens
        labels = []
        if tokens[self.i] not in (";", "}"):
            labels.append(self.ident())
            while tokens[self.i] == ",":
                self.i += 1
                labels.append(self.ident())
        self.expect(";")
        covers = []
        if tokens[self.i] != "}":
            while True:
                a = self.ident()
                self.expect("<")
                covers.append((a, self.ident()))
                if tokens[self.i] != ",":
                    break
                self.i += 1
        self.expect("}")
        try:
            return Fin(construct_poset(labels, covers))
        except (SpectopError, ValueError) as exc:
            raise ParseError(f"bad finite poset: {exc}", self.start(head_at)) from None


class _SlicedOnlyParser(_Parser):
    """The parser with the token walk taken away: a fin{...} body that the
    sliced read declines fails the parse."""

    def _fin_tokens(self):
        raise AssertionError("the sliced read declined a fin{...} body")


def _outcome(parser, text):
    try:
        return parser(text).parse()
    except ParseError as exc:  # the type, message and position are compared
        return type(exc), str(exc), exc.position


def _mutate(text, rng):
    """One of: a dropped or doubled "," or "<", a swapped "<"/",", the
    "}" dropped, a section emptied, whitespace inserted, or a token that
    a fin{...} body never holds ("+", "(", ...) inserted or put in place
    of a word."""
    kind = rng.randrange(8)
    marks = [i for i, ch in enumerate(text) if ch in ",<"]
    if kind == 0 and marks:
        i = rng.choice(marks)
        return text[:i] + text[i + 1:]
    if kind == 1 and marks:
        i = rng.choice(marks)
        return text[:i] + text[i] + text[i:]
    if kind == 2 and marks:
        i = rng.choice(marks)
        return text[:i] + {",": "<", "<": ","}[text[i]] + text[i + 1:]
    if kind == 3:
        i = text.rfind("}")
        return text[:i] + text[i + 1:]
    if kind == 4:
        semi = text.find(";")
        return rng.choice([text[:text.find("{") + 1] + text[semi:],
                           text[:semi + 1] + text[text.find("}", semi):]])
    foreign = rng.choice(["+", "(", ")", "{", "@", "-", "."])
    words = list(re.finditer(r"\w+", text))
    if kind == 7 and words:
        word = rng.choice(words)
        return text[:word.start()] + foreign + text[word.end():]
    i = rng.randrange(len(text) + 1)
    if kind == 5:
        return text[:i] + rng.choice([" ", "\t\n", "  　 "]) + text[i:]
    return text[:i] + foreign + text[i:]


@given(posets(max_size=6), posets(max_size=3), st.integers(0, 3), st.randoms(use_true_random=False))
def test_sliced_fin_read_matches_the_token_walk(p, q, mutations, rng):
    text = rng.choice(["{}", "sum({}, dual(fin{{a,b;a<b}}))", "sum(fin{{;}}, {})"]).format(
        print_expr(Fin(p)), print_expr(Fin(q)))
    if text.count("fin{") == 1 and rng.random() < 0.5:
        text = text.replace("fin{", "sum(fin{", 1) + ", " + print_expr(Fin(q)) + ")"
    for _ in range(mutations):
        text = _mutate(text, rng)
    # an unmutated text is well formed, so the sliced read must take it
    assert _outcome(_Parser if mutations else _SlicedOnlyParser, text) == _outcome(_TokenWalkParser, text)


@pytest.mark.parametrize("text", [
    "fin{a,b;a<b}", "fin{;}", "fin{a;}", "fin{;a<b}", "fin{}", "fin{a,;}", "fin{,a;}", "fin{a b;}",
    "fin{a;a<}", "fin{a,b;a<b,}", "fin{a,b;a<b b<a}", "fin{a,b;a<b;}", "fin{a,b;a,b}",
    "fin{a,b;a<<b}", "fin{a,b;a<b", "fin{a,b", "fin{a,b;a<b,,b<a}", "fin{ a , b ; a < b }",
    "sum(fin{a, fin{b;})", "sum(fin{a;}, fin{b;a<b})", "fin{a;a<a}", "fin{a,a;}", "fin{a,b;a<b,b<a}",
    # a foreign token in one place of a body that is otherwise well formed
    "fin{+;}", "fin{a,(;}", "fin{a,b;+<b}", "fin{a,b;a<+}", "fin{a,b,c;a<b,c<)}",
    "fin{a,b,c,d;a<b,c,d}", "fin{a,b,c,d;a<b,c<d<b<d}", "fin{a,b,c,d;a<b,c<d,b+d}",
])
def test_sliced_fin_read_examples(text):
    assert _outcome(_Parser, text) == _outcome(_TokenWalkParser, text)


def _shaped_fin(shape, n, rng):
    """fin{...} text as the verdicts workload writes it: shuffled labels
    v0, v1, ... in a chain, an antichain, or each point above up to three
    random earlier points."""
    labels = [f"v{i}" for i in rng.sample(range(n), n)]
    if shape == "chain":
        covers = [(i, i + 1) for i in range(n - 1)]
    elif shape == "antichain":
        covers = []
    else:
        covers = sorted({(rng.randrange(b), b) for b in range(1, n) for _ in range(rng.randint(0, 3))})
    return "fin{" + ",".join(labels) + ";" + ",".join(f"{labels[a]}<{labels[b]}" for a, b in covers) + "}"


@pytest.mark.parametrize("shape", ["chain", "antichain", "random"])
def test_benchmark_shaped_fin_text_takes_the_sliced_read(shape):
    """A sliced read that sent such text to the token walk would lose its
    speed unseen: the answer is the same either way."""
    text = _shaped_fin(shape, 300, random.Random(7))
    assert _outcome(_SlicedOnlyParser, text) == _outcome(_TokenWalkParser, text)


@pytest.mark.parametrize("text", [
    "fin{a,b;a<b}", "fin{;}", "fin{a;}", "fin{;a<b}", "fin{ a , b ; a < b }", "fin{\ta,\nb;a\n<b}",
    "fin{é,ß_1;é<ß_1}", "sum(fin{a;}, fin{b;a<b})",
    # well formed, refused by construct_poset
    "fin{a;a<a}", "fin{a,a;}", "fin{a,b;a<b,b<a}", "fin{a,b;a<c}",
])
def test_well_formed_fin_bodies_take_the_sliced_read(text):
    assert _outcome(_SlicedOnlyParser, text) == _outcome(_TokenWalkParser, text)
