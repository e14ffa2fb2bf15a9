import pytest
from hypothesis import given

from spectop import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, ArityError, Con,
                     Dual, Fin, Ordinal, ParseError, Sum, Tower, construct_poset,
                     is_normal, normalize, parse_cnf, parse_expr, print_expr)

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
    assert normalize(nf) == nf


@given(space_exprs())
def test_self_duality_law(e):
    assert normalize(Con(Dual(e))) == normalize(Con(e))


@given(space_exprs())
def test_dual_involution_law(e):
    assert normalize(Dual(Dual(e))) == normalize(e)


def test_tower_constructor_rejects_limits():
    with pytest.raises(ValueError):
        Tower(parse_cnf("w"))
