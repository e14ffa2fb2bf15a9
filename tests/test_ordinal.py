import pytest
from hypothesis import given
import hypothesis.strategies as st

from spectop import Ordinal, ParseError, parse_cnf
from spectop.ordinal import ZERO

from conftest import ordinals


def test_parse_examples():
    assert parse_cnf("w^2*2 + 3").terms == ((2, 2), (0, 3))
    assert parse_cnf("0").terms == ()
    assert parse_cnf("w").terms == ((1, 1),)
    assert parse_cnf("w*3").terms == ((1, 3),)
    assert parse_cnf("7") == Ordinal.from_int(7)
    # alternate spellings of canonical values
    assert parse_cnf("w^1*2") == parse_cnf("w*2")
    assert parse_cnf("w^0*3") == Ordinal.from_int(3)


@pytest.mark.parametrize(
    "text",
    ["w + w^2", "w + w", "3 + 2", "w*0", "", "w^", "w +", "1 2", "w^2 + w^2"],
)
def test_parse_rejects_non_canonical(text):
    with pytest.raises(ParseError):
        parse_cnf(text)


def test_compare_examples():
    omega = parse_cnf("w")
    assert max(parse_cnf("w*2 + 1"), parse_cnf("w*3")) == parse_cnf("w*3")
    assert omega < parse_cnf("w + 1")
    assert Ordinal.from_int(5) < omega and not omega < Ordinal.from_int(5)
    assert omega == omega and not omega < omega


def test_successor_and_limit_classification():
    # a nonzero ordinal is a successor exactly when it is not a limit
    assert ZERO.is_zero and not ZERO.is_limit
    assert not Ordinal.from_int(3).is_zero and not Ordinal.from_int(3).is_limit
    assert parse_cnf("w").is_limit
    assert not parse_cnf("w^2 + 1").is_limit
    assert parse_cnf("w^2 + w").is_limit


def test_bad_cnf_construction_rejected():
    with pytest.raises(ValueError):
        Ordinal(((0, 1), (1, 1)))
    with pytest.raises(ValueError):
        Ordinal(((2, 0),))


@given(st.integers(0, 999), st.integers(0, 999))
def test_finite_order_agrees_with_integers(a, b):
    alpha, beta = Ordinal.from_int(a), Ordinal.from_int(b)
    assert (alpha < beta, alpha == beta, alpha > beta) == (a < b, a == b, a > b)


@given(ordinals())
def test_print_parse_roundtrip(alpha):
    assert parse_cnf(str(alpha)) == alpha


@given(ordinals(), ordinals(), ordinals())
def test_max_laws(a, b, c):
    assert max(a, a) == a
    assert max(a, b) == max(b, a)
    assert max(max(a, b), c) == max(a, max(b, c))
    assert max(a, b) in (a, b)


@given(ordinals(), ordinals())
def test_compare_total(a, b):
    # exactly one of a < b, a == b, b < a holds, and > is < reversed
    assert [a < b, a == b, b < a].count(True) == 1
    assert (a < b) == (b > a)

