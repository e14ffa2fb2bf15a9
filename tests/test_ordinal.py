import sys

import pytest
from hypothesis import given
import hypothesis.strategies as st

from spectop import Ordinal, ParseError, SizeError, parse_cnf
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


# message and position of every error kind, and of each step of the precedence:
# a bad character, then a syntax error, then exponents, then a zero coefficient
_ERRORS = [
    ("", "empty ordinal", 0),
    ("   ", "empty ordinal", 0),
    ("\t", "empty ordinal", 0),
    ("x", "unexpected character 'x'", 0),
    ("w^x", "unexpected character 'x'", 2),
    ("1+2-", "unexpected character '-'", 3),
    ("w(", "unexpected character '('", 1),
    ("\u0663x", "unexpected character 'x'", 1),
    ("w*", "expected nat, found end", 2),
    ("w^", "expected nat, found end", 2),
    ("w ^ ", "expected nat, found end", 4),
    ("w*w", "expected nat, found w", 2),
    ("w^^2", "expected nat, found ^", 2),
    ("+", "expected a term, found +", 0),
    ("^2", "expected a term, found ^", 0),
    ("*3", "expected a term, found *", 0),
    ("w +", "expected a term, found end", 3),
    ("w + ", "expected a term, found end", 4),
    ("w + + 1", "expected a term, found +", 4),
    ("0+", "expected a term, found end", 2),
    ("1 2", "trailing input '2'", 2),
    (" w  w", "trailing input 'w'", 4),
    ("0 0", "trailing input '0'", 2),
    ("w^2^3", "trailing input '^'", 3),
    ("w*2^3", "trailing input '^'", 3),
    ("3*2", "trailing input '*'", 1),
    ("3^2", "trailing input '^'", 1),
    ("w + w^2", "exponents must strictly decrease", 4),
    ("w + w", "exponents must strictly decrease", 4),
    ("3 + 2", "exponents must strictly decrease", 4),
    ("0 + 1", "exponents must strictly decrease", 4),
    ("w^2 + w^2", "exponents must strictly decrease", 6),
    ("w + 1 + 2", "exponents must strictly decrease", 8),
    ("w*0", "zero coefficient is not canonical", 0),
    ("00", "zero coefficient is not canonical", 0),
    ("w^0*0", "zero coefficient is not canonical", 0),
    ("w^2 + 0", "zero coefficient is not canonical", 6),
    # precedence: each error below also holds one that ranks lower
    ("w^+x", "unexpected character 'x'", 3),
    ("w + w^2+x", "unexpected character 'x'", 8),
    ("w + w^2 +", "expected a term, found end", 9),
    ("3 + 2 2", "trailing input '2'", 6),
    ("w*0 +", "expected a term, found end", 5),
    ("w*0 + w", "exponents must strictly decrease", 6),
    ("w^3*0 + w^3", "exponents must strictly decrease", 8),
]


@pytest.mark.parametrize("text,message,position", _ERRORS)
def test_parse_error_messages_are_pinned(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse_cnf(text)
    assert (exc.value.message, exc.value.position) == (message, position)


@pytest.mark.parametrize("text,position", [("w x", 2), ("w +\t x", 5), ("1 + w^2  (", 9)])
def test_bad_character_after_whitespace_is_named(text, position):
    with pytest.raises(ParseError) as exc:
        parse_cnf(text)
    assert exc.value.message == f"unexpected character {text[position]!r}"
    assert exc.value.position == position


def test_number_too_long_for_int_is_a_size_error():
    digits = sys.get_int_max_str_digits()
    long = "1" + "0" * digits
    for text, position in ((long, 0), (f"w^2 + {long}", 6), (f"w^{long}", 2), (f"w*{long}", 2)):
        with pytest.raises(SizeError) as exc:
            parse_cnf(text)
        assert (exc.value.message, exc.value.position) == (f"a number of more than {digits} digits", position)
    # a syntax error before the number still wins
    with pytest.raises(ParseError, match=r"^expected a term, found \+"):
        parse_cnf(f"+ {long}")


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

