import hashlib
import json

import pytest

from spectop import (CANTOR, COFAN, FAN, FieldsGenerate, Fin, Ltg, SizeError,
                     catalog, construct_poset, get_entry)
from spectop import gallery
from spectop.cli import main
from spectop.gallery import FAN_MAX_POINTS, OMEGA, _fan_poset


def test_fan_ring_omega():
    entry = get_entry("fan", OMEGA)
    assert entry.space == FAN
    assert entry.meta.has_gabriel_dimension and not entry.meta.absolutely_flat
    assert entry.known_truth.ltg is Ltg.FAILS
    assert entry.known_truth.fields is FieldsGenerate.GENERATES


def test_fan_ring_finite_shapes():
    assert isinstance(get_entry("fan", 0).space, Fin)
    assert len(get_entry("fan", 0).space.poset) == 1
    two = get_entry("fan", 2).space.poset
    assert len(two) == 3
    assert set(two.covers) == {("p1", "m"), ("p2", "m")}
    for n in (1, 2, 7):
        assert get_entry("fan", n).space.poset.rank_int() == 2


def test_fan_ring_rejects_bad_n():
    with pytest.raises(ValueError):
        get_entry("fan", -1)
    with pytest.raises(ValueError):
        get_entry("fan", "three")
    # bools are ints to Python, not naturals: no "x_True" axes, no "e_False"
    for name, n in (("fan", True), ("idempotent", False)):
        with pytest.raises(ValueError, match=rf"^n must be a natural number or 'omega', got {n}$"):
            get_entry(name, n)


def test_idempotent_ring_omega():
    entry = get_entry("idempotent", OMEGA)
    assert entry.space == CANTOR
    assert entry.meta.absolutely_flat
    assert entry.known_truth.fields is FieldsGenerate.DOES_NOT_GENERATE
    assert entry.known_truth.ltg is Ltg.FAILS


def test_idempotent_ring_finite_shapes():
    for n in range(0, 6):
        poset = get_entry("idempotent", n).space.poset
        assert len(poset) == 2 ** n
        assert poset.covers == ()
        assert poset.rank_int() == 1


def test_idempotent_ring_size_budget(monkeypatch):
    with pytest.raises(SizeError):
        get_entry("idempotent", 13)
    monkeypatch.setattr(gallery, "IDEMPOTENT_MAX_POINTS", 1 << 13)
    assert len(get_entry("idempotent", 13).space.poset) == 8192


def test_curated_entries_present():
    names = {e.name for e in catalog()}
    assert {"valuation_rank1", "neeman_ring", "integers_like"} <= names


def test_valuation_entry_is_two_chain():
    entry = get_entry("valuation_rank1")
    assert len(entry.space.poset) == 2
    assert entry.expect_inconclusive
    assert entry.known_truth.fields is FieldsGenerate.DOES_NOT_GENERATE


def test_neeman_entry_is_single_point():
    entry = get_entry("neeman_ring")
    assert len(entry.space.poset) == 1
    assert entry.expect_inconclusive


def test_integers_like_entry():
    entry = get_entry("integers_like")
    assert entry.space == COFAN
    assert entry.meta.has_gabriel_dimension
    assert entry.known_truth.ltg is Ltg.HOLDS
    assert "curated" in entry.description


def test_known_truths_match_engine():
    for entry in catalog():
        verdict = entry.verdict()
        if entry.expect_inconclusive:
            assert verdict.fields_generate is FieldsGenerate.INCONCLUSIVE
            assert verdict.fields_generate is not FieldsGenerate.GENERATES
        elif entry.known_truth is not None:
            if entry.known_truth.ltg is not None:
                assert verdict.ltg is entry.known_truth.ltg
            if entry.known_truth.fields is not None:
                assert verdict.fields_generate is entry.known_truth.fields


def test_ground_truth_citations_are_recorded():
    for entry in catalog():
        if entry.known_truth is not None:
            assert entry.known_truth.citation


def test_get_entry_parametric_and_unknown():
    assert len(get_entry("idempotent", 3).space.poset) == 8
    assert get_entry("fan").space == FAN
    with pytest.raises(KeyError):
        get_entry("nope")


@pytest.mark.parametrize("name", ["fan", "idempotent", "valuation_rank1", "neeman_ring", "integers_like"])
def test_table_entries_are_built_once(monkeypatch, name):
    # None and omega both return the catalog's own row, building no poset
    built = []
    monkeypatch.setattr(gallery.FinitePoset, "__init__", lambda self, *args: built.append(args))
    row = next(entry for entry in catalog() if entry.name == name)
    assert get_entry(name) is row and get_entry(name, OMEGA) is row
    assert built == []


@pytest.mark.parametrize("name", ["valuation_rank1", "neeman_ring", "integers_like"])
@pytest.mark.parametrize("n", [0, 3, -1, "three"])
def test_only_families_take_a_natural_n(name, n):
    with pytest.raises(ValueError, match=rf"^'{name}' is not a family: n must be 'omega' or omitted, got "):
        get_entry(name, n)


def test_entry_serialization():
    data = get_entry("fan").to_dict()
    assert data["space"] == "fan"
    assert data["meta"]["has_gabriel_dimension"] is True
    assert data["known_truth"]["fields_generate"] == "Generates"


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
def test_fan_poset_matches_its_label_build(n):
    labels = [f"p{i}" for i in range(1, n + 1)] + ["m"]
    want = construct_poset(labels, [(f"p{i}", "m") for i in range(1, n + 1)])
    got = _fan_poset(n)
    assert got == want and hash(got) == hash(want) and got.covers == want.covers
    assert get_entry("fan", n).space == Fin(want)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_idempotent_space_matches_its_label_build(n):
    want = construct_poset([f"p{i}" for i in range(2 ** n)], [])
    assert get_entry("idempotent", n).space == Fin(want)


def test_fan_ring_size_budget(monkeypatch):
    # refused before any point is built, just over the budget and far above it
    for n in (FAN_MAX_POINTS, 10**12):
        with pytest.raises(SizeError, match=rf"^{n} \+ 1 = {n + 1} points exceeds the budget of {FAN_MAX_POINTS}$"):
            get_entry("fan", n)
    monkeypatch.setattr(gallery, "FAN_MAX_POINTS", 3)
    with pytest.raises(SizeError):
        get_entry("fan", 3)
    assert len(get_entry("fan", 2).space.poset) == 3


# -- output pinned: captured at the commit before the gallery became one table --

_FLAG_SETS = ([], ["--absolutely-flat"], ["--gabriel"], ["--absolutely-flat", "--gabriel"])

_RING_LISTING = """\
fan: k[x_1,x_2,...]_(x_1,x_2,...) / (x_i x_j : i != j), the local ring at the origin of infinitely many glued axes
idempotent: k[e_1,e_2,...] with e_i^2 = e_i; the spectrum is the Cantor set
valuation_rank1: a non-noetherian rank one valuation domain
neeman_ring: k[x_2,x_3,x_4,...]/(x_2^2, x_3^3, x_4^4, ...), a ring with a unique prime
integers_like: a one-dimensional noetherian domain with infinitely many maximal ideals, e.g. the integers.  The Gabriel-dimension flag is the classical fact that noetherian module categories have Krull-Gabriel filtrations (Gabriel, Gordon-Robson); it is curated here, not computed.
"""


def _cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_listing_is_pinned(capsys):
    assert _cli(capsys, ["ring"]) == (0, _RING_LISTING, "")
    code, out, err = _cli(capsys, ["ring", "--json"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6e7adb1e8d268f2b9d09a27bf076b5bea3b84823fd37df50ec7eab29e1e62897")


@pytest.mark.parametrize("name,n,expected", [
    ("fan", None, "34becfc518bb024e9f9d0dcfa32ce1e050007e236c3f4885718bfc35547c0501"),
    ("fan", "omega", "f9996a7b3c05fe3ad301bdf9d1f59688783fc29a1870952fe01d59348b124680"),
    ("fan", "0", "f0eac9cfe9a810d720ea584e59aad2dfc9646a69121b593e224adf6990db9576"),
    ("fan", "3", "f8395990ab36041fc9fe0990048debc2fb449d8e7cd21fdafb2eb1e83ed31644"),
    ("idempotent", None, "198889a2673f8c796adb26a333bb2da434bfc752441c427bad79e751d6589982"),
    ("idempotent", "omega", "55930878b100eb33cf09ddb1fbb988706e2f414750983a4749a1957911251cd7"),
    ("idempotent", "0", "436871aaeb7dbfdcd4592fe466bb148409153bce4f3b647c5410ffbe8b63ceb6"),
    ("idempotent", "3", "7ba0e475894ec10dbcd9c1b96dff012407523b2d5a66d130904e20bb2949dd78"),
    ("valuation_rank1", None, "9ee3ca8339d70626733f803d5b3fe2d859a49c75020964bfe6cf4cc68028b584"),
    ("valuation_rank1", "omega", "5fb2f98e6123d2812572a4394a6269ecbb7ff6b3e9cdc9155edb11a09482601b"),
    ("neeman_ring", None, "226a715e26a952c83753705a933d6d272f79a639df2b0d83606906bb14206e7a"),
    ("neeman_ring", "omega", "2591d79b0baa4f1150d57293bcc3ab46c30935ded0c2ce0dd78e988ae91fec4b"),
    ("integers_like", None, "48837f4d1fc5767b6b456d1cb34baa672e27b336c795d9c887c03b3ce4edd7d4"),
    ("integers_like", "omega", "66367954c1ff017714e9560d43e2a8426635c27d040d7759c0883f52902c730b"),
])
def test_gallery_replies_are_pinned(capsys, name, n, expected):
    # exit code, stdout and stderr of ring (text and JSON), verdict under each
    # flag set and export in both formats, hashed in request order
    arg = [] if n is None else ["--n", n]
    requests = ([["ring", name, *arg], ["ring", name, *arg, "--json"]]
                + [["verdict", name, *arg, *flags, "--json"] for flags in _FLAG_SETS]
                + [["export", name, *arg, "--format", fmt] for fmt in ("json", "dot")])
    digest = hashlib.sha256()
    for argv in requests:
        digest.update(json.dumps([argv, *_cli(capsys, argv)]).encode())
    assert digest.hexdigest() == expected
