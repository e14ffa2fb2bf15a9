import pytest

from spectop import (CANTOR, COFAN, FAN, FieldsGenerate, Fin, Ltg, SizeError,
                     catalog, construct_poset, curated_examples, fan_ring,
                     get_entry, idempotent_ring)
from spectop import gallery
from spectop.gallery import FAN_MAX_POINTS, OMEGA, _fan_poset


def test_fan_ring_omega():
    entry = fan_ring(OMEGA)
    assert entry.space == FAN
    assert entry.meta.has_gabriel_dimension and not entry.meta.absolutely_flat
    assert entry.known_truth.ltg is Ltg.FAILS
    assert entry.known_truth.fields is FieldsGenerate.GENERATES


def test_fan_ring_finite_shapes():
    assert isinstance(fan_ring(0).space, Fin)
    assert len(fan_ring(0).space.poset) == 1
    two = fan_ring(2).space.poset
    assert len(two) == 3
    assert set(two.covers) == {("p1", "m"), ("p2", "m")}
    for n in (1, 2, 7):
        assert fan_ring(n).space.poset.rank_int() == 2


def test_fan_ring_rejects_bad_n():
    with pytest.raises(ValueError):
        fan_ring(-1)
    with pytest.raises(ValueError):
        fan_ring("three")


def test_idempotent_ring_omega():
    entry = idempotent_ring(OMEGA)
    assert entry.space == CANTOR
    assert entry.meta.absolutely_flat
    assert entry.known_truth.fields is FieldsGenerate.DOES_NOT_GENERATE
    assert entry.known_truth.ltg is Ltg.FAILS


def test_idempotent_ring_finite_shapes():
    for n in range(0, 6):
        poset = idempotent_ring(n).space.poset
        assert len(poset) == 2 ** n
        assert poset.covers == ()
        assert poset.rank_int() == 1


def test_idempotent_ring_size_budget(monkeypatch):
    with pytest.raises(SizeError):
        idempotent_ring(13)
    monkeypatch.setattr(gallery, "IDEMPOTENT_MAX_POINTS", 1 << 13)
    assert len(idempotent_ring(13).space.poset) == 8192


def test_curated_entries_present():
    names = {e.name for e in curated_examples()}
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
    assert fan_ring(n).space == Fin(want)


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_idempotent_space_matches_its_label_build(n):
    want = construct_poset([f"p{i}" for i in range(2 ** n)], [])
    assert idempotent_ring(n).space == Fin(want)


def test_fan_ring_size_budget(monkeypatch):
    # refused before any point is built, just over the budget and far above it
    for n in (FAN_MAX_POINTS, 10**12):
        with pytest.raises(SizeError, match=rf"^{n} \+ 1 = {n + 1} points exceeds the budget of {FAN_MAX_POINTS}$"):
            fan_ring(n)
    monkeypatch.setattr(gallery, "FAN_MAX_POINTS", 3)
    with pytest.raises(SizeError):
        fan_ring(3)
    assert len(fan_ring(2).space.poset) == 3
