import pytest
from hypothesis import given, settings

from spectop import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, Analysis, Con,
                     ConflictError, Dual, FieldsGenerate, Fin, Ltg, Ordinal,
                     RingMeta, Sum, Tower, Verdict, analyze, construct_poset,
                     evaluate, normalize, parse_cnf, parse_expr)
from spectop.analysis import (CITE_ABS_FLAT, CITE_GABRIEL, CITE_INCONCLUSIVE,
                              CITE_LTG, CITE_LTG_OBSTRUCTION, CITE_OBSTRUCTION)

from conftest import space_exprs


def rank(n):
    return Ordinal.from_int(n)


# -- primitive attribute tables ---------------------------------------------------


def test_fan_attributes():
    a = analyze(FAN)
    assert (a.is_td, a.scattered, a.cb_rank, a.quasi_compact) == (True, True, rank(2), True)
    assert a.nonempty and a.has_isolated_point


def test_cofan_attributes():
    a = analyze(COFAN)
    assert not a.is_td and not a.scattered and a.cb_rank is None
    assert a.quasi_compact and a.nonempty and not a.has_isolated_point


def test_omega_plus_one_attributes():
    a = analyze(OMEGA_PLUS_ONE)
    assert a.is_td and a.scattered and a.cb_rank == rank(2) and a.quasi_compact


def test_cantor_attributes():
    a = analyze(CANTOR)
    assert a.is_td and not a.scattered and a.cb_rank is None
    assert a.quasi_compact and not a.has_isolated_point


def test_tower_attributes():
    empty = analyze(Tower(Ordinal()))
    assert not empty.nonempty and empty.scattered and empty.cb_rank == rank(0)
    assert not empty.has_isolated_point
    t = analyze(Tower(parse_cnf("w^2 + 1")))
    assert t.nonempty and t.scattered and t.cb_rank == parse_cnf("w^2 + 1")


def test_fin_attributes():
    a = analyze(Fin(construct_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])))
    assert a.scattered and a.is_td and a.cb_rank == rank(3)
    empty = analyze(Fin(construct_poset([], [])))
    assert not empty.nonempty and empty.cb_rank == rank(0)
    assert not empty.has_isolated_point


def test_sum_attributes():
    assert analyze(Sum(FAN, FAN)).cb_rank == rank(2)
    mixed = analyze(Sum(FAN, CANTOR))
    assert not mixed.scattered and mixed.cb_rank is None
    assert mixed.is_td and mixed.nonempty and mixed.has_isolated_point
    assert mixed.quasi_compact
    towers = analyze(Sum(Tower(parse_cnf("w + 1")), Tower(rank(3))))
    assert towers.cb_rank == parse_cnf("w + 1")


def test_analysis_record_invariants_enforced():
    with pytest.raises(ValueError):
        Analysis(True, True, True, True, True, None)
    with pytest.raises(ValueError):
        Analysis(True, True, False, True, True, rank(1))
    with pytest.raises(ValueError):
        Analysis(True, True, True, False, True, rank(1))


def test_analyze_accepts_unnormalized_input():
    assert analyze(Con(Dual(FAN))) == analyze(OMEGA_PLUS_ONE)


# -- verdicts -----------------------------------------------------------------------


def test_verdict_ltg_examples():
    assert evaluate(FAN).ltg is Ltg.FAILS
    assert evaluate(COFAN).ltg is Ltg.HOLDS
    assert evaluate(parse_expr("fin{a,b;a<b}")).ltg is Ltg.HOLDS


def test_verdict_fields_obstruction():
    assert evaluate(CANTOR).fields_generate is FieldsGenerate.DOES_NOT_GENERATE


def test_verdict_fields_gabriel_rule():
    assert (
        evaluate(FAN, RingMeta(has_gabriel_dimension=True)).fields_generate
        is FieldsGenerate.GENERATES
    )


def test_verdict_fields_inconclusive():
    assert evaluate(parse_expr("fin{a,b;a<b}")).fields_generate is FieldsGenerate.INCONCLUSIVE


def test_verdict_fields_absolutely_flat_rule():
    flat = RingMeta(absolutely_flat=True)
    assert evaluate(CANTOR, flat).fields_generate is FieldsGenerate.DOES_NOT_GENERATE
    discrete = Fin(construct_poset(["a", "b"], []))
    assert evaluate(discrete, flat).fields_generate is FieldsGenerate.GENERATES


def test_verdict_citations():
    gabriel = evaluate(FAN, RingMeta(has_gabriel_dimension=True))
    assert CITE_GABRIEL in gabriel.citations and CITE_LTG in gabriel.citations
    cantor = evaluate(CANTOR)
    assert CITE_OBSTRUCTION in cantor.citations
    assert CITE_LTG_OBSTRUCTION in cantor.citations
    flat = evaluate(CANTOR, RingMeta(absolutely_flat=True))
    assert CITE_ABS_FLAT in flat.citations


def test_conflict_gabriel_with_unscattered_patch():
    with pytest.raises(ConflictError):
        evaluate(CANTOR, RingMeta(has_gabriel_dimension=True))


def test_conflict_known_truth_contradictions():
    with pytest.raises(ConflictError):
        evaluate(CANTOR, known_fields=FieldsGenerate.GENERATES)
    with pytest.raises(ConflictError):
        evaluate(
            FAN,
            RingMeta(has_gabriel_dimension=True),
            known_fields=FieldsGenerate.DOES_NOT_GENERATE,
        )


@pytest.mark.parametrize("meta", [RingMeta(absolutely_flat=True),
                                  RingMeta(has_gabriel_dimension=True),
                                  RingMeta(absolutely_flat=True, has_gabriel_dimension=True)])
def test_conflict_any_decided_verdict_against_known_truth(meta):
    # a scattered patch space: absolutely flat or Gabriel both derive Generates;
    # an absolutely flat ring has a Boolean spectrum, so it gets a discrete one
    space = parse_expr("fin{zero,m;}" if meta.absolutely_flat else "fin{zero,m;zero<m}")
    for known in (None, FieldsGenerate.GENERATES):
        verdict = evaluate(space, meta, known_fields=known)
        assert verdict.fields_generate is FieldsGenerate.GENERATES
    with pytest.raises(ConflictError):
        evaluate(space, meta, known_fields=FieldsGenerate.DOES_NOT_GENERATE)


def test_inconclusive_never_conflicts_with_known_truth():
    two_chain = parse_expr("fin{zero,m;zero<m}")
    for known in FieldsGenerate:
        assert evaluate(two_chain, known_fields=known).fields_generate is FieldsGenerate.INCONCLUSIVE


def test_serialization_field_names():
    a = analyze(FAN).to_dict()
    assert set(a) == {"nonempty", "quasi_compact", "is_td", "has_isolated_point",
                      "scattered", "cb_rank"}
    assert a["cb_rank"] == "2"
    v = evaluate(FAN, RingMeta(has_gabriel_dimension=True)).to_dict()
    assert set(v) == {"ltg", "fields_generate", "citations"}
    assert v["ltg"] == "Fails" and v["fields_generate"] == "Generates"


# -- laws over the expression corpus ---------------------------------------------------


@given(space_exprs())
def test_scattered_implies_td(e):
    a = analyze(e)
    if a.scattered:
        assert a.is_td


@given(space_exprs())
def test_scattered_passes_to_patch_space(e):
    if analyze(e).scattered:
        assert analyze(Con(e)).scattered


@given(space_exprs())
def test_td_spaces_scattered_iff_patch_scattered(e):
    a = analyze(e)
    if a.is_td:
        assert a.scattered == analyze(Con(e)).scattered


@given(space_exprs())
def test_patch_obstruction_forces_ltg_failure(e):
    if not analyze(Con(e)).scattered:
        assert evaluate(e).ltg is Ltg.FAILS


@given(space_exprs())
def test_rank_present_iff_scattered(e):
    a = analyze(e)
    assert (a.cb_rank is not None) == a.scattered


@given(space_exprs())
def test_analysis_on_duals_of_fins_matches_poset_algorithms(e):
    nf = normalize(Dual(e))
    if isinstance(nf, Fin):
        a = analyze(nf)
        assert a.cb_rank == rank(nf.poset.rank_int())
        assert a.is_td and a.scattered


# -- the leaf pass against the three-tree route ----------------------------------------

FLAG_SETS = (RingMeta(), RingMeta(absolutely_flat=True), RingMeta(has_gabriel_dimension=True),
             RingMeta(absolutely_flat=True, has_gabriel_dimension=True))
KNOWN_FIELDS = (None, FieldsGenerate.GENERATES, FieldsGenerate.DOES_NOT_GENERATE)


def three_tree_verdict(e, meta, known):
    """The verdict rules read off the dual and the patch space as normal
    forms of their own: LTG from the dual's analysis, the obstruction from
    the patch space's, and Boolean as "equals its patch space".  Returns
    None where the rules conflict."""
    n = normalize(e)
    patch = normalize(Con(e))
    dual_scattered = analyze(normalize(Dual(e))).scattered
    patch_scattered = analyze(patch).scattered
    if meta.has_gabriel_dimension and not patch_scattered:
        return None
    if meta.has_gabriel_dimension:
        fields, cite = FieldsGenerate.GENERATES, CITE_GABRIEL
    elif meta.absolutely_flat:
        fields = (FieldsGenerate.GENERATES if patch_scattered
                  else FieldsGenerate.DOES_NOT_GENERATE)
        cite = CITE_ABS_FLAT
    elif not patch_scattered:
        fields, cite = FieldsGenerate.DOES_NOT_GENERATE, CITE_OBSTRUCTION
    else:
        fields, cite = FieldsGenerate.INCONCLUSIVE, CITE_INCONCLUSIVE
    if fields is not FieldsGenerate.INCONCLUSIVE and known not in (None, fields):
        return None
    if meta.absolutely_flat and n != patch:
        return None
    citations = (cite, CITE_LTG) + (() if patch_scattered else (CITE_LTG_OBSTRUCTION,))
    return Verdict(Ltg.HOLDS if dual_scattered else Ltg.FAILS, fields, citations)


@settings(max_examples=200)
@given(space_exprs())
def test_leaf_pass_verdicts_match_the_three_tree_route(e):
    for meta in FLAG_SETS:
        for known in KNOWN_FIELDS:
            expected = three_tree_verdict(e, meta, known)
            if expected is None:
                with pytest.raises(ConflictError):
                    evaluate(e, meta, known_fields=known)
            else:
                assert evaluate(e, meta, known_fields=known) == expected
