import random

import pytest
from hypothesis import given, settings

from spectop import (ExplicitTopology, SizeError, SuiteConfig,
                     count_posets_by_relation_filter, construct_poset,
                     downset_topology, enumerate_labeled_posets, normalize,
                     oracle_closure, oracle_derivative, oracle_is_open,
                     oracle_isolated, oracle_rank, oracle_scattered,
                     random_expr, random_poset, run_property_suite)
from spectop.oracle import rewrite_measure, rewrite_random_order

from conftest import posets, space_exprs


def chain(*labels):
    return construct_poset(list(labels), list(zip(labels, labels[1:])))


def all_subsets(labels):
    labels = list(labels)
    for mask in range(1 << len(labels)):
        yield frozenset(x for i, x in enumerate(labels) if mask >> i & 1)


# -- explicit topologies ---------------------------------------------------------


def test_downset_topology_two_chain():
    topo = downset_topology(chain("a", "b"))
    opens = {topo.labels_of(m) for m in topo.opens}
    assert opens == {frozenset(), frozenset({"a"}), frozenset({"a", "b"})}


def test_downset_topology_antichain_is_discrete():
    topo = downset_topology(construct_poset(["a", "b"], []))
    assert len(topo.opens) == 4


def test_downset_topology_singleton():
    topo = downset_topology(construct_poset(["a"], []))
    assert len(topo.opens) == 2


def test_downset_topology_size_guard():
    big = construct_poset([f"v{i}" for i in range(16)], [])
    with pytest.raises(SizeError):
        downset_topology(big)


def test_explicit_topology_rejects_bad_families():
    with pytest.raises(ValueError):
        ExplicitTopology(("a", "b"), (0,))  # missing the full set
    with pytest.raises(ValueError):
        # {a} and {b} but not {a,b} inside a 3-point space
        ExplicitTopology(("a", "b", "c"), (0b000, 0b001, 0b010, 0b111))
    with pytest.raises(ValueError):
        ExplicitTopology(("a",), (0, 0, 1))  # duplicates


def test_oracle_isolated_examples():
    two = downset_topology(chain("a", "b"))
    assert oracle_isolated(two, {"a", "b"}) == {"a"}
    disc = downset_topology(construct_poset(["a", "b", "c"], []))
    assert oracle_isolated(disc, {"a", "c"}) == {"a", "c"}
    assert oracle_isolated(two, set()) == frozenset()


def test_oracle_rank_and_scattered():
    assert oracle_rank(downset_topology(chain("a", "b", "c"))) == 3
    assert oracle_rank(downset_topology(construct_poset([], []))) == 0
    assert oracle_scattered(downset_topology(chain("a", "b")))


@given(posets(max_size=5))
def test_fast_algorithms_match_oracle(p):
    topo = downset_topology(p)
    for subset in all_subsets(p.elements):
        assert p.closure(subset) == oracle_closure(topo, subset)
        assert p.is_open(subset) == oracle_is_open(topo, subset)
        assert p.isolated_in(subset) == oracle_isolated(topo, subset)
        assert p.derivative_in(subset) == oracle_derivative(topo, subset)
    assert p.rank_int() == oracle_rank(topo)
    assert p.scattered_via_closed_subsets() == oracle_scattered(topo)


# -- generators ---------------------------------------------------------------------


def test_random_poset_deterministic():
    a = random_poset(seed=1, size=10, edge_density=0.3)
    b = random_poset(seed=1, size=10, edge_density=0.3)
    assert a == b
    assert random_poset(seed=1, size=0, edge_density=0.5) == construct_poset([], [])


def test_random_poset_is_valid_order():
    p = random_poset(seed=2, size=10, edge_density=0.3)
    for x in p.elements:
        for y in p.elements:
            if p.leq(x, y) and p.leq(y, x):
                assert x == y


def test_random_poset_argument_validation():
    with pytest.raises(ValueError):
        random_poset(seed=0, size=-1, edge_density=0.5)
    with pytest.raises(ValueError):
        random_poset(seed=0, size=3, edge_density=1.5)


def test_random_expr_deterministic():
    a = random_expr(random.Random(5), 6)
    b = random_expr(random.Random(5), 6)
    assert a == b


def test_enumeration_cross_check_small_sizes():
    for n in range(5):
        enumerated = sum(1 for _ in enumerate_labeled_posets(n))
        filtered = count_posets_by_relation_filter(n)
        assert enumerated == filtered


def test_enumerated_posets_are_distinct():
    seen = set()
    for p in enumerate_labeled_posets(3):
        key = frozenset((a, b) for a in p.elements for b in p.elements
                        if a != b and p.leq(a, b))
        assert key not in seen
        seen.add(key)
    assert len(seen) == 19


# -- rewrite obligations ----------------------------------------------------------------


@given(space_exprs())
@settings(max_examples=40)
def test_random_order_rewriting_is_confluent(e):
    rng = random.Random(11)
    nf, measure_ok = rewrite_random_order(e, rng)
    assert measure_ok
    assert nf == normalize(e)


def test_rewrite_measure_positive():
    assert rewrite_measure(random_expr(random.Random(0), 4)) >= 1


# -- suite -------------------------------------------------------------------------------


def test_suite_small_config_passes():
    report = run_property_suite(
        SuiteConfig(exhaustive_max=3, oracle_random_count=20,
                    law_random_count=20, corpus_count=40)
    )
    assert report.passed
    assert report.poset_counts == {0: 1, 1: 1, 2: 3, 3: 19}
    assert report.cross_check_counts == {0: 1, 1: 1, 2: 3, 3: 19}


def test_suite_catches_injected_rank_mutation():
    report = run_property_suite(
        SuiteConfig(exhaustive_max=2, oracle_random_count=5, law_random_count=5,
                    corpus_count=0, check_gallery=False, mutate="rank-off-by-one")
    )
    assert not report.passed
    broken = {law.name for law in report.laws if law.failures}
    assert "rank-matches-oracle" in broken
    failing = next(law for law in report.laws if law.name == "rank-matches-oracle")
    assert failing.counterexample is not None
    assert "poset" in failing.counterexample


def test_suite_rejects_unknown_mutation():
    with pytest.raises(ValueError):
        run_property_suite(SuiteConfig(mutate="nope"))


def test_suite_empty_config_vacuous_pass():
    report = run_property_suite(SuiteConfig.empty())
    assert report.passed
    assert report.laws == []


def test_suite_report_serialization():
    report = run_property_suite(
        SuiteConfig(exhaustive_max=1, oracle_random_count=2, law_random_count=2,
                    corpus_count=2)
    )
    data = report.to_dict()
    assert data["passed"] is True
    assert all({"name", "cases", "failures", "counterexample"} <= set(law)
               for law in data["laws"])
    table = report.format_table()
    assert "PASS" in table
