import dataclasses
import random
from itertools import permutations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from spectop import (COFAN, FAN, OMEGA_PLUS_ONE, Con, Dual, EmptySpaceError, ExplicitTopology,
                     FinitePoset, RingEntry, SizeError, SuiteConfig, UnknownLabelError, catalog,
                     count_posets_by_relation_filter, construct_poset,
                     downset_topology, enumerate_labeled_posets, normalize,
                     oracle_rank, oracle_scattered, parse_expr, random_expr,
                     random_poset, run_property_suite)
from spectop.oracle import (_LETTERS, LAW_MAX_SIZE, _check_poset_against_oracle,
                            _LabelSets, _Laws, _root_rewrite, _subset_pool,
                            _subset_tables, find_isolated, rewrite_measure,
                            rewrite_random_order, td_witness)

from conftest import leq, patch_rank_off_by_one, posets, space_exprs


def chain(*labels):
    return construct_poset(list(labels), list(zip(labels, labels[1:])))


def fan(n=2):
    labels = [f"p{i}" for i in range(1, n + 1)] + ["m"]
    return construct_poset(labels, [(f"p{i}", "m") for i in range(1, n + 1)])


def all_subsets(labels):
    labels = list(labels)
    for mask in range(1 << len(labels)):
        yield frozenset(x for i, x in enumerate(labels) if mask >> i & 1)


# -- the definitions, one subset at a time: the references for the oracle's tables --


def _closure_mask(topo: ExplicitTopology, s: int) -> int:
    """Smallest closed superset of mask ``s``: the meet of all closed supersets."""
    full = (1 << len(topo.points)) - 1
    meet = full
    for u in topo.opens:
        if not s & u:  # s lies in the closed set full - u
            meet &= full ^ u
    return meet


def _isolated_mask(topo: ExplicitTopology, y: int) -> int:
    """Points of mask ``y`` with an open U such that U * y is that point alone."""
    out = 0
    for u in topo.opens:
        meet = u & y
        if meet and not meet & (meet - 1):
            out |= meet
    return out


def _rank_by_definition(topo: ExplicitTopology) -> int:
    """Least number of derivative steps that empties the space."""
    current = (1 << len(topo.points)) - 1
    steps = 0
    while current:
        isolated = _isolated_mask(topo, current)
        if not isolated:
            raise AssertionError("derivative stalled on a finite space")
        current &= ~isolated
        steps += 1
    return steps


def _scattered_by_definition(topo: ExplicitTopology) -> bool:
    """Every nonempty closed subset has an isolated point."""
    full = (1 << len(topo.points)) - 1
    return all(_isolated_mask(topo, full ^ u) for u in topo.opens if u != full)


# -- the oracle's answers as label sets: the references for the poset methods --


def mask_of(topo: ExplicitTopology, subset) -> int:
    m = 0
    for x in subset:
        try:
            m |= 1 << topo.points.index(x)
        except ValueError:
            raise ValueError(f"unknown point {x!r}") from None
    return m


def labels_of(topo: ExplicitTopology, mask: int) -> frozenset[str]:
    return frozenset(x for i, x in enumerate(topo.points) if mask >> i & 1)


def oracle_is_open(topo: ExplicitTopology, subset) -> bool:
    return mask_of(topo, subset) in topo.members


def oracle_closure(topo: ExplicitTopology, subset) -> frozenset[str]:
    """Smallest closed superset, intersecting all closed supersets."""
    return labels_of(topo, _closure_mask(topo, mask_of(topo, subset)))


def oracle_isolated(topo: ExplicitTopology, subset) -> frozenset[str]:
    """Points y of the subset with an open U such that U * subset = {y}."""
    return labels_of(topo, _isolated_mask(topo, mask_of(topo, subset)))


def oracle_derivative(topo: ExplicitTopology, subset) -> frozenset[str]:
    s = mask_of(topo, subset)
    return labels_of(topo, s & ~_isolated_mask(topo, s))


# -- explicit topologies ---------------------------------------------------------


def test_downset_topology_two_chain():
    topo = downset_topology(chain("a", "b"))
    opens = {labels_of(topo, m) for m in topo.opens}
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
    # one cover: 3 * 2^(n - 2) down-sets, within the closure check's budget at
    # the guard's 12 elements, refused by the guard at 13
    labels = [f"v{i}" for i in range(13)]
    assert len(downset_topology(construct_poset(labels[:12], [("v0", "v1")])).opens) == 3072
    with pytest.raises(SizeError, match="enumeration guard of 12"):
        downset_topology(construct_poset(labels, [("v0", "v1")]))


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


def _assert_tables_match_definitions(topo, masks):
    closure, isolated = _subset_tables(topo)
    assert len(closure) == len(isolated) == 1 << len(topo.points)
    for s in masks:
        assert (closure[s], isolated[s]) == (_closure_mask(topo, s), _isolated_mask(topo, s))
    assert oracle_rank(topo) == _rank_by_definition(topo)
    assert oracle_scattered(topo) == _scattered_by_definition(topo)


@pytest.mark.parametrize("n", range(5))
def test_subset_tables_match_the_definitions_on_every_poset_up_to_4_points(n):
    for p in enumerate_labeled_posets(n):
        _assert_tables_match_definitions(downset_topology(p), range(1 << n))


@pytest.mark.parametrize("seed", range(10))
def test_subset_tables_match_the_definitions_on_drawn_posets(seed):
    rng = random.Random(seed)
    p = random_poset(seed, rng.randint(6, 10), rng.uniform(0.05, 0.6))
    _assert_tables_match_definitions(downset_topology(p), range(1 << len(p)))


def test_subset_tables_of_the_12_point_antichain():
    # the discrete topology: 4096 opens, each subset its own closure, every point isolated
    topo = downset_topology(construct_poset([f"v{i}" for i in range(12)], []))
    assert len(topo.opens) == 4096
    closure, isolated = _subset_tables(topo)
    assert closure == isolated == list(range(4096))
    rng = random.Random(12)
    for s in [0, 4095] + [rng.randrange(4096) for _ in range(16)]:
        assert (closure[s], isolated[s]) == (_closure_mask(topo, s), _isolated_mask(topo, s))
    # the definitional scattered check would scan 4096 opens for each of 4096 closed sets
    assert oracle_rank(topo) == _rank_by_definition(topo) == 1
    assert oracle_scattered(topo)


def test_oracle_rank_raises_when_a_derivative_stalls():
    indiscrete = ExplicitTopology(("a", "b"), (0, 3))  # no point of {a, b} is isolated
    with pytest.raises(AssertionError, match="^derivative stalled on a finite space$"):
        oracle_rank(indiscrete)
    with pytest.raises(AssertionError, match="^derivative stalled on a finite space$"):
        _rank_by_definition(indiscrete)
    assert not oracle_scattered(indiscrete)


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
    le = leq(p)
    for x in p.elements:
        for y in p.elements:
            # x <= y iff every open set that contains y contains x
            assert le(x, y) == all(x in u for u in all_subsets(p.elements)
                                      if y in u and oracle_is_open(topo, u))


def test_oracle_catches_a_spurious_reachability_bit():
    """A wrong bit in the poset's up-sets, which ``closure`` and the
    isolated-point queries share, shows against the oracle, which takes the
    order from the covers alone."""
    p = _corrupted()
    assert p.closure(["a"]) == {"a", "b", "c", "d"}
    laws = _Laws()
    _check_poset_against_oracle(p, laws, random.Random(0), _LabelSets(p.elements))
    failures = {r.name: r.failures for r in laws.results()}
    # every one of the 16 subsets is drawn; 4 hold a but not d, 4 hold both
    assert failures["closure-matches-oracle"] == 4
    assert failures["isolated-matches-oracle"] == 4
    assert failures["derivative-matches-oracle"] == 4


def _check_case_by_case(poset, laws, rng):
    """The oracle laws on one poset with every case recorded on its own: the
    reference that the suite's per-poset tally must reproduce exactly."""
    topo = downset_topology(poset)
    decode = list(all_subsets(poset.elements))
    for s in _subset_pool(len(poset), SuiteConfig.oracle_subset_samples, rng):
        subset = decode[s]
        isolated = _isolated_mask(topo, s)
        laws.check("closure-matches-oracle",
                   poset.closure(subset) == decode[_closure_mask(topo, s)],
                   poset=poset, subset=subset)
        laws.check("open-test-matches-oracle",
                   poset.is_open(subset) == (s in topo.members),
                   poset=poset, subset=subset)
        laws.check("isolated-matches-oracle",
                   poset.isolated_in(subset) == decode[isolated],
                   poset=poset, subset=subset)
        laws.check("derivative-matches-oracle",
                   poset.derivative_in(subset) == decode[s & ~isolated],
                   poset=poset, subset=subset)
    laws.check("rank-matches-oracle", poset.rank_int() == _rank_by_definition(topo), poset=poset)
    laws.check("closed-subset-scattered-matches-oracle",
               poset.scattered_via_closed_subsets() == _scattered_by_definition(topo), poset=poset)


def _corrupted():
    p = construct_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c")])
    assert p.closure(["a"]) == {"a", "b", "c"}  # builds the up-set bitsets
    p._up[p._index["a"]] |= 1 << p._bit[p._index["d"]]
    return p


_SMALL = [p for n in range(5) for p in enumerate_labeled_posets(n)]
# drawn subsets, not every subset, from 6 points on
_DRAWN = [random_poset(seed=n, size=n, edge_density=0.3) for n in range(6, 11)]


@pytest.mark.parametrize("posets, rank_off_by_one, failures", [
    (_SMALL + _DRAWN, False, 0),
    # each corrupted poset fails 4 subsets in each of 3 laws
    (_SMALL[:30] + [_corrupted()] + _DRAWN + [_corrupted()], False, 24),
    (_SMALL + _DRAWN, True, len(_SMALL + _DRAWN)),
], ids=["every-poset-up-to-4", "corrupted-bit", "rank-off-by-one"])
def test_per_poset_tally_records_what_case_by_case_checks_record(monkeypatch, posets,
                                                                 rank_off_by_one, failures):
    if rank_off_by_one:
        patch_rank_off_by_one(monkeypatch)

    def tally(poset, laws, rng):
        _check_poset_against_oracle(poset, laws, rng, _LabelSets(poset.elements))

    runs = []
    for check in (_check_case_by_case, tally):
        laws, rng = _Laws(), random.Random(11)
        for p in posets:
            check(p, laws, rng)
        runs.append((laws.results(), rng.getstate()))
    assert runs[0] == runs[1]
    assert sum(law.failures for law in runs[0][0]) == failures


# -- the T_D-witness and isolated-point recipes the finite-space laws check ------------


def test_td_witness_examples():
    p = fan(2)
    w, ok = td_witness(p, "p1")
    assert w == {"p1", "p2"} and ok
    w, ok = td_witness(p, "m")
    assert w == {"p1", "p2", "m"} and ok
    anti = construct_poset(["a", "b"], [])
    w, ok = td_witness(anti, "a")
    assert w == {"a", "b"} and ok


@given(posets())
def test_td_witness_always_open(p):
    for x in p.elements:
        w, ok = td_witness(p, x)
        assert ok
        assert x in w


def test_td_witness_unknown_point():
    with pytest.raises(UnknownLabelError, match="^unknown element 'zz'$"):
        td_witness(fan(2), "zz")


def test_find_isolated_examples():
    x, u, w = find_isolated(fan(2))
    assert x == "p1" and u == {"p1"} and w == {"p1", "p2"}
    x, u, w = find_isolated(chain("a", "b", "c"))
    assert x == "a" and u == {"a"} and u & w == {"a"}
    s = construct_poset(["a"], [])
    assert find_isolated(s) == ("a", {"a"}, {"a"})


def test_find_isolated_empty_space():
    with pytest.raises(EmptySpaceError):
        find_isolated(construct_poset([], []))


@given(posets())
def test_find_isolated_witness_laws(p):
    if not len(p):
        return
    x, u, w = find_isolated(p)
    assert p.is_open(u) and p.is_open(w)
    assert u & w == {x}
    assert p.is_open({x})


def test_find_isolated_tie_break_uses_element_order():
    p = construct_poset(["z", "a", "m"], [("z", "m"), ("a", "m")])
    x, _, _ = find_isolated(p)
    assert x == "z"


def _assert_recipes_match_leq(p, points):
    """``td_witness`` and ``find_isolated`` against their definitions in
    terms of ``leq`` alone."""
    els, le = p.elements, leq(p)
    for x in points:
        assert td_witness(p, x) == (frozenset(y for y in els if y == x or not le(x, y)), True)
    if els:
        # the first point in element order that no other point lies below;
        # trying the found point first keeps the scan short on a dual fan
        x, u, w = find_isolated(p)
        below_first = (x, *els)
        assert not any(y != x and le(y, x) for y in els)
        assert all(any(z != y and le(z, y) for z in below_first) for y in els[:els.index(x)])
        assert u == {x} and w == td_witness(p, x)[0]


@pytest.mark.parametrize("build", [
    lambda: construct_poset(list("abcdef"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "c"), ("e", "f")]),
    lambda: construct_poset(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("e", "d")]),
    lambda: chain(*"abcdef"),
    lambda: fan(4),
    lambda: fan(4).dual(),
    lambda: construct_poset(list("abcd"), []),
    lambda: construct_poset(list("abcdef"), [(x, y) for x in "abc" for y in "def"]),
    lambda: construct_poset([], []),
], ids=["skip", "long-skip", "chain", "fan", "dual_fan", "antichain", "bipartite", "empty"])
def test_recipes_match_leq(build):
    p = build()
    _assert_recipes_match_leq(p, p.elements)


@pytest.mark.parametrize("dual", [False, True], ids=["fan", "dual_fan"])
def test_recipes_match_leq_on_a_30000_point_fan(dual):
    # far above CLOSURE_LIMIT, which no code path reads
    p = fan(30000).dual() if dual else fan(30000)
    _assert_recipes_match_leq(p, ["m", "p1", "p30000"])
    assert find_isolated(p)[:2] == (("m", {"m"}) if dual else ("p1", {"p1"}))


@given(posets(max_size=8), st.randoms(use_true_random=False))
def test_recipes_ignore_redundant_input_pairs(p, rng):
    # built from its covers, from every comparable pair, and from those pairs
    # shuffled with repeats; each build answers its first query lazily or not
    els, le = p.elements, leq(p)
    comparable = [(a, b) for a in els for b in els if a != b and le(a, b)]
    noisy = comparable + rng.sample(comparable, len(comparable) // 2)
    rng.shuffle(noisy)
    for r in [construct_poset(els, pairs) for pairs in (p.covers, comparable, noisy)]:
        for x in els:
            assert td_witness(r, x) == td_witness(p, x)
        if len(p):
            assert find_isolated(r) == find_isolated(p)


# -- generators ---------------------------------------------------------------------


def test_random_poset_deterministic():
    a = random_poset(seed=1, size=10, edge_density=0.3)
    b = random_poset(seed=1, size=10, edge_density=0.3)
    assert a == b
    assert random_poset(seed=1, size=0, edge_density=0.5) == construct_poset([], [])


def test_random_poset_is_valid_order():
    p = random_poset(seed=2, size=10, edge_density=0.3)
    le = leq(p)
    for x in p.elements:
        for y in p.elements:
            if le(x, y) and le(y, x):
                assert x == y


def test_random_poset_argument_validation():
    with pytest.raises(ValueError, match="^size must be non-negative$"):
        random_poset(seed=0, size=-1, edge_density=0.5)
    for density in (1.5, -0.01, 1.01):
        with pytest.raises(ValueError, match=r"^edge_density must lie in \[0, 1\]$"):
            random_poset(seed=0, size=3, edge_density=density)
    # the ends of both ranges are accepted
    assert random_poset(seed=0, size=0, edge_density=0.5) == construct_poset([], [])
    antichain = random_poset(seed=0, size=5, edge_density=0.0)
    assert len(antichain) == 5 and antichain.covers == () and antichain.height() == 0
    total = random_poset(seed=0, size=5, edge_density=1.0)  # every forward pair an edge
    assert len(total) == 5 and total.height() == 4


def test_random_expr_deterministic():
    a = random_expr(random.Random(5), 6)
    b = random_expr(random.Random(5), 6)
    assert a == b


def _relabeled_posets(n):
    """Every partial order on n labeled points, each once: the upper-triangular
    transitive relations relabeled through every permutation and deduplicated
    (a poset always admits a linear extension, so this reaches all of them).
    The reference for the one-point extension in ``enumerate_labeled_posets``."""
    labels = tuple(_LETTERS[:n])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen: set[frozenset[tuple[int, int]]] = set()
    for bits in range(1 << len(pairs)):
        rel = [pairs[k] for k in range(len(pairs)) if bits >> k & 1]
        succ: dict[int, set[int]] = {}
        for a, b in rel:
            succ.setdefault(a, set()).add(b)
        if any(c not in succ[a] for a in succ for b in succ[a] for c in succ.get(b, ())):
            continue
        for perm in permutations(range(n)):
            mapped = frozenset((perm[a], perm[b]) for a, b in rel)
            if mapped not in seen:
                seen.add(mapped)
                yield construct_poset(labels, [(labels[a], labels[b]) for a, b in mapped])


@pytest.mark.parametrize("n", range(6))
def test_enumeration_matches_the_relabeling_reference(n):
    enumerated = list(enumerate_labeled_posets(n))
    assert len(set(enumerated)) == len(enumerated)
    assert set(enumerated) == set(_relabeled_posets(n))
    assert all(p.elements == tuple(_LETTERS[:n]) for p in enumerated)


@pytest.mark.parametrize("enumerate_or_count", [enumerate_labeled_posets,
                                                count_posets_by_relation_filter])
def test_enumerators_refuse_sizes_out_of_range_before_any_work(monkeypatch, enumerate_or_count):
    def refuse(*args, **kwargs):
        raise AssertionError("no poset may be built before the size check")

    monkeypatch.setattr("spectop.oracle.FinitePoset", refuse)
    monkeypatch.setattr("spectop.oracle._orders", refuse)
    with pytest.raises(ValueError, match="^the number of points must be non-negative, got -1$"):
        enumerate_or_count(-1)
    with pytest.raises(SizeError, match=f"^{len(_LETTERS) + 1} points exceed the {len(_LETTERS)} labels a..o$"):
        enumerate_or_count(len(_LETTERS) + 1)


def test_enumeration_cross_check_small_sizes():
    for n in range(5):
        enumerated = sum(1 for _ in enumerate_labeled_posets(n))
        filtered = count_posets_by_relation_filter(n)
        assert enumerated == filtered


def test_enumerated_posets_are_distinct():
    seen = set()
    for p in enumerate_labeled_posets(3):
        le = leq(p)
        key = frozenset((a, b) for a in p.elements for b in p.elements if a != b and le(a, b))
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


def test_a_rewrite_that_keeps_the_measure_is_reported(monkeypatch):
    con_fan = Con(FAN)

    def level_step(e):
        # dual(fan) becomes con(fan), of the same measure 2, and then omega+1
        return con_fan if e == Dual(FAN) else _root_rewrite(e)

    assert rewrite_measure(Dual(FAN)) == rewrite_measure(con_fan) == 2
    assert rewrite_random_order(Dual(FAN), random.Random(0)) == (COFAN, True)
    monkeypatch.setattr("spectop.oracle._root_rewrite", level_step)
    assert rewrite_random_order(Dual(FAN), random.Random(0)) == (OMEGA_PLUS_ONE, False)


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


# every law of one small run with its case count, in the order the run records
# them: a law that stops running, or skips a case, changes this list
_PINNED_CONFIG = SuiteConfig(seed=0, exhaustive_max=3, oracle_random_count=5, oracle_random_size=8,
                             law_random_count=6, law_random_size=7, corpus_count=40, corpus_depth=4)
# the 24 posets of at most 3 points check 1 + 2 + 3 * 4 + 19 * 8 = 167 subsets;
# the oracle block draws posets of 6, 0, 4, 8 and 7 points, which check
# 34 + 1 + 16 + 34 + 34 = 119 (at most 32 drawn subsets plus the empty and full
# sets); the law block draws posets of 6, 3, 3, 6, 2 and 3 points (23 in all)
_PINNED_SUBSET_CASES = 167 + 119
_PINNED_CASES = [
    *((name, _PINNED_SUBSET_CASES) for name in (
        "closure-matches-oracle", "open-test-matches-oracle", "isolated-matches-oracle",
        "derivative-matches-oracle")),
    ("rank-matches-oracle", 24 + 5), ("closed-subset-scattered-matches-oracle", 24 + 5),
    ("poset-enumeration-cross-check", 4),
    ("dual-involution", 6), ("rank-is-height-plus-one", 6), ("rank-invariant-under-dual", 6),
    ("scattered-via-closed-subsets", 6), ("dual-scattered-via-closed-subsets", 6),
    ("td-witness-is-open", 23), ("constructive-isolated-point", 6), ("json-roundtrip", 6),
    ("sum-rank-is-max", 5), ("derivative-distributes-over-sum", 5),
    ("normal-form-has-no-dual-con", 40), ("normalize-idempotent", 40), ("self-duality", 40),
    ("dual-involution-on-expressions", 40),
    # every tenth expression is rewritten in a random order
    ("rewrite-measure-decreases", 4), ("random-order-rewriting-confluent", 4),
    ("scattered-implies-td", 40), ("scattered-passes-to-patch", 40),
    # the laws that only some of the seed's 40 expressions reach
    ("td-patch-scattered-equivalence", 34), ("patch-obstruction-forces-ltg-failure", 9),
    ("finite-space-analysis-agrees-with-poset", 5),
]


def test_every_law_runs_its_pinned_number_of_cases():
    report = run_property_suite(_PINNED_CONFIG)
    assert report.passed
    entries = catalog()
    inconclusive = sum(1 for e in entries if e.expect_inconclusive)
    gallery = [("gallery-verdict-computes", len(entries)),
               ("gallery-known-truth-matches",
                sum(1 for e in entries if not e.expect_inconclusive and e.known_truth is not None)),
               ("non-sufficiency-stays-inconclusive", inconclusive),
               ("non-sufficiency-never-generates", inconclusive)]
    assert [(law.name, law.cases) for law in report.laws] == _PINNED_CASES + gallery
    assert report.poset_counts == {0: 1, 1: 1, 2: 3, 3: 19}


def test_suite_catches_injected_rank_mutation(monkeypatch):
    patch_rank_off_by_one(monkeypatch)
    report = run_property_suite(
        SuiteConfig(exhaustive_max=2, oracle_random_count=5, law_random_count=5,
                    corpus_count=0, check_gallery=False)
    )
    assert not report.passed
    broken = {law.name for law in report.laws if law.failures}
    assert "rank-matches-oracle" in broken
    failing = next(law for law in report.laws if law.name == "rank-matches-oracle")
    assert failing.counterexample is not None
    assert "poset" in failing.counterexample


@pytest.mark.parametrize("config", [
    SuiteConfig(oracle_random_count=1, oracle_random_size=16),
    SuiteConfig(exhaustive_max=7),
    SuiteConfig(law_random_count=1, law_random_size=LAW_MAX_SIZE + 1),
])
def test_suite_refuses_sizes_beyond_the_enumeration_up_front(monkeypatch, config):
    def refuse(*args, **kwargs):
        raise AssertionError("no poset may be built before the size check")

    monkeypatch.setattr("spectop.oracle.random_poset", refuse)
    monkeypatch.setattr("spectop.oracle.enumerate_labeled_posets", refuse)
    with pytest.raises(SizeError):
        run_property_suite(config)


@pytest.mark.parametrize("config", [
    SuiteConfig(law_random_size=-4),
    SuiteConfig(oracle_random_size=-1),
])
def test_suite_refuses_negative_sizes_up_front(monkeypatch, config):
    def refuse(*args, **kwargs):
        raise AssertionError("no poset may be built before the size check")

    monkeypatch.setattr("spectop.oracle.random_poset", refuse)
    monkeypatch.setattr("spectop.oracle.enumerate_labeled_posets", refuse)
    with pytest.raises(ValueError, match=r"^random poset sizes must be non-negative, got -\d$"):
        run_property_suite(config)


@pytest.mark.parametrize("config,message", [
    (SuiteConfig(oracle_random_count=-1), "counts must be non-negative, got -1"),
    (SuiteConfig(law_random_count=-2), "counts must be non-negative, got -2"),
    (SuiteConfig(corpus_count=-3), "counts must be non-negative, got -3"),
    (SuiteConfig(corpus_depth=0), "corpus depth must be at least 1, got 0"),
], ids=["oracle-count", "law-count", "corpus-count", "corpus-depth"])
def test_suite_refuses_negative_counts_and_a_depth_below_one_up_front(monkeypatch, config, message):
    def refuse(*args, **kwargs):
        raise AssertionError("no poset or expression may be built before the check")

    for name in ("random_poset", "enumerate_labeled_posets", "random_expr"):
        monkeypatch.setattr(f"spectop.oracle.{name}", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_property_suite(config)


def test_empty_suite_runs_whatever_its_corpus_depth():
    # no corpus expression is drawn, so the depth is not read
    assert run_property_suite(dataclasses.replace(SuiteConfig.empty(), corpus_depth=0)).passed


def test_suite_sizes_at_the_bound_are_accepted():
    # the size bound on random oracle posets applies only when some are asked for
    report = run_property_suite(SuiteConfig(exhaustive_max=1, oracle_random_count=0,
                                            oracle_random_size=100, law_random_count=0,
                                            corpus_count=0, check_gallery=False))
    assert report.passed
    # at the enumeration guard itself
    report = run_property_suite(SuiteConfig(exhaustive_max=-1, oracle_random_count=3,
                                            oracle_random_size=12, law_random_count=0,
                                            corpus_count=0, check_gallery=False))
    assert report.passed
    # at the lower bounds: empty random posets and expressions of depth 1
    report = run_property_suite(dataclasses.replace(
        SuiteConfig.empty(), oracle_random_count=3, oracle_random_size=0, law_random_count=3,
        law_random_size=0, corpus_count=5, corpus_depth=1))
    assert report.passed
    cases = {law.name: law.cases for law in report.laws}
    # each empty poset has one subset, the empty set
    assert cases["closure-matches-oracle"] == 3 and cases["rank-of-empty-is-zero"] == 3
    assert cases["normalize-idempotent"] == 5


def _flip_first(answer, subset):
    """``answer`` with the least label of a nonempty ``subset`` toggled."""
    subset = frozenset(subset)
    return answer ^ {min(subset)} if subset else answer


@pytest.mark.parametrize("method,law_name,oracle_fn,wrong", [
    ("closure", "closure-matches-oracle", oracle_closure, _flip_first),
    ("is_open", "open-test-matches-oracle", oracle_is_open,
     lambda answer, subset: answer != bool(frozenset(subset))),
    ("isolated_in", "isolated-matches-oracle", oracle_isolated, _flip_first),
    ("derivative_in", "derivative-matches-oracle", oracle_derivative, _flip_first),
])
def test_suite_catches_a_wrong_subset_answer(monkeypatch, method, law_name, oracle_fn, wrong):
    original = getattr(FinitePoset, method)
    monkeypatch.setattr(FinitePoset, method,
                        lambda self, subset: wrong(original(self, subset), subset))
    report = run_property_suite(SuiteConfig(exhaustive_max=3, oracle_random_count=5,
                                            law_random_count=0, corpus_count=0,
                                            check_gallery=False))
    assert [law.name for law in report.laws if law.failures] == [law_name]
    ce = next(law for law in report.laws if law.name == law_name).counterexample
    # the 1-point poset is the first with a nonempty subset, which every wrong answer flips
    assert ce == {"poset": {"labels": ["a"], "covers": []}, "subset": ["a"]}
    # the counterexample replays: the public oracle disagrees with the method
    poset = construct_poset(ce["poset"]["labels"], [tuple(c) for c in ce["poset"]["covers"]])
    topo = downset_topology(poset)
    assert getattr(poset, method)(ce["subset"]) != oracle_fn(topo, ce["subset"])


def _counterexamples(**blocks):
    """Each failing law's counterexample from a suite run of only ``blocks``."""
    report = run_property_suite(dataclasses.replace(SuiteConfig.empty(), **blocks))
    return {law.name: law.counterexample for law in report.laws if law.failures}


def test_rank_counterexample_names_the_rank(monkeypatch):
    patch_rank_off_by_one(monkeypatch)
    assert _counterexamples(law_random_count=6, law_random_size=2) == {
        "rank-is-height-plus-one": {"poset": {"labels": ["v0"], "covers": []}, "rank": 2},
        "rank-of-empty-is-zero": {"poset": {"labels": [], "covers": []}, "rank": 1},
    }


def test_td_witness_counterexample_names_the_point(monkeypatch):
    # a flag that is wrong on every point that is not minimal, so find_isolated,
    # which asks only about a minimal point, still works
    monkeypatch.setattr("spectop.oracle.td_witness",
                        lambda poset, x: (td_witness(poset, x)[0], poset.is_open({x})))
    assert _counterexamples(law_random_count=4, law_random_size=3) == {"td-witness-is-open": {
        "poset": {"labels": ["v0", "v1", "v2"], "covers": [["v1", "v2"]]}, "point": "v2"}}


def test_isolated_point_counterexample_lists_its_opens(monkeypatch):
    def whole_space(poset):
        x, _, _ = find_isolated(poset)
        return x, frozenset(poset.elements), frozenset(poset.elements)

    monkeypatch.setattr("spectop.oracle.find_isolated", whole_space)
    everything = ["v0", "v1", "v2"]
    assert _counterexamples(law_random_count=5, law_random_size=3) == {"constructive-isolated-point": {
        "poset": {"labels": everything, "covers": []}, "point": "v0", "u": everything, "w": everything}}


def test_corpus_counterexample_is_text_that_parses_back(monkeypatch):
    monkeypatch.setattr("spectop.oracle.is_normal", lambda e: False)
    text = "sum(dual(tower(w + 1)), sum(omega1, cantor))"
    assert _counterexamples(corpus_count=3, corpus_depth=3) == {
        "normal-form-has-no-dual-con": {"expr": text}}
    # the corpus block draws first from the seed's generator
    assert parse_expr(text) == random_expr(random.Random(0), 3)


def test_gallery_counterexample_names_the_entry(monkeypatch):
    def fail(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(RingEntry, "verdict", fail)
    assert _counterexamples(check_gallery=True) == {"gallery-verdict-computes": {"entry": "fan"}}


def test_cross_check_counterexample_names_both_counts(monkeypatch):
    monkeypatch.setattr("spectop.oracle.count_posets_by_relation_filter", lambda n: n)
    assert _counterexamples(exhaustive_max=3) == {"poset-enumeration-cross-check": {
        "size": 0, "enumerated": 1, "filtered": 0}}


def _label_set_pool(poset, cap, rng):
    """The subset pool as label sets, the way the suite drew it before it drew
    masks: the mask pool must draw the same subsets with the same RNG calls,
    which keeps every later draw (and every pinned case count) the same."""
    labels = poset.elements
    n = len(labels)
    if 1 << n <= cap:
        return [frozenset(x for i, x in enumerate(labels) if mask >> i & 1)
                for mask in range(1 << n)]
    pool = [frozenset(), frozenset(labels)]
    for _ in range(cap):
        pool.append(frozenset(x for x in labels if rng.random() < 0.5))
    return pool


@pytest.mark.parametrize("cap", [0, 1, 32, 64])
def test_subset_pool_draws_what_the_label_set_pool_drew(cap):
    for n in range(13):
        poset = random_poset(seed=n, size=n, edge_density=0.3)
        label_rng, mask_rng = random.Random(100 + n), random.Random(100 + n)
        expected = _label_set_pool(poset, cap, label_rng)
        decoded = _LabelSets(poset.elements)
        assert [decoded[m] for m in _subset_pool(n, cap, mask_rng)] == expected
        assert mask_rng.getstate() == label_rng.getstate()


def test_label_sets_decode_each_mask_once():
    decode = _LabelSets(("a", "b", "c"))
    assert [decode[m] for m in range(8)] == list(all_subsets(("a", "b", "c")))
    assert decode[5] is decode[5] and len(decode) == 8


def test_suite_config_has_no_mutation_field():
    # a fault is injected by patching the method under test, not by a setting
    with pytest.raises(TypeError):
        SuiteConfig(mutate="rank-off-by-one")


def test_suite_rejects_exhaustive_max_below_minus_one():
    with pytest.raises(ValueError, match="^exhaustive_max must be at least -1, got -2$"):
        run_property_suite(dataclasses.replace(SuiteConfig.empty(), exhaustive_max=-2))


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
    blocks = ["exhaustive", "random_oracle", "finite_laws", "corpus", "gallery"]
    assert list(data["block_seconds"]) == blocks
    assert all(t >= 0 for t in data["block_seconds"].values())
    table = report.format_table()
    assert "PASS" in table
    assert all(any(line.split()[:1] == [b] for line in table.splitlines()) for b in blocks)


def test_suite_reports_every_block_even_when_skipped():
    report = run_property_suite(SuiteConfig.empty())
    assert list(report.block_seconds) == ["exhaustive", "random_oracle", "finite_laws",
                                          "corpus", "gallery"]
    assert report.seconds == pytest.approx(sum(report.block_seconds.values()))
