import json
import random
import sys
import threading
import tracemalloc
from graphlib import TopologicalSorter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from spectop import (CycleError, Dual, Fin, FinitePoset, UnknownLabelError,
                     construct_poset, disjoint_union, downset_topology, enumerate_labeled_posets,
                     export, normalize, print_expr)

from spectop.errors import QUOTE_PREFIX

from conftest import cb_layers, leq, posets


def fan(n=2):
    labels = [f"p{i}" for i in range(1, n + 1)] + ["m"]
    return construct_poset(labels, [(f"p{i}", "m") for i in range(1, n + 1)])


def chain(*labels):
    return construct_poset(list(labels), list(zip(labels, labels[1:])))


# -- construction ----------------------------------------------------------


def test_construct_singleton():
    p = construct_poset(["a"], [])
    assert p.elements == ("a",)
    assert p.covers == ()


def test_construct_fan():
    le = leq(fan(2))
    assert le("p1", "m") and le("p2", "m")
    assert not le("m", "p1") and not le("p1", "p2")


def test_construct_rejects_cycles():
    with pytest.raises(CycleError):
        construct_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        construct_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(CycleError):
        construct_poset(["a"], [("a", "a")])


def test_construct_rejects_unknown_labels():
    with pytest.raises(UnknownLabelError):
        construct_poset(["a"], [("a", "b")])


def test_construct_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        construct_poset(["a", "a"], [])


@pytest.mark.parametrize("label", ["a b", 'x"y', "", 1])
def test_construct_rejects_non_identifier_labels(label):
    with pytest.raises(ValueError):
        construct_poset([label, "c"], [])


@pytest.mark.parametrize("labels, first_bad", [
    (["a", "b c", "d-e"], "'b c'"),
    (["ab", "", "c d"], "''"),
    (["a", 1, ""], "1"),
    (["a", None], "None"),
    (["x_1", "é9", "y-z", "w w"], "'y-z'"),
    (["a\nb"], "'a\\nb'"),
])
def test_construct_names_the_first_bad_label(labels, first_bad):
    with pytest.raises(ValueError) as raised:
        construct_poset(labels, [])
    assert str(raised.value) == f"label {first_bad} is not an identifier (letters, digits, underscore)"


@pytest.mark.parametrize("labels, pairs", [([], [(0, 0)]), (["a"], [(1, 1)]), (["a"], [(-1, -1)])])
def test_cover_index_range_is_checked_before_self_loops(labels, pairs):
    with pytest.raises(UnknownLabelError, match=r"^cover index out of range: "):
        FinitePoset(labels, pairs)


@pytest.mark.parametrize("pairs, error, message", [
    ([(1, 1), (0, 1), (0, 1), (0, 9)], UnknownLabelError, "cover index out of range: (0, 9)"),
    ([(1, 0), (0, 0), (1, 0)], CycleError, "self-loop on 'a'"),
    ([[0, 1], (0, 1), [1, 1]], CycleError, "self-loop on 'b'"),  # list pairs are accepted
], ids=["range", "self-loop", "list-pairs"])
def test_the_first_bad_pair_in_sorted_order_decides(pairs, error, message):
    with pytest.raises(error) as raised:
        FinitePoset(["a", "b"], pairs)
    assert str(raised.value) == message


def test_transitive_input_reduces_to_covers():
    direct = construct_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with_shortcut = construct_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert direct == with_shortcut
    assert with_shortcut.covers == (("a", "b"), ("b", "c"))


_FIELDS = ["_labels", "_index", "_peel", "_rank", "_covers", "_below", "_order", "_bit", "_up"]


@given(posets(max_size=8), st.randoms(use_true_random=False))
def test_redundant_input_pairs_change_nothing(p, rng):
    # built from its covers, from every comparable pair, and from those pairs
    # shuffled with repeats; each build answers its first query lazily or not
    els, le = p.elements, leq(p)
    comparable = [(a, b) for a in els for b in els if a != b and le(a, b)]
    noisy = comparable + rng.sample(comparable, len(comparable) // 2)
    rng.shuffle(noisy)
    builds = [p] + [construct_poset(els, pairs) for pairs in (p.covers, comparable, noisy)]
    for r in builds:
        assert r == p and hash(r) == hash(p) and r.covers == p.covers
        assert list(vars(r)) == _FIELDS
    for r in builds:
        for mask in range(1 << len(p)):
            s = {x for i, x in enumerate(els) if mask >> i & 1}
            for method in ("is_open", "closure", "isolated_in", "derivative_in"):
                assert getattr(r, method)(s) == getattr(p, method)(s)
        assert r.height() == p.height() and cb_layers(r) == cb_layers(p)
        assert list(vars(r)) == _FIELDS


@given(posets())
def test_partial_order_laws(p):
    els, le = p.elements, leq(p)
    for x in els:
        assert le(x, x)
    for x in els:
        for y in els:
            if le(x, y) and le(y, x):
                assert x == y
            for z in els:
                if le(x, y) and le(y, z):
                    assert le(x, z)


# -- closure and opens -------------------------------------------------------


def test_closure_examples():
    p = fan(2)
    assert p.closure({"p1"}) == {"p1", "m"}
    assert p.closure(set()) == set()
    assert p.closure({"m"}) == {"m"}


def test_is_open_examples():
    p = fan(2)
    assert p.is_open({"p1", "p2"})
    assert not p.is_open({"m"})
    assert p.is_open(set())


def _is_open_by_cover_scan(p, subset):
    """The reference for ``is_open``: no cover climbs into ``subset`` from
    outside it."""
    s = set(subset)
    return not any(b in s and a not in s for a, b in p.covers)


def _height_by_cover_scan(p):
    """The reference for ``height``: a longest-path pass over each point's
    successors, in a topological order that owes nothing to the peel."""
    succ = {x: [] for x in p.elements}
    for a, b in p.covers:
        succ[a].append(b)
    dist = dict.fromkeys(p.elements, 0)
    for v in TopologicalSorter({b: [a] for a, b in p.covers}).static_order():
        for w in succ[v]:
            dist[w] = max(dist[w], dist[v] + 1)
    return max(dist.values(), default=-1)


@pytest.mark.parametrize("build", [
    lambda: fan(30000),
    lambda: fan(30000).dual(),
    lambda: chain(*[f"c{i}" for i in range(20000)]),
], ids=["fan", "dual_fan", "chain"])
def test_is_open_and_height_on_large_posets_match_the_cover_scan(build):
    p = build()
    els = p.elements
    rng = random.Random(7)
    subsets = [set(), set(els), {els[0]}, {els[-1]}, {els[0], els[-1]}, set(els[:len(els) // 2]),
               set(els[len(els) // 2:]), set(els) - {els[0]}, set(els) - {els[-1]},
               {x for x in els if rng.random() < 0.5}, set(rng.sample(els, 3))]
    for s in subsets:
        assert p.is_open(s) == _is_open_by_cover_scan(p, s)
    assert p.height() == _height_by_cover_scan(p)
    assert p._up is None  # neither query builds the up-set bitsets


@given(posets())
def test_closure_is_smallest_closed_superset(p):
    for x in p.elements:
        s = frozenset([x])
        cl = p.closure(s)
        assert s <= cl and p.is_open(set(p.elements) - cl)
        assert p.closure(cl) == cl
    full = frozenset(p.elements)
    assert p.closure(full) == full
    # monotone on nested singleton/full pairs
    for x in p.elements:
        assert p.closure({x}) <= p.closure(full)


@given(posets(max_size=5))
def test_closure_minimality_against_all_closed_sets(p):
    topo = downset_topology(p)
    for x in p.elements:
        cl = p.closure({x})
        for down in topo.opens:
            up = frozenset(y for i, y in enumerate(p.elements) if not down >> i & 1)
            if x in up:
                assert cl <= up


# -- isolated points and derivatives ------------------------------------------


def test_isolated_examples():
    anti = construct_poset(["a", "b"], [])
    assert anti.isolated_in({"a", "b"}) == {"a", "b"}
    two = chain("a", "b")
    assert two.isolated_in({"a", "b"}) == {"a"}
    assert two.isolated_in(set()) == frozenset()


def test_long_labels_are_quoted_by_a_bounded_prefix():
    long = "z" * 5000
    clipped = repr("z" * QUOTE_PREFIX) + "..."
    p = chain("a", "b")
    for call in (lambda: p.isolated_in({long}),
                 lambda: construct_poset(["a"], [("a", long)])):
        with pytest.raises(UnknownLabelError) as raised:
            call()
        assert str(raised.value) == f"unknown element {clipped}"
    with pytest.raises(CycleError) as raised:
        FinitePoset([long], [(0, 0)])
    assert str(raised.value) == f"self-loop on {clipped}"
    with pytest.raises(ValueError) as raised:
        construct_poset([long + "-"], [])
    assert str(raised.value) == f"label {clipped} is not an identifier (letters, digits, underscore)"


def test_subspace_rejects_foreign_members():
    with pytest.raises(UnknownLabelError, match="^unknown element 'z'$"):
        chain("a", "b").isolated_in({"z"})
    with pytest.raises(UnknownLabelError, match="^unknown element 'z'$"):
        chain("a", "b").derivative_in({"a", "z"})
    for method in ("closure", "is_open"):
        with pytest.raises(UnknownLabelError, match="^unknown element 'z'$"):
            getattr(chain("a", "b"), method)(["a", "z", "b"])


def test_derivative_examples():
    p = fan(3)
    assert p.derivative_in(p.elements) == {"m"}
    assert p.derivative_in({"m"}) == frozenset()
    assert p.derivative_in(set()) == frozenset()


def test_isolated_in_subspace_is_minimal_in_induced_order():
    p = construct_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")])
    sub, le = {"b", "c", "d"}, leq(p)
    minimal = {x for x in sub if not any(y != x and le(y, x) for y in sub)}
    assert minimal == {"b", "d"}
    assert p.isolated_in(sub) == minimal


def _assert_queries_match_leq(p, subsets):
    """``closure``, ``isolated_in`` and ``derivative_in`` against their
    definitions in terms of ``leq`` alone."""
    els, le = p.elements, leq(p)
    for subset in subsets:
        s = frozenset(subset)
        isolated = frozenset(x for x in s if not any(y != x and le(y, x) for y in s))
        closure = frozenset(y for y in els if y in s or any(le(x, y) for x in s))
        # each query reads the subset once, so a list or a generator will do
        for kind in (list, iter):
            assert p.closure(kind(subset)) == closure
            assert p.isolated_in(kind(subset)) == isolated
            assert p.derivative_in(kind(subset)) == s - isolated


def _small_subsets(p):
    els = p.elements
    return [[x for i, x in enumerate(els) if m >> i & 1] for m in range(1 << len(els))]


@pytest.mark.parametrize("build", [
    lambda: construct_poset(list("abcdef"), [("a", "b"), ("b", "c"), ("a", "c"), ("d", "c"), ("e", "f")]),
    lambda: construct_poset(list("abcde"), [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("e", "d")]),
    lambda: FinitePoset([f"v{i}" for i in range(9)], _random_dag(random.Random(5), 9)),
], ids=["skip", "long-skip", "random-dag"])
def test_mask_queries_match_leq_when_bitsets_are_built_eagerly(build):
    p = build()
    assert p._up is not None
    _assert_queries_match_leq(p, _small_subsets(p))


@pytest.mark.parametrize("build", [
    lambda: chain(*"abcdef"),
    lambda: fan(4),
    lambda: fan(4).dual(),
    lambda: construct_poset(list("abcd"), []),
    lambda: construct_poset(list("abcdef"), [(x, y) for x in "abc" for y in "def"]),
    lambda: construct_poset([], []),
], ids=["chain", "fan", "dual_fan", "antichain", "bipartite", "empty"])
def test_mask_queries_match_leq_when_bitsets_are_built_lazily(build):
    p = build()
    assert p._up is None
    _assert_queries_match_leq(p, _small_subsets(p))
    assert p._up is not None


@pytest.mark.parametrize("dual", [False, True], ids=["fan", "dual_fan"])
def test_mask_queries_match_leq_on_a_30000_point_fan(dual):
    p = fan(30000).dual() if dual else fan(30000)
    assert p._up is None
    subsets = [["m"], ["p1"], ["p1", "p2", "m"], ["p7", "p7", "m", "p7"],
               ["p30000", "p15000"], [], ["p3", "m", "p3"]]
    _assert_queries_match_leq(p, subsets)
    whole = frozenset(p.elements)
    generic = whole - {"m"} if not dual else frozenset(["m"])
    assert p.closure(whole) == whole
    assert p.isolated_in(whole) == generic and p.derivative_in(whole) == whole - generic


def test_subset_queries_take_repeats_and_generators():
    p = construct_poset(list("abcd"), [("a", "b"), ("b", "c"), ("a", "c")])
    for method in ("closure", "isolated_in", "derivative_in", "is_open"):
        query = getattr(p, method)
        want = query({"b", "d"})
        assert query(["b", "d", "b", "d", "d"]) == want
        assert query(x for x in "bdb") == want
        with pytest.raises(UnknownLabelError, match="^unknown element 'z'$"):
            query(x for x in "bz")


# -- rank ---------------------------------------------------------------------


def test_rank_examples():
    assert fan(5).rank_int() == 2
    assert chain("a", "b", "c").rank_int() == 3
    assert construct_poset([], []).rank_int() == 0


@given(posets())
def test_rank_is_height_plus_one(p):
    if len(p):
        assert p.rank_int() == p.height() + 1
    else:
        assert p.rank_int() == 0 and p.height() == -1


def _assert_peel_is_the_layers(p):
    """``_peel`` is the Cantor-Bendixson layers laid end to end, each block
    one layer as a set, the first listing the minimal points in element
    order; ``rank_int`` is the number of layers."""
    layers = cb_layers(p)
    peel = [p.elements[v] for v in p._peel]
    assert p.rank_int() == len(layers)
    start = 0
    for layer in layers:
        assert frozenset(peel[start:start + len(layer)]) == layer
        start += len(layer)
    assert start == len(peel) == len(p)
    if layers:
        assert peel[:len(layers[0])] == [x for x in p.elements if x in layers[0]]


@given(posets())
def test_peel_is_the_layers_end_to_end(p):
    _assert_peel_is_the_layers(p)


def test_peel_is_the_layers_end_to_end_on_every_small_poset():
    for n in range(5):
        for p in enumerate_labeled_posets(n):
            _assert_peel_is_the_layers(p)


@given(posets(max_size=4), posets(max_size=4))
def test_rank_of_disjoint_union_is_max(p, q):
    left = construct_poset([f"l{x}" for x in p.elements],
                           [(f"l{a}", f"l{b}") for a, b in p.covers])
    right = construct_poset([f"r{x}" for x in q.elements],
                            [(f"r{a}", f"r{b}") for a, b in q.covers])
    union = disjoint_union([left, right])
    assert union.rank_int() == max(left.rank_int(), right.rank_int())
    got = union.derivative_in(union.elements)
    want = left.derivative_in(left.elements) | right.derivative_in(right.elements)
    assert got == want


@given(st.lists(posets(max_size=4), min_size=1, max_size=4))
def test_disjoint_union_prefixes_every_part_on_a_clash(parts):
    """The sum of the parts at the label level: unchanged labels when no two
    parts share one, else every label x of part k written ``s{k}_x``."""
    union = disjoint_union(parts)
    labels = [x for part in parts for x in part.elements]
    clash = len(set(labels)) != len(labels)
    name = (lambda k, x: f"s{k}_{x}") if clash else (lambda k, x: x)
    want = construct_poset([name(k, x) for k, part in enumerate(parts) for x in part.elements],
                           [(name(k, a), name(k, b)) for k, part in enumerate(parts) for a, b in part.covers])
    assert union == want
    assert FinitePoset.from_json(union.to_json()) == union
    if len(parts) == 1:
        assert union is parts[0]
    assert disjoint_union([fan(2), fan(2)]).elements == ("s0_p1", "s0_p2", "s0_m", "s1_p1", "s1_p2", "s1_m")


def test_layers_partition_the_space():
    p = fan(4)
    layers = cb_layers(p)
    assert layers[0] == {"p1", "p2", "p3", "p4"}
    assert layers[1] == {"m"}


# -- duality --------------------------------------------------------------------


def test_dual_fan_is_cofan_shape():
    d = fan(3).dual()
    assert set(d.covers) == {("m", "p1"), ("m", "p2"), ("m", "p3")}
    assert cb_layers(d)[0] == {"m"}


@given(posets())
def test_dual_involution(p):
    assert p.dual().dual() == p


@given(posets())
def test_dual_preserves_rank(p):
    assert p.dual().rank_int() == p.rank_int()


def test_dual_singleton():
    s = construct_poset(["a"], [])
    assert s.dual() == s


# -- scatteredness -------------------------------------------------------------------


def test_scattered_examples():
    assert fan(4).scattered_via_closed_subsets()
    assert construct_poset([], []).scattered_via_closed_subsets()
    assert chain("a", "b", "c").scattered_via_closed_subsets()


# -- export ------------------------------------------------------------------------------


def test_export_singleton_json():
    assert json.loads(export(construct_poset(["a"], []), "json")) == {
        "labels": ["a"],
        "covers": [],
    }


def test_export_fan_dot():
    text = export(fan(2), "dot")
    assert '"p1" -> "m";' in text and '"p2" -> "m";' in text
    assert text.startswith("digraph")


def test_export_unknown_format():
    with pytest.raises(ValueError):
        export(fan(1), "xml")


@given(posets())
def test_export_json_roundtrip(p):
    assert FinitePoset.from_json(export(p, "json")) == p


# -- large mode ------------------------------------------------------------


def test_large_mode_matches_small_mode_semantics():
    # the same queries hold well above CLOSURE_LIMIT, which no code path reads
    n = 1200
    labels = [f"p{i}" for i in range(n)] + ["m"]
    big = construct_poset(labels, [(f"p{i}", "m") for i in range(n)])
    assert big.rank_int() == 2
    le = leq(big)
    assert le("p7", "m") and not le("m", "p7")
    assert big.closure({"p3"}) == {"p3", "m"}
    assert big.isolated_in({"p1", "p2", "m"}) == {"p1", "p2"}
    assert big.dual().rank_int() == 2
    assert big.scattered_via_closed_subsets(upset_budget=16)


@pytest.mark.parametrize("n", [999, 3000])  # on each side of CLOSURE_LIMIT
@pytest.mark.parametrize("flip", [False, True])
def test_deep_chain_isolation_and_layers(n, flip):
    labels = [f"c{i}" for i in range(n)]
    p = chain(*labels)
    if flip:
        p = p.dual()
        labels.reverse()
    bottom = labels[0]
    assert p.isolated_in(p.elements) == {bottom}
    assert p.derivative_in(p.elements) == frozenset(labels[1:])
    layers = cb_layers(p)
    assert len(layers) == n == p.rank_int() and all(layer == {x} for layer, x in zip(layers, labels))
    assert p.scattered_via_closed_subsets(upset_budget=0)


@pytest.mark.parametrize("n", [999, 1001, 3000])  # on each side of CLOSURE_LIMIT
def test_covers_are_canonical_at_every_size(n):
    labels = [f"c{i}" for i in range(n)]
    plain = chain(*labels)
    shortcut = construct_poset(labels, list(zip(labels, labels[1:])) + [("c0", "c2")])
    assert shortcut == plain and hash(shortcut) == hash(plain)
    assert len(shortcut.covers) == n - 1
    for fmt in ("json", "dot"):
        assert export(shortcut, fmt) == export(plain, fmt)


def _random_dag(rng, n):
    """Index pairs of a random DAG on n nodes: each node above up to three
    earlier ones, plus a fifth of the pairs a < c that skip one node b."""
    return _with_shortcuts(rng, sorted({(rng.randrange(b), b) for b in range(1, n)
                                        for _ in range(rng.randint(0, 3))}))


def _with_shortcuts(rng, edges):
    """The sorted ``edges`` plus a fifth of the pairs a < c that skip one node b."""
    above = {}
    for a, b in edges:
        above.setdefault(a, []).append(b)
    shortcuts = {(a, c) for a, b in edges for c in above.get(b, ()) if rng.random() < 0.2}
    return sorted(set(edges) | shortcuts)


@pytest.mark.parametrize("n", [50, 999, 1001, 2000])
def test_covers_match_networkx_transitive_reduction(n):
    nx = pytest.importorskip("networkx")
    edges = _random_dag(random.Random(n), n)
    labels = [f"v{i}" for i in range(n)]
    p = construct_poset(labels, [(labels[a], labels[b]) for a, b in edges])
    g = nx.DiGraph(edges)
    g.add_nodes_from(range(n))
    want = sorted(nx.transitive_reduction(g).edges())
    assert len(want) < len(edges)  # the input did hold transitive pairs
    assert p.covers == tuple((labels[a], labels[b]) for a, b in want)


def test_chain_and_dual_build_in_small_memory():
    labels = [f"c{i}" for i in range(1000)]
    tracemalloc.start()
    try:
        p = chain(*labels)
        p.dual()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_wide_fan_builds_in_linear_memory():
    # bits are numbered from the top, so each point's mask stays short
    n = 8000
    tracemalloc.start()
    try:
        p = fan(n)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p) == n + 1
    assert peak < 8 * 2**20
    assert held < 3 * 2**20


def _labelled(shape, n):
    """A chain, a ladder (i < i + 2) or a fan on n points, its labels and
    pairs made inside this call."""
    if shape == "fan":
        labels = [f"p{i}" for i in range(n - 1)] + ["m"]
        return construct_poset(labels, [(x, "m") for x in labels[:-1]])
    labels = [f"c{i}" for i in range(n)]
    return construct_poset(labels, list(zip(labels, labels[1 if shape == "chain" else 2:])))


@pytest.mark.parametrize("shape, bound", [("chain", 230), ("ladder", 230), ("fan", 260)])
def test_retained_memory_per_point(shape, bound):
    """The traced bytes a built poset keeps per point, counted from before its
    labels and pairs are made, at 50k points.  With the peel kept as one
    order and a rank it read 204.3 (chain and ladder) and 236.1 (fan); with a
    list per layer, 292.3 and 243.8, over the bounds here, and the fan's two
    layers the same 236.1."""
    n = 50_000
    tracemalloc.start()
    try:
        p = _labelled(shape, n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(p) == n and p.rank_int() == {"chain": n, "ladder": n // 2, "fan": 2}[shape]
    assert held <= bound * n


def test_dual_retains_no_second_label_index():
    """The traced bytes that ``dual()`` of a 50k chain keeps per point: it
    shares the chain's label index, so it holds the peel, the covers and the
    tables alone.  Building a second index read 137.1."""
    n = 50_000
    p = _labelled("chain", n)
    tracemalloc.start()
    try:
        q = p.dual()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert q.elements == p.elements and q.rank_int() == n
    assert held <= 100 * n


# -- covers by layer gap, reachability on first use ---------------------------------


@pytest.mark.parametrize("build", [
    lambda: chain(*[f"c{i}" for i in range(3000)]),
    lambda: construct_poset([f"a{i}" for i in range(3000)], []),
    lambda: fan(10000),
    lambda: fan(10000).dual(),
], ids=["chain", "antichain", "fan", "dual_fan"])
def test_layered_posets_build_no_bitsets_for_a_verdict(build):
    p = build()
    assert p._up is None
    p.rank_int()
    p.covers
    print_expr(Fin(p))
    q = normalize(Dual(Fin(p))).poset
    for r in (p, q):
        assert r._up is None and r._order is None and r._bit is None
        assert list(vars(r)) == _FIELDS
    assert p.height() == p.rank_int() - 1 and p._up is None
    x = p.elements[-1]
    assert x in p.closure([x]) and p._up is not None
    assert list(vars(p)) == _FIELDS


def test_pairs_that_skip_a_layer_are_reduced_eagerly():
    rng = random.Random(3)
    n = 300
    edges = _random_dag(rng, n)
    labels = [f"v{i}" for i in range(n)]
    p = FinitePoset(labels, edges)
    # the constructor built the whole index, the labels in bit order too
    assert p._up is not None and len(p._order) == n and list(vars(p)) == _FIELDS
    dropped = sorted(set(edges) - set(p._covers))
    assert dropped
    le = leq(p)
    for a, c in dropped:  # each dropped pair has a point strictly between
        assert le(labels[a], labels[c])
        assert any(le(labels[a], labels[b]) and le(labels[b], labels[c])
                   for b in range(n) if b not in (a, c))
    for x in labels[::37]:
        assert p.closure([x]) == {y for y in labels if le(x, y)}
    assert list(vars(p)) == _FIELDS
    shuffled = edges * 2
    rng.shuffle(shuffled)
    assert FinitePoset(labels, shuffled) == p
    assert FinitePoset(labels, p._covers) == p


def _index_of(p):
    """The reachability index, ``(_order, _bit, _up)``, or None when it is not
    built; it is never half built."""
    index = (p._order, p._bit, p._up)
    assert index == (None, None, None) or None not in index
    return None if p._up is None else index


# one call of each public name of FinitePoset, on a poset and one of its points
_PUBLIC_CALLS = {
    "closure": lambda p, x: p.closure([x]),
    "covers": lambda p, x: p.covers,
    "derivative_in": lambda p, x: p.derivative_in([x]),
    "dual": lambda p, x: p.dual(),
    "elements": lambda p, x: p.elements,
    "from_json": lambda p, x: FinitePoset.from_json(p.to_json()),
    "height": lambda p, x: p.height(),
    "is_open": lambda p, x: p.is_open([x]),
    "isolated_in": lambda p, x: p.isolated_in([x]),
    "rank_int": lambda p, x: p.rank_int(),
    "scattered_via_closed_subsets": lambda p, x: p.scattered_via_closed_subsets(),
    "to_json": lambda p, x: p.to_json(),
}


@pytest.mark.parametrize("seed", range(3))
def test_eager_and_lazy_builds_end_with_one_index(seed):
    # six levels of ten points, each point above one to three of the level
    # below: every cover climbs one layer, every shortcut skips one
    rng = random.Random(seed)
    covers = sorted({(rng.randrange(b // 10 * 10 - 10, b // 10 * 10), b)
                     for b in range(10, 60) for _ in range(rng.randint(1, 3))})
    edges = _with_shortcuts(rng, covers)
    labels = [f"v{i}" for i in range(60)]
    eager = FinitePoset(labels, edges)
    assert eager._covers == tuple(covers) and len(covers) < len(edges)
    assert sorted(_PUBLIC_CALLS) == [name for name in dir(FinitePoset) if not name.startswith("_")]
    builds_index = {"closure", "derivative_in", "isolated_in"}
    for name, call in _PUBLIC_CALLS.items():
        lazy = FinitePoset(labels, covers)
        assert _index_of(lazy) is None
        out = call(lazy, labels[seed])
        assert (_index_of(lazy) is not None) == (name in builds_index), name
        if isinstance(out, FinitePoset):
            _index_of(out)
        call(eager, labels[seed])
        assert _index_of(eager) is not None
        if name in builds_index:
            assert _index_of(lazy) == _index_of(eager)


def test_threads_racing_to_build_the_bitsets_agree():
    n = 2000
    els = [f"c{i}" for i in range(n)]
    probes = range(0, n, 97)
    want = [frozenset(els[i:]) for i in probes]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            p = chain(*els)  # a chain builds its bitsets on first use
            start = threading.Barrier(8)
            results = []

            def ask():
                start.wait()
                results.append([p.closure([els[i]]) for i in probes])

            threads = [threading.Thread(target=ask) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [want] * 8
    finally:
        sys.setswitchinterval(switch)
