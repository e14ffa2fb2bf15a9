import json
import random
import tracemalloc

import pytest
from hypothesis import given

from spectop import (CycleError, EmptySpaceError, FinitePoset, Ordinal,
                     UnknownLabelError, construct_poset, downset_topology, export)

from conftest import posets


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
    p = fan(2)
    assert p.leq("p1", "m") and p.leq("p2", "m")
    assert not p.leq("m", "p1") and not p.leq("p1", "p2")


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


def test_transitive_input_reduces_to_covers():
    direct = construct_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with_shortcut = construct_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert direct == with_shortcut
    assert with_shortcut.covers == (("a", "b"), ("b", "c"))


@given(posets())
def test_partial_order_laws(p):
    els = p.elements
    for x in els:
        assert p.leq(x, x)
    for x in els:
        for y in els:
            if p.leq(x, y) and p.leq(y, x):
                assert x == y
            for z in els:
                if p.leq(x, y) and p.leq(y, z):
                    assert p.leq(x, z)


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


@given(posets())
def test_closure_is_smallest_closed_superset(p):
    for x in p.elements:
        s = frozenset([x])
        cl = p.closure(s)
        assert s <= cl and p.is_closed(cl)
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


def test_subspace_rejects_foreign_members():
    with pytest.raises(UnknownLabelError):
        chain("a", "b").isolated_in({"z"})
    with pytest.raises(UnknownLabelError):
        chain("a", "b").derivative_in({"a", "z"})


def test_derivative_examples():
    p = fan(3)
    assert p.derivative_in(p.elements) == {"m"}
    assert p.derivative_in({"m"}) == frozenset()
    assert p.derivative_in(set()) == frozenset()


def test_isolated_in_subspace_is_minimal_in_induced_order():
    p = construct_poset(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "d")])
    sub = {"b", "c", "d"}
    induced = p.restrict(sub)
    assert p.isolated_in(sub) == frozenset(induced.minimal_elements())


# -- rank ---------------------------------------------------------------------


def test_rank_examples():
    assert fan(5).rank() == Ordinal.from_int(2)
    assert chain("a", "b", "c").rank() == Ordinal.from_int(3)
    assert construct_poset([], []).rank() == Ordinal.from_int(0)


@given(posets())
def test_rank_is_height_plus_one(p):
    if len(p):
        assert p.rank_int() == p.height() + 1
    else:
        assert p.rank_int() == 0 and p.height() == -1


@given(posets(max_size=4), posets(max_size=4))
def test_rank_of_disjoint_union_is_max(p, q):
    left = construct_poset([f"l{x}" for x in p.elements],
                           [(f"l{a}", f"l{b}") for a, b in p.covers])
    right = construct_poset([f"r{x}" for x in q.elements],
                            [(f"r{a}", f"r{b}") for a, b in q.covers])
    union = left.disjoint_union(right)
    assert union.rank_int() == max(left.rank_int(), right.rank_int())
    got = union.derivative_in(union.elements)
    want = left.derivative_in(left.elements) | right.derivative_in(right.elements)
    assert got == want


def test_disjoint_union_rejects_label_clash():
    with pytest.raises(ValueError):
        fan(2).disjoint_union(fan(2))


def test_layers_partition_the_space():
    p = fan(4)
    layers = p.cb_layers()
    assert layers[0] == {"p1", "p2", "p3", "p4"}
    assert layers[1] == {"m"}


# -- duality --------------------------------------------------------------------


def test_dual_fan_is_cofan_shape():
    d = fan(3).dual()
    assert set(d.covers) == {("m", "p1"), ("m", "p2"), ("m", "p3")}
    assert d.minimal_elements() == ("m",)


@given(posets())
def test_dual_involution(p):
    assert p.dual().dual() == p


@given(posets())
def test_dual_preserves_rank(p):
    assert p.dual().rank_int() == p.rank_int()


def test_dual_singleton():
    s = construct_poset(["a"], [])
    assert s.dual() == s


# -- separation witnesses ----------------------------------------------------------


def test_td_witness_examples():
    p = fan(2)
    w, ok = p.td_witness("p1")
    assert w == {"p1", "p2"} and ok
    w, ok = p.td_witness("m")
    assert w == {"p1", "p2", "m"} and ok
    anti = construct_poset(["a", "b"], [])
    w, ok = anti.td_witness("a")
    assert w == {"a", "b"} and ok


@given(posets())
def test_td_witness_always_open(p):
    for x in p.elements:
        w, ok = p.td_witness(x)
        assert ok
        assert x in w


def test_td_witness_unknown_point():
    with pytest.raises(UnknownLabelError):
        fan(2).td_witness("zz")


# -- scatteredness -------------------------------------------------------------------


def test_scattered_examples():
    assert fan(4).scattered_via_closed_subsets()
    assert construct_poset([], []).scattered_via_closed_subsets()
    assert chain("a", "b", "c").scattered_via_closed_subsets()


# -- constructive isolated point --------------------------------------------------------


def test_find_isolated_examples():
    x, u, w = fan(2).find_isolated()
    assert x == "p1" and u == {"p1"} and w == {"p1", "p2"}
    x, u, w = chain("a", "b", "c").find_isolated()
    assert x == "a" and u == {"a"} and u & w == {"a"}
    s = construct_poset(["a"], [])
    assert s.find_isolated() == ("a", {"a"}, {"a"})


def test_find_isolated_empty_space():
    with pytest.raises(EmptySpaceError):
        construct_poset([], []).find_isolated()


@given(posets())
def test_find_isolated_witness_laws(p):
    if not len(p):
        return
    x, u, w = p.find_isolated()
    assert p.is_open(u) and p.is_open(w)
    assert u & w == {x}
    assert p.is_open({x})


def test_find_isolated_tie_break_uses_element_order():
    p = construct_poset(["z", "a", "m"], [("z", "m"), ("a", "m")])
    x, _, _ = p.find_isolated()
    assert x == "z"


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


# -- restriction and large mode ------------------------------------------------------------


def test_restrict_induces_suborder():
    p = chain("a", "b", "c")
    r = p.restrict({"a", "c"})
    assert r.elements == ("a", "c")
    assert r.leq("a", "c") and not r.leq("c", "a")


def test_large_mode_matches_small_mode_semantics():
    # the same queries hold well above CLOSURE_LIMIT, which no code path reads
    n = 1200
    labels = [f"p{i}" for i in range(n)] + ["m"]
    big = construct_poset(labels, [(f"p{i}", "m") for i in range(n)])
    assert big.rank_int() == 2
    assert big.leq("p7", "m") and not big.leq("m", "p7")
    assert big.closure({"p3"}) == {"p3", "m"}
    assert big.isolated_in({"p1", "p2", "m"}) == {"p1", "p2"}
    assert big.dual().rank_int() == 2
    x, u, w = big.find_isolated()
    assert x == "p0" and u == {"p0"}
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
    layers = p.cb_layers()
    assert len(layers) == n and all(layer == {x} for layer, x in zip(layers, labels))
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
    edges = sorted({(rng.randrange(b), b) for b in range(1, n) for _ in range(rng.randint(0, 3))})
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
        fan(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
