from graphlib import TopologicalSorter

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from spectop import (CANTOR, COFAN, FAN, OMEGA_PLUS_ONE, Con, Dual, Fin,
                     Ordinal, Sum, Tower, construct_poset)

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@st.composite
def posets(draw, max_size: int = 6):
    """Random finite posets via forward-only cover edges (always acyclic)."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    labels = [f"x{i}" for i in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                covers.append((labels[i], labels[j]))
    return construct_poset(labels, covers)


def leq(poset):
    """The order of ``poset`` as a predicate: ``leq(p)(a, b)`` is true iff
    a <= b.  Read from ``poset.covers`` alone, so it is a reference that owes
    nothing to the poset's reachability index."""
    succ = {x: [] for x in poset.elements}
    for a, b in poset.covers:
        succ[a].append(b)
    above = {x: {x} for x in poset.elements}
    # each point comes after its upper covers, whose up-sets are then whole
    for x in TopologicalSorter(succ).static_order():
        for y in succ[x]:
            above[x] |= above[y]
    return lambda a, b: b in above[a]


def cb_layers(poset) -> list[frozenset]:
    """The Cantor-Bendixson layers of a finite poset from the definition:
    layer k holds the points isolated in what k derivatives leave, found
    by ``isolated_in`` on the remaining subspace until nothing is left."""
    layers, rest = [], frozenset(poset.elements)
    while rest:
        isolated = poset.isolated_in(rest)
        assert isolated, f"no isolated point among {sorted(rest)}"
        layers.append(isolated)
        rest -= isolated
    return layers


def ordinals():
    """Canonical CNF ordinals with a handful of terms."""

    @st.composite
    def build(draw):
        exponents = draw(st.sets(st.integers(min_value=0, max_value=6), max_size=4))
        terms = tuple(
            (e, draw(st.integers(min_value=1, max_value=9)))
            for e in sorted(exponents, reverse=True)
        )
        return Ordinal(terms)

    return build()


def tower_ranks():
    return st.sampled_from(
        [
            Ordinal(),
            Ordinal.from_int(1),
            Ordinal.from_int(4),
            Ordinal(((1, 1), (0, 1))),
            Ordinal(((2, 3), (0, 2))),
        ]
    )


def space_exprs(max_leaves: int = 8):
    leaves = st.one_of(
        st.sampled_from([FAN, COFAN, OMEGA_PLUS_ONE, CANTOR]),
        tower_ranks().map(Tower),
        posets(max_size=4).map(Fin),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            children.map(Dual),
            children.map(Con),
            st.tuples(children, children).map(lambda pair: Sum(*pair)),
        ),
        max_leaves=max_leaves,
    )
