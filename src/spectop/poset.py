"""Finite spectral spaces presented as finite posets.

Order convention
----------------
``x <= y`` means that y lies in the closure of {x} (y specializes x); for
a prime spectrum this is inclusion of prime ideals, p contained in q.
Under this convention the OPEN sets are exactly the down-sets of the
order, the closed sets are the up-sets, and the minimal elements are the
generic points.  The opposite convention is just as common elsewhere, so
every operation below is documented against this one.

Representation
--------------
One representation at every size.  An instance holds its labels, its peel
layers, its canonical covers and its up-set bitsets, and nothing else.  The
constructor peels the poset once, frontier by frontier (Kahn 1962): the
frontiers are the Cantor-Bendixson layers, the first of them lists the
minimal points, and their concatenation is a topological order.  Walking
that order backwards, it stores each point's strict up-set as a Python-int
bitset over the reverse order (bit k of ``_up[i]`` is set iff
i < ``_order[k]``), and keeps only the covering pairs of the input
(transitive reduction, Aho-Garey-Ullman 1972), so equality, hashing,
``covers`` and the exports never depend on the size or on redundant input
pairs.  Queries that need the order by cover read it from ``_covers``.
Numbering the bits from the top keeps masks short where up-sets are small:
a fan, its dual and an antichain take memory linear in their size.  Labels
are DSL identifiers, so every printed poset parses back.  Values are
immutable after construction and all operations are pure, so instances are
safe to share across threads.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Sequence

from .errors import CycleError, EmptySpaceError, UnknownLabelError
from .ordinal import Ordinal

# No code path depends on this size.  The benchmark's traced ``verdicts`` pass
# reads it to label its construction spans small/large, so it stays until then.
CLOSURE_LIMIT = 1000

Label = str

# A DSL identifier, the token the parser reads and every poset label must be:
# one or more characters that are ``str.isalnum()`` or "_" (exactly ``\w``).
IDENTIFIER = re.compile(r"\w+")


class FinitePoset:
    """A finite poset, i.e. a finite T_0 topological space.

    Build instances with :func:`construct_poset` or :meth:`from_json`;
    the constructor takes element labels plus covering pairs as index
    pairs and computes the reflexive-transitive closure itself.
    """

    def __init__(self, labels: Sequence[Label], cover_pairs: Iterable[tuple[int, int]]):
        self._labels = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(self._labels)}
        n = len(self._labels)
        pairs = sorted({(a, b) for a, b in cover_pairs})
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise UnknownLabelError(f"cover index out of range: {(a, b)}")
            if a == b:
                raise CycleError(f"self-loop on {self._labels[a]!r}")

        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in pairs:
            succ[a].append(b)
            indeg[b] += 1

        # one peel: frontier k holds the points removed by the k-th derivative;
        # the first frontier lists the minimal points in element order
        frontier = [v for v in range(n) if not indeg[v]]
        layers: list[list[int]] = []
        while frontier:
            layers.append(frontier)
            nxt = []
            for v in frontier:
                for w in succ[v]:
                    indeg[w] -= 1
                    if not indeg[w]:
                        nxt.append(w)
            frontier = nxt
        if sum(map(len, layers)) != n:
            raise CycleError("covering relation contains a cycle")

        # reachability bitsets and canonical covers in one backward pass: taking
        # a point's successors in peel order, a successor is a cover exactly
        # when no earlier successor already reaches it
        order = [v for layer in reversed(layers) for v in reversed(layer)]
        bit = [0] * n
        for k, v in enumerate(order):
            bit[v] = k
        up = [0] * n
        covers = []
        for v in order:
            reach = 0
            for w in sorted(succ[v], key=bit.__getitem__, reverse=True):
                if not reach >> bit[w] & 1:
                    covers.append((v, w))
                    reach |= up[w] | 1 << bit[w]
            up[v] = reach
        self._layers, self._order, self._bit, self._up = layers, order, bit, up
        self._covers = tuple(pairs) if len(covers) == len(pairs) else tuple(sorted(covers))

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self._labels == other._labels and self._covers == other._covers

    def __hash__(self) -> int:
        return hash((self._labels, self._covers))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements, {len(self._covers)} covers)"

    @property
    def elements(self) -> tuple[Label, ...]:
        return self._labels

    @property
    def covers(self) -> tuple[tuple[Label, Label], ...]:
        """Covering pairs (a, b) with a < b and nothing strictly between."""
        return tuple((self._labels[a], self._labels[b]) for a, b in self._covers)

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown element {label!r}") from None

    def _idx_set(self, labels: Iterable[Label]) -> frozenset[int]:
        try:
            return frozenset(map(self._index.__getitem__, labels))
        except KeyError as missing:
            raise UnknownLabelError(f"unknown element {missing.args[0]!r}") from None

    def _label_set(self, idxs: Iterable[int]) -> frozenset[Label]:
        return frozenset(map(self._labels.__getitem__, idxs))

    # -- order queries ---------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        """True iff a <= b, i.e. b is in the closure of {a}."""
        ia, ib = self.index(a), self.index(b)
        return ia == ib or bool(self._up[ia] >> self._bit[ib] & 1)

    def _points(self, mask: int) -> list[int]:
        """The points whose bits are set in ``mask``."""
        bits = bin(mask)[:1:-1]
        out = []
        k = bits.find("1")
        while k >= 0:
            out.append(self._order[k])
            k = bits.find("1", k + 1)
        return out

    # -- topology ---------------------------------------------------------

    def closure(self, subset: Iterable[Label]) -> frozenset[Label]:
        """Topological closure: the up-set generated by ``subset``."""
        mask = 0
        for i in self._idx_set(subset):
            mask |= self._up[i] | 1 << self._bit[i]
        return self._label_set(self._points(mask))

    def is_open(self, subset: Iterable[Label]) -> bool:
        """True iff ``subset`` is a down-set of the order."""
        s = self._idx_set(subset)
        return not any(b in s and a not in s for a, b in self._covers)

    def _isolated_idx(self, s: frozenset[int]) -> frozenset[int]:
        # isolated in the subspace s <=> minimal within the induced order,
        # i.e. not strictly above another point of s
        above = 0
        for x in s:
            above |= self._up[x]
        return frozenset(x for x in s if not above >> self._bit[x] & 1)

    def isolated_in(self, subset: Iterable[Label]) -> frozenset[Label]:
        """The points of ``subset`` isolated in its subspace topology."""
        return self._label_set(self._isolated_idx(self._idx_set(subset)))

    def derivative_in(self, subset: Iterable[Label]) -> frozenset[Label]:
        """One Cantor-Bendixson step: drop the isolated points of the subspace."""
        s = self._idx_set(subset)
        return self._label_set(s - self._isolated_idx(s))

    # -- Cantor-Bendixson layering ----------------------------------------

    def cb_layers(self) -> list[frozenset[Label]]:
        """Peeling layers: layer k holds the points removed by the k-th
        derivative, i.e. the k-th frontier of the constructor's peel."""
        return [self._label_set(layer) for layer in self._layers]

    def rank_int(self) -> int:
        """Least k with the k-th derivative empty (0 for the empty poset)."""
        return len(self._layers)

    def rank(self) -> Ordinal:
        return Ordinal.from_int(self.rank_int())

    def height(self) -> int:
        """Longest chain, counted in edges; -1 for the empty poset.

        Computed by a longest-path pass over the covers in topological
        order.  It uses the peel's order but not its layer count, so it
        checks ``rank_int`` independently.
        """
        succ: list[list[int]] = [[] for _ in self._labels]
        for a, b in self._covers:
            succ[a].append(b)
        dist = [0] * len(self._labels)
        for v in reversed(self._order):
            dv = dist[v] + 1
            for w in succ[v]:
                if dist[w] < dv:
                    dist[w] = dv
        return max(dist, default=-1)

    # -- duality -----------------------------------------------------------

    def dual(self) -> "FinitePoset":
        """The Hochster dual: same elements, reversed order."""
        return FinitePoset(self._labels, [(b, a) for a, b in self._covers])

    # -- separation and isolation ------------------------------------------

    def minimal_elements(self) -> tuple[Label, ...]:
        """Generic points, in element order."""
        return tuple(map(self._labels.__getitem__, self._layers[0])) if self._layers else ()

    def td_witness(self, x: Label) -> tuple[frozenset[Label], bool]:
        """Return W = (X minus cl{x}) union {x} and whether W is open.

        The flag is True for every point of every finite poset; it is
        returned rather than asserted so the construction stays checkable.
        """
        i = self.index(x)
        w = ((1 << len(self._labels)) - 1) ^ self._up[i]
        labels = self._label_set(self._points(w))
        return labels, self.is_open(labels)

    def find_isolated(self) -> tuple[Label, frozenset[Label], frozenset[Label]]:
        """Constructive isolated point: (x, U, W) with U, W open and
        U * W = {x}.

        Replays the generic-point recipe: x is the first minimal element
        in element order (minimal elements form a discrete subspace, so
        any of them is isolated there), U is the smallest open set
        containing x, which is {x} because x is minimal, and W is the
        td_witness open of x.
        """
        if not self._labels:
            raise EmptySpaceError("the empty space has no isolated point")
        x = self.minimal_elements()[0]
        u = frozenset([x])
        w, w_open = self.td_witness(x)
        if not (w_open and self.is_open(u) and (u & w) == {x}):
            raise AssertionError(f"isolated-point recipe failed on {self!r} at {x!r}")
        return x, u, w

    # -- scatteredness -------------------------------------------------------

    def scattered_via_closed_subsets(self, upset_budget: int | None = None) -> bool:
        """True iff every nonempty closed subset has an isolated point.

        Every finite T_0 space is scattered: a nonempty subset has a minimal
        point, and a minimal point is isolated in it.  The constructor
        rejects cycles (``CycleError``), so the order is antisymmetric, the
        space is T_0, and its peel layers (the successive derivatives) cover
        every point.  ``oracle.oracle_scattered`` checks this from the
        definition.
        """
        # upset_budget is ignored; the benchmark's suite workload still passes it
        return sum(map(len, self._layers)) == len(self._labels)

    # -- combination ---------------------------------------------------------

    def disjoint_union(self, other: "FinitePoset") -> "FinitePoset":
        clash = set(self._labels) & set(other._labels)
        if clash:
            raise ValueError(f"label clash in disjoint union: {sorted(clash)}")
        labels = self._labels + other._labels
        shift = len(self._labels)
        pairs = list(self._covers) + [(a + shift, b + shift) for a, b in other._covers]
        return FinitePoset(labels, pairs)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"labels": list(self._labels), "covers": [list(c) for c in self.covers]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def to_dot(self) -> str:
        lines = ["digraph poset {"]
        for lab in self._labels:
            lines.append(f'  "{lab}";')
        for a, b in self.covers:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        """Read ``{"labels": [...], "covers": [[a, b], ...]}``; any other
        shape raises ``ValueError``."""
        data = json.loads(text)
        if not (isinstance(data, dict) and isinstance(data.get("labels"), list)
                and isinstance(data.get("covers"), list)
                and all(isinstance(c, list) and len(c) == 2 for c in data["covers"])):
            raise ValueError('poset JSON must be {"labels": [...], "covers": [[a, b], ...]}')
        return construct_poset(data["labels"], [tuple(c) for c in data["covers"]])


# -- module-level operation surface ------------------------------------------


def construct_poset(labels: Sequence[Label], covers: Iterable[tuple[Label, Label]]) -> FinitePoset:
    """Build the poset whose order is the reflexive-transitive closure of
    ``covers``; rejects cycles, unknown labels and labels that are not
    DSL identifiers."""
    labels = list(labels)
    # one match over the joined labels; only a failure looks label by label,
    # to name the first bad one
    if not (all(isinstance(lab, str) and lab for lab in labels) and IDENTIFIER.fullmatch("".join(labels))):
        for lab in labels:
            if not (isinstance(lab, str) and IDENTIFIER.fullmatch(lab)):
                raise ValueError(f"label {lab!r} is not an identifier (letters, digits, underscore)")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = []
    for a, b in covers:
        if not (isinstance(a, str) and a in index):
            raise UnknownLabelError(f"unknown element {a!r}")
        if not (isinstance(b, str) and b in index):
            raise UnknownLabelError(f"unknown element {b!r}")
        pairs.append((index[a], index[b]))
    return FinitePoset(labels, pairs)


def export(poset: FinitePoset, fmt: str) -> str:
    """Serialize to ``dot`` (covering edges only) or ``json``."""
    if fmt == "dot":
        return poset.to_dot()
    if fmt == "json":
        return poset.to_json()
    raise ValueError(f"unknown export format {fmt!r}")
