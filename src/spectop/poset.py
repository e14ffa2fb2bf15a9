"""Finite spectral spaces presented as finite posets.

Order convention
----------------
``x <= y`` means that y lies in the closure of {x} (y specializes x); for
a prime spectrum this is inclusion of prime ideals, p contained in q.
Under this convention the OPEN sets are exactly the down-sets of the
order, the closed sets are the up-sets, and the minimal elements are the
generic points.  The opposite convention is just as common elsewhere, so
every operation below is documented against this one.

Reachability is stored as per-element closure sets for posets of at most
``CLOSURE_LIMIT`` elements and recomputed by traversal above that size;
both representations sit behind ``leq`` and the two closure helpers.  The
constructor peels the poset once, frontier by frontier (Kahn 1962): the
frontiers are the Cantor-Bendixson layers and their concatenation is the
topological order.  Values are immutable after construction and all
operations are pure; the one lazily cached value (height) is recomputed
idempotently, so instances are safe to share across threads.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Sequence

from .errors import CycleError, EmptySpaceError, UnknownLabelError
from .ordinal import Ordinal

CLOSURE_LIMIT = 1000

Label = str


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
            if a == b:
                raise CycleError(f"self-loop on {self._labels[a]!r}")
            if not (0 <= a < n and 0 <= b < n):
                raise UnknownLabelError(f"cover index out of range: {(a, b)}")

        self._up_adj: list[list[int]] = [[] for _ in range(n)]
        self._down_adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in pairs:
            self._up_adj[a].append(b)
            self._down_adj[b].append(a)

        # one peel: frontier k holds the points removed by the k-th derivative
        indeg = [len(below) for below in self._down_adj]
        frontier = [v for v in range(n) if not indeg[v]]
        layers: list[list[int]] = []
        while frontier:
            layers.append(frontier)
            nxt = []
            for v in frontier:
                for w in self._up_adj[v]:
                    indeg[w] -= 1
                    if not indeg[w]:
                        nxt.append(w)
            frontier = nxt
        self._topo = [v for layer in layers for v in layer]
        if len(self._topo) != n:
            raise CycleError("covering relation contains a cycle")
        self._layers = layers

        if n <= CLOSURE_LIMIT:
            up_sets: list[frozenset[int]] = [frozenset()] * n
            for v in reversed(self._topo):
                s = {v}
                for w in self._up_adj[v]:
                    s |= up_sets[w]
                up_sets[v] = frozenset(s)
            down_sets: list[frozenset[int]] = [frozenset()] * n
            for v in self._topo:
                s = {v}
                for w in self._down_adj[v]:
                    s |= down_sets[w]
                down_sets[v] = frozenset(s)
            self._up_sets: tuple[frozenset[int], ...] | None = tuple(up_sets)
            self._down_sets: tuple[frozenset[int], ...] | None = tuple(down_sets)
            # canonical covers: drop transitive pairs; every true cover must
            # already be among the input pairs, so filtering them suffices
            covers = [
                (a, b)
                for a, b in pairs
                if len(up_sets[a] & down_sets[b]) == 2
            ]
            self._covers = tuple(covers)
            if self._covers != tuple(pairs):
                self._up_adj = [[] for _ in range(n)]
                self._down_adj = [[] for _ in range(n)]
                for a, b in self._covers:
                    self._up_adj[a].append(b)
                    self._down_adj[b].append(a)
        else:
            # large mode: input pairs are trusted as covering edges
            self._up_sets = None
            self._down_sets = None
            self._covers = tuple(pairs)

        self._height: int | None = None

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
        return frozenset(self.index(x) for x in labels)

    def _label_set(self, idxs: Iterable[int]) -> frozenset[Label]:
        return frozenset(self._labels[i] for i in idxs)

    # -- order queries ---------------------------------------------------

    def leq(self, a: Label, b: Label) -> bool:
        """True iff a <= b, i.e. b is in the closure of {a}."""
        ia, ib = self.index(a), self.index(b)
        if self._up_sets is not None:
            return ib in self._up_sets[ia]
        return ib in self._reach(frozenset([ia]), self._up_adj)

    @staticmethod
    def _reach(start: frozenset[int], adj: list[list[int]]) -> set[int]:
        seen = set(start)
        stack = list(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def _up_closure_idx(self, s: frozenset[int]) -> frozenset[int]:
        if self._up_sets is not None:
            out: set[int] = set()
            for i in s:
                out |= self._up_sets[i]
            return frozenset(out)
        return frozenset(self._reach(s, self._up_adj))

    def _down_closure_idx(self, s: frozenset[int]) -> frozenset[int]:
        if self._down_sets is not None:
            out: set[int] = set()
            for i in s:
                out |= self._down_sets[i]
            return frozenset(out)
        return frozenset(self._reach(s, self._down_adj))

    # -- topology ---------------------------------------------------------

    def closure(self, subset: Iterable[Label]) -> frozenset[Label]:
        """Topological closure: the up-set generated by ``subset``."""
        return self._label_set(self._up_closure_idx(self._idx_set(subset)))

    def is_open(self, subset: Iterable[Label]) -> bool:
        """True iff ``subset`` is a down-set of the order."""
        s = self._idx_set(subset)
        return all(d in s for x in s for d in self._down_adj[x])

    def is_closed(self, subset: Iterable[Label]) -> bool:
        s = self._idx_set(subset)
        return all(u in s for x in s for u in self._up_adj[x])

    def _isolated_idx(self, s: frozenset[int]) -> frozenset[int]:
        # isolated in the subspace s <=> minimal within the induced order,
        # i.e. not strictly above another point of s
        above = frozenset(w for x in s for w in self._up_adj[x])
        return s - self._up_closure_idx(above)

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
        if self._height is None:
            n = len(self._labels)
            if n == 0:
                self._height = -1
            else:
                dist = [0] * n
                for v in self._topo:
                    dv = dist[v] + 1
                    for w in self._up_adj[v]:
                        if dist[w] < dv:
                            dist[w] = dv
                self._height = max(dist)
        return self._height

    # -- duality -----------------------------------------------------------

    def dual(self) -> "FinitePoset":
        """The Hochster dual: same elements, reversed order."""
        return FinitePoset(self._labels, [(b, a) for a, b in self._covers])

    # -- separation and isolation ------------------------------------------

    def minimal_elements(self) -> tuple[Label, ...]:
        """Generic points, in element order."""
        return tuple(x for i, x in enumerate(self._labels) if not self._down_adj[i])

    def td_witness(self, x: Label) -> tuple[frozenset[Label], bool]:
        """Return W = (X minus cl{x}) union {x} and whether W is open.

        The flag is True for every point of every finite poset; it is
        returned rather than asserted so the construction stays checkable.
        """
        i = self.index(x)
        cl = self._up_closure_idx(frozenset([i]))
        w = (frozenset(range(len(self._labels))) - cl) | {i}
        labels = self._label_set(w)
        return labels, self.is_open(labels)

    def find_isolated(self) -> tuple[Label, frozenset[Label], frozenset[Label]]:
        """Constructive isolated point: (x, U, W) with U, W open and
        U * W = {x}.

        Replays the generic-point recipe: x is the first minimal element
        in element order (minimal elements form a discrete subspace, so
        any of them is isolated there), U is the smallest open set
        containing x, and W is the td_witness open of x.
        """
        if not self._labels:
            raise EmptySpaceError("the empty space has no isolated point")
        mins = self.minimal_elements()
        x = mins[0]
        u = self._label_set(self._down_closure_idx(frozenset([self.index(x)])))
        w, w_open = self.td_witness(x)
        if not (w_open and self.is_open(u) and (u & w) == {x}):
            raise AssertionError(f"isolated-point recipe failed on {self!r} at {x!r}")
        return x, u, w

    # -- scatteredness -------------------------------------------------------

    def iter_downsets(self) -> Iterator[frozenset[int]]:
        """All down-sets (open sets) as index sets, each exactly once.

        Iterative backtracking over a topological order: an element may be
        included only when all its cover-predecessors are, and exclusion
        is always allowed.  Depth-first, so memory stays linear even when
        the family is exponential.
        """
        topo = self._topo
        total = len(topo)
        included: set[int] = set()
        branch: list[str] = []
        k = 0
        while True:
            if k == total:
                yield frozenset(included)
                advanced = False
                while branch:
                    last = branch.pop()
                    k -= 1
                    v = topo[k]
                    if last == "I":
                        # include branch exhausted; take the exclude branch
                        included.discard(v)
                        branch.append("E")
                        k += 1
                        advanced = True
                        break
                if not advanced:
                    return
            else:
                v = topo[k]
                if all(p in included for p in self._down_adj[v]):
                    included.add(v)
                    branch.append("I")
                else:
                    branch.append("E")
                k += 1

    def scattered_via_closed_subsets(self, upset_budget: int = 1 << 16) -> bool:
        """True iff every nonempty closed subset has an isolated point.

        Scans the up-sets one by one.  When there are more than
        ``upset_budget`` of them (families of up-sets grow exponentially,
        e.g. on antichains), falls back to the perfect-kernel argument:
        any closed set without isolated points survives every derivative
        step, so iterating the derivative from the full space reaches a
        nonempty fixpoint iff such a set exists.
        """
        full = frozenset(range(len(self._labels)))
        count = 0
        for ds in self.iter_downsets():
            up = full - ds
            if not up:
                continue
            count += 1
            if count > upset_budget:
                return self._kernel_is_empty()
            if not self._isolated_idx(up):
                return False
        return True

    def _kernel_is_empty(self) -> bool:
        # the stored layers are the successive derivatives of the space, so
        # the perfect kernel is empty iff they cover every point
        return sum(map(len, self._layers)) == len(self._labels)

    # -- combination ---------------------------------------------------------

    def restrict(self, members: Iterable[Label]) -> "FinitePoset":
        """The induced subposet on ``members`` (subspace topology)."""
        keep = sorted(self._idx_set(members))
        labels = [self._labels[i] for i in keep]
        renum = {old: new for new, old in enumerate(keep)}
        pairs = []
        for i in keep:
            for j in self._up_closure_idx(frozenset([i])):
                if j != i and j in renum:
                    pairs.append((renum[i], renum[j]))
        return FinitePoset(labels, pairs)

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
        data = json.loads(text)
        return construct_poset(data["labels"], [tuple(c) for c in data["covers"]])


# -- module-level operation surface ------------------------------------------


def construct_poset(labels: Sequence[Label], covers: Iterable[tuple[Label, Label]]) -> FinitePoset:
    """Build the poset whose order is the reflexive-transitive closure of
    ``covers``; rejects cycles and unknown labels."""
    labels = list(labels)
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be distinct")
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = []
    for a, b in covers:
        if a not in index:
            raise UnknownLabelError(f"unknown element {a!r}")
        if b not in index:
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
