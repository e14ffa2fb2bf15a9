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
order and rank, its canonical covers, a table of each point's lower covers
and one reachability index, and nothing else.  The constructor peels the
poset once, frontier by frontier (Kahn 1962): the frontiers are the
Cantor-Bendixson layers, the first of them lists the minimal points, and
the peel order ``_peel`` is their concatenation, a topological order kept
as one list; the rank ``_rank`` is their count.  No reader needs to know
where a layer ends, so nothing else of them is kept.  A pair whose layers
differ by exactly one is a cover, since a point strictly between would put
its head two layers above its tail; when every input pair is one layer
apart (chains, antichains, fans and their duals), the sorted pairs are the
covers and nothing more is built.

The index is built in one place, ``_reach``: a walk of the peel order
backwards stores each point's strict up-set as a Python-int bitset over
the reverse order (bit k of ``_up[i]`` is set iff i lies strictly below
the point of bit k, whose label is ``_order[k]``) and keeps only the
covering pairs of the successors it walks (transitive reduction,
Aho-Garey-Ullman 1972).  The constructor calls it on the input pairs when
one of them skips a layer, and keeps the covers it returns; otherwise the
first subset query (``closure``, ``isolated_in``, ``derivative_in``) calls
it on the covers.  Either way the index is whole or absent, and equality,
hashing, ``covers`` and the exports never depend on the size or on
redundant input pairs.  ``is_open`` and ``height`` never build the
index: they read the lower-cover table, built from the covers on the
first call of either.  A subset is open iff each of its points has
its lower covers in it, which costs the subset's size plus the covers into
it, and the height is a longest-path pass over the lower covers.  The
rank, the covers and the exports read only the peel and the covers.

A subset query works on two masks built from its input labels: the
subset's own bits and the OR of its points' up-sets.  The closure is
their union, the isolated points are the subset's bits outside the
up-sets, the derivative those inside, and the answer is decoded to labels
in one C-level pass that selects labels from ``_order`` by the mask's
binary digits.  Numbering the bits from the top keeps masks short where
up-sets are small: a fan, its dual and an antichain take memory linear in
their size.

Every instance sets the same nine attributes in the same order in its
constructor, the lazy ones as None, and never adds one later, so CPython
keeps sharing one key layout across instances.  Labels are DSL
identifiers, so every printed poset parses back.  Values do not change
after construction and all operations are pure: a lazily built table is
a cache, and two threads that race to fill it compute the same value, so
instances are safe to share across threads.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress
from typing import Iterable, Sequence

from .errors import CycleError, UnknownLabelError, quote

# benchmark hook: ROADMAP 1(a)
# No code path depends on this size.  The benchmark's traced ``verdicts`` pass
# reads it to label its construction spans small/large, so it stays until then.
CLOSURE_LIMIT = 1000

Label = str

# A DSL identifier, the token the parser reads and every poset label must be:
# one or more characters that are ``str.isalnum()`` or "_" (exactly ``\w``).
IDENTIFIER = re.compile(r"\w+")

# bin()'s digits as the bytes 0 and 1, selectors for itertools.compress
_BITS = bytes.maketrans(b"01", b"\0\1")


def _successors(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Each point's heads among ``pairs``, in the pairs' order."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        succ[a].append(b)
    return succ


class FinitePoset:
    """A finite poset, i.e. a finite T_0 topological space.

    Build instances with :func:`construct_poset` or :meth:`from_json`;
    the constructor takes element labels plus index pairs, in any order and
    with repeats, whose reflexive-transitive closure is the order.  The
    labels may come as a dict from each label to its position, which the
    poset then keeps as its index.
    """

    def __init__(self, labels: Sequence[Label] | dict[Label, int],
                 cover_pairs: Iterable[tuple[int, int]]):
        self._labels = tuple(labels)
        # a dict maps each label to its position, as construct_poset builds it:
        # kept as the index, so a labelled build hashes its labels once
        self._index = labels if type(labels) is dict else {lab: i for i, lab in enumerate(self._labels)}
        n = len(self._labels)
        # one walk over the pairs sorted, so a repeat follows its twin (timsort
        # is linear on sorted input; tuple() keeps a tuple pair, copies a list)
        pairs, last = [], None
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for pair in sorted(map(tuple, cover_pairs)):
            if pair == last:
                continue
            a, b = last = pair
            if not (0 <= a < n and 0 <= b < n):
                raise UnknownLabelError(f"cover index out of range: {(a, b)}")
            if a == b:
                raise CycleError(f"self-loop on {quote(self._labels[a])}")
            pairs.append(pair)
            succ[a].append(b)
            indeg[b] += 1

        # one peel: the points in the order the derivatives remove them, the
        # minimal points first in element order.  Layer k is whole once the
        # walk reaches its start, since its points are freed from layer k - 1.
        peel = [v for v in range(n) if not indeg[v]]
        layer_of = [0] * n
        rank = end = 0
        for i, v in enumerate(peel):  # walks on over the points it appends
            if i == end:
                rank, end = rank + 1, len(peel)
            for w in succ[v]:
                indeg[w] -= 1
                if not indeg[w]:
                    layer_of[w] = rank
                    peel.append(w)
        if len(peel) != n:
            raise CycleError("covering relation contains a cycle")

        self._peel, self._rank = peel, rank
        self._covers = self._below = self._order = self._bit = self._up = None
        # every pair climbs at least one layer, and one that climbs exactly one
        # is a cover: a point strictly between would put its head two layers
        # above its tail.  Only a pair that skips a layer needs reachability.
        if all(layer_of[b] - layer_of[a] == 1 for a, b in pairs):
            self._covers = tuple(pairs)
        else:
            covers = self._reach(succ)
            self._covers = tuple(pairs if len(covers) == len(pairs) else sorted(covers))

    def _reach(self, succ: list[list[int]] | None = None) -> list[tuple[int, int]]:
        """Build the reachability index from each point's heads ``succ``, by
        default from the covers, and return the covering pairs among them.

        One pass over ``order``, the peel reversed (top layer first; ``bit[v]``
        is v's place in it, and bit k of ``up[i]`` is set iff i < ``order[k]``):
        taking a point's successors in peel order, a successor is a cover
        exactly when no earlier successor already reaches it.
        """
        labels = self._labels
        if succ is None:
            succ = _successors(len(labels), self._covers)
        order = self._peel[::-1]
        bit = [0] * len(order)
        for k, v in enumerate(order):
            bit[v] = k
        up = [0] * len(order)
        covers = []
        for v in order:
            reach = 0
            successors = succ[v]
            if len(successors) > 1:
                successors = sorted(successors, key=bit.__getitem__, reverse=True)
            for w in successors:
                if not reach >> bit[w] & 1:
                    covers.append((v, w))
                    reach |= up[w] | 1 << bit[w]
            up[v] = reach
        self._bit, self._up = bit, up
        # last: whoever finds _order set finds the bitsets set too
        self._order = [labels[v] for v in order]
        return covers

    def _lower(self) -> list[list[int]]:
        """Each point's lower covers, built from the covers on first use."""
        self._below = _successors(len(self._labels), ((b, a) for a, b in self._covers))
        return self._below

    # -- basics --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

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

    def _masks(self, subset: Iterable[Label]) -> tuple[int, int]:
        """``subset`` as a bit mask, and the OR of its points' strict up-sets."""
        if self._order is None:
            self._reach()
        up, bit = self._up, self._bit
        mask = above = 0
        try:
            for i in map(self._index.__getitem__, subset):
                mask |= 1 << bit[i]
                above |= up[i]
        except KeyError as missing:
            raise UnknownLabelError(f"unknown element {quote(missing.args[0])}") from None
        return mask, above

    def _decode(self, mask: int) -> frozenset[Label]:
        """The labels of the points whose bits are set in ``mask``, in one
        C-level pass: the binary digits, lowest first, select from ``_order``."""
        return frozenset(compress(self._order, bin(mask)[:1:-1].encode().translate(_BITS)))

    # -- topology ---------------------------------------------------------

    def closure(self, subset: Iterable[Label]) -> frozenset[Label]:
        """Topological closure: the up-set generated by ``subset``."""
        mask, above = self._masks(subset)
        return self._decode(mask | above)

    def is_open(self, subset: Iterable[Label]) -> bool:
        """True iff ``subset`` is a down-set of the order: each of its points
        has its lower covers in it."""
        try:
            s = frozenset(map(self._index.__getitem__, subset))
        except KeyError as missing:
            raise UnknownLabelError(f"unknown element {quote(missing.args[0])}") from None
        below = self._lower() if self._below is None else self._below
        return s.issuperset(chain.from_iterable(map(below.__getitem__, s)))

    def isolated_in(self, subset: Iterable[Label]) -> frozenset[Label]:
        """The points of ``subset`` isolated in its subspace topology: its
        minimal points, those strictly above no other point of it."""
        mask, above = self._masks(subset)
        return self._decode(mask & ~above)

    def derivative_in(self, subset: Iterable[Label]) -> frozenset[Label]:
        """One Cantor-Bendixson step: drop the isolated points of the subspace."""
        mask, above = self._masks(subset)
        return self._decode(mask & above)

    # -- Cantor-Bendixson layering ----------------------------------------

    def rank_int(self) -> int:
        """Least k with the k-th derivative empty (0 for the empty poset)."""
        return self._rank

    def height(self) -> int:
        """Longest chain, counted in edges; -1 for the empty poset.

        Computed by a longest-path pass over the lower covers, taking the
        points in peel order (a topological order): a point ends a chain one
        longer than the longest ending at one of its lower covers, and a
        minimal point, which has none, keeps 0.  It uses the peel as an order
        but not the rank, so it checks ``rank_int`` independently.
        """
        below = self._lower() if self._below is None else self._below
        dist = [0] * len(self._labels)
        for v in self._peel:
            d = 0
            for c in below[v]:
                if d <= dist[c]:
                    d = dist[c] + 1
            dist[v] = d
        return max(dist, default=-1)

    # -- duality -----------------------------------------------------------

    def dual(self) -> "FinitePoset":
        """The Hochster dual: same elements, reversed order."""
        return FinitePoset(self._index, [(b, a) for a, b in self._covers])

    # -- scatteredness -------------------------------------------------------

    def scattered_via_closed_subsets(self, upset_budget: int | None = None) -> bool:
        """True iff every nonempty closed subset has an isolated point.

        Every finite T_0 space is scattered: a nonempty subset has a minimal
        point, and a minimal point is isolated in it.  The constructor
        rejects cycles (``CycleError``), so the order is antisymmetric, the
        space is T_0, and its peel (the successive derivatives) removes
        every point.  ``oracle.oracle_scattered`` checks this from the
        definition.
        """
        # benchmark hook: ROADMAP 1(a)
        # upset_budget is ignored; the benchmark's suite workload still passes it
        return len(self._peel) == len(self._labels)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        # json.dumps writes tuples as arrays, so no list is built per pair
        return json.dumps({"labels": self._labels, "covers": self.covers})

    @classmethod
    def from_json(cls, text: str) -> "FinitePoset":
        """Read ``{"labels": [...], "covers": [[a, b], ...]}``; any other
        shape raises ``ValueError``."""
        try:
            data = json.loads(text)
        except RecursionError:  # nesting that deep is never the shape below
            data = None
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
                raise ValueError(f"label {quote(lab)} is not an identifier (letters, digits, underscore)")
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ValueError("labels must be distinct")
    covers = list(covers)
    get = index.__getitem__
    try:
        pairs = [(get(a), get(b)) for a, b in covers]
    except (KeyError, TypeError):
        # a label that is missing or unhashable: name the first one
        for a, b in covers:
            if not (isinstance(a, str) and a in index):
                raise UnknownLabelError(f"unknown element {quote(a)}") from None
            if not (isinstance(b, str) and b in index):
                raise UnknownLabelError(f"unknown element {quote(b)}") from None
        raise
    return FinitePoset(index, pairs)


def disjoint_union(parts: Sequence[FinitePoset]) -> FinitePoset:
    """The sum of one or more posets: their points side by side, each part's
    order kept and no point of one part comparable to a point of another.

    Labels stay as they are unless two parts share one; then every label x
    of part k becomes ``s{k}_x``.  The digits before the first "_" fix the
    part, so no prefixed label can collide with another."""
    if len(parts) == 1:
        return parts[0]
    # one label -> position dict, handed to the constructor as its index; it
    # is shorter than the parts' total exactly when two parts share a label
    total = sum(map(len, parts))
    index = dict(zip(chain.from_iterable(part._labels for part in parts), range(total)))
    if len(index) != total:
        index = dict(zip((f"s{k}_{x}" for k, part in enumerate(parts) for x in part._labels), range(total)))
    pairs, shift = [], 0
    for part in parts:
        pairs += [(a + shift, b + shift) for a, b in part._covers]
        shift += len(part)
    return FinitePoset(index, pairs)


def export(poset: FinitePoset, fmt: str) -> str:
    """Serialize to ``dot`` (covering edges only) or ``json``."""
    if fmt == "dot":
        lines = ["digraph poset {"]
        lines += [f'  "{lab}";' for lab in poset.elements]
        lines += [f'  "{a}" -> "{b}";' for a, b in poset.covers]
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        return poset.to_json()
    raise ValueError(f"unknown export format {fmt!r}")
