"""Large-scale Cantor-Bendixson layering on random DAGs.

The transitive closure of a DAG is a finite poset; iterated removal of
its minimal elements assigns each node the layer equal to the longest
path ending there, and the rank is the number of layers.  The peel does
work proportional to each level's frontier and its out-edges: wide
levels go through numpy, thin ones through a scalar Kahn (1962) loop, so
the total stays linear however deep the graph.  Where a level is a single
node with a single out-edge, as along a chain, the scalar loop walks the
path node to node, with no per-level list.  The index arrays the peel
builds (CSR offsets and heads, in-degrees, the frontiers after the
sources, edge positions) are int32, since no run takes more than
``MAX_NODES`` = 2^31 - 1 nodes or edges; the returned layers are int64.
The result is checked by an O(m) certificate that shares no code with
the peel: ``layer`` is the longest-path layering exactly when it is 0 on
sources and ``1 + max(layer[preds])`` elsewhere, which also proves the
graph acyclic, since layers strictly increase along every edge.

Edge lists arrive as "u v" text.  Text in a plain grammar (unsigned
ASCII digit ids, blanks and whole-line comments) is read in two passes
over its bytes: one keeps a byte per id and per line end and checks that
each line holds zero or two ids, then one ``np.fromstring`` call reads
the ids.  Any other text, signed ids included, goes to a line loop, the
only reader that raises, so every error names its line.
"""

from __future__ import annotations

import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import CycleError, SizeError, quote

DEFAULT_NODE_BUDGET = 10_000_000
# the most nodes, and the most edges, any run takes, whatever its budget: the
# peel holds node ids and edge offsets in int32, and the CSR packs each edge
# into one int64 key, tail << 32 | head
MAX_NODES = int(np.iinfo(np.int32).max)
# run_bench takes at most this many edges per node of its budget, drawn at
# random or given.  An edge costs the peel about as much memory as a node (a
# few 32- and 64-bit words), so the node budget bounds both; a random run at
# the budget with the default density of 2 is admitted.
EDGES_PER_BUDGET_NODE = 2
# A frontier with fewer nodes and fewer out-edges than this is peeled by
# the scalar loop, where numpy's per-call overhead would dominate.
THIN_FRONTIER = 64
# int()'s base-10 literal; int() refuses one only for having more digits than
# sys.get_int_max_str_digits()
INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")
# what _load_ids admits on a comment line, and on every other line
_COMMENT_BYTES = bytes(range(32, 127)) + b"\t\r\n"
_ID_BYTES = b"0123456789 \t\r\n"


@dataclass(frozen=True)
class BenchResult:
    nodes: int
    edges: int
    rank: int
    layer_sizes: tuple[int, ...]
    agree: bool | None
    seconds_layering: float
    seconds_check: float
    seconds_total: float
    seed: int | None = None
    density: float | None = None

    @property
    def longest_path_rank(self) -> int | None:
        """The rank the certificate proves, or None when unchecked or refuted."""
        return self.rank if self.agree else None

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "rank": self.rank,
            "layer_sizes": list(self.layer_sizes),
            "longest_path_rank": self.longest_path_rank,
            "agree": self.agree,
            "seconds_layering": round(self.seconds_layering, 4),
            "seconds_check": round(self.seconds_check, 4),
            "seconds_total": round(self.seconds_total, 4),
            "seed": self.seed,
            "density": self.density,
        }


def random_dag(nodes: int, density: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random DAG with ``density`` expected edges per node; edges always
    point from a lower to a higher node index, so acyclicity is built in."""
    if nodes < 0:
        raise ValueError("nodes must be non-negative")
    if not math.isfinite(density):
        raise ValueError(f"density must be finite, got {density}")
    if density < 0:
        raise ValueError("density must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {quote(seed)}")
    rng = np.random.default_rng(seed)
    if nodes < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    m = int(round(density * nodes))
    tails = rng.integers(0, nodes - 1, size=m, dtype=np.int64)
    heads = rng.integers(tails + 1, nodes, dtype=np.int64)
    return tails, heads


def _check_edges(nodes: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tails`` and ``heads`` as int64, after an O(m) check that they are
    1-D integer arrays of equal length with every id in ``[0, nodes)``
    (else ValueError) and that neither ``nodes`` nor the edge count exceeds
    ``MAX_NODES``, as the peel's int32 arrays need (else SizeError)."""
    for name, ids in (("tails", tails), ("heads", heads)):
        if not isinstance(ids, np.ndarray) or ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ValueError(f"{name} must be a 1-D integer array")
    if tails.size != heads.size:
        raise ValueError(f"{tails.size} tails but {heads.size} heads")
    if nodes < 0:
        raise ValueError("nodes must be non-negative")
    if nodes > MAX_NODES:
        raise SizeError(f"{quote(nodes)} nodes exceeds the bound of {MAX_NODES}")
    if tails.size > MAX_NODES:
        raise SizeError(f"{tails.size} edges exceeds the bound of {MAX_NODES}")
    if tails.size:
        low = min(int(tails.min()), int(heads.min()))
        high = max(int(tails.max()), int(heads.max()))
        if low < 0 or high >= nodes:
            raise ValueError(f"node ids must lie in [0, {nodes}), got {low if low < 0 else high}")
    return tails.astype(np.int64, copy=False), heads.astype(np.int64, copy=False)


def _csr(nodes: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``sorted_heads``: each tail's heads, in ascending
    order, at ``sorted_heads[indptr[t]:indptr[t + 1]]``.  One in-place sort
    of the int64 packed keys ``tail << 32 | head`` (numpy's SIMD sort,
    O(m log m)) groups them by tail; the low 32 bits of each key are its
    head.  The keys are exact for ids in ``[0, nodes)`` with ``nodes`` at
    most ``MAX_NODES``, which :func:`_check_edges` ensures; so are the
    offsets, with at most ``MAX_NODES`` edges.  Both arrays are fresh
    native-endian, C-contiguous int32 arrays, the layout the thin peel's
    ``memoryview``s read, whatever the caller passed."""
    keys = tails.astype(np.int64)
    keys <<= 32
    keys |= heads
    keys.sort()
    indptr = np.zeros(nodes + 1, dtype=np.int32)
    np.cumsum(np.bincount(tails, minlength=nodes), dtype=np.int32, out=indptr[1:])
    sorted_heads = np.bitwise_and(keys, 0xFFFFFFFF, out=np.empty(keys.size, dtype=np.int32), casting="unsafe")
    return indptr, sorted_heads


def _peel_thin(frontier: np.ndarray, level: int, indptr: np.ndarray, sorted_heads: np.ndarray,
               indegree: np.ndarray, layer: np.ndarray) -> tuple[np.ndarray, int]:
    """Scalar Kahn levels from a frontier of fewer than ``THIN_FRONTIER``
    nodes, for as long as each level has fewer out-edges than that (so the
    next frontier is thin too).  Returns the first frontier left unpeeled,
    empty or with too many out-edges, as an int32 array, and its level.
    The arrays are read and written through ``memoryview``s, which give
    and take plain ints where numpy indexing would box a scalar per access;
    ``indptr``, ``sorted_heads`` and ``indegree`` are the native int32
    arrays :func:`cb_layering` builds, and ``layer`` its int64 result.

    A frontier of one node with one out-edge is walked as a path: the node
    takes its level, and its head, the only node the next frontier can
    hold, loses one remaining in-edge.  A freed head is the next one-node
    frontier.  A head left with in-edges ends the peel with an empty
    frontier; in a DAG that cannot happen, since some unpeeled node would
    be a source, so the caller then reports the cycle.  The walk builds no
    list or slice per level.  A node with no or several out-edges is
    peeled by the general loop."""
    starts, successors, remaining, layers = (memoryview(a) for a in (indptr, sorted_heads, indegree, layer))
    current = frontier.tolist()
    while current:
        if len(current) == 1:
            v = current[0]
            start = starts[v]
            while starts[v + 1] == start + 1:
                layers[v] = level
                level += 1
                v = successors[start]
                remaining[v] -= 1
                if remaining[v]:
                    return np.empty(0, dtype=np.int32), level
                start = starts[v]
            current = [v]
        out_edges = 0
        for v in current:
            out_edges += starts[v + 1] - starts[v]
        if out_edges >= THIN_FRONTIER:
            break
        following = []
        for v in current:
            layers[v] = level
            for w in successors[starts[v]:starts[v + 1]]:
                remaining[w] -= 1
                if not remaining[w]:
                    following.append(w)
        current = following
        level += 1
    return np.asarray(current, dtype=np.int32), level


def _out_heads(frontier: np.ndarray, indptr: np.ndarray, sorted_heads: np.ndarray) -> np.ndarray:
    """The heads of the frontier's out-edges, repeats included, by one
    gather.  Its positions are built in place: node i's ``starts[i] -
    offsets[i]`` repeated over its edges, plus a running count.  So at most
    two arrays of the level's edge count are alive, and only the result
    outlives the call."""
    starts = indptr[frontier]
    lengths = indptr[1:][frontier] - starts
    total = int(lengths.sum())
    if not total:
        return sorted_heads[:0]
    offsets = np.zeros(len(lengths), dtype=np.int32)
    np.cumsum(lengths[:-1], dtype=np.int32, out=offsets[1:])
    positions = np.repeat(starts - offsets, lengths)
    positions += np.arange(total, dtype=np.int32)
    return sorted_heads[positions]


# benchmark hook: ROADMAP 1(a)
# ``threads`` is ignored; its only reader is the benchmark's 2-thread probe (``_threads2``)
def cb_layering(nodes: int, tails: np.ndarray, heads: np.ndarray, threads: int = 1) -> np.ndarray:
    """Layer index per node: iterated removal of sources of the DAG.

    Each level costs time proportional to its frontier and the frontier's
    out-edges.  ``tails`` and ``heads`` are 1-D integer arrays of equal
    length with ids in ``[0, nodes)``, else ValueError; neither ``nodes``
    nor the edge count may exceed ``MAX_NODES``, else SizeError.  Raises
    CycleError when the edge list is not acyclic.  The layers come back as
    int64, whatever the input's dtype.
    """
    tails, heads = _check_edges(nodes, tails, heads)
    if nodes == 0:
        return np.empty(0, dtype=np.int64)
    indptr, sorted_heads = _csr(nodes, tails, heads)
    indegree = np.bincount(heads, minlength=nodes).astype(np.int32)
    layer = np.full(nodes, -1, dtype=np.int64)
    # the sources stay in flatnonzero's intp, which numpy indexes with no
    # cast; the frontiers after them come out of the int32 heads
    frontier = np.flatnonzero(indegree == 0)
    level = 0
    while frontier.size:
        if frontier.size < THIN_FRONTIER:
            frontier, level = _peel_thin(frontier, level, indptr, sorted_heads, indegree, layer)
            if not frontier.size:
                break
        layer[frontier] = level
        successors, counts = np.unique(_out_heads(frontier, indptr, sorted_heads), return_counts=True)
        indegree[successors] -= counts
        frontier = successors[indegree[successors] == 0]
        level += 1
    if (layer < 0).any():
        raise CycleError("edge list contains a cycle")
    return layer


def certify_layering(nodes: int, tails: np.ndarray, heads: np.ndarray, layer: np.ndarray) -> bool:
    """True iff ``layer`` is the longest-path layering of the edge list:
    one non-negative integer per node, 0 on sources and
    ``1 + max(layer[preds])`` elsewhere.  Layers then strictly increase
    along every edge, so True also proves the graph acyclic.  O(m), and
    independent of :func:`cb_layering`."""
    if layer.shape != (nodes,) or layer.dtype.kind not in "iu":
        return False
    if nodes == 0:
        return True
    if int(layer.min()) < 0:
        return False
    best = np.full(nodes, -1, dtype=np.int64)
    np.maximum.at(best, heads, layer[tails])
    return bool(np.array_equal(layer, best + 1))


# benchmark hook: ROADMAP 1(a)
def longest_path_rank(nodes: int, tails: np.ndarray, heads: np.ndarray) -> int:
    """Longest path (in nodes) via a plain-Python DP over a topological
    order; the reference the tests hold :func:`cb_layering` to."""
    if nodes == 0:
        return 0
    adjacency: list[list[int]] = [[] for _ in range(nodes)]
    incoming = [0] * nodes
    for t, h in zip(tails.tolist(), heads.tolist()):
        adjacency[t].append(h)
        incoming[h] += 1
    queue = [v for v in range(nodes) if incoming[v] == 0]
    dist = [0] * nodes
    head = 0
    seen = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        seen += 1
        dv = dist[v] + 1
        for w in adjacency[v]:
            if dist[w] < dv:
                dist[w] = dv
            incoming[w] -= 1
            if incoming[w] == 0:
                queue.append(w)
    if seen != nodes:
        raise CycleError("edge list contains a cycle")
    return max(dist) + 1


def read_edge_list(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Parse "u v" lines into (nodes, tails, heads); node ids are ints.
    Blank lines and lines whose first non-blank character is "#" are
    skipped.

    ValueError names the first bad line; SizeError refuses an id that does
    not fit in 64 bits."""
    ids = _load_ids(text)
    if ids is None:
        return _read_lines(text)
    nodes = int(ids.max()) + 1 if ids.size else 0
    return nodes, ids[:, 0].copy(), ids[:, 1].copy()


def _load_ids(text: str) -> np.ndarray | None:
    r"""The ids of ``text`` as an ``(m, 2)`` int64 array, for text in the
    plain grammar: ASCII; "\r" only in "\r\n"; "#" only as the first
    non-blank character of a line, whose comment holds only printable
    characters and tabs; every other line zero or two runs of digits
    among spaces and tabs.  None for any other text, signed ids included,
    and for an id that ``int`` or int64 cannot hold, which
    :func:`_read_lines` then reads, so that only the line loop ever raises.

    :func:`_count_ids` keeps a byte per event, an id's first digit or a
    line end, and checks the ids of each line; ``np.fromstring`` then reads
    each digit run as one id into an array allocated once."""
    if not (isinstance(text, str) and text.isascii()):
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    data = text.encode()
    view, pieces, end = memoryview(data), [], 0
    at = data.find(b"#")
    while at >= 0:
        start = data.rfind(b"\n", 0, at) + 1
        stop = data.find(b"\n", at) + 1 or len(data)
        if data[start:at].strip(b" \t") or data[at:stop].translate(None, _COMMENT_BYTES):
            return None
        pieces.append(view[end:start])
        end = stop
        at = data.find(b"#", end)
    if pieces:
        # views, so that the text is copied once more, not twice
        data = b"".join(pieces + [view[end:]])
    del view, pieces
    if data.translate(None, _ID_BYTES):
        return None
    tokens = _count_ids(data)
    if tokens is None:
        return None
    # int() refuses an id of more than ``limit`` digits; fromstring reads one
    # below 2**63, which then has at least limit - 18 leading zeros
    limit = sys.get_int_max_str_digits()
    if limit and b"0" * (limit - 18) in data:
        return None
    ids = np.fromstring(data, dtype=np.int64, count=tokens, sep=" ")
    # fromstring reads an id beyond int64 as the int64 maximum
    if ids.size and ids.max() == np.iinfo(np.int64).max:
        return None
    return ids.reshape(-1, 2)


def _count_ids(data: bytes) -> int | None:
    """The number of ids in ``data``, which holds only digits and blanks,
    or None unless every line holds zero or two."""
    arr = np.frombuffer(data, np.uint8)
    # byte i is kept when arr[i - 1] < arr[i] - 15: every id's first digit
    # (a digit less 15 lies in 33..42, above every blank and below every
    # digit), every line end (10 - 15 wraps to 251), no other digit, and
    # some other blanks, which the translate drops
    kept = arr - np.uint8(15)
    np.less(arr[:-1], kept[1:], out=kept[1:])
    # the first byte has no predecessor: kept, as an id's first digit or a blank
    kept[:1] = 1
    events = arr[kept.view(bool)]
    # freed before the copies below, which would otherwise add to the peak
    del kept
    # one byte per event: 1 at an id, 0 at a line end
    kinds = events.tobytes().translate(bytes.maketrans(b"0123456789\n", b"\1" * 10 + b"\0"), b" \t\r")
    ids = kinds.count(1)
    # every line holds zero or two ids exactly when the runs of two or more,
    # which count() finds once each, hold two ids each and all of them
    return ids if (kinds + b"\0").count(b"\1\1\0") * 2 == ids else None


def _read_lines(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`read_edge_list` one line at a time; the only reader that
    raises, so every message names its line."""
    tails, heads = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {quote(line)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            if not all(map(INT_LITERAL.fullmatch, parts)):
                raise ValueError(f"line {lineno}: node ids must be integers, got {quote(line)}") from None
            if any(p.startswith("-") for p in parts):
                raise ValueError(f"line {lineno}: node ids must be non-negative") from None
            raise SizeError(f"line {lineno}: a node id of more than {sys.get_int_max_str_digits()} digits "
                            "does not fit in 64 bits") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: node ids must be non-negative")
        tails.append(u)
        heads.append(v)
    nodes = max(tails + heads) + 1 if tails else 0
    try:
        return nodes, np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
    except OverflowError:
        # such a graph is over any node budget, so it is refused like one
        raise SizeError(f"node id {quote(nodes - 1)} does not fit in 64 bits") from None


def run_bench(
    nodes: int,
    density: float = 2.0,
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    verify: bool = True,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> BenchResult:
    """Build (or take) a DAG, compute the layering and, with ``verify``,
    check it with :func:`certify_layering`."""
    if node_budget < 0:
        raise ValueError(f"the node budget must be non-negative, got {quote(node_budget)}")
    if nodes > node_budget:
        raise SizeError(f"{quote(nodes)} nodes exceeds the budget of {quote(node_budget)}")
    # decided before any float arithmetic on nodes, which would overflow
    if nodes > MAX_NODES:
        raise SizeError(f"{quote(nodes)} nodes exceeds the bound of {MAX_NODES}")
    max_edges = EDGES_PER_BUDGET_NODE * node_budget
    if edges is not None:
        # tails that are not an array are left to _check_edges, which names them
        given = edges[0].size if isinstance(edges[0], np.ndarray) else 0
        if given > max_edges:
            raise SizeError(f"{given} edges exceeds the budget of {quote(max_edges)} edges")
    # decided before random_dag allocates; a density it rejects is left to it
    elif nodes >= 2 and math.isfinite(density):
        if density * nodes > max_edges:
            raise SizeError(f"density {density} on {nodes} nodes exceeds the budget of {quote(max_edges)} edges")
        if density * nodes > MAX_NODES:
            raise SizeError(f"density {density} on {nodes} nodes exceeds the bound of {MAX_NODES} edges")
    started = time.perf_counter()
    if edges is None:
        tails, heads = random_dag(nodes, density, seed)
    else:
        tails, heads = edges
    t_layer = time.perf_counter()
    layer = cb_layering(nodes, tails, heads)
    seconds_layering = time.perf_counter() - t_layer
    rank = int(layer.max()) + 1 if nodes else 0
    sizes = tuple(np.bincount(layer, minlength=rank).tolist()) if nodes else ()
    t_check = time.perf_counter()
    agree = certify_layering(nodes, tails, heads, layer) if verify else None
    seconds_check = time.perf_counter() - t_check
    return BenchResult(
        nodes=nodes,
        edges=int(tails.size),
        rank=rank,
        layer_sizes=sizes,
        agree=agree,
        seconds_layering=seconds_layering,
        seconds_check=seconds_check,
        seconds_total=time.perf_counter() - started,
        seed=seed if edges is None else None,
        density=density if edges is None else None,
    )
