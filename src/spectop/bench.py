"""Large-scale Cantor-Bendixson layering on random DAGs.

The transitive closure of a DAG is a finite poset; iterated removal of
its minimal elements assigns each node the layer equal to the longest
path ending there, and the rank is the number of layers.  The layering
here peels frontiers with vectorized numpy passes, and a separate
pure-Python longest-path pass over a topological order double-checks the
rank.  Layer contents are integer-exact, so results are identical for
any thread count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CycleError, SizeError

DEFAULT_NODE_BUDGET = 10_000_000
# Upper bound on ``threads``: each thread is one worker of the bincount pool.
MAX_THREADS = 64


@dataclass(frozen=True)
class BenchResult:
    nodes: int
    edges: int
    rank: int
    layer_sizes: tuple[int, ...]
    longest_path_rank: int | None
    seconds_layering: float
    seconds_total: float
    threads: int
    seed: int | None = None
    density: float | None = None

    @property
    def agree(self) -> bool | None:
        if self.longest_path_rank is None:
            return None
        return self.rank == self.longest_path_rank

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "rank": self.rank,
            "layer_sizes": list(self.layer_sizes),
            "longest_path_rank": self.longest_path_rank,
            "agree": self.agree,
            "seconds_layering": round(self.seconds_layering, 4),
            "seconds_total": round(self.seconds_total, 4),
            "threads": self.threads,
            "seed": self.seed,
            "density": self.density,
        }


def random_dag(nodes: int, density: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random DAG with ``density`` expected edges per node; edges always
    point from a lower to a higher node index, so acyclicity is built in."""
    if nodes < 0:
        raise ValueError("nodes must be non-negative")
    if density < 0:
        raise ValueError("density must be non-negative")
    rng = np.random.default_rng(seed)
    if nodes < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    m = int(round(density * nodes))
    tails = rng.integers(0, nodes - 1, size=m, dtype=np.int64)
    heads = rng.integers(tails + 1, nodes, dtype=np.int64)
    return tails, heads


def _csr(nodes: int, tails: np.ndarray, heads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(tails, kind="stable")
    sorted_heads = heads[order]
    indptr = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=nodes), out=indptr[1:])
    return indptr, sorted_heads


def _sharded_bincount(values: np.ndarray, length: int, threads: int) -> np.ndarray:
    if threads <= 1 or values.size < 1 << 16:
        return np.bincount(values, minlength=length)
    chunks = np.array_split(values, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(lambda c: np.bincount(c, minlength=length), chunks))
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def cb_layering(nodes: int, tails: np.ndarray, heads: np.ndarray, threads: int = 1) -> np.ndarray:
    """Layer index per node: iterated removal of sources of the DAG.

    Raises CycleError when the edge list is not acyclic, ValueError when
    ``threads`` < 1 and SizeError when it exceeds ``MAX_THREADS``.
    Deterministic regardless of ``threads`` (integer arithmetic only).
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads > MAX_THREADS:
        raise SizeError(f"{threads} threads exceeds the bound of {MAX_THREADS}")
    if nodes == 0:
        return np.empty(0, dtype=np.int64)
    indptr, sorted_heads = _csr(nodes, tails, heads)
    indegree = np.bincount(heads, minlength=nodes)
    layer = np.full(nodes, -1, dtype=np.int64)
    frontier = np.flatnonzero(indegree == 0)
    level = 0
    while frontier.size:
        layer[frontier] = level
        starts = indptr[frontier]
        lengths = indptr[frontier + 1] - starts
        total = int(lengths.sum())
        if total:
            offsets = np.zeros(len(lengths), dtype=np.int64)
            np.cumsum(lengths[:-1], out=offsets[1:])
            positions = (np.arange(total, dtype=np.int64)
                         - np.repeat(offsets, lengths)
                         + np.repeat(starts, lengths))
            successors = sorted_heads[positions]
            indegree -= _sharded_bincount(successors, nodes, threads)
            frontier = np.unique(successors[indegree[successors] == 0])
        else:
            frontier = np.empty(0, dtype=np.int64)
        level += 1
    if (layer < 0).any():
        raise CycleError("edge list contains a cycle")
    return layer


def longest_path_rank(nodes: int, tails: np.ndarray, heads: np.ndarray) -> int:
    """Longest path (in nodes) via a plain-Python DP over a topological
    order; the independent cross-check for :func:`cb_layering`."""
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
    """Parse "u v" lines into (nodes, tails, heads); node ids are ints."""
    tails, heads = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: node ids must be non-negative")
        tails.append(u)
        heads.append(v)
    nodes = max(tails + heads) + 1 if tails else 0
    return nodes, np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)


def run_bench(
    nodes: int,
    density: float = 2.0,
    seed: int = 0,
    threads: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
    verify: bool = True,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
) -> BenchResult:
    """Build (or take) a DAG, compute the layering, optionally cross-check
    the rank with the independent longest-path pass."""
    if nodes > node_budget:
        raise SizeError(f"{nodes} nodes exceeds the budget of {node_budget}")
    started = time.perf_counter()
    if edges is None:
        tails, heads = random_dag(nodes, density, seed)
    else:
        tails, heads = edges
    t_layer = time.perf_counter()
    layer = cb_layering(nodes, tails, heads, threads=threads)
    seconds_layering = time.perf_counter() - t_layer
    rank = int(layer.max()) + 1 if nodes else 0
    sizes = tuple(int(c) for c in np.bincount(layer, minlength=rank)) if nodes else ()
    checked = longest_path_rank(nodes, tails, heads) if verify else None
    return BenchResult(
        nodes=nodes,
        edges=int(tails.size),
        rank=rank,
        layer_sizes=sizes,
        longest_path_rank=checked,
        seconds_layering=seconds_layering,
        seconds_total=time.perf_counter() - started,
        threads=threads,
        seed=seed if edges is None else None,
        density=density if edges is None else None,
    )
