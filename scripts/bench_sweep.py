#!/usr/bin/env python3
"""Layering benchmark sweep: six DAG shapes x node counts, per-phase seconds.

Shapes: ``random`` (``random_dag`` at --density), ``chain`` (one path
through permuted node ids, edges in shuffled order), ``ladder`` (two
nodes per level, each with one out-edge to the next level, ids permuted
and edges shuffled: thin levels that are not one-node paths),
``antichain`` (no edges), ``fan`` (every point under one sink) and
``dual_fan`` (one source over every other point: a single tail holds
every edge).  Node
counts run 10^4, 10^5, ... up to --max-nodes.  Each shape is written out
as "u v" edge-list text and read back with ``read_edge_list``, and the
layering runs on the edges read.  Each point records the median wall
seconds, over ``REPEATS`` runs, of generation, ingest (``seconds_ingest``,
the read alone), the peel (``seconds_layering``) and the certificate
(``seconds_check``), and
``ingest_peak_mb``, the tracemalloc peak of a second, untimed read, in
MiB, and ``layering_peak_mb``, the same for a second, untimed
``cb_layering`` on the edges read; ``agree`` says that the edges read
equal the edges generated and that every layering passes its certificate.
One JSON line per point goes to stdout, and --out also writes them all
to one JSON file.  Exits 1 if any point does not agree.

Usage: python scripts/bench_sweep.py [--max-nodes N] [--density D] [--seed N]
                                     [--out BENCH_layering.json]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np

from spectop.bench import cb_layering, random_dag, read_edge_list, run_bench

# timed runs per phase and point; each point records their median seconds
REPEATS = 3


def _chain(nodes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    ids, order = rng.permutation(nodes), rng.permutation(max(nodes - 1, 0))
    return ids[:-1][order], ids[1:][order]


def _ladder(nodes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    ids, order = rng.permutation(nodes), rng.permutation(max(nodes - 2, 0))
    return ids[:-2][order], ids[2:][order]


def _antichain(nodes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    empty = np.empty(0, dtype=np.int64)
    return empty, empty.copy()


def _fan(nodes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    ids = rng.permutation(nodes)
    return ids[:-1], np.full(nodes - 1, ids[-1])


def _dual_fan(nodes: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    points, hub = _fan(nodes, rng)
    return hub, points


def _timed(function, *args):
    """The median wall seconds of ``REPEATS`` calls of ``function(*args)``,
    and the last call's result."""
    seconds = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        result = function(*args)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds), result


def _traced_peak(function, *args) -> int:
    """The tracemalloc peak of ``function(*args)`` alone, in bytes."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--max-nodes", type=int, default=1_000_000)
    parser.add_argument("--density", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write every point to this JSON file")
    args = parser.parse_args()

    shapes = {
        "random": lambda n, rng: random_dag(n, args.density, args.seed),
        "chain": _chain,
        "ladder": _ladder,
        "antichain": _antichain,
        "fan": _fan,
        "dual_fan": _dual_fan,
    }
    points = []
    nodes = 10_000
    while nodes <= args.max_nodes:
        for shape, generate in shapes.items():
            seconds_generation, (tails, heads) = _timed(
                lambda: generate(nodes, np.random.default_rng(args.seed)))
            text = "".join(f"{u} {v}\n" for u, v in zip(tails.tolist(), heads.tolist()))
            seconds_ingest, (_, tails_read, heads_read) = _timed(read_edge_list, text)
            ingest_peak = _traced_peak(read_edge_list, text)
            results = [run_bench(nodes, edges=(tails_read, heads_read)) for _ in range(REPEATS)]
            result = results[0]
            layering_peak = _traced_peak(cb_layering, nodes, tails_read, heads_read)
            point = {
                "shape": shape,
                "nodes": nodes,
                "edges": result.edges,
                "rank": result.rank,
                "agree": bool(all(r.agree for r in results) and np.array_equal(tails_read, tails)
                              and np.array_equal(heads_read, heads)),
                "seconds_generation": round(seconds_generation, 4),
                "seconds_ingest": round(seconds_ingest, 4),
                "ingest_peak_mb": round(ingest_peak / 2**20, 2),
                "seconds_layering": round(statistics.median(r.seconds_layering for r in results), 4),
                "layering_peak_mb": round(layering_peak / 2**20, 2),
                "seconds_check": round(statistics.median(r.seconds_check for r in results), 4),
            }
            print(json.dumps(point), flush=True)
            points.append(point)
        nodes *= 10
    certified = all(p["agree"] for p in points)
    print(json.dumps({"all_certified": certified}))
    if args.out:
        document = {
            "density": args.density,
            "seed": args.seed,
            "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
            "points": points,
            "all_certified": certified,
        }
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    return 0 if certified else 1


if __name__ == "__main__":
    sys.exit(main())
