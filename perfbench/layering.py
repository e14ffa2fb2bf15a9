"""The two layering workloads: the paper's random DAG, and the chain and
fan shapes fed in as edge-list text."""

from __future__ import annotations

import contextlib
import inspect

import numpy as np

from checks import Checks, clock
from tracing import Tracer


def certify(nodes: int, tails: np.ndarray, heads: np.ndarray, layer: np.ndarray) -> bool:
    """True iff ``layer`` is the longest-path layering of the DAG: 0 on
    sources and ``1 + max(layer[preds])`` elsewhere.  O(m), and it shares
    no code with the peel it checks."""
    if layer.shape != (nodes,) or (nodes and int(layer.min()) < 0):
        return False
    best = np.full(nodes, -1, dtype=np.int64)
    np.maximum.at(best, heads, layer[tails])
    return bool(np.array_equal(layer, best + 1))


def _phase_spans(tracer: Tracer, bench, graph: dict) -> None:
    """Spans around the phases ``run_bench`` calls through its module
    globals; ``graph["name"]`` tells the cb_layering calls apart."""
    tracer.patch(bench, "random_dag", "bench.random_dag")
    tracer.patch(bench, "cb_layering", lambda *a, **k: f"bench.cb_layering.{graph['name']}")
    tracer.patch(bench, "longest_path_rank", "bench.longest_path_rank")


_PHASES = ("bench.random_dag", "bench.cb_layering.random", "bench.cb_layering.chain",
           "bench.cb_layering.fan", "bench.longest_path_rank")


def _bench_metrics(tracer: Tracer, results: list) -> dict:
    run = tracer.total("bench.run_bench")
    phases = sum(tracer.total(name) for name in _PHASES)
    return {
        "bench.random_dag_s": tracer.total("bench.random_dag"),
        "bench.read_edge_list_s": tracer.total("bench.read_edge_list"),
        "bench.cb_layering.random_s": tracer.total("bench.cb_layering.random"),
        "bench.cb_layering.chain_s": tracer.total("bench.cb_layering.chain"),
        "bench.cb_layering.fan_s": tracer.total("bench.cb_layering.fan"),
        "bench.longest_path_rank_s": tracer.total("bench.longest_path_rank"),
        "bench.levels": sum(r.rank for r in results),
        "bench.edges": sum(r.edges for r in results),
        "bench.coverage": phases / run if run else 0.0,
    }


class LayeringRandom:
    """``run_bench`` with verification on the paper's random DAG."""

    name = "layering-random"

    def sizes(self, smoke: bool) -> dict:
        return {"nodes": 2_000 if smoke else 250_000, "density": 2.0}

    def setup(self, seed: int, sizes: dict) -> dict:
        return {"seed": seed, **sizes, "results": []}

    def operations(self, inp: dict) -> list[str]:
        return ["run_bench"]

    def _run(self, bench, inp: dict):
        return bench.run_bench(inp["nodes"], density=inp["density"], seed=inp["seed"], verify=True)

    def run_pass(self, inp: dict, checks: Checks) -> list[tuple[float, bool]]:
        from spectop import bench

        started = clock()
        result = self._run(bench, inp)
        elapsed = clock() - started
        inp["results"].append(result)  # checked against the certificate in finish()
        return [(elapsed, False)]

    def _certified(self, inp: dict, checks: Checks) -> np.ndarray:
        """The DAG's layering, certified once per run and kept."""
        if "layer" not in inp:
            from spectop import bench

            n = inp["nodes"]
            tails, heads = bench.random_dag(n, inp["density"], inp["seed"])
            layer = bench.cb_layering(n, tails, heads)
            checks.check("random.certificate", certify(n, tails, heads, layer),
                         f"nodes={n} seed={inp['seed']}")
            inp["layer"], inp["edges"] = layer, (tails, heads)
        return inp["layer"]

    def finish(self, inp: dict, checks: Checks) -> None:
        """Hold every pass's result to the certified layering."""
        layer = self._certified(inp, checks)
        n, m = inp["nodes"], inp["edges"][0].size
        rank = int(layer.max()) + 1 if n else 0
        sizes = tuple(int(c) for c in np.bincount(layer, minlength=rank))
        for r in inp["results"]:
            checks.check("random.agree", r.agree is True, f"agree={r.agree}")
            checks.check("random.rank", r.rank == rank, f"rank {r.rank} != {rank}")
            checks.check("random.layer_sizes", tuple(r.layer_sizes) == sizes, "layer sizes differ")
            checks.check("random.counts", (r.nodes, r.edges) == (n, m),
                         f"nodes/edges {(r.nodes, r.edges)} != {(n, m)}")
        inp["results"].clear()

    def known_defects(self, inp: dict) -> Checks:
        return Checks()  # nothing of this workload is held out

    def traced(self, inp: dict, tracer: Tracer, checks: Checks) -> tuple[float, dict]:
        from spectop import bench

        try:
            _phase_spans(tracer, bench, {"name": "random"})
            started = clock()
            with tracer.span("bench.run_bench"):
                result = self._run(bench, inp)
            elapsed = clock() - started
        finally:
            tracer.restore()
        inp["results"].append(result)
        metrics = _bench_metrics(tracer, [result])
        metrics["bench.cb_layering.threads2_s"] = self._threads2(bench, inp, tracer, checks)
        return elapsed, metrics

    def _threads2(self, bench, inp: dict, tracer: Tracer, checks: Checks) -> float:
        """The one 2-thread call: ``cb_layering(threads=2)`` on the same DAG.
        Wall time, since two threads run."""
        layer = self._certified(inp, checks)
        tails, heads = inp["edges"]
        if not checks.check("random.threads_parameter", "threads" in inspect.signature(bench.cb_layering).parameters,
                            "cb_layering takes no threads parameter: the 2-thread probe cannot run"):
            return 0.0
        with tracer.span("bench.cb_layering.threads2"):
            layer2 = bench.cb_layering(inp["nodes"], tails, heads, threads=2)
        checks.check("random.threads2_identical", bool(np.array_equal(layer2, layer)),
                     "2-thread layering differs from 1-thread")
        return tracer.total("bench.cb_layering.threads2")


def _edge_text(tails: np.ndarray, heads: np.ndarray, header: str) -> str:
    body = "\n".join(f"{u} {v}" for u, v in zip(tails.tolist(), heads.tolist()))
    return f"# {header}\n{body}\n"


class LayeringShapes:
    """A deep chain and a wide fan, as "u v" text through ``read_edge_list``."""

    name = "layering-shapes"

    def sizes(self, smoke: bool) -> dict:
        return {"chain_nodes": 300 if smoke else 20_000,
                "fan_generic_points": 2_000 if smoke else 100_000}

    def setup(self, seed: int, sizes: dict) -> dict:
        """Node ids are a seeded permutation and lines come in seeded order;
        the answers do not depend on either."""
        rng = np.random.default_rng(seed)
        n = sizes["chain_nodes"]
        ids = rng.permutation(n)
        order = rng.permutation(n - 1)
        chain = _edge_text(ids[:-1][order], ids[1:][order], f"chain of {n} nodes")
        k = sizes["fan_generic_points"]
        ids = rng.permutation(k + 1)
        fan = _edge_text(ids[:-1], np.full(k, ids[-1]), f"fan: {k} generic points under one closed point")
        return {
            "graphs": [
                {"name": "chain", "text": chain, "nodes": n, "edges": n - 1,
                 "layer_sizes": (1,) * n},
                {"name": "fan", "text": fan, "nodes": k + 1, "edges": k,
                 "layer_sizes": (k, 1)},
            ],
        }

    def _one(self, bench, graph: dict, checks: Checks, tracer: Tracer | None = None):
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        failed_before = checks.failed
        started = clock()
        with span("bench.read_edge_list"):
            nodes, tails, heads = bench.read_edge_list(graph["text"])
        with span("bench.run_bench"):
            result = bench.run_bench(nodes, edges=(tails, heads), verify=True)
        elapsed = clock() - started
        name = graph["name"]
        checks.check(f"{name}.agree", result.agree is True, f"agree={result.agree}")
        checks.check(f"{name}.counts", (result.nodes, result.edges) == (graph["nodes"], graph["edges"]),
                     f"nodes/edges {(result.nodes, result.edges)}")
        checks.check(f"{name}.rank", result.rank == len(graph["layer_sizes"]), f"rank {result.rank}")
        checks.check(f"{name}.layer_sizes", tuple(result.layer_sizes) == graph["layer_sizes"],
                     f"layer sizes start {tuple(result.layer_sizes[:5])}")
        return (elapsed, checks.failed > failed_before), result

    def operations(self, inp: dict) -> list[str]:
        return [g["name"] for g in inp["graphs"]]

    def run_pass(self, inp: dict, checks: Checks) -> list[tuple[float, bool]]:
        """Two operations per pass: the chain, then the fan."""
        from spectop import bench

        return [self._one(bench, g, checks)[0] for g in inp["graphs"]]

    def finish(self, inp: dict, checks: Checks) -> None:
        pass

    def known_defects(self, inp: dict) -> Checks:
        return Checks()  # nothing of this workload is held out

    def traced(self, inp: dict, tracer: Tracer, checks: Checks) -> tuple[float, dict]:
        from spectop import bench

        current = {"name": ""}
        elapsed_total, results = 0.0, []
        try:
            _phase_spans(tracer, bench, current)
            for graph in inp["graphs"]:
                current["name"] = graph["name"]
                (elapsed, _), result = self._one(bench, graph, checks, tracer)
                elapsed_total += elapsed
                results.append(result)
        finally:
            tracer.restore()
        return elapsed_total, _bench_metrics(tracer, results)
