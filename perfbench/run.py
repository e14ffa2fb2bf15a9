#!/usr/bin/env python3
"""spectop benchmark: four workloads, end-to-end metrics and per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in this one process.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` makes a traced pass between two
untraced ones and reports the per-layer metrics.  End-to-end times are
CPU seconds scaled to a reference speed (see ``Reference``).  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's record (environment, input
sizes, passes, failing checks).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from checks import Checks, clock, percentile
from layering import LayeringRandom, LayeringShapes
from suite import Suite
from tracing import Tracer
from verdicts import Verdicts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {w.name: w for w in (LayeringRandom(), LayeringShapes(), Suite(), Verdicts())}
DEFAULT_SEED = 1  # seed 9001 is held out for confirming claimed gains
SETUP_SAMPLES = 7
# CPU seconds of one Reference.run() at the reference speed: the median on
# the host behind the README's numbers.  Times are reported at this speed.
REFERENCE_S = 0.06
# Share of each pass's time the reference kernel runs after it.
REFERENCE_SHARE = 0.05
# Timed runs of the reference kernel before the first pass, after one to warm it.
FIRST_REFERENCE_RUNS = 3
# Runs of the reference kernel in each set-up process, after its set-up.
SETUP_REFERENCE_RUNS = 3
# A failed operation counts as missing any latency limit: its latency is
# recorded as at least this much.
LATENCY_LIMIT_S = 1.0
TRACE_DIR = os.path.join(HERE, "results")


def import_spectop() -> None:
    """Import the checkout's own spectop, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import spectop.cli  # (imports every spectop module)

    if not os.path.abspath(spectop.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"spectop resolved to {spectop.cli.__file__}, not under {src}")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def environment(args, sizes: dict) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "sizes": sizes}


def measure_setup(args) -> tuple[list[float], list[float]]:
    """CPU seconds of fresh processes that start, import and build this
    workload's inputs: the set-up a run pays before timing.  Each process
    then times the reference kernel.  Returns the set-up times, raw and
    at the reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        child = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(child["setup_s"])
        scaled.append(scale(child["reference_s"]) * child["setup_s"])
    return samples, scaled


class Reference:
    """A fixed kernel that shares no code with spectop, timed between
    passes to gauge how fast the host runs at that moment.

    On a shared host the same pass can run up to twice as slow, in spells
    of seconds to minutes, and every kind of work slows together.
    Dividing each pass by this kernel's time, taken just before and just
    after it, removes most of that.  It mixes interpreter work on strings
    and one dict with numpy passes over a 4 MB array, and allocates no
    object the cyclic garbage collector tracks, so the size of spectop's
    heap does not change its time.
    """

    def __init__(self):
        self.table: dict[str, int] = {}
        self.data = np.arange(1 << 20, dtype=np.int32)
        self.data *= 40503  # wraps; only a spread of values is wanted
        self.data %= 1 << 16

    def run(self) -> float:
        """CPU seconds of one run of the kernel."""
        started = clock()
        for i in range(50_000):
            key = f"k{i % 4096}"
            self.table[key] = self.table.get(key, 0) + len(key)
        for _ in range(3):
            np.bincount(self.data, minlength=1 << 16)
            np.sort(self.data[: 1 << 17], kind="stable")
        return clock() - started

    def run_for(self, seconds: float) -> list[float]:
        """Repeat the kernel for about ``seconds`` of CPU time, at least once."""
        samples = [self.run()]
        while sum(samples) < seconds:
            samples.append(self.run())
        return samples


def scale(reference_samples: list[float]) -> float:
    """Factor that turns a run's CPU seconds into seconds at the reference
    speed, at which one run of the kernel takes ``REFERENCE_S``."""
    return REFERENCE_S / statistics.median(reference_samples)


def measure(workload, inp: dict, seconds: float, checks: Checks,
            reference: Reference) -> tuple[list[list[tuple[float, bool]]], list[list[float]]]:
    """Passes until the next one would end past ``seconds``; at least one.
    Every pass makes the same operations in the same order.  The
    reference kernel runs before the first pass and after each one, for
    ``REFERENCE_SHARE`` of the pass's time.  Returns the passes and the
    kernel's times in groups: the one before the first pass, then the
    one after each pass."""
    reference.run()  # warm-up: the first run fills the kernel's dict
    passes, groups = [], [[reference.run() for _ in range(FIRST_REFERENCE_RUNS)]]
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(inp, checks))
        groups.append(reference.run_for(REFERENCE_SHARE * sum(s for s, _ in passes[-1])))
        elapsed = time.perf_counter() - started
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, groups


def pass_factors(groups: list[list[float]]) -> list[float]:
    """Each pass's factor to the reference speed, from the kernel's runs
    just before and just after it."""
    return [scale(before + after) for before, after in zip(groups, groups[1:])]


def summarize(passes: list[list[tuple[float, bool]]], factors: list[float]) -> tuple[list[float], dict]:
    """Each operation stands in with the median of its repetitions, each
    times its pass's factor (see :func:`pass_factors`); a failed operation
    counts as missing any latency limit.  Returns the operations'
    latencies and the end-to-end time metrics."""
    typical = [statistics.median(f * s for f, (s, _) in zip(factors, runs)) for runs in zip(*passes)]
    failed = [any(f for _, f in runs) for runs in zip(*passes)]
    latencies = [max(s, LATENCY_LIMIT_S) if f else s for s, f in zip(typical, failed)]
    return latencies, {"wall_s": sum(typical),
                       "latency_p50_ms": 1000 * percentile(latencies, 50),
                       "latency_p99_ms": 1000 * percentile(latencies, 99)}


def by_operation(names: list[str], latencies: list[float]) -> dict:
    """Count, share and median latency of each kind of operation."""
    groups: dict[str, list[float]] = {}
    for name, latency in zip(names, latencies):
        groups.setdefault(name, []).append(latency)
    return {name: {"count": len(group), "share": len(group) / len(names),
                   "p50_ms": 1000 * percentile(group, 50)} for name, group in groups.items()}


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    sizes = workload.sizes(args.smoke)
    if args.setup_only:
        workload.setup(args.seed, sizes)
        setup_s = clock()  # CPU seconds since this process started
        reference = Reference()
        reference.run()  # warm-up: the first run fills the kernel's dict
        print(json.dumps({"setup_s": setup_s,
                          "reference_s": [reference.run() for _ in range(SETUP_REFERENCE_RUNS)]}))
        sys.stdout.flush()
        os._exit(0)  # skip interpreter teardown: it is not set-up
    declared = declared_metrics()
    checks = Checks()
    inp = workload.setup(args.seed, sizes)
    record = {"environment": environment(args, sizes), "mode": "traced" if args.trace else "untraced"}
    if args.trace:
        # untraced passes on both sides of the traced one, so neither
        # warm-up nor drift lands in the overhead
        before = sum(s for s, _ in workload.run_pass(inp, checks))
        tracer = Tracer()
        traced, measured = workload.traced(inp, tracer, checks)
        after = sum(s for s, _ in workload.run_pass(inp, checks))
        untraced = min(before, after)
        measured["trace.overhead_s"] = traced - untraced
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path, workload=args.workload, seed=args.seed, environment=record["environment"],
                    metrics=measured)
        record.update(untraced_passes_s=[before, after], traced_pass_s=traced, trace_file=os.path.relpath(path, ROOT),
                      spans=len(tracer.spans))
        units = declared["per_layer"]
        metrics = {name: {"value": measured.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        setup_samples, setup_scaled = measure_setup(args)
        passes, reference_groups = measure(workload, inp, args.seconds, checks, Reference())
        factors = pass_factors(reference_groups)
        latencies, values = summarize(passes, factors)
        values["setup_s"] = statistics.median(setup_scaled)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record.update(setup_samples_s=setup_samples,
                      pass_totals_s=[sum(s for s, _ in ops) for ops in passes],
                      reference_s=reference_groups, scales=factors,
                      operations=by_operation(workload.operations(inp), latencies))
        units = declared["end_to_end"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    workload.finish(inp, checks)
    record["checks"] = checks.record()
    known = workload.known_defects(inp)
    record["known_defects"] = known.record()
    for failure in record["known_defects"]["failing_checks"]:
        print(f"perfbench: known defect, held out of the timed passes: {failure['check']} "
              f"x{failure['count']}: {failure['first']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the results."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if done.returncode:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        print(lines[-2])
        print(lines[-1])
        rows.append((name, record["checks"]["error_rate"], result))
    for name, error_rate, result in rows:
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        print(f"{name:16} error_rate={error_rate:.6g} ({result['failed']}/{result['attempted']})  "
              + "  ".join(cells))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_spectop()
    except ImportError as exc:
        print(f"perfbench: cannot import spectop from {os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
