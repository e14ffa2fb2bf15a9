#!/usr/bin/env python3
"""Paired benchmark runs: a base revision against this checkout.

Usage: python scripts/paired_bench.py --base <rev> --workload <w> [--seed S]
       [--pairs K] [--smoke] [--record FILE]

Both sides run from fresh copies side by side in one temporary directory,
which is removed at the end, so neither runs from a path or a set of
bytecode caches of its own: ``base`` is a ``git worktree add`` of the base
revision, and ``change`` one of HEAD whose ``src/``, ``perfbench/`` and
``BENCHMARK.json`` are then replaced by copies of this checkout's, so
uncommitted and untracked files count (``__pycache__`` and
``perfbench/results/`` are not copied).  Each pair runs each side's own
``perfbench/run.py`` once, with the same options and the run length of
``BENCHMARK.json``, and alternates which side goes first, so a bias towards
the first or second run of a pair falls on both sides alike.  For each end-to-end metric of ``BENCHMARK.json`` it prints
both medians, the base's quartile spread (IQR), the change's wins, losses
and ties, and a one-sided sign-test p-value.  The row ``raw_pass_s`` is each
run's median of its raw CPU pass totals (``pass_totals_s``), not scaled by
the reference kernel.  A gain is claimed only when the change wins at least
nine tenths of the pairs (ties count for neither), the sign test's p is
below 0.05 (so at least five pairs), and the medians differ in its favour by
more than the base's IQR; a metric whose median is worse than the base's by
more than its bound is marked so.  No gain is claimed when a larger share
of the change's checks fails than of the base's.  The exit status is 1 when
that share is larger or any end-to-end metric is marked worse than its
bound, and 0 otherwise, so a change that claims no gain passes a workload
exactly when its run exits 0.

``--record FILE`` also makes three traced runs per side (``perfbench/run.py
--trace 1``), alternating which side goes first, and appends one entry to
the JSON list in FILE (made if missing): the two revisions, the workload,
seed and pair count, the machine, every metric's row as printed, and each
side's per-layer metrics, each the median of that side's traced runs, so
the entry says which layer moved and one slow traced run does not move it.
When the change side's ``src/``, ``perfbench/`` or ``BENCHMARK.json``
differ from HEAD, untracked files included, the change is named
``<HEAD>-dirty`` and the entry also holds
``change_tree_sha256``, a hash of the files that side ran (see
``tree_sha256``), which a later reader can match against any commit's tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9
ALPHA = 0.05
TRACED_RUNS = 3


def sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: the chance of at least ``wins`` wins in
    ``wins + losses`` fair coin tosses (ties are dropped)."""
    n = wins + losses
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2 ** n


def compare(base: list[float], change: list[float], better: str, bound: float | None = None) -> dict:
    """The statistics of one metric over paired runs: ``base[i]`` and
    ``change[i]`` are the two sides of pair i, ``better`` is "lower" or
    "higher", ``bound`` the relative worsening the benchmark allows."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive") if len(base) > 1 else (base[0],) * 3
    base_median, change_median = statistics.median(base), statistics.median(change)
    gain = sign * (base_median - change_median)
    return {
        "base_median": base_median, "change_median": change_median, "base_iqr": q3 - q1,
        "wins": wins, "losses": losses, "ties": len(base) - wins - losses,
        "p": sign_test_p(wins, losses),
        "claim": wins >= WIN_SHARE * len(base) and sign_test_p(wins, losses) < ALPHA and gain > q3 - q1,
        "worse_than_bound": bound is not None and -gain > bound * abs(base_median),
    }


def more_checks_fail(base: list[dict], change: list[dict]) -> bool:
    """True iff a larger share of the change's checks fails than of the
    base's, over all runs; each run has ``failed`` and ``attempted``."""
    def share(runs):
        attempted = sum(r["attempted"] for r in runs)
        return sum(r["failed"] for r in runs) / attempted if attempted else 0.0
    return share(change) > share(base)


def run_perfbench(root: str, args, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """One run of ``root``'s own benchmark: its record and its result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def run_side(root: str, args, seconds: float) -> dict:
    """One untraced run: its metrics, correctness and raw pass totals."""
    record, result = run_perfbench(root, args, seconds)
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    values["raw_pass_s"] = statistics.median(record["pass_totals_s"])
    return {"values": values, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"]}


def traced_layers(root: str, args, seconds: float) -> dict:
    """The per-layer metrics of one traced run."""
    _, result = run_perfbench(root, args, seconds, trace=1)
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def median_layers(roots: dict, args, seconds: float) -> dict:
    """Each side's per-layer metrics, each the median of ``TRACED_RUNS``
    traced runs of that side; the runs go in pairs that alternate which
    side goes first, as the untraced ones do."""
    runs = {side: [] for side in roots}
    for i in range(TRACED_RUNS):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(traced_layers(roots[side], args, seconds))
    return {side: {name: statistics.median(run[name] for run in side_runs) for name in side_runs[0]}
            for side, side_runs in runs.items()}


# what the change side runs from this checkout, less what runs leave behind
RUN_DIRS = ("src", "perfbench")
LEFT_BEHIND = ("__pycache__", "results")


def copy_checkout(dest: str) -> None:
    """Replace the ``src/``, ``perfbench/`` and ``BENCHMARK.json`` of the
    worktree ``dest`` with copies of this checkout's, less bytecode caches
    and the ``results/`` that benchmark runs leave."""
    for name in RUN_DIRS:
        shutil.rmtree(os.path.join(dest, name), ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns(*LEFT_BEHIND))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), dest)


def tree_sha256(root: str) -> str:
    """SHA-256 over the files of ``root`` that a benchmark run reads:
    ``BENCHMARK.json`` and every file under ``src/`` and ``perfbench/``
    except bytecode caches and ``results/``, in sorted order of their
    '/'-separated relative paths, each as its path, a NUL byte, its size in
    decimal, a NUL byte and its bytes.  A copy made by :func:`copy_checkout`
    hashes like the checkout it was made from, and so does an export of a
    commit whose tree holds the same files."""
    paths = ["BENCHMARK.json"]
    for name in RUN_DIRS:
        for folder, dirs, files in os.walk(os.path.join(root, name)):
            dirs[:] = [d for d in dirs if d not in LEFT_BEHIND]
            paths += [os.path.relpath(os.path.join(folder, f), root).replace(os.sep, "/") for f in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(os.path.join(root, path), "rb") as handle:
            data = handle.read()
        digest.update(b"%s\0%d\0" % (path.encode(), len(data)))
        digest.update(data)
    return digest.hexdigest()


def revisions(base: str) -> tuple[str, str]:
    """The commit ids of ``base`` and of this checkout's HEAD, the latter
    with ``-dirty`` when ``src/``, ``perfbench/`` or ``BENCHMARK.json``,
    which the runs read, differ from it: an edited, deleted or untracked
    file counts, an ignored one (a bytecode cache, a run's ``results/``)
    does not."""
    def sha(rev):
        return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              check=True).stdout.strip()

    dirty = subprocess.run(["git", "status", "--porcelain", "--", *RUN_DIRS, "BENCHMARK.json"], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True, check=True).stdout
    return sha(base), sha("HEAD") + ("-dirty" if dirty else "")


def record_entry(args, base: str, change: str, rows: dict, failing: bool, layers: dict,
                 change_tree: str) -> dict:
    """One entry of a ``--record`` file: ``rows`` are ``compare``'s rows by
    metric, ``layers`` each side's median per-layer metrics.  A ``-dirty``
    change names no commit, so its entry also holds ``change_tree``, the
    :func:`tree_sha256` of the files the change side ran."""
    import numpy

    entry = {"base": base, "change": change, "workload": args.workload, "seed": args.seed,
             "pairs": args.pairs,
             "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                         "numpy": numpy.__version__},
             "metrics": rows, "more_checks_fail": failing, "per_layer": layers}
    if change.endswith("-dirty"):
        entry["change_tree_sha256"] = change_tree
    return entry


def append_record(path: str, entry: dict) -> None:
    entries = []
    if os.path.exists(path):
        with open(path) as handle:
            entries = json.load(handle)
    entries.append(entry)
    with open(path, "w") as handle:
        json.dump(entries, handle, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--record", metavar="FILE", help="append this comparison to a JSON list in FILE")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.record and args.smoke:
        parser.error("--record keeps full-length runs only, not --smoke")

    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics["raw_pass_s"] = ("lower", None)
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    layers = {}
    tmp = tempfile.mkdtemp(prefix="paired_bench_")
    roots = {side: os.path.join(tmp, side) for side in ("base", "change")}
    try:
        for side, rev in (("base", args.base), ("change", "HEAD")):
            subprocess.run(["git", "worktree", "add", "--detach", roots[side], rev], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
        copy_checkout(roots["change"])
        change_tree = tree_sha256(roots["change"])
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_side(roots[side], args, spec["run_seconds"]))
            print(f"pair {i + 1}/{args.pairs} ({order[0]} first): wall_s base "
                  f"{runs['base'][-1]['values']['wall_s']:.4g}, change {runs['change'][-1]['values']['wall_s']:.4g}",
                  file=sys.stderr)
        if args.record:
            layers = median_layers(roots, args, spec["run_seconds"])
    finally:
        for root in roots.values():
            subprocess.run(["git", "worktree", "remove", "--force", root], cwd=ROOT, check=False)
        shutil.rmtree(tmp, ignore_errors=True)

    failing = more_checks_fail(runs["base"], runs["change"])
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, base {args.base}, "
          f"{spec['run_seconds']:g} s per run{' (smoke)' if args.smoke else ''}")
    print(f"{'metric':16} {'base':>11} {'change':>11} {'base IQR':>10} {'W/L/T':>8} {'p':>7}  verdict")
    worse = []
    rows = {}
    for name, (better, bound) in metrics.items():
        row = rows[name] = compare([r["values"][name] for r in runs["base"]],
                                   [r["values"][name] for r in runs["change"]], better, bound)
        if row["worse_than_bound"]:
            worse.append(name)
        verdict = ("claim" if row["claim"] and not failing else "no claim") + (
            ", worse than bound" if row["worse_than_bound"] else "")
        print(f"{name:16} {row['base_median']:11.5g} {row['change_median']:11.5g} {row['base_iqr']:10.3g} "
              f"{row['wins']:>2}/{row['losses']}/{row['ties']:<2} {row['p']:7.3g}  {verdict}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side} checks: {failed} failed of {attempted}; raw pass-total median per run (s): "
              + " ".join(f"{r['values']['raw_pass_s']:.4g}" for r in runs[side]))
    if failing:
        print("a larger share of checks failed on the change than on the base: no gain is claimed")
    if worse:
        print(f"worse than the bound on the change: {', '.join(worse)}")
    if args.record:
        append_record(args.record, record_entry(args, *revisions(args.base), rows, failing, layers,
                                                change_tree))
    return 1 if failing or worse else 0


if __name__ == "__main__":
    sys.exit(main())
