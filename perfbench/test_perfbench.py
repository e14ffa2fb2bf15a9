"""Tests of the benchmark itself, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from checks import Checks  # noqa: E402
from layering import certify  # noqa: E402
from suite import Suite, check_report, drawn_posets  # noqa: E402
from tracing import Tracer  # noqa: E402
from verdicts import GALLERY_TRUTH, Verdicts, attributes, check_reply, ordinal_text, text  # noqa: E402

WORKLOADS = ("layering-random", "layering-shapes", "suite", "verdicts")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_shape():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]] + [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])
    setup = next(m for m in s["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in s["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in s["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    declared = spec()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.exists(os.path.join(ROOT, record["trace_file"]))
    env = record["environment"]
    assert env["seed"] == 3 and env["nproc"] >= 1 and env["sizes"]


def _verdict_reply(ltg: str, fields: str, **meta) -> str:
    return json.dumps({"space": "x", "meta": meta,
                       "verdict": {"ltg": ltg, "fields_generate": fields, "citations": ["Thm"]}})


def test_checks_fail_on_bad_replies():
    argv = ["verdict", "valuation_rank1", "--absolutely-flat", "--json"]
    req = {"argv": argv, "codes": frozenset({0, 3}), "cmd": "verdict", "flags": ("--absolutely-flat",),
           "finite": False, "truth": GALLERY_TRUTH[("valuation_rank1", None)], "never_generates": True}
    checks = Checks()
    assert check_reply(req, 0, None, _verdict_reply("Holds", "Inconclusive", absolutely_flat=True), checks)
    assert checks.failed == 0
    assert not check_reply(req, 0, None, _verdict_reply("Holds", "Generates", absolutely_flat=True), checks)
    assert not check_reply(req, None, RecursionError("maximum recursion depth exceeded"), "", checks)
    assert not check_reply(req, 7, None, "", checks)
    assert not check_reply(req, 0, None, "not json", checks)
    failing = {f["check"]: f["count"] for f in checks.record()["failing_checks"]}
    assert failing == {"gallery.known_truth": 1, "gallery.non_sufficiency_never_generates": 1,
                       "cli.no_uncaught_exception": 1, "cli.documented_exit_code": 1,
                       "cli.expected_exit_code": 1, "cli.json": 1}
    assert checks.failed == 6 and checks.attempted > checks.failed


def test_tracer_refuses_a_missing_hook():
    class Owner:
        def present(self):
            return 1

    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.patch(Owner, "gone", "owner.gone")
    tracer.patch(Owner, "present", "owner.present")
    assert Owner().present() == 1 and tracer.total("owner.present") > 0
    tracer.restore()
    assert Owner.present.__name__ == "present"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = run("--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0 and done.stdout == ""


def test_certificate_rejects_a_wrong_layering():
    tails, heads = np.array([0, 1, 0]), np.array([1, 2, 2])
    assert certify(3, tails, heads, np.array([0, 1, 2]))
    assert not certify(3, tails, heads, np.array([0, 1, 1]))
    assert not certify(3, tails, heads, np.array([0, 2, 3]))


def test_expression_model():
    fin = ("fin", ["a", "b"], [(0, 1)], 2)
    assert text(("sum", ("dual", ("fan",)), ("con", fin))) == "sum(dual(fan), con(fin{a,b;a<b}))"
    assert attributes(("dual", ("fan",)))["scattered"] is False
    assert attributes(("con", ("dual", ("fan",))))["rank"] == ((0, 2),)
    assert attributes(("dual", fin))["rank"] == ((0, 2),)
    assert attributes(("con", fin))["rank"] == ((0, 1),)
    deep = ("fan",)
    for _ in range(5000):  # deeper than the recursion limit
        deep = ("dual", deep)
    assert attributes(deep)["scattered"] is True and text(deep).startswith("dual(dual(")
    assert ordinal_text(((2, 1), (1, 3), (0, 2))) == "w^2 + w*3 + 2"


def test_pins_cover_every_law_and_catch_dropped_cases():
    from spectop.oracle import run_property_suite

    suite = Suite()
    inp = suite.setup(5, suite.sizes(smoke=True))
    with drawn_posets() as drawn:
        report = run_property_suite(inp["config"])
    pins = suite._pins(inp, drawn)
    cases = {law.name: law.cases for law in report.laws}
    assert set(cases) <= set(pins)
    checks = Checks()
    check_report(cases, {}, pins, checks)
    assert checks.failed == 0
    for law in ("td-witness-is-open", "constructive-isolated-point", "td-patch-scattered-equivalence"):
        fewer = {**cases, law: cases[law] - 1 if law.startswith(("td-w", "con")) else 0}
        checks = Checks()
        check_report(fewer, {}, pins, checks)
        assert [f["check"] for f in checks.record()["failing_checks"]] == [f"pin:{law}"]


def test_verdicts_mix_at_full_size():
    verdicts = Verdicts()
    inp = verdicts.setup(1, verdicts.sizes(smoke=False))
    kinds = verdicts.operations(inp)
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "gallery": 93, "expression": 700, "finite": 60, "nesting": 15, "malformed": 150}
    held_out = [req["kind"] for req in inp["known_defects"]]
    assert sorted(held_out) == ["gallery"] * 8 + ["nesting"]


def test_known_defects_are_held_out_but_still_checked():
    verdicts = Verdicts()
    inp = verdicts.setup(2, verdicts.sizes(smoke=True))
    assert inp["known_defects"] and not any(req.get("known_defect") for req in inp["requests"])
    argvs = [" ".join(req["argv"]) for req in inp["known_defects"]]
    assert all("--absolutely-flat" in a or a.startswith("eval dual(") or a.startswith("eval con(")
               for a in argvs)
    checks = verdicts.known_defects(inp)
    assert checks.attempted >= len(inp["known_defects"])


def test_summary_takes_medians_at_each_pass_reference_speed_and_penalizes_failures():
    from run import LATENCY_LIMIT_S, REFERENCE_S, pass_factors, summarize

    passes = [[(0.1, False), (0.002, False), (0.010, True)],
              [(0.3, False), (0.004, False), (0.030, False)],
              [(0.2, False), (0.006, False), (0.020, False)]]
    r = REFERENCE_S
    factors = pass_factors([[r, r], [r], [2 * r, 2 * r], [2 * r]])
    assert factors == pytest.approx([1.0, 0.5, 0.5])
    latencies, values = summarize(passes, factors)
    assert values["wall_s"] == pytest.approx(0.1 + 0.002 + 0.010)
    assert latencies == pytest.approx([0.1, 0.002, LATENCY_LIMIT_S])
    assert values["latency_p50_ms"] == pytest.approx(100)
    assert values["latency_p99_ms"] == pytest.approx(1000 * LATENCY_LIMIT_S)
