"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time

import pytest

from spectop import (Con, Dual, FieldsGenerate, SuiteConfig, fan_ring,
                     get_entry, idempotent_ring, normalize, random_expr,
                     run_bench, run_property_suite)
from spectop.cli import main


def report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def default_suite():
    started = time.perf_counter()
    suite_report = run_property_suite(SuiteConfig())
    return suite_report, time.perf_counter() - started


def law(suite_report, name):
    return next(entry for entry in suite_report.laws if entry.name == name)


def run_cli_json(capsys, *argv):
    started = time.perf_counter()
    code = main([*argv, "--json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[0]), elapsed


def test_criterion_1_fan_space_attributes_and_verdict(capsys):
    code, fan_eval, t1 = run_cli_json(capsys, "eval", "fan")
    attrs = fan_eval["analysis"]
    ok = (
        code == 0
        and attrs["is_td"] is True
        and attrs["scattered"] is True
        and attrs["cb_rank"] == "2"
        and attrs["quasi_compact"] is True
    )
    code, dual_eval, t2 = run_cli_json(capsys, "eval", "dual(fan)")
    dual_attrs = dual_eval["analysis"]
    ok = ok and code == 0 and dual_attrs["is_td"] is False and dual_attrs["scattered"] is False
    code, verdict_out, t3 = run_cli_json(capsys, "verdict", "fan")
    verdict = verdict_out["verdict"]
    ok = (
        ok
        and code == 0
        and verdict["ltg"] == "Fails"
        and verdict["fields_generate"] == "Generates"
        and any("Thm 7.8" in c for c in verdict["citations"])
        and any("Thm 2.1" in c for c in verdict["citations"])
        and max(t1, t2, t3) < 1.0
    )
    report(1, "fan space: T_D scattered rank-2 spectrum, dual not T_D, "
              "LTG fails (Thm 7.8) while fields generate (Thm 2.1), under 1s", ok)


def test_criterion_2_cantor_spectrum_verdict(capsys):
    code, payload, elapsed = run_cli_json(capsys, "verdict", "idempotent", "--n", "omega")
    verdict = payload["verdict"]
    ok = (
        code == 0
        and verdict["fields_generate"] == "DoesNotGenerate"
        and verdict["ltg"] == "Fails"
        and any("Cor 5.4" in c for c in verdict["citations"])
        and elapsed < 1.0
    )
    report(2, "Cantor spectrum: fields do not generate and LTG fails, under 1s", ok)


def test_criterion_3_non_sufficiency_entries_stay_inconclusive():
    ok = True
    for name in ("valuation_rank1", "neeman_ring"):
        entry = get_entry(name)
        verdict = entry.verdict()
        ok = (
            ok
            and entry.known_truth.fields is FieldsGenerate.DOES_NOT_GENERATE
            and verdict.fields_generate is FieldsGenerate.INCONCLUSIVE
            and verdict.fields_generate is not FieldsGenerate.GENERATES
        )
    report(3, "non-sufficiency entries return Inconclusive, never Generates", ok)


def test_criterion_4_self_duality_over_corpus():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        e = random_expr(rng, 6)
        if normalize(Con(Dual(e))) != normalize(Con(e)):
            failures += 1
    report(4, "con(dual(e)) normalizes to con(e) on 1000 random expressions", failures == 0)


def test_criterion_5_exhaustive_oracle_equivalence():
    started = time.perf_counter()
    suite_report = run_property_suite(
        SuiteConfig(exhaustive_max=5, oracle_random_count=0, law_random_count=0,
                    corpus_count=0, check_gallery=False)
    )
    elapsed = time.perf_counter() - started
    oracle_laws = (
        "closure-matches-oracle",
        "open-test-matches-oracle",
        "isolated-matches-oracle",
        "derivative-matches-oracle",
        "rank-matches-oracle",
        "closed-subset-scattered-matches-oracle",
    )
    total_posets = sum(suite_report.poset_counts.values())
    ok = (
        suite_report.poset_counts[5] == 4231
        and total_posets == 4474
        and all(law(suite_report, name).failures == 0 for name in oracle_laws)
        and law(suite_report, "rank-matches-oracle").cases == total_posets
        and law(suite_report, "poset-enumeration-cross-check").failures == 0
        and elapsed < 60.0
    )
    report(5, f"exhaustive oracle equivalence over all {total_posets} labeled posets "
              f"up to 5 elements in {elapsed:.1f}s", ok)


def test_criterion_6_finite_space_laws(default_suite):
    suite_report, _ = default_suite
    names = (
        "dual-involution",
        "rank-invariant-under-dual",
        "scattered-via-closed-subsets",
        "dual-scattered-via-closed-subsets",
        "td-witness-is-open",
        "constructive-isolated-point",
        "rank-is-height-plus-one",
    )
    ok = all(law(suite_report, name).failures == 0 for name in names)
    # one case per drawn poset, so a law that silently skips posets shows here
    once_per_poset = (
        "dual-involution",
        "rank-invariant-under-dual",
        "scattered-via-closed-subsets",
        "dual-scattered-via-closed-subsets",
        "json-roundtrip",
    )
    nonempty = law(suite_report, "rank-is-height-plus-one").cases
    ok = (ok
          and all(law(suite_report, name).cases == 1000 for name in once_per_poset)
          and nonempty + law(suite_report, "rank-of-empty-is-zero").cases == 1000
          and law(suite_report, "constructive-isolated-point").cases == nonempty)
    report(6, "finite-space laws on 1000 random posets up to 40 elements", ok)


def test_criterion_7_structural_laws_over_corpus(default_suite):
    suite_report, _ = default_suite
    corpus_laws = (
        "scattered-implies-td",
        "scattered-passes-to-patch",
        "td-patch-scattered-equivalence",
        "patch-obstruction-forces-ltg-failure",
        "self-duality",
        "normalize-idempotent",
    )
    ok = all(law(suite_report, name).failures == 0 for name in corpus_laws)
    ok = ok and law(suite_report, "scattered-implies-td").cases >= 1000
    # the closed-subsets evaluator must agree with rank existence everywhere
    ok = (ok
          and law(suite_report, "closed-subset-scattered-matches-oracle").failures == 0
          and law(suite_report, "scattered-via-closed-subsets").failures == 0)
    report(7, "scatteredness/T_D/patch laws over 1000 corpus expressions and "
              "closed-subset evaluator agreement", ok)


def test_criterion_8_ring_family_shapes():
    ok = True
    for n in range(13):
        poset = idempotent_ring(n, max_points=1 << 13).space.poset
        ok = ok and len(poset) == 2 ** n and poset.rank_int() == 1
    fan_sizes = list(range(1, 33)) + [100, 1000, 2048, 10_000]
    for n in fan_sizes:
        poset = fan_ring(n).space.poset
        ok = ok and len(poset) == n + 1 and poset.rank_int() == 2
    report(8, "idempotent rings have 2^n points at rank 1 (n<=12); "
              "fan rings have rank 2 up to n=10^4", ok)


def test_criterion_9_large_scale_layering():
    baseline = run_bench(1_000_000, density=2.0, seed=7, threads=1, verify=True)
    ok = (
        baseline.seconds_layering < 30.0
        and baseline.agree is True
        and baseline.rank == baseline.longest_path_rank
    )
    for threads in (2, 8):
        rerun = run_bench(1_000_000, density=2.0, seed=7, threads=threads, verify=False)
        ok = ok and rerun.layer_sizes == baseline.layer_sizes and rerun.rank == baseline.rank
    report(9, f"one-million-node layering in {baseline.seconds_layering:.1f}s, "
              "rank equal to the longest-path check, identical across 1/2/8 threads", ok)
