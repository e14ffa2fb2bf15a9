"""The property-law suite with all five blocks, scaled so a pass takes
seconds, with per-law case counts pinned."""

from __future__ import annotations

import contextlib
import dataclasses
import math

from checks import Checks, clock
from tracing import Tracer

# Labeled posets on n points (OEIS A001035), the exhaustive block's count.
LABELED_POSETS = (1, 1, 3, 19, 219, 4231, 130023)

BLOCKS = ("exhaustive", "random_oracle", "finite_laws", "corpus", "gallery")

# Laws whose count depends on the seed's random expressions: each must be
# checked at least once at full size.
EXPRESSION_LAWS = ("td-patch-scattered-equivalence", "patch-obstruction-forces-ltg-failure",
                   "finite-space-analysis-agrees-with-poset")


def _block_fields(sizes: dict) -> dict:
    """SuiteConfig fields that turn on each block alone."""
    return {
        "exhaustive": {"exhaustive_max": sizes["exhaustive_max"]},
        "random_oracle": {"oracle_random_count": sizes["oracle_random_count"],
                          "oracle_random_size": sizes["oracle_random_size"]},
        "finite_laws": {"law_random_count": sizes["law_random_count"],
                        "law_random_size": sizes["law_random_size"]},
        "corpus": {"corpus_count": sizes["corpus_count"], "corpus_depth": sizes["corpus_depth"]},
        "gallery": {"check_gallery": True},
    }


@contextlib.contextmanager
def drawn_posets():
    """Record every poset ``run_property_suite`` draws with ``random_poset``,
    in draw order: the random oracle block's, then the finite-law block's,
    then the corpus's ``fin`` leaves."""
    from spectop import oracle

    drawn = []
    original = oracle.random_poset

    def record(*args, **kwargs):
        poset = original(*args, **kwargs)
        drawn.append(poset)
        return poset

    oracle.random_poset = record
    try:
        yield drawn
    finally:
        oracle.random_poset = original


def pinned_cases(sizes: dict, subset_cap: int, drawn: list) -> dict[str, tuple[str, int]]:
    """Per-law case counts the suite must report, as ("==" | ">=", n).

    Exact for every law of the exhaustive, random oracle and finite-law
    blocks, from the configuration and the sizes of the drawn posets
    (``drawn``, as :func:`drawn_posets` records them).  The corpus laws
    that every expression checks are exact; those that only some
    expressions check must appear at least once.  Gallery laws have lower
    bounds, since the gallery may grow.
    """
    e, o = sizes["exhaustive_max"], sizes["oracle_random_count"]
    laws, corpus = sizes["law_random_count"], sizes["corpus_count"]
    oracle_sizes = [len(p) for p in drawn[:o]]
    law_sizes = [len(p) for p in drawn[o:o + laws]]

    def pool(n: int) -> int:  # subsets checked on an n-point poset
        return 1 << n if 1 << n <= subset_cap else subset_cap + 2

    posets = sum(LABELED_POSETS[: e + 1])
    subsets = sum(c * pool(n) for n, c in enumerate(LABELED_POSETS[: e + 1])) + sum(map(pool, oracle_sizes))
    nonempty = sum(1 for n in law_sizes if n)
    pins = {
        "poset-enumeration-cross-check": ("==", min(e, 4) + 1),
        "rank-matches-oracle": ("==", posets + o),
        "closed-subset-scattered-matches-oracle": ("==", posets + o),
    }
    for law in ("closure-matches-oracle", "open-test-matches-oracle",
                "isolated-matches-oracle", "derivative-matches-oracle"):
        pins[law] = ("==", subsets)
    for law in ("dual-involution", "rank-invariant-under-dual", "scattered-via-closed-subsets",
                "dual-scattered-via-closed-subsets", "json-roundtrip"):
        pins[law] = ("==", laws)
    pins["rank-is-height-plus-one"] = ("==", nonempty)
    pins["rank-of-empty-is-zero"] = ("==", laws - nonempty)
    pins["constructive-isolated-point"] = ("==", nonempty)
    pins["td-witness-is-open"] = ("==", sum(law_sizes))
    for law in ("sum-rank-is-max", "derivative-distributes-over-sum"):
        pins[law] = ("==", max(laws - 1, 0))
    for law in ("normal-form-has-no-dual-con", "normalize-idempotent", "self-duality",
                "dual-involution-on-expressions", "scattered-implies-td",
                "scattered-passes-to-patch"):
        pins[law] = ("==", corpus)
    for law in ("rewrite-measure-decreases", "random-order-rewriting-confluent"):
        pins[law] = ("==", math.ceil(corpus / 10))
    for law in EXPRESSION_LAWS:
        pins[law] = (">=", 1 if corpus else 0)
    for law, n in (("gallery-verdict-computes", 5), ("gallery-known-truth-matches", 3),
                   ("non-sufficiency-stays-inconclusive", 2), ("non-sufficiency-never-generates", 2)):
        pins[law] = (">=", n)
    return pins


def check_report(cases: dict[str, int], failures: dict[str, int], pins: dict, checks: Checks) -> None:
    """Law failures count as failed checks; then every pin is one check."""
    for law, n in cases.items():
        checks.tally(f"law:{law}", n, failures.get(law, 0), f"{failures.get(law, 0)} of {n} cases failed")
    for law, (op, want) in pins.items():
        got = cases.get(law, 0)
        ok = got == want if op == "==" else got >= want
        checks.check(f"pin:{law}", ok, f"{got} cases, pinned {op} {want}")


def _law_tables(reports) -> tuple[dict, dict]:
    cases: dict[str, int] = {}
    failures: dict[str, int] = {}
    for report in reports:
        for law in report.laws:
            cases[law.name] = cases.get(law.name, 0) + law.cases
            failures[law.name] = failures.get(law.name, 0) + law.failures
    return cases, failures


class Suite:
    name = "suite"

    def sizes(self, smoke: bool) -> dict:
        if smoke:
            return {"exhaustive_max": 3, "oracle_random_count": 10, "oracle_random_size": 8,
                    "law_random_count": 10, "law_random_size": 12,
                    "corpus_count": 60, "corpus_depth": 4}
        return {"exhaustive_max": 5, "oracle_random_count": 100, "oracle_random_size": 10,
                "law_random_count": 40, "law_random_size": 40,
                "corpus_count": 1000, "corpus_depth": 6}

    def setup(self, seed: int, sizes: dict) -> dict:
        from spectop.oracle import SuiteConfig

        blocks = _block_fields(sizes)
        empty = dataclasses.replace(SuiteConfig.empty(), seed=seed)
        full = empty
        for fields in blocks.values():
            full = dataclasses.replace(full, **fields)
        return {"seed": seed, "sizes": sizes, "config": full,
                "blocks": {b: dataclasses.replace(empty, **blocks[b]) for b in BLOCKS}}

    def operations(self, inp: dict) -> list[str]:
        return ["run_property_suite"]

    def _pins(self, inp: dict, drawn: list) -> dict:
        return pinned_cases(inp["sizes"], inp["config"].oracle_subset_samples, drawn)

    def run_pass(self, inp: dict, checks: Checks) -> list[tuple[float, bool]]:
        from spectop.oracle import run_property_suite

        failed_before = checks.failed
        with drawn_posets() as drawn:
            started = clock()
            report = run_property_suite(inp["config"])
            elapsed = clock() - started
        checks.check("suite.passed", report.passed, "report.passed is False")
        check_report(*_law_tables([report]), self._pins(inp, drawn), checks)
        return [(elapsed, checks.failed > failed_before)]

    def finish(self, inp: dict, checks: Checks) -> None:
        pass

    def known_defects(self, inp: dict) -> Checks:
        return Checks()  # nothing of this workload is held out

    def traced(self, inp: dict, tracer: Tracer, checks: Checks) -> tuple[float, dict]:
        """Each block alone under its own span, then the poset probe."""
        from spectop.oracle import run_property_suite

        reports = []
        with drawn_posets() as drawn:
            started = clock()
            for block in BLOCKS:
                with tracer.span(f"oracle.{block}"):
                    reports.append(run_property_suite(inp["blocks"][block]))
            elapsed = clock() - started
        checks.check("suite.blocks_passed", all(r.passed for r in reports), "a block failed")
        cases, failures = _law_tables(reports)
        check_report(cases, failures, self._pins(inp, drawn), checks)
        metrics = {f"oracle.{b}_s": tracer.total(f"oracle.{b}") for b in BLOCKS}
        metrics["oracle.cases"] = sum(cases.values())
        metrics["oracle.posets_enumerated"] = sum(reports[0].poset_counts.values())
        checks.check("suite.posets_enumerated",
                     metrics["oracle.posets_enumerated"]
                     == sum(LABELED_POSETS[: inp["sizes"]["exhaustive_max"] + 1]),
                     f"{metrics['oracle.posets_enumerated']} posets enumerated")
        o, laws = inp["sizes"]["oracle_random_count"], inp["sizes"]["law_random_count"]
        metrics.update(self._poset_probe(inp, drawn[o:o + laws], tracer, checks))
        return elapsed, metrics

    def _poset_probe(self, inp: dict, law_posets: list, tracer: Tracer, checks: Checks) -> dict:
        """Time the poset operations on the posets the finite-law block drew."""
        from spectop.poset import FinitePoset, construct_poset

        budget = inp["config"].law_upset_budget
        for p in law_posets:
            with tracer.span("poset.construct_poset"):
                q = construct_poset(p.elements, p.covers)
            with tracer.span("poset.rank_int"):
                rank = q.rank_int()
            with tracer.span("poset.dual"):
                d = q.dual()
            with tracer.span("poset.scattered_via_closed_subsets"):
                scattered = q.scattered_via_closed_subsets(budget) and d.scattered_via_closed_subsets(budget)
            with tracer.span("poset.json_roundtrip"):
                back = FinitePoset.from_json(q.to_json())
            checks.check("poset.probe", q == p and back == p and scattered
                         and rank == (q.height() + 1 if len(q) else 0), repr(p))
        return {f"{name}_s": tracer.total(name) for name in (
            "poset.scattered_via_closed_subsets", "poset.construct_poset", "poset.dual",
            "poset.rank_int", "poset.json_roundtrip")}
