"""The interactive path: a seeded stream of ``verdict``/``eval``/``export``
requests through ``spectop.cli.main`` in-process, closed loop, one caller.

Every request carries what the answer must be, worked out here without
calling spectop: the allowed exit codes, gallery ground truth from the
literature, and for expressions an independent attribute model of the
normal form.

Requests that hit a known defect of the program are held out of the
timed passes: a benchmark run must be one on which no operation fails.
They are still sent and checked once in every run, after the passes, and
their failing checks are listed apart (``known_defects`` in the run's
record, and on standard error), so the defects keep showing until they are
fixed.  They are the non-sufficiency witnesses under ``--absolutely-flat``
(each answers ``Generates``) and the nesting ``defect_depth`` deep (it
raises ``RecursionError``).

The mix.  No usage record of the CLI exists, so the shares of the kinds
of request are assumptions, not measurements.  Three kinds are full
grids, each combination the benchmark covers asked once, and their counts
follow from the grid: ``gallery`` (every gallery name x ``--n`` value x
flag set, plus exports and over-budget sizes, 101 requests), ``finite``
(``fin{...}`` of each ladder size x three shapes x ``eval``/``verdict``,
60) and ``nesting`` (16).  The other two counts are free choices:
``expression`` (700 random expressions, so that the median request is a
typical small expression) and ``malformed`` (150).  Together 1027 per
pass, of which 9 are held out as known defects (8 gallery, 1 nesting),
leaving 1018 timed: 69% expression, 15% malformed, 9% gallery, 6% finite,
1% nesting.
``latency_p50_ms`` is in effect the median ``expression`` request, and
``latency_p99_ms`` falls among the large ``finite`` and ``gallery``
requests.  The run's record gives each kind's count and median latency,
so a change to the mix shows there as well as in the percentiles.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from checks import Checks, clock
from tracing import Tracer

FLAG_SETS = ((), ("--absolutely-flat",), ("--gabriel",), ("--absolutely-flat", "--gabriel"))
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}

# Gallery ground truth as published, keyed by (name, n): ltg and fields.
GALLERY_TRUTH = {
    ("fan", "omega"): ("Fails", "Generates"),
    ("idempotent", "omega"): ("Fails", "DoesNotGenerate"),
    ("valuation_rank1", None): (None, "DoesNotGenerate"),
    ("neeman_ring", None): (None, "DoesNotGenerate"),
    ("integers_like", None): ("Holds", "Generates"),
}
NON_SUFFICIENCY = {"valuation_rank1", "neeman_ring"}
# (points, covers) of the curated finite entries
CURATED_FINITE = {"valuation_rank1": (2, 1), "neeman_ring": (1, 0)}


# -- an independent model of expressions ---------------------------------------
#
# Nodes are tuples: ("fan",) ("cofan",) ("omega1",) ("cantor",)
# ("tower", text, cnf) ("fin", labels, covers, rank) ("dual", x) ("con", x)
# ("sum", a, b).  An ordinal is its CNF as a tuple of (exponent, coefficient)
# pairs, which Python compares in ordinal order.

TOWERS = (("0", ()), ("1", ((0, 1),)), ("3", ((0, 3),)), ("w + 1", ((1, 1), (0, 1))),
          ("w*2 + 1", ((1, 2), (0, 1))), ("w^2 + 2", ((2, 1), (0, 2))))
_TWO = ((0, 2),)


def ordinal_text(cnf: tuple) -> str:
    if not cnf:
        return "0"
    terms = []
    for exp, coeff in cnf:
        if exp == 0:
            terms.append(str(coeff))
        else:
            base = "w" if exp == 1 else f"w^{exp}"
            terms.append(base if coeff == 1 else f"{base}*{coeff}")
    return " + ".join(terms)


def longest_chain(n: int, covers: list[tuple[int, int]]) -> int:
    """Number of elements on a longest chain; covers go from lower to
    higher index."""
    depth = [1] * n
    for a, b in sorted(covers, key=lambda c: c[1]):
        depth[b] = max(depth[b], depth[a] + 1)
    return max(depth, default=0)


def fin_node(labels: list[str], covers: list[tuple[int, int]]) -> tuple:
    return ("fin", labels, covers, longest_chain(len(labels), covers))


def _unwrap(node: tuple) -> tuple[list[str], tuple]:
    """Split off the dual/con wrappers without recursing, so nesting far
    deeper than the interpreter's recursion limit is still modelled."""
    wrappers = []
    while node[0] in ("dual", "con"):
        wrappers.append(node[0])
        node = node[1]
    return wrappers, node


def text(node: tuple) -> str:
    wrappers, node = _unwrap(node)
    kind = node[0]
    if kind == "tower":
        core = f"tower({node[1]})"
    elif kind == "fin":
        labels, covers = node[1], node[2]
        core = ("fin{" + ",".join(labels) + ";"
                + ",".join(f"{labels[a]}<{labels[b]}" for a, b in covers) + "}")
    elif kind == "sum":
        core = f"sum({text(node[1])}, {text(node[2])})"
    else:
        core = kind
    return "".join(f"{w}(" for w in wrappers) + core + ")" * len(wrappers)


def attributes(node: tuple, dual: bool = False, con: bool = False) -> dict:
    """Attributes of the space, from where each leaf lands in the normal
    form: under any con it becomes its patch space, else dual flips it."""
    wrappers, node = _unwrap(node)
    dual ^= wrappers.count("dual") % 2 == 1
    con = con or "con" in wrappers
    kind = node[0]
    if kind == "sum":
        a, b = attributes(node[1], dual, con), attributes(node[2], dual, con)
        scattered = a["scattered"] and b["scattered"]
        return {"nonempty": a["nonempty"] or b["nonempty"], "is_td": a["is_td"] and b["is_td"],
                "has_isolated_point": a["has_isolated_point"] or b["has_isolated_point"],
                "scattered": scattered, "rank": max(a["rank"], b["rank"]) if scattered else None}
    if kind in ("fan", "cofan") and con:
        kind = "omega1"
    elif kind in ("fan", "cofan") and dual:
        kind = "cofan" if kind == "fan" else "fan"
    if kind in ("fan", "omega1"):
        return _leaf(True, True, True, True, _TWO)
    if kind == "cofan":
        return _leaf(True, False, False, False, None)
    if kind == "cantor":
        return _leaf(True, True, False, False, None)
    if kind == "tower":
        return _leaf(bool(node[2]), True, bool(node[2]), True, node[2])
    rank = (1 if node[1] else 0) if con else node[3]
    return _leaf(bool(node[1]), True, bool(node[1]), True, ((0, rank),) if rank else ())


def _leaf(nonempty, is_td, isolated, scattered, rank) -> dict:
    return {"nonempty": nonempty, "is_td": is_td, "has_isolated_point": isolated,
            "scattered": scattered, "rank": rank}


def random_fin(rng: random.Random, max_size: int) -> tuple:
    n = rng.randint(0, max_size)
    labels = [f"{rng.choice('abcdpqxy')}{i}" for i in range(n)]
    covers = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.4]
    return fin_node(labels, covers)


def random_node(rng: random.Random, depth: int) -> tuple:
    if depth <= 1 or rng.random() < 0.35:
        kind = rng.randrange(6)
        if kind < 4:
            return (("fan",), ("cofan",), ("omega1",), ("cantor",))[kind]
        if kind == 4:
            return ("tower", *rng.choice(TOWERS))
        return random_fin(rng, 4)
    roll = rng.random()
    if roll < 0.3:
        return ("dual", random_node(rng, depth - 1))
    if roll < 0.6:
        return ("con", random_node(rng, depth - 1))
    return ("sum", random_node(rng, depth - 1), random_node(rng, depth - 1))


# -- the request stream ----------------------------------------------------------


def _req(argv: list[str], codes, **expect) -> dict:
    return {"argv": argv, "codes": frozenset(codes), **expect}


def _kind(kind: str, requests: list[dict]) -> list[dict]:
    for req in requests:
        req["kind"] = kind
    return requests


def _gallery_points(name: str, n) -> tuple[int, int] | None:
    """(points, covers) of a finite gallery space, None when infinite."""
    if name == "fan" and isinstance(n, int):
        return (n + 1, n) if n else (1, 0)
    if name == "idempotent" and isinstance(n, int):
        return 2 ** n, 0
    return CURATED_FINITE.get(name)


def gallery_requests(rng: random.Random, sizes: dict) -> list[dict]:
    big_fan, big_idem = sizes["fan_n"], sizes["idempotent_n"]
    params = {
        "fan": [None, "omega", 0, rng.randint(1, 20), rng.randint(21, min(999, big_fan)), big_fan],
        "idempotent": [None, "omega", 0, rng.randint(1, 5), rng.randint(6, big_idem - 1), big_idem],
        "valuation_rank1": [None, "omega"],
        "neeman_ring": [None, "omega"],
        "integers_like": [None, "omega"],
    }
    out = []
    for name, ns in params.items():
        for n in ns:
            arg = [] if n is None else ["--n", str(n)]
            resolved = n if name in ("fan", "idempotent") else None
            if name in ("fan", "idempotent") and n is None:
                resolved = "omega"
            shape = _gallery_points(name, resolved)
            for flags in FLAG_SETS:
                out.append(_req(["verdict", name, *arg, *flags, "--json"], {0, 3} if flags else {0},
                                cmd="verdict", flags=flags, finite=shape is not None,
                                points=shape[0] if shape else None,
                                truth=GALLERY_TRUTH.get((name, resolved)),
                                never_generates=name in NON_SUFFICIENCY,
                                known_defect=name in NON_SUFFICIENCY and "--absolutely-flat" in flags))
            if shape is not None:
                for fmt in ("json", "dot"):
                    out.append(_req(["export", name, *arg, "--format", fmt], {0}, cmd="export",
                                    fmt=fmt, points=shape[0], covers=shape[1]))
    for name in ("fan", "integers_like", "cantor"):
        out.append(_req(["export", name], {2}, cmd="export"))
    for n in (rng.randint(30, 45), rng.randint(46, 60)):
        out.append(_req(["verdict", "idempotent", "--n", str(n), "--json"], {4}, cmd="verdict"))
    return out


def expression_requests(rng: random.Random, count: int, depth: int) -> list[dict]:
    out = []
    for _ in range(count):
        node = random_node(rng, depth)
        if rng.random() < 0.5:
            out.append(_req(["eval", text(node), "--json"], {0}, cmd="eval", model=attributes(node)))
            continue
        flags = rng.choice(FLAG_SETS) if rng.random() < 0.3 else ()
        con_scattered = attributes(node, con=True)["scattered"]
        if "--gabriel" in flags and not con_scattered:
            codes = {3}  # Gabriel dimension forces generation, the patch space forbids it
        else:
            codes = {0, 3} if flags else {0}
        out.append(_req(["verdict", text(node), *flags, "--json"], codes, cmd="verdict",
                        flags=flags, finite=False,
                        ltg="Holds" if attributes(node, dual=True)["scattered"] else "Fails",
                        con_scattered=con_scattered))
    return out


def _shape(rng: random.Random, shape: str, n: int) -> tuple:
    ids = list(range(n))
    rng.shuffle(ids)
    labels = [f"v{i}" for i in ids]
    if shape == "chain":
        covers = [(i, i + 1) for i in range(n - 1)]
    elif shape == "antichain":
        covers = []
    else:  # each point above up to three random earlier points
        covers = sorted({(rng.randrange(b), b) for b in range(1, n) for _ in range(rng.randint(0, 3))})
    return fin_node(labels, covers)


def finite_requests(rng: random.Random, ladder: list[int]) -> list[dict]:
    """Finite posets as fin{...} text on both sides of CLOSURE_LIMIT."""
    out = []
    for n in ladder:
        for shape in ("chain", "antichain", "random"):
            node = _shape(rng, shape, n)
            out.append(_req(["eval", text(node), "--json"], {0}, cmd="eval", model=attributes(node)))
            out.append(_req(["verdict", text(node), "--json"], {0}, cmd="verdict", flags=(),
                            finite=True, points=n, ltg="Holds", con_scattered=True))
    return out


def nesting_requests(rng: random.Random, depths: list[int], defect_depth: int) -> list[dict]:
    """Deep dual/con/sum nesting.  A refusal with SizeError (exit 4) is a
    documented answer; a traceback is not."""
    out = []
    leaves = (("fan",), ("cofan",), ("cantor",), ("tower", *TOWERS[4]))
    for k in [*depths, defect_depth]:
        leaf = rng.choice(leaves)
        node = leaf
        for _ in range(k):
            node = (rng.choice(("dual", "dual", "con")), node)
        out.append(_req(["eval", text(node), "--json"], {0, 4}, cmd="eval", model=attributes(node),
                        known_defect=k == defect_depth))
    for k in (d for d in depths if d <= 300):
        node = ("fan",)
        for _ in range(k):
            node = ("sum", rng.choice(leaves), node)
        out.append(_req(["eval", text(node), "--json"], {0, 4}, cmd="eval", model=attributes(node)))
    return out


MALFORMED = (
    "sum(fan, cofan", "dual(fan", "fan)", "fann", "sum(fan, foo)", "sum(fan)",
    "dual(fan, cofan)", "sum(fan, fan, fan)", "fin{a,b;a<c}", "fin{a,a;}",
    "fin{a,b;a<b,b<a}", "fin{a;a<a}", "fin{a,b;a<}", "fin{a b;}", "tower(w)",
    "tower(x)", "tower(3", "tower(w*0)", "", "   ", "con()", "@perfbench/missing-poset.json",
)


def malformed_requests(rng: random.Random, count: int) -> list[dict]:
    out = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.6:
            out.append(_req([rng.choice(("eval", "verdict")), rng.choice(MALFORMED), "--json"], {2},
                            cmd="error"))
        elif roll < 0.8:
            n = rng.choice(("-3", "abc", "1.5", "", "w"))
            out.append(_req(["verdict", rng.choice(("fan", "idempotent")), "--n", n, "--json"], {2},
                            cmd="error"))
        else:
            out.append(_req(["verdict", "fan", rng.choice(("--frobnicate", "--n")), "--json"], {2},
                            cmd="error"))
    return out


# -- checking one reply ------------------------------------------------------------

_ANALYSIS_KEYS = {"nonempty", "quasi_compact", "is_td", "has_isolated_point", "scattered", "cb_rank"}


def _fin_points(space: str) -> int | None:
    if not space.startswith("fin{"):
        return None
    labels = space[4:space.index(";")]
    return len(labels.split(",")) if labels else 0


def check_reply(req: dict, code, exc, stdout: str, checks: Checks) -> bool:
    """All checks of one request; False if any failed."""
    where = " ".join(a if len(a) < 60 else a[:57] + "..." for a in req["argv"])
    if not checks.check("cli.no_uncaught_exception", exc is None, f"{where}: {exc!r}"):
        return False
    ok = checks.check("cli.documented_exit_code", code in DOCUMENTED_EXIT_CODES, f"{where}: exit {code}")
    ok &= checks.check("cli.expected_exit_code", code in req["codes"],
                       f"{where}: exit {code}, expected {sorted(req['codes'])}")
    if code != 0 or not ok:
        return ok
    cmd = req["cmd"]
    if cmd == "export":
        return ok & _check_export(req, stdout, where, checks)
    try:
        payload = json.loads(stdout)
    except ValueError:
        return checks.check("cli.json", False, f"{where}: not one JSON document")
    if cmd == "eval":
        return ok & _check_eval(req, payload, where, checks)
    return ok & _check_verdict(req, payload, where, checks)


def _check_eval(req, payload, where, checks) -> bool:
    analysis = payload.get("analysis")
    if not checks.check("eval.schema", isinstance(payload.get("normalized"), str)
                        and isinstance(analysis, dict) and _ANALYSIS_KEYS <= analysis.keys(),
                        f"{where}: {str(payload)[:200]}"):
        return False
    ok = checks.check("eval.normal_form", "dual(" not in payload["normalized"]
                      and "con(" not in payload["normalized"], where)
    model = req["model"]
    got = {k: analysis[k] for k in ("nonempty", "is_td", "has_isolated_point", "scattered")}
    want = {k: model[k] for k in got}
    want_rank = None if model["rank"] is None else ordinal_text(model["rank"])
    ok &= checks.check("eval.attributes", got == want and analysis["quasi_compact"] is True,
                       f"{where}: {got} != {want}")
    ok &= checks.check("eval.cb_rank", analysis["cb_rank"] == want_rank,
                       f"{where}: cb_rank {analysis['cb_rank']!r} != {want_rank!r}")
    return ok


def _check_verdict(req, payload, where, checks) -> bool:
    verdict = payload.get("verdict")
    meta = payload.get("meta")
    if not checks.check("verdict.schema", isinstance(verdict, dict) and isinstance(meta, dict)
                        and isinstance(payload.get("space"), str)
                        and verdict.get("ltg") in ("Holds", "Fails")
                        and verdict.get("fields_generate") in ("Generates", "DoesNotGenerate", "Inconclusive")
                        and isinstance(verdict.get("citations"), list) and verdict["citations"],
                        f"{where}: {str(payload)[:200]}"):
        return False
    ltg, fields = verdict["ltg"], verdict["fields_generate"]
    flags = req["flags"]
    ok = checks.check("verdict.meta_flags",
                      ("--absolutely-flat" not in flags or meta.get("absolutely_flat") is True)
                      and ("--gabriel" not in flags or meta.get("has_gabriel_dimension") is True),
                      f"{where}: meta {meta}")
    truth = req.get("truth")
    if truth is not None:
        want_ltg, want_fields = truth
        # Inconclusive never contradicts; a decided answer must match
        ok &= checks.check("gallery.known_truth",
                           (want_ltg is None or ltg == want_ltg)
                           and (want_fields is None or fields in (want_fields, "Inconclusive")),
                           f"{where}: ltg={ltg} fields={fields}, truth ltg={want_ltg} fields={want_fields}")
    if req.get("never_generates"):
        ok &= checks.check("gallery.non_sufficiency_never_generates", fields != "Generates",
                           f"{where}: {fields}")
    if req.get("finite"):
        ok &= checks.check("verdict.finite_ltg_holds", ltg == "Holds", f"{where}: ltg={ltg}")
    if req.get("points") is not None:
        points = _fin_points(payload["space"])
        ok &= checks.check("verdict.points", points == req["points"],
                           f"{where}: {points} points, expected {req['points']}")
    if "ltg" in req:
        ok &= checks.check("verdict.ltg", ltg == req["ltg"], f"{where}: ltg={ltg}, expected {req['ltg']}")
    if req.get("con_scattered") is False:
        # Thm 5.3: no Cantor-Bendixson rank on the patch space, no generation
        ok &= checks.check("verdict.patch_obstruction", fields == "DoesNotGenerate", f"{where}: {fields}")
    elif req.get("con_scattered") and "--absolutely-flat" in flags and "--gabriel" not in flags:
        # Thm 4.1: absolutely flat with scattered patch space generates
        ok &= checks.check("verdict.absolutely_flat", fields == "Generates", f"{where}: {fields}")
    return ok


def _check_export(req, stdout, where, checks) -> bool:
    if req["fmt"] == "json":
        try:
            data = json.loads(stdout)
            shape = (len(data["labels"]), len(data["covers"]))
        except (ValueError, KeyError, TypeError):
            return checks.check("export.json", False, f"{where}: {stdout[:200]!r}")
    else:
        lines = stdout.strip().splitlines()
        if not checks.check("export.dot", lines[:1] == ["digraph poset {"] and lines[-1:] == ["}"],
                            f"{where}: {stdout[:200]!r}"):
            return False
        edges = sum(1 for line in lines if "->" in line)
        shape = (len(lines) - 2 - edges, edges)
    return checks.check("export.shape", shape == (req["points"], req["covers"]),
                        f"{where}: {shape} != {(req['points'], req['covers'])}")


# -- the workload ---------------------------------------------------------------------


def call(main, argv: list[str]) -> tuple[float, object, Exception | None, str]:
    """One request through the CLI entry point: (seconds, exit code,
    uncaught exception, stdout).  Only the ``main`` call is timed."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = clock()
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse rejects bad flags with exit 2
            code = stop.code
        except Exception as caught:  # a traceback for the user; counted, never fatal
            exc = caught
        elapsed = clock() - started
    return elapsed, code, exc, out.getvalue()


class Verdicts:
    name = "verdicts"

    def sizes(self, smoke: bool) -> dict:
        if smoke:
            return {"fan_n": 200, "idempotent_n": 8, "ladder": [2, 5, 20, 60], "expressions": 40,
                    "expression_depth": 4, "malformed": 10, "depths": [5, 40], "defect_depth": 3000}
        return {"fan_n": 10_000, "idempotent_n": 12,
                "ladder": [2, 5, 20, 100, 400, 999, 1000, 1001, 2000, 3000],
                "expressions": 700, "expression_depth": 6, "malformed": 150,
                "depths": [1, 2, 5, 13, 40, 100, 300, 500], "defect_depth": 3000}

    def setup(self, seed: int, sizes: dict) -> dict:
        rng = random.Random(seed)
        requests = (_kind("gallery", gallery_requests(rng, sizes))
                    + _kind("expression", expression_requests(rng, sizes["expressions"], sizes["expression_depth"]))
                    + _kind("finite", finite_requests(rng, sizes["ladder"]))
                    + _kind("nesting", nesting_requests(rng, sizes["depths"], sizes["defect_depth"]))
                    + _kind("malformed", malformed_requests(rng, sizes["malformed"])))
        rng.shuffle(requests)
        return {"requests": [req for req in requests if not req.get("known_defect")],
                "known_defects": [req for req in requests if req.get("known_defect")]}

    def operations(self, inp: dict) -> list[str]:
        return [req["kind"] for req in inp["requests"]]

    def run_pass(self, inp: dict, checks: Checks) -> list[tuple[float, bool]]:
        from spectop.cli import main

        ops = []
        for req in inp["requests"]:
            elapsed, code, exc, stdout = call(main, req["argv"])
            ops.append((elapsed, not check_reply(req, code, exc, stdout, checks)))
        return ops

    def finish(self, inp: dict, checks: Checks) -> None:
        pass

    def known_defects(self, inp: dict) -> Checks:
        """Send and check, once and untimed, the requests held out as
        known defects."""
        from spectop.cli import main

        checks = Checks()
        for req in inp["known_defects"]:
            _, code, exc, stdout = call(main, req["argv"])
            check_reply(req, code, exc, stdout, checks)
        return checks

    def traced(self, inp: dict, tracer: Tracer, checks: Checks) -> tuple[float, dict]:
        """One pass with spans around ``cli.main`` and the library calls it
        makes; each request is a root span."""
        from spectop import analysis, cli, poset

        limit = poset.CLOSURE_LIMIT
        total = 0.0
        try:
            tracer.patch(cli, "main", "cli.main")
            for attr, name in (("parse_expr", "dsl.parse_expr"), ("normalize", "dsl.normalize"),
                               ("print_expr", "dsl.print_expr"), ("analyze", "analysis.analyze"),
                               ("evaluate", "analysis.evaluate"), ("get_entry", "gallery.get_entry"),
                               ("export_poset", "poset.export")):
                tracer.patch(cli, attr, name)
            tracer.patch(analysis, "normalize", "dsl.normalize")
            tracer.patch(poset.FinitePoset, "__init__",
                         lambda self, labels, *a, **k:
                         f"poset.construct_poset.{'small' if len(labels) <= limit else 'large'}")
            for req in inp["requests"]:
                with tracer.span("request"):
                    elapsed, code, exc, stdout = call(cli.main, req["argv"])
                total += elapsed
                check_reply(req, code, exc, stdout, checks)
        finally:
            tracer.restore()
        names = ("dsl.parse_expr", "dsl.normalize", "dsl.print_expr", "analysis.analyze",
                 "analysis.evaluate", "gallery.get_entry", "poset.construct_poset.small",
                 "poset.construct_poset.large", "cli.main")
        metrics = {f"{name}_s": tracer.total(name) for name in names}
        metrics["cli.self_s"] = tracer.self_time("cli.main")
        return total, metrics
