"""Command-line surface.

Exit codes: 0 success, 1 property-suite failure, 2 parse or resolution
error, 3 metadata conflict, 4 resource refusal (size budgets, or memory
running out; nesting depth alone is never refused).  ``--json`` switches
every command to line-delimited JSON on stdout.

``main`` is cheap to call repeatedly in one process: the parsers are built
on the first call and reused, and a request that starts with a command name
is parsed once, by that command's own parser, so each later call pays only
for its own request.

``main`` also pauses Python's cyclic garbage collector while a command
runs.  A request's bulk data (a list per point of a poset, a tuple per
cover) holds no reference cycle, so reference counting frees all of it
and a collection would only walk it: on a 1M-point fan the pause takes
about 30% off a request's CPU time, at the same peak memory.  When the
command ends, however it ends, the collector is turned back on if it
was on when the request began.  Arguments are parsed before the pause, so
a usage error leaves the collector as it was.  The pause is made here, at
the application's entry point; library functions (``construct_poset``,
``get_entry``, ``print_expr``, ...) leave it alone.  It is process-wide, so
requests that overlap on several threads change only when collections
run, never a result: the pause begins with the first of them, and the
last to end turns the collector back on if it was on when the first began.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import sys
import threading

from .analysis import RingMeta, analyze, evaluate
from .bench import DEFAULT_NODE_BUDGET, INT_LITERAL, read_edge_list, run_bench
from .dsl import Fin, leaves, normalize, parse_expr, print_expr
from .errors import ConflictError, ParseError, SizeError, SpectopError, quote
from .gallery import NAMES, OMEGA, catalog, get_entry
from .oracle import SuiteConfig, run_property_suite
from .poset import FinitePoset, disjoint_union
from .poset import export as export_poset


def _parse_n(raw: str | None):
    if raw is None:
        return None
    if raw == OMEGA:
        return OMEGA
    try:
        return int(raw)
    except ValueError:
        if INT_LITERAL.fullmatch(raw.strip()):
            # int() refuses a literal only for having too many digits
            raise SizeError(f"--n has more than {sys.get_int_max_str_digits()} digits") from None
        raise ParseError(f"--n expects a natural number or 'omega', got {quote(raw)}") from None


def _load_space(text: str):
    """An expression, or '@file' naming a poset JSON file to replay."""
    if text.startswith("@"):
        return Fin(FinitePoset.from_json(_read_utf8(text[1:])))
    return parse_expr(text)


def _resolve_target(args):
    """A target is a gallery name, an expression, or '@file'; returns
    (space, entry_or_none)."""
    if args.target in NAMES:
        entry = get_entry(args.target, _parse_n(args.n))
        return entry.space, entry
    if args.n is not None:
        raise ParseError(f"--n applies only to a gallery name, not to {quote(args.target)}")
    return _load_space(args.target), None


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _cmd_eval(args) -> int:
    expr = _load_space(args.expr)
    nf = normalize(expr)
    normalized = print_expr(nf)
    analysis = analyze(nf).to_dict()
    payload = {"input": args.expr, "normalized": normalized, "analysis": analysis}
    lines = [f"normalized: {normalized}"]
    lines.extend(f"{key}: {value}" for key, value in analysis.items())
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verdict(args) -> int:
    space, entry = _resolve_target(args)
    meta = entry.meta if entry else RingMeta()
    meta = dataclasses.replace(meta, absolutely_flat=meta.absolutely_flat or args.absolutely_flat,
                               has_gabriel_dimension=meta.has_gabriel_dimension or args.gabriel)
    truth = entry.known_truth if entry else None
    nf = normalize(space)
    verdict = evaluate(nf, meta, known_fields=truth.fields if truth else None)
    payload = {
        "target": args.target,
        "space": print_expr(nf),
        "meta": meta.to_dict(),
        "verdict": verdict.to_dict(),
    }
    if truth is not None:
        payload["known_truth"] = truth.to_dict()
    lines = [
        f"target: {args.target}",
        f"space: {payload['space']}",
        f"ltg: {verdict.ltg.value}",
        f"fields_generate: {verdict.fields_generate.value}",
        "citations:",
    ]
    lines.extend(f"  - {c}" for c in verdict.citations)
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_ring(args) -> int:
    if args.name is None:
        if args.n is not None:
            raise ParseError("--n applies only to a gallery name; 'ring' lists them all")
        entries = catalog()
        if args.json:
            for entry in entries:
                print(json.dumps(entry.to_dict()))
        else:
            for entry in entries:
                print(f"{entry.name}: {entry.description}")
        return 0
    try:
        entry = get_entry(args.name, _parse_n(args.n))
    except KeyError as exc:
        raise ParseError(exc.args[0]) from None
    verdict = entry.verdict()
    payload = entry.to_dict()
    payload["verdict"] = verdict.to_dict()
    lines = [
        f"name: {entry.name}",
        f"description: {entry.description}",
        f"space: {print_expr(entry.space)}",
        f"meta: {entry.meta.to_dict()}",
        f"known_truth: {entry.known_truth.to_dict() if entry.known_truth else None}",
        f"verdict: ltg={verdict.ltg.value}, fields={verdict.fields_generate.value}",
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _report_exit(args, report) -> int:
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        print(report.format_table())
    return 0 if report.passed else 1


def _cmd_oracle(args) -> int:
    if args.exhaustive_max == -1 and args.count == 0:
        raise ValueError("nothing to check: --exhaustive-max -1 and --count 0 skip both oracle blocks")
    config = SuiteConfig(
        seed=args.seed,
        exhaustive_max=args.exhaustive_max,
        oracle_random_count=args.count,
        oracle_random_size=args.max_size,
        law_random_count=0,
        corpus_count=0,
        check_gallery=False,
    )
    return _report_exit(args, run_property_suite(config))


def _cmd_fuzz(args) -> int:
    config = SuiteConfig(
        seed=args.seed,
        exhaustive_max=-1,
        oracle_random_count=0,
        law_random_count=args.count,
        law_random_size=args.max_size,
        corpus_count=args.count,
        corpus_depth=args.depth,
        check_gallery=True,
    )
    return _report_exit(args, run_property_suite(config))


def _cmd_export(args) -> int:
    space, _ = _resolve_target(args)
    parts = []
    for leaf in leaves(normalize(space)):
        if not isinstance(leaf, Fin):
            raise ParseError(f"'{print_expr(leaf)}' does not denote a finite space; cannot export")
        parts.append(leaf.poset)
    print(export_poset(disjoint_union(parts), args.format))
    return 0


# the random DAG's options, which --edges leaves nothing to read
_RANDOM_DAG = {"nodes": 1_000_000, "density": 2.0, "seed": 0}


def _read_utf8(path: str) -> str:
    """The text of the file at ``path``, decoded as UTF-8 whatever the
    locale; ValueError names the line of the first byte that is not."""
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not UTF-8 text") from None


def _cmd_bench(args) -> int:
    given = {name: getattr(args, name) for name in _RANDOM_DAG if getattr(args, name) is not None}
    if args.edges is not None:
        if given:
            raise ParseError(f"--{next(iter(given))} applies only to a random DAG, not to --edges")
        nodes, tails, heads = read_edge_list(_read_utf8(args.edges))
        result = run_bench(nodes, verify=not args.skip_check, node_budget=args.max_size,
                           edges=(tails, heads))
    else:
        result = run_bench(**(_RANDOM_DAG | given), verify=not args.skip_check, node_budget=args.max_size)
    payload = result.to_dict()
    lines = [
        f"nodes: {result.nodes}  edges: {result.edges}",
        f"rank: {result.rank}"
        + ("" if result.agree is None
           else f"  longest-path certificate: {'ok' if result.agree else 'FAILED'}"),
        f"layering seconds: {result.seconds_layering:.3f}  check: {result.seconds_check:.3f}"
        f"  total: {result.seconds_total:.3f}",
        f"layer sizes: {list(result.layer_sizes[:20])}{'...' if result.rank > 20 else ''}",
    ]
    _emit(args, payload, "\n".join(lines))
    if result.agree is False:
        return 1
    return 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The root parser, and each command's own parser by its name.  Built
    on the first main() call and reused: parse_args returns a fresh
    Namespace each time, and argparse looks up sys.stdout, sys.stderr and
    the terminal width only when it prints."""
    parser = argparse.ArgumentParser(
        prog="spectop",
        description="Topological analysis of spectral spaces: ranks, duals, patch topologies and derived-category verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="line-delimited JSON output")

    n_help = "a natural number for the fan and idempotent families, or 'omega' (the default)"

    p = sub.add_parser("eval", help="normalize an expression and print its attributes")
    p.add_argument("expr", help="space expression, or @file naming a poset JSON file")
    add_json(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verdict", help="theorem-backed verdicts for a ring or expression")
    p.add_argument("target", help="gallery name, space expression, or @file with poset JSON")
    p.add_argument("--n", help=n_help)
    p.add_argument("--absolutely-flat", action="store_true", dest="absolutely_flat")
    p.add_argument("--gabriel", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_verdict)

    p = sub.add_parser("ring", help="browse the ring gallery")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--n", help=n_help)
    add_json(p)
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("oracle", help="oracle-equivalence suite over small posets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000, help="random posets to check")
    p.add_argument("--max-size", type=int, default=10, dest="max_size")
    p.add_argument("--exhaustive-max", type=int, default=5, dest="exhaustive_max")
    add_json(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fuzz", help="law suite over random posets and expressions")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-size", type=int, default=40, dest="max_size")
    p.add_argument("--depth", type=int, default=6)
    add_json(p)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("export", help="export a finite space as DOT or JSON")
    p.add_argument("target", help="gallery name or space expression")
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.add_argument("--n", help=n_help)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("bench", help="large-scale layering benchmark")
    p.add_argument("--nodes", type=int, help=f"nodes of the random DAG (default {_RANDOM_DAG['nodes']})")
    p.add_argument("--density", type=float,
                   help=f"expected edges per node of the random DAG (default {_RANDOM_DAG['density']})")
    p.add_argument("--seed", type=int, help=f"seed of the random DAG (default {_RANDOM_DAG['seed']})")
    p.add_argument("--edges", default=None, help="edge-list file, one 'u v' pair per line")
    p.add_argument("--max-size", type=int, default=DEFAULT_NODE_BUDGET, dest="max_size")
    p.add_argument("--skip-check", action="store_true",
                   help="skip the O(m) certificate that the layering is the longest-path layering")
    add_json(p)
    p.set_defaults(func=_cmd_bench)

    return parser, sub.choices


_pause_lock = threading.Lock()
_pauses = 0          # requests running now
_resume = False      # whether the first of them found the collector on


def _pause_collector() -> None:
    global _pauses, _resume
    with _pause_lock:
        if _pauses == 0:
            _resume = gc.isenabled()
            gc.disable()
        _pauses += 1


def _resume_collector() -> None:
    global _pauses
    with _pause_lock:
        _pauses -= 1
        if _pauses == 0 and _resume:
            gc.enable()


def main(argv=None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        # no command name first (no argument, help, an unknown or abbreviated
        # name, an option before the name): the root parser's help or error
        args = parser.parse_args(argv)
    else:
        # the one pass that the subparsers action makes after the root's;
        # leftovers get the root's error, as they do after that pass
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    _pause_collector()
    try:
        return args.func(args)
    except ConflictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SizeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (SpectopError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        _resume_collector()


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
