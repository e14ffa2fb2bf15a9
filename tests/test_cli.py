import argparse
import json
import os
import subprocess
import sys

import pytest

import spectop
from spectop import cli
from spectop.bench import MAX_NODES
from spectop.cli import main
from spectop.errors import QUOTE_PREFIX, quote
from spectop.gallery import FAN_MAX_POINTS, catalog
from spectop.oracle import LAW_MAX_SIZE
from spectop.poset import FinitePoset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    lines = [json.loads(line) for line in out.strip().splitlines()] if out.strip() else []
    return code, lines, err


# -- eval ---------------------------------------------------------------------


def test_eval_fan(capsys):
    code, lines, _ = run_json(capsys, "eval", "fan")
    assert code == 0
    payload = lines[0]
    assert payload["normalized"] == "fan"
    assert payload["analysis"]["is_td"] is True
    assert payload["analysis"]["cb_rank"] == "2"


def test_eval_human_output(capsys):
    code, out, _ = run(capsys, "eval", "fin{a;}")
    assert code == 0
    assert "cb_rank: 1" in out


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "dual(")
    assert code == 2
    assert "position" in err


# -- verdict ------------------------------------------------------------------


def test_verdict_gallery_name(capsys):
    code, lines, _ = run_json(capsys, "verdict", "fan")
    assert code == 0
    verdict = lines[0]["verdict"]
    assert verdict["ltg"] == "Fails"
    assert verdict["fields_generate"] == "Generates"
    assert any("Thm 7.8" in c for c in verdict["citations"])
    assert any("Thm 2.1" in c for c in verdict["citations"])


def test_verdict_expression(capsys):
    code, lines, _ = run_json(capsys, "verdict", "fin{a,b;a<b}")
    assert code == 0
    verdict = lines[0]["verdict"]
    assert verdict["ltg"] == "Holds"
    assert verdict["fields_generate"] == "Inconclusive"


def test_verdict_flag_overrides(capsys):
    code, lines, _ = run_json(capsys, "verdict", "fin{a,b;a<b}", "--gabriel")
    assert code == 0
    assert lines[0]["verdict"]["fields_generate"] == "Generates"


def test_verdict_conflict_exit_3(capsys):
    code, _, err = run(capsys, "verdict", "cantor", "--gabriel")
    assert code == 3
    assert "Gabriel" in err


@pytest.mark.parametrize("name", ["valuation_rank1", "neeman_ring"])
@pytest.mark.parametrize("flags", [["--absolutely-flat"], ["--absolutely-flat", "--gabriel"],
                                   ["--n", "omega", "--absolutely-flat"],
                                   ["--n", "omega", "--absolutely-flat", "--gabriel"]])
def test_verdict_against_ground_truth_exit_3(capsys, name, flags):
    # both rings are known not to generate; these flags would derive Generates
    code, out, err = run(capsys, "verdict", name, *flags, "--json")
    assert code == 3 and out == ""
    assert "DoesNotGenerate" in err


@pytest.mark.parametrize("target", [["fin{a,b;a<b}"], ["cofan"], ["fan", "--n", "3"]])
def test_absolutely_flat_needs_boolean_spectrum_exit_3(capsys, target):
    code, out, err = run(capsys, "verdict", *target, "--absolutely-flat", "--json")
    assert code == 3 and out == ""
    assert "Boolean" in err


@pytest.mark.parametrize("target", [["idempotent", "--n", "3"], ["cantor"]])
def test_absolutely_flat_on_boolean_spectrum(capsys, target):
    code, lines, _ = run_json(capsys, "verdict", *target, "--absolutely-flat")
    assert code == 0 and lines[0]["meta"]["absolutely_flat"] is True


# Runs the requests on standard input through main() in a fresh interpreter
# whose recursion limit is far below every nesting depth they spell, so a
# step of eval, verdict or export that recursed once per level would fail.
_LOW_RECURSION_LIMIT_CLI = """
import contextlib, io, json, sys
from spectop.cli import main
sys.setrecursionlimit(200)
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


def run_with_low_recursion_limit(requests):
    src = os.path.dirname(os.path.dirname(spectop.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LOW_RECURSION_LIMIT_CLI], input=json.dumps(requests),
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    return [json.loads(line) for line in done.stdout.splitlines()]


# (text, its normal form's text, a short text with the same attributes and verdict)
_DEEP_NESTS = [
    ("dual(" * 3000 + "fan" + ")" * 3000, "fan", "fan"),
    ("con(" * 3000 + "cofan" + ")" * 3000, "omega1", "omega1"),
    ("dual(" * 99_999 + "fan" + ")" * 99_999, "cofan", "cofan"),
    ("dual(con(" * 50_000 + "fan" + "))" * 50_000, "omega1", "omega1"),
    ("sum(dual(fan), " * 10_000 + "cantor" + ")" * 10_000,
     "sum(cofan, " * 10_000 + "cantor" + ")" * 10_000, "sum(cofan, cantor)"),
    ("sum(" * 10_000 + "fin{a;}" + ", con(fan))" * 10_000,
     "sum(" * 10_000 + "fin{a;}" + ", omega1)" * 10_000, "sum(fin{a;}, omega1)"),
]


def test_deep_nesting_needs_no_recursion(capsys):
    requests = [[command, text, "--json"] for text, _, _ in _DEEP_NESTS for command in ("eval", "verdict")]
    parts = 3000
    requests.append(["export", "sum(fin{a,b;a<b}, " * (parts - 1) + "fin{a,b;a<b}" + ")" * (parts - 1)])
    replies = run_with_low_recursion_limit(requests)
    assert len(replies) == len(requests)
    for (_, normal, short), (eval_reply, verdict_reply) in zip(_DEEP_NESTS, zip(replies[::2], replies[1::2])):
        assert eval_reply[0] == verdict_reply[0] == 0 and eval_reply[2] == verdict_reply[2] == ""
        evaluated, judged = json.loads(eval_reply[1]), json.loads(verdict_reply[1])
        assert evaluated["normalized"] == judged["space"] == normal
        _, (short_eval,), _ = run_json(capsys, "eval", short)
        # wrapped, so that the target names no gallery entry
        _, (short_verdict,), _ = run_json(capsys, "verdict", f"dual(dual({short}))")
        assert evaluated["analysis"] == short_eval["analysis"]
        assert judged["verdict"] == short_verdict["verdict"]
    code, out, err = replies[-1]
    assert code == 0 and err == ""
    assert json.loads(out) == {
        "labels": [f"s{k}_{x}" for k in range(parts) for x in "ab"],
        "covers": [[f"s{k}_a", f"s{k}_b"] for k in range(parts)],
    }


@pytest.mark.parametrize("command", ["eval", "verdict"])
@pytest.mark.parametrize("nested", [
    "dual(" * 600 + "fan" + ")" * 600,
    "con(" * 600 + "fan" + ")" * 600,
    "sum(fan, " * 600 + "fan" + ")" * 600,
    "sum(" * 600 + "fan" + ", cofan)" * 600,
])
def test_nesting_600_levels_exit_0(capsys, command, nested):
    code, lines, err = run_json(capsys, command, nested)
    assert code == 0 and err == "" and len(lines) == 1


def test_every_gallery_name_answers_verdict(capsys):
    for entry in catalog():
        code, lines, _ = run_json(capsys, "verdict", entry.name)
        assert code == 0 and lines[0]["target"] == entry.name


def test_verdict_resolution_error_exit_2(capsys):
    code, _, _ = run(capsys, "verdict", "fin{a,b;b<a,a<b}")
    assert code == 2


def test_verdict_parametric_ring(capsys):
    code, lines, _ = run_json(capsys, "verdict", "idempotent", "--n", "omega")
    assert code == 0
    assert lines[0]["verdict"]["fields_generate"] == "DoesNotGenerate"
    assert lines[0]["verdict"]["ltg"] == "Fails"


# -- ring ------------------------------------------------------------------------


@pytest.mark.parametrize("wrap,constructions", [
    ("{}", 1), ("dual({})", 2), ("dual(dual({}))", 1), ("con(dual({}))", 2),
])
def test_verdict_builds_only_the_posets_it_names(capsys, monkeypatch, wrap, constructions):
    # one poset per fin{...} parsed, one more for the dual or patch space a
    # dual/con chain collapses to; none for the dual or patch space the
    # verdict reasons about
    chain = "fin{" + ",".join(f"x{i}" for i in range(3000)) + ";" + ",".join(
        f"x{i}<x{i + 1}" for i in range(2999)) + "}"
    calls = []
    init = FinitePoset.__init__

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinitePoset, "__init__", counting)
    code, lines, _ = run_json(capsys, "verdict", wrap.format(chain))
    assert code == 0 and lines[0]["verdict"]["ltg"] == "Holds"
    assert calls == [3000] * constructions


def test_ring_listing(capsys):
    code, out, _ = run(capsys, "ring")
    assert code == 0
    for name in ("fan", "idempotent", "valuation_rank1", "neeman_ring", "integers_like"):
        assert name in out


def test_ring_single_entry(capsys):
    code, lines, _ = run_json(capsys, "ring", "idempotent", "--n", "2")
    assert code == 0
    payload = lines[0]
    assert payload["space"] == "fin{p0,p1,p2,p3;}"
    assert payload["verdict"]["fields_generate"] == "Generates"


def test_ring_unknown_exit_2(capsys):
    assert run(capsys, "ring", "nope")[0] == 2


def test_ring_size_error_exit_4(capsys):
    assert run(capsys, "ring", "idempotent", "--n", "30")[0] == 4


def test_ring_bad_n_exit_2(capsys):
    assert run(capsys, "ring", "idempotent", "--n", "two")[0] == 2


@pytest.mark.parametrize("argv,message", [
    (["verdict", "cofan", "--n", "abc"], "--n applies only to a gallery name, not to 'cofan'"),
    (["export", "fin{a;}", "--n", "3"], "--n applies only to a gallery name, not to 'fin{a;}'"),
    (["ring", "--n", "5"], "--n applies only to a gallery name; 'ring' lists them all"),
    (["ring", "neeman_ring", "--n", "7"],
     "'neeman_ring' is not a family: n must be 'omega' or omitted, got 7"),
    (["verdict", "valuation_rank1", "--n", "5"],
     "'valuation_rank1' is not a family: n must be 'omega' or omitted, got 5"),
], ids=["expression", "export-expression", "ring-listing", "ring-entry", "verdict-entry"])
def test_n_that_nothing_reads_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


# -- suites ------------------------------------------------------------------------


def test_oracle_command_passes(capsys):
    code, lines, _ = run_json(
        capsys, "oracle", "--exhaustive-max", "3", "--count", "20", "--max-size", "7"
    )
    assert code == 0
    assert lines[0]["passed"] is True
    assert lines[0]["poset_counts"]["3"] == 19


@pytest.mark.parametrize("argv,message", [
    (["--count", "1", "--max-size", "100"],
     "random oracle posets of up to 100 elements exceed the enumeration guard of 12"),
    (["--exhaustive-max", "9"], "exhaustive enumeration up to 9 elements exceeds the bound of 6"),
    (["--count", "1", "--max-size", "13", "--exhaustive-max", "-1"],
     "random oracle posets of up to 13 elements exceed the enumeration guard of 12"),
])
def test_oracle_sizes_beyond_the_enumeration_exit_4(capsys, argv, message):
    code, out, err = run(capsys, "oracle", *argv)
    assert code == 4 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["oracle", "--count", "-1"], "counts must be non-negative, got -1"),
    (["fuzz", "--count", "-1"], "counts must be non-negative, got -1"),
    (["fuzz", "--depth", "0"], "corpus depth must be at least 1, got 0"),
    (["bench", "--max-size", "-1"], "the node budget must be non-negative, got -1"),
    (["oracle", "--exhaustive-max", "-7", "--count", "0"], "exhaustive_max must be at least -1, got -7"),
], ids=["oracle-count", "fuzz-count", "fuzz-depth", "bench-max-size", "oracle-exhaustive-max"])
def test_negative_count_or_budget_exit_2(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["table", "json"])
def test_oracle_run_that_checks_nothing_exit_2(capsys, json_flag):
    assert run(capsys, "oracle", "--exhaustive-max", "-1", "--count", "0", *json_flag) == (
        2, "", "error: nothing to check: --exhaustive-max -1 and --count 0 skip both oracle blocks\n")


def test_oracle_mutation_exit_1(capsys):
    code, lines, _ = run_json(
        capsys, "oracle", "--exhaustive-max", "2", "--count", "3",
        "--mutate", "rank-off-by-one"
    )
    assert code == 1
    assert lines[0]["passed"] is False


def test_fuzz_command_passes(capsys):
    code, lines, _ = run_json(
        capsys, "fuzz", "--count", "25", "--max-size", "12", "--depth", "4"
    )
    assert code == 0
    assert lines[0]["passed"] is True


def test_fuzz_reports_a_broken_isolated_point_as_a_failed_law(capsys, monkeypatch):
    is_open = FinitePoset.is_open
    # an open test that refuses every singleton, so the isolated point's U = {x} fails
    monkeypatch.setattr(FinitePoset, "is_open", lambda self, s: len(set(s)) != 1 and is_open(self, s))
    code, lines, err = run_json(capsys, "fuzz", "--count", "5")
    assert code == 1 and "Traceback" not in err
    law = next(law for law in lines[0]["laws"] if law["name"] == "constructive-isolated-point")
    assert law["failures"] > 0 and law["counterexample"] is not None


def test_fuzz_deterministic_given_seed(capsys):
    _, first, _ = run_json(capsys, "fuzz", "--count", "10", "--seed", "3")
    _, second, _ = run_json(capsys, "fuzz", "--count", "10", "--seed", "3")
    for timing in ("seconds", "block_seconds"):
        del first[0][timing], second[0][timing]
    assert first == second


# -- export -------------------------------------------------------------------------


def test_export_json_roundtrip(capsys):
    code, out, _ = run(capsys, "export", "fin{a,b;a<b}", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"labels": ["a", "b"], "covers": [["a", "b"]]}


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export", "fan", "--n", "2", "--format", "dot")
    assert code == 0
    assert '"p1" -> "m";' in out


def test_export_normalizes_first(capsys):
    code, out, _ = run(capsys, "export", "dual(fin{a,b;a<b})", "--format", "json")
    assert code == 0
    assert json.loads(out)["covers"] == [["b", "a"]]


def test_export_sum_of_fins(capsys):
    code, out, _ = run(capsys, "export", "sum(fin{a;}, fin{b;})", "--format", "json")
    assert code == 0
    assert json.loads(out)["labels"] == ["a", "b"]


def test_export_sum_with_clashing_labels(capsys):
    # renaming only the clashing part to s1_a would collide with the label s1_a
    code, out, err = run(capsys, "export", "sum(fin{a,s1_a;}, fin{a;})", "--format", "json")
    assert code == 0 and err == ""
    labels = json.loads(out)["labels"]
    assert len(labels) == len(set(labels)) == 3


def test_export_infinite_space_exit_2(capsys):
    assert run(capsys, "export", "cantor")[0] == 2


def _antichain_sum(parts: int) -> str:
    text = "fin{" + ",".join(f"a{parts - 1}_{i}" for i in range(20)) + ";}"
    for k in range(parts - 2, -1, -1):
        text = f"sum(fin{{{','.join(f'a{k}_{i}' for i in range(20))};}}, {text})"
    return text


@pytest.mark.parametrize("target,constructions,expected", [
    # one poset per fin{...} parsed, then one for the whole sum
    (_antichain_sum(200), 201,
     {"labels": [f"a{k}_{i}" for k in range(200) for i in range(20)], "covers": []}),
    ("sum(fin{a,b;a<b}, fin{a;})", 3,
     {"labels": ["s0_a", "s0_b", "s1_a"], "covers": [["s0_a", "s0_b"]]}),
])
def test_export_sum_builds_one_combined_poset(capsys, monkeypatch, target, constructions, expected):
    calls = []
    init = FinitePoset.__init__

    def counting(self, *args, **kwargs):
        calls.append(len(args[0]))
        init(self, *args, **kwargs)

    monkeypatch.setattr(FinitePoset, "__init__", counting)
    code, out, err = run(capsys, "export", target, "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == expected
    assert len(calls) == constructions


def test_poset_json_replay(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text('{"labels": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}')
    code, lines, _ = run_json(capsys, "eval", f"@{path}")
    assert code == 0
    assert lines[0]["analysis"]["cb_rank"] == "3"
    code, lines, _ = run_json(capsys, "verdict", f"@{path}")
    assert code == 0
    assert lines[0]["verdict"]["ltg"] == "Holds"


@pytest.mark.parametrize("label", ["a b", 'x"y', "", 1])
def test_poset_json_replay_bad_label_exit_2(tmp_path, capsys, label):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"labels": [label, "c"], "covers": [[label, "c"]]}))
    for command in ("eval", "verdict"):
        code, out, err = run(capsys, command, f"@{path}")
        assert code == 2 and out == "" and "identifier" in err


@pytest.mark.parametrize("document", [
    '{"labels": ["a"], "covers": [5]}',
    "[1]",
    '{"labels": ["a"]}',
    '{"labels": "ab", "covers": []}',
    '{"labels": ["a", "c"], "covers": [[["a"], "c"]]}',
    pytest.param("[" * 200000 + "]" * 200000, id="nested-past-the-recursion-limit"),
])
def test_poset_json_replay_bad_shape_exit_2(tmp_path, capsys, document):
    path = tmp_path / "poset.json"
    path.write_text(document)
    for command in ("eval", "verdict"):
        code, out, err = run(capsys, command, f"@{path}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_poset_json_replay_missing_file_exit_2(capsys):
    assert run(capsys, "eval", "@/nonexistent.json")[0] == 2


# -- bench ----------------------------------------------------------------------------


def test_bench_small_json(capsys):
    code, lines, _ = run_json(
        capsys, "bench", "--nodes", "3000", "--density", "1.5", "--seed", "4"
    )
    assert code == 0
    payload = lines[0]
    assert payload["agree"] is True and payload["longest_path_rank"] == payload["rank"]
    assert payload["seconds_check"] >= 0
    assert sum(payload["layer_sizes"]) == 3000


@pytest.mark.parametrize("error,message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 45.3 GiB"), "Unable to allocate 45.3 GiB"),
])
def test_bench_out_of_memory_exit_4(capsys, monkeypatch, error, message):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(spectop.bench, "random_dag", exhausted)
    assert run(capsys, "bench", "--nodes", "1000") == (4, "", f"error: {message}\n")


def test_bench_budget_exit_4(capsys):
    assert run(capsys, "bench", "--nodes", "10000", "--max-size", "100")[0] == 4


@pytest.mark.parametrize("threads", ["0", "2", "100000"])
def test_bench_has_no_threads_option(capsys, threads):
    # the peel runs in one thread, so the option is gone: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--nodes", "10", "--threads", threads])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --threads" in captured.err


def test_bench_negative_seed_exit_2(capsys):
    assert run(capsys, "bench", "--nodes", "5", "--seed", "-1") == (
        2, "", "error: seed must be non-negative, got -1\n")


@pytest.mark.parametrize("density", ["inf", "nan"])
def test_bench_non_finite_density_exit_2(capsys, density):
    code, out, err = run(capsys, "bench", "--nodes", "10", "--density", density)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["--nodes", "5", "--density", "1e308"], "density 1e+308 on 5 nodes exceeds the budget of 20000000 edges"),
    (["--nodes", "10", "--density", "1e15"],
     "density 1000000000000000.0 on 10 nodes exceeds the budget of 20000000 edges"),
    (["--nodes", "100", "--density", "3", "--max-size", "149"],
     "density 3.0 on 100 nodes exceeds the budget of 298 edges"),
    (["--nodes", str(MAX_NODES), "--max-size", str(10**40)],
     f"density 2.0 on {MAX_NODES} nodes exceeds the bound of {MAX_NODES} edges"),
], ids=["overflow", "huge", "max-size", "bound"])
def test_bench_edge_count_over_budget_exits_4(capsys, argv, message):
    # refused before any edge is drawn
    assert run(capsys, "bench", *argv) == (4, "", f"error: {message}\n")


def test_bench_max_size_raises_the_edge_budget(capsys):
    code, lines, _ = run_json(capsys, "bench", "--nodes", "100", "--density", "3", "--max-size", "150")
    assert code == 0 and lines[0]["edges"] == 300


def test_bench_edge_file(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n3 2\n")
    code, lines, _ = run_json(capsys, "bench", "--edges", str(path))
    assert code == 0
    assert lines[0]["rank"] == 3


def test_bench_edge_file_over_the_edge_budget_exits_4(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n" * 50)
    assert run(capsys, "bench", "--edges", str(path), "--max-size", "2") == (
        4, "", "error: 50 edges exceeds the budget of 4 edges\n")
    path.write_text("0 1\n" * 4)
    code, lines, _ = run_json(capsys, "bench", "--edges", str(path), "--max-size", "2")
    assert code == 0 and lines[0]["edges"] == 4


@pytest.mark.parametrize("option,value", [("--nodes", "5"), ("--density", "9"), ("--seed", "3")])
def test_bench_edge_file_refuses_random_dag_options_exit_2(tmp_path, capsys, option, value):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n")
    assert run(capsys, "bench", "--edges", str(path), option, value) == (
        2, "", f"error: {option} applies only to a random DAG, not to --edges\n")


def test_bench_help_names_the_random_dag_defaults(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert all(default in out for default in ("(default 1000000)", "(default 2.0)", "(default 0)"))


def test_bench_cyclic_edge_file_exit_2(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 0\n")
    assert run(capsys, "bench", "--edges", str(path))[0] == 2


def test_bench_missing_edge_file_exit_2(capsys):
    assert run(capsys, "bench", "--edges", "/nonexistent/file")[0] == 2


@pytest.mark.parametrize("text,expected,message", [
    ("0 1\n1 99999999999999999999\n", 4, "node id 99999999999999999999 does not fit in 64 bits"),
    ("0 1\na 2\n", 2, "line 2: node ids must be integers, got 'a 2'"),
])
def test_bench_bad_edge_ids_exit_with_one_line(tmp_path, capsys, text, expected, message):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    code, out, err = run(capsys, "bench", "--edges", str(path))
    assert code == expected and out == ""
    assert err == f"error: {message}\n"


def test_bench_edge_file_not_utf8_names_its_line(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_bytes(b"0 1\n\xff\xfe 2\n")
    assert run(capsys, "bench", "--edges", str(path)) == (2, "", "error: line 2: not UTF-8 text\n")


# -- errors and parser reuse ------------------------------------------------------


@pytest.mark.parametrize("argv,message", [
    (["verdict", "tower(w^w+1)"], "bad tower rank: expected nat, found w (at position 8)"),
    (["verdict", "fan", "--n", "abc"], "--n expects a natural number or 'omega', got 'abc'"),
    (["ring", "nosuch"], "no gallery entry named 'nosuch'"),
    (["export", "cofan"], "'cofan' does not denote a finite space; cannot export"),
])
def test_error_message_prints_at_most_one_position(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["verdict", "fan"], ["ring", "idempotent"], ["export", "fan"]],
                         ids=["verdict", "ring", "export"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_n_too_long_for_int_exits_4_without_echo(capsys, argv, sign):
    digits = sys.get_int_max_str_digits()
    n = sign + "9" * (digits + 700)
    assert run(capsys, *argv, "--n", n) == (4, "", f"error: --n has more than {digits} digits\n")


_LONG = "9" * 4000


def _file(tmp_path, text):
    path = tmp_path / "input"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("argv,code", [
    (lambda tmp: ["eval", f"tower(1 {_LONG})"], 2),
    (lambda tmp: ["verdict", "fan", "--n", "x" * 4500], 2),
    (lambda tmp: ["eval", "f" * 4500], 2),
    (lambda tmp: ["eval", f"fin{{{'a' * 4500};{'a' * 4500}<{'a' * 4500}}}"], 2),
    (lambda tmp: ["eval", f"fin{{a;a<{'z' * 4500}}}"], 2),
    (lambda tmp: ["bench", "--edges", _file(tmp, "0 1\n" + "1 " * 2500)], 2),
    (lambda tmp: ["bench", "--edges", _file(tmp, f"0 1\na{'b' * 4500} 2\n")], 2),
    (lambda tmp: ["bench", "--edges", _file(tmp, f"0 {_LONG}\n")], 4),
    (lambda tmp: ["eval", "@" + _file(tmp, json.dumps({"labels": ["-" * 4500], "covers": []}))], 2),
    (lambda tmp: ["verdict", "@" + _file(tmp, json.dumps({"labels": ["a"],
                                                          "covers": [["a", "b" * 4500]]}))], 2),
    (lambda tmp: ["ring", "q" * 4500], 2),
    (lambda tmp: ["verdict", "fan", "--n", _LONG], 4),
    (lambda tmp: ["verdict", "fan", "--n", "-" + _LONG], 2),
    (lambda tmp: ["verdict", "idempotent", "--n", _LONG], 4),
    (lambda tmp: ["verdict", "idempotent", "--n", "-" + _LONG], 2),
    # n + 1 has one digit more than str() converts
    (lambda tmp: ["verdict", "fan", "--n", "9" * sys.get_int_max_str_digits()], 4),
    (lambda tmp: ["bench", "--nodes", "9" * 400], 4),
    (lambda tmp: ["bench", "--nodes", "9" * 401, "--max-size", "9" * 402], 4),
], ids=["ordinal", "n", "space", "self-loop", "fin-element", "line-shape", "line-ids",
        "line-id-size", "json-label", "json-element", "ring", "fan-n", "fan-negative",
        "idempotent-n", "idempotent-negative", "fan-n-plus-one", "bench-budget", "bench-bound"])
def test_long_input_is_quoted_by_a_bounded_prefix(tmp_path, capsys, argv, code):
    exit_code, out, err = run(capsys, *argv(tmp_path))
    assert (exit_code, out) == (code, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # at most two quoted values, and the words around them
    assert len(err.encode()) < 2 * QUOTE_PREFIX + 100


def test_quote_keeps_every_value_up_to_the_prefix_whole():
    assert quote("x" * QUOTE_PREFIX) == repr("x" * QUOTE_PREFIX)
    assert quote("x" * (QUOTE_PREFIX + 1)) == repr("x" * QUOTE_PREFIX) + "..."
    assert quote(10**QUOTE_PREFIX - 1) == str(10**QUOTE_PREFIX - 1)
    assert quote(10**QUOTE_PREFIX) == str(10**QUOTE_PREFIX)[:QUOTE_PREFIX] + "..."
    # past the digits str() converts, the leading ones are kept all the same
    assert quote(7 * 10**5000) == "7" + "0" * (QUOTE_PREFIX - 1) + "..."
    assert quote(-7 * 10**5000 - 1) == "-7" + "0" * (QUOTE_PREFIX - 2) + "..."


@pytest.mark.parametrize("nodes", [MAX_NODES + 1, 10**30])
def test_bench_refuses_nodes_beyond_the_packed_key_bound(capsys, nodes):
    # refused before any edge is drawn, whatever the budget; a run at the bound
    # with a raised budget meets the edge bound (test_bench_edge_count_over_budget_exits_4)
    assert run(capsys, "bench", "--nodes", str(nodes), "--max-size", str(10**40)) == (
        4, "", f"error: {nodes} nodes exceeds the bound of {MAX_NODES}\n")


@pytest.mark.parametrize("argv,code,message", [
    (["eval", "tower(w x)"], 2, "bad tower rank: unexpected character 'x' (at position 8)"),
    (["verdict", "sum(fan, tower(w +\t?))"], 2, "bad tower rank: unexpected character '?' (at position 19)"),
    (["eval", f"tower(1{'0' * sys.get_int_max_str_digits()})"], 4,
     f"bad tower rank: a number of more than {sys.get_int_max_str_digits()} digits (at position 6)"),
    (["verdict", f"sum(cofan, tower(w^2*{'7' * 5000}))"], 4,
     f"bad tower rank: a number of more than {sys.get_int_max_str_digits()} digits (at position 21)"),
], ids=["space-then-bad", "tab-then-bad", "long-number", "long-coefficient"])
def test_tower_rank_errors_name_the_right_place(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


def test_parser_is_built_once_for_many_calls(capsys, monkeypatch):
    cli._build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(100):
        assert main(["verdict", "fan", "--json"]) == 0
    capsys.readouterr()
    # the root parser and one per subcommand
    assert len(built) == 8


def test_each_command_is_parsed_in_one_pass(capsys, monkeypatch):
    """A request that starts with a command name goes straight to that
    command's parser: one parse_known_args call, where the root parser's
    pass and then its subparsers action made two."""
    requests = {"eval": ["fan"], "verdict": ["fan"], "ring": [],
                "oracle": ["--exhaustive-max", "-1", "--count", "0"],
                "fuzz": ["--count", "2", "--max-size", "-4"], "export": ["fan", "--n", "2"],
                "bench": ["--edges", "f", "--nodes", "3"]}
    assert requests.keys() == cli._build_parser()[1].keys()
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for name, rest in requests.items():
        calls.clear()
        main([name, *rest])
        assert calls == [f"spectop {name}"], name
    capsys.readouterr()


_USAGE = "usage: spectop [-h] {eval,verdict,ring,oracle,fuzz,export,bench} ...\n"
_VERDICT_USAGE = ("usage: spectop verdict [-h] [--n N] [--absolutely-flat] [--gabriel] [--json]\n"
                  "                       target\n")
_ROOT_HELP = _USAGE + """
Topological analysis of spectral spaces: ranks, duals, patch topologies and
derived-category verdicts.

positional arguments:
  {eval,verdict,ring,oracle,fuzz,export,bench}
    eval                normalize an expression and print its attributes
    verdict             theorem-backed verdicts for a ring or expression
    ring                browse the ring gallery
    oracle              oracle-equivalence suite over small posets
    fuzz                law suite over random posets and expressions
    export              export a finite space as DOT or JSON
    bench               large-scale layering benchmark

options:
  -h, --help            show this help message and exit
"""
_VERDICT_HELP = _VERDICT_USAGE + """
positional arguments:
  target             gallery name, space expression, or @file with poset JSON

options:
  -h, --help         show this help message and exit
  --n N              a natural number for the fan and idempotent families, or
                     'omega' (the default)
  --absolutely-flat
  --gabriel
  --json             line-delimited JSON output
"""


@pytest.mark.parametrize("argv,code,out,err", [
    ([], 2, "", _USAGE + "spectop: error: the following arguments are required: command\n"),
    (["--help"], 0, _ROOT_HELP, ""),
    (["verd", "fan"], 2, "", _USAGE + "spectop: error: argument command: invalid choice: 'verd' "
     "(choose from 'eval', 'verdict', 'ring', 'oracle', 'fuzz', 'export', 'bench')\n"),
    (["--json", "verdict", "fan"], 2, "", _USAGE + "spectop: error: unrecognized arguments: --json\n"),
    (["verdict", "fan", "--frobnicate"], 2, "",
     _USAGE + "spectop: error: unrecognized arguments: --frobnicate\n"),
    (["verdict", "fan", "--n"], 2, "",
     _VERDICT_USAGE + "spectop verdict: error: argument --n: expected one argument\n"),
    (["verdict"], 2, "", _VERDICT_USAGE + "spectop verdict: error: the following arguments are required: target\n"),
    (["verdict", "-h"], 0, _VERDICT_HELP, ""),
    (["bench", "--edges", "f", "--nodes", "3"], 2, "",
     "error: --nodes applies only to a random DAG, not to --edges\n"),
], ids=["nothing", "help", "abbreviated", "option-first", "unknown-option", "missing-value",
        "missing-target", "command-help", "bench-options"])
def test_usage_errors_and_help_are_pinned(capsys, monkeypatch, argv, code, out, err):
    """The text of the two-level argparse pass, whichever parser answers."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)


def test_reused_parser_leaks_no_state(capsys):
    # an expression, not the fan gallery entry, whose curated metadata
    # already has Gabriel dimension
    code, lines, _ = run_json(capsys, "verdict", "fin{a,b;a<b}", "--gabriel")
    assert code == 0 and lines[0]["meta"]["has_gabriel_dimension"] is True
    code, lines, _ = run_json(capsys, "verdict", "fin{a,b;a<b}")
    assert code == 0 and lines[0]["meta"]["has_gabriel_dimension"] is False
    assert lines[0]["verdict"]["fields_generate"] == "Inconclusive"


@pytest.mark.parametrize("argv", [["verdict", "fan", "--frobnicate"],
                                  ["export", "fan", "--n", "2", "--gabriel"]],
                         ids=["verdict", "export"])
def test_reused_parser_reports_usage_errors_each_time(capsys, argv):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: spectop") and argv[-1] in errors[0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: spectop")


@pytest.mark.parametrize("n", [FAN_MAX_POINTS, 10**12])
@pytest.mark.parametrize("argv", [["verdict", "fan", "--json"], ["export", "fan"]],
                         ids=["verdict", "export"])
def test_fan_over_budget_exits_4(capsys, argv, n):
    code, out, err = run(capsys, *argv, "--n", str(n))
    assert code == 4 and out == ""
    assert err == f"error: {n} + 1 = {n + 1} points exceeds the budget of {FAN_MAX_POINTS}\n"


@pytest.mark.parametrize("n", [13, 20000, 10**12])
@pytest.mark.parametrize("argv", [["verdict", "idempotent", "--json"], ["export", "idempotent"],
                                  ["ring", "idempotent"]], ids=["verdict", "export", "ring"])
def test_idempotent_over_budget_exits_4(capsys, argv, n):
    # decided from n alone: 2**n is never computed, nor printed
    code, out, err = run(capsys, *argv, "--n", str(n))
    assert code == 4 and out == ""
    assert err == f"error: 2^{n} points exceeds the budget of 4096\n"


@pytest.mark.parametrize("argv,code,message", [
    (["--max-size", str(LAW_MAX_SIZE + 1)],
     4, f"law posets of up to {LAW_MAX_SIZE + 1} elements exceed the bound of {LAW_MAX_SIZE}"),
    (["--max-size", "-4"], 2, "random poset sizes must be non-negative, got -4"),
])
def test_fuzz_sizes_outside_the_bounds_are_refused(capsys, argv, code, message):
    assert run(capsys, "fuzz", "--count", "2", *argv) == (code, "", f"error: {message}\n")


_FAN_30 = [f"p{i}" for i in range(1, 31)] + ["m"]


@pytest.mark.parametrize("argv,expected", [
    (["export", "fan", "--n", "30", "--format", "json"],
     '{"labels": [' + ", ".join(f'"{x}"' for x in _FAN_30) + '], "covers": ['
     + ", ".join(f'["{x}", "m"]' for x in _FAN_30[:-1]) + "]}\n"),
    (["export", "fan", "--n", "30", "--format", "dot"],
     "digraph poset {\n" + "".join(f'  "{x}";\n' for x in _FAN_30)
     + "".join(f'  "{x}" -> "m";\n' for x in _FAN_30[:-1]) + "}\n"),
    (["export", "sum(fin{a,b;a<b}, dual(fin{a,c;a<c}))", "--format", "json"],
     '{"labels": ["s0_a", "s0_b", "s1_a", "s1_c"], "covers": [["s0_a", "s0_b"], ["s1_c", "s1_a"]]}\n'),
    (["export", "sum(fin{a,b;a<b}, dual(fin{a,c;a<c}))", "--format", "dot"],
     'digraph poset {\n  "s0_a";\n  "s0_b";\n  "s1_a";\n  "s1_c";\n'
     '  "s0_a" -> "s0_b";\n  "s1_c" -> "s1_a";\n}\n'),
], ids=["fan-json", "fan-dot", "sum-clash-json", "sum-clash-dot"])
def test_export_output_is_pinned(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected, "")
