import json

import pytest

from spectop.cli import main
from spectop.gallery import catalog


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


@pytest.mark.parametrize("command", ["eval", "verdict"])
def test_deep_nesting_exit_4(capsys, command):
    code, out, err = run(capsys, command, "dual(" * 3000 + "fan" + ")" * 3000, "--json")
    assert code == 4 and out == ""
    assert len(err.strip().splitlines()) == 1 and "nested" in err


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


# -- suites ------------------------------------------------------------------------


def test_oracle_command_passes(capsys):
    code, lines, _ = run_json(
        capsys, "oracle", "--exhaustive-max", "3", "--count", "20", "--max-size", "7"
    )
    assert code == 0
    assert lines[0]["passed"] is True
    assert lines[0]["poset_counts"]["3"] == 19


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


def test_fuzz_deterministic_given_seed(capsys):
    _, first, _ = run_json(capsys, "fuzz", "--count", "10", "--seed", "3")
    _, second, _ = run_json(capsys, "fuzz", "--count", "10", "--seed", "3")
    del first[0]["seconds"], second[0]["seconds"]
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


def test_export_infinite_space_exit_2(capsys):
    assert run(capsys, "export", "cantor")[0] == 2


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
    assert payload["agree"] is True
    assert sum(payload["layer_sizes"]) == 3000


def test_bench_budget_exit_4(capsys):
    assert run(capsys, "bench", "--nodes", "10000", "--max-size", "100")[0] == 4


@pytest.mark.parametrize("threads,expected", [("0", 2), ("100000", 4)])
def test_bench_thread_bound(capsys, threads, expected):
    code, out, err = run(capsys, "bench", "--nodes", "10", "--threads", threads)
    assert code == expected and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bench_edge_file(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 2\n3 2\n")
    code, lines, _ = run_json(capsys, "bench", "--edges", str(path))
    assert code == 0
    assert lines[0]["rank"] == 3


def test_bench_cyclic_edge_file_exit_2(tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text("0 1\n1 0\n")
    assert run(capsys, "bench", "--edges", str(path))[0] == 2


def test_bench_missing_edge_file_exit_2(capsys):
    assert run(capsys, "bench", "--edges", "/nonexistent/file")[0] == 2
