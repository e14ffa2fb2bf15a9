"""The statistics of scripts/paired_bench.py, on fixed numbers."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "paired_bench.py")
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

BASE = [3.1, 3.2, 3.0, 3.3, 3.15, 3.25, 3.05, 3.2, 3.1, 3.3]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_identical_runs_make_no_claim(better):
    row = paired_bench.compare(BASE, list(BASE), better, 0.25)
    assert (row["wins"], row["losses"], row["ties"]) == (0, 0, 10)
    assert row["p"] == 1.0
    assert not row["claim"] and not row["worse_than_bound"]
    assert row["base_median"] == row["change_median"] == 3.175


def test_a_gain_on_every_pair_beyond_the_spread_is_claimed():
    change = [b * 0.85 for b in BASE]
    row = paired_bench.compare(BASE, change, "lower", 0.25)
    assert (row["wins"], row["losses"], row["ties"]) == (10, 0, 0)
    assert row["p"] == pytest.approx(1 / 1024)
    assert row["base_iqr"] == pytest.approx(3.2375 - 3.1)  # inclusive quartiles
    assert row["claim"] and not row["worse_than_bound"]
    # the same numbers read as a metric where higher is better: no claim
    assert not paired_bench.compare(BASE, change, "higher", 0.25)["claim"]


def test_eight_wins_of_ten_or_a_gain_inside_the_spread_make_no_claim():
    eight = [b * 0.85 for b in BASE[:8]] + [b * 1.01 for b in BASE[8:]]
    row = paired_bench.compare(BASE, eight, "lower")
    assert (row["wins"], row["losses"]) == (8, 2) and not row["claim"]
    assert row["p"] == pytest.approx(56 / 1024)
    inside = [b - 0.01 for b in BASE]  # wins every pair, by less than the IQR
    row = paired_bench.compare(BASE, inside, "lower")
    assert row["wins"] == 10 and not row["claim"]


def test_two_pairs_won_are_too_few_for_a_claim():
    row = paired_bench.compare([3.0, 3.2], [2.0, 2.1], "lower")
    assert row["wins"] == 2 and row["p"] == 0.25 and not row["claim"]
    assert paired_bench.compare([3.0, 3.2, 3.1, 3.3, 3.0], [2.0, 2.1, 2.0, 2.2, 2.1], "lower")["claim"]


def test_a_median_worse_by_more_than_the_bound_is_marked():
    assert paired_bench.compare(BASE, [b * 1.3 for b in BASE], "lower", 0.25)["worse_than_bound"]
    assert not paired_bench.compare(BASE, [b * 1.2 for b in BASE], "lower", 0.25)["worse_than_bound"]
    assert paired_bench.compare(BASE, [b * 0.7 for b in BASE], "higher", 0.25)["worse_than_bound"]


def test_sign_test_p_values():
    assert paired_bench.sign_test_p(0, 0) == 1.0
    assert paired_bench.sign_test_p(9, 1) == pytest.approx(11 / 1024)
    assert paired_bench.sign_test_p(0, 5) == 1.0


def test_runs_must_pair_up():
    with pytest.raises(ValueError):
        paired_bench.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        paired_bench.compare([], [], "lower")


def test_more_failed_checks_on_the_change_forbid_a_claim():
    clean = [{"failed": 0, "attempted": 1000}] * 3
    assert not paired_bench.more_checks_fail(clean, clean)
    one_failure = clean[:2] + [{"failed": 1, "attempted": 1000}]
    assert paired_bench.more_checks_fail(clean, one_failure)
    assert not paired_bench.more_checks_fail(one_failure, clean)
    # shares, not counts: more checks run with the same failure rate is no worse
    assert not paired_bench.more_checks_fail([{"failed": 1, "attempted": 100}],
                                             [{"failed": 2, "attempted": 200}])
    assert not paired_bench.more_checks_fail([{"failed": 0, "attempted": 0}], [{"failed": 0, "attempted": 0}])


with open(os.path.join(paired_bench.ROOT, "BENCHMARK.json")) as _handle:
    _SPEC = json.load(_handle)


def _run_main(monkeypatch, change_values, change_failed=0, extra=()):
    """``main`` over three pairs of runs that return fixed numbers: the base
    reads 1.0 on every metric, the change reads ``change_values`` (1.0 for
    any metric not named).  No git command and no benchmark run is made;
    ``extra`` are further options."""
    metrics = [m["name"] for m in _SPEC["end_to_end"]] + ["raw_pass_s"]

    def run_side(root, args, seconds):
        change = os.path.basename(root) == "change"
        return {"values": {name: change_values.get(name, 1.0) if change else 1.0 for name in metrics},
                "correct": True, "failed": change_failed if change else 0, "attempted": 100}

    monkeypatch.setattr(paired_bench, "run_side", run_side)
    monkeypatch.setattr(paired_bench.subprocess, "run", lambda *args, **kwargs: None)
    return paired_bench.main(["--base", "HEAD", "--workload", "suite", "--pairs", "3", *extra])


def test_the_exit_status_is_1_exactly_when_a_metric_is_worse_than_its_bound(monkeypatch, capsys):
    bounds = {m["name"]: m["bound"] for m in _SPEC["end_to_end"]}
    assert _run_main(monkeypatch, {}) == 0
    assert _run_main(monkeypatch, {"wall_s": 1 + bounds["wall_s"] * 0.8}) == 0
    assert "worse than" not in capsys.readouterr().out
    for name, bound in bounds.items():
        assert _run_main(monkeypatch, {name: 1 + bound * 1.2}) == 1
        out = capsys.readouterr().out
        assert out.endswith(f"worse than the bound on the change: {name}\n")
    # a gain never fails a run, however large; raw_pass_s has no bound
    assert _run_main(monkeypatch, {"wall_s": 0.1, "raw_pass_s": 5.0}) == 0


def test_more_failed_checks_on_the_change_exit_1(monkeypatch, capsys):
    assert _run_main(monkeypatch, {}, change_failed=1) == 1
    assert "no gain is claimed" in capsys.readouterr().out


def test_record_appends_one_entry_per_run(monkeypatch, capsys, tmp_path):
    layers = {"base": {"cli.self_s": 0.09, "dsl.parse_expr_s": 0.16},
              "change": {"cli.self_s": 0.07, "dsl.parse_expr_s": 0.16}}
    monkeypatch.setattr(paired_bench, "traced_layers",
                        lambda root, args, seconds: layers[os.path.basename(root)])
    monkeypatch.setattr(paired_bench, "revisions", lambda base: ("b" * 40, "c" * 40))
    path = tmp_path / "BENCH_paired.json"
    assert _run_main(monkeypatch, {"wall_s": 0.8}, extra=["--record", str(path)]) == 0
    assert _run_main(monkeypatch, {}, change_failed=1, extra=["--record", str(path)]) == 1
    capsys.readouterr()
    first, second = json.loads(path.read_text())
    assert first.keys() == {"base", "change", "workload", "seed", "pairs", "machine", "metrics",
                            "more_checks_fail", "per_layer"}
    assert (first["base"], first["change"], first["workload"], first["seed"], first["pairs"]) == (
        "b" * 40, "c" * 40, "suite", 1, 3)
    assert first["machine"].keys() == {"cores", "python", "numpy"}
    assert first["per_layer"] == layers
    # one row per printed metric, exactly as compare gives it
    assert first["metrics"].keys() == {m["name"] for m in _SPEC["end_to_end"]} | {"raw_pass_s"}
    assert first["metrics"]["wall_s"] == paired_bench.compare([1.0] * 3, [0.8] * 3, "lower", 0.25)
    assert first["metrics"]["wall_s"]["wins"] == 3 and not first["more_checks_fail"]
    assert second["more_checks_fail"] and second["metrics"]["wall_s"]["ties"] == 3


def test_record_keeps_the_median_of_three_alternating_traced_runs_per_side(monkeypatch, capsys, tmp_path):
    """One slow traced run, such as the change's first here, moves no
    recorded per-layer metric."""
    traced = {"base": [{"cli.self_s": 0.09, "oracle.cases": 7}, {"cli.self_s": 0.11, "oracle.cases": 7},
                       {"cli.self_s": 0.10, "oracle.cases": 7}],
              "change": [{"cli.self_s": 0.50, "oracle.cases": 7}, {"cli.self_s": 0.07, "oracle.cases": 7},
                         {"cli.self_s": 0.08, "oracle.cases": 7}]}
    order = []

    def traced_layers(root, args, seconds):
        side = os.path.basename(root)
        order.append(side)
        return traced[side][order.count(side) - 1]

    monkeypatch.setattr(paired_bench, "traced_layers", traced_layers)
    monkeypatch.setattr(paired_bench, "revisions", lambda base: ("b" * 40, "c" * 40))
    path = tmp_path / "BENCH_paired.json"
    assert _run_main(monkeypatch, {}, extra=["--record", str(path)]) == 0
    capsys.readouterr()
    assert order == ["base", "change", "change", "base", "base", "change"]
    (entry,) = json.loads(path.read_text())
    assert entry["per_layer"] == {"base": {"cli.self_s": 0.10, "oracle.cases": 7},
                                  "change": {"cli.self_s": 0.08, "oracle.cases": 7}}


def test_record_refuses_smoke_runs(monkeypatch, capsys, tmp_path):
    with pytest.raises(SystemExit):
        _run_main(monkeypatch, {}, extra=["--smoke", "--record", str(tmp_path / "x.json")])
    assert "--smoke" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_both_sides_run_from_fresh_copies_in_one_temp_dir(monkeypatch, capsys, tmp_path):
    """The base is a worktree of its revision and the change a worktree of
    HEAD overlaid with the checkout's src/, perfbench/ and BENCHMARK.json,
    untracked files included and caches and results left out; both lie in
    the one temporary directory, traced runs too, and are removed after."""
    checkout = tmp_path / "checkout"
    for path, text in (("src/pkg/untracked.py", "x = 1\n"), ("src/pkg/__pycache__/untracked.pyc", ""),
                       ("perfbench/run.py", ""), ("perfbench/results/trace.json", "{}"),
                       ("BENCHMARK.json", json.dumps(_SPEC))):
        (checkout / path).parent.mkdir(parents=True, exist_ok=True)
        (checkout / path).write_text(text)
    temp = tmp_path / "temp"
    monkeypatch.setattr(paired_bench, "ROOT", str(checkout))
    monkeypatch.setattr(paired_bench.tempfile, "mkdtemp", lambda prefix: str(temp))
    git = []

    def fake_git(cmd, cwd, **kwargs):
        git.append(cmd[1:4] + cmd[5:])
        assert cwd == str(checkout)
        if cmd[1:3] == ["worktree", "add"]:
            # HEAD's copy of a file that the checkout has since deleted
            (temp / os.path.basename(cmd[4]) / "src" / "pkg").mkdir(parents=True)
            (temp / os.path.basename(cmd[4]) / "src" / "pkg" / "deleted.py").write_text("")

    seen = []

    def run_side(root, args, seconds):
        seen.append(root)
        files = {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}
        if os.path.basename(root) == "change":
            assert files == {"src/pkg/untracked.py", "perfbench/run.py", "BENCHMARK.json"}
        else:
            assert files == {"src/pkg/deleted.py"}
        return {"values": {name: 1.0 for name in ("raw_pass_s", *(m["name"] for m in _SPEC["end_to_end"]))},
                "correct": True, "failed": 0, "attempted": 100}

    monkeypatch.setattr(paired_bench.subprocess, "run", fake_git)
    monkeypatch.setattr(paired_bench, "run_side", run_side)
    monkeypatch.setattr(paired_bench, "traced_layers", lambda root, args, seconds: seen.append(root) or {})
    monkeypatch.setattr(paired_bench, "revisions", lambda base: ("b" * 40, "c" * 40))
    record = tmp_path / "record.json"
    assert paired_bench.main(["--base", "abc123", "--workload", "suite", "--pairs", "2",
                              "--record", str(record)]) == 0
    capsys.readouterr()
    roots = [str(temp / "base"), str(temp / "change")]
    # two untraced pairs, then three traced ones
    assert seen == roots + roots[::-1] + roots + roots[::-1] + roots
    assert str(checkout) not in seen and not temp.exists()
    assert git == [["worktree", "add", "--detach", "abc123"], ["worktree", "add", "--detach", "HEAD"],
                   ["worktree", "remove", "--force"], ["worktree", "remove", "--force"]]


def _fake_checkout(root):
    for path, text in (("src/pkg/mod.py", "x = 1\n"), ("src/pkg/__pycache__/mod.pyc", "cache"),
                       ("perfbench/run.py", "print()\n"), ("perfbench/results/trace.json", "{}"),
                       ("BENCHMARK.json", "{}\n"), ("tests/test_x.py", "")):
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text)


def test_the_tree_hash_is_the_same_for_both_copies_and_changes_with_one_byte(monkeypatch, tmp_path):
    checkout, copy = tmp_path / "checkout", tmp_path / "copy"
    _fake_checkout(checkout)
    copy.mkdir()
    monkeypatch.setattr(paired_bench, "ROOT", str(checkout))
    paired_bench.copy_checkout(str(copy))
    digest = paired_bench.tree_sha256(str(checkout))
    assert len(digest) == 64 and paired_bench.tree_sha256(str(copy)) == digest
    # what runs leave behind, and files the runs do not read, do not count
    (checkout / "perfbench/results/trace.json").write_text("[]")
    (checkout / "tests/test_x.py").write_text("changed")
    assert paired_bench.tree_sha256(str(checkout)) == digest
    for path in ("src/pkg/mod.py", "perfbench/run.py", "BENCHMARK.json"):
        data = (copy / path).read_bytes()
        (copy / path).write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        assert paired_bench.tree_sha256(str(copy)) != digest
        (copy / path).write_bytes(data)
        assert paired_bench.tree_sha256(str(copy)) == digest
    # a file moved to another path with the same bytes is another tree
    (copy / "src/pkg/mod.py").rename(copy / "src/pkg/other.py")
    assert paired_bench.tree_sha256(str(copy)) != digest


@pytest.mark.parametrize("change", ["c" * 40, "c" * 40 + "-dirty"])
def test_a_dirty_change_records_the_hash_of_the_tree_it_ran(monkeypatch, capsys, tmp_path, change):
    monkeypatch.setattr(paired_bench, "traced_layers", lambda root, args, seconds: {})
    monkeypatch.setattr(paired_bench, "revisions", lambda base: ("b" * 40, change))
    path = tmp_path / "BENCH_paired.json"
    assert _run_main(monkeypatch, {}, extra=["--record", str(path)]) == 0
    capsys.readouterr()
    (entry,) = json.loads(path.read_text())
    assert entry["change"] == change
    if change.endswith("-dirty"):
        # the change side runs copies of this checkout's files
        assert entry["change_tree_sha256"] == paired_bench.tree_sha256(paired_bench.ROOT)
    else:
        assert "change_tree_sha256" not in entry


def _git(root, *args):
    identity = ["-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", *identity, *args], cwd=root, check=True, stdout=subprocess.DEVNULL)


@pytest.mark.parametrize("edit, dirty", [
    (None, False),
    ("src/pkg/new.py", True),  # untracked
    ("src/pkg/mod.py", True),
    ("BENCHMARK.json", True),
    ("perfbench/results/new.json", False),  # ignored, as are bytecode caches
    ("src/pkg/__pycache__/new.pyc", False),
    ("tests/test_x.py", False),  # tracked, but no run reads it
])
def test_revisions_mark_every_change_the_runs_read_as_dirty(monkeypatch, tmp_path, edit, dirty):
    _fake_checkout(tmp_path)
    (tmp_path / ".gitignore").write_text("__pycache__/\nperfbench/results/\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "fake checkout")
    if edit is not None:
        (tmp_path / edit).write_text("changed\n")
    monkeypatch.setattr(paired_bench, "ROOT", str(tmp_path))
    base, change = paired_bench.revisions("HEAD")
    assert change == base + ("-dirty" if dirty else "")
