import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from spectop import CycleError, SizeError, bench, construct_poset, run_bench
from spectop.bench import (MAX_THREADS, THIN_FRONTIER, cb_layering,
                           certify_layering, longest_path_rank, random_dag,
                           read_edge_list)
from spectop.cli import main


def test_empty_graph():
    result = run_bench(0)
    assert result.rank == 0 and result.layer_sizes == ()
    assert result.longest_path_rank == 0


def test_single_node():
    result = run_bench(1, density=0.0)
    assert result.rank == 1 and result.layer_sizes == (1,)


def test_layering_matches_poset_rank_on_downsampled_instances():
    for seed in range(5):
        tails, heads = random_dag(60, density=1.5, seed=seed)
        layer = cb_layering(60, tails, heads)
        labels = [f"v{i}" for i in range(60)]
        poset = construct_poset(
            labels, [(f"v{t}", f"v{h}") for t, h in zip(tails.tolist(), heads.tolist())]
        )
        assert int(layer.max()) + 1 == poset.rank_int()
        for level, members in enumerate(poset.cb_layers()):
            assert members == {f"v{i}" for i in np.flatnonzero(layer == level)}


def test_layering_agrees_with_longest_path():
    for seed in (0, 3, 9):
        tails, heads = random_dag(500, density=2.0, seed=seed)
        layer = cb_layering(500, tails, heads)
        assert int(layer.max()) + 1 == longest_path_rank(500, tails, heads)


def test_same_seed_same_histogram():
    a = run_bench(2000, density=2.0, seed=42, verify=False)
    b = run_bench(2000, density=2.0, seed=42, verify=False)
    assert a.layer_sizes == b.layer_sizes and a.rank == b.rank


def test_thread_count_does_not_change_results():
    baseline = run_bench(5000, density=2.0, seed=9, threads=1, verify=False)
    for threads in (2, 8):
        other = run_bench(5000, density=2.0, seed=9, threads=threads, verify=False)
        assert other.layer_sizes == baseline.layer_sizes
        assert other.rank == baseline.rank


def test_thread_count_bounds():
    # threads is validated but changes no work: the peel runs in one thread
    tails, heads = random_dag(10, 2.0, 3)
    baseline = cb_layering(10, tails, heads)
    assert np.array_equal(cb_layering(10, tails, heads, threads=MAX_THREADS), baseline)
    for threads in (0, -1):
        with pytest.raises(ValueError):
            cb_layering(10, tails, heads, threads=threads)
    with pytest.raises(SizeError):
        cb_layering(10, tails, heads, threads=MAX_THREADS + 1)


def test_node_budget_refusal():
    with pytest.raises(SizeError):
        run_bench(10**9)
    with pytest.raises(SizeError):
        run_bench(100, node_budget=50)


def test_read_edge_list():
    nodes, tails, heads = read_edge_list("0 1\n1 2\n\n# comment\n0 2\n")
    assert nodes == 3
    assert tails.tolist() == [0, 1, 0] and heads.tolist() == [1, 2, 2]
    assert read_edge_list("")[0] == 0


def test_read_edge_list_errors():
    with pytest.raises(ValueError):
        read_edge_list("0 1 2")
    with pytest.raises(ValueError):
        read_edge_list("-1 0")
    for text, line in (("a 2", 1), ("0 1\n1 2.5", 2)):
        with pytest.raises(ValueError, match=f"^line {line}: node ids must be integers"):
            read_edge_list(text)
    with pytest.raises(SizeError):
        read_edge_list("0 1\n1 99999999999999999999")
    # the largest 64-bit id is read; its graph is then over the node budget
    nodes, _, heads = read_edge_list(f"0 {2**63 - 1}")
    assert nodes == 2**63 and heads.tolist() == [2**63 - 1]
    with pytest.raises(SizeError):
        run_bench(nodes, edges=(np.zeros(1, dtype=np.int64), heads))


def test_cycle_detection():
    tails = np.array([0, 1, 2], dtype=np.int64)
    heads = np.array([1, 2, 0], dtype=np.int64)
    with pytest.raises(CycleError):
        cb_layering(3, tails, heads)
    with pytest.raises(CycleError):
        longest_path_rank(3, tails, heads)


def test_bench_on_explicit_edges():
    nodes, tails, heads = read_edge_list("0 1\n1 2\n3 2\n")
    result = run_bench(nodes, edges=(tails, heads))
    assert result.rank == 3 and result.agree
    assert result.layer_sizes == (2, 1, 1)


def test_threads_checked_before_the_graph_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("random_dag called before threads was checked")

    monkeypatch.setattr(bench, "random_dag", refuse)
    with pytest.raises(ValueError):
        run_bench(10**6, threads=0)
    with pytest.raises(SizeError):
        run_bench(10**6, threads=MAX_THREADS + 1)


def test_cli_checks_threads_before_reading_edges(capsys):
    # exit 4 (the bound), not exit 2 (the missing file)
    assert main(["bench", "--edges", "/nonexistent/file", "--threads", "100000"]) == 4
    capsys.readouterr()


def test_certificate_rejects_bad_layerings():
    tails, heads = random_dag(300, 2.0, 5)
    layer = cb_layering(300, tails, heads)
    assert certify_layering(300, tails, heads, layer)
    for node in (0, 1, 150, 299):
        for delta in (1, -1):
            bad = layer.copy()
            bad[node] += delta
            assert not certify_layering(300, tails, heads, bad)
    negative = layer.copy()
    negative[int(np.argmax(layer))] = -1
    for bad in (np.zeros_like(layer), negative, layer[:-1], np.append(layer, 0),
                layer.astype(float)):
        assert not certify_layering(300, tails, heads, bad)


@given(st.lists(st.integers(min_value=-1, max_value=6), min_size=4, max_size=4))
def test_certificate_rejects_every_layering_of_a_cycle(values):
    tails = np.array([0, 1, 2, 3], dtype=np.int64)
    heads = np.array([1, 2, 0, 2], dtype=np.int64)
    assert not certify_layering(4, tails, heads, np.array(values, dtype=np.int64))


def test_corrupted_layering_is_reported(monkeypatch, capsys):
    real = bench.cb_layering

    def corrupted(*args, **kwargs):
        layer = real(*args, **kwargs)
        layer[layer.size // 2] += 1
        return layer

    monkeypatch.setattr(bench, "cb_layering", corrupted)
    result = run_bench(500, seed=3)
    assert result.agree is False and result.longest_path_rank is None
    assert result.to_dict()["agree"] is False
    assert main(["bench", "--nodes", "500", "--seed", "3"]) == 1
    assert "FAILED" in capsys.readouterr().out


def _broom(handle: int, width: int, tail: int) -> tuple[int, list, list]:
    """A chain of ``handle`` nodes whose last node covers ``width``
    bristles, all under one sink that starts a chain of ``tail`` more
    nodes: the frontier goes thin -> wide -> thin."""
    root, sink = handle - 1, handle + width
    tails = list(range(handle - 1)) + [root] * width + list(range(handle, sink + tail))
    heads = list(range(1, handle)) + list(range(handle, sink)) + [sink] * width \
        + list(range(sink + 1, sink + tail + 1))
    return sink + tail + 1, tails, heads


@st.composite
def shaped_dags(draw):
    """Chains, antichains, fans, dual fans, random DAGs and brooms, each
    with node ids permuted; sizes straddle ``THIN_FRONTIER``."""
    shape = draw(st.sampled_from(["chain", "antichain", "fan", "dual_fan", "random", "broom"]))
    k = draw(st.integers(min_value=1, max_value=3 * THIN_FRONTIER))
    if shape == "chain":
        n, tails, heads = k, list(range(k - 1)), list(range(1, k))
    elif shape == "antichain":
        n, tails, heads = k, [], []
    elif shape == "fan":
        n, tails, heads = k + 1, list(range(k)), [k] * k
    elif shape == "dual_fan":
        n, tails, heads = k + 1, [k] * k, list(range(k))
    elif shape == "random":
        density = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
        t, h = random_dag(k, density, draw(st.integers(min_value=0, max_value=1000)))
        n, tails, heads = k, t.tolist(), h.tolist()
    else:
        n, tails, heads = _broom(
            draw(st.integers(min_value=1, max_value=2 * THIN_FRONTIER)),
            draw(st.integers(min_value=1, max_value=2 * THIN_FRONTIER)),
            draw(st.integers(min_value=0, max_value=2 * THIN_FRONTIER)),
        )
    ids = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).permutation(n)
    return n, ids[np.array(tails, dtype=np.int64)], ids[np.array(heads, dtype=np.int64)]


@given(shaped_dags())
def test_layering_matches_poset_layers_per_node(dag):
    nodes, tails, heads = dag
    layer = cb_layering(nodes, tails, heads)
    labels = [f"v{i}" for i in range(nodes)]
    poset = construct_poset(labels, [(f"v{t}", f"v{h}") for t, h in zip(tails.tolist(), heads.tolist())])
    layers = poset.cb_layers()
    assert int(layer.max()) + 1 == len(layers)
    for level, members in enumerate(layers):
        assert members == {f"v{i}" for i in np.flatnonzero(layer == level)}
    assert certify_layering(nodes, tails, heads, layer)


def test_deep_permuted_chain_layers_in_linear_time():
    nodes = 200_000
    rng = np.random.default_rng(11)
    ids, order = rng.permutation(nodes), rng.permutation(nodes - 1)
    started = time.process_time()
    layer = cb_layering(nodes, ids[:-1][order], ids[1:][order])
    assert time.process_time() - started < 5.0
    assert np.array_equal(layer[ids], np.arange(nodes))
