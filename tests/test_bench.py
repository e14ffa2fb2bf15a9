import numpy as np
import pytest

from spectop import CycleError, SizeError, construct_poset, run_bench
from spectop.bench import (MAX_THREADS, cb_layering, longest_path_rank,
                           random_dag, read_edge_list)


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
    # 10 nodes, far below the edge count at which a pool is built
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
