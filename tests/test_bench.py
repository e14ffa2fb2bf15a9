import json
import re
import sys
import time
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from spectop import CycleError, SizeError, bench, construct_poset, run_bench
from spectop.bench import (THIN_FRONTIER, _csr, cb_layering,
                           certify_layering, longest_path_rank, random_dag,
                           read_edge_list)
from spectop.cli import main
from spectop.errors import quote

from conftest import cb_layers


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
        for level, members in enumerate(cb_layers(poset)):
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
    # cb_layering takes threads and ignores it: the peel runs in one thread
    tails, heads = random_dag(5000, 2.0, 9)
    baseline = cb_layering(5000, tails, heads)
    for threads in (2, 8):
        assert np.array_equal(cb_layering(5000, tails, heads, threads=threads), baseline)


def test_node_budget_refusal():
    with pytest.raises(SizeError):
        run_bench(10**9)
    with pytest.raises(SizeError):
        run_bench(100, node_budget=50)
    with pytest.raises(ValueError, match=r"^the node budget must be non-negative, got -1$"):
        run_bench(0, node_budget=-1)


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


def _read_lines(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """The line-at-a-time reader: the reference ``read_edge_list`` must
    match on every input, result or error."""
    tails, heads = [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {quote(line)}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            if not all(re.fullmatch(r"[+-]?\d+(?:_\d+)*", p) for p in parts):
                raise ValueError(f"line {lineno}: node ids must be integers, got {quote(line)}") from None
            # int() refused a well-formed id for its digit count
            if any(p.startswith("-") for p in parts):
                raise ValueError(f"line {lineno}: node ids must be non-negative") from None
            raise SizeError(f"line {lineno}: a node id of more than {sys.get_int_max_str_digits()} digits "
                            "does not fit in 64 bits") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: node ids must be non-negative")
        tails.append(u)
        heads.append(v)
    nodes = max(tails + heads) + 1 if tails else 0
    try:
        return nodes, np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
    except OverflowError:
        raise SizeError(f"node id {quote(nodes - 1)} does not fit in 64 bits") from None


def _outcome(read, text: str):
    try:
        nodes, tails, heads = read(text)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    assert tails.dtype == np.int64 and heads.dtype == np.int64
    return nodes, tails.tolist(), heads.tolist()


# Tokens on both sides of the strict grammar: ids of up to 20 digits and
# around 2**63, signs, underscores, a non-ASCII digit, and the characters
# str.splitlines breaks at besides "\n".
_SOUP = ["0", "1", "7", "42", "007", " ", " ", "\t", "\n", "\n", "\r\n", "\r", "#", "# 5", "x", "\x7f",
         "1" * 18, "9" * 18, "1" * 19, "9" * 19, "1" * 20, str(2**63 - 1), str(2**63),
         "-1", "+2", "1.5", "1_0", "\u0663", "\x0b", "\x0c", "\x85", "\x1c"]
_ID = st.integers(min_value=0, max_value=10**6).map(str) | st.sampled_from(
    ["00", "9" * 18, "1" * 19, "9" * 19, str(2**63 - 1), str(2**63), "1" * 20])
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_SOUP_TEXT = st.lists(st.sampled_from(_SOUP), max_size=6).map("".join)
_VALID_LINE = st.one_of(
    st.tuples(_BLANK, _ID, _BLANK.map(lambda b: b or " "), _ID, _BLANK).map("".join),
    _BLANK,
    st.tuples(_BLANK, st.sampled_from(["#", "# 12 x", "#3\t4", "#~!"])).map("".join),
)
# What may stand between two ids: blanks, and what takes the strict reader
# off its path.
_SEPARATORS = [" ", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\x7f", "#", "_", ".", "+", "-",
               "\u0663", "x"]
# One line that may take the strict reader off its path, among valid ones,
# so that no other line decides the outcome first.
_PROBE_LINE = st.one_of(
    st.lists(_ID, min_size=1, max_size=4).map(" ".join),
    st.tuples(_ID, st.sampled_from(_SEPARATORS), _ID).map("".join),
    st.tuples(st.lists(_ID, min_size=1, max_size=2).map(" ".join), _BLANK,
              st.sampled_from(["#", "# 1 2", "#x"])).map("".join),
    st.tuples(_BLANK, st.just("#"), _SOUP_TEXT).map("".join),
    _SOUP_TEXT,
)


def _text_around(lines: list[str], probe: str, at: int, newline: str, end: str) -> str:
    return newline.join(lines[:at] + [probe] + lines[at:]) + end


_EDGE_TEXTS = st.one_of(
    st.lists(st.sampled_from(_SOUP), max_size=40).map("".join),
    st.builds(_text_around, st.lists(_VALID_LINE, max_size=8), _PROBE_LINE, st.integers(min_value=0, max_value=8),
              st.sampled_from(["\n", "\r\n"]), st.sampled_from(["", "\n"])),
)


@settings(max_examples=400)
@given(_EDGE_TEXTS)
@example("#\x0b0")
@example("0\x0c1")
@example("0\r1")
@example("0 1 2 3")
@example("1 2 # x")
@example(f"{'9' * 19} 0")
@example(f"0 {'1' * 4301}\n0 x")
@example(f"-{'1' * 4301} 0")
@example(f"{'1' * 4301}x 0")
@example(f"{'0' * 4301}1 0")
@example("#\r0")
@example("0 1#")
@example("1.0 2")
@example("1e3 2")
@example("nan 2")
@example("0\x00 1")
@example("0 1\r")
@example("-0 1")
@example("+1 2")
@example("1+2 3")
@example("1-2 3")
@example("1\n2 3 4")
@example("1 2 3\n4")
@example("0 1 \n\n 2 3")
@example("\t0\t1\t")
@example("0 1\r\n2 3")
@example(f"{2**63 - 1} 0")
@example("# a\n# b\n")
def test_read_edge_list_matches_the_line_loop(text):
    assert _outcome(read_edge_list, text) == _outcome(_read_lines, text)


def test_strict_grammar_is_read_in_one_pass():
    for text in ("", "\n\n", "0 1", "0 1\r\n1 2\r\n", " 3\t4 \n# 5 6 x\n\t# y\n12 000000000000000012\n",
                 f"# header\n{'9' * 18} 0\n"):
        assert bench._load_ids(text) is not None, repr(text)
        assert _outcome(read_edge_list, text) == _outcome(_read_lines, text)


@pytest.mark.parametrize("shape", ["chain", "fan"])
def test_benchmark_shaped_text_takes_the_fast_path(shape):
    """A header line, then seeded ids in seeded line order, as the
    layering-shapes workload writes them: a reader that sent such text to
    the line loop would lose its speed unseen."""
    rng = np.random.default_rng(7)
    ids = rng.permutation(2001)
    if shape == "chain":
        order = rng.permutation(2000)
        tails, heads = ids[:-1][order], ids[1:][order]
    else:
        tails, heads = ids[:-1], np.full(2000, ids[-1])
    text = f"# {shape} of 2001 nodes\n" + "".join(f"{u} {v}\n" for u, v in zip(tails.tolist(), heads.tolist()))
    assert bench._load_ids(text) is not None
    assert _outcome(read_edge_list, text) == _outcome(_read_lines, text)


def test_strict_reader_keeps_every_digit_place():
    """Each place value up to 10**17, at digit 9, read exactly by the
    fromstring path."""
    ids = [int("9" * width) for width in range(1, 19)] + [300, 9 * 10**4, 9 * 10**9, 10**17]
    text = "".join(f"{u} {u}\n" for u in ids)
    assert bench._load_ids(text).tolist() == [[u, u] for u in ids]
    nodes, tails, heads = read_edge_list(text)
    assert nodes == 10**18
    assert tails.tolist() == heads.tolist() == ids


def test_reading_a_fan_takes_little_memory_beyond_its_text():
    """The reader keeps no list of lines and no wide copy of the text: its
    traced peak is at most 4 bytes per byte of text."""
    nodes = 100_000
    ids = np.random.default_rng(5).permutation(nodes + 1)
    text = "# fan\n" + "".join(f"{u} {ids[-1]}\n" for u in ids[:-1].tolist())
    tracemalloc.start()
    try:
        read_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_id_beyond_the_int_digit_limit_is_refused_as_too_large(tmp_path, capsys):
    """int() refuses more than sys.get_int_max_str_digits() digits with a
    ValueError; such an id is over 64 bits, so it exits 4 like one."""
    digits = sys.get_int_max_str_digits() + 1
    with pytest.raises(SizeError, match=rf"^line 2: a node id of more than {digits - 1} digits does not fit"):
        read_edge_list(f"0 1\n{'7' * digits} 1\n")
    with pytest.raises(ValueError, match=r"^line 1: node ids must be non-negative$"):
        read_edge_list(f"-{'7' * digits} 1\n")
    path = tmp_path / "edges.txt"
    path.write_text(f"0 {'1_0' * digits}\n")
    assert main(["bench", "--edges", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: line 1: ") and err.count("\n") == 1


def test_bad_line_far_down_is_named():
    text = "0 1\n" * 100_000 + "0 x\n"
    with pytest.raises(ValueError, match=r"^line 100001: node ids must be integers, got '0 x'$"):
        read_edge_list(text)


@pytest.mark.parametrize("tails, heads, message", [
    (np.array([0, 1]), np.array([1, 3]), r"^node ids must lie in \[0, 3\), got 3$"),
    (np.array([0, 3]), np.array([1, 2]), r"^node ids must lie in \[0, 3\), got 3$"),
    (np.array([0, -1]), np.array([1, 2]), r"^node ids must lie in \[0, 3\), got -1$"),
    (np.array([0, 1]), np.array([1, -2]), r"^node ids must lie in \[0, 3\), got -2$"),
    (np.array([0.0, 1.0]), np.array([1.0, 2.0]), "^tails must be a 1-D integer array$"),
    (np.array([0, 1]), np.array([1.0, 2.0]), "^heads must be a 1-D integer array$"),
    (np.array([True]), np.array([True]), "^tails must be a 1-D integer array$"),
    (np.array([[0, 1]]), np.array([[1, 2]]), "^tails must be a 1-D integer array$"),
    ([0, 1], [1, 2], "^tails must be a 1-D integer array$"),
    (np.array([0, 1]), np.array([1]), "^2 tails but 1 heads$"),
    (np.array([0]), np.array([1, 2]), "^1 tails but 2 heads$"),
])
def test_edges_outside_the_contract_are_refused(tails, heads, message):
    """Checked up front, so no call ends in an error from numpy's
    internals, both directly and through run_bench."""
    with pytest.raises(ValueError, match=message):
        cb_layering(3, tails, heads)
    with pytest.raises(ValueError, match=message):
        run_bench(3, edges=(tails, heads))


def test_random_dag_names_a_negative_seed():
    # refused before numpy's generator, whose message names neither the seed nor its value
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        random_dag(5, 2.0, -1)


def test_empty_and_negative_node_counts():
    with pytest.raises(ValueError, match=r"^node ids must lie in \[0, 0\), got 0$"):
        cb_layering(0, np.array([0]), np.array([0]))
    with pytest.raises(ValueError, match="^nodes must be non-negative$"):
        cb_layering(-1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))


def test_packed_keys_bound_the_node_count():
    """Node ids and edge offsets must fit in int32, and so then does every
    packed key tail << 32 | head in int64; refused before any per-node
    array is allocated."""
    bound = 2**31 - 1
    assert bench.MAX_NODES == bound and (bound - 1) << 32 | (bound - 1) < 2**63
    tails, heads = np.array([0]), np.array([1])
    with pytest.raises(SizeError, match=f"^{bound + 1} nodes exceeds the bound of {bound}$"):
        cb_layering(bound + 1, tails, heads)
    with pytest.raises(SizeError, match=f"^{bound + 1} nodes exceeds the bound of {bound}$"):
        run_bench(bound + 1, node_budget=10 * bound, edges=(tails, heads))


def test_edge_count_is_bounded_like_the_node_count(monkeypatch):
    """More edges than ``MAX_NODES`` are refused with SizeError, by
    cb_layering from the arrays given and by run_bench from density times
    nodes, before any per-node array or edge is allocated."""
    nodes = 1_000_000
    monkeypatch.setattr(bench, "MAX_NODES", nodes)
    tails, heads = np.zeros(nodes + 1, dtype=np.int64), np.ones(nodes + 1, dtype=np.int64)
    for call, message in [
        (lambda: cb_layering(nodes, tails, heads), f"^{nodes + 1} edges exceeds the bound of {nodes}$"),
        (lambda: run_bench(nodes, node_budget=10 * nodes),
         f"^density 2.0 on {nodes} nodes exceeds the bound of {nodes} edges$"),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(SizeError, match=message):
                call()
            assert tracemalloc.get_traced_memory()[1] < nodes
        finally:
            tracemalloc.stop()
    # at the bound, both run
    assert cb_layering(nodes, tails[:-1], heads[:-1]).max() == 1
    assert run_bench(nodes, density=1.0, node_budget=nodes, verify=False).edges == nodes


def test_given_edges_are_held_to_the_edge_budget():
    """``EDGES_PER_BUDGET_NODE`` edges per budget node, given or drawn; more
    are refused before the layering."""
    assert bench.EDGES_PER_BUDGET_NODE == 2
    tails, heads = np.zeros(5, dtype=np.int64), np.ones(5, dtype=np.int64)
    assert run_bench(2, node_budget=2, edges=(tails[:4], heads[:4])).edges == 4
    with pytest.raises(SizeError, match="^5 edges exceeds the budget of 4 edges$"):
        run_bench(2, node_budget=2, edges=(tails, heads))


def test_unsigned_and_narrow_ids_are_read_as_int64():
    for dtype in (np.uint8, np.uint32, np.uint64, np.int16):
        tails, heads = np.array([0, 1, 0], dtype=dtype), np.array([1, 2, 2], dtype=dtype)
        assert cb_layering(3, tails, heads).tolist() == [0, 1, 2]
        assert run_bench(3, edges=(tails, heads)).agree


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


def test_layer_sizes_are_python_ints():
    """Not numpy scalars, which ``bench --json`` could not serialize."""
    result = run_bench(2000, seed=4)
    assert sum(result.layer_sizes) == 2000
    assert all(type(size) is int for size in result.layer_sizes)
    assert json.loads(json.dumps(result.to_dict()))["layer_sizes"] == list(result.layer_sizes)


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


def _join(left: int, right: int, tail: int) -> tuple[int, list, list]:
    """Chains of ``left`` and ``right`` nodes whose last nodes both lie
    under the first node of a chain of ``tail + 1`` more: the frontier
    holds two nodes until the shorter chain ends, then one, whose path
    reaches a head that has lost its other in-edge already."""
    meet = left + right
    tails = list(range(left - 1)) + list(range(left, meet - 1)) + [left - 1, meet - 1] \
        + list(range(meet, meet + tail))
    heads = list(range(1, left)) + list(range(left + 1, meet)) + [meet, meet] \
        + list(range(meet + 1, meet + tail + 1))
    return meet + tail + 1, tails, heads


@st.composite
def shaped_dags(draw):
    """Chains, antichains, fans, dual fans, random DAGs, brooms and joins,
    each with node ids permuted; sizes straddle ``THIN_FRONTIER``."""
    shape = draw(st.sampled_from(["chain", "antichain", "fan", "dual_fan", "random", "broom", "join"]))
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
    elif shape == "broom":
        n, tails, heads = _broom(
            draw(st.integers(min_value=1, max_value=2 * THIN_FRONTIER)),
            draw(st.integers(min_value=1, max_value=2 * THIN_FRONTIER)),
            draw(st.integers(min_value=0, max_value=2 * THIN_FRONTIER)),
        )
    else:
        n, tails, heads = _join(
            k,
            draw(st.integers(min_value=1, max_value=3 * THIN_FRONTIER)),
            draw(st.integers(min_value=0, max_value=2 * THIN_FRONTIER)),
        )
    ids = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))).permutation(n)
    return n, ids[np.array(tails, dtype=np.int64)], ids[np.array(heads, dtype=np.int64)]


def _laid_out(ids: np.ndarray, layout: str) -> np.ndarray:
    if layout == "strided":
        return np.repeat(ids, 2)[::2]
    return ids.astype(layout)


def _assert_poset_layers(nodes: int, tails: np.ndarray, heads: np.ndarray) -> None:
    """``cb_layering`` puts each node in its layer of the poset the edges
    generate, and passes the certificate."""
    layer = cb_layering(nodes, tails, heads)
    assert layer.dtype == np.dtype(np.int64)
    labels = [f"v{i}" for i in range(nodes)]
    poset = construct_poset(labels, [(f"v{t}", f"v{h}") for t, h in zip(tails.tolist(), heads.tolist())])
    layers = cb_layers(poset)
    assert int(layer.max()) + 1 == len(layers)
    for level, members in enumerate(layers):
        assert members == {f"v{i}" for i in np.flatnonzero(layer == level)}
    assert certify_layering(nodes, tails, heads, layer)


@given(shaped_dags(), st.sampled_from(["int64", "int32", ">i8", "strided"]))
def test_layering_matches_poset_layers_per_node(dag, layout):
    """Also on int32, big-endian and non-contiguous edge arrays, which the
    CSR build turns into the layout the thin peel reads; the layers are
    int64 on every layout."""
    nodes, tails, heads = dag
    _assert_poset_layers(nodes, _laid_out(tails, layout), _laid_out(heads, layout))


@pytest.mark.parametrize("nodes, tails, heads", [
    # the path ends at a sink
    (12, list(range(11)), list(range(1, 12))),
    # the path ends at a node of several out-edges: a broom's handle
    _broom(10, 5, 3),
    _broom(10, 2 * THIN_FRONTIER, 3),
    # the path reaches a head whose other in-edge the general loop removed
    _join(3, 9, 4),
    _join(9, 3, 0),
    # duplicate edges: two out-edges of a path node to one head
    (8, [0, 1, 1, 2, 3, 4, 5, 6, 6], [1, 2, 2, 3, 4, 5, 6, 7, 7]),
    (5, [0, 0, 1, 2, 3], [1, 1, 2, 3, 4]),
], ids=["sink", "broom", "wide_broom", "join_short_first", "join_long_first", "repeat", "repeat_at_source"])
def test_each_exit_of_the_path_walk(nodes, tails, heads):
    for ids in (np.arange(nodes), np.random.default_rng(nodes).permutation(nodes)):
        _assert_poset_layers(nodes, ids[np.array(tails, dtype=np.int64)], ids[np.array(heads, dtype=np.int64)])


@pytest.mark.parametrize("tails, heads", [
    ([0, 1, 2, 3, 4], [1, 2, 3, 4, 2]),  # the path runs into a three-cycle
    ([0, 1, 2], [1, 2, 2]),  # the path ends in a self-loop
    ([0, 0, 1, 2, 3, 4, 5], [1, 2, 3, 3, 4, 5, 4]),  # two nodes, then a path into a two-cycle
])
def test_path_walk_into_a_cycle_raises(tails, heads):
    nodes = max(tails + heads) + 1
    with pytest.raises(CycleError):
        cb_layering(nodes, np.array(tails, dtype=np.int64), np.array(heads, dtype=np.int64))


@settings(max_examples=200)
@given(shaped_dags(), st.sampled_from(["int64", "int32", ">i8", "strided"]), st.data())
def test_csr_groups_each_tails_heads(dag, layout, data):
    """Each tail's heads, duplicates included, and the offsets, in native
    C-contiguous int32 arrays; a self-loop is still a cycle."""
    nodes, tails, heads = dag
    if tails.size:
        repeats = data.draw(st.lists(st.integers(min_value=0, max_value=tails.size - 1), max_size=8))
        tails, heads = np.append(tails, tails[repeats]), np.append(heads, heads[repeats])
    tails, heads = _laid_out(tails, layout), _laid_out(heads, layout)
    indptr, sorted_heads = _csr(nodes, tails, heads)
    for array in (indptr, sorted_heads):
        assert array.dtype == np.dtype(np.int32) and array.dtype.isnative and array.flags.c_contiguous
    assert sorted_heads.shape == tails.shape and indptr.shape == (nodes + 1,)
    assert indptr[0] == 0 and indptr[-1] == tails.size
    for t in range(nodes):
        assert sorted(sorted_heads[indptr[t]:indptr[t + 1]].tolist()) == sorted(heads[tails == t].tolist())
    loop = data.draw(st.integers(min_value=0, max_value=nodes - 1))
    with pytest.raises(CycleError):
        cb_layering(nodes, np.append(tails, loop), np.append(heads, loop))


def test_deep_permuted_chain_layers_in_linear_time():
    nodes = 200_000
    rng = np.random.default_rng(11)
    ids, order = rng.permutation(nodes), rng.permutation(nodes - 1)
    started = time.process_time()
    layer = cb_layering(nodes, ids[:-1][order], ids[1:][order])
    assert time.process_time() - started < 5.0
    assert np.array_equal(layer[ids], np.arange(nodes))


@pytest.mark.parametrize("shape", ["fan", "dual_fan"])
def test_wide_fans_layer_in_linear_time(shape):
    """One sink under n - 1 sources, and one source over n - 1 sinks: the
    widest level and the single tail with every edge."""
    nodes = 1_000_000
    ids = np.random.default_rng(13).permutation(nodes)
    hub = np.full(nodes - 1, ids[-1])
    tails, heads = (ids[:-1], hub) if shape == "fan" else (hub, ids[:-1])
    started = time.process_time()
    layer = cb_layering(nodes, tails, heads)
    assert certify_layering(nodes, tails, heads, layer)
    assert time.process_time() - started < 5.0
    assert np.bincount(layer).tolist() == ([nodes - 1, 1] if shape == "fan" else [1, nodes - 1])


@pytest.mark.parametrize("shape, bound", [("random", 16), ("chain", 14), ("fan", 32), ("dual_fan", 28)])
def test_peel_memory_per_node_and_edge(shape, bound):
    """The tracemalloc peak of cb_layering alone, on inputs built before
    tracing starts, in bytes per node plus edge.  At 200k nodes the peel
    read 14.0 (random, density 2), 12.0 (chain), 28.0 (fan) and 24.5
    (dual fan); with int64 index arrays it read 26.2, 16.5, 45.0 and 44.0,
    over every bound here."""
    nodes = 200_000
    ids = np.random.default_rng(17).permutation(nodes)
    hub = np.full(nodes - 1, ids[-1])
    tails, heads = {
        "random": lambda: random_dag(nodes, 2.0, 17),
        "chain": lambda: (ids[:-1], ids[1:]),
        "fan": lambda: (ids[:-1], hub),
        "dual_fan": lambda: (hub, ids[:-1]),
    }[shape]()
    tracemalloc.start()
    try:
        layer = cb_layering(nodes, tails, heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layer.dtype == np.dtype(np.int64) and certify_layering(nodes, tails, heads, layer)
    assert peak <= bound * (nodes + tails.size)
