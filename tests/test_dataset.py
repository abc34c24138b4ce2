import math
import os
import tracemalloc
from itertools import compress, repeat
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psld import dataset
from psld import training as tr
from psld.dataset import (
    _EDGE_BLOCK,
    _atomic_write,
    _both_directions,
    _edge_array,
    _load_adjacency,
    _windows,
    SIGMA_FLOOR,
    NormStats,
    SeriesStore,
    apply_norm,
    fit_norm_stats,
    generate_synthetic,
    load_csv,
    restrict_time,
    save_adjacency_csv,
    save_csv,
    split_ranges,
)
from psld.exceptions import FormatError, ParseError, ShapeError
from psld.numerics import Rng
from psld.sampler import random_graph


def sorted_rows(edges):
    return edges[np.lexsort(edges.T[::-1])]


def has_row(edges, row):
    return bool(np.any(np.all(edges == np.asarray(row, dtype=float), axis=1)))


def echo_chunks(store, l_in, l_out, split):
    """The chunks scoring the split yields, with a forecast that returns its input.

    Returns (calls, yielded): the x of each forecast call, and the
    (w, node, pred, y) of each chunk ``training._score`` hands to its
    metrics, whose ``pred`` are input rows.
    """
    calls, yielded = [], []

    def echo(x):
        calls.append(x)
        return x

    config = tr.TrainConfig(l_in=l_in, l_out=l_out)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tr, "_metrics", lambda chunks, shape: list(chunks))
        tr._score(store, config, split, echo, sink=lambda *chunk: yielded.append(chunk))
    return calls, yielded


def split_rows(store, l_in, l_out, split):
    """The forecast calls over the split and the rows the scored chunks assemble.

    Checks that one forecast call is made per scored chunk and that the
    chunks' rows are every (window, node) pair once, window-major: every
    node of window 0, then of window 1, and so on.
    """
    calls, yielded = echo_chunks(store, l_in, l_out, split)
    assert len(calls) == len(yielded)
    w, node, x, y = (np.concatenate(part) for part in zip(*yielded))
    n_win = len(w) // store.n_nodes
    assert np.array_equal(w, np.repeat(np.arange(n_win), store.n_nodes))
    assert np.array_equal(node, np.tile(np.arange(store.n_nodes), n_win))
    return calls, x, y


class TestSeriesStore:
    def test_shape_and_ids(self, tiny_store):
        assert tiny_store.n_nodes == 3
        assert tiny_store.l_data == 10
        assert tiny_store.node_ids == ("a", "b", "c")

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ShapeError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a",), adjacency=())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                        adjacency=((0, 0, 1.0),))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                        adjacency=((0, 5, 1.0),))

    @pytest.mark.parametrize("edges,message", [
        (((0, 1, 1.0), (1, 5, 1.0)), "edge (1, 5) out of range for 2 nodes"),
        (((0, 1, 1.0), (-1, 0, 1.0)), "edge (-1, 0) out of range for 2 nodes"),
        (((0, 1, 1.0), (1, 1, 1.0)), "self-loop on node 1 is not supported"),
        (((3, 3, 1.0),), "edge (3, 3) out of range for 2 nodes"),
        (((0, 1.5, 1.0),), "non-integer node index"),
        (((0, float("nan"), 1.0),), "non-integer node index"),
        (((float("inf"), 1, 1.0),), "non-integer node index"),
    ])
    def test_edge_errors_name_the_first_bad_edge(self, edges, message):
        for adjacency in (edges, np.array(edges)):
            with pytest.raises(ValueError) as exc:
                SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                            adjacency=adjacency)
            assert message in str(exc.value)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weight(self, weight):
        edges = ((0, 1, 1.0), (1, 0, weight), (0, 1, float("nan")))
        for adjacency in (edges, np.array(edges)):
            with pytest.raises(ValueError) as exc:
                SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                            adjacency=adjacency)
            assert str(exc.value) == f"edge (1, 0) has non-finite weight {weight!r}"

    def test_bad_index_is_named_before_bad_weight_of_the_same_edge(self):
        with pytest.raises(ValueError) as exc:
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                        adjacency=((0, 7, float("nan")),))
        assert str(exc.value) == "edge (0, 7) out of range for 2 nodes"

    def test_rejects_edges_that_are_not_triples(self):
        with pytest.raises(ValueError):
            SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                        adjacency=np.zeros((1, 4)))

    @pytest.mark.parametrize("adjacency", [(), np.empty((0, 3))])
    def test_no_edges_is_an_empty_array(self, adjacency):
        store = SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                            adjacency=adjacency)
        assert store.adjacency.shape == (0, 3)

    def test_adjacency_is_read_only_edge_array(self, tiny_store):
        edges = tiny_store.adjacency
        assert edges.dtype == np.float64
        assert edges.shape == (2, 3)
        assert not edges.flags.writeable
        assert [tuple(row) for row in edges.tolist()] == [(0, 1, 1.0), (1, 2, 1.0)]
        with pytest.raises(ValueError):
            edges[0, 2] = 5.0

    def test_writeable_input_is_copied_once(self):
        given = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
        store = SeriesStore(values=np.zeros((2, 5)), node_ids=("a", "b"),
                            adjacency=given)
        assert given.flags.writeable
        assert not np.shares_memory(store.adjacency, given)
        given[0, 2] = 9.0
        assert store.adjacency[0, 2] == 2.0

    @pytest.mark.parametrize("rows", [3 * _EDGE_BLOCK, 25 * _EDGE_BLOCK + 7])
    def test_edge_check_memory_does_not_grow_with_rows(self, rows):
        # a read-only float64 array is checked in place, block by block
        n = 1000
        src = np.arange(rows) % n
        edges = np.column_stack((src, (src + 1) % n, np.ones(rows)))
        edges.flags.writeable = False
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert _edge_array(edges, n) is edges
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 64 * _EDGE_BLOCK

    def test_first_bad_edge_wins_across_blocks(self):
        edges = np.zeros((3 * _EDGE_BLOCK + 5, 3))
        edges[:, 1] = 1.0
        edges[-1] = (2.0, 2.0, 1.0)
        edges[2 * _EDGE_BLOCK + 3] = (0.0, 9.0, 1.0)
        edges[2 * _EDGE_BLOCK + 4, 2] = np.nan
        with pytest.raises(ValueError) as exc:
            _edge_array(edges, 4)
        assert str(exc.value) == "edge (0, 9) out of range for 4 nodes"
        assert exc.value.row == 2 * _EDGE_BLOCK + 3
        edges[2 * _EDGE_BLOCK + 3] = (0.0, 1.0, 1.0)
        edges[2 * _EDGE_BLOCK + 4, 2] = 1.0
        with pytest.raises(ValueError, match="self-loop on node 2") as exc:
            _edge_array(edges, 4)
        assert exc.value.row == len(edges) - 1

    def test_read_only_edges_are_shared(self, synth_store):
        edges = synth_store.adjacency
        again = SeriesStore(synth_store.values, synth_store.node_ids, edges)
        assert again.adjacency is edges
        stats = fit_norm_stats(synth_store, 120)
        assert apply_norm(synth_store, stats).adjacency is edges
        assert restrict_time(synth_store, 10, 50).adjacency is edges


class TestNormalization:
    def test_frozen_values(self):
        store = SeriesStore(values=np.array([[1.0, 2.0, 3.0]]),
                            node_ids=("a",), adjacency=())
        stats = fit_norm_stats(store, 3)
        assert stats.mu[0] == pytest.approx(2.0, abs=1e-15)
        assert stats.sigma[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        normed = apply_norm(store, stats, SIGMA_FLOOR)
        assert normed.values[0, 0] == pytest.approx(-1.2247448713915890, abs=1e-12)
        assert normed.values[0, 2] == pytest.approx(+1.2247448713915890, abs=1e-12)

    def test_stats_use_train_prefix_only(self):
        vals = np.array([[1.0, 1.0, 1.0, 100.0]])
        store = SeriesStore(values=vals, node_ids=("a",), adjacency=())
        stats = fit_norm_stats(store, 3)
        # the 100.0 sits outside the fit range
        assert stats.mu[0] == 1.0
        assert stats.sigma[0] == 0.0

    def test_round_trip(self, synth_store):
        stats = fit_norm_stats(synth_store, 120)
        normed = apply_norm(synth_store, stats, SIGMA_FLOOR)
        scale = np.maximum(stats.sigma, SIGMA_FLOOR)[:, None]
        back = normed.values * scale + stats.mu[:, None]
        assert np.max(np.abs(back - synth_store.values)) <= 1e-10

    # blocks of 1 row, of 7, 64 and 256 rows with a shorter last block,
    # and one block of all 999 rows
    @pytest.mark.parametrize("block_rows", [1, 7, 64, 256, 999])
    @pytest.mark.parametrize("train_len", [2, 37, 360])
    def test_blocked_fit_has_the_whole_array_bits(self, monkeypatch, block_rows, train_len):
        values = Rng(train_len).gen.standard_normal((999, 400)) * 1e3 + 7.0
        values[::5] = -values[::5] * 1e-200
        values[3] = 4.0  # sigma 0
        store = SeriesStore(values, [f"n{i}" for i in range(999)])
        monkeypatch.setattr(dataset, "_FIT_BLOCK", block_rows * train_len)
        stats = fit_norm_stats(store, train_len)
        head = values[:, :train_len]
        for got, want in ((stats.mu, head.mean(axis=1)), (stats.sigma, head.std(axis=1))):
            assert got.shape == (999,)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_fit_memory_does_not_grow_with_nodes(self):
        # the train split of a 1024-node series is 2.9 MiB, and one
        # whole-array std makes a temporary that size; the blocked fit's
        # traced peak stays within one bound at 64 and at 1024 nodes: one
        # block's deviations plus numpy's ufunc buffers (measured 0.31 and
        # 0.39 MB)
        for n_nodes in (64, 1024):
            store = SeriesStore(Rng(n_nodes).gen.standard_normal((n_nodes, 600)),
                                [f"n{i}" for i in range(n_nodes)])
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                fit_norm_stats(store, 360)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 8 * dataset._FIT_BLOCK + 2**18, (n_nodes, peak)

    def test_train_len_too_small(self, tiny_store):
        with pytest.raises(ValueError):
            fit_norm_stats(tiny_store, 1)

    def test_sigma_floor_guards_constant_rows(self):
        store = SeriesStore(values=np.full((1, 6), 4.0),
                            node_ids=("a",), adjacency=())
        stats = fit_norm_stats(store, 6)
        normed = apply_norm(store, stats, SIGMA_FLOOR)
        assert np.all(np.isfinite(normed.values))
        assert np.all(normed.values == 0.0)

    def test_in_place_division_keeps_the_bits(self):
        # (x - mu) divided in place against the two-temporary formula, bit
        # for bit, on signed zeros, subnormals and values near overflow
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([
            [0.0, -0.0, 0.0, -0.0, 1.0, -1.0],
            [tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, -tiny, 0.0],
            [1e300, -1e300, 1e300, -1e300, 0.0, 5e299],
            [1.0, 2.0, -0.0, 0.0, tiny, -3.5],
        ])
        store = SeriesStore(values, ("a", "b", "c", "d"))
        stats = NormStats(np.array([0.0, -0.0, -1e300, tiny]), np.array([1.0, tiny, 1e300, 1e-9]))
        for floor in (tiny, SIGMA_FLOOR, 1e300):
            scale = np.maximum(stats.sigma, floor)
            want = (values - stats.mu[:, None]) / scale[:, None]
            got = apply_norm(store, stats, floor).values
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), floor

    @pytest.mark.parametrize("span", [(0, 0), (5, 3), (-1, 4), (0, 10_000)])
    def test_bad_range_raises(self, synth_store, span):
        with pytest.raises(ValueError, match="invalid time range"):
            restrict_time(synth_store, *span)

    def test_restricted_store_is_a_read_only_view(self, synth_store):
        # the columns are not copied: a column slice has contiguous rows,
        # which SeriesStore keeps as given
        sub = restrict_time(synth_store, 120, 160)
        assert np.shares_memory(sub.values, synth_store.values)
        assert not sub.values.flags.writeable and synth_store.values.flags.writeable
        assert np.array_equal(sub.values, synth_store.values[:, 120:160])
        assert sub.node_ids == synth_store.node_ids

    def test_values_without_contiguous_rows_are_copied(self):
        base = np.arange(24.0).reshape(4, 6)
        for values in (base[:, ::2], base.T, base.astype(np.float32)):
            store = SeriesStore(values, tuple(map(str, range(values.shape[0]))))
            assert store.values.flags.c_contiguous and store.values.dtype == np.float64
            assert not np.shares_memory(store.values, base)
            assert np.array_equal(store.values, values)


class TestSplitsAndWindows:
    def test_split_ranges_default(self):
        r = split_ranges(100, (0.6, 0.2, 0.2))
        assert r == {"train": (0, 60), "val": (60, 80), "test": (80, 100)}

    @pytest.mark.parametrize("ratios", [(0.6, float("nan"), 0.2), (float("inf"), 0.2, 0.2),
                                        (0.6, 0.2, -float("inf")), (0.6, 0.2), (0.6, 0.0, 0.4)])
    def test_split_ranges_refuse_non_finite_ratios(self, ratios):
        # the rule TrainConfig applies to its split, with the same message
        with pytest.raises(ValueError) as exc:
            split_ranges(100, ratios)
        assert str(exc.value) == f"split needs three finite positive ratios, got {ratios}"

    def test_split_ranges_cover_everything(self):
        for l_data in range(10, 50):
            r = split_ranges(l_data, (0.6, 0.2, 0.2))
            assert r["train"][0] == 0
            assert r["train"][1] == r["val"][0]
            assert r["val"][1] == r["test"][0]
            assert r["test"][1] == l_data

    def test_windows_equal_explicit_slices(self, tiny_store):
        # every feasible (l_in, l_out) of a length-10 series
        values = tiny_store.values
        for l_in in range(1, 10):
            for l_out in range(1, 11 - l_in):
                x, y = _windows(values, l_in, l_out)
                n_win = 10 - l_in - l_out + 1
                assert x.shape == (3, n_win, l_in) and y.shape == (3, n_win, l_out)
                for w in range(n_win):
                    assert np.array_equal(x[:, w], values[:, w:w + l_in])
                    assert np.array_equal(y[:, w], values[:, w + l_in:w + l_in + l_out])
                assert not x.flags.writeable and not y.flags.writeable
                assert np.shares_memory(x, values) and np.shares_memory(y, values)

    @pytest.mark.parametrize("l_in,l_out", [(8, 3), (10, 1), (1, 10), (11, 4)])
    def test_windows_too_short_names_minimum(self, tiny_store, l_in, l_out):
        with pytest.raises(ValueError) as exc:
            _windows(tiny_store.values, l_in, l_out)
        assert str(exc.value) == ("series of length 10 too short for windows; "
                                  f"needs at least {l_in + l_out}")

    # windows as evaluation and the baselines read them: one row per
    # (window, node), window-major, gathered in chunks
    def test_window_count_exhaustive(self, tiny_store, monkeypatch):
        # over every feasible (l_in, l_out) in a length-10 store, in one
        # chunk and in balanced chunks of at most 4 rows
        v = tiny_store.values
        for chunk_rows in (4, 512):
            monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", chunk_rows)
            for l_in in range(1, 9):
                for l_out in range(1, 10 - l_in):
                    n_win = 10 - l_in - l_out + 1
                    calls, x, y = split_rows(tiny_store, l_in, l_out, (0, 10))
                    assert x.shape == (n_win * 3, l_in)
                    assert y.shape == (n_win * 3, l_out)
                    sizes = [len(cx) for cx in calls]
                    assert len(sizes) == -(-n_win * 3 // chunk_rows)
                    assert max(sizes) <= chunk_rows and max(sizes) - min(sizes) <= 1
                    for row in range(n_win * 3):
                        w, d = divmod(row, 3)
                        assert np.array_equal(x[row], v[d, w:w + l_in])
                        assert np.array_equal(y[row], v[d, w + l_in:w + l_in + l_out])

    def test_window_contents_and_overlap(self, tiny_store):
        _, x, y = split_rows(tiny_store, 4, 2, (0, 10))
        v = tiny_store.values
        assert np.array_equal(x[:3], v[:, 0:4])  # window 0, nodes 0..2
        assert np.array_equal(y[:3], v[:, 4:6])
        assert np.array_equal(x[3:6], v[:, 1:5])  # window 1
        # stride one: successive inputs share l_in - 1 steps
        assert np.array_equal(x[:3, 1:], x[3:6, :-1])

    def test_boundary_single_window(self, tiny_store):
        calls, x, y = split_rows(tiny_store, 6, 4, (0, 10))
        assert len(calls) == 1
        assert np.array_equal(x, tiny_store.values[:, :6])
        assert np.array_equal(y, tiny_store.values[:, 6:])

    def test_chunks_are_balanced_blocks(self, tiny_store, monkeypatch):
        # 7 windows of 3 nodes in chunks of at most 5 rows: 5 chunks, at
        # rows 0, 4, 8, 12 and 16, each forecast and yielded once
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 5)
        calls, x, _ = split_rows(tiny_store, 2, 2, (0, 10))
        assert len(x) == 21 and len(calls) == 5
        for lo, hi, cx in zip([0, 4, 8, 12, 16], [4, 8, 12, 16, 21], calls):
            assert np.array_equal(cx, x[lo:hi])
        _, yielded = echo_chunks(tiny_store, 2, 2, (0, 10))
        assert [len(pred) for _, _, pred, _ in yielded] == [4, 4, 4, 4, 5]

    def test_chunks_are_contiguous_copies(self, tiny_store, monkeypatch):
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 4)
        calls, yielded = echo_chunks(tiny_store, 3, 2, (1, 10))
        for cx, (_, _, _, cy) in zip(calls, yielded):
            assert cx.flags.c_contiguous and cy.flags.c_contiguous
            assert not np.shares_memory(cx, tiny_store.values)
            assert not np.shares_memory(cy, tiny_store.values)

    def test_too_short_split_names_minimum(self, tiny_store):
        with pytest.raises(ValueError) as exc:
            echo_chunks(tiny_store, 8, 4, (0, 10))
        assert "12" in str(exc.value)

    def test_restrict_time(self, tiny_store):
        sub = restrict_time(tiny_store, 2, 7)
        assert sub.l_data == 5
        assert sub.values[0, 0] == 2.0


class TestCsv:
    def test_round_trip_exact(self, synth_store, tmp_path):
        p = tmp_path / "series.csv"
        a = tmp_path / "adj.csv"
        save_csv(synth_store, p)
        save_adjacency_csv(synth_store, a)
        back = load_csv(p, a)
        assert back.node_ids == synth_store.node_ids
        assert np.array_equal(back.values, synth_store.values)
        assert np.array_equal(sorted_rows(back.adjacency),
                              sorted_rows(synth_store.adjacency))

    @pytest.mark.parametrize("first_id", ("0", " 1.5", "nan", "-inf"))
    def test_numeric_first_id_is_refused_and_nothing_written(self, tmp_path, first_id):
        # an id-less file loads with ids "0", "1", ...; written back with
        # them, it would reload as one more timestep per row
        p = tmp_path / "series.csv"
        p.write_text("old\n")
        store = SeriesStore(np.arange(12.0).reshape(3, 4), (first_id, "b", "c"))
        with pytest.raises(ValueError) as exc:
            save_csv(store, p)
        assert str(exc.value) == (f"{p}: node id {first_id!r} parses as a number, so the id "
                                  "column would be read back as a timestep")
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["series.csv"]

    @pytest.mark.parametrize("ids,bad", [
        (("a,b", "c"), "a,b"),       # would load as id "a" and a value "b"
        (("a", "c\nd"), "c\nd"),     # would load as two short rows
        ((" a", "c"), " a"),         # would reload stripped, as "a"
        (("a", "c "), "c "),
        (("a", "c\rd"), "c\rd"),
        (("a", "c\u2028d"), "c\u2028d"),
        (("a", "c\x1cd"), "c\x1cd"),
        (("a", "\t"), "\t"),
    ])
    def test_id_that_would_not_read_back_is_refused_and_nothing_written(self, tmp_path, ids,
                                                                         bad):
        p = tmp_path / "series.csv"
        p.write_text("old\n")
        store = SeriesStore(np.arange(8.0).reshape(2, 4), ids)
        with pytest.raises(ValueError) as exc:
            save_csv(store, p)
        assert str(exc.value) == (f"{p}: node id {bad!r} holds a comma, a line break or "
                                  "surrounding whitespace, so it would not be read back as "
                                  "written")
        assert p.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["series.csv"]

    @pytest.mark.parametrize("ids", [("a b", "c"), ("", "c"), ("é", "c;d"), ("a", "c\x1fd")])
    def test_ids_that_read_back_round_trip(self, tmp_path, ids):
        p = tmp_path / "series.csv"
        store = SeriesStore(np.arange(8.0).reshape(2, 4), ids)
        save_csv(store, p)
        assert load_csv(p).node_ids == ids

    def test_numeric_later_ids_round_trip(self, tmp_path):
        p = tmp_path / "series.csv"
        store = SeriesStore(np.arange(12.0).reshape(3, 4), ("a", "1", "2"))
        save_csv(store, p)
        back = load_csv(p)
        assert back.node_ids == store.node_ids
        assert np.array_equal(back.values, store.values)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(FormatError):
            load_csv(p)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,1,2,3\nb,4,5\n")
        with pytest.raises(FormatError) as exc:
            load_csv(p)
        assert "line 2" in str(exc.value)

    def test_non_numeric_names_line_and_field(self, tmp_path):
        # field index counts data values, the id column excluded
        p = tmp_path / "bad.csv"
        p.write_text("a,1,2,3\nb,4,oops,6\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 2" in str(exc.value)
        assert "field 2" in str(exc.value)

    def test_blank_lines_skipped_physical_numbering(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("a,1,2\n\nb,3,nope\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_line_and_field(self, tmp_path, token):
        p = tmp_path / "bad.csv"
        p.write_text(f"a,1,2,3\nb,4,{token},6\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 2" in str(exc.value)
        assert "field 2" in str(exc.value)
        assert "non-finite" in str(exc.value)

    def test_non_finite_value_without_id_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,3\n4,5,inf\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p)
        assert "line 2, field 3" in str(exc.value)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_adjacency_non_finite_weight_names_line_and_field(self, tmp_path, token):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\nc,5,6\n")
        a.write_text(f"0,1,1.0\n1,2,{token}\n")
        with pytest.raises(ParseError) as exc:
            load_csv(p, a)
        assert "line 2" in str(exc.value)
        assert "field 3" in str(exc.value)
        assert "non-finite" in str(exc.value)

    def test_adjacency_adds_both_directions(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("0,1,2.5\n")
        store = load_csv(p, a)
        assert has_row(store.adjacency, (0, 1, 2.5))
        assert has_row(store.adjacency, (1, 0, 2.5))

    def test_adjacency_default_weight_is_one(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("0,1\n")
        store = load_csv(p, a)
        assert has_row(store.adjacency, (0, 1, 1.0))

    def test_adjacency_bad_field_count(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("0,1,1.0,extra\n")
        with pytest.raises(FormatError):
            load_csv(p, a)

    def test_adjacency_non_integer_index(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\n")
        a.write_text("a,b,1.0\n")
        with pytest.raises(ParseError):
            load_csv(p, a)

    @pytest.mark.parametrize("line,message", [
        ("0,5", "edge (0, 5) out of range for 3 nodes"),
        ("-1,2,1.0", "edge (-1, 2) out of range for 3 nodes"),
        pytest.param("1" + "0" * 400 + ",0", "out of range for 3 nodes", id="huge-index"),
        ("2,2", "self-loop on node 2 is not supported"),
    ])
    def test_adjacency_bad_edge_names_file_and_line(self, tmp_path, line, message):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\nc,5,6\n")
        a.write_text(f"0,1\n\n{line}\n1,2,oops\n")
        with pytest.raises(FormatError) as exc:
            load_csv(p, a)
        assert str(exc.value).startswith(f"{a}: line 3: ")
        assert message in str(exc.value)

    @pytest.mark.parametrize("lines,error,where", [
        ("0,1\n0,1,2,3\n1,2,nan\n", FormatError, "line 2"),
        ("0,1\n0,x\n0,1,2,3\n", ParseError, "line 2"),
        ("0,1\n0,2,x\n0,x\n", ParseError, "line 2, field 3"),
        ("0,1\n0,2,inf\n0,9\n", ParseError, "line 2, field 3"),
        ("0,1\n0,9\n0,2,inf\n", FormatError, "line 2"),
    ])
    def test_adjacency_first_bad_line_wins(self, tmp_path, lines, error, where):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\nc,5,6\n")
        a.write_text(lines)
        with pytest.raises(error) as exc:
            load_csv(p, a)
        assert where in str(exc.value)

    def test_adjacency_mixed_widths_and_spacing(self, tmp_path):
        p = tmp_path / "s.csv"
        a = tmp_path / "adj.csv"
        p.write_text("a,1,2\nb,3,4\nc,5,6\n")
        # "\x1f" is whitespace to str.strip but not to int(); fields are stripped first
        a.write_text(" 0 , 1 \n\n1,2, 0.5\n\x1f2\x1f,0\n")
        store = load_csv(p, a)
        want = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 0.5), (2, 1, 0.5), (2, 0, 1.0), (0, 2, 1.0)]
        assert store.adjacency.tolist() == [list(map(float, row)) for row in want]
        assert not store.adjacency.flags.writeable


def reference_load_csv(path):
    """The whole-file parser that load_csv replaced, kept as its oracle.

    Its errors do not name the file. Like load_csv, it refuses a first row
    of fewer than 2 values as a format fault.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    rows = [(no, line) for no, line in enumerate(raw_lines, 1) if line.strip()]
    if not rows:
        raise FormatError(f"{path}: empty series file")
    try:
        float(rows[0][1].split(",")[0])
        has_ids = False
    except ValueError:
        has_ids = True
    ids, values, width = [], [], None
    for line_no, line in rows:
        fields = [f.strip() for f in line.split(",")]
        if has_ids:
            ids.append(fields[0])
            fields = fields[1:]
        if width is None:
            width = len(fields)
            if width < 2:
                raise FormatError(f"line {line_no}: need at least 2 timesteps, got {width}")
        elif len(fields) != width:
            raise FormatError(f"line {line_no}: expected {width} values, got {len(fields)}")
        row = []
        for i, tok in enumerate(fields):
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(
                    f"line {line_no}, field {i + 1}: cannot parse {tok!r} as a number"
                ) from None
        values.append(row)
    if not has_ids:
        ids = [str(i) for i in range(len(values))]
    values = np.array(values, dtype=np.float64)
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise ParseError(f"line {rows[row][0]}, field {col + 1}: "
                         f"non-finite value {float(values[row, col])!r}")
    return SeriesStore(values, tuple(ids))


def outcome(load, path):
    """Values and ids, or the error type and text without the file prefix."""
    try:
        store = load(path)
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err).removeprefix(f"{path}: ")
    return store.values.shape, store.values.tobytes(), store.node_ids


class TestCsvParsing:
    """load_csv reads line by line and must parse exactly as the whole-file oracle."""

    @pytest.mark.parametrize("text", [
        pytest.param("a,1,2\r\nb,3,4\r\n", id="crlf"),
        pytest.param("a,1,2\rb,3,4\r", id="cr"),
        pytest.param("a,1,2\x0cb,3,4\n", id="form-feed"),
        pytest.param("a,1,2\u2028b,3,4\nc,5,6", id="line-separator"),
        pytest.param("a,1,2\x0b\x1cb,3,4\x85c,5,6\n", id="other-splitlines-breaks"),
        pytest.param("a,1,2\n\n  \t\nb,3,x\n", id="blank-and-whitespace-lines"),
        pytest.param("\n \n1,2\n\r\n3,4\n", id="leading-blank-lines"),
        pytest.param("1_0,2\n3,4_5\n", id="underscores"),
        pytest.param("\u0661,\u0662\n\u0969,4\n", id="unicode-digits"),
        pytest.param(" a , 1 ,\t2 \n b,3\u3000,4\x1f\n", id="padded-fields"),
        pytest.param("1,2,3\n4,5,6\n", id="no-ids"),
        pytest.param("n0,1,2\nn1,3,4\n", id="ids"),
        pytest.param("1,2\nx,3\n", id="id-only-checked-on-first-row"),
        pytest.param("x,1,2\n5,3,4\n", id="numeric-id-after-first-row"),
        pytest.param("a\nb\n", id="ids-without-values"),
        pytest.param("1\n2\n", id="one-value-column"),
        pytest.param("a,1\nb,2,3\n", id="one-value-column-before-width-mismatch"),
        pytest.param("a,1,2\nb,3\n", id="width-mismatch"),
        pytest.param("1,2\n3,4,5\n6,x\n", id="width-mismatch-before-bad-token"),
        pytest.param("a,1,2\nb,3,oops\n", id="bad-token"),
        pytest.param("a,1,2\nb,,4\n", id="empty-field"),
        pytest.param("a,1,2\nb, 4x ,4\n", id="padded-bad-token"),
        pytest.param("a,1,nan\nb,3,4\n", id="nan"),
        pytest.param("a,1,2\nb,1e999,4\n", id="overflow"),
        pytest.param("a,1,-inf\nb,3,x\n", id="bad-token-before-non-finite-check"),
        pytest.param("", id="empty"),
        pytest.param(" \n\t\n", id="only-blank-lines"),
        pytest.param("a,1,2", id="no-final-newline"),
    ])
    def test_parses_as_the_whole_file_oracle(self, tmp_path, text):
        p = tmp_path / "series.csv"
        p.write_bytes(text.encode("utf-8"))
        assert outcome(load_csv, p) == outcome(reference_load_csv, p)

    @pytest.mark.parametrize("text", ["a,1,2\n\nb,3\n", "a,1,2\n\nb,3,x\n",
                                      "a,1,2\n\nb,3,inf\n", "\n\nb,3\nc,4\n",
                                      "\n\nb\n"],
                             ids=["width", "token", "non-finite", "one-value", "no-values"])
    def test_every_fault_names_the_file_and_line(self, tmp_path, text):
        p = tmp_path / "series.csv"
        p.write_text(text)
        with pytest.raises(FormatError) as exc:
            load_csv(p)
        assert str(exc.value).startswith(f"{p}: line 3")

    def test_long_lines_parse_as_the_oracle(self, synth_store, tmp_path):
        p = tmp_path / "series.csv"
        save_csv(synth_store, p)
        assert outcome(load_csv, p) == outcome(reference_load_csv, p)

    def test_peak_memory_is_a_small_multiple_of_the_values(self, tmp_path):
        # the values and one line's tokens, not a Python object per value
        store = generate_synthetic(256, 400, Rng(2))
        p = tmp_path / "series.csv"
        save_csv(store, p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            values = load_csv(p).values
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, store.values)
        assert peak <= 2 * values.nbytes


def _reference_column(rows, k: int, convert) -> np.ndarray:
    fields = map(str.strip, map(itemgetter(k), rows))
    return np.fromiter(map(convert, fields), dtype=np.float64)


def _reference_bulk_edge_columns(rows, n_nodes: int):
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    weighted = widths == 3
    if not np.all(weighted | (widths == 2)):
        return None
    try:
        src = _reference_column(rows, 0, int)
        dst = _reference_column(rows, 1, int)
        w = np.ones(len(rows))
        w[weighted] = _reference_column(compress(rows, weighted.tolist()), 2, float)
    except (ValueError, OverflowError):
        return None
    in_range = (src >= 0) & (src < n_nodes) & (dst >= 0) & (dst < n_nodes)
    if not np.all(in_range & (src != dst) & np.isfinite(w)):
        return None
    return src, dst, w


def _reference_raise_first_bad_line(path, raw_lines, n_nodes: int) -> None:
    for line_no, line in enumerate(raw_lines, 1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (2, 3):
            raise FormatError(
                f"line {line_no}: adjacency rows need 2 or 3 fields, got {len(fields)}"
            )
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {line_no}: node indices must be integers") from None
        w = 1.0
        if len(fields) == 3:
            try:
                w = float(fields[2])
            except ValueError:
                raise ParseError(f"line {line_no}, field 3: cannot parse {fields[2]!r} "
                                 f"as a number") from None
        if not math.isfinite(w):
            raise ParseError(f"line {line_no}, field 3: non-finite value {w!r}")
        if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise FormatError(
                f"{path}: line {line_no}: edge ({src}, {dst}) out of range for {n_nodes} nodes"
            )
        if src == dst:
            raise FormatError(f"{path}: line {line_no}: self-loop on node {src} is not supported")


def reference_load_adjacency(path, n_nodes: int) -> np.ndarray:
    """The bulk loader (and its three helpers) that _load_adjacency replaced, kept as its oracle.

    It converts whole columns, then walks the lines again to name the
    first bad one; some of its errors do not name the file.
    """
    with open(path, "r", encoding="utf-8") as f:
        raw_lines = f.read().splitlines()
    rows = list(map(str.split, filter(str.strip, raw_lines), repeat(",")))
    columns = _reference_bulk_edge_columns(rows, n_nodes)
    if columns is None:
        _reference_raise_first_bad_line(path, raw_lines, n_nodes)
    edges = _both_directions(*columns)
    edges.flags.writeable = False
    return edges


ADJ_NODES = 12


def adjacency_outcome(load, path):
    """Edge bytes, or the error type and text without the file prefix."""
    try:
        edges = load(path, ADJ_NODES)
    except Exception as err:  # noqa: BLE001 - the error is the outcome compared
        return type(err), str(err).removeprefix(f"{path}: ")
    assert edges.dtype == np.float64 and not edges.flags.writeable
    return edges.shape, edges.tobytes()


HUGE = "1" + "0" * 400  # a 401-digit index: int() takes it, float64 overflows


class TestAdjacencyParsing:
    """_load_adjacency streams one pass and must parse as the bulk oracle."""

    @pytest.mark.parametrize("text", [
        pytest.param("0,1\r\n1,2,0.5\r\n", id="crlf"),
        pytest.param("0,1\r1,2,0.5\r", id="cr"),
        pytest.param("0,1\x0c1,2\n", id="form-feed"),
        pytest.param("0,1\u20281,2,3\n2,3", id="line-separator"),
        pytest.param("0,1\x0b\x1c1,2\x852,3\n", id="other-splitlines-breaks"),
        pytest.param("0,1\n\n  \t\n1,2\n", id="blank-and-whitespace-lines"),
        pytest.param("\n \n0,1\n\r\n1,x\n", id="leading-blank-lines"),
        pytest.param("\x1f0\x1f,1\u3000\n\u30001,2,\x1f0.5\u3000\n", id="padded-fields"),
        pytest.param(" 0 , 1 \n1,2, 0.5\n", id="spaces"),
        pytest.param("1_0,2\n3,4,1_5\n", id="underscores"),
        pytest.param("\u0661,\u0662\n\u0969,4,\u0665\n", id="unicode-digits"),
        pytest.param("0,1\n1,2,0.5\n2,3\n3,4,-2.5e3\n", id="mixed-widths"),
        pytest.param("0,1\n" + HUGE + ",0\n", id="401-digit-index"),
        pytest.param("0,-" + HUGE + "\n", id="401-digit-negative-index"),
        pytest.param("0,1\n" + "1" * 4301 + ",0\n", id="4301-digit-index"),
        pytest.param("0\n", id="one-field"),
        pytest.param("0,1,2,3\n", id="four-fields"),
        pytest.param("0,1,2,\n", id="four-fields-last-empty"),
        pytest.param("0,\n", id="empty-index"),
        pytest.param("a,b,1.0\n", id="non-integer-index"),
        pytest.param("1.5,2\n", id="float-index"),
        pytest.param("0,1,x\n", id="bad-weight"),
        pytest.param("0,1,\n", id="empty-weight"),
        pytest.param("0,1, 4x \n", id="padded-bad-weight"),
        pytest.param("0,1,nan\n", id="nan-weight"),
        pytest.param("0,1,inf\n", id="inf-weight"),
        pytest.param("0,1,-inf\n", id="minus-inf-weight"),
        pytest.param("0,1,1e999\n", id="overflowing-weight"),
        pytest.param("0,12\n", id="index-at-node-count"),
        pytest.param("-1,2\n", id="negative-index"),
        pytest.param("2,2\n", id="self-loop"),
        pytest.param("0,1\n0,99\n0,x\n", id="range-before-syntax"),
        pytest.param("0,1\n0,x\n0,99\n", id="syntax-before-range"),
        pytest.param("0,1\n3,3\n1,2,3,4\n", id="self-loop-before-field-count"),
        pytest.param("0,1\n1,2,3,4\n3,3\n", id="field-count-before-self-loop"),
        pytest.param("0,1\n1,2,inf\n0,x\n", id="weight-before-syntax"),
        pytest.param("0,1\n\n1,2,inf\n\n0,99\n", id="weight-before-range-after-blanks"),
        pytest.param("0,1\n\n0,99\n\n\n1,2,nan\n", id="range-before-weight-after-blanks"),
        pytest.param("0,1\n5,5\n" + HUGE + ",0\n", id="self-loop-before-overflow"),
        pytest.param("0,1\n" + HUGE + ",0\n5,5\n", id="overflow-before-self-loop"),
        pytest.param("0,99\n" + "1" * 4301 + ",0\n", id="range-before-4301-digits"),
        pytest.param("", id="empty"),
        pytest.param(" \n\t\n", id="only-blank-lines"),
        pytest.param("0,1", id="no-final-newline"),
    ])
    def test_parses_as_the_bulk_oracle(self, tmp_path, text):
        p = tmp_path / "adjacency.csv"
        p.write_bytes(text.encode("utf-8"))
        assert adjacency_outcome(_load_adjacency, p) == \
            adjacency_outcome(reference_load_adjacency, p)

    @pytest.mark.parametrize("line", ["0", "1,2,3,4", "0,x", "0,1,x", "0,1,nan", "0,99",
                                      HUGE + ",0", "4,4"],
                             ids=["fields", "extra-field", "index", "weight", "non-finite",
                                  "range", "overflow", "self-loop"])
    def test_every_fault_names_the_file_and_line(self, tmp_path, line):
        p = tmp_path / "adjacency.csv"
        p.write_text(f"0,1\n\n{line}\n")
        with pytest.raises(FormatError) as exc:
            _load_adjacency(p, ADJ_NODES)
        assert str(exc.value).startswith(f"{p}: line 3")

    def test_synthetic_file_parses_as_the_oracle(self, tmp_path):
        p = tmp_path / "adjacency.csv"
        save_adjacency_csv(generate_synthetic(512, 64, Rng(41)), p)
        new = _load_adjacency(p, 512)
        assert new.shape[0] > 10_000
        assert new.tobytes() == reference_load_adjacency(p, 512).tobytes()

    @pytest.mark.parametrize("line", ["0,99,nan", HUGE + ",0,nan", "3,3,inf"],
                             ids=["range", "overflow", "self-loop"])
    def test_bad_index_is_named_before_bad_weight_of_the_same_line(self, tmp_path, line):
        # as SeriesStore does; the bulk oracle named the non-finite weight first
        p = tmp_path / "adjacency.csv"
        p.write_text(f"0,1\n{line}\n")
        with pytest.raises(ParseError, match="line 2, field 3: non-finite"):
            reference_load_adjacency(p, ADJ_NODES)
        with pytest.raises(FormatError) as exc:
            _load_adjacency(p, ADJ_NODES)
        index = line.split(",")[0]
        assert str(exc.value) in (
            f"{p}: line 2: edge ({index}, {line.split(',')[1]}) out of range for 12 nodes",
            f"{p}: line 2: self-loop on node {index} is not supported")

    def test_indices_past_2_53_print_as_float64(self, tmp_path):
        # the range text is formatted from the float64 edge array
        p = tmp_path / "adjacency.csv"
        p.write_text("0,9007199254740993\n")
        with pytest.raises(FormatError) as exc:
            _load_adjacency(p, ADJ_NODES)
        assert str(exc.value) == f"{p}: line 1: edge (0, 9007199254740992) out of range for 12 nodes"

    def test_peak_memory_is_a_small_multiple_of_the_edges(self, tmp_path):
        # the edge buffer and one line's fields, not every line's at once
        p = tmp_path / "adjacency.csv"
        save_adjacency_csv(generate_synthetic(512, 64, Rng(41)), p)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            edges = _load_adjacency(p, 512)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 * edges.nbytes


class TestSynthetic:
    def test_deterministic(self):
        s1 = generate_synthetic(5, 100, Rng(3))
        s2 = generate_synthetic(5, 100, Rng(3))
        assert np.array_equal(s1.values, s2.values)
        assert np.array_equal(sorted_rows(s1.adjacency), sorted_rows(s2.adjacency))

    @pytest.mark.parametrize("n_nodes,radius", [(1, 0.2), (5, 0.0), (40, 0.2), (60, 0.5)])
    def test_edges_match_pair_loop(self, n_nodes, radius):
        # reference: the pair loop the per-row hypot replaces, same draw order
        s = generate_synthetic(n_nodes, 64, Rng(8), radius=radius)
        pos = Rng(8).child("positions").gen.random((n_nodes, 2))
        edges = []
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                if np.hypot(*(pos[i] - pos[j])) <= radius:
                    edges.append((i, j, 1.0))
                    edges.append((j, i, 1.0))
        assert s.adjacency.tolist() == [list(map(float, e)) for e in edges]

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_noise(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
            generate_synthetic(4, 80, Rng(0), noise_sigma=sigma)

    def test_shapes_and_ids(self):
        s = generate_synthetic(4, 80, Rng(0))
        assert s.values.shape == (4, 80)
        assert s.node_ids == ("n000", "n001", "n002", "n003")

    def test_noiseless_pure_sinusoid_matches_draw_order(self):
        # with modulation/trend/noise off, row i is amp*sin(2*pi*t/period)
        # where (amp, period_mod, period, slope) are drawn in that order
        # from the node child stream.
        rng = Rng(11)
        s = generate_synthetic(3, 100, rng, noise_sigma=0.0,
                               modulation=False, trend=False)
        for i in range(3):
            g = Rng(11).child("node", i).gen
            amp = g.uniform(0.5, 2.0)
            g.uniform(80.0, 160.0)  # modulation period, drawn even if unused
            period = g.uniform(12.0, 24.0)
            g.uniform(-1.0, 1.0)  # slope
            t = np.arange(100)
            want = amp * np.sin(2.0 * np.pi * t / period)
            assert np.max(np.abs(s.values[i] - want)) <= 1e-12

    def test_modulation_makes_variance_drift(self):
        s = generate_synthetic(1, 600, Rng(5), noise_sigma=0.0,
                               modulation=True, trend=False)
        row = s.values[0]
        blocks = row.reshape(6, 100)
        v = blocks.var(axis=1)
        # amplitude modulation should move block variance by well over 10%
        assert v.max() > 1.1 * v.min()

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_edges_symmetric_no_self_loops(self, seed):
        s = generate_synthetic(6, 80, Rng(seed), radius=0.5)
        pairs = {(a, b) for a, b, _ in s.adjacency}
        for a, b, _ in s.adjacency:
            assert a != b
            assert (b, a) in pairs


def reference_save_adjacency_csv(store, path):
    """The whole-array writer save_adjacency_csv replaced, kept as its oracle."""
    upper = store.adjacency[store.adjacency[:, 0] < store.adjacency[:, 1]]
    ends = upper[:, :2].astype(np.int64)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(map("{},{},{!r}\n".format,
                         ends[:, 0].tolist(), ends[:, 1].tolist(), upper[:, 2].tolist()))


def random_edge_store(n_edges, seed):
    """A 5000-node store of ``n_edges`` random undirected edges, both directions."""
    g = Rng(seed).gen
    src = g.integers(0, 4999, n_edges)
    dst = src + g.integers(1, 5000 - src)
    return SeriesStore(np.zeros((5000, 2)), range(5000),
                       _both_directions(src, dst, g.standard_normal(n_edges)))


class TestEdgeArray:
    """One edge array per graph: built read-only, kept without a copy, written in blocks."""

    def test_stores_keep_the_built_array(self):
        edges = _both_directions(np.array([0, 1]), np.array([2, 3]), np.ones(2))
        assert edges.dtype == np.float64 and not edges.flags.writeable
        assert edges.tolist() == [[0, 2, 1], [2, 0, 1], [1, 3, 1], [3, 1, 1]]
        assert SeriesStore(np.zeros((4, 2)), "abcd", edges).adjacency is edges
        assert not generate_synthetic(40, 64, Rng(8)).adjacency.flags.writeable
        graph = random_graph(30, Rng(2))
        assert not graph.edges.flags.writeable
        assert _edge_array(graph.edges, 30) is graph.edges

    @pytest.mark.parametrize("n_edges", [0, 1, _EDGE_BLOCK // 2, _EDGE_BLOCK, 3 * _EDGE_BLOCK + 5])
    def test_blocked_writer_writes_the_whole_array_bytes(self, tmp_path, n_edges):
        # blocks of edge rows, split pairs across a block edge included
        store = random_edge_store(n_edges, n_edges)
        save_adjacency_csv(store, tmp_path / "got.csv")
        reference_save_adjacency_csv(store, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\n") == n_edges

    def test_writer_memory_does_not_grow_with_edges(self, tmp_path):
        # one block's upper rows, ends and three lists of 8192 entries:
        # measured 1.2 MiB at both edge counts; the whole-array writer traced
        # 4.3 and 43 MiB
        for n_edges in (30_000, 300_000):
            store = random_edge_store(n_edges, 1)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                save_adjacency_csv(store, tmp_path / "adjacency.csv")
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 2**20, (n_edges, peak)

    def test_synthetic_graph_holds_one_edge_array(self):
        # beyond the store's own arrays, generate_synthetic holds each node's
        # later neighbours (4 bytes an edge) and about 0.5 MiB that does not
        # grow with the edges: measured 0.60 and 1.60 MiB at 1200 and 2400
        # nodes (74,288 and 299,178 edges); with src, dst and the weights
        # alive beside 8-byte neighbour lists it was 2.55 and 9.59 MiB
        generate_synthetic(50, 64, Rng(5))  # one-time allocations
        for n_nodes in (1200, 2400):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                store = generate_synthetic(n_nodes, 64, Rng(5))
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            n_edges = len(store.adjacency) // 2
            extra = peak - store.values.nbytes - store.adjacency.nbytes
            assert extra <= 5 * n_edges + 2**20, (n_nodes, n_edges, extra)

    def test_synthetic_edges_interleave_both_directions(self):
        # the pairs i < j within the radius, in row order, as one whole-array build
        pos = Rng(5).child("positions").gen.random((300, 2))
        diff = pos[:, None] - pos[None]
        near = np.hypot(diff[..., 0], diff[..., 1]) <= 0.2
        src, dst = np.nonzero(np.triu(near, k=1))
        store = generate_synthetic(300, 64, Rng(5))
        assert np.array_equal(store.adjacency, _both_directions(src, dst, np.ones(len(src))))
        assert not store.adjacency.flags.writeable


class TestAtomicWrite:
    def test_write_that_raises_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            with _atomic_write(path) as f:
                f.write("half of the new")
                f.flush()
                raise RuntimeError("interrupted")
        assert path.read_text() == "previous\n"
        assert os.listdir(tmp_path) == ["metrics.json"]

    def test_clean_exit_replaces_the_file(self, tmp_path):
        path = tmp_path / "checkpoint.psld"
        path.write_bytes(b"old")
        with _atomic_write(path, binary=True) as f:
            f.write(b"new bytes")
        assert path.read_bytes() == b"new bytes"
        assert os.listdir(tmp_path) == ["checkpoint.psld"]

    def test_save_csv_interrupted_part_way_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "series.csv"
        save_csv(generate_synthetic(4, 64, Rng(0)), path)
        before = path.read_bytes()

        class InterruptedStore:
            node_ids = ("a", "b")

            @property
            def values(self):
                yield np.array([1.0, 2.0])
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            save_csv(InterruptedStore(), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["series.csv"]
