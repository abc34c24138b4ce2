import copy
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from psld import model as md
from psld import sampler
from psld import training as tr
from psld.dataset import (
    NormStats,
    SeriesStore,
    _norm_columns,
    _windows,
    apply_norm,
    fit_norm_stats,
    generate_synthetic,
    split_ranges,
)
from psld.exceptions import ShapeError
from psld.model import init_params, init_plain_params, named_tensors
from psld.numerics import Rng
from psld.sampler import rss_partition
from psld.training import (
    EpochReport,
    TrainConfig,
    baseline_last_value,
    baseline_plain_mlp,
    evaluate,
    prepare_store,
    train,
)


def small_config(**overrides):
    base = dict(l_in=12, l_out=6, hidden=16, epochs=3, n_subgraphs=2,
                lr=1e-2, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def train_store():
    return generate_synthetic(6, 150, Rng(21))


class TestTrainConfig:
    def test_defaults_round_trip_through_dict(self):
        cfg = TrainConfig()
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_dict_uses_lambda_key(self):
        d = TrainConfig(lam=0.5).to_dict()
        assert d["lambda"] == 0.5
        assert "lam" not in d

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(l_in=0)
        with pytest.raises(ValueError):
            TrainConfig(decomposer="fft")
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ValueError):
            TrainConfig(mode="wide")
        with pytest.raises(ValueError):
            TrainConfig(split=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="hidden must be >= 1, got 0"):
            TrainConfig(hidden=0)

    @pytest.mark.parametrize("field,value,want", [
        ("seed", -1, "seed must be >= 0, got -1"),
        ("split", (float("nan"), 1.0, 1.0), "split needs three finite positive ratios"),
        ("split", (1.0, 1.0, float("inf")), "split needs three finite positive ratios"),
        ("lr", -1.0, "lr must be finite and > 0, got -1.0"),
        ("lr", 0.0, "lr must be finite and > 0, got 0.0"),
        ("lr", float("inf"), "lr must be finite and > 0, got inf"),
        ("lam", -1e-9, "lam must be finite and >= 0"),
        ("lam", float("nan"), "lam must be finite and >= 0, got nan"),
        ("sigma_floor", float("nan"), "sigma_floor must be finite and > 0, got nan"),
        ("sigma_floor", 0.0, "sigma_floor must be finite and > 0, got 0.0"),
        ("l_out", 0, "l_out must be >= 1, got 0"),
        ("decomposer", "fft", "decomposer must be 'mvd' or 'stl', got 'fft'"),
        ("mode", "wide", "mode must be 'separate' or 'merged', got 'wide'"),
        # a type is checked before its bound, so any config the constructor
        # accepts is one to_dict writes as JSON and from_dict reads back
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", np.int64(3), f"seed must be an integer, got {np.int64(3)!r}"),
        ("epochs", 2.0, "epochs must be an integer, got 2.0"),
        ("l_in", 12.0, "l_in must be an integer, got 12.0"),
        ("hidden", True, "hidden must be an integer, got True"),
        ("lr", np.float32(1e-3), "lr must be a number"),
        ("mode", None, "mode must be a string, got None"),
        ("split", (0.6, 0.2, True), "split must be a list of numbers"),
    ])
    def test_bad_number_names_its_field(self, field, value, want):
        with pytest.raises(ValueError) as exc:
            TrainConfig(**{field: value})
        assert want in str(exc.value)

    @pytest.mark.parametrize("decomposer", ["mvd", "stl"])
    @pytest.mark.parametrize("field,value,want", [
        ("epsilon", float("nan"), "epsilon must be finite and > 0, got nan"),
        ("epsilon", float("inf"), "epsilon must be finite and > 0, got inf"),
        ("kappa_t", 4, "kappa_t must be odd and >= 1"),
        ("kappa_s", 0, "kappa_s must be odd and >= 1"),
    ])
    def test_both_decomposers_fields_are_checked(self, decomposer, field, value, want):
        with pytest.raises(ValueError, match=want):
            TrainConfig(decomposer=decomposer, **{field: value})

    @pytest.mark.parametrize("key,value,want", [
        ("l_in", "abc", "an integer, got 'abc'"),
        ("epochs", None, "an integer, got None"),
        ("epochs", 2.0, "an integer, got 2.0"),
        ("hidden", True, "an integer, got True"),
        ("lr", "fast", "a number, got 'fast'"),
        ("dropout", False, "a number, got False"),
        ("decomposer", 3, "a string, got 3"),
        ("split", "abc", "a list of numbers, got 'abc'"),
        ("split", [0.7, "x", 0.1], "a list of numbers"),
        ("lambda", [1.0], "a number, got [1.0]"),
    ])
    def test_from_dict_rejects_mistyped_field(self, key, value, want):
        with pytest.raises(ValueError) as exc:
            TrainConfig.from_dict({**TrainConfig().to_dict(), key: value})
        assert f"{'lam' if key == 'lambda' else key} must be {want}" in str(exc.value)

    def test_from_dict_rejects_unknown_field(self):
        data = {**TrainConfig().to_dict(), "splitt": [0.5, 0.1, 0.4], "lam": 0.5}
        with pytest.raises(ValueError, match="^unknown config field 'splitt'$"):
            TrainConfig.from_dict(data)

    def test_from_dict_takes_integral_floats(self):
        cfg = TrainConfig.from_dict({"lr": 1, "dropout": 0, "split": [7, 1, 2]})
        assert (cfg.lr, cfg.dropout, cfg.split) == (1, 0, (7.0, 1.0, 2.0))

    def test_pinned_defaults(self):
        cfg = TrainConfig()
        assert cfg.hidden == 128
        assert cfg.dropout == 0.05
        assert cfg.lr == 1e-4
        assert cfg.epochs == 10
        assert cfg.n_subgraphs == 24
        assert cfg.lam == 1.0


def stacked_windows(store, l_in, l_out, split):
    """Every window of the split as (n_win * n_nodes, length) rows, window-major.

    The one-shot construction the chunked evaluation replaced, kept as
    its oracle.
    """
    t0, t1 = split
    n_win = (t1 - t0) - l_in - l_out + 1
    v = store.values
    xs = [v[:, t0 + k:t0 + k + l_in] for k in range(n_win)]
    ys = [v[:, t0 + k + l_in:t0 + k + l_in + l_out] for k in range(n_win)]
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0), n_win


def denorm_rows(rows, stats, n_win, sigma_floor):
    mu = np.tile(stats.mu, n_win)[:, None]
    sigma = np.tile(np.maximum(stats.sigma, sigma_floor), n_win)[:, None]
    return rows * sigma + mu


def scored_store(denorm, raw, normed, stats):
    """(store, evaluate's keywords): the normalized store, or the raw one in raw units."""
    return (raw, dict(denormalize=True, norm_stats=stats)) if denorm else (normed, {})


def one_shot_metrics(pred, truth):
    return {
        "mse": float(np.mean((pred - truth) ** 2)),
        "mae": float(np.mean(np.abs(pred - truth))),
    }


def chunk_order_metrics(pred, truth, bounds):
    """The metrics in _metrics' documented order: np.add.reduce of |pred - truth|
    and of its square over each chunk's values, rows bounds[i]:bounds[i + 1],
    the chunk sums added in chunk order, each total divided by pred.size."""
    err = sq = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        e = np.abs(pred[lo:hi] - truth[lo:hi]).ravel()
        err = err + float(np.add.reduce(e))
        sq = sq + float(np.add.reduce(e * e))
    return {"mse": sq / pred.size, "mae": err / pred.size}


def chunk_bounds(n_rows, most):
    """Row bounds of the chunks _forecast_chunks yields: the k = ceil(n_rows / most)
    balanced blocks, block i rows [n_rows * i // k, n_rows * (i + 1) // k)."""
    k = -(-n_rows // most)
    return [n_rows * i // k for i in range(k + 1)]


def assert_chunk_order_metrics(got, pred, truth, bounds):
    """got has the bits of the chunk-order oracle, and agrees with np.mean within 1e-12."""
    assert got == chunk_order_metrics(pred, truth, bounds)
    want = one_shot_metrics(pred, truth)
    assert got["mse"] == pytest.approx(want["mse"], rel=1e-12)
    assert got["mae"] == pytest.approx(want["mae"], rel=1e-12)


def split_rows(store, l_in, l_out, split):
    """Rows of the split: one per (window, node)."""
    return math.prod(_windows(store.values[:, split[0]:split[1]], l_in, l_out)[0].shape[:2])


def assembled_forecast(params, store, cfg, split, denormalize=False, norm_stats=None):
    """Forecast and truth rows of the chunks evaluate scores; each row once, in order."""
    preds, truths = [], []

    def sink(w, node, pred, y):
        done = sum(map(len, preds))
        assert np.array_equal(w * store.n_nodes + node, np.arange(done, done + len(pred)))
        preds.append(pred.copy())
        truths.append(y.copy())

    evaluate(params, store, cfg, split, denormalize, sink=sink, norm_stats=norm_stats)
    return np.concatenate(preds), np.concatenate(truths)


class TestEvaluate:
    def test_metrics_match_double_loop_oracle(self, train_store):
        cfg = small_config(epochs=1)
        params, _ = train(train_store, cfg)
        normed, ranges, _ = prepare_store(train_store, cfg)
        got = evaluate(params, normed, cfg, ranges["test"])

        x_rows, y_rows, _ = stacked_windows(normed, cfg.l_in, cfg.l_out, ranges["test"])
        pred = md.predict(params, x_rows, cfg.decomposer_config())
        se = ae = 0.0
        for i in range(pred.shape[0]):
            for j in range(pred.shape[1]):
                d = pred[i, j] - y_rows[i, j]
                se += d * d
                ae += abs(d)
        assert got["mse"] == pytest.approx(se / pred.size, rel=1e-12)
        assert got["mae"] == pytest.approx(ae / pred.size, rel=1e-12)

    @pytest.mark.parametrize("floor", [1e-300, 1e-8, 1e300])
    def test_gathered_rows_are_the_normalized_store_rows_bit_for_bit(self, floor):
        # rows gathered from raw windows and normalized as gathered equal
        # the same rows of apply_norm's store, zero signs, tiny and huge
        # values and the sigma floor included; rows are window-major over
        # win x node, repeated nodes and windows included
        tiny = 5e-324
        values = np.array([
            [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 2.5],
            [tiny, -tiny, 3 * tiny, 2.2250738585072014e-308, -tiny, 0.0, 7.0],
            [1e300, -1e300, 1e300, -1e300, 0.0, 5e299, -3.0],
            [1.0, 2.0, -0.0, 0.0, tiny, -3.5, 0.25],
        ])
        store = SeriesStore(values, ("a", "b", "c", "d"))
        stats = NormStats(np.array([0.0, -0.0, -1e300, tiny]),
                          np.array([1.0, tiny, 1e300, 1e-9]))
        normed = apply_norm(store, stats, floor)
        node, win = np.array([3, 0, 1, 2, 2]), np.array([0, 3, 2, 1, 3, 2, 0])
        d, w = np.tile(node, len(win)), np.repeat(win, len(node))
        raw = _windows(store.values, 3, 1)
        norm = _norm_columns(stats, 4, floor)
        got = tr._rows(raw, win, node, (norm, norm))(0, len(d))
        plain = tr._rows(raw, win, node, (None, None))(0, len(d))
        # normalized x with raw y, as raw-unit scoring gathers them
        mixed = tr._rows(raw, win, node, (norm, None))(0, len(d))
        for at, want in enumerate(_windows(normed.values, 3, 1)):
            assert got[at].flags.c_contiguous and got[at].flags.writeable
            assert np.array_equal(got[at].view(np.uint64), want[d, w].view(np.uint64)), floor
            assert np.array_equal(plain[at].view(np.uint64), raw[at][d, w].view(np.uint64))
        assert np.array_equal(mixed[0].view(np.uint64), got[0].view(np.uint64))
        assert np.array_equal(mixed[1].view(np.uint64), plain[1].view(np.uint64))
        for rows in (got, plain, mixed):
            assert np.array_equal(rows[2], w) and np.array_equal(rows[3], d)

    @pytest.mark.parametrize("val_len", [1, 17])
    @pytest.mark.parametrize("fit", [train, baseline_plain_mlp], ids=["train", "plain"])
    def test_short_val_split_raises_the_window_error_before_training(self, train_store,
                                                                       monkeypatch, fit, val_len):
        # l_in + l_out = 18: a val split of 1 or 17 columns has no window;
        # the error is windowing's own, named for the split and raised
        # before the first epoch
        cfg = small_config(split=(75, val_len, 75 - val_len))
        assert split_ranges(train_store.l_data, cfg.split)["val"] == (75, 75 + val_len)
        monkeypatch.setattr(tr, "rss_partition", None)
        with pytest.raises(ValueError) as exc:
            fit(train_store, cfg)
        assert str(exc.value) == (f"val split: series of length {val_len} too short for "
                                  "windows; needs at least 18")

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("stl", "merged")])
    def test_raw_store_scores_as_the_normalized_one(self, kind, mode):
        # the raw store, normalized chunk by chunk as it is gathered, over
        # several balanced chunks of at most 512 rows, gives the metrics
        # and the dumped rows of apply_norm's whole store, to the bit; in
        # raw units, its rows are those forecasts mapped back by each row's
        # node and the series' own truth, summed in chunk order
        store = generate_synthetic(64, 400, Rng(4))
        cfg = small_config(decomposer=kind, mode=mode, kappa_t=5, kappa_s=3)
        params = init_params(kind, cfg.l_in, cfg.l_out, cfg.hidden, cfg.dropout, mode,
                             Rng(9).child("init"))
        normed, ranges, stats = prepare_store(store, cfg)
        mu, scale = _norm_columns(stats, store.n_nodes, cfg.sigma_floor)
        for name in ("val", "test"):
            split = ranges[name]
            assert split_rows(store, cfg.l_in, cfg.l_out, split) > 2 * tr.EVAL_CHUNK_ROWS
            assert (baseline_last_value(store, cfg, split, stats)
                    == baseline_last_value(normed, cfg, split)), name
            rows = {}

            def sink(key):
                return lambda w, d, p, y: rows.setdefault(key, []).append(
                    np.hstack([w[:, None], d[:, None], p, y]))

            got = evaluate(params, store, cfg, split, sink=sink("got"), norm_stats=stats)
            want = evaluate(params, normed, cfg, split, sink=sink("want"))
            raw = evaluate(params, store, cfg, split, True, sink=sink("raw"), norm_stats=stats)
            assert got == want, name
            got_rows, want_rows = np.concatenate(rows["got"]), np.concatenate(rows["want"])
            assert np.array_equal(got_rows.view(np.uint64), want_rows.view(np.uint64)), name
            w, d = want_rows[:, 0].astype(int), want_rows[:, 1].astype(int)
            pred = want_rows[:, 2:2 + cfg.l_out] * scale[d] + mu[d]
            truth = _windows(store.values[:, split[0]:split[1]], cfg.l_in, cfg.l_out)[1][d, w]
            want_raw = np.hstack([want_rows[:, :2], pred, truth])
            assert np.array_equal(np.concatenate(rows["raw"]).view(np.uint64),
                                  want_raw.view(np.uint64)), name
            assert_chunk_order_metrics(raw, pred, truth, chunk_bounds(len(pred),
                                                                      tr.EVAL_CHUNK_ROWS))

    def test_denormalize_needs_the_stats_of_a_raw_store(self, train_store):
        # a store the caller normalized holds no raw truth to score against
        cfg = small_config()
        normed, ranges, _ = prepare_store(train_store, cfg)
        with pytest.raises(ValueError, match="denormalize needs the norm_stats"):
            evaluate(_eval_params("mvd", cfg), normed, cfg, ranges["test"], True)

    @pytest.mark.parametrize("fit_nodes,store_nodes", [(9, 6), (6, 9)])
    def test_stats_for_other_nodes_raise_shape_error(self, fit_nodes, store_nodes):
        # stats of more nodes than the store has would score silently, and
        # of fewer would fail as a bare IndexError: each stats parameter of
        # each scorer names both counts
        cfg = small_config()
        store = generate_synthetic(store_nodes, 150, Rng(3))
        stats = fit_norm_stats(generate_synthetic(fit_nodes, 150, Rng(3)), 90)
        params = _eval_params("mvd", cfg)
        split = split_ranges(store.l_data, cfg.split)["test"]
        scorers = [
            lambda: evaluate(params, store, cfg, split, norm_stats=stats),
            lambda: evaluate(params, store, cfg, split, True, norm_stats=stats),
            lambda: baseline_last_value(store, cfg, split, norm_stats=stats),
            lambda: apply_norm(store, stats),
        ]
        for score in scorers:
            with pytest.raises(ShapeError) as exc:
                score()
            assert str(exc.value) == f"stats cover {fit_nodes} nodes, store has {store_nodes}"

    def test_constant_offset_metrics(self):
        # forecasting y + c with truth y gives mse c^2 and mae |c|
        y = Rng(0).gen.standard_normal((7, 5))
        c = 0.75
        m = tr._metrics([(y + c, y)], y.shape)
        assert m["mse"] == pytest.approx(c * c, rel=1e-12)
        assert m["mae"] == pytest.approx(c, rel=1e-12)

    def test_chunked_metrics_sum_in_chunk_order(self):
        # the 1024-node benchmark split's shape in 512-row chunks: each
        # chunk is summed on its own, and the chunk sums in order
        g = Rng(3).gen
        pred, truth = g.standard_normal((50176, 36)), g.standard_normal((50176, 36))
        pred[::97] = truth[::97]
        chunks = ((pred[lo:lo + 512], truth[lo:lo + 512]) for lo in range(0, len(pred), 512))
        assert_chunk_order_metrics(tr._metrics(chunks, pred.shape), pred, truth,
                                   [*range(0, len(pred), 512), len(pred)])

    # lengths around numpy's 128-value block, long one-row and one-column
    # chunks, and the 64- and 1024-node benchmark splits' shapes
    @pytest.mark.parametrize("rows,width", [
        (1, 1), (7, 1), (8, 1), (128, 1), (129, 1), (1, 129),
        (16383, 1), (16384, 1), (16385, 1), (1, 16385), (11705, 7), (3136, 36), (50176, 36),
    ])
    def test_metrics_sum_in_chunk_order(self, rows, width):
        g = Rng(rows * width).gen
        pred, truth = g.standard_normal((2, rows, width))
        pred.flat[::3], truth.flat[::5] = -0.0, 0.0  # signed zeros on either side
        pred.flat[::11] = truth.flat[::11]
        truth.flat[::13] = -truth.flat[::13] * 1e30
        for size in sorted({1, 5, 512, rows}):
            if rows // size > 2000:
                continue
            chunks = ((pred[lo:lo + size], truth[lo:lo + size]) for lo in range(0, rows, size))
            assert_chunk_order_metrics(tr._metrics(chunks, pred.shape), pred, truth,
                                       [*range(0, rows, size), rows])

    def test_metrics_memory_does_not_grow_with_rows(self):
        # a 1024-node split's (50176, 36) error array would be 13.8 MiB: the
        # traced peak is within two of one chunk's error arrays plus the
        # sums' bookkeeping
        pred, truth = Rng(4).gen.standard_normal((2, 50176, 36))
        chunks = ((pred[lo:lo + 512], truth[lo:lo + 512]) for lo in range(0, 50176, 512))
        peak = _traced_peak(lambda: tr._metrics(chunks, pred.shape))
        assert peak <= 2 * 512 * 36 * 8 + 2**16, peak


def _eval_params(kind, cfg):
    if kind == "plain":
        return init_plain_params(cfg.l_in, cfg.l_out, cfg.hidden, cfg.dropout, Rng(9))
    return init_params(kind, cfg.l_in, cfg.l_out, cfg.hidden, cfg.dropout,
                       cfg.mode, Rng(9))


def _traced_peak(fn):
    """Traced bytes allocated at the peak of fn(), above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestChunkedEvaluate:
    """evaluate runs the forward pass in EVAL_CHUNK_ROWS-row chunks."""

    @pytest.fixture(scope="class")
    def split_setup(self, train_store):
        cfg = small_config()
        normed, ranges, stats = prepare_store(train_store, cfg)
        x_rows, y_rows, n_win = stacked_windows(normed, cfg.l_in, cfg.l_out,
                                                ranges["test"])
        assert x_rows.shape[0] % 7 != 0 and x_rows.shape[0] > 7
        return cfg, normed, ranges["test"], stats, x_rows, y_rows, n_win

    @pytest.mark.parametrize("denorm", [False, True])
    def test_chunks_assemble_every_row_in_place(self, split_setup, train_store, monkeypatch,
                                                denorm):
        # a row-wise exact stand-in for the model makes the assembly
        # checkable with ==: every row is predicted once, in order, in calls
        # of the balanced chunks of at most 7 rows; in raw units the truth is
        # the series' own
        cfg, normed, split, stats, x_rows, y_rows, n_win = split_setup
        calls = []

        def fake_predict(params, x, dcfg=None, buffers=None):
            calls.append(x.shape[0])
            return x[:, :cfg.l_out] * 2.0 + 1.0

        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        monkeypatch.setattr(md, "predict", fake_predict)
        store, scoring = scored_store(denorm, train_store, normed, stats)
        pred, truth = assembled_forecast(None, store, cfg, split, **scoring)
        want_pred, want_truth = x_rows[:, :cfg.l_out] * 2.0 + 1.0, y_rows
        if denorm:
            want_pred = denorm_rows(want_pred, stats, n_win, cfg.sigma_floor)
            want_truth = stacked_windows(train_store, cfg.l_in, cfg.l_out, split)[1]
        assert np.array_equal(pred, want_pred)
        assert np.array_equal(truth.view(np.uint64), want_truth.view(np.uint64))
        assert calls == np.diff(chunk_bounds(x_rows.shape[0], 7)).tolist()
        got = evaluate(None, store, cfg, split, **scoring)
        assert_chunk_order_metrics(got, want_pred, want_truth, chunk_bounds(len(want_pred), 7))

    def test_split_smaller_than_a_chunk_is_one_call(self, split_setup, monkeypatch):
        cfg, normed, split, _, x_rows, _, _ = split_setup
        calls = []

        def fake_predict(params, x, dcfg=None, buffers=None):
            calls.append(x.shape[0])
            return x[:, :cfg.l_out]

        monkeypatch.setattr(md, "predict", fake_predict)
        assert x_rows.shape[0] < tr.EVAL_CHUNK_ROWS
        evaluate(None, normed, cfg, split)
        assert calls == [x_rows.shape[0]]

    # (nodes, windows) of splits whose rows do not divide evenly into their
    # chunks: 513 rows, one more than a chunk, in 2 chunks of 256 and 257,
    # and 4,416 rows in 9 chunks of 490 and 491
    UNEVEN = [(27, 19), (64, 69)]

    @staticmethod
    def _uneven_split(n_nodes, n_win, cfg):
        store = generate_synthetic(n_nodes, 100, Rng(n_win))
        normed, _, stats = prepare_store(store, cfg)
        split = (5, 5 + cfg.l_in + cfg.l_out + n_win - 1)
        n_rows = split_rows(store, cfg.l_in, cfg.l_out, split)
        assert n_rows == n_nodes * n_win and n_rows % -(-n_rows // tr.EVAL_CHUNK_ROWS)
        return store, normed, split, stats

    @pytest.mark.parametrize("n_nodes,n_win", UNEVEN)
    def test_each_split_row_is_forecast_once(self, monkeypatch, n_nodes, n_win):
        # a counting stand-in for the model: the forecast calls are the
        # balanced chunks, whose sizes sum to the split's rows
        cfg = small_config()
        store, _, split, stats = self._uneven_split(n_nodes, n_win, cfg)
        calls = []

        def fake_predict(params, x, dcfg=None, buffers=None):
            calls.append(x.shape[0])
            return x[:, :cfg.l_out]

        monkeypatch.setattr(md, "predict", fake_predict)
        for denorm in (False, True):
            calls.clear()
            evaluate(None, store, cfg, split, denorm, norm_stats=stats)
            assert sum(calls) == n_nodes * n_win
            assert calls == np.diff(chunk_bounds(n_nodes * n_win, tr.EVAL_CHUNK_ROWS)).tolist()

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("stl", "merged")])
    @pytest.mark.parametrize("n_nodes,n_win", UNEVEN)
    def test_uneven_chunks_score_as_the_chunk_order_oracle(self, kind, mode, n_nodes, n_win):
        # the oracle forecasts each balanced chunk's rows with md.predict and
        # sums the chunks in order: the metrics and the yielded forecast are
        # its bits, in normalized and in raw units
        cfg = small_config(decomposer=kind, mode=mode, kappa_t=5, kappa_s=3)
        params = _eval_params(kind, cfg)
        store, normed, split, stats = self._uneven_split(n_nodes, n_win, cfg)
        x_rows, y_rows, _ = stacked_windows(normed, cfg.l_in, cfg.l_out, split)
        bounds = chunk_bounds(len(x_rows), tr.EVAL_CHUNK_ROWS)
        pred = np.concatenate([md.predict(params, x_rows[lo:hi], cfg.decomposer_config())
                               for lo, hi in zip(bounds, bounds[1:])])
        for denorm in (False, True):
            scored, scoring = scored_store(denorm, store, normed, stats)
            want_pred, want_truth = pred, y_rows
            if denorm:
                want_pred = denorm_rows(pred, stats, n_win, cfg.sigma_floor)
                want_truth = stacked_windows(store, cfg.l_in, cfg.l_out, split)[1]
            got_pred, _ = assembled_forecast(params, scored, cfg, split, **scoring)
            got = evaluate(params, scored, cfg, split, **scoring)
            assert np.array_equal(got_pred.view(np.uint64), want_pred.view(np.uint64))
            assert got == chunk_order_metrics(want_pred, want_truth, bounds), denorm

    @pytest.mark.parametrize("denorm", [False, True])
    def test_metrics_sum_the_forecast_in_chunk_order(self, split_setup, train_store,
                                                     monkeypatch, denorm):
        # the metrics sum the assembled forecast of the whole split chunk
        # by chunk, in the balanced chunks of at most 7 rows
        cfg, normed, split, stats, _, y_rows, _ = split_setup
        params = _eval_params("mvd", cfg)
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        store, scoring = scored_store(denorm, train_store, normed, stats)
        pred, truth = assembled_forecast(params, store, cfg, split, **scoring)
        got = evaluate(params, store, cfg, split, **scoring)
        assert_chunk_order_metrics(got, pred, truth, chunk_bounds(len(pred), 7))

    def test_baseline_sums_in_chunk_order(self, split_setup, monkeypatch):
        # the baseline's forecast is scored in the same balanced chunks
        cfg, normed, split, _, x_rows, y_rows, _ = split_setup
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        got = baseline_last_value(normed, cfg, split)
        pred = np.broadcast_to(x_rows[:, -1:], y_rows.shape)
        assert_chunk_order_metrics(got, pred, y_rows, chunk_bounds(len(y_rows), 7))

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("mvd", "merged"),
                                           ("stl", "separate"), ("stl", "merged"),
                                           ("plain", "separate")])
    @pytest.mark.parametrize("denorm", [False, True])
    def test_matches_one_shot_predict(self, split_setup, train_store, monkeypatch, kind, mode,
                                      denorm):
        # BLAS picks kernels by matrix size, so 7-row products may round
        # differently from the full-split product in the last bits
        _, normed, split, stats, x_rows, y_rows, n_win = split_setup
        cfg = small_config(decomposer=kind if kind != "plain" else "mvd", mode=mode)
        params = _eval_params(kind, cfg)
        pred = md.predict(params, x_rows, cfg.decomposer_config())
        truth = y_rows
        store, scoring = scored_store(denorm, train_store, normed, stats)
        if denorm:
            pred = denorm_rows(pred, stats, n_win, cfg.sigma_floor)
            truth = stacked_windows(train_store, cfg.l_in, cfg.l_out, split)[1]
        want = one_shot_metrics(pred, truth)
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        got_pred, got_truth = assembled_forecast(params, store, cfg, split, **scoring)
        got = evaluate(params, store, cfg, split, **scoring)
        np.testing.assert_allclose(got_pred, pred, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got_truth, truth)
        assert got["mse"] == pytest.approx(want["mse"], rel=1e-12)
        assert got["mae"] == pytest.approx(want["mae"], rel=1e-12)

    # At hidden 16 the forward pass of one 512-row chunk traces about
    # 1.0 MiB and the baseline's chunk about 0.2 MiB, and _metrics adds its
    # chunks' error arrays (48 KiB each at l_out 12), whatever the split:
    # measured 1.05-1.06 and 0.27 MiB at both node counts.
    EVAL_PEAK = 1.5 * 2**20
    BASELINE_PEAK = 0.75 * 2**20

    @staticmethod
    def _split_at(n_nodes, cfg):
        store = generate_synthetic(n_nodes, 300, Rng(5))
        normed, ranges, stats = prepare_store(store, cfg)
        assert split_rows(normed, cfg.l_in, cfg.l_out, ranges["test"]) > tr.EVAL_CHUNK_ROWS
        return store, normed, ranges["test"], stats

    def test_peak_memory_does_not_grow_with_nodes(self):
        # no array the size of the split is kept: the traced peak stays
        # within one fixed bound at 64 and at 512 nodes (a (rows, l_out)
        # error array alone is 1.7 MiB at 512 nodes)
        cfg = small_config(l_in=12, l_out=12, hidden=16)
        params = _eval_params("mvd", cfg)
        for n_nodes in (64, 512):
            raw, normed, split, stats = self._split_at(n_nodes, cfg)
            for denorm in (False, True):
                store, scoring = scored_store(denorm, raw, normed, stats)
                peak = _traced_peak(lambda: evaluate(params, store, cfg, split, **scoring))
                assert peak <= self.EVAL_PEAK, (n_nodes, denorm, peak)

    def test_baseline_peak_memory_does_not_grow_with_nodes(self):
        cfg = small_config(l_in=12, l_out=12)
        for n_nodes in (64, 512):
            _, normed, split, _ = self._split_at(n_nodes, cfg)
            peak = _traced_peak(lambda: baseline_last_value(normed, cfg, split))
            assert peak <= self.BASELINE_PEAK, (n_nodes, peak)


class TestRows:
    """``_rows`` gathers the window-major rows of training steps and scoring chunks."""

    @pytest.mark.parametrize("k", [1, 7, 500])
    def test_rows_equal_window_gather(self, k):
        # reference: the drawn windows of each partition batch's window
        # views, each window's nodes in rows; any block of rows is that
        # block of the whole, and normalized rows are the normalized store's,
        # x and y each by its own member of the norms pair
        store = generate_synthetic(10, 80, Rng(5))
        stats = fit_norm_stats(store, 80)
        norm = _norm_columns(stats, store.n_nodes, 1e-8)
        windows = _windows(store.values, 12, 6)
        normed = _windows(apply_norm(store, stats).values, 12, 6)
        for b in rss_partition(store, 3, 12, 6, training=True, rng=Rng(2)):
            n_win, _, n_sub = b.x.shape
            idx = Rng(7).gen.choice(n_win, size=min(k, n_win), replace=False)
            n_rows, rows = len(idx) * n_sub, tr._rows(windows, idx, b.node_index, (None, None))
            x_rows, y_rows, w, node = rows(0, n_rows)
            assert np.array_equal(w, np.repeat(idx, n_sub))
            assert np.array_equal(node, np.tile(b.node_index, len(idx)))
            for got, win in ((x_rows, b.x), (y_rows, b.y)):
                want = win[idx].transpose(0, 2, 1).reshape(n_rows, -1)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            lo, hi = n_rows // 3, n_rows - n_rows // 4
            assert all(np.array_equal(part, whole[lo:hi])
                       for part, whole in zip(rows(lo, hi), (x_rows, y_rows, w, node)))
            want_rows = tr._rows(normed, idx, b.node_index, (None, None))(0, n_rows)
            for norms, want in (((norm, norm), want_rows[:2]),
                                ((norm, None), (want_rows[0], y_rows)),
                                ((None, norm), (x_rows, want_rows[1]))):
                got = tr._rows(windows, idx, b.node_index, norms)(0, n_rows)
                assert np.array_equal(got[2], w) and np.array_equal(got[3], node)
                for g, want_r in zip(got[:2], want):
                    assert np.array_equal(g.view(np.uint64), want_r.view(np.uint64))

    def test_gather_copies_each_row_once(self):
        # one copy of the rows asked for, already in row order: neither the
        # gather nor the normalization may hold a second one
        store = generate_synthetic(64, 200, Rng(5))
        batch = rss_partition(store, 1, 36, 36, training=True, rng=Rng(2))[0]
        windows = _windows(store.values, 36, 36)
        norm = _norm_columns(fit_norm_stats(store, 200), store.n_nodes, 1e-8)
        win = Rng(7).gen.choice(windows[0].shape[1], size=32, replace=False)
        gather, n_rows = tr._rows(windows, win, batch.node_index, (norm, norm)), 32 * 64
        rows = []
        peak = _traced_peak(lambda: rows.extend(gather(0, n_rows)[:2]))
        held = sum(r.nbytes for r in rows)
        assert held == 2 * 32 * 64 * 36 * 8
        assert peak <= 1.5 * held


class TestTrainingReadsNodeIndicesOnly:
    """Training gathers its minibatches from the train store by node index."""

    def test_train_builds_no_partition_arrays(self, monkeypatch):
        # no batch's series copy or adjacency block, nor the store's edge
        # grouping, is ever built
        store = generate_synthetic(12, 150, Rng(8))
        assert len(store.adjacency)
        cfg = small_config(epochs=2, n_subgraphs=3)
        want_params, want_reports = train(store, cfg)

        def unread(*args):
            raise AssertionError("training read a partition array")

        monkeypatch.setattr(SeriesStore, "_adjacency_block", unread)
        monkeypatch.setattr(sampler.SubgraphBatch, "_views", property(unread))
        monkeypatch.setattr(SeriesStore, "_edges_by_source", property(unread))
        params, reports = train(store, cfg)
        assert reports == want_reports
        assert np.array_equal(params.flat.view(np.uint64), want_params.flat.view(np.uint64))

    def test_no_train_sized_copy_is_live_at_any_step(self, monkeypatch):
        # at every step no traced array of the train split's size is live:
        # training reads the raw store, made before tracing starts, and holds
        # no normalized or shuffled copy of its train columns
        store = generate_synthetic(64, 600, Rng(3))
        cfg = small_config(epochs=2, n_subgraphs=4)
        t0, t1 = split_ranges(store.l_data, cfg.split)["train"]
        size = store.n_nodes * (t1 - t0) * 8
        real_step, live = md.train_step, []

        def step(*args):
            live.append(sum(t.size >= size for t in tracemalloc.take_snapshot().traces))
            return real_step(*args)

        monkeypatch.setattr(md, "train_step", step)
        tracemalloc.start()
        try:
            train(store, cfg)
        finally:
            tracemalloc.stop()
        assert live == [0] * (cfg.epochs * cfg.n_subgraphs)

    def test_partition_batches_hold_the_train_columns_alone(self, monkeypatch):
        # each epoch partitions a store of the raw train columns, a view of
        # the caller's store: its batches expose the train split's windows only
        store = generate_synthetic(12, 150, Rng(8))
        cfg = small_config(epochs=2, n_subgraphs=3)
        t0, t1 = split_ranges(store.l_data, cfg.split)["train"]
        real, partitioned = tr.rss_partition, []

        def partition(part_store, *args, **kwargs):
            partitioned.append((part_store, real(part_store, *args, **kwargs)))
            return partitioned[-1][1]

        monkeypatch.setattr(tr, "rss_partition", partition)
        train(store, cfg)
        assert len(partitioned) == cfg.epochs
        xv, yv = _windows(store.values[:, t0:t1], cfg.l_in, cfg.l_out)
        for part_store, batches in partitioned:
            assert part_store.l_data == t1 - t0 and part_store.adjacency is store.adjacency
            assert np.shares_memory(part_store.values, store.values)
            assert not part_store.values.flags.writeable
            for b in batches:
                assert b.x.shape[0] == xv.shape[1] == t1 - t0 - cfg.l_in - cfg.l_out + 1
                assert np.array_equal(b.x, xv[b.node_index].transpose(1, 2, 0))
                assert np.array_equal(b.y, yv[b.node_index].transpose(1, 2, 0))


class TestBlocks:
    """``_blocks`` cuts rows into the balanced blocks of steps and scoring chunks."""

    @staticmethod
    def _check(n_rows, most):
        blocks = tr._blocks(n_rows, most)
        assert len(blocks) == -(-n_rows // most)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert 1 <= min(sizes) and max(sizes) <= most and max(sizes) - min(sizes) <= 1

    def test_small_cases_exhaustive(self):
        for most in range(1, 40):
            for n_rows in range(1, 300):
                self._check(n_rows, most)

    # splits and steps of the 64- and 1024-node benchmark problems and of
    # the scripts' runs, and either side of a chunk's and a step's rows
    @pytest.mark.parametrize("n_rows,most", [
        (3136, 512), (50176, 512), (6592, 512), (4416, 512), (513, 512), (511, 512),
        (512, 512), (2048, 1024), (3008, 1024), (1025, 1024), (907 * 24, 1024),
    ])
    def test_benchmark_shapes(self, n_rows, most):
        self._check(n_rows, most)


class TestBlockedStep:
    """A step of more than STEP_ROWS rows runs as balanced row blocks."""

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("mvd", "merged"),
                                           ("stl", "separate"), ("stl", "merged"),
                                           ("plain", "separate")])
    def test_blocks_give_the_one_pass_gradient(self, kind, mode, monkeypatch):
        # without dropout every loss term is a row mean, so the blocks'
        # share-weighted sums are the whole step's losses and gradient
        cfg = small_config(decomposer="mvd" if kind == "plain" else kind, mode=mode,
                           dropout=0.0)
        params = _eval_params(kind, cfg)
        dcfg = cfg.decomposer_config()
        g = Rng(4).gen
        x, y = g.standard_normal((50, cfg.l_in)), g.standard_normal((50, cfg.l_out))
        part, grads = md.train_step(params, x, y, dcfg, 0.5, Rng(2))
        want = (part.total, part.cbn, part.cpn), grads.flat.copy()
        monkeypatch.setattr(tr, "STEP_ROWS", 16)  # blocks of 12, 13, 12 and 13 rows
        real_step, sizes = md.train_step, []

        def step(params, x_rows, *args):
            sizes.append(len(x_rows))
            return real_step(params, x_rows, *args)

        monkeypatch.setattr(md, "train_step", step)
        grad_sum = np.empty_like(params.flat)
        losses, got = tr._blocked_step(params, 50, lambda lo, hi: (x[lo:hi], y[lo:hi], None),
                                       dcfg, 0.5, Rng(2), {}, grad_sum)
        assert sizes == [12, 13, 12, 13]
        assert got is params.grads
        np.testing.assert_allclose(losses, want[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.flat, want[1], rtol=1e-12,
                                   atol=1e-12 * np.abs(want[1]).max())

    def test_one_block_step_has_the_one_pass_bits(self):
        # a step of at most STEP_ROWS rows is one block of share 1.0: its
        # losses and gradient are one train_step's, to the bit
        cfg = small_config(decomposer="stl", mode="merged")
        params = _eval_params("stl", cfg)
        dcfg = cfg.decomposer_config()
        g = Rng(4).gen
        x, y = g.standard_normal((50, cfg.l_in)), g.standard_normal((50, cfg.l_out))
        part, grads = md.train_step(params, x, y, dcfg, 0.5, Rng(2))
        want = np.array([part.total, part.cbn, part.cpn]), grads.flat.copy()
        untouched = np.full_like(params.flat, np.nan)
        grad_sum = untouched.copy()
        losses, got = tr._blocked_step(params, 50, lambda lo, hi: (x[lo:hi], y[lo:hi], None),
                                       dcfg, 0.5, Rng(2), {}, grad_sum)
        assert np.array_equal(np.array(losses).view(np.uint64), want[0].view(np.uint64))
        assert np.array_equal(got.flat.view(np.uint64), want[1].view(np.uint64))
        assert np.array_equal(grad_sum, untouched, equal_nan=True)

    def test_fit_passes_balanced_blocks_in_order(self, train_store, monkeypatch):
        # 6 nodes in 2 subgraphs, minibatch 32: 96-row steps in 5 blocks of 19 or 20 rows,
        # of the windows one choice draw per step picks
        monkeypatch.setattr(tr, "STEP_ROWS", 20)
        cfg = small_config(epochs=2)
        real_rows, real_step = tr._rows, md.train_step
        gathers = []  # (n_win, win, rows, blocks) per _rows call; validation's get no blocks

        def rows(windows, win, node, norms):
            out = real_rows(windows, win, node, norms)
            gathers.append((windows[0].shape[1], win, out(0, len(win) * len(node)), []))
            return out

        def step(params, x_rows, y_rows, dcfg, lam, rng, buffers):
            gathers[-1][3].append((x_rows, y_rows, rng))
            return real_step(params, x_rows, y_rows, dcfg, lam, rng, buffers)

        monkeypatch.setattr(tr, "_rows", rows)
        monkeypatch.setattr(md, "train_step", step)
        want_params, want_reports = train(train_store, cfg)
        steps = [g for g in gathers if g[3]]
        assert len(steps) == cfg.epochs * cfg.n_subgraphs
        for i, (n_win, win, whole, parts) in enumerate(steps):
            erng = Rng(cfg.seed).child("epoch", i // cfg.n_subgraphs)
            want = erng.child("minibatch", i % cfg.n_subgraphs).gen.choice(
                n_win, size=cfg.minibatch, replace=False)
            assert np.array_equal(win, want), i
            sizes = [len(b[0]) for b in parts]
            assert len(whole[0]) == 96 and len(parts) == 5, sizes
            assert max(sizes) <= tr.STEP_ROWS and max(sizes) - min(sizes) <= 1
            assert len({id(b[2]) for b in parts}) == 1  # one dropout stream per step
            for at in (0, 1):
                assert np.array_equal(np.concatenate([b[at] for b in parts]), whole[at])
        params, reports = train(train_store, cfg)
        assert reports == want_reports
        assert np.array_equal(params.flat.view(np.uint64), want_params.flat.view(np.uint64))

    def test_no_gather_copies_more_than_one_block(self, train_store, monkeypatch):
        # a step's rows are gathered block by block, and validation's chunk
        # by chunk: no gather of the run copies more than one block's rows
        monkeypatch.setattr(tr, "STEP_ROWS", 20)
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 20)
        real, sizes = tr._rows, []

        def rows(*args):
            gather = real(*args)

            def counted(lo, hi):
                out = gather(lo, hi)
                sizes.append(len(out[0]))
                return out

            return counted

        monkeypatch.setattr(tr, "_rows", rows)
        train(train_store, small_config(epochs=2))
        # 2 epochs of 2 steps of 96 rows in 5 blocks, then validation
        assert len(sizes) > 2 * 2 * 5 and max(sizes) <= 20

    # At hidden 64 and 128-row blocks one (rows, hidden) array is 64 KiB:
    # measured 0.65 MiB at both node counts, about 10 such arrays of buffers
    # and transients. Unblocked, the 768-row steps alone trace 3.5 MiB.
    STEP_PEAK = 2**20

    def test_peak_memory_does_not_grow_with_nodes(self, monkeypatch):
        # the traced peak of every train_step call of an epoch, above what was
        # live before it, stays within one bound at 768- and 3840-row steps
        monkeypatch.setattr(tr, "STEP_ROWS", 128)
        cfg = small_config(epochs=1, hidden=64)
        real_step, peaks = md.train_step, []

        def step(*args):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = real_step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)
            return out

        monkeypatch.setattr(md, "train_step", step)
        for n_nodes, n_calls in ((48, 2 * 6), (240, 2 * 30)):
            store = generate_synthetic(n_nodes, 150, Rng(5))
            peaks.clear()
            _traced_peak(lambda: train(store, cfg))
            assert len(peaks) == n_calls
            assert max(peaks) <= self.STEP_PEAK, (n_nodes, max(peaks))


class TestTrain:
    def test_loss_improves_on_learnable_signal(self, train_store):
        cfg = small_config(epochs=5)
        _, reports = train(train_store, cfg)
        assert reports[-1].train_total < reports[0].train_total

    def test_no_updates_leave_params_at_init(self, train_store, monkeypatch):
        from psld.model import init_params

        cfg = small_config(epochs=1)
        monkeypatch.setattr(md, "adam_step", lambda params, grads, state, lr: (params, state))
        params, _ = train(train_store, cfg)
        fresh = init_params(cfg.decomposer, cfg.l_in, cfg.l_out, cfg.hidden,
                            cfg.dropout, cfg.mode, Rng(cfg.seed).child("init"))
        for (na, ta), (nb, tb) in zip(named_tensors(params),
                                      named_tensors(fresh)):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_same_seed_reproduces_everything(self, train_store):
        cfg = small_config(epochs=2)
        p1, r1 = train(train_store, cfg)
        p2, r2 = train(train_store, cfg)
        assert r1 == r2  # wall time excluded from comparison
        for (na, ta), (nb, tb) in zip(named_tensors(p1), named_tensors(p2)):
            assert np.array_equal(ta, tb)

    def test_returns_best_validation_params(self, train_store):
        cfg = small_config(epochs=4)
        params, reports = train(train_store, cfg)
        best = min(r.val_mse for r in reports)
        normed, ranges, _ = prepare_store(train_store, cfg)
        got = evaluate(params, normed, cfg, ranges["val"])
        assert got["mse"] == pytest.approx(best, rel=1e-12)

    def test_validation_scores_each_epochs_parameters(self, train_store, monkeypatch):
        # predict folds the parameters once per buffers dict, so each epoch's
        # validation must fold afresh: its scores equal those of a fresh copy
        # of that epoch's parameters, and every epoch's parameters differ
        real, seen = tr.evaluate, []

        def evaluate(params, *args, **kwargs):
            got = real(params, *args, **kwargs)
            seen.append((copy.deepcopy(params), args, kwargs, got))
            return got

        monkeypatch.setattr(tr, "evaluate", evaluate)
        _, reports = train(train_store, small_config(epochs=3))
        assert len(seen) == 3
        for report, (params, args, kwargs, got) in zip(reports, seen):
            assert real(copy.deepcopy(params), *args, **kwargs) == got
            assert (report.val_mse, report.val_mae) == (got["mse"], got["mae"])
        assert len({params.flat.tobytes() for params, *_ in seen}) == 3

    def test_evaluate_after_an_update_scores_the_new_values(self, train_store):
        cfg = small_config()
        store, ranges, _ = prepare_store(train_store, cfg)
        params = init_params(cfg.decomposer, cfg.l_in, cfg.l_out, cfg.hidden, cfg.dropout,
                             cfg.mode, Rng(1))
        first = evaluate(params, store, cfg, ranges["val"])
        grads = md.Tensors(Rng(2).gen.standard_normal(params.flat.size), params.slots)
        md.adam_step(params, grads, md.AdamState.for_params(params), cfg.lr)
        second = evaluate(params, store, cfg, ranges["val"])
        assert second != first
        assert second == evaluate(copy.deepcopy(params), store, cfg, ranges["val"])

    def test_best_params_are_a_separate_vector(self, train_store, monkeypatch):
        # train() returns a model bound to its own vector, not to the one it trained
        trained = []
        real_init = md.init_params

        def init(*args):
            trained.append(real_init(*args))
            return trained[-1]

        monkeypatch.setattr(md, "init_params", init)
        best, _ = train(train_store, small_config(epochs=3))
        params, = trained
        assert not np.shares_memory(best.flat, params.flat)
        kept = best.flat.copy()
        params.flat[:] = 0.0
        assert np.array_equal(best.flat, kept)
        for name, t in named_tensors(best):
            assert np.shares_memory(t, best.flat), name

    def test_report_epochs_sequential(self, train_store):
        cfg = small_config(epochs=3)
        _, reports = train(train_store, cfg)
        assert [r.epoch for r in reports] == [0, 1, 2]

    def test_stl_and_merged_modes_run(self, train_store):
        for kind in ("mvd", "stl"):
            for mode in ("separate", "merged"):
                cfg = small_config(epochs=1, decomposer=kind, mode=mode)
                params, reports = train(train_store, cfg)
                assert len(reports) == 1
                assert np.isfinite(reports[0].val_mse)

    def test_no_step_state_alive_during_validation(self, train_store, monkeypatch):
        # the forward caches of a training step are freed before the
        # epoch's validation pass, not held over by the loop
        states, alive = [], []
        real_forward, real_evaluate = md.forward, tr.evaluate

        def recording_forward(params, x_bundle, training=False, rng=None, buffers=None):
            state = real_forward(params, x_bundle, training, rng, buffers)
            if training:
                states.append(weakref.ref(state))
            return state

        def checking_evaluate(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in states))
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(md, "forward", recording_forward)
        monkeypatch.setattr(tr, "evaluate", checking_evaluate)
        train(train_store, small_config(epochs=2))
        assert len(states) == 2 * 2  # two subgraphs per epoch
        assert alive == [0, 0]

    # lengths whose train splits differ by 1.03 MiB at 64 nodes
    @pytest.mark.parametrize("kind", ["mvd", "plain"])
    def test_epoch_memory_does_not_grow_with_the_series_length(self, kind):
        # the traced peak of the splits' check and stats fit plus one epoch
        # of _fit, above what was live before them, is the same at both
        # lengths: the stats are fitted in node blocks, and the epoch gathers
        # step blocks and validation chunks from the raw store, never a
        # normalized split
        cfg = small_config(epochs=1, n_subgraphs=4)
        peaks, split_bytes = [], []
        for l_data in (500, 4000):
            store = generate_synthetic(64, l_data, Rng(3))
            params = _eval_params(kind, cfg)

            def fit():
                ranges, stats = tr._split_stats(store, cfg, ("train", "val"))
                tr._fit(params, store, cfg, ranges, stats)

            peaks.append(_traced_peak(fit))
            split_bytes.append(store.n_nodes * split_ranges(l_data, cfg.split)["train"][1] * 8)
        assert split_bytes[1] - split_bytes[0] >= 2**20
        assert abs(peaks[1] - peaks[0]) <= 2**15, peaks

    def test_n_subgraphs_capped_by_nodes(self, train_store):
        cfg = small_config(n_subgraphs=7)  # store has 6 nodes
        with pytest.raises(ValueError):
            train(train_store, cfg)


class TestEpochReport:
    def test_wall_time_excluded_from_equality(self):
        a = EpochReport(1, 1.0, 0.5, 0.5, 2.0, 1.0, wall_time_s=0.1)
        b = EpochReport(1, 1.0, 0.5, 0.5, 2.0, 1.0, wall_time_s=99.0)
        assert a == b

    def test_to_dict_omits_wall_time(self):
        d = EpochReport(1, 1.0, 0.5, 0.5, 2.0, 1.0, wall_time_s=0.1).to_dict()
        assert "wall_time_s" not in d
        assert d["epoch"] == 1


class TestBaselines:
    def test_last_value_on_constant_series_is_perfect(self):
        store = SeriesStore(values=np.full((2, 40), 3.0),
                            node_ids=("a", "b"), adjacency=())
        cfg = small_config(l_in=4, l_out=3)
        m = baseline_last_value(store, cfg, (0, 40))
        assert m["mse"] == 0.0
        assert m["mae"] == 0.0

    def test_last_value_on_ramp_frozen_value(self):
        # y_t = t: repeating x[-1] over a 3-step horizon misses by 1, 2, 3,
        # so mse = (1 + 4 + 9) / 3 and mae = 2
        store = SeriesStore(values=np.arange(40, dtype=float)[None, :],
                            node_ids=("a",), adjacency=())
        cfg = small_config(l_in=4, l_out=3)
        m = baseline_last_value(store, cfg, (0, 40))
        assert m["mse"] == pytest.approx(14.0 / 3.0, rel=1e-12)
        assert m["mae"] == pytest.approx(2.0, rel=1e-12)

    def test_plain_mlp_trains(self, train_store):
        cfg = small_config(epochs=2)
        metrics = baseline_plain_mlp(train_store, cfg)
        assert np.isfinite(metrics["mse"])
        assert np.isfinite(metrics["mae"])


def test_split_lengths_consistent_with_ranges(train_store):
    cfg = small_config()
    _, ranges, _ = prepare_store(train_store, cfg)
    want = split_ranges(train_store.l_data, cfg.split)
    assert ranges == want
