import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from psld import model as md
from psld import training as tr
from psld.dataset import SeriesStore, generate_synthetic, split_ranges
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
        assert f"config field {key!r} must be {want}" in str(exc.value)

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


def one_shot_metrics(pred, truth):
    return {
        "mse": float(np.mean((pred - truth) ** 2)),
        "mae": float(np.mean(np.abs(pred - truth))),
    }


def assembled_forecast(params, store, cfg, split, denorm_stats=None):
    """Forecast and truth rows from _forecast_chunks; each row once, in order."""
    preds, truths, covered = [], [], 0
    for lo, pred, y in tr._forecast_chunks(params, store, cfg, split, denorm_stats):
        assert lo == covered
        preds.append(pred.copy())
        truths.append(y.copy())
        covered += len(pred)
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

    def test_constant_offset_metrics(self):
        # forecasting y + c with truth y gives mse c^2 and mae |c|
        y = Rng(0).gen.standard_normal((7, 5))
        c = 0.75
        m = tr._metrics([(0, y + c, y)], y.shape)
        assert m["mse"] == pytest.approx(c * c, rel=1e-12)
        assert m["mae"] == pytest.approx(c, rel=1e-12)

    def test_chunked_metrics_equal_one_shot_bits(self):
        # the error array has the full-split shape and layout, so the means
        # sum in the same order as over full-split temporaries
        g = Rng(3).gen
        pred, truth = g.standard_normal((50176, 36)), g.standard_normal((50176, 36))
        pred[::97] = truth[::97]
        chunks = ((lo, pred[lo:lo + 512], truth[lo:lo + 512])
                  for lo in range(0, len(pred), 512))
        assert tr._metrics(chunks, pred.shape) == one_shot_metrics(pred, truth)

    # lengths around numpy's 128-value block and around SUM_LEAF, several
    # leaves, and the 64- and 1024-node benchmark splits' shapes
    @pytest.mark.parametrize("rows,width", [
        (1, 1), (7, 1), (8, 1), (128, 1), (129, 1), (1, 129),
        (tr.SUM_LEAF - 1, 1), (tr.SUM_LEAF, 1), (tr.SUM_LEAF + 1, 1), (1, tr.SUM_LEAF + 1),
        (5 * tr.SUM_LEAF // 7 + 3, 7), (3136, 36), (50176, 36),
    ])
    def test_metrics_equal_np_mean_bits(self, rows, width):
        g = Rng(rows * width).gen
        pred, truth = g.standard_normal((2, rows, width))
        pred.flat[::3], truth.flat[::5] = -0.0, 0.0  # signed zeros on either side
        pred.flat[::11] = truth.flat[::11]
        truth.flat[::13] = -truth.flat[::13] * 1e30
        want = one_shot_metrics(pred, truth)
        for size in sorted({1, 5, 512, rows}):
            if rows // size > 2000:
                continue
            chunks = ((lo, pred[lo:lo + size], truth[lo:lo + size])
                      for lo in range(0, rows, size))
            assert tr._metrics(chunks, pred.shape) == want, size

    def test_metrics_memory_does_not_grow_with_rows(self):
        # a 1024-node split's (50176, 36) error array would be 13.8 MiB: the
        # traced peak is the two leaf buffers plus the sums' bookkeeping
        pred, truth = Rng(4).gen.standard_normal((2, 50176, 36))
        chunks = ((lo, pred[lo:lo + 512], truth[lo:lo + 512]) for lo in range(0, 50176, 512))
        peak = _traced_peak(lambda: tr._metrics(chunks, pred.shape))
        assert peak <= 2 * (tr.SUM_LEAF + 36) * 8 + 2**16, peak

    @pytest.mark.parametrize("los", [(0, 3, 4), (0, 3, 2), (0, 3, 6), (1,)],
                             ids=["gap", "overlap", "past-the-end", "gap-at-start"])
    def test_chunks_that_skip_or_repeat_rows_name_lo(self, los):
        y = np.zeros((3, 2))
        with pytest.raises(ShapeError, match=f"lo={los[-1]}"):
            tr._metrics([(lo, y, y) for lo in los], (8, 2))

    def test_chunks_that_stop_short_name_where(self):
        y = np.zeros((8, 2))
        with pytest.raises(ShapeError, match="lo=6"):
            tr._metrics([(0, y[:3], y[:3]), (3, y[3:6], y[3:6])], y.shape)


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
    def test_chunks_assemble_every_row_in_place(self, split_setup, monkeypatch, denorm):
        # a row-wise exact stand-in for the model makes the assembly
        # checkable with ==: every row is predicted, in order, in 7-row calls
        cfg, normed, split, stats, x_rows, y_rows, n_win = split_setup
        calls = []

        def fake_predict(params, x, dcfg=None, buffers=None):
            calls.append(x.shape[0])
            return x[:, :cfg.l_out] * 2.0 + 1.0

        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        monkeypatch.setattr(md, "predict", fake_predict)
        stats_arg = stats if denorm else None
        pred, truth = assembled_forecast(None, normed, cfg, split, stats_arg)
        want_pred, want_truth = x_rows[:, :cfg.l_out] * 2.0 + 1.0, y_rows
        if denorm:
            want_pred = denorm_rows(want_pred, stats, n_win, cfg.sigma_floor)
            want_truth = denorm_rows(y_rows, stats, n_win, cfg.sigma_floor)
        assert np.array_equal(pred, want_pred)
        assert np.array_equal(truth, want_truth)
        assert calls == [7] * -(-x_rows.shape[0] // 7)
        got = evaluate(None, normed, cfg, split, denorm_stats=stats_arg)
        assert got == one_shot_metrics(want_pred, want_truth)

    def test_split_smaller_than_a_chunk_is_one_call(self, split_setup, monkeypatch):
        cfg, normed, split, _, x_rows, _, _ = split_setup
        calls = []

        def fake_predict(params, x, dcfg=None, buffers=None):
            calls.append(x.shape[0])
            return x[:, :cfg.l_out]

        monkeypatch.setattr(md, "predict", fake_predict)
        assert x_rows.shape[0] < tr.EVAL_CHUNK_ROWS
        list(tr._forecast_chunks(None, normed, cfg, split))
        assert calls == [x_rows.shape[0]]

    def test_shifted_chunk_supersedes_the_rows_it_repeats(self, split_setup, monkeypatch):
        # a stand-in whose forecast depends on the chunk shows which
        # chunk's forecast of a repeated row is yielded: the last one's
        cfg, normed, split, _, x_rows, _, _ = split_setup
        calls = []

        def fake_predict(params, x, dcfg=None, buffers=None):
            calls.append(x.shape[0])
            return np.full((x.shape[0], cfg.l_out), float(len(calls)))

        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        monkeypatch.setattr(md, "predict", fake_predict)
        pred, _ = assembled_forecast(None, normed, cfg, split)
        n_rows = x_rows.shape[0]
        want = np.repeat(np.arange(1.0, len(calls) + 1), 7)[:n_rows - 7]
        want = np.concatenate([want, np.full(7, float(len(calls)))])
        assert np.array_equal(pred[:, 0], want)

    @pytest.mark.parametrize("denorm", [False, True])
    def test_metrics_equal_np_mean_of_the_forecast_bits(self, split_setup, monkeypatch,
                                                        denorm):
        # 7-row chunks shift the last one back, and 128-value leaves split
        # the sums into many: the metrics still equal np.mean over the
        # assembled forecast of the whole split, to the bit
        cfg, normed, split, stats, _, y_rows, _ = split_setup
        assert y_rows.size > 3 * 128  # four leaves
        params = _eval_params("mvd", cfg)
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        monkeypatch.setattr(tr, "SUM_LEAF", 128)
        stats_arg = stats if denorm else None
        pred, truth = assembled_forecast(params, normed, cfg, split, stats_arg)
        got = evaluate(params, normed, cfg, split, denorm_stats=stats_arg)
        assert got == one_shot_metrics(pred, truth)

    def test_baseline_equals_np_mean_bits(self, split_setup, monkeypatch):
        # the shifted last chunk is trimmed, so each row is scored once
        cfg, normed, split, _, x_rows, y_rows, _ = split_setup
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        monkeypatch.setattr(tr, "SUM_LEAF", 128)
        got = baseline_last_value(normed, cfg, split)
        assert got == one_shot_metrics(x_rows[:, -1:], y_rows)

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("mvd", "merged"),
                                           ("stl", "separate"), ("stl", "merged"),
                                           ("plain", "separate")])
    @pytest.mark.parametrize("denorm", [False, True])
    def test_matches_one_shot_predict(self, split_setup, monkeypatch, kind, mode, denorm):
        # BLAS picks kernels by matrix size, so 7-row products may round
        # differently from the full-split product in the last bits
        _, normed, split, stats, x_rows, y_rows, n_win = split_setup
        cfg = small_config(decomposer=kind if kind != "plain" else "mvd", mode=mode)
        params = _eval_params(kind, cfg)
        pred = md.predict(params, x_rows, cfg.decomposer_config())
        truth = y_rows
        stats_arg = stats if denorm else None
        if denorm:
            pred = denorm_rows(pred, stats, n_win, cfg.sigma_floor)
            truth = denorm_rows(y_rows, stats, n_win, cfg.sigma_floor)
        want = one_shot_metrics(pred, truth)
        monkeypatch.setattr(tr, "EVAL_CHUNK_ROWS", 7)
        got_pred, got_truth = assembled_forecast(params, normed, cfg, split, stats_arg)
        got = evaluate(params, normed, cfg, split, denorm_stats=stats_arg)
        np.testing.assert_allclose(got_pred, pred, rtol=1e-12, atol=1e-12)
        assert np.array_equal(got_truth, truth)
        assert got["mse"] == pytest.approx(want["mse"], rel=1e-12)
        assert got["mae"] == pytest.approx(want["mae"], rel=1e-12)

    # At hidden 16 the forward pass of one 512-row chunk traces about
    # 1.0 MiB and the baseline's chunk about 0.2 MiB, and _metrics adds its
    # two error buffers of SUM_LEAF values (0.25 MiB), whatever the split:
    # measured 1.26 and 0.46 MiB at both node counts.
    EVAL_PEAK = 1.5 * 2**20
    BASELINE_PEAK = 0.75 * 2**20

    @staticmethod
    def _split_at(n_nodes, cfg):
        store = generate_synthetic(n_nodes, 300, Rng(5))
        normed, ranges, stats = prepare_store(store, cfg)
        assert tr._n_rows(normed, cfg.l_in, cfg.l_out, ranges["test"]) > tr.EVAL_CHUNK_ROWS
        return normed, ranges["test"], stats

    def test_peak_memory_does_not_grow_with_nodes(self):
        # no array the size of the split is kept: the traced peak stays
        # within one fixed bound at 64 and at 512 nodes (a (rows, l_out)
        # error array alone is 1.7 MiB at 512 nodes)
        cfg = small_config(l_in=12, l_out=12, hidden=16)
        params = _eval_params("mvd", cfg)
        for n_nodes in (64, 512):
            normed, split, stats = self._split_at(n_nodes, cfg)
            for denorm in (None, stats):
                peak = _traced_peak(lambda: evaluate(params, normed, cfg, split, denorm))
                assert peak <= self.EVAL_PEAK, (n_nodes, peak)

    def test_baseline_peak_memory_does_not_grow_with_nodes(self):
        cfg = small_config(l_in=12, l_out=12)
        for n_nodes in (64, 512):
            normed, split, _ = self._split_at(n_nodes, cfg)
            peak = _traced_peak(lambda: baseline_last_value(normed, cfg, split))
            assert peak <= self.BASELINE_PEAK, (n_nodes, peak)


class TestSampleMinibatch:
    @pytest.mark.parametrize("k", [1, 7, 500])
    def test_rows_equal_window_gather(self, k):
        # reference: gather the windows, then put each window's nodes in rows
        store = generate_synthetic(10, 80, Rng(5))
        for b in rss_partition(store, 3, 12, 6, training=True, rng=Rng(2)):
            x_rows, y_rows = tr._sample_minibatch(b, k, Rng(7))
            n_win, _, n_sub = b.x.shape
            idx = Rng(7).gen.choice(n_win, size=min(k, n_win), replace=False)
            for got, win in ((x_rows, b.x), (y_rows, b.y)):
                want = win[idx].transpose(0, 2, 1).reshape(len(idx) * n_sub, -1)
                assert got.shape == want.shape and got.flags.c_contiguous
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_gather_copies_each_row_once(self):
        # one copy of the sampled windows, already in row order: neither the
        # gather nor the reshapes may hold a second one
        store = generate_synthetic(64, 200, Rng(5))
        batch = rss_partition(store, 1, 36, 36, training=True, rng=Rng(2))[0]
        rows = []
        peak = _traced_peak(lambda: rows.extend(tr._sample_minibatch(batch, 32, Rng(7))))
        held = sum(r.nbytes for r in rows)
        assert held == 2 * 32 * 64 * 36 * 8
        assert peak <= 1.5 * held


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

    def test_best_params_are_a_separate_vector(self, train_store):
        cfg = small_config(epochs=3)
        normed, ranges, _ = prepare_store(train_store, cfg)
        params = init_params(cfg.decomposer, cfg.l_in, cfg.l_out, cfg.hidden,
                             cfg.dropout, cfg.mode, Rng(cfg.seed).child("init"))
        best, _ = tr._fit(params, normed, ranges, cfg)
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
