import copy

import numpy as np
import pytest

from psld import model as md
from psld.decomposition import decompose, make_config
from psld.exceptions import CheckpointError, ShapeError
from psld.model import (
    AdamState,
    adam_step,
    extract_merged_grad_blocks,
    finite_difference_check,
    forward,
    head_plan,
    init_params,
    init_plain_params,
    load_checkpoint,
    loss_and_backward,
    merge_params,
    named_tensors,
    predict,
    save_checkpoint,
)
from psld.numerics import Rng


def bundle_pair(kind, seed=0, n=6, l_in=8, l_out=4):
    """Input and label component bundles for a random batch of rows."""
    g = Rng(seed).gen
    x = g.standard_normal((n, l_in))
    y = g.standard_normal((n, l_out))
    cfg = make_config(kind, kappa_t=5, kappa_s=3)
    return decompose(x, cfg), decompose(y, cfg), x, y, cfg


class TestHeadPlan:
    def test_mvd_widths(self):
        assert head_plan("mvd", 8, 4) == (("m", 1, 1), ("v", 1, 1), ("r", 8, 4))

    def test_stl_widths(self):
        plan = head_plan("stl", 8, 4)
        assert plan == (("t", 8, 4), ("s", 8, 4), ("r", 8, 4))


class TestInit:
    def test_deterministic(self):
        a = init_params("mvd", 8, 4, 16, 0.05, "separate", Rng(5))
        b = init_params("mvd", 8, 4, 16, 0.05, "separate", Rng(5))
        for (na, ta), (nb, tb) in zip(named_tensors(a), named_tensors(b)):
            assert na == nb
            assert np.array_equal(ta, tb)

    def test_shapes_and_zero_biases(self):
        p = init_params("stl", 8, 4, 16, 0.05, "separate", Rng(5))
        h = p.heads["t"]
        assert h.w1.shape == (16, 8)
        assert h.w2.shape == (16, 16)
        assert h.wp.shape == (4, 16)
        assert np.all(h.b1 == 0.0)
        assert np.all(h.bp == 0.0)
        assert p.combinator.w1.shape == (16, 4)

    def test_uniform_bounds_scale_with_fan_in(self):
        p = init_params("mvd", 100, 4, 32, 0.0, "separate", Rng(1))
        w = p.heads["r"].w1
        bound = np.sqrt(1.0 / 100)
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(w)) > 0.5 * bound  # actually fills the range

    def test_merged_widths(self):
        p = init_params("mvd", 8, 4, 16, 0.05, "merged", Rng(5))
        head = p.heads["merged"]
        assert head.w1.shape == (48, 10)  # 3*16, 1+1+8
        assert head.wp.shape == (6, 48)  # 1+1+4


class TestForward:
    def test_zero_params_give_zero_outputs(self):
        xb, yb, x, y, cfg = bundle_pair("mvd")
        p = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(0))
        for _, t in named_tensors(p):
            t[...] = 0.0
        state = forward(p, xb)
        assert np.all(state.y_hat == 0.0)

    def test_eval_deterministic(self):
        xb, *_ = bundle_pair("stl", seed=3)
        p = init_params("stl", 8, 4, 16, 0.5, "separate", Rng(1))
        a = forward(p, xb).y_hat
        b = forward(p, xb).y_hat
        assert np.array_equal(a, b)

    def test_dropout_zero_training_equals_eval(self):
        xb, *_ = bundle_pair("mvd")
        p = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(1))
        ev = forward(p, xb).y_hat
        tr = forward(p, xb, training=True, rng=Rng(2)).y_hat
        assert np.max(np.abs(ev - tr)) <= 1e-15

    def test_inverted_dropout_expectation(self):
        # keep-prob scaling: E[mask * a] == a
        rate = 0.5
        g = Rng(0)
        draws = 10_000
        a = 3.0
        total = 0.0
        for i in range(draws):
            mask = (g.child(i).gen.random(1) >= rate) / (1.0 - rate)
            total += float(mask[0]) * a
        mean = total / draws
        se = a * np.sqrt(rate / (1.0 - rate)) / np.sqrt(draws)
        assert abs(mean - a) <= 3.0 * se

    def test_predict_matches_forward(self):
        xb, yb, x, y, cfg = bundle_pair("mvd")
        p = init_params("mvd", 8, 4, 16, 0.05, "separate", Rng(1))
        assert np.array_equal(predict(p, x, cfg), forward(p, xb).y_hat)

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("mvd", "merged"),
                                           ("stl", "separate"), ("stl", "merged"),
                                           ("plain", "separate")])
    def test_buffers_are_reused_without_changing_forecasts(self, kind, mode):
        cfg = make_config("mvd" if kind == "plain" else kind, kappa_t=5, kappa_s=3)
        if kind == "plain":
            p = init_plain_params(8, 4, 16, 0.05, Rng(1))
        else:
            p = init_params(kind, 8, 4, 16, 0.05, mode, Rng(1))
        x1, x2 = Rng(2).gen.standard_normal((2, 6, 8))
        buffers = {}
        first = predict(p, x1, cfg, buffers).copy()
        held = {key: id(arr) for key, arr in buffers.items()}
        second = predict(p, x2, cfg, buffers)
        assert np.array_equal(first, predict(p, x1, cfg))
        assert np.array_equal(second, predict(p, x2, cfg))
        assert held and held == {key: id(arr) for key, arr in buffers.items()}

    @pytest.mark.parametrize("rows", [1, 5, 600])
    def test_one_column_first_layer_matches_matmul_bits(self, rows):
        # the broadcast multiply stands in for (rows, 1) @ (1, width); it
        # must give the matmul's bits, signed zeros included
        g = Rng(rows).gen
        z = g.standard_normal((rows, 1))
        z[::3] = 0.0
        z[1::4] = -0.0
        w1 = g.standard_normal((16, 1))
        w1[::5] = -0.0
        w1[1::6] = 0.0
        want = (z @ w1.T).view(np.uint64)
        assert np.array_equal(md._first_layer(z, w1, None).view(np.uint64), want)
        out = np.full((rows, 16), np.nan)
        assert md._first_layer(z, w1, out) is out
        assert np.array_equal(out.view(np.uint64), want)
        # a bare multiply keeps the -0.0 products the matmul turns into +0.0
        assert not np.array_equal((z * w1.T).view(np.uint64), want)

    def test_width_mismatch_names_head(self):
        xb, *_ = bundle_pair("mvd", l_in=8)
        p = init_params("mvd", 12, 4, 16, 0.0, "separate", Rng(1))
        with pytest.raises(ShapeError) as exc:
            forward(p, xb)
        assert "r" in str(exc.value)


class TestLoss:
    def test_perfect_prediction_zero_loss_zero_grads(self):
        xb, yb, x, y, cfg = bundle_pair("mvd")
        p = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(3))
        state = forward(p, xb, training=True, rng=Rng(0))
        # relabel with the model's own outputs
        from psld.decomposition import ComponentBundle

        yb_self = ComponentBundle(kind="mvd",
                                  parts={k: v.copy()
                                         for k, v in state.comp_hat.items()})
        loss, grads = loss_and_backward(p, state, yb_self, state.y_hat, 1.0)
        assert loss.total == 0.0
        assert loss.cbn == 0.0
        assert loss.cpn == 0.0
        for g in grads.values():
            assert np.all(g == 0.0)

    def test_lambda_zero_total_is_combined_only(self):
        xb, yb, x, y, cfg = bundle_pair("stl")
        p = init_params("stl", 8, 4, 16, 0.0, "separate", Rng(3))
        state = forward(p, xb, training=True, rng=Rng(0))
        loss, _ = loss_and_backward(p, state, yb, y, 0.0)
        assert loss.total == loss.cbn
        assert loss.cpn > 0.0  # still reported

    def test_total_is_cbn_plus_lambda_cpn(self):
        xb, yb, x, y, cfg = bundle_pair("mvd")
        p = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(3))
        state = forward(p, xb, training=True, rng=Rng(0))
        for lam in (0.25, 1.0, 2.0):
            loss, _ = loss_and_backward(p, state, yb, y, lam)
            assert loss.total == pytest.approx(loss.cbn + lam * loss.cpn,
                                               abs=1e-15)

    def test_component_loss_is_sum_of_mse(self):
        xb, yb, x, y, cfg = bundle_pair("stl")
        p = init_params("stl", 8, 4, 16, 0.0, "separate", Rng(3))
        state = forward(p, xb, training=True, rng=Rng(0))
        loss, _ = loss_and_backward(p, state, yb, y, 1.0)
        want = sum(np.mean((state.comp_hat[k] - yb.parts[k]) ** 2)
                   for k in ("t", "s", "r"))
        assert loss.cpn == pytest.approx(want, rel=1e-12)
        assert set(loss.per_component) == {"t", "s", "r"}

    def test_gradient_descent_decreases_loss(self):
        xb, yb, x, y, cfg = bundle_pair("mvd", seed=4)
        p = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(3))
        losses = []
        for _ in range(50):
            state = forward(p, xb, training=True, rng=Rng(0))
            loss, grads = loss_and_backward(p, state, yb, y, 1.0)
            losses.append(loss.total)
            for name, t in named_tensors(p):
                t -= 0.05 * grads[name]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestMergedEquivalence:
    @pytest.mark.parametrize("kind", ["mvd", "stl"])
    def test_forward_and_grads_match(self, kind):
        xb, yb, x, y, cfg = bundle_pair(kind, seed=9)
        sep = init_params(kind, 8, 4, 16, 0.0, "separate", Rng(7))
        mer = merge_params(sep)
        s_state = forward(sep, xb)
        m_state = forward(mer, xb)
        assert np.max(np.abs(s_state.y_hat - m_state.y_hat)) <= 1e-12
        for k in s_state.comp_hat:
            assert np.max(np.abs(s_state.comp_hat[k]
                                 - m_state.comp_hat[k])) <= 1e-12

        s_loss, s_grads = loss_and_backward(sep, s_state, yb, y, 1.0)
        m_loss, m_grads = loss_and_backward(mer, m_state, yb, y, 1.0)
        assert abs(s_loss.total - m_loss.total) <= 1e-12
        blocks = extract_merged_grad_blocks(m_grads, sep)
        for name, g in s_grads.items():
            assert np.max(np.abs(g - blocks[name])) <= 1e-10


class TestAdam:
    def test_first_step_frozen_value(self):
        # with g = 1 everywhere, the bias-corrected first step is
        # -lr * 1 / (1 + eps)
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        before = {n: t.copy() for n, t in named_tensors(p)}
        grads = {n: np.ones_like(t) for n, t in named_tensors(p)}
        st = AdamState.for_params(p)
        adam_step(p, grads, st, lr=0.01)
        want_delta = -0.01 / (1.0 + 1e-8)
        for n, t in named_tensors(p):
            assert np.max(np.abs((t - before[n]) - want_delta)) <= 1e-15

    def test_zero_grad_leaves_params_but_advances_t(self):
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        before = {n: t.copy() for n, t in named_tensors(p)}
        grads = {n: np.zeros_like(t) for n, t in named_tensors(p)}
        st = AdamState.for_params(p)
        adam_step(p, grads, st, lr=0.01)
        assert st.t == 1
        for n, t in named_tensors(p):
            assert np.array_equal(t, before[n])

    def test_steps_are_deterministic(self):
        p1 = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        p2 = copy.deepcopy(p1)
        grads = {n: np.full_like(t, 0.5) for n, t in named_tensors(p1)}
        s1 = AdamState.for_params(p1)
        s2 = AdamState.for_params(p2)
        for _ in range(3):
            adam_step(p1, grads, s1, lr=0.01)
            adam_step(p2, grads, s2, lr=0.01)
        assert s1.t == s2.t == 3
        for (na, ta), (nb, tb) in zip(named_tensors(p1), named_tensors(p2)):
            assert np.array_equal(ta, tb)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        p = init_params("stl", 8, 4, 16, 0.05, "separate", Rng(3))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {"note": "test"})
        loaded, sidecar = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(named_tensors(p), named_tensors(loaded)):
            assert na == nb
            assert np.array_equal(ta, tb)
        assert sidecar["kind"] == "stl"
        assert sidecar["config"] == {"note": "test"}

    def test_bad_magic(self, tmp_path):
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {})
        raw = bytearray(path.read_bytes())
        raw[:5] = b"WRONG"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "bad magic" in str(exc.value)

    def test_truncated_payload(self, tmp_path):
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {})
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("stray", [1, 2, 3])
    def test_stray_trailing_bytes(self, tmp_path, stray):
        # fewer than the four bytes of a tensor's name length after the last tensor
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {})
        path.write_bytes(path.read_bytes() + b"\x01" * stray)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "name length" in str(exc.value)

    def test_missing_sidecar(self, tmp_path):
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {})
        (tmp_path / "model.psld.json").unlink()
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestFiniteDifference:
    @pytest.mark.parametrize("kind", ["mvd", "stl"])
    @pytest.mark.parametrize("mode", ["separate", "merged"])
    def test_analytic_matches_numeric(self, kind, mode):
        out = finite_difference_check(kind, mode, seed=0)
        assert out["max_rel_err"] <= 1e-4
        assert set(out["per_group"])  # at least one parameter group reported

    def test_reports_are_deterministic(self):
        a = finite_difference_check("mvd", "separate", seed=5)
        b = finite_difference_check("mvd", "separate", seed=5)
        assert a == b


class TestPlainHead:
    def test_init_and_step(self):
        p = init_plain_params(8, 4, 16, 0.0, Rng(2))
        x = Rng(3).gen.standard_normal((5, 8))
        y = Rng(4).gen.standard_normal((5, 4))
        losses = []
        st = AdamState.for_params(p)
        for _ in range(30):
            loss, grads = md.train_step(p, x, y, None, 1.0, Rng(5))
            losses.append(loss.total)
            adam_step(p, grads, st, lr=0.01)
        assert losses[-1] < losses[0]
