import copy
import json
import struct
import tracemalloc

import numpy as np
import pytest

from psld import model as md
from psld.decomposition import ComponentBundle, decompose, linear_map, make_config
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


def reference_head_backward(head, cache, g_out, grads):
    """The per-tensor backward pass: fresh gradient arrays stored by name, d_h1 returned."""
    name = head.name
    grads[f"{name}.p.w"] = g_out.T @ cache.h2
    grads[f"{name}.p.b"] = g_out.sum(axis=0)
    d_h2 = g_out @ head.wp
    grads[f"{name}.l2.w"] = d_h2.T @ cache.ad
    grads[f"{name}.l2.b"] = d_h2.sum(axis=0)
    d_ad = d_h2 @ head.w2
    d_a = d_ad * cache.mask if cache.mask is not None else d_ad
    d_h1 = d_a * (cache.h1 > 0.0)
    grads[f"{name}.l1.w"] = d_h1.T @ cache.z
    grads[f"{name}.l1.b"] = d_h1.sum(axis=0)
    return d_h1


def reference_head_forward(head, z, dropout, rng, buffers=None):
    """The forward pass with fresh arrays and an out-of-place float-mask dropout.

    Its cache keeps what the backward pass used to read: the pre-activation
    as ``h1`` and the float mask keep / (1 - p) as ``mask``, so
    ``reference_head_backward`` gates with the pre-activation's sign and
    not with the kept activation. ``buffers`` is ignored.
    """
    h1 = z @ head.w1.T + head.b1
    a = np.maximum(h1, 0.0)
    mask = None
    if rng is not None and dropout > 0.0:
        mask = (rng.gen.random(a.shape) >= dropout) / (1.0 - dropout)
        a = a * mask
    h2 = a @ head.w2.T + head.b2
    out = h2 @ head.wp.T + head.bp
    return out, md.HeadCache(z, h1, mask, a, h2, out)


def folded_reference(p, x, cfg):
    """The inference forecast with each head folded: relu(z W1ᵀ + b1) @ (Wp W2)ᵀ + (Wp b2 + bp).

    An stl component head's first layer also takes in the matrices of its
    parts, W1 @ [M_p | ...]ᵀ, and reads the raw windows x as z; mvd heads
    read the decomposed parts.
    """
    def head_out(head, z, w1=None):
        w1 = head.w1 if w1 is None else w1
        fold, bias = head.wp @ head.w2, head.wp @ head.b2 + head.bp
        return np.maximum(z @ w1.T + head.b1, 0.0) @ fold.T + bias

    if isinstance(p, md.PlainParams):
        return head_out(p.head, x)
    parts, hat = decompose(x, cfg).parts, {}
    maps = linear_map(cfg, p.l_in)
    out_lens = {nm: olen for nm, _, olen in head_plan(p.kind, p.l_in, p.l_out)}
    for name, names, *_ in md.head_layout(p.kind, p.mode, p.l_in, p.l_out, p.hidden):
        head = p.heads[name]
        if maps is None:
            out = head_out(head, np.concatenate([parts[nm] for nm in names], axis=1))
        else:
            joined = np.concatenate([maps[nm] for nm in names], axis=1)
            out = head_out(head, x, head.w1 @ joined.T)
        ends = np.cumsum([out_lens[nm] for nm in names])[:-1]
        hat.update(zip(names, np.split(out, ends, axis=1)))
    if p.kind == "mvd":
        return head_out(p.combinator, hat["v"] * hat["r"]) + hat["m"]
    return head_out(p.combinator, hat["s"] + hat["r"]) + hat["t"]


def reference_adam_step(params, grads, m, v, t, lr):
    """The per-tensor ADAM update over dicts of moments, step number t."""
    b1c = 1.0 - md.ADAM_BETA1 ** t
    b2c = 1.0 - md.ADAM_BETA2 ** t
    for name, tensor in named_tensors(params):
        g = grads[name]
        m[name] *= md.ADAM_BETA1
        m[name] += (1.0 - md.ADAM_BETA1) * g
        v[name] *= md.ADAM_BETA2
        v[name] += (1.0 - md.ADAM_BETA2) * (g * g)
        tensor -= lr * (m[name] / b1c) / (np.sqrt(v[name] / b2c) + md.ADAM_EPS)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


MODEL_VARIANTS = [("mvd", "separate"), ("mvd", "merged"), ("stl", "separate"),
                  ("stl", "merged"), ("plain", None)]


def variant_model(kind, mode, hidden=16):
    if kind == "plain":
        return init_plain_params(8, 4, hidden, 0.1, Rng(1)), None
    return (init_params(kind, 8, 4, hidden, 0.1, mode, Rng(1)),
            make_config(kind, kappa_t=5, kappa_s=3))


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
        # predict folds each head's second layer into its predictor, and stl's
        # decomposition into its component heads' first layers, so it agrees
        # with the unfolded forward pass within rounding, not to the bit. The
        # second shape is the default config's: its 2304 forecasts include
        # ones near zero, cancelled from terms 1e4 times larger, so they are
        # compared within atol times the largest forecast as well
        for l_in, l_out, hidden, kappa_t, kappa_s, atol in ((8, 4, 16, 5, 3, 0.0),
                                                           (36, 36, 128, 25, 7, 1e-12)):
            x = Rng(0).gen.standard_normal((64, l_in))
            for kind in ("mvd", "stl"):
                cfg = make_config(kind, kappa_t=kappa_t, kappa_s=kappa_s)
                for mode in md.MODES:
                    p = init_params(kind, l_in, l_out, hidden, 0.05, mode, Rng(1))
                    want = forward(p, decompose(x, cfg)).y_hat
                    np.testing.assert_allclose(predict(p, x, cfg), want, rtol=1e-12,
                                               atol=atol * np.max(np.abs(want)),
                                               err_msg=f"{kind}/{mode}/l_in {l_in}")

    @pytest.mark.parametrize("mode", md.MODES)
    def test_stl_predict_decomposes_only_the_identity(self, monkeypatch, mode):
        # the moving averages run on the (l_in, l_in) identity, once for
        # each kernel per buffers dict, and never on the forecast rows
        p = init_params("stl", 8, 4, 16, 0.05, mode, Rng(1))
        cfg = make_config("stl", kappa_t=5, kappa_s=3)
        x1, x2 = Rng(2).gen.standard_normal((2, 6, 8))
        calls = []

        def recording(series, kernel, real=md.dc.moving_average):
            calls.append((np.shape(series), kernel))
            return real(series, kernel)

        monkeypatch.setattr(md.dc, "moving_average", recording)
        monkeypatch.setattr(md.dc, "decompose", None)
        buffers = {}
        first = predict(p, x1, cfg, buffers).copy()
        predict(p, x2, cfg, buffers)
        assert calls == [((8, 8), 5), ((8, 8), 3)]
        assert np.array_equal(first, predict(p, x1, cfg))
        assert calls == [((8, 8), 5), ((8, 8), 3)] * 2

    def test_raw_windows_need_predicts_folds(self):
        _, _, x, _, cfg = bundle_pair("stl")
        p = init_params("stl", 8, 4, 16, 0.05, "merged", Rng(1))
        for buffers in (None, {}):
            with pytest.raises(ValueError, match="raw input windows"):
                forward(p, x, buffers=buffers)
        buffers = {}
        want = predict(p, x, cfg, buffers).copy()
        assert np.array_equal(forward(p, x, buffers=buffers).y_hat, want)

    @pytest.mark.parametrize("kind,mode", [("mvd", "separate"), ("mvd", "merged"),
                                           ("stl", "separate"), ("stl", "merged"),
                                           ("plain", "separate")])
    def test_predict_is_the_folded_reference(self, kind, mode):
        cfg = make_config("mvd" if kind == "plain" else kind, kappa_t=5, kappa_s=3)
        if kind == "plain":
            p = init_plain_params(8, 4, 16, 0.05, Rng(1))
        else:
            p = init_params(kind, 8, 4, 16, 0.05, mode, Rng(1))
        p.flat[...] = Rng(3).gen.standard_normal(p.flat.size)
        x = Rng(2).gen.standard_normal((7, 8))
        want = folded_reference(p, x, cfg)
        assert np.array_equal(bits(predict(p, x, cfg)), bits(want))
        assert np.array_equal(bits(predict(p, x, cfg, {})), bits(want))

    def test_inference_pass_makes_no_h2(self):
        xb, yb, x, y, cfg = bundle_pair("stl")
        p = init_params("stl", 8, 4, 16, 0.05, "merged", Rng(1))
        buffers = {}
        predict(p, x, cfg, buffers)
        assert not any(key.endswith(".h2") for key in buffers)
        # decomposed windows run the heads' own first layers, raw ones the folded ones
        for x_in in (xb, x):
            state = forward(p, x_in, buffers=buffers)
            caches = (*state.head_caches.values(), state.cbn_cache)
            assert all(cache.h2 is None and cache.mask is None for cache in caches)
        # forward without predict's buffers keeps a state backprop can read
        loss_and_backward(p, forward(p, xb), yb, y, 1.0)

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

    @pytest.mark.parametrize("kind", ["mvd", "stl"])
    def test_shape_mismatch_names_the_term(self, kind):
        xb, yb, x, y, cfg = bundle_pair(kind)
        p = init_params(kind, 8, 4, 16, 0.0, "separate", Rng(3))
        state = forward(p, xb, training=True, rng=Rng(0))
        for nm in yb.parts:
            parts = {**yb.parts, nm: yb.parts[nm][:-1]}
            with pytest.raises(ShapeError, match=f"^component head '{nm}': prediction "):
                loss_and_backward(p, state, ComponentBundle(kind, parts), y, 1.0)
        with pytest.raises(ShapeError, match="^combinator head 'cbn': prediction "):
            loss_and_backward(p, state, yb, y[:, :-1], 1.0)
        plain = init_plain_params(8, 4, 16, 0.0, Rng(2))
        with pytest.raises(ShapeError, match="^head 'main': prediction "):
            md.train_step(plain, x, y[:-1], None, 1.0, Rng(5))

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
        p.grads.flat[:] = 1.0
        st = AdamState.for_params(p)
        adam_step(p, p.grads, st, lr=0.01)
        want_delta = -0.01 / (1.0 + 1e-8)
        for n, t in named_tensors(p):
            assert np.max(np.abs((t - before[n]) - want_delta)) <= 1e-15

    def test_zero_grad_leaves_params_but_advances_t(self):
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        before = {n: t.copy() for n, t in named_tensors(p)}
        p.grads.flat[:] = 0.0
        st = AdamState.for_params(p)
        adam_step(p, p.grads, st, lr=0.01)
        assert st.t == 1
        for n, t in named_tensors(p):
            assert np.array_equal(t, before[n])

    def test_steps_are_deterministic(self):
        p1 = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        p2 = copy.deepcopy(p1)
        grads = p1.grads
        grads.flat[:] = 0.5
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


class TestKeptActivationGate:
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_zero_signs_match_float_mask_formulas(self, dropout):
        # the in-place head against (d_ad * mask) * (h1 > 0) on the
        # pre-activation, bit for bit, where the sign of a zero is at stake
        g = Rng(1).gen
        rows, in_len, width, out_len = 7, 8, 16, 4
        w1 = g.standard_normal((width, in_len))
        b1 = 0.1 * g.standard_normal(width)
        # units 0 and 1 get a zero dot product plus a bias of +0.0 / -0.0,
        # which makes both pre-activations exact zeros (the matmul's zero is
        # +0.0); unit 2 is negative on every row; input rows 0 and 1 are
        # +0.0 / -0.0
        w1[:2] = 0.0
        b1[:3] = 0.0, -0.0, -1e3
        # non-negative second-layer and predictor weights under a negative
        # upstream gradient make d(loss)/d(ad) negative everywhere, so every
        # gated or dropped unit's gradient is a zero of negative sign
        head = md.Head("h", w1, b1, np.abs(g.standard_normal((width, width))),
                       g.standard_normal(width), np.abs(g.standard_normal((out_len, width))),
                       g.standard_normal(out_len))
        z = g.standard_normal((rows, in_len))
        z[0], z[1] = 0.0, -0.0
        g_out = -np.abs(g.standard_normal((rows, out_len)))

        out, cache = md._head_forward(head, z, dropout, Rng(2))
        want_out, want = reference_head_forward(head, z, dropout, Rng(2))
        assert np.array_equal(bits(out), bits(want_out))
        assert np.array_equal(bits(cache.ad), bits(want.ad))
        assert np.any(want.h1 == 0.0)
        assert (want.mask is None) == (dropout == 0.0)
        if dropout:
            assert np.any(want.mask == 0.0) and np.any(want.h1[want.mask == 0.0] > 0.0)

        grads = {f"h.{s}": np.empty(t.shape) for s, t in
                 zip(md._SUFFIXES, (w1, b1, head.w2, head.b2, head.wp, head.bp))}
        d_h1 = md._head_backward(head, cache, g_out, grads)
        assert d_h1 is cache.ad
        d_ad = (g_out @ head.wp) @ head.w2
        assert (d_ad < 0.0).all()
        want_d_h1 = (d_ad * want.mask if dropout else d_ad) * (want.h1 > 0.0)
        assert np.array_equal(bits(d_h1), bits(want_d_h1))
        zeros = want_d_h1 == 0.0
        assert zeros[:, :3].all() and np.signbit(want_d_h1[zeros]).all()

        want_grads = {}
        ref_d_h1 = reference_head_backward(head, want, g_out, want_grads)
        assert np.array_equal(bits(d_h1), bits(ref_d_h1))
        assert set(grads) == set(want_grads)
        for name in grads:
            assert np.array_equal(bits(grads[name]), bits(want_grads[name])), name


class TestRankOneProducts:
    # the mvd m and v heads have one input and one output column; their
    # first forward product and their backward g_out @ Wp run through
    # np.dot, which must give np.matmul's bits, zero signs included
    @pytest.mark.parametrize("rows,width", [(512, 128), (7, 16), (1024, 384)])
    def test_dot_has_the_matmul_bits(self, rows, width):
        g = Rng(6).gen
        a = g.standard_normal((rows, 1))
        w = g.standard_normal((width, 1))
        a[::3], a[1::3] = 0.0, -0.0
        w[::5], w[1::5] = -0.0, 0.0
        for right in (w.T, np.ascontiguousarray(w.T)):  # forward's W1.T, backward's Wp
            want = np.matmul(a, right)
            got = md._product(a, right, np.empty((rows, width)))
            assert np.any(want == 0.0)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_one_column_head_matches_the_reference(self, dropout):
        # a one-column head with +0.0 / -0.0 inputs and weights, forward and
        # backward, against the reference head's @ products
        g = Rng(7).gen
        p = init_params("mvd", 8, 4, 16, dropout, "separate", Rng(1))
        head = p.heads["m"]
        assert head.w1.shape[1] == 1 and head.wp.shape[0] == 1
        head.w1[::4], head.w1[1::4] = 0.0, -0.0
        head.wp[0, ::3] = -0.0
        z = g.standard_normal((9, 1))
        z[::3], z[1::3] = 0.0, -0.0
        g_out = g.standard_normal((9, 1))
        g_out[::2] = -0.0
        out, cache = md._head_forward(head, z, dropout, Rng(2))
        want_out, want = reference_head_forward(head, z, dropout, Rng(2))
        assert np.array_equal(bits(out), bits(want_out))
        assert np.array_equal(bits(cache.h2), bits(want.h2))
        grads = {f"m.{s}": np.empty(t.shape) for s, t in
                 zip(md._SUFFIXES, (head.w1, head.b1, head.w2, head.b2, head.wp, head.bp))}
        d_h1 = md._head_backward(head, cache, g_out, grads)
        want_grads = {}
        want_d_h1 = reference_head_backward(head, want, g_out, want_grads)
        assert np.array_equal(np.signbit(d_h1), np.signbit(want_d_h1))
        assert np.array_equal(bits(d_h1), bits(want_d_h1))
        for name in grads:
            assert np.array_equal(bits(grads[name]), bits(want_grads[name])), name


class TestStepMemory:
    # traced bytes of one training step with step buffers, in units of one
    # (rows, width) float64 array, width the component heads' hidden width:
    # the first step allocates the buffers, a warm step adds only transients;
    # backward writes its hidden gradients over the cache arrays it has read,
    # and dropout draws its uniforms into the h2 buffer. Training passes at
    # most training.STEP_ROWS rows per call and runs larger steps as row blocks
    @pytest.mark.parametrize("kind,mode,rows,first,warm", [
        # a whole train-large step, 1024 nodes in 24 subgraphs at minibatch 32,
        # which training runs as two 672-row blocks (measured 10.8 and 2.2)
        ("mvd", "separate", 1344, 11.5, 2.5),
        # the largest train-small-stl-merged step: the 18-node remainder chunk
        # (measured 4.7 and 1.7)
        ("stl", "merged", 576, 5, 2),
    ])
    def test_step_working_set(self, kind, mode, rows, first, warm):
        hidden, length = 128, 36
        p = init_params(kind, length, length, hidden, 0.05, mode, Rng(1))
        cfg = make_config(kind, 1e-5, 25, 7)
        x, y = Rng(2).gen.standard_normal((2, rows, length))
        unit = rows * hidden * (3 if mode == "merged" else 1) * 8
        buffers, extra = {}, []
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for step in range(2):
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                md.train_step(p, x, y, cfg, 1.0, Rng(5).child(step), buffers)
                extra.append(tracemalloc.get_traced_memory()[1] - held)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert extra[0] <= first * unit, extra[0] / unit
        assert extra[1] <= warm * unit, extra[1] / unit


class TestFlatBuffers:
    @pytest.mark.parametrize("kind,mode", MODEL_VARIANTS)
    def test_steps_match_per_tensor_reference_bits(self, kind, mode, monkeypatch):
        # 200 training steps through the flat gradient vector, the in-place
        # head and blocked ADAM against the float-mask reference head with
        # fresh per-tensor gradients and per-tensor ADAM
        new, cfg = variant_model(kind, mode)
        ref = copy.deepcopy(new)
        m = {n: np.zeros_like(t) for n, t in named_tensors(ref)}
        v = {n: np.zeros_like(t) for n, t in named_tensors(ref)}
        state = AdamState.for_params(new)
        for step in range(200):
            g = Rng(9).child(step).gen
            x, y = g.standard_normal((6, 8)), g.standard_normal((6, 4))
            _, grads = md.train_step(new, x, y, cfg, 0.5, Rng(5).child(step))
            with monkeypatch.context() as patched:
                patched.setattr(md, "_head_forward", reference_head_forward)
                patched.setattr(md, "_head_backward", reference_head_backward)
                _, ref_grads = md.train_step(ref, x, y, cfg, 0.5, Rng(5).child(step))
            assert list(grads) == list(ref_grads)
            for name in grads:
                assert np.array_equal(bits(grads[name]), bits(ref_grads[name])), name
            adam_step(new, grads, state, lr=0.01)
            reference_adam_step(ref, ref_grads, m, v, step + 1, lr=0.01)
        assert np.array_equal(bits(new.flat), bits(ref.flat))
        assert np.array_equal(bits(state.m), bits(np.concatenate([a.ravel() for a in m.values()])))
        assert np.array_equal(bits(state.v), bits(np.concatenate([a.ravel() for a in v.values()])))

    @pytest.mark.parametrize("kind,mode", MODEL_VARIANTS)
    def test_step_buffers_keep_the_bits(self, kind, mode):
        p, cfg = variant_model(kind, mode)
        buffers = {}
        for step, rows in enumerate((6, 6, 9, 6)):
            g = Rng(9).child(step).gen
            x, y = g.standard_normal((rows, 8)), g.standard_normal((rows, 4))
            loss, grads = md.train_step(p, x, y, cfg, 0.5, Rng(5).child(step))
            want = {n: a.copy() for n, a in grads.items()}
            got_loss, got = md.train_step(p, x, y, cfg, 0.5, Rng(5).child(step), buffers)
            assert got_loss == loss
            for name in want:
                assert np.array_equal(bits(got[name]), bits(want[name])), name
        # each buffer keeps the most rows asked for, 9, and serves 6 as a view
        assert buffers and all(b.shape[0] == 9 for b in buffers.values())

    def test_alternating_block_sizes_share_one_array_per_buffer(self):
        # balanced row blocks alternate between 906 and 907 rows: each key's
        # array is made for the first 906-row block and again for the first
        # 907-row one, then serves every block as a view of its first rows
        p, cfg = variant_model("mvd", "separate")
        buffers, seen = {}, []
        for step, rows in enumerate([906, 907] * 4):
            g = Rng(9).child(step).gen
            x, y = g.standard_normal((rows, 8)), g.standard_normal((rows, 4))
            md.train_step(p, x, y, cfg, 0.5, Rng(5).child(step), buffers)
            seen.append(dict(buffers))  # holds every array made, so no id is reused
        made = {id(b) for kept in seen for b in kept.values()}
        assert buffers and len(made) == 2 * len(buffers)
        assert all(b.shape[0] == 907 for b in buffers.values())
        key, kept = next(iter(buffers.items()))
        view = md._buffer(buffers, key, (906, kept.shape[1]))
        assert view.shape == (906, kept.shape[1]) and view.flags.c_contiguous
        assert np.shares_memory(view, kept) and buffers[key] is kept

    def test_in_place_dropout_matches_product(self):
        head = init_params("stl", 8, 4, 16, 0.3, "separate", Rng(1)).heads["t"]
        z = Rng(2).gen.standard_normal((7, 8))
        out, cache = md._head_forward(head, z, 0.3, Rng(3))
        want_out, want = reference_head_forward(head, z, 0.3, Rng(3))
        assert np.array_equal(bits(cache.ad), bits(want.ad))
        assert np.array_equal(bits(out), bits(want_out))
        assert cache.h1 is cache.ad and cache.mask == 1.0 / 0.7

    def test_adam_blocks_cover_a_vector_longer_than_one_block(self):
        p, _ = variant_model("stl", "merged", hidden=64)
        assert p.flat.size > 2 * md._ADAM_BLOCK
        ref = copy.deepcopy(p)
        p.grads.flat[:] = Rng(3).gen.standard_normal(p.flat.size)
        grads = {n: g.copy() for n, g in p.grads.items()}
        m = {n: np.zeros_like(t) for n, t in named_tensors(ref)}
        v = {n: np.zeros_like(t) for n, t in named_tensors(ref)}
        state = AdamState.for_params(p)
        for t in (1, 2, 3):
            adam_step(p, p.grads, state, lr=0.01)
            reference_adam_step(ref, grads, m, v, t, lr=0.01)
        assert np.array_equal(bits(p.flat), bits(ref.flat))

    @pytest.mark.parametrize("kind,mode", MODEL_VARIANTS)
    def test_views_follow_the_vector(self, kind, mode):
        p, _ = variant_model(kind, mode)
        names = [n for n, _ in named_tensors(p)]
        assert names == list(p.grads)
        for (name, t), (_, g) in zip(named_tensors(p), p.grads.items()):
            assert np.shares_memory(t, p.flat) and np.shares_memory(g, p.grads.flat), name
        heads = [p.head] if kind == "plain" else [*p.heads.values(), p.combinator]
        for head in heads:
            assert head.w2 is p.tensors[f"{head.name}.l2.w"]
        assert np.array_equal(p.flat, np.concatenate([t.ravel() for _, t in named_tensors(p)]))

    @pytest.mark.parametrize("kind,mode", MODEL_VARIANTS)
    def test_deep_copy_does_not_share_memory(self, kind, mode):
        p, _ = variant_model(kind, mode)
        before = p.flat.copy()
        q = copy.deepcopy(p)
        assert not np.shares_memory(p.flat, q.flat)
        assert not np.shares_memory(p.grads.flat, q.grads.flat)
        for _, t in named_tensors(q):
            t[...] = 7.0
        assert np.all(q.flat == 7.0)
        assert np.array_equal(p.flat, before)
        p.flat[:] = -1.0
        assert np.all(q.flat == 7.0)

    def test_merged_combinator_does_not_share_memory(self):
        sep = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(7))
        before = sep.flat.copy()
        mer = merge_params(sep)
        assert not np.shares_memory(mer.flat, sep.flat)
        assert np.array_equal(mer.combinator.w1, sep.combinator.w1)
        mer.combinator.w1[...] = 3.0
        mer.heads["merged"].w2[...] = 3.0
        assert np.array_equal(sep.flat, before)

    @pytest.mark.parametrize("kind,mode", MODEL_VARIANTS[:4])
    def test_merged_blocks_are_disjoint_and_cover_separate_tensors(self, kind, mode):
        # every separate tensor lands on its own entries of the merged layout
        sep = init_params(kind, 8, 4, 16, 0.0, "separate", Rng(7))
        sep.flat[:] = np.arange(1, sep.flat.size + 1)
        mer = merge_params(sep)
        assert np.array_equal(np.sort(mer.flat[mer.flat != 0.0]), sep.flat)

    def test_gradients_are_overwritten_by_the_next_backward_pass(self):
        xb, yb, x, y, cfg = bundle_pair("mvd", seed=4)
        p = init_params("mvd", 8, 4, 16, 0.0, "separate", Rng(3))
        _, first = loss_and_backward(p, forward(p, xb), yb, y, 1.0)
        kept = first.flat.copy()
        _, second = loss_and_backward(p, forward(p, xb), yb, 2.0 * y, 1.0)
        assert second is first
        assert not np.array_equal(second.flat, kept)


class TestGradcheckBackwardPasses:
    def test_one_backward_pass_per_check(self, monkeypatch):
        want = finite_difference_check("stl", "merged", seed=2)
        real = md.loss_and_backward
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(md, "loss_and_backward", counting)
        assert finite_difference_check("stl", "merged", seed=2) == want
        assert len(calls) == 1


def checkpoint_records(params):
    return [(n.encode(), t.ndim, t.shape, t.astype("<f8").tobytes())
            for n, t in named_tensors(params)]


def write_records(path, records):
    with open(path, "wb") as f:
        f.write(md.CHECKPOINT_MAGIC)
        for name, rank, dims, payload in records:
            f.write(struct.pack("<I", len(name)) + name + struct.pack("<I", rank)
                    + struct.pack(f"<{len(dims)}Q", *dims) + payload)


def _extra(r):
    return r + [(b"zz.extra", 1, (2,), bytes(16))]


def _duplicate(r):
    return r + [r[1]]


def _duplicate_in_place(r):
    return r[:2] + [r[1]] + r[2:]


def _bad_utf8(r):
    return r + [(b"\xff\xfe", 1, (1,), bytes(8))]


def _huge_rank(r):
    return r[:1] + [(b"m.l1.b", 2 ** 31, (), b"")] + r[2:]


def _huge_dims(r):
    return [(b"m.l1.w", 2, (2 ** 40, 2 ** 40), r[0][3])] + r[1:]


def _huge_name_length(r):
    return r[:1] + [(b"m.l1.b" + bytes(2 ** 20), 1, (4,), bytes(32))] + r[2:]


# (mutation of the records, text the error must contain)
MALFORMED = {
    "extra": (_extra, "unexpected tensor 'zz.extra' after the last one"),
    "duplicate": (_duplicate, "unexpected tensor 'm.l1.b' after the last one"),
    "duplicate-in-place": (_duplicate_in_place, "unexpected tensor 'm.l1.b' where 'm.l2.w' belongs"),
    "bad-utf8": (_bad_utf8, "tensor name b'\\xff\\xfe' is not UTF-8"),
    "huge-rank": (_huge_rank, "tensor 'm.l1.b' has rank 2147483648, expected 1"),
    "huge-dims": (_huge_dims, "tensor 'm.l1.w' has shape (1099511627776, 1099511627776), "
                              "expected (4, 1)"),
    "huge-name-length": (_huge_name_length, "tensor name of 1048582 bytes"),
    "out-of-order": (lambda r: [r[1], r[0]] + r[2:], "unexpected tensor 'm.l1.b' where 'm.l1.w' belongs"),
}


def malformed_checkpoint(path, case):
    p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
    save_checkpoint(path, p, {})
    records = checkpoint_records(p)
    write_records(path, records)
    assert load_checkpoint(path)[0].flat.tolist() == p.flat.tolist()
    mutate, message = MALFORMED[case]
    write_records(path, mutate(records))
    return message


class TestCheckpointLayout:
    def test_record_writer_reproduces_save_checkpoint(self, tmp_path):
        p = init_params("stl", 8, 4, 16, 0.05, "merged", Rng(3))
        save_checkpoint(tmp_path / "a.psld", p, {})
        write_records(tmp_path / "b.psld", checkpoint_records(p))
        assert (tmp_path / "a.psld").read_bytes() == (tmp_path / "b.psld").read_bytes()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_record_names_tensor(self, tmp_path, case):
        path = tmp_path / "model.psld"
        message = malformed_checkpoint(path, case)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert message in str(exc.value)

    def test_missing_tensor_is_named(self, tmp_path):
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {})
        write_records(path, checkpoint_records(p)[:-1])
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "missing tensor 'cbn.p.b'" in str(exc.value)

    def test_sidecar_layout_larger_than_file(self, tmp_path):
        # a sidecar asking for a huge model is refused before any allocation
        p = init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0))
        path = tmp_path / "model.psld"
        save_checkpoint(path, p, {})
        sidecar = json.loads((tmp_path / "model.psld.json").read_text())
        sidecar["hidden"] = 10 ** 9
        (tmp_path / "model.psld.json").write_text(json.dumps(sidecar))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert "too small" in str(exc.value)


def _sidecar_field(key, value):
    def mutate(sidecar):
        sidecar[key] = value
        return json.dumps(sidecar)
    return mutate


def _without(key):
    def mutate(sidecar):
        del sidecar[key]
        return json.dumps(sidecar)
    return mutate


# (new sidecar text from the saved sidecar dict, text the error must contain)
BAD_SIDECARS = {
    "dropout-too-large": (_sidecar_field("dropout", 7.0),
                          "field 'dropout' must be a number in [0, 1), got 7.0"),
    "dropout-nan": (_sidecar_field("dropout", float("nan")), "field 'dropout'"),
    "dropout-string": (_sidecar_field("dropout", "0.1"), "field 'dropout'"),
    "negative-hidden": (_sidecar_field("hidden", -3),
                        "field 'hidden' must be an integer >= 1, got -3"),
    "bool-l-in": (_sidecar_field("l_in", True), "field 'l_in' must be an integer >= 1, got True"),
    "float-l-out": (_sidecar_field("l_out", 2.0), "field 'l_out' must be an integer >= 1, got 2.0"),
    "unknown-kind": (_sidecar_field("kind", "fft"), "field 'kind' must be 'mvd' or 'stl'"),
    "unknown-mode": (_sidecar_field("mode", ["separate"]), "field 'mode'"),
    "missing-kind": (_without("kind"), "has no field 'kind'"),
    "missing-config": (_without("config"), "has no field 'config'"),
    "config-not-object": (_sidecar_field("config", [1, 2]),
                          "field 'config' must be a JSON object, got [1, 2]"),
    "not-json": (lambda sidecar: "{kind: mvd", "is not valid JSON"),
    "not-utf8": (lambda sidecar: b"\xff\xfe".decode("latin-1"), "is not valid JSON"),
    "not-object": (lambda sidecar: json.dumps([sidecar]), "is not a JSON object"),
}


def bad_sidecar_checkpoint(path, case):
    """Save a tiny checkpoint, then rewrite its sidecar per BAD_SIDECARS[case]."""
    save_checkpoint(path, init_params("mvd", 4, 2, 4, 0.0, "separate", Rng(0)), {})
    side = path.parent / (path.name + ".json")
    mutate, message = BAD_SIDECARS[case]
    side.write_text(mutate(json.loads(side.read_text())), encoding="latin-1")
    return message


class TestSidecarSchema:
    @pytest.mark.parametrize("case", sorted(BAD_SIDECARS))
    def test_bad_sidecar_names_file_and_field(self, tmp_path, case):
        path = tmp_path / "model.psld"
        message = bad_sidecar_checkpoint(path, case)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert message in str(exc.value)
        assert f"checkpoint sidecar {path}.json" in str(exc.value)

    def test_integral_dropout_and_extra_fields_load(self, tmp_path):
        # the writer's own fields pass, and JSON 0 is a number in [0, 1)
        path = tmp_path / "model.psld"
        p = init_params("stl", 4, 2, 4, 0.0, "merged", Rng(1))
        save_checkpoint(path, p, {"note": "kept"})
        side = tmp_path / "model.psld.json"
        sidecar = json.loads(side.read_text())
        sidecar["dropout"] = 0
        side.write_text(json.dumps(sidecar))
        loaded, read = load_checkpoint(path)
        assert loaded.flat.tobytes() == p.flat.tobytes()
        assert loaded.dropout == 0.0 and read["config"] == {"note": "kept"}
