"""Component heads, the combinator, manual backprop, ADAM, checkpoints.

There is one head type, :class:`Head`: a two-layer MLP learner (linear,
ReLU, inverted dropout, linear) followed by a linear predictor. Heads act
per variable along the time axis: a stacked input of shape (rows, in_len)
maps to (rows, out_len) with one row per (window, variable) pair, so the
same parameters serve any number of variables.

For the mvd decomposer the m and v heads map the per-row scalars of the
input window to the predicted scalars of the output window and the r head
maps the residual series. The combinator, a head of its own, consumes
v_hat * r_hat (mvd) or s_hat + r_hat (stl), then m_hat (resp. t_hat) is
added to produce the forecast. Gradients from the forecast loss flow
through the combinator back into the component heads.

Separate and merged mode differ only in :func:`head_layout`. Separate mode
gives each component a head of its own; merged mode gives one wide head
whose input concatenates the components and whose output is split back
into them. Initialisation, forward, backward and checkpoint loading are
each one loop over that layout. Embedding separate parameters
block-diagonally into the merged layout reproduces separate-mode outputs
and per-parameter gradients, which the test suite checks numerically.

The plain baseline (:class:`PlainParams`) is a single head on raw windows;
:func:`train_step` and :func:`predict` are the only places that tell it
apart from the decomposition model.

All gradients here are derived and coded by hand; there is no autodiff.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import decomposition as dc
from .exceptions import CheckpointError, NumericError, ShapeError
from .numerics import Rng, relu

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CHECKPOINT_MAGIC = b"PSLD1"


@dataclass
class Head:
    """Learner (w1, b1, ReLU, dropout, w2, b2) and predictor (wp, bp).

    Weights are (out, in); the widths are read off their shapes.
    """

    name: str
    w1: np.ndarray  # (width, in_len)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (width, width)
    b2: np.ndarray  # (width,)
    wp: np.ndarray  # (out_len, width)
    bp: np.ndarray  # (out_len,)


@dataclass
class PsldParams:
    kind: str            # "mvd" | "stl"
    mode: str            # "separate" | "merged"
    l_in: int
    l_out: int
    hidden: int
    dropout: float
    heads: dict          # name -> Head, in head_layout order
    combinator: Head


@dataclass
class PlainParams:
    """Single head mapping raw input windows to forecasts, no decomposition."""

    l_in: int
    l_out: int
    hidden: int
    dropout: float
    head: Head


def head_plan(kind: str, l_in: int, l_out: int) -> tuple:
    """Component head names with their per-variable input/output lengths."""
    if kind == "mvd":
        return (("m", 1, 1), ("v", 1, 1), ("r", l_in, l_out))
    if kind == "stl":
        return (("t", l_in, l_out), ("s", l_in, l_out), ("r", l_in, l_out))
    raise ValueError(f"unknown decomposer kind {kind!r}")


def head_layout(kind: str, mode: str, l_in: int, l_out: int, hidden: int) -> tuple:
    """(name, parts, in_len, out_len, width) for each component head.

    ``parts`` names the components a head reads, concatenated along the
    time axis, and predicts, split back in the same order. Separate mode
    gives each component of ``head_plan`` its own head of width
    ``hidden``; merged mode gives one head over all of them, as wide as
    the separate heads together. No other code branches on the mode.
    """
    plan = head_plan(kind, l_in, l_out)
    if mode == "separate":
        return tuple((name, (name,), ilen, olen, hidden) for name, ilen, olen in plan)
    if mode == "merged":
        return (("merged", tuple(name for name, _, _ in plan),
                 sum(ilen for _, ilen, _ in plan), sum(olen for _, _, olen in plan),
                 len(plan) * hidden),)
    raise ValueError(f"mode must be 'separate' or 'merged', got {mode!r}")


def _layout(params: PsldParams) -> tuple:
    return head_layout(params.kind, params.mode, params.l_in, params.l_out, params.hidden)


def _init_linear(out_dim: int, in_dim: int, rng: Rng) -> tuple:
    if in_dim < 1 or out_dim < 1:
        raise ValueError(f"layer dims must be positive, got ({out_dim}, {in_dim})")
    bound = math.sqrt(1.0 / in_dim)
    weight = rng.gen.uniform(-bound, bound, size=(out_dim, in_dim))
    return weight, np.zeros(out_dim, dtype=np.float64)


def _init_head(name: str, in_len: int, out_len: int, width: int, rng: Rng) -> Head:
    w1, b1 = _init_linear(width, in_len, rng.child("l1"))
    w2, b2 = _init_linear(width, width, rng.child("l2"))
    wp, bp = _init_linear(out_len, width, rng.child("p"))
    return Head(name, w1, b1, w2, b2, wp, bp)


def init_params(
    kind: str,
    l_in: int,
    l_out: int,
    hidden: int,
    dropout: float,
    mode: str,
    rng: Rng,
) -> PsldParams:
    """Uniform(-sqrt(1/fan_in), sqrt(1/fan_in)) weights, zero biases.

    Component heads follow ``head_layout``, so merged mode allocates one
    head whose widths are the concatenation of the three separate head
    widths (inputs, hidden units, and outputs).
    """
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    heads = {
        name: _init_head(name, in_len, out_len, width, rng.child(name))
        for name, _, in_len, out_len, width in head_layout(kind, mode, l_in, l_out, hidden)
    }
    combinator = _init_head("cbn", l_out, l_out, hidden, rng.child("cbn"))
    return PsldParams(kind, mode, l_in, l_out, hidden, dropout, heads, combinator)


def init_plain_params(l_in: int, l_out: int, hidden: int, dropout: float, rng: Rng) -> PlainParams:
    if not 0.0 <= dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {dropout}")
    return PlainParams(l_in, l_out, hidden, dropout,
                       _init_head("main", l_in, l_out, hidden, rng.child("main")))


@dataclass
class HeadCache:
    z: np.ndarray
    h1: np.ndarray
    mask: np.ndarray | None
    ad: np.ndarray
    h2: np.ndarray
    out: np.ndarray


def _buffer(buffers: dict | None, key: str, shape: tuple) -> np.ndarray | None:
    if buffers is None:
        return None
    buf = buffers.get(key)
    if buf is None or buf.shape != shape:
        buf = buffers[key] = np.empty(shape)
    return buf


def _first_layer(z: np.ndarray, w1: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``z @ w1.T``, into ``out`` if given.

    With one input column (the mvd m and v heads) the product is not
    BLAS-able and numpy runs its naive matmul loop, about 2x slower than
    the broadcast multiply. That loop sums from +0.0, which turns a -0.0
    product into +0.0; adding 0.0 does the same, so the two agree bit for
    bit.
    """
    if w1.shape[1] != 1:
        return np.matmul(z, w1.T, out=out)
    out = np.multiply(z, w1.T, out=out)
    out += 0.0
    return out


def _head_forward(head: Head, z: np.ndarray, dropout: float, rng: Rng | None,
                  buffers: dict | None = None):
    """Output and backward cache of one head.

    A dropout mask is drawn only when an rng is given, so evaluation
    passes None and is deterministic. With ``buffers`` (see ``forward``)
    the hidden and output arrays are written into arrays kept there.
    """
    name, in_len = head.name, head.w1.shape[1]
    if z.ndim != 2 or z.shape[1] != in_len:
        raise ShapeError(f"head '{name}': expected input (rows, {in_len}), got {z.shape}")
    hidden = (z.shape[0], head.w1.shape[0])
    h1 = _first_layer(z, head.w1, _buffer(buffers, f"{name}.h1", hidden))
    h1 += head.b1
    a = relu(h1, out=_buffer(buffers, f"{name}.a", hidden))
    if rng is not None and dropout > 0.0:
        # inverted dropout: zero with probability p, scale survivors by 1/(1-p)
        mask = (rng.gen.random(a.shape) >= dropout) / (1.0 - dropout)
        ad = a * mask
    else:
        mask = None
        ad = a
    h2 = np.matmul(ad, head.w2.T, out=_buffer(buffers, f"{name}.h2", hidden))
    h2 += head.b2
    out_shape = (z.shape[0], head.wp.shape[0])
    out = np.matmul(h2, head.wp.T, out=_buffer(buffers, f"{name}.out", out_shape))
    out += head.bp
    return out, HeadCache(z, h1, mask, ad, h2, out)


def _head_backward(head: Head, cache: HeadCache, g_out: np.ndarray, grads: dict) -> np.ndarray:
    """Accumulate this head's gradients from d(loss)/d(out), return d(loss)/d(z).

    With out = h2 @ Wp.T + bp the weight gradient is g_out.T @ h2 and the
    bias gradient the column sums of g_out; the two learner layers follow
    the same pattern with the dropout mask and the ReLU gate applied on
    the way down.
    """
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
    return d_h1 @ head.w1


def _concat(columns: list) -> np.ndarray:
    """Join per-component arrays along the time axis; one array is not copied."""
    return columns[0] if len(columns) == 1 else np.concatenate(columns, axis=1)


@dataclass
class ForwardState:
    """Predicted components, forecast, and the caches backward needs."""

    comp_hat: dict
    y_hat: np.ndarray
    head_caches: dict
    cbn_cache: HeadCache


def forward(
    params: PsldParams,
    x_bundle: dc.ComponentBundle,
    training: bool = False,
    rng: Rng | None = None,
    buffers: dict | None = None,
) -> ForwardState:
    """Run component heads and the combinator on decomposed input windows.

    Dropout masks are drawn only when training is true; evaluation is
    deterministic. With every parameter zero all outputs are zero.

    ``buffers`` is an optional dict the caller keeps across calls: each
    head then writes its hidden and output arrays into arrays kept there,
    so repeated calls on the same number of rows allocate them once. The
    returned state's caches are then overwritten by the next such call.
    """
    if x_bundle.kind != params.kind:
        raise ValueError(f"bundle kind {x_bundle.kind!r} does not match model {params.kind!r}")
    if not training:
        rng = None
    elif params.dropout > 0.0 and rng is None:
        raise ValueError("training forward with dropout needs an rng")
    comp_in = {nm: np.asarray(x_bundle.parts[nm], dtype=np.float64)
               for nm in dc.part_names(params.kind)}
    out_lens = {nm: olen for nm, _, olen in head_plan(params.kind, params.l_in, params.l_out)}

    comp_hat, caches = {}, {}
    for name, parts, *_ in _layout(params):
        z = _concat([comp_in[nm] for nm in parts])
        out, caches[name] = _head_forward(params.heads[name], z, params.dropout, rng, buffers)
        lo = 0
        for nm in parts:
            comp_hat[nm] = out[:, lo:lo + out_lens[nm]]
            lo += out_lens[nm]

    if params.kind == "mvd":
        cbn_in = comp_hat["v"] * comp_hat["r"]
        base = comp_hat["m"]
    else:
        cbn_in = comp_hat["s"] + comp_hat["r"]
        base = comp_hat["t"]
    o_c, cbn_cache = _head_forward(params.combinator, cbn_in, params.dropout, rng, buffers)
    return ForwardState(comp_hat, o_c + base, caches, cbn_cache)


def predict(params, x_rows: np.ndarray, dcfg=None, buffers: dict | None = None) -> np.ndarray:
    """Evaluation-mode forecast for stacked (rows, l_in) input windows.

    ``buffers`` is passed on as in ``forward``; the forecast may then be
    one of them, valid until the next call with the same buffers.
    """
    if isinstance(params, PlainParams):
        out, _ = _head_forward(params.head, x_rows, params.dropout, None, buffers)
        return out
    if dcfg is None:
        raise ValueError("predict on decomposition models needs a decomposer config")
    return forward(params, dc.decompose(x_rows, dcfg), training=False, buffers=buffers).y_hat


@dataclass(frozen=True)
class LossParts:
    total: float
    cbn: float
    cpn: float
    per_component: dict


def _mse(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.mean((a - b) ** 2))


def train_step(params, x_rows: np.ndarray, y_rows: np.ndarray, dcfg, lam: float, rng: Rng):
    """Training forward and backward pass on stacked rows: (LossParts, grads).

    Decomposition models decompose inputs and targets with ``dcfg`` and
    minimise cbn + lam * cpn; the plain model minimises the forecast MSE
    alone. Dropout masks come from ``rng``. Nothing of the forward pass
    outlives the call.
    """
    if isinstance(params, PlainParams):
        out, cache = _head_forward(params.head, x_rows, params.dropout, rng)
        if out.shape != y_rows.shape:
            raise ShapeError(f"forecast {out.shape} vs target {y_rows.shape}")
        loss = _mse(out, y_rows)
        if not math.isfinite(loss):
            raise NumericError("non-finite loss in head 'main'")
        grads = {}
        _head_backward(params.head, cache, (2.0 / y_rows.size) * (out - y_rows), grads)
        return LossParts(loss, loss, 0.0, {}), grads
    state = forward(params, dc.decompose(x_rows, dcfg), training=True, rng=rng)
    return loss_and_backward(params, state, dc.decompose(y_rows, dcfg), y_rows, lam)


def loss_and_backward(
    params: PsldParams,
    state: ForwardState,
    label_bundle: dc.ComponentBundle,
    y: np.ndarray,
    lam: float,
):
    """Total loss cbn + lambda * cpn and gradients for every parameter.

    cpn is the sum of per-component mean squared errors against the label
    components (in merged mode computed on the output splits, so both
    modes optimize the identical objective). The forecast gradient is
    routed into the predicted components, and each component head's
    gradient is concatenated in the order of its ``head_layout`` parts. cbn is the
    mean squared error of the forecast. If predictions equal targets
    exactly, the loss and every gradient are zero.
    """
    if label_bundle.kind != params.kind:
        raise ValueError(
            f"label bundle kind {label_bundle.kind!r} does not match model {params.kind!r}"
        )
    names = dc.part_names(params.kind)
    comp_losses = {}
    for nm in names:
        hat, ref = state.comp_hat[nm], label_bundle.parts[nm]
        if hat.shape != ref.shape:
            raise ShapeError(
                f"component '{nm}': prediction {hat.shape} vs label {ref.shape}"
            )
        comp_losses[nm] = _mse(hat, ref)
        if not math.isfinite(comp_losses[nm]):
            raise NumericError(f"non-finite loss in component head '{nm}'")
    l_cpn = sum(comp_losses.values())
    if state.y_hat.shape != y.shape:
        raise ShapeError(f"forecast {state.y_hat.shape} vs target {y.shape}")
    l_cbn = _mse(state.y_hat, y)
    if not math.isfinite(l_cbn):
        raise NumericError("non-finite loss in combinator head 'cbn'")
    total = l_cbn + lam * l_cpn

    grads = {}
    g_y = (2.0 / y.size) * (state.y_hat - y)
    g_cbn_in = _head_backward(params.combinator, state.cbn_cache, g_y, grads)

    # route the forecast gradient into the predicted components
    if params.kind == "mvd":
        routed = {
            "m": g_y.sum(axis=1, keepdims=True),
            "v": (g_cbn_in * state.comp_hat["r"]).sum(axis=1, keepdims=True),
            "r": g_cbn_in * state.comp_hat["v"],
        }
    else:
        routed = {"t": g_y, "s": g_cbn_in, "r": g_cbn_in}

    d_hat = {}
    for nm in names:
        hat, ref = state.comp_hat[nm], label_bundle.parts[nm]
        d_hat[nm] = routed[nm] + lam * (2.0 / hat.size) * (hat - ref)

    for name, parts, *_ in _layout(params):
        g_out = _concat([d_hat[nm] for nm in parts])
        _head_backward(params.heads[name], state.head_caches[name], g_out, grads)
    return LossParts(total, l_cbn, l_cpn, comp_losses), grads


def _head_tensors(head: Head):
    yield f"{head.name}.l1.w", head.w1
    yield f"{head.name}.l1.b", head.b1
    yield f"{head.name}.l2.w", head.w2
    yield f"{head.name}.l2.b", head.b2
    yield f"{head.name}.p.w", head.wp
    yield f"{head.name}.p.b", head.bp


def named_tensors(params) -> list:
    """Ordered (name, array) pairs; arrays are the live parameter buffers."""
    out = []
    if isinstance(params, PlainParams):
        out.extend(_head_tensors(params.head))
        return out
    for head in params.heads.values():
        out.extend(_head_tensors(head))
    out.extend(_head_tensors(params.combinator))
    return out


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        m = {name: np.zeros_like(arr) for name, arr in named_tensors(params)}
        v = {name: np.zeros_like(arr) for name, arr in named_tensors(params)}
        return cls(m, v, 0)


def adam_step(params, grads: dict, state: AdamState, lr: float):
    """One bias-corrected ADAM update, applied in place.

    m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t),
    p <- p - lr * m_hat / (sqrt(v_hat) + eps). Zero gradients leave the
    parameters unchanged while still advancing t.
    """
    state.t += 1
    b1c = 1.0 - ADAM_BETA1 ** state.t
    b2c = 1.0 - ADAM_BETA2 ** state.t
    for name, tensor in named_tensors(params):
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        tensor -= lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
    return params, state


def merge_params(sep: PsldParams) -> PsldParams:
    """Embed separate heads block-diagonally into one merged head.

    Off-block weights are zero, so the merged model computes the same
    function as the separate heads on concatenated components. The
    combinator is copied unchanged.
    """
    plan = head_plan(sep.kind, sep.l_in, sep.l_out)
    if set(sep.heads) != {nm for nm, _, _ in plan}:
        raise ValueError("merge_params expects separate-mode parameters")
    h = sep.hidden
    n_heads = len(plan)
    in_total = sum(ilen for _, ilen, _ in plan)
    out_total = sum(olen for _, _, olen in plan)

    w1 = np.zeros((n_heads * h, in_total))
    b1 = np.zeros(n_heads * h)
    w2 = np.zeros((n_heads * h, n_heads * h))
    b2 = np.zeros(n_heads * h)
    wp = np.zeros((out_total, n_heads * h))
    bp = np.zeros(out_total)

    in_off = out_off = 0
    for i, (nm, ilen, olen) in enumerate(plan):
        head = sep.heads[nm]
        rows = slice(i * h, (i + 1) * h)
        w1[rows, in_off:in_off + ilen] = head.w1
        b1[rows] = head.b1
        w2[rows, rows] = head.w2
        b2[rows] = head.b2
        wp[out_off:out_off + olen, rows] = head.wp
        bp[out_off:out_off + olen] = head.bp
        in_off += ilen
        out_off += olen

    merged = Head("merged", w1, b1, w2, b2, wp, bp)
    return PsldParams(sep.kind, "merged", sep.l_in, sep.l_out, sep.hidden, sep.dropout,
                      {"merged": merged}, copy.deepcopy(sep.combinator))


def extract_merged_grad_blocks(grads: dict, sep: PsldParams) -> dict:
    """Pull the embedded-block entries of merged-mode gradients.

    Returns gradients keyed like separate mode, covering every position a
    separate parameter was embedded at. Off-block merged gradients have no
    separate counterpart and are ignored.
    """
    plan = head_plan(sep.kind, sep.l_in, sep.l_out)
    h = sep.hidden
    out = {}
    in_off = out_off = 0
    for i, (nm, ilen, olen) in enumerate(plan):
        rows = slice(i * h, (i + 1) * h)
        out[f"{nm}.l1.w"] = grads["merged.l1.w"][rows, in_off:in_off + ilen]
        out[f"{nm}.l1.b"] = grads["merged.l1.b"][rows]
        out[f"{nm}.l2.w"] = grads["merged.l2.w"][rows, rows]
        out[f"{nm}.l2.b"] = grads["merged.l2.b"][rows]
        out[f"{nm}.p.w"] = grads["merged.p.w"][out_off:out_off + olen, rows]
        out[f"{nm}.p.b"] = grads["merged.p.b"][out_off:out_off + olen]
        in_off += ilen
        out_off += olen
    for suffix in ("l1.w", "l1.b", "l2.w", "l2.b", "p.w", "p.b"):
        out[f"cbn.{suffix}"] = grads[f"cbn.{suffix}"]
    return out


def save_checkpoint(path, params: PsldParams, config: dict) -> None:
    """Binary tensor container plus a JSON sidecar at path + '.json'.

    Layout: the magic bytes, then for each tensor a little-endian u32 name
    length, the UTF-8 name, a u32 rank, u64 dims, and the float64 payload.
    Identical parameters serialize to identical bytes.
    """
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name, arr in named_tensors(params):
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    sidecar = {
        "format": CHECKPOINT_MAGIC.decode("ascii"),
        "kind": params.kind,
        "mode": params.mode,
        "l_in": params.l_in,
        "l_out": params.l_out,
        "hidden": params.hidden,
        "dropout": params.dropout,
        "config": config,
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _head_from_tensors(tensors: dict, name: str, in_len: int, out_len: int,
                       width: int) -> Head:
    def take(suffix: str, shape: tuple) -> np.ndarray:
        key = f"{name}.{suffix}"
        if key not in tensors:
            raise CheckpointError(f"checkpoint is missing tensor {key!r}")
        arr = tensors[key]
        if arr.shape != shape:
            raise CheckpointError(f"tensor {key!r} has shape {arr.shape}, expected {shape}")
        return arr

    return Head(name,
                take("l1.w", (width, in_len)), take("l1.b", (width,)),
                take("l2.w", (width, width)), take("l2.b", (width,)),
                take("p.w", (out_len, width)), take("p.b", (out_len,)))


def load_checkpoint(path):
    """Read a checkpoint back into PsldParams plus its sidecar dict."""
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic in checkpoint {path}: {magic!r}")
        tensors = {}
        while True:
            head = f.read(4)
            if not head:
                break
            if len(head) != 4:
                raise CheckpointError("truncated checkpoint while reading a name length")
            (name_len,) = struct.unpack("<I", head)
            name = _read_exact(f, name_len, "a tensor name").decode("utf-8")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"rank of {name!r}"))
            dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank, f"dims of {name!r}"))
            count = int(np.prod(dims)) if rank else 1
            payload = _read_exact(f, 8 * count, f"payload of {name!r}")
            tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as f:
            sidecar = json.load(f)
    except FileNotFoundError:
        raise CheckpointError(f"missing checkpoint sidecar {path}.json") from None

    kind, mode = sidecar["kind"], sidecar["mode"]
    l_in, l_out = int(sidecar["l_in"]), int(sidecar["l_out"])
    hidden, dropout = int(sidecar["hidden"]), float(sidecar["dropout"])
    heads = {
        name: _head_from_tensors(tensors, name, in_len, out_len, width)
        for name, _, in_len, out_len, width in head_layout(kind, mode, l_in, l_out, hidden)
    }
    combinator = _head_from_tensors(tensors, "cbn", l_out, l_out, hidden)
    params = PsldParams(kind, mode, l_in, l_out, hidden, dropout, heads, combinator)
    return params, sidecar


def _relu_signature(state: ForwardState) -> tuple:
    sigs = [np.packbits(cache.h1 > 0.0).tobytes() for cache in state.head_caches.values()]
    sigs.append(np.packbits(state.cbn_cache.h1 > 0.0).tobytes())
    return tuple(sigs)


def finite_difference_check(
    kind: str,
    mode: str,
    seed: int,
    hidden: int = 4,
    l_in: int = 6,
    l_out: int = 3,
    n_vars: int = 2,
    dropout: float = 0.05,
    lam: float = 1.0,
    step: float = 1e-5,
) -> dict:
    """Compare analytic gradients against central finite differences.

    Runs a tiny model on one random window and perturbs every parameter
    entry by +-step. Dropout masks are regenerated from a fixed stream for
    every loss evaluation, so the compared function is deterministic.
    Entries whose perturbation flips a ReLU activation sign are excluded
    (the loss is not differentiable across such a kink) and counted in the
    returned report under "kinks_skipped".

    Returns {"per_group": {head: worst rel err}, "max_rel_err": float,
    "kinks_skipped": int}.
    """
    root = Rng(seed)
    params = init_params(kind, l_in, l_out, hidden, dropout, mode, root.child("init"))
    x = root.child("x").gen.standard_normal((n_vars, l_in))
    y = root.child("y").gen.standard_normal((n_vars, l_out))
    dcfg = dc.make_config(kind, kappa_t=5, kappa_s=3)
    xb = dc.decompose(x, dcfg)
    yb = dc.decompose(y, dcfg)

    def run():
        state = forward(params, xb, training=True, rng=root.child("fdmask"))
        losses, grads = loss_and_backward(params, state, yb, y, lam)
        return losses.total, grads, _relu_signature(state)

    _, analytic, _ = run()
    per_group = {}
    kinks = 0
    for name, tensor in named_tensors(params):
        flat = tensor.reshape(-1)
        g_flat = analytic[name].reshape(-1)
        group = name.split(".")[0]
        worst = per_group.get(group, 0.0)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            loss_plus, _, sig_plus = run()
            flat[i] = orig - step
            loss_minus, _, sig_minus = run()
            flat[i] = orig
            if sig_plus != sig_minus:
                kinks += 1
                continue
            fd = (loss_plus - loss_minus) / (2.0 * step)
            rel = abs(g_flat[i] - fd) / max(abs(g_flat[i]) + abs(fd), 1e-6)
            worst = max(worst, float(rel))
        per_group[group] = worst
    return {
        "per_group": per_group,
        "max_rel_err": max(per_group.values()),
        "kinks_skipped": kinks,
    }
