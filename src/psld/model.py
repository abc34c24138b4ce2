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
into them. Forward and backward are each one loop over that layout.
Embedding separate parameters block-diagonally into the merged layout
reproduces separate-mode outputs and per-parameter gradients, which the
test suite checks numerically.

Each model keeps all its parameters in one float64 vector, laid out by
``_slots`` in ``named_tensors`` order, which is also the checkpoint order.
The heads' arrays, the gradients and the ADAM moments are views into, or
vectors laid out like, that one vector.

The plain baseline (:class:`PlainParams`) is a single head on raw windows;
:func:`train_step` and :func:`predict` are the only places that tell it
apart from the decomposition model.

:func:`predict` is an inference pass. Dropout is then the identity, so a
head's second layer and predictor are one linear map, and each head runs
as ``relu(z @ W1.T + b1) @ (Wp @ W2).T + (Wp @ b2 + bp)``, with the folded
pair made once per buffers dict and no ``h2`` array. The stl decomposition
is linear in the window too (``decomposition.linear_map``), so on an stl
model each component head's first layer also takes in the matrices of its
parts, ``W1 @ P.T``, and reads the raw window: no row is decomposed, and
the merged head's first product reads l_in columns, not 3 * l_in. mvd's
split is not linear, and its inference pass decomposes the rows. The
forecasts agree with the unfolded ``forward(..., training=False)`` on
decomposed windows within a few ulps, not to the bit. Training
(``train_step``, ``forward`` and ``loss_and_backward``) always runs the
unfolded layers on decomposed windows.

All gradients here are derived and coded by hand; there is no autodiff.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field

import numpy as np

from . import decomposition as dc
from .dataset import _atomic_write
from .exceptions import CheckpointError, NumericError, ShapeError
from .numerics import Rng

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
CHECKPOINT_MAGIC = b"PSLD1"
MODES = ("separate", "merged")
# Elements per pass of adam_step: its two scratch arrays have this length
# however large the model is.
_ADAM_BLOCK = 16384
# A head's tensors in layout order: learner layers 1 and 2, then the predictor.
_SUFFIXES = ("l1.w", "l1.b", "l2.w", "l2.b", "p.w", "p.b")
# The key under which predict keeps each head's folded (Wp @ W2, Wp @ b2 + bp)
# in a buffers dict; a head with a fold there runs an inference pass.
_FOLDS = "folds"
# The key under which predict keeps, for a linear decomposer, each component
# head with the decomposition folded into its first layer (see predict).
_INPUT_FOLDS = "input folds"


def one_of(names) -> str:
    """The allowed names as error messages list them: ``'mvd' or 'stl'``."""
    return " or ".join(map(repr, names))


@dataclass
class Head:
    """Learner (w1, b1, ReLU, dropout, w2, b2) and predictor (wp, bp).

    Weights are (out, in); the widths are read off their shapes. The
    arrays are views into their model's parameter vector, bar the first
    layer of the copies ``predict`` folds stl's decomposition into.
    """

    name: str
    w1: np.ndarray  # (width, in_len)
    b1: np.ndarray  # (width,)
    w2: np.ndarray  # (width, width)
    b2: np.ndarray  # (width,)
    wp: np.ndarray  # (out_len, width)
    bp: np.ndarray  # (out_len,)


def _slots(heads: list) -> tuple:
    """The flat layout of heads given as ``head_layout`` entries.

    One (tensor name, shape, start, stop) per tensor, head by head in
    ``_SUFFIXES`` order: the order of ``named_tensors`` and of the
    checkpoint payload.
    """
    slots, start = [], 0
    for name, _, in_len, out_len, width in heads:
        shapes = ((width, in_len), (width,), (width, width), (width,), (out_len, width),
                  (out_len,))
        for suffix, shape in zip(_SUFFIXES, shapes):
            stop = start + math.prod(shape)
            slots.append((f"{name}.{suffix}", shape, start, stop))
            start = stop
    return tuple(slots)


class Tensors(dict):
    """Tensor name -> view into the float64 vector ``flat``, in layout order."""

    def __init__(self, flat: np.ndarray, slots: tuple):
        super().__init__((name, flat[start:stop].reshape(shape))
                         for name, shape, start, stop in slots)
        self.flat = flat


class _Flat:
    """Every parameter of a model in one float64 vector, ``flat``.

    ``slots`` is its layout (see ``_slots``), ``tensors`` its views and
    ``grads`` the views of the gradient vector that the backward pass
    overwrites; the heads' arrays are the ``tensors`` views. A deep copy
    binds fresh views to a copy of the vector.
    """

    def _bind(self, heads: list) -> list:
        self.slots = _slots(heads)
        size = self.slots[-1][3]
        if self.flat is None:
            self.flat = np.zeros(size)
        self.tensors = Tensors(self.flat, self.slots)
        self.grads = Tensors(np.zeros(size), self.slots)
        return [Head(name, *(self.tensors[f"{name}.{s}"] for s in _SUFFIXES))
                for name, *_ in heads]

    def __deepcopy__(self, memo):
        return dataclasses.replace(self, flat=self.flat.copy())


@dataclass(eq=False)
class PsldParams(_Flat):
    """Component heads in ``head_layout`` order, then the combinator."""

    kind: str            # "mvd" | "stl"
    mode: str            # "separate" | "merged"
    l_in: int
    l_out: int
    hidden: int
    dropout: float
    flat: np.ndarray | None = None  # all zeros if None
    heads: dict = field(init=False, repr=False)         # name -> Head
    combinator: Head = field(init=False, repr=False)

    def __post_init__(self):
        *heads, self.combinator = self._bind(
            _psld_heads(self.kind, self.mode, self.l_in, self.l_out, self.hidden))
        self.heads = {head.name: head for head in heads}


@dataclass(eq=False)
class PlainParams(_Flat):
    """Single head mapping raw input windows to forecasts, no decomposition."""

    l_in: int
    l_out: int
    hidden: int
    dropout: float
    flat: np.ndarray | None = None
    head: Head = field(init=False, repr=False)

    def __post_init__(self):
        (self.head,) = self._bind([("main", (), self.l_in, self.l_out, self.hidden)])


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
    raise ValueError(f"mode must be {one_of(MODES)}, got {mode!r}")


def _psld_heads(kind: str, mode: str, l_in: int, l_out: int, hidden: int) -> tuple:
    return head_layout(kind, mode, l_in, l_out, hidden) + (("cbn", (), l_out, l_out, hidden),)


def _layout(params: PsldParams) -> tuple:
    return head_layout(params.kind, params.mode, params.l_in, params.l_out, params.hidden)


def _init_weights(params, rng: Rng):
    """Uniform(-sqrt(1/fan_in), sqrt(1/fan_in)) weights, zero biases."""
    if not 0.0 <= params.dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {params.dropout}")
    for name, shape, *_ in params.slots:
        if len(shape) == 2:
            if min(shape) < 1:
                raise ValueError(f"layer dims must be positive, got {shape}")
            head, layer, _ = name.split(".")
            bound = math.sqrt(1.0 / shape[1])
            params.tensors[name][...] = rng.child(head).child(layer).gen.uniform(
                -bound, bound, size=shape)
    return params


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
    return _init_weights(PsldParams(kind, mode, l_in, l_out, hidden, dropout), rng)


def init_plain_params(l_in: int, l_out: int, hidden: int, dropout: float, rng: Rng) -> PlainParams:
    return _init_weights(PlainParams(l_in, l_out, hidden, dropout), rng)


@dataclass
class HeadCache:
    """What a head's backward pass reads; the benchmark's tracer reads these fields.

    The backward pass writes its hidden gradients over ``h2`` and
    ``h1``/``ad`` once it has read them, so a cache serves one backward pass.
    An inference pass (``predict``) makes no ``h2``: its cache holds None
    there, and no backward pass can read it.
    """

    z: np.ndarray  # the input
    h1: np.ndarray  # relu(z @ W1.T + b1) * keep / (1 - p), written over the pre-activation
    mask: np.float64 | None  # the dropout scale 1 / (1 - p), None without dropout
    ad: np.ndarray  # the same array as h1
    h2: np.ndarray | None  # ad @ W2.T + b2; None on an inference pass
    out: np.ndarray  # h2 @ Wp.T + bp, or ad @ (Wp @ W2).T + (Wp @ b2 + bp) on an inference pass


def _buffer(buffers: dict | None, key: str, shape: tuple) -> np.ndarray:
    """A (rows, width) array: a fresh one without buffers, else the first rows of the one kept.

    The array kept under ``key`` has the most rows asked for so far; it is
    made anew only for more rows or another width, and the C-contiguous
    view of its first ``rows`` is returned. So row blocks whose sizes
    differ by one row share one array.
    """
    if buffers is None:
        return np.empty(shape)
    buf = buffers.get(key)
    if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]:
        buf = buffers[key] = np.empty(shape)
    return buf[:shape[0]]


def _product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` written into ``out``.

    numpy's matmul runs a one-column ``a`` (the mvd m and v heads' input
    and output) through its own loop, about twice as slow as ``np.dot``,
    which hands it to BLAS with the same bits, zero signs included. For
    wider ``a``, matmul is the faster.
    """
    return (np.dot if a.shape[1] == 1 else np.matmul)(a, b, out=out)


def _head_forward(head: Head, z: np.ndarray, dropout: float, rng: Rng | None,
                  buffers: dict | None = None):
    """Output and backward cache of one head.

    A dropout mask is drawn only when an rng is given, so evaluation
    passes None and is deterministic. With ``buffers`` (see ``forward``)
    the hidden and output arrays are written into arrays kept there. If
    ``buffers`` holds the head's fold (``predict`` puts it there), the pass
    is an inference pass: the output is ``relu(z @ W1.T + b1) @ fold.T +
    bias`` and no ``h2`` is made.
    """
    name, in_len = head.name, head.w1.shape[1]
    if z.ndim != 2 or z.shape[1] != in_len:
        raise ShapeError(f"head '{name}': expected input (rows, {in_len}), got {z.shape}")
    hidden = (z.shape[0], head.w1.shape[0])
    a = _product(z, head.w1.T, _buffer(buffers, f"{name}.h1", hidden))
    a += head.b1
    np.maximum(a, 0.0, out=a)
    out_shape = (z.shape[0], head.wp.shape[0])
    if buffers is not None and _FOLDS in buffers:
        fold, bias = buffers[_FOLDS][name]
        out = np.matmul(a, fold.T, out=_buffer(buffers, f"{name}.out", out_shape))
        out += bias
        return out, HeadCache(z, a, None, a, None, out)
    h2 = _buffer(buffers, f"{name}.h2", hidden)
    scale = None
    if rng is not None and dropout > 0.0:
        # inverted dropout: zero with probability p, scale survivors by 1/(1-p);
        # the uniforms are drawn into h2, which is not written until after
        a *= rng.gen.random(out=h2) >= dropout
        scale = np.float64(1.0 / (1.0 - dropout))
        a *= scale
    np.matmul(a, head.w2.T, out=h2)
    h2 += head.b2
    out = np.matmul(h2, head.wp.T, out=_buffer(buffers, f"{name}.out", out_shape))
    out += head.bp
    return out, HeadCache(z, a, scale, a, h2, out)


def _head_backward(head: Head, cache: HeadCache, g_out: np.ndarray, grads: Tensors) -> np.ndarray:
    """Write this head's gradients from d(loss)/d(out) into ``grads``; return d(loss)/d(h1).

    With out = h2 @ Wp.T + bp the weight gradient is g_out.T @ h2 and the
    bias gradient the column sums of g_out; the two learner layers follow
    the same pattern with the dropout scale and then the ReLU gate ad > 0
    (kept and positive) applied on the way down. This order keeps the bits,
    zero signs included, of the float-mask product while d_ad / (1 - p) is finite.
    Each hidden gradient is written over the cache array it replaces once
    that array has been read, d_h2 into ``h2`` and d_h1 into ``h1``/``ad``,
    so no (rows, width) float array is allocated. The returned d_h1 is that
    ``ad`` array; d(loss)/d(z) is ``d_h1 @ W1``, which only the combinator's
    caller forms.
    """
    name = head.name
    np.matmul(g_out.T, cache.h2, out=grads[f"{name}.p.w"])
    np.sum(g_out, axis=0, out=grads[f"{name}.p.b"])
    d_h2 = _product(g_out, head.wp, cache.h2)
    np.matmul(d_h2.T, cache.ad, out=grads[f"{name}.l2.w"])
    np.sum(d_h2, axis=0, out=grads[f"{name}.l2.b"])
    gate = cache.ad > 0.0
    d_h1 = np.matmul(d_h2, head.w2, out=cache.ad)
    if cache.mask is not None:
        d_h1 *= cache.mask
    d_h1 *= gate
    np.matmul(d_h1.T, cache.z, out=grads[f"{name}.l1.w"])
    np.sum(d_h1, axis=0, out=grads[f"{name}.l1.b"])
    return d_h1


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
    x_bundle: dc.ComponentBundle | np.ndarray,
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
    ``loss_and_backward`` consumes the state: it writes the hidden
    gradients over every cache's ``h1`` and ``h2``. Buffers that ``predict``
    has used hold its folds, and make every pass through them an inference
    pass, whose state has no ``h2`` to backpropagate through.

    ``x_bundle`` is a ``ComponentBundle`` of the model's kind, or, on an
    inference pass of a linear decomposer (stl), the raw (rows, l_in)
    windows: every component head then reads them whole, through the first
    layer ``predict`` folded the decomposition into and kept in ``buffers``.
    """
    if isinstance(x_bundle, dc.ComponentBundle):
        if x_bundle.kind != params.kind:
            raise ValueError(f"bundle kind {x_bundle.kind!r} does not match model {params.kind!r}")
        comp_in = {nm: np.asarray(x_bundle.parts[nm], dtype=np.float64)
                   for nm in dc.part_names(params.kind)}
        heads = params.heads
    elif buffers is not None and _INPUT_FOLDS in buffers:
        x_rows, comp_in, heads = np.asarray(x_bundle, dtype=np.float64), None, buffers[_INPUT_FOLDS]
    else:
        raise ValueError("raw input windows need the folded first layers that predict "
                         "keeps in its buffers")
    if not training:
        rng = None
    elif params.dropout > 0.0 and rng is None:
        raise ValueError("training forward with dropout needs an rng")
    out_lens = {nm: olen for nm, _, olen in head_plan(params.kind, params.l_in, params.l_out)}

    comp_hat, caches = {}, {}
    for name, parts, *_ in _layout(params):
        z = x_rows if comp_in is None else _concat([comp_in[nm] for nm in parts])
        out, caches[name] = _head_forward(heads[name], z, params.dropout, rng, buffers)
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
    """Evaluation-mode forecast for stacked (rows, l_in) input windows: an inference pass.

    Dropout is the identity at inference, so each head's second layer and
    predictor fold into one ``(out_len, width)`` matrix ``Wp @ W2`` and one
    bias ``Wp @ b2 + bp``, and the head runs ``relu(z @ W1.T + b1) @ (Wp @
    W2).T + (Wp @ b2 + bp)`` without a ``(rows, width) @ (width, width)``
    product. A linear decomposer (stl, see ``dc.linear_map``) also folds
    into each component head's first layer: a head whose input joins the
    parts with matrices ``P = [M_t | M_s | ...]`` (its ``head_layout``
    parts) gets ``z @ W1.T = x @ (W1 @ P.T).T``, so it reads the raw
    windows and no row is decomposed. mvd's split is not linear, and its
    rows are decomposed as in training. The forecast agrees with
    ``forward(..., training=False).y_hat`` within a few ulps, not to the
    bit. ``buffers`` is passed on as in ``forward``; the forecast may then
    be one of them, valid until the next call with the same buffers. The
    folds are made on the first call with a buffers dict and kept in it,
    so a buffers dict serves one set of parameter values: once the
    parameters change, pass a fresh one. Without ``buffers`` the call makes
    its own dict, and with it the same bits.
    """
    plain = isinstance(params, PlainParams)
    if not plain and dcfg is None:
        raise ValueError("predict on decomposition models needs a decomposer config")
    if buffers is None:
        buffers = {}
    if _FOLDS not in buffers:
        heads = [params.head] if plain else [*params.heads.values(), params.combinator]
        buffers[_FOLDS] = {h.name: (h.wp @ h.w2, h.wp @ h.b2 + h.bp) for h in heads}
        maps = None if plain else dc.linear_map(dcfg, params.l_in)
        if maps is not None:
            folded = buffers[_INPUT_FOLDS] = {}
            for name, parts, *_ in _layout(params):
                head = params.heads[name]
                p_t = _concat([maps[nm] for nm in parts]).T
                folded[name] = dataclasses.replace(head, w1=head.w1 @ p_t)
    if plain:
        return _head_forward(params.head, x_rows, params.dropout, None, buffers)[0]
    x = x_rows if _INPUT_FOLDS in buffers else dc.decompose(x_rows, dcfg)
    return forward(params, x, training=False, buffers=buffers).y_hat


@dataclass(frozen=True)
class LossParts:
    total: float
    cbn: float
    cpn: float
    per_component: dict


def _mse(hat: np.ndarray, ref: np.ndarray, what: str) -> tuple:
    """(mse, hat - ref) of one loss term; a shape mismatch or non-finite loss names ``what``."""
    if hat.shape != ref.shape:
        raise ShapeError(f"{what}: prediction {hat.shape} vs target {ref.shape}")
    residual = hat - ref
    loss = float(np.mean(residual ** 2))
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss in {what}")
    return loss, residual


def train_step(params, x_rows: np.ndarray, y_rows: np.ndarray, dcfg, lam: float, rng: Rng,
               buffers: dict | None = None):
    """Training forward and backward pass on stacked rows: (LossParts, grads).

    Decomposition models decompose inputs and targets with ``dcfg`` and
    minimise cbn + lam * cpn; the plain model minimises the forecast MSE
    alone. Dropout masks come from ``rng``, and ``buffers`` is passed on
    to the forward pass as in ``forward``. No state of the forward pass
    outlives the call; the gradients are ``params.grads``, valid until
    the next backward pass on ``params``.
    """
    if isinstance(params, PlainParams):
        out, cache = _head_forward(params.head, x_rows, params.dropout, rng, buffers)
        loss, g_out = _mse(out, y_rows, "head 'main'")
        g_out *= 2.0 / y_rows.size
        _head_backward(params.head, cache, g_out, params.grads)
        return LossParts(loss, loss, 0.0, {}), params.grads
    state = forward(params, dc.decompose(x_rows, dcfg), training=True, rng=rng, buffers=buffers)
    return loss_and_backward(params, state, dc.decompose(y_rows, dcfg), y_rows, lam)


def _losses(params: PsldParams, state: ForwardState, label_bundle: dc.ComponentBundle,
            y: np.ndarray, lam: float) -> tuple:
    """(LossParts, residuals): ``loss_and_backward``'s loss terms, with no backward pass,
    and each part's new ``hat - ref`` by name, the forecast's ``y_hat - y`` as ``"cbn"``."""
    if label_bundle.kind != params.kind:
        raise ValueError(
            f"label bundle kind {label_bundle.kind!r} does not match model {params.kind!r}"
        )
    comp_losses, residuals = {}, {}
    for nm in dc.part_names(params.kind):
        comp_losses[nm], residuals[nm] = _mse(state.comp_hat[nm], label_bundle.parts[nm],
                                              f"component head '{nm}'")
    l_cpn = sum(comp_losses.values())
    l_cbn, residuals["cbn"] = _mse(state.y_hat, y, "combinator head 'cbn'")
    return LossParts(l_cbn + lam * l_cpn, l_cbn, l_cpn, comp_losses), residuals


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
    exactly, the loss and every gradient are zero. The gradients are
    written into ``params.grads`` and stay valid until the next backward
    pass on ``params``. Each head's backward pass overwrites the ``h1``/``ad``
    and ``h2`` arrays of its cache in ``state``, so a state serves one call.
    """
    losses, d_hat = _losses(params, state, label_bundle, y, lam)
    grads = params.grads
    g_y = d_hat["cbn"]
    g_y *= 2.0 / y.size
    cbn = params.combinator
    g_cbn_in = _head_backward(cbn, state.cbn_cache, g_y, grads) @ cbn.w1

    # route the forecast gradient into the predicted components
    if params.kind == "mvd":
        routed = {
            "m": g_y.sum(axis=1, keepdims=True),
            "v": (g_cbn_in * state.comp_hat["r"]).sum(axis=1, keepdims=True),
        }
        # r's gradient goes over g_cbn_in, which v's has read
        routed["r"] = np.multiply(g_cbn_in, state.comp_hat["v"], out=g_cbn_in)
    else:
        routed = {"t": g_y, "s": g_cbn_in, "r": g_cbn_in}

    # each component's residual becomes its gradient in place
    for nm in dc.part_names(params.kind):
        d = d_hat[nm]
        d *= lam * (2.0 / d.size)
        d += routed[nm]

    for name, parts, *_ in _layout(params):
        g_out = _concat([d_hat[nm] for nm in parts])
        _head_backward(params.heads[name], state.head_caches[name], g_out, grads)
    return losses, grads


def named_tensors(params) -> list:
    """Ordered (name, array) pairs: views into the parameter vector, in checkpoint order."""
    return list(params.tensors.items())


@dataclass
class AdamState:
    m: np.ndarray  # first and second moments, laid out like the parameter vector
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat), 0)


def adam_step(params, grads: Tensors, state: AdamState, lr: float):
    """One bias-corrected ADAM update, applied in place.

    m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t),
    p <- p - lr * m_hat / (sqrt(v_hat) + eps). Zero gradients leave the
    parameters unchanged while still advancing t. ``grads`` is laid out
    like ``params`` (``params.grads`` after a backward pass). The update
    is a fixed sequence of elementwise in-place passes over blocks of
    ``_ADAM_BLOCK`` entries of the parameter, gradient and moment vectors.
    """
    p, g, m, v = params.flat, grads.flat, state.m, state.v
    if not p.shape == g.shape == m.shape == v.shape:
        raise ShapeError(f"adam_step: vectors {p.shape} {g.shape} {m.shape} {v.shape} differ")
    state.t += 1
    b1c = 1.0 - ADAM_BETA1 ** state.t
    b2c = 1.0 - ADAM_BETA2 ** state.t
    step, denom = np.empty((2, min(_ADAM_BLOCK, p.size)))
    for lo in range(0, p.size, _ADAM_BLOCK):
        pb, gb, mb, vb = (a[lo:lo + _ADAM_BLOCK] for a in (p, g, m, v))
        sb, db = step[:len(pb)], denom[:len(pb)]
        mb *= ADAM_BETA1
        mb += np.multiply(gb, 1.0 - ADAM_BETA1, out=sb)
        vb *= ADAM_BETA2
        np.multiply(gb, gb, out=sb)
        vb += np.multiply(sb, 1.0 - ADAM_BETA2, out=sb)
        np.sqrt(np.divide(vb, b2c, out=db), out=db)
        db += ADAM_EPS
        np.divide(mb, b1c, out=sb)
        sb *= lr
        pb -= np.divide(sb, db, out=sb)
    return params, state


def _merged_blocks(kind: str, l_in: int, l_out: int, hidden: int) -> tuple:
    """Where each separate-mode tensor sits in the merged-mode layout.

    One (separate name, merged name, index) per separate tensor. The
    separate heads of ``head_layout`` occupy the merged head's hidden
    units, inputs and outputs in turn, so each embeds as a diagonal
    block; the combinator maps onto itself whole.
    """
    blocks = []
    units = ins = outs = 0
    for name, _, in_len, out_len, width in head_layout(kind, "separate", l_in, l_out, hidden):
        u, i, o = (slice(units, units + width), slice(ins, ins + in_len),
                   slice(outs, outs + out_len))
        for suffix, index in zip(_SUFFIXES, ((u, i), u, (u, u), u, (o, u), o)):
            blocks.append((f"{name}.{suffix}", f"merged.{suffix}", index))
        units, ins, outs = units + width, ins + in_len, outs + out_len
    blocks.extend((f"cbn.{suffix}", f"cbn.{suffix}", ...) for suffix in _SUFFIXES)
    return tuple(blocks)


def merge_params(sep: PsldParams) -> PsldParams:
    """Embed separate heads block-diagonally into one merged head.

    Off-block weights are zero, so the merged model computes the same
    function as the separate heads on concatenated components. The
    combinator is copied unchanged.
    """
    if set(sep.heads) != {nm for nm, _, _ in head_plan(sep.kind, sep.l_in, sep.l_out)}:
        raise ValueError("merge_params expects separate-mode parameters")
    merged = PsldParams(sep.kind, "merged", sep.l_in, sep.l_out, sep.hidden, sep.dropout)
    for sep_name, merged_name, index in _merged_blocks(sep.kind, sep.l_in, sep.l_out,
                                                        sep.hidden):
        merged.tensors[merged_name][index] = sep.tensors[sep_name]
    return merged


def extract_merged_grad_blocks(grads: dict, sep: PsldParams) -> dict:
    """Pull the embedded-block entries of merged-mode gradients.

    Returns gradients keyed like separate mode, covering every position a
    separate parameter was embedded at. Off-block merged gradients have no
    separate counterpart and are ignored.
    """
    return {sep_name: grads[merged_name][index] for sep_name, merged_name, index
            in _merged_blocks(sep.kind, sep.l_in, sep.l_out, sep.hidden)}


def save_checkpoint(path, params: PsldParams, config: dict) -> None:
    """Binary tensor container plus a JSON sidecar at path + '.json'.

    Layout: the magic bytes, then for each tensor a little-endian u32 name
    length, the UTF-8 name, a u32 rank, u64 dims, and the float64 payload.
    The payloads, in order, are the parameter vector. Identical parameters
    serialize to identical bytes.
    """
    with _atomic_write(path, binary=True) as f:
        f.write(CHECKPOINT_MAGIC)
        for name, shape, start, stop in params.slots:
            encoded = name.encode("utf-8")
            f.write(struct.pack(f"<I{len(encoded)}sI{len(shape)}Q",
                                len(encoded), encoded, len(shape), *shape))
            f.write(params.flat[start:stop].astype("<f8", copy=False))
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
    with _atomic_write(str(path) + ".json") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")


def _is_count(value) -> bool:
    return type(value) is int and value >= 1


# (field, check, what the check wants) for every model field a sidecar carries
_SIDECAR_SCHEMA = (
    ("kind", lambda v: v in dc.KINDS, one_of(dc.KINDS)),
    ("mode", lambda v: v in MODES, one_of(MODES)),
    ("l_in", _is_count, "an integer >= 1"),
    ("l_out", _is_count, "an integer >= 1"),
    ("hidden", _is_count, "an integer >= 1"),
    ("dropout", lambda v: type(v) in (int, float) and 0.0 <= v < 1.0, "a number in [0, 1)"),
    ("config", lambda v: isinstance(v, dict), "a JSON object"),
)


def _read_sidecar(path) -> dict:
    """The JSON sidecar of the checkpoint at path, its model fields checked."""
    where = f"checkpoint sidecar {path}.json"
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as side:
            sidecar = json.load(side)
    except FileNotFoundError:
        raise CheckpointError(f"missing {where}") from None
    except ValueError as err:
        raise CheckpointError(f"{where} is not valid JSON: {err}") from None
    if not isinstance(sidecar, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    for key, check, want in _SIDECAR_SCHEMA:
        if key not in sidecar:
            raise CheckpointError(f"{where} has no field {key!r}")
        if not check(sidecar[key]):
            raise CheckpointError(f"{where}: field {key!r} must be {want}, got {sidecar[key]!r}")
    return sidecar


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint while reading {what}")
    return data


def _read_name(f, longest: int) -> str | None:
    """The next record's tensor name, or None at the end of the file."""
    head = f.read(4)
    if not head:
        return None
    if len(head) != 4:
        raise CheckpointError("truncated checkpoint while reading a name length")
    (name_len,) = struct.unpack("<I", head)
    if name_len > longest:
        raise CheckpointError(f"tensor name of {name_len} bytes, longer than any in the layout")
    raw = _read_exact(f, name_len, "a tensor name")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"tensor name {raw!r} is not UTF-8") from None


def load_checkpoint(path):
    """Read a checkpoint back into PsldParams plus its sidecar dict.

    The sidecar fixes the layout, and the records must follow it. Each
    record is checked against its slot before its payload is read
    straight into the parameter vector: a missing, unknown, duplicate or
    misshaped tensor raises ``CheckpointError`` naming it.
    """
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic in checkpoint {path}: {magic!r}")
        sidecar = _read_sidecar(path)
        kind, mode = sidecar["kind"], sidecar["mode"]
        l_in, l_out, hidden = sidecar["l_in"], sidecar["l_out"], sidecar["hidden"]
        dropout = float(sidecar["dropout"])
        slots = _slots(_psld_heads(kind, mode, l_in, l_out, hidden))
        if 8 * slots[-1][3] > os.fstat(f.fileno()).st_size:
            raise CheckpointError(f"checkpoint {path} is too small for the "
                                  f"{slots[-1][3]} parameters its sidecar describes")
        params = PsldParams(kind, mode, l_in, l_out, hidden, dropout)
        longest = max(len(name) for name, *_ in slots)
        for name, shape, start, stop in slots:
            found = _read_name(f, longest)
            if found is None:
                raise CheckpointError(f"checkpoint is missing tensor {name!r}")
            if found != name:
                raise CheckpointError(f"unexpected tensor {found!r} where {name!r} belongs")
            (rank,) = struct.unpack("<I", _read_exact(f, 4, f"rank of {name!r}"))
            if rank != len(shape):
                raise CheckpointError(f"tensor {name!r} has rank {rank}, expected {len(shape)}")
            dims = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank, f"dims of {name!r}"))
            if dims != shape:
                raise CheckpointError(f"tensor {name!r} has shape {dims}, expected {shape}")
            payload = params.flat[start:stop]
            if f.readinto(payload) != payload.nbytes:
                raise CheckpointError(f"truncated checkpoint while reading payload of {name!r}")
            if sys.byteorder == "big":
                payload.byteswap(inplace=True)
        extra = _read_name(f, longest)
        if extra is not None:
            raise CheckpointError(f"unexpected tensor {extra!r} after the last one")
    return params, sidecar


# The tiny model finite_difference_check differentiates: hidden width, input
# and horizon lengths, rows of its one random window, dropout and lambda; and
# the central-difference step.
FD_HIDDEN, FD_L_IN, FD_L_OUT, FD_N_VARS, FD_DROPOUT, FD_LAM = 4, 6, 3, 2, 0.05, 1.0
FD_STEP = 1e-5


def finite_difference_check(kind: str, mode: str, seed: int) -> dict:
    """Compare analytic gradients against central finite differences.

    Runs a tiny model (the ``FD_*`` constants) on one random window and
    perturbs every parameter entry by +-``FD_STEP``. Dropout masks are
    regenerated from a fixed stream for every loss evaluation, so the
    compared function is deterministic.
    Entries whose perturbation flips the sign of a kept activation are
    excluded (the loss is not differentiable across such a kink) and counted
    under "kinks_skipped". A kink on a dropped unit does not move the loss:
    it is compared, so fewer entries are skipped than with pre-activation signs.

    Returns {"per_group": {head: worst rel err}, "max_rel_err": float,
    "kinks_skipped": int}.
    """
    root = Rng(seed)
    params = init_params(kind, FD_L_IN, FD_L_OUT, FD_HIDDEN, FD_DROPOUT, mode,
                         root.child("init"))
    x = root.child("x").gen.standard_normal((FD_N_VARS, FD_L_IN))
    y = root.child("y").gen.standard_normal((FD_N_VARS, FD_L_OUT))
    dcfg = dc.make_config(kind, kappa_t=5, kappa_s=3)
    xb = dc.decompose(x, dcfg)
    yb = dc.decompose(y, dcfg)

    def run():
        return forward(params, xb, training=True, rng=root.child("fdmask"))

    def score(state):
        """The loss and the sign pattern of every kept activation."""
        caches = (*state.head_caches.values(), state.cbn_cache)
        return (_losses(params, state, yb, y, FD_LAM)[0].total,
                tuple(np.packbits(cache.ad > 0.0).tobytes() for cache in caches))

    # the one backward pass; the perturbed runs below only score the loss
    analytic = loss_and_backward(params, run(), yb, y, FD_LAM)[1].flat
    flat = params.flat
    per_group = {}
    kinks = 0
    for name, _, start, stop in params.slots:
        group = name.split(".")[0]
        worst = per_group.get(group, 0.0)
        for i in range(start, stop):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            loss_plus, sig_plus = score(run())
            flat[i] = orig - FD_STEP
            loss_minus, sig_minus = score(run())
            flat[i] = orig
            if sig_plus != sig_minus:
                kinks += 1
                continue
            fd = (loss_plus - loss_minus) / (2.0 * FD_STEP)
            rel = abs(analytic[i] - fd) / max(abs(analytic[i]) + abs(fd), 1e-6)
            worst = max(worst, float(rel))
        per_group[group] = worst
    return {
        "per_group": per_group,
        "max_rel_err": max(per_group.values()),
        "kinks_skipped": kinks,
    }
