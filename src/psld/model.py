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

:func:`_head_forward` is the one head pass, of training and inference
alike. A head's second layer is linear after dropout, and so is its
predictor, so the two fold into one ``(out_len, width)`` map, far smaller
than the ``(width, width)`` layer at the defaults: each head runs as
``dropout(relu(z @ W1.T + b1)) @ U.T + c`` with ``U = Wp @ W2`` and ``c =
Wp @ b2 + bp``, made once per pass, and its backward pass runs the chain
through ``U`` (see ``_head_backward``). Such a pass makes no ``h2`` array
and no ``(rows, width) @ (width, width)`` product. Only a training pass of
at most ``out_len`` rows, for which the fold costs more multiply-adds,
runs the two layers in turn. :func:`predict` is an inference pass:
dropout is the identity, and it makes the folds once per buffers dict.
The stl decomposition is linear in the window too
(``decomposition.linear_map``), so on an stl model each component head's
first layer also takes in the matrices of its parts, ``W1 @ P.T``, and
reads the raw window: no row is decomposed, and the merged head's first
product reads l_in columns, not 3 * l_in. So an stl forecast agrees with
``forward(..., training=False)`` on decomposed windows within a few ulps,
not to the bit. mvd's split is not linear, and its inference pass
decomposes the rows. A head of one input and one output (mvd/separate's
m and v heads) is, at inference, a piecewise-linear function of its
input with at most ``width`` breakpoints: ``predict`` tabulates each
interval's slope and intercept (``_Scalar``), and the pass looks up the
row's interval and makes no hidden array. So an mvd/merged or plain
forecast has the bits of a training pass without dropout on more rows
than outputs, and an mvd/separate one agrees with it within rounding.

All gradients here are derived and coded by hand; there is no autodiff.
"""

from __future__ import annotations

import dataclasses
import hashlib
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
    layer of the copies ``predict`` folds stl's decomposition into. Passes
    run the second layer and predictor folded into one map (see ``_fold``
    and ``_head_forward``); the checkpoint keeps them apart.
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

    A pass keeps either ``fold`` (U = Wp @ W2) or, with at most out_len
    rows, ``h2`` (see ``_head_forward``); the other is None. The backward
    pass writes its hidden gradients over ``h1``/``ad`` and ``h2``, or a
    gradient term over ``fold``, once it has read them, so a cache serves
    one backward pass. An inference pass (``predict``) uses the fold
    ``predict`` keeps: its cache holds None under both, and no backward
    pass can read it. The inference pass of a head of one input and one
    output makes no hidden array either: its cache holds ``z`` and ``out``,
    and None in every other field.
    """

    z: np.ndarray  # the input
    h1: np.ndarray | None  # relu(z @ W1.T + b1) * keep / (1 - p), written over the pre-activation
    mask: np.float64 | None  # the dropout scale 1 / (1 - p), None without dropout
    ad: np.ndarray | None  # the same array as h1
    h2: np.ndarray | None  # ad @ W2.T + b2, made only by a pass of at most out_len rows
    out: np.ndarray  # ad @ U.T + c, with (U, c) the head's _fold, or h2 @ Wp.T + bp
    fold: np.ndarray | None  # U = Wp @ W2 as this pass made it, or None


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

    numpy's matmul runs a one-column ``a`` (the mvd m and v heads' input,
    and their output gradient in ``g_out @ U``) through its own loop, about
    twice as slow as ``np.dot``, which hands it to BLAS with the same bits,
    zero signs included. For wider ``a``, matmul is the faster.
    """
    return (np.dot if a.shape[1] == 1 else np.matmul)(a, b, out=out)


def _fold(head: Head, out: np.ndarray | None = None) -> tuple:
    """(U, c) = (Wp @ W2, Wp @ b2 + bp): the head's second layer and predictor as one map.

    The second layer is linear after dropout, so ``a @ W2.T + b2`` followed
    by the predictor is ``a @ U.T + c``, an (out_len, width) product in
    place of a (width, width) one. ``U`` is written into ``out`` if given.
    """
    bias = head.wp @ head.b2
    bias += head.bp
    return np.matmul(head.wp, head.w2, out=out), bias


@dataclass(frozen=True)
class _Scalar:
    """A head of one input and one output as the piecewise-linear map it computes.

    Without dropout, ``relu(z * w1 + b1) @ U.T + c`` is linear in ``z``
    between the breakpoints ``t_j = -b1_j / w1_j`` of its units with
    ``w1_j != 0``: on interval ``k``, ``breaks[k - 1] <= z < breaks[k]``,
    it is ``slopes[k] * z + intercepts[k]``, with ``slopes[k]`` the sum
    of ``U_j w1_j`` and ``intercepts[k]`` that of ``U_j b1_j``, plus
    ``c``, over the units active there. A unit with ``w1_j > 0`` is
    active above its breakpoint and one with ``w1_j < 0`` below it, which
    its rank among the sorted breakpoints decides; a unit with ``w1_j =
    0`` adds ``U_j relu(b1_j)`` to every intercept. So a row costs a
    binary search over at most ``width`` breakpoints, two gathers and a
    multiply-add, in place of the head's ``(rows, width)`` hidden array.
    It agrees with the head's pass within ``(width + 4) * eps`` times
    ``sum_j |U_j| (|w1_j z| + |b1_j|) + |c|``, ``eps`` float64's machine
    epsilon: each side rounds within ``(width + 3) * eps / 2`` times that
    sum, and a breakpoint's rounding can put a unit on the wrong side of
    ``z`` only where its term is within ``eps / 2`` times ``|U_j b1_j|``.
    A NaN input gives a NaN output.
    """

    breaks: np.ndarray  # (n,) the sorted breakpoints of the n units with w1_j != 0
    slopes: np.ndarray  # (n + 1,) one per interval
    intercepts: np.ndarray  # (n + 1,)

    @classmethod
    def of(cls, head: Head, u: np.ndarray, c: np.ndarray) -> "_Scalar":
        """The map of ``head``, whose ``_fold`` is ``(u, c)``."""
        w, b, u = head.w1[:, 0], head.b1, u[0]
        turns = w != 0.0
        breaks = -b[turns] / w[turns]
        # a stable sort ranks tied breakpoints in unit order on every CPU, so
        # the sums below, and the forecasts' bits, do not depend on the sort
        order = np.argsort(breaks, kind="stable")
        w_on, b_on, u_on = (arr[turns][order] for arr in (w, b, u))
        # the unit of rank r is active on interval k from k = r + 1 up if
        # w1 > 0, and up to k = r if w1 < 0
        k, r = np.arange(breaks.size + 1)[:, None], np.arange(breaks.size)
        active = ((k > r) == (w_on > 0.0)).astype(np.float64)
        intercepts = active @ (u_on * b_on)
        intercepts += u[~turns] @ np.maximum(b[~turns], 0.0) + c[0]
        return cls(breaks[order], active @ (u_on * w_on), intercepts)

    def __call__(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The map of the (rows, 1) inputs ``z``, written into the (rows, 1) ``out``."""
        k = np.searchsorted(self.breaks, z[:, 0], side="right")
        col = out[:, 0]
        # k is in [0, n], so nothing is clipped; "clip" lets take write to col unbuffered
        np.take(self.slopes, k, out=col, mode="clip")
        col *= z[:, 0]
        col += np.take(self.intercepts, k)
        return out


def _inference_fold(head: Head):
    """What ``predict`` keeps for a head: its ``_fold`` ``(U, c)``, or its ``_Scalar`` map.

    A head of one input and one output gets the map, unless a parameter
    the map reads is not finite: the head's pass then keeps its NaNs and
    infinities as they fall.
    """
    fold = _fold(head)
    if head.w1.shape[1] == head.wp.shape[0] == 1 and all(
            np.isfinite(arr).all() for arr in (head.w1, head.b1, *fold)):
        return _Scalar.of(head, *fold)
    return fold


def _head_forward(head: Head, z: np.ndarray, dropout: float, rng: Rng | None,
                  buffers: dict | None = None):
    """Output and backward cache of one head: ``dropout(relu(z @ W1.T + b1)) @ U.T + c``.

    ``(U, c)`` is the head's ``_fold``, made once per pass, so a pass of
    more rows than outputs makes no ``(rows, width) @ (width, width)``
    product and no ``h2`` array: per row it saves ``3 * width**2``
    multiply-adds, forward and backward, and per pass it pays ``3 *
    out_len * width**2``. A training pass of at most ``out_len`` rows
    (the merged stl head's 64-row steps, say) runs the cheaper
    association, ``h2 = a @ W2.T + b2`` and then ``h2 @ Wp.T + bp``, and
    caches ``h2`` in place of ``U``. A dropout mask is drawn only when an
    rng is given, so evaluation passes None and is deterministic. With
    ``buffers`` (see ``forward``) the hidden and output arrays are written
    into arrays kept there, and ``U`` or ``h2``, which no pass makes both
    of, into one array per head kept under ``<head>.l2``. If ``buffers``
    holds the head's fold (``predict`` puts it there), the pass is an
    inference pass: it uses that fold whatever its rows, and its cache
    holds neither ``U`` nor ``h2``, so no backward pass can read it. A
    head of one input and one output has a ``_Scalar`` map there in place
    of ``(U, c)``: its inference pass runs that map, makes no hidden
    array, and its cache holds ``z`` and ``out`` alone.
    """
    name, in_len = head.name, head.w1.shape[1]
    if z.ndim != 2 or z.shape[1] != in_len:
        raise ShapeError(f"head '{name}': expected input (rows, {in_len}), got {z.shape}")
    out_shape = (z.shape[0], head.wp.shape[0])
    inference = buffers[_FOLDS][name] if buffers is not None and _FOLDS in buffers else None
    if isinstance(inference, _Scalar):
        out = inference(z, _buffer(buffers, f"{name}.out", out_shape))
        return out, HeadCache(z, None, None, None, None, out, None)
    hidden = (z.shape[0], head.w1.shape[0])
    a = _product(z, head.w1.T, _buffer(buffers, f"{name}.h1", hidden))
    a += head.b1
    np.maximum(a, 0.0, out=a)
    scale = None
    if rng is not None and dropout > 0.0:
        # inverted dropout: zero with probability p, scale survivors by 1/(1-p);
        # the uniforms are used up at once, so every head draws into one flat
        # buffer, kept as large as the largest head's draw
        draw = _buffer(buffers, "draw", (a.size,)).reshape(hidden)
        a *= rng.gen.random(out=draw) >= dropout
        scale = np.float64(1.0 / (1.0 - dropout))
        a *= scale
    left, h2, fold = a, None, None
    if inference is not None:
        right, bias = inference
    elif out_shape[0] > out_shape[1]:
        right, bias = _fold(head, _buffer(buffers, f"{name}.l2", head.wp.shape))
        fold = right
    else:
        left = h2 = np.matmul(a, head.w2.T, out=_buffer(buffers, f"{name}.l2", hidden))
        h2 += head.b2
        right, bias = head.wp, head.bp
    out = np.matmul(left, right.T, out=_buffer(buffers, f"{name}.out", out_shape))
    out += bias
    return out, HeadCache(z, a, scale, a, h2, out, fold)


def _head_backward(head: Head, cache: HeadCache, g_out: np.ndarray, grads: Tensors) -> np.ndarray:
    """Write this head's gradients from d(loss)/d(out) into ``grads``; return d(loss)/d(h1).

    With out = a @ U.T + c, U = Wp @ W2 and c = Wp @ b2 + bp, the chain
    runs through dU = g_out.T @ a and dc = g_out.sum(0) and never forms
    h2 or d_h2: d(Wp) = dU @ W2.T + outer(dc, b2), d(bp) = dc,
    d(W2) = Wp.T @ dU, d(b2) = Wp.T @ dc and d(a) = g_out @ U. dU waits in
    Wp's gradient slot, and dU @ W2.T is written over the cache's ``U``
    once d(a) has read it. A cache with ``h2`` (a pass of at most out_len
    rows) runs the same chain through d_h2 = g_out @ Wp, written over
    ``h2``: d(Wp) = g_out.T @ h2, d(W2) = d_h2.T @ a, d(a) = d_h2 @ W2.
    The first layer follows with the dropout scale and then the ReLU gate
    ad > 0 (kept and positive) applied on the way down. This order keeps
    the bits, zero signs included, of the float-mask product while d_ad /
    (1 - p) is finite. d(a) is written over ``ad`` once it has been read,
    so nothing the size of the rows is allocated and the cache serves one
    backward pass. The returned d_h1 is that ``ad`` array; d(loss)/d(z) is
    ``d_h1 @ W1``, which only the combinator's caller forms.
    """
    name = head.name
    d_wp, d_bias = grads[f"{name}.p.w"], grads[f"{name}.p.b"]
    np.sum(g_out, axis=0, out=d_bias)
    gate = cache.ad > 0.0
    if cache.fold is None:
        np.matmul(g_out.T, cache.h2, out=d_wp)
        d_h2 = _product(g_out, head.wp, cache.h2)
        np.matmul(d_h2.T, cache.ad, out=grads[f"{name}.l2.w"])
        np.sum(d_h2, axis=0, out=grads[f"{name}.l2.b"])
        d_h1 = np.matmul(d_h2, head.w2, out=cache.ad)
    else:
        d_fold = np.matmul(g_out.T, cache.ad, out=d_wp)
        np.matmul(head.wp.T, d_fold, out=grads[f"{name}.l2.w"])
        np.matmul(head.wp.T, d_bias, out=grads[f"{name}.l2.b"])
        d_h1 = _product(g_out, cache.fold, cache.ad)
        # d(Wp) = outer(dc, b2) + dU @ W2.T: the same bits in either order
        np.matmul(d_fold, head.w2.T, out=cache.fold)
        np.multiply.outer(d_bias, head.b2, out=d_wp)
        d_wp += cache.fold
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

    Each head runs folded on more rows than it has outputs (see
    ``_head_forward``), with no ``h2``. ``buffers`` is an optional dict
    the caller keeps across calls: each head then writes its hidden,
    output and ``U`` (or ``h2``) arrays into arrays kept there, and the
    dropout uniforms go into one array all heads share, so repeated calls
    on the same number of rows allocate them once. The returned state's
    caches are then overwritten by the next such call.
    ``loss_and_backward`` consumes the state: it writes gradients over
    every cache's ``h1`` and ``fold`` or ``h2``. Buffers that ``predict``
    has used hold its folds, and make every pass through them an inference
    pass, whose state keeps neither to backpropagate through; a training
    pass through them raises ``ValueError``.

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
    elif buffers is not None and _FOLDS in buffers:
        # predict's folds make an inference pass, which has no dropout and
        # keeps nothing to backpropagate through
        raise ValueError("a training forward cannot run through predict's buffers")
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

    Dropout is the identity at inference, and each head runs folded
    whatever its rows, ``relu(z @ W1.T + b1) @ U.T + c`` with its ``_fold``
    ``(U, c)``, made once per buffers dict rather than once per pass. A
    head of one input and one output runs as the ``_Scalar`` map made from
    that fold, a binary search and a multiply-add per row with no hidden
    array; it agrees with the folded pass within ``(width + 4) * eps``
    times the sum of its terms' magnitudes. A
    linear decomposer (stl, see ``dc.linear_map``) also folds into each
    component head's first layer: a head whose input joins the parts with
    matrices ``P = [M_t | M_s | ...]`` (its ``head_layout`` parts) gets ``z
    @ W1.T = x @ (W1 @ P.T).T``, so it reads the raw windows and no row is
    decomposed; the forecast then agrees with ``forward(...,
    training=False).y_hat`` within a few ulps, not to the bit. mvd's split
    is not linear, and its rows are decomposed as in training, so an
    mvd/merged or plain forecast of more rows than outputs has the bits of
    that forward pass, and an mvd/separate one, whose m and v heads run as
    their maps, agrees with it within rounding. ``buffers`` is passed on
    as in ``forward``; the forecast may then be one of them, valid until the next call with the same
    buffers. The folds are made on the first call with a buffers dict and
    kept in it, so a buffers dict serves one set of parameter values: once
    the parameters change, pass a fresh one. Without ``buffers`` the call
    makes its own dict, and with it the same bits.
    """
    plain = isinstance(params, PlainParams)
    if not plain and dcfg is None:
        raise ValueError("predict on decomposition models needs a decomposer config")
    if buffers is None:
        buffers = {}
    if _FOLDS not in buffers:
        heads = {"main": params.head} if plain else {**params.heads, "cbn": params.combinator}
        maps = None if plain else dc.linear_map(dcfg, params.l_in)
        if maps is not None:
            folded = buffers[_INPUT_FOLDS] = {}
            for name, parts, *_ in _layout(params):
                head = params.heads[name]
                p_t = _concat([maps[nm] for nm in parts]).T
                heads[name] = folded[name] = dataclasses.replace(head, w1=head.w1 @ p_t)
        buffers[_FOLDS] = {name: _inference_fold(head) for name, head in heads.items()}
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
    to the forward pass as in ``forward``. A head of fewer outputs than
    rows runs folded, forward and backward (see ``_head_forward`` and
    ``_head_backward``), with no ``(rows, width) @ (width, width)``
    product. No state of the
    forward pass outlives the call; the gradients are ``params.grads``,
    valid until the next backward pass on ``params``.
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
    and ``fold`` or ``h2`` arrays of its cache in ``state``, so a state serves one call.
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
    serialize to identical bytes. The sidecar records the sha256 of the
    bytes written, which ``load_checkpoint`` checks.
    """
    digest = hashlib.sha256()
    with _atomic_write(path, binary=True) as f:
        def write(chunk):
            f.write(chunk)
            digest.update(chunk)

        write(CHECKPOINT_MAGIC)
        for name, shape, start, stop in params.slots:
            encoded = name.encode("utf-8")
            write(struct.pack(f"<I{len(encoded)}sI{len(shape)}Q",
                              len(encoded), encoded, len(shape), *shape))
            write(params.flat[start:stop].astype("<f8", copy=False))
    sidecar = {
        "format": CHECKPOINT_MAGIC.decode("ascii"),
        "sha256": digest.hexdigest(),
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
    if "sha256" in sidecar and not _is_sha256(sidecar["sha256"]):
        raise CheckpointError(f"{where}: field 'sha256' must be 64 lowercase hex digits, "
                              f"got {sidecar['sha256']!r}")
    return sidecar


def _is_sha256(value) -> bool:
    return (type(value) is str and len(value) == 64
            and all(ch in "0123456789abcdef" for ch in value))


def _sha256(f) -> str:
    """The sha256 of the file ``f`` from its start, read a MiB at a time."""
    f.seek(0)
    digest = hashlib.sha256()
    for block in iter(lambda: f.read(1 << 20), b""):
        digest.update(block)
    return digest.hexdigest()


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

    The sidecar fixes the layout, and the records must follow it. A
    sidecar with a ``sha256`` field (``save_checkpoint`` writes one) must
    name the file's sha256, checked before any record is read, so a
    changed byte raises ``CheckpointError`` naming the file; a sidecar
    without the field (written before it was recorded) is read on trust.
    Each record is checked against its slot before its payload is read
    straight into the parameter vector: a missing, unknown, duplicate or
    misshaped tensor raises ``CheckpointError`` naming it.
    """
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic in checkpoint {path}: {magic!r}")
        sidecar = _read_sidecar(path)
        if "sha256" in sidecar:
            if _sha256(f) != sidecar["sha256"]:
                raise CheckpointError(f"checkpoint {path} does not match the sha256 its "
                                      f"sidecar {path}.json records")
            f.seek(len(CHECKPOINT_MAGIC))
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
