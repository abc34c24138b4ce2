"""Training loop, evaluation, and the two reference baselines.

One epoch loop serves both the PSLD model and the plain MLP baseline;
``model.train_step`` is the only step that differs between them. Each
epoch re-partitions the node set into random subgraphs, then takes one
ADAM step per subgraph on the mean loss of a freshly sampled window
minibatch. A minibatch of more than ``STEP_ROWS`` rows runs forward and
backward in row blocks whose gradients are summed before that one step,
so a step's memory does not grow with the node count. Validation after
every epoch picks the returned parameters; there is no early stopping.
Everything is a pure function of the config and seed: rerunning with
identical inputs reproduces reports and parameters bit for bit.

``train`` and ``baseline_plain_mlp`` take the raw store and keep no
normalized copy of it: every row they train or score on is normalized as
it is gathered from the raw columns, with the train split's stats. One
gather, ``_rows``, reads the rows of both training steps and scoring
chunks, and one rule, ``_blocks``, cuts both into balanced row blocks of
at most ``STEP_ROWS`` and ``EVAL_CHUNK_ROWS`` rows. ``evaluate`` and
``baseline_last_value`` score the store they are given, normalized by the
caller (``prepare_store``) or, with ``norm_stats``, row by row as they
gather it. A score sums its forecast
chunks in chunk order (``_metrics``), however the store was normalized.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import decomposition as dc
from . import model as md
from .dataset import (
    SIGMA_FLOOR,
    SPLIT_RATIOS,
    NormStats,
    SeriesStore,
    _norm_columns,
    _split_ratios,
    _windows,
    apply_norm,
    fit_norm_stats,
    restrict_time,
    split_ranges,
)
from .exceptions import NumericError
from .numerics import Rng
from .sampler import rss_partition

# Most rows per evaluation forward pass; a split runs as balanced chunks of at
# most this many rows (see _blocks). An inference pass keeps one (rows, hidden)
# array per head (every head pass folds its second layer into its predictor,
# so there is no h2, and a head of one input and one output runs as its
# piecewise-linear map, with none), 512 KiB at hidden 128, small enough to be reused from the
# allocator's free lists; multi-MiB chunks are page-faulted in afresh every
# call and made evaluation slower than the unchunked pass.
EVAL_CHUNK_ROWS = 512
# Most rows per training forward and backward pass. At the paper's fixed 24
# subgraphs a step has n_nodes // 24 * minibatch rows (the remainder chunk
# more), and its (rows, hidden) arrays, one activation per head and one
# dropout draw that the heads share, set the run's peak memory; a larger
# step runs as row blocks summed before its one ADAM step (see _blocked_step),
# so step memory stops growing with the node count. 1024 rows keep every
# step of a 64-node run at the defaults (at most 576 rows) one pass.
STEP_ROWS = 1024


def _is_number(value) -> bool:
    return type(value) in (int, float)


# check and description per annotated TrainConfig field type, checked before
# the field's bound; bools are refused
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_number, "a number"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple": (lambda v: type(v) in (list, tuple) and all(map(_is_number, v)),
              "a list of numbers"),
}

_COUNT = (lambda v: v >= 1, ">= 1")
_FINITE_POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and > 0")
# (check, what it must be) per TrainConfig field, bar the split; epsilon, kappa_t
# and kappa_s are checked by both decomposer configs, whichever one runs
_FIELD_BOUNDS = {
    "l_in": _COUNT, "l_out": _COUNT, "hidden": _COUNT, "epochs": _COUNT,
    "n_subgraphs": _COUNT, "minibatch": _COUNT, "seed": (lambda v: v >= 0, ">= 0"),
    "decomposer": (lambda v: v in dc.KINDS, md.one_of(dc.KINDS)),
    "mode": (lambda v: v in md.MODES, md.one_of(md.MODES)),
    "dropout": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"), "lr": _FINITE_POSITIVE,
    "lam": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"), "sigma_floor": _FINITE_POSITIVE,
}


@dataclass(frozen=True)
class TrainConfig:
    l_in: int = 36
    l_out: int = 36
    decomposer: str = "mvd"
    epsilon: float = dc.MvdConfig.epsilon
    kappa_t: int = dc.StlConfig.kappa_t
    kappa_s: int = dc.StlConfig.kappa_s
    hidden: int = 128
    dropout: float = 0.05
    lr: float = 1e-4
    lam: float = 1.0
    epochs: int = 10
    n_subgraphs: int = 24
    minibatch: int = 32
    seed: int = 0
    sigma_floor: float = SIGMA_FLOOR
    mode: str = "separate"
    split: tuple = SPLIT_RATIOS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            check, want = _FIELD_TYPES[f.type]
            if check(value) and f.name in _FIELD_BOUNDS:
                check, want = _FIELD_BOUNDS[f.name]
            if not check(value):
                raise ValueError(f"{f.name} must be {want}, got {value!r}")
        dc.MvdConfig(self.epsilon), dc.StlConfig(self.kappa_t, self.kappa_s)
        object.__setattr__(self, "split", _split_ratios(self.split))

    def decomposer_config(self):
        return dc.make_config(self.decomposer, self.epsilon, self.kappa_t, self.kappa_s)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            key = "lambda" if f.name == "lam" else f.name
            value = getattr(self, f.name)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """The config ``to_dict`` wrote; an unknown key raises ValueError naming it."""
        by_key = {"lambda" if f.name == "lam" else f.name: f.name for f in fields(cls)}
        for key in data:
            if key not in by_key:
                raise ValueError(f"unknown config field {key!r}")
        return cls(**{by_key[key]: value for key, value in data.items()})


@dataclass(frozen=True)
class EpochReport:
    """Per-epoch training losses and validation metrics.

    Wall time is informational and excluded from equality so that reports
    from identical (config, seed) runs compare equal.
    """

    epoch: int
    train_total: float
    train_cbn: float
    train_cpn: float
    val_mse: float
    val_mae: float
    wall_time_s: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict:
        """The compared fields by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def _split_stats(store: SeriesStore, config: TrainConfig, windowed: tuple = ()) -> tuple:
    """(ranges, stats): the store's split ranges and its train split's norm stats.

    A split named in ``windowed`` that is too short for one window raises
    windowing's ``ValueError`` prefixed with the split's name (``"val split:
    series of length ..."``), before the stats are fitted.
    """
    ranges = split_ranges(store.l_data, config.split)
    for name in windowed:
        t0, t1 = ranges[name]
        try:
            _windows(store.values[:, t0:t1], config.l_in, config.l_out)
        except ValueError as err:
            raise ValueError(f"{name} split: {err}") from None
    return ranges, fit_norm_stats(store, ranges["train"][1])


def prepare_store(store: SeriesStore, config: TrainConfig):
    """Normalize the whole store with train-split stats; returns (store, ranges, stats)."""
    ranges, stats = _split_stats(store, config)
    return apply_norm(store, stats, config.sigma_floor), ranges, stats


def _rows(windows: tuple, win: np.ndarray, node: np.ndarray, norms: tuple):
    """``rows(lo, hi) -> (x, y, w, node)``: rows [lo, hi) of the window-major rows ``win × node``.

    ``windows`` are the node-major views (x, y) of a split's columns
    (``_windows``), and row ``i * len(node) + j`` is window ``win[i]`` of
    node ``node[j]``; the returned ``w`` and ``node`` hold each gathered
    row's window and node. This is the one place a row index maps to a
    (window, node) pair. x and y are C-contiguous copies of the rows asked
    for, and nothing else the size of the rows is made. ``norms`` holds x's
    and y's (mu, scale) columns of ``dataset._norm_columns``, or None. With
    columns, each row is normalized in place by its node's, as ``apply_norm``
    would normalize the values it holds: so a row gathered from raw columns
    has the bits of the same row gathered from the normalized store.
    """
    def rows(lo: int, hi: int) -> tuple:
        at, pos = np.divmod(np.arange(lo, hi), len(node))
        w, d = win[at], node[pos]
        x, y = windows[0][d, w], windows[1][d, w]
        for r, norm in zip((x, y), norms):
            if norm is not None:
                r -= norm[0][d]
                r /= norm[1][d]
        return x, y, w, d

    return rows


def _blocks(n_rows: int, most: int):
    """The k = ceil(n_rows / most) row blocks (lo, hi) of ``n_rows`` rows, in order.

    Block i is rows [n_rows * i // k, n_rows * (i + 1) // k): the blocks
    cover every row once, and their sizes differ by at most one row, none
    more than ``most``. Training steps (``STEP_ROWS``) and scoring chunks
    (``EVAL_CHUNK_ROWS``) are both cut this way.
    """
    k = -(-n_rows // most)
    return [(n_rows * i // k, n_rows * (i + 1) // k) for i in range(k)]


def _forecast_chunks(n_rows: int, rows, forecast, denorm: tuple | None, sink):
    """Yield (pred, y): ``forecast(x)`` and truth of the rows, each once, in order.

    ``rows(lo, hi)`` gives rows [lo, hi) of ``n_rows`` as (x, y, w, node)
    (``_rows``). The chunks are the ``_blocks`` of at most
    ``EVAL_CHUNK_ROWS`` rows, so their sizes differ by at most one row and
    no short remainder is forecast on its own; each chunk is gathered and
    ``forecast`` once, and no row is forecast twice. ``pred`` may be a
    buffer ``forecast`` reuses, so it is valid only until the next chunk.
    With ``denorm``, (mu, scale) columns as ``dataset._norm_columns`` gives
    them, the forecast alone is mapped back to the raw scale by each row's
    node. ``sink(w, node, pred, y)``, if given, is called with each chunk's
    rows and their windows and nodes before the chunk is yielded.
    """
    for lo, hi in _blocks(n_rows, EVAL_CHUNK_ROWS):
        x, y, w, node = rows(lo, hi)
        pred = forecast(x)
        if denorm is not None:
            mu, scale = denorm
            pred = pred * scale[node] + mu[node]
        if sink is not None:
            sink(w, node, pred, y)
        yield pred, y


def _metrics(chunks, shape: tuple) -> dict:
    """MSE and MAE of the (pred, y) chunks that hold the rows of ``shape``.

    ``np.add.reduce`` sums each chunk's ``|pred - y|`` and its square, and
    the chunk sums are added in chunk order, so the metrics agree with
    ``np.mean`` over the whole split within a few ulps. Each chunk makes one
    error array of its size, and nothing the size of the split is made.
    """
    err_sum = sq_sum = 0.0
    for pred, y in chunks:
        e = np.subtract(pred, y)
        err_sum += np.add.reduce(np.abs(e, out=e), axis=None)
        sq_sum += np.add.reduce(np.square(e, out=e), axis=None)
    n = shape[0] * shape[1]
    return {"mse": float(sq_sum / n), "mae": float(err_sum / n)}


def evaluate(params, store: SeriesStore, config: TrainConfig, split: tuple,
             denormalize: bool = False, sink=None,
             norm_stats: NormStats | None = None) -> dict:
    """MSE and MAE over all windows, horizon steps, and nodes of the split.

    The split has one row per (window, node), window-major (see ``_rows``).
    The forecast is made in balanced chunks of at most ``EVAL_CHUNK_ROWS``
    rows, each row once (see ``_forecast_chunks``), and scored as it
    comes, chunk sum by chunk sum (see ``_metrics``), so the metrics agree
    with ``np.mean`` over the split within a few ulps: no array the size of
    the split is kept, so memory does not grow with the split. The forecast is ``md.predict``'s
    inference pass, which runs each head with its second layer folded into
    its predictor, as training does, and, for stl, the decomposition folded
    into each component head's first layer, so no stl row is decomposed;
    stl's last bits are not those of ``md.forward`` on decomposed windows.
    A head of one input and one output (mvd/separate's m and v) runs as
    its piecewise-linear map, with no hidden array, so mvd/separate's last
    bits are not those of ``md.forward`` either. All chunks write each
    head's hidden array, if it has one, and its output into one set of
    buffers, made afresh for each call, which also
    keeps the folds: so each call scores the parameters it is given, and
    fresh buffers per chunk (about 1.3 MiB at hidden 128, mvd separate)
    would be handed back to the OS by glibc's heap trimming whenever
    nothing live sits above them, and page-faulted in again by the next
    chunk. With ``norm_stats`` the store
    holds raw values, which are normalized chunk by chunk as they are
    gathered; the metrics equal those of the store ``apply_norm`` makes with
    the same stats, to the bit. With ``denormalize`` too, the raw truth is
    scored against the forecast mapped back by ``norm_stats``, which it
    needs (else ``ValueError``): a store the caller normalized holds no raw
    truth. ``sink(w, node, pred, y)``, if given, sees every chunk
    ``_forecast_chunks`` yields, with each row's window ``w`` (its first
    input step is ``split[0] + w``) and node index, so one pass can both
    score and write the forecast.
    """
    dcfg, buffers = config.decomposer_config(), {}
    return _score(store, config, split, lambda x: md.predict(params, x, dcfg, buffers),
                  denormalize, norm_stats, sink)


def _score(store: SeriesStore, config: TrainConfig, split: tuple, forecast,
           denormalize: bool = False, norm_stats: NormStats | None = None,
           sink=None) -> dict:
    """Metrics of ``forecast`` over the split's (window, node) rows, as ``evaluate`` scores."""
    if denormalize and norm_stats is None:
        raise ValueError("denormalize needs the norm_stats of a raw store")
    windows = _windows(store.values[:, split[0]:split[1]], config.l_in, config.l_out)
    n_nodes, n_win = windows[0].shape[:2]
    norm = None if norm_stats is None else _norm_columns(norm_stats, n_nodes, config.sigma_floor)
    y_norm, denorm = (None, norm) if denormalize else (norm, None)
    rows = _rows(windows, np.arange(n_win), np.arange(n_nodes), (norm, y_norm))
    chunks = _forecast_chunks(n_win * n_nodes, rows, forecast, denorm, sink)
    return _metrics(chunks, (n_win * n_nodes, config.l_out))


def _blocked_step(params, n_rows: int, rows, dcfg, lam: float, rng: Rng, buffers: dict,
                  grad_sum: np.ndarray):
    """Losses (total, cbn, cpn) and gradients of one step, in row blocks of at most STEP_ROWS.

    The step has ``n_rows`` rows, and ``rows(lo, hi)`` gives its rows
    [lo, hi) as (x, y, w, node) (``_rows``); windows and nodes are not read. The
    blocks are ``_blocks(n_rows, STEP_ROWS)``, so their sizes differ by at
    most one row; each is gathered only when its pass runs. Each runs
    through ``md.train_step`` with the same ``rng`` and ``buffers``, in
    order, so dropout draws from the step's one stream. Every loss term
    is a mean over the rows, so the step's losses and gradient are the
    blocks' weighted by their share of the rows. The scaled gradients are
    added up in ``params.grads``, which is returned; ``grad_sum``, laid
    out like ``params.flat``, keeps the blocks so far while the next
    block's pass overwrites ``params.grads``. A step of at most STEP_ROWS
    rows is one block of share 1.0: it neither scales ``params.grads`` nor
    touches ``grad_sum``, and its losses and gradient have the bits of one
    ``md.train_step``.
    """
    blocks = _blocks(n_rows, STEP_ROWS)
    k = len(blocks)
    losses = np.zeros(3)
    for i, (lo, hi) in enumerate(blocks):
        x, y = rows(lo, hi)[:2]
        part, grads = md.train_step(params, x, y, dcfg, lam, rng, buffers)
        share = (hi - lo) / n_rows
        losses += (share * part.total, share * part.cbn, share * part.cpn)
        if k > 1:  # a pass over every parameter, which share 1.0 would leave as it is
            grads.flat *= share
        if i:
            grads.flat += grad_sum
        if i + 1 < k:
            np.copyto(grad_sum, grads.flat)
    return tuple(losses), grads


def _fit(params, store: SeriesStore, config: TrainConfig, ranges: dict, stats: NormStats):
    """The epoch loop of train() and the plain baseline, on the raw store.

    ``ranges`` and ``stats`` are the store's (``_split_stats``). Each epoch
    partitions the nodes of the train columns (``restrict_time``, a view),
    and each step draws up to ``minibatch`` of their windows with one
    ``choice`` draw. The step's rows are those windows of its batch's nodes,
    window-major and in ``node_index`` order, gathered from the columns'
    window views block by block (``_rows``), normalized with ``stats`` as
    they are gathered. Each epoch validates on the whole val split,
    normalized chunk by chunk as evaluation gathers it. So no normalized
    copy of a split is made, and nothing the size of a split or of a whole
    step is held. Trains ``params`` in place and returns (best_params,
    reports) as train() does; ``md.train_step`` is the only model-specific
    call. The best parameters are kept in one preallocated vector, refilled
    with ``np.copyto`` whenever validation improves, and returned as a model
    bound to that vector. An epoch's training forward passes write their
    hidden and output arrays into one buffer dict, as evaluation does:
    nothing else of a step outlives it, so glibc would otherwise hand the
    step's freed arrays back to the OS and the next step would page-fault
    them in again (about 12k minor faults per 1344-row step). The buffers
    are freed before validation, which would otherwise hold them at its
    peak. Every step runs through ``_blocked_step``: a step of more than
    ``STEP_ROWS`` rows as balanced row blocks through those buffers, with
    one ADAM step on the blocks' summed gradient, so the buffers hold at
    most ``STEP_ROWS`` rows whatever the node count. The blocks' running sum
    has one preallocated vector, like the best parameters, which only steps
    of more than one block write.
    """
    train_store = restrict_time(store, *ranges["train"])
    windows = _windows(train_store.values, config.l_in, config.l_out)
    norm = _norm_columns(stats, train_store.n_nodes, config.sigma_floor)
    n_win = windows[0].shape[1]
    k = min(config.minibatch, n_win)
    root = Rng(config.seed)
    adam = md.AdamState.for_params(params)
    dcfg = config.decomposer_config()

    best_mse = np.inf
    best = params.flat.copy()
    step_buffers = {}
    grad_sum = np.empty_like(params.flat)
    reports = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        erng = root.child("epoch", epoch)
        batches = rss_partition(
            train_store, config.n_subgraphs, config.l_in, config.l_out,
            training=True, rng=erng.child("partition"),
        )
        sums = np.zeros(3)
        for step, batch in enumerate(batches):
            win = erng.child("minibatch", step).gen.choice(n_win, size=k, replace=False)
            rows = _rows(windows, win, batch.node_index, (norm, norm))
            try:
                losses, grads = _blocked_step(params, k * len(batch.node_index), rows, dcfg,
                                              config.lam, erng.child("dropout", step),
                                              step_buffers, grad_sum)
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, subgraph {step}: {err}") from err
            md.adam_step(params, grads, adam, config.lr)
            sums += losses
        step_buffers.clear()
        val = evaluate(params, store, config, ranges["val"], norm_stats=stats)
        reports.append(EpochReport(
            epoch=epoch,
            train_total=float(sums[0] / len(batches)),
            train_cbn=float(sums[1] / len(batches)),
            train_cpn=float(sums[2] / len(batches)),
            val_mse=val["mse"],
            val_mae=val["mae"],
            wall_time_s=time.perf_counter() - started,
        ))
        if val["mse"] < best_mse:
            best_mse = val["mse"]
            np.copyto(best, params.flat)
    return dataclasses.replace(params, flat=best), reports


def train(store: SeriesStore, config: TrainConfig):
    """Train on the store's train split, validating after each epoch.

    Returns (best_params, reports) where best_params minimizes validation
    MSE over epochs (earliest epoch wins ties). The store keeps its raw
    values: rows are normalized as they are gathered (see ``_fit``).
    """
    return _train(store, config, *_split_stats(store, config, ("train", "val")))


def _train(store: SeriesStore, config: TrainConfig, ranges: dict, stats: NormStats):
    """``train`` with the store's ``_split_stats`` given, so a caller that has them fits once."""
    params = md.init_params(
        config.decomposer, config.l_in, config.l_out, config.hidden,
        config.dropout, config.mode, Rng(config.seed).child("init"),
    )
    return _fit(params, store, config, ranges, stats)


def baseline_last_value(store: SeriesStore, config: TrainConfig, split: tuple,
                        norm_stats: NormStats | None = None) -> dict:
    """Repeat the last observed input value across the whole horizon.

    Scored as ``evaluate`` scores the model, on the same rows in the same
    chunks, normalized with ``norm_stats`` as they are gathered if given.
    """
    return _score(store, config, split, lambda x: x[:, -1:], norm_stats=norm_stats)


def baseline_plain_mlp(store: SeriesStore, config: TrainConfig) -> dict:
    """Test metrics of the plain single-head model under the same budget."""
    return _baseline_plain_mlp(store, config,
                               *_split_stats(store, config, ("train", "val", "test")))


def _baseline_plain_mlp(store: SeriesStore, config: TrainConfig, ranges: dict,
                        stats: NormStats) -> dict:
    """``baseline_plain_mlp`` with the store's ``_split_stats`` given, as ``_train`` takes them."""
    params = md.init_plain_params(config.l_in, config.l_out, config.hidden,
                                  config.dropout, Rng(config.seed).child("init"))
    params, _ = _fit(params, store, config, ranges, stats)
    return evaluate(params, store, config, ranges["test"], norm_stats=stats)
