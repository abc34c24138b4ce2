"""Training loop, evaluation, and the two reference baselines.

One epoch loop serves both the PSLD model and the plain MLP baseline;
``model.train_step`` is the only step that differs between them. Each
epoch re-partitions the node set into random subgraphs, then takes one
ADAM step per subgraph on the mean loss of a freshly sampled window
minibatch. Validation after every epoch picks the returned parameters;
there is no early stopping. Everything is a pure function of the config
and seed: rerunning with identical inputs reproduces reports and
parameters bit for bit.

Callers normalize stores themselves (``prepare_store``); metrics are
computed on whatever scale the given store carries.
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
    _windows,
    apply_norm,
    fit_norm_stats,
    restrict_time,
    split_ranges,
)
from .exceptions import NumericError, ShapeError
from .numerics import Rng
from .sampler import rss_partition

# Rows per evaluation forward pass. At hidden 128 each (rows, hidden)
# intermediate is 512 KiB, small enough to be reused from the allocator's
# free lists; multi-MiB chunks are page-faulted in afresh every call and
# made evaluation slower than the unchunked pass.
EVAL_CHUNK_ROWS = 512
# Values per summed node of the metrics' pairwise tree, at least numpy's
# 128-value block: the two error buffers of ``_metrics`` hold 128 KiB each.
SUM_LEAF = 16384


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
    epsilon: float = 1e-5
    kappa_t: int = 25
    kappa_s: int = 7
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
        for name, (check, want) in _FIELD_BOUNDS.items():
            if not check(getattr(self, name)):
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        dc.MvdConfig(self.epsilon), dc.StlConfig(self.kappa_t, self.kappa_s)
        ratios = tuple(float(r) for r in self.split)
        if len(ratios) != 3 or not all(0.0 < r < math.inf for r in ratios):
            raise ValueError(f"split needs three finite positive ratios, got {self.split}")
        object.__setattr__(self, "split", ratios)

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
        """The config ``to_dict`` wrote; an unknown or mistyped key raises ValueError naming it."""
        by_key = {"lambda" if f.name == "lam" else f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in data.items():
            if key not in by_key:
                raise ValueError(f"unknown config field {key!r}")
            f = by_key[key]
            check, want = _FIELD_TYPES[f.type]
            if not check(value):
                raise ValueError(f"config field {key!r} must be {want}, got {value!r}")
            kwargs[f.name] = tuple(value) if f.name == "split" else value
        return cls(**kwargs)


def _is_number(value) -> bool:
    return type(value) in (int, float)


# check and description per annotated TrainConfig field type; bools are refused
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (_is_number, "a number"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple": (lambda v: type(v) in (list, tuple) and all(map(_is_number, v)),
              "a list of numbers"),
}


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


def prepare_store(store: SeriesStore, config: TrainConfig):
    """Normalize with train-split stats; returns (store, ranges, stats)."""
    ranges = split_ranges(store.l_data, config.split)
    stats = fit_norm_stats(store, ranges["train"][1])
    normed = apply_norm(store, stats, config.sigma_floor)
    return normed, ranges, stats


def _n_rows(store: SeriesStore, l_in: int, l_out: int, split: tuple) -> int:
    """Rows of the split: one per (window, node)."""
    return math.prod(_windows(store.values[:, split[0]:split[1]], l_in, l_out)[0].shape[:2])


def _split_chunks(store: SeriesStore, l_in: int, l_out: int, split: tuple):
    """Yield (lo, x, y): the input and target rows [lo, lo + len(x)) of the split.

    The split has one row per (window, node), window-major: row
    ``w * n_nodes + d`` is node d's window starting at step ``split[0] + w``.
    Each chunk is gathered from sliding-window views of the split, so
    nothing the size of the split is allocated. Every chunk has
    ``EVAL_CHUNK_ROWS`` rows, or all rows if the split has fewer: the last
    one is shifted back to end at the last row and so repeats rows of the
    chunk before it.
    """
    xv, yv = _windows(store.values[:, split[0]:split[1]], l_in, l_out)
    n_nodes, n_rows = xv.shape[0], math.prod(xv.shape[:2])
    size = min(EVAL_CHUNK_ROWS, n_rows)
    for start in range(0, n_rows, size):
        lo = min(start, n_rows - size)
        win, node = np.divmod(np.arange(lo, lo + size), n_nodes)
        yield lo, xv[node, win], yv[node, win]


def _kept_stop(lo: int, size: int, n_rows: int) -> int:
    """End of the rows a ``_split_chunks`` chunk [lo, lo + size) is scored on.

    The shifted last chunk keeps all its rows, so the chunk before it stops
    where the last one starts: every row is kept once, in order.
    """
    last = n_rows - size  # where the last chunk starts
    return n_rows if lo == last else min(lo + size, last)


def _forecast_chunks(params, store: SeriesStore, config: TrainConfig, split: tuple,
                     denorm_stats: NormStats | None = None):
    """Yield (lo, pred, y): forecast and truth of the split rows [lo, lo + len(pred)).

    Rows follow ``_split_chunks`` and are yielded once each, in order.
    Every forward call sees a whole chunk, so its intermediates keep a
    fixed size however many nodes and windows the split has. Rows are
    independent, but BLAS may round a product of a few rows differently in
    the last bit from the same rows inside a larger product; with every
    call the same size, no short remainder call depends on where the split
    ends. Of the rows the shifted last chunk repeats, its forecasts are the
    ones yielded. All chunks write the heads' hidden and output arrays
    into one set of buffers: fresh ones per chunk (about 4 MiB at hidden
    128) are handed back to the OS by glibc's heap trimming whenever
    nothing live sits above them, and page-faulted in again by the next
    chunk. ``pred`` may be one of those buffers, so it is valid only until
    the next chunk. With ``denorm_stats`` forecast and truth are mapped
    back to the raw scale.
    """
    n_nodes = store.n_nodes
    n_rows = _n_rows(store, config.l_in, config.l_out, split)
    dcfg = config.decomposer_config()
    buffers = {}
    if denorm_stats is not None:
        mu = denorm_stats.mu[:, None]
        sigma = np.maximum(denorm_stats.sigma, config.sigma_floor)[:, None]
    for lo, x, y in _split_chunks(store, config.l_in, config.l_out, split):
        pred = md.predict(params, x, dcfg, buffers)
        stop = _kept_stop(lo, len(x), n_rows)
        pred, y = pred[:stop - lo], y[:stop - lo]
        if denorm_stats is not None:
            node = np.arange(lo, stop) % n_nodes
            pred = pred * sigma[node] + mu[node]
            y = y * sigma[node] + mu[node]
        yield lo, pred, y


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum splits n > 128 values: half, down to a multiple of 8."""
    half = n // 2
    return half - half % 8


def _sum_leaves(n: int) -> list:
    """Lengths, in order, of the highest nodes of numpy's pairwise tree over n
    values that hold at most ``SUM_LEAF`` values each."""
    if n <= SUM_LEAF:
        return [n]
    half = _pairwise_split(n)
    return _sum_leaves(half) + _sum_leaves(n - half)


def _sum_join(n: int, leaf_sums) -> float:
    """The pairwise sum of n values from the sums of its ``_sum_leaves``, taken in order."""
    if n <= SUM_LEAF:
        return next(leaf_sums)
    half = _pairwise_split(n)
    return _sum_join(half, leaf_sums) + _sum_join(n - half, leaf_sums)


def _metrics(chunks, shape: tuple, sink=None) -> dict:
    """MSE and MAE of (lo, pred, y) chunks that cover the rows of ``shape`` once, in order.

    A chunk that does not start where the one before it ended, or runs past
    the last row, raises ``ShapeError`` naming its ``lo``; chunks that stop
    short of the last row raise it naming the first row left out. ``|pred - y|`` and its square are
    streamed into two buffers of at most ``SUM_LEAF`` values (plus one
    row). Each buffer is summed by ``np.add.reduce`` whenever it holds a
    whole node of the pairwise tree numpy sums a contiguous array of
    ``shape`` with, and those sums are added up in the tree's order. So
    the metrics equal ``np.mean`` of full-split temporaries to the bit,
    and nothing the size of the split is allocated. ``sink``, if given,
    is called with each chunk before it is scored.
    """
    n_rows, width = shape
    n = n_rows * width
    leaves = iter(_sum_leaves(n))
    leaf = next(leaves)
    err, sq = np.empty((2, min(n, SUM_LEAF) + width))
    err_sums, sq_sums = [], []
    fill = covered = 0
    for lo, pred, y in chunks:
        if lo != covered or lo + len(y) > n_rows:
            raise ShapeError(f"chunk at row lo={lo} of {len(y)} rows does not continue "
                             f"rows [0, {covered}) of {n_rows}")
        if sink is not None:
            sink(lo, pred, y)
        row = 0
        while row < len(y):
            # whole rows up to the first that reaches the end of the leaf
            take = min(len(y) - row, -(-(leaf - fill) // width))
            stop = fill + take * width
            e = err[fill:stop].reshape(take, width)
            np.subtract(pred[row:row + take], y[row:row + take], out=e)
            np.abs(e, out=e)
            np.square(e, out=sq[fill:stop].reshape(take, width))
            fill, row = stop, row + take
            while leaf is not None and fill >= leaf:
                err_sums.append(np.add.reduce(err[:leaf]))
                sq_sums.append(np.add.reduce(sq[:leaf]))
                fill -= leaf
                err[:fill], sq[:fill] = err[leaf:leaf + fill], sq[leaf:leaf + fill]
                leaf = next(leaves, None)
        covered = lo + len(y)
    if covered != n_rows:
        raise ShapeError(f"no chunk at row lo={covered}: chunks stop before the last "
                         f"of {n_rows} rows")
    return {"mse": float(_sum_join(n, iter(sq_sums)) / n),
            "mae": float(_sum_join(n, iter(err_sums)) / n)}


def evaluate(params, store: SeriesStore, config: TrainConfig, split: tuple,
             denorm_stats: NormStats | None = None, sink=None) -> dict:
    """MSE and MAE over all windows, horizon steps, and nodes of the split.

    The forecast is made in chunks of ``EVAL_CHUNK_ROWS`` rows (see
    ``_forecast_chunks``) and scored as it comes (see ``_metrics``): no
    array the size of the split is kept, so memory does not grow with the
    split. With ``denorm_stats`` both forecast and truth are
    mapped back to the raw scale before the metrics. ``sink(lo, pred, y)``,
    if given, sees every chunk ``_forecast_chunks`` yields, so one pass
    can both score and write the forecast.
    """
    shape = (_n_rows(store, config.l_in, config.l_out, split), config.l_out)
    return _metrics(_forecast_chunks(params, store, config, split, denorm_stats), shape, sink)


def _sample_minibatch(batch, k: int, rng: Rng):
    """Stack up to k windows of the subgraph into head-layout rows."""
    n_win, _, n_sub = batch.x.shape
    take = min(k, n_win)
    idx = rng.gen.choice(n_win, size=take, replace=False)
    # one fancy index on the node-last views gathers C-contiguous rows: the reshapes copy nothing
    x = batch.x.transpose(0, 2, 1)[idx]
    y = batch.y.transpose(0, 2, 1)[idx]
    return x.reshape(take * n_sub, -1), y.reshape(take * n_sub, -1)


def _fit(params, normed: SeriesStore, ranges: dict, config: TrainConfig):
    """The epoch loop of train() and the plain baseline, on a normalized store.

    Trains ``params`` in place and returns (best_params, reports) as
    train() does; ``md.train_step`` is the only model-specific call. The
    best parameters are kept in one preallocated vector, refilled with
    ``np.copyto`` whenever validation improves, and returned as a model
    bound to that vector. An epoch's training forward passes write their
    hidden and output arrays into one buffer dict, as evaluation does:
    nothing else of a step outlives it, so glibc would otherwise hand the
    step's freed arrays back to the OS and the next step would page-fault
    them in again (about 12k minor faults per 1344-row step). The buffers
    are freed before validation, which would otherwise hold them at its
    peak.
    """
    train_store = restrict_time(normed, *ranges["train"])
    root = Rng(config.seed)
    adam = md.AdamState.for_params(params)
    dcfg = config.decomposer_config()

    best_mse = np.inf
    best = params.flat.copy()
    step_buffers = {}
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
            x_rows, y_rows = _sample_minibatch(batch, config.minibatch,
                                               erng.child("minibatch", step))
            try:
                losses, grads = md.train_step(params, x_rows, y_rows, dcfg, config.lam,
                                              erng.child("dropout", step), step_buffers)
            except NumericError as err:
                raise NumericError(f"epoch {epoch}, subgraph {step}: {err}") from err
            md.adam_step(params, grads, adam, config.lr)
            sums += (losses.total, losses.cbn, losses.cpn)
        step_buffers.clear()
        val = evaluate(params, normed, config, ranges["val"])
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
    MSE over epochs (earliest epoch wins ties).
    """
    normed, ranges, _ = prepare_store(store, config)
    params = md.init_params(
        config.decomposer, config.l_in, config.l_out, config.hidden,
        config.dropout, config.mode, Rng(config.seed).child("init"),
    )
    return _fit(params, normed, ranges, config)


def baseline_last_value(store: SeriesStore, config: TrainConfig, split: tuple) -> dict:
    """Repeat the last observed input value across the whole horizon."""
    n_rows = _n_rows(store, config.l_in, config.l_out, split)

    def chunks():
        for lo, x, y in _split_chunks(store, config.l_in, config.l_out, split):
            keep = _kept_stop(lo, len(x), n_rows) - lo
            yield lo, x[:keep, -1:], y[:keep]

    return _metrics(chunks(), (n_rows, config.l_out))


def baseline_plain_mlp(store: SeriesStore, config: TrainConfig) -> dict:
    """Test metrics of the plain single-head model under the same budget."""
    normed, ranges, _ = prepare_store(store, config)
    params = md.init_plain_params(config.l_in, config.l_out, config.hidden,
                                  config.dropout, Rng(config.seed).child("init"))
    params, _ = _fit(params, normed, ranges, config)
    return evaluate(params, normed, config, ranges["test"])
