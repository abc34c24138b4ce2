"""Series storage, CSV round trips, synthetic data, normalization, splits.

A :class:`SeriesStore` holds one value row per node over a shared time axis,
plus an optional undirected weighted adjacency.
"""

from __future__ import annotations

import math
import os
import struct
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from .exceptions import FormatError, ParseError, ShapeError
from .numerics import Rng

SIGMA_FLOOR = 1e-8
SPLIT_RATIOS = (0.6, 0.2, 0.2)
MIN_SYNTH_LENGTH = 64
# an input edge's two directed rows, packed in one call
_EDGE_PAIR = struct.Struct("6d").pack
_OUT_OF_RANGE = "edge ({}, {}) out of range for {} nodes".format
# Rows per block of the edge check in ``_edge_array`` and of ``save_adjacency_csv``.
_EDGE_BLOCK = 16384
# Values per block of the deviations ``fit_norm_stats`` takes the std of.
_FIT_BLOCK = 1 << 15


@dataclass(frozen=True)
class SeriesStore:
    """Node-major series values with node ids and an optional edge array.

    ``values`` has shape (n_nodes, l_data). ``adjacency`` is a read-only
    (n_edges, 3) float64 array of directed ``[src, dst, weight]`` rows, or
    None; undirected inputs carry both directions. It is built from any
    array-like of that shape, copied once unless it is a read-only float64
    array, and checked once: node indices are integers in [0, n_nodes)
    without self-loops (exact below 2**53), weights finite. Stores derived
    by ``apply_norm`` and ``restrict_time`` share it unchecked. ``values``
    is kept as given when it is float64 with contiguous rows, so a column
    slice is not copied; anything else is copied C-contiguous.
    """

    values: np.ndarray
    node_ids: tuple
    adjacency: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ShapeError(f"series values must be 2-D, got shape {v.shape}")
        if v.strides[1] != v.itemsize:
            v = np.ascontiguousarray(v)
        if v.shape[0] < 1 or v.shape[1] < 2:
            raise ShapeError(f"need at least 1 node and 2 timesteps, got {v.shape}")
        object.__setattr__(self, "values", v)
        ids = tuple(str(i) for i in self.node_ids)
        if len(ids) != v.shape[0]:
            raise ShapeError(f"{len(ids)} node ids for {v.shape[0]} value rows")
        object.__setattr__(self, "node_ids", ids)
        if self.adjacency is not None:
            object.__setattr__(self, "adjacency", _edge_array(self.adjacency, v.shape[0]))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def l_data(self) -> int:
        return self.values.shape[1]

    def _adjacency_block(self, node_index: np.ndarray) -> np.ndarray:
        """Dense weight block of the edges between the nodes of node_index, in its order.

        ``block[i, j]`` is the weight of the edge from ``node_index[i]`` to
        ``node_index[j]``, the last row's where the edge array repeats it,
        else 0. Only the chunk's out-edges are read, through
        ``_edges_by_source``: reading the blocks of every chunk of a
        partition costs O(n_edges + sum of n_sub**2), with no (n_nodes,
        n_nodes) matrix. The sampler's batches are its only caller.
        """
        m = len(node_index)
        block = np.zeros((m, m))
        if not m or self.adjacency is None or not len(self.adjacency):
            return block
        starts, dst, weight = self._edges_by_source
        lo = starts[node_index]
        count = starts[node_index + 1] - lo
        # the chunk's out-edges, node by node: node k's are [lo[k], lo[k] + count[k])
        ends = count.cumsum()
        at = np.arange(ends[-1]) + np.repeat(lo - ends + count, count)
        target = dst[at]
        # each target's position in the chunk, if it lies in the chunk; the
        # index holds each (src, dst) pair once, so no cell is written twice
        sorter = np.argsort(node_index)
        col = sorter.take(np.searchsorted(node_index, target, sorter=sorter), mode="clip")
        inside = node_index[col] == target
        block[np.repeat(np.arange(m), count)[inside], col[inside]] = weight[at[inside]]
        return block

    @cached_property
    def _edges_by_source(self) -> tuple:
        """(starts, dst, weight): the edges sorted by (source, target), built on first read.

        Node v's targets are ``dst[starts[v]:starts[v + 1]]``, ascending, with
        their weights in ``weight``. Where a (source, target) pair repeats in
        the edge array, only its last row is kept. ``_adjacency_block`` is
        its only reader, and only for a store with edges.
        """
        n = self.n_nodes
        key = self.adjacency[:, 0].astype(np.intp) * n + self.adjacency[:, 1].astype(np.intp)
        order = np.argsort(key, kind="stable")
        key = key[order]
        last = np.append(key[1:] != key[:-1], True)
        src, dst = np.divmod(key[last], n)
        return np.searchsorted(src, np.arange(n + 1)), dst, self.adjacency[order[last], 2]

def _with_edges(store: SeriesStore, edges) -> SeriesStore:
    """``store`` given ``edges``, which ``_edge_array`` has already checked for its nodes."""
    object.__setattr__(store, "adjacency", edges)
    return store


class _EdgeFault(ValueError):
    """A bad edge ``row``; ``weight`` is set when its non-finite weight is the fault."""

    def __init__(self, message: str, row: int, weight=None):
        super().__init__(message)
        self.row, self.weight = row, weight


def _edge_array(edges, n_nodes: int) -> np.ndarray:
    """Validated read-only (n_edges, 3) float64 array of ``edges``.

    A read-only float64 array is returned as is; anything else is copied.
    The first bad row raises ``_EdgeFault``, a ``ValueError``. The rows
    are checked ``_EDGE_BLOCK`` at a time, so the check's temporaries do
    not grow with the number of edges.
    """
    a = edges
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        if a.shape == (0,):
            a = a.reshape(0, 3)
        a.flags.writeable = False
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"adjacency must be (n_edges, 3) [src, dst, weight] rows, got {a.shape}")
    for lo in range(0, len(a), _EDGE_BLOCK):
        block = a[lo:lo + _EDGE_BLOCK]
        ends = block[:, :2]
        integral = (np.isfinite(ends) & (ends == np.floor(ends))).all(axis=1)
        in_range = ((ends >= 0) & (ends < n_nodes)).all(axis=1)
        loop = ends[:, 0] == ends[:, 1]
        bad = ~integral | ~in_range | loop | ~np.isfinite(block[:, 2])
        if not bad.any():
            continue
        at = int(np.argmax(bad))
        row = lo + at
        src, dst, weight = block[at].tolist()
        if not integral[at]:
            raise _EdgeFault(f"edge ({src!r}, {dst!r}) has a non-integer node index", row)
        if not in_range[at]:
            raise _EdgeFault(_OUT_OF_RANGE(int(src), int(dst), n_nodes), row)
        if loop[at]:
            raise _EdgeFault(f"self-loop on node {int(src)} is not supported", row)
        raise _EdgeFault(f"edge ({int(src)}, {int(dst)}) has non-finite weight {weight!r}",
                         row, weight)
    return a


@dataclass(frozen=True)
class NormStats:
    """Per-node location and population scale fitted on a leading segment."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=np.float64))


def _parse_float(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{where}: cannot parse {token!r} as a number") from None


def _non_finite(where: str, value: float) -> ParseError:
    return ParseError(f"{where}: non-finite value {value!r}")


def load_csv(path, adjacency_path=None) -> SeriesStore:
    """Read a series CSV (rows are nodes, columns timesteps).

    A leading id column is auto-detected: if the first field of the first
    data row is not numeric, every row is expected to start with an id.
    Blank lines are skipped but counted. The file is read line by line and
    each line's fields go through ``float`` straight into one float64
    buffer, so no per-value Python object outlives its line.
    """
    data = array("d")
    ids, line_nos = [], []
    has_ids = width = None
    with _utf8_lines(path) as lines:
        for line_no, line in lines:
            if not line.strip():
                continue
            fields = line.split(",")
            if has_ids is None:
                has_ids = not _is_number(fields[0])
                width = len(fields) - has_ids
                if width < 2:
                    raise FormatError(f"{path}: line {line_no}: need at least 2 timesteps, "
                                      f"got {width}")
            if len(fields) - has_ids != width:
                raise FormatError(f"{path}: line {line_no}: expected {width} values, "
                                  f"got {len(fields) - has_ids}")
            if has_ids:
                ids.append(fields[0].strip())
            filled = len(data)
            try:
                data.extend(map(float, islice(fields, has_ids, None)))
            except ValueError:
                # float() ignores only part of what str.strip() removes
                # (not "\x1f"), so redo the line on stripped fields,
                # which also names the first bad one
                del data[filled:]
                data.extend([_parse_float(tok.strip(), f"{path}: line {line_no}, field {i + 1}")
                             for i, tok in enumerate(fields[has_ids:])])
            line_nos.append(line_no)
    if not line_nos:
        raise FormatError(f"{path}: empty series file")
    if not has_ids:
        ids = [str(i) for i in range(len(line_nos))]
    values = np.frombuffer(data, dtype=np.float64).reshape(len(line_nos), width)
    # checked on the array, not per token, so parsing cost stays flat;
    # argwhere yields the first bad cell in file order
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise _non_finite(f"{path}: line {line_nos[row]}, field {col + 1}",
                          float(values[row, col]))

    edges = None if adjacency_path is None else _load_adjacency(adjacency_path, len(values))
    return _with_edges(SeriesStore(values, tuple(ids)), edges)


@contextmanager
def _utf8_lines(path):
    """(line_no, line) pairs split as ``str.splitlines`` splits; non-UTF-8 bytes name the file."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield enumerate(chain.from_iterable(map(str.splitlines, f)), 1)
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: not UTF-8 text ({err.reason})") from None


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _load_adjacency(path, n_nodes: int) -> np.ndarray:
    """Read 'src,dst[,weight]' lines; each line contributes both directions.

    One pass packs each line's two edge rows into one float64 buffer, and
    ``_edge_array`` checks it once. A line is redone on stripped fields only
    when its fields do not convert as they stand. Faults name file and line.
    """
    data = array("d")
    blank_at = []  # data lines read before each blank line
    with _utf8_lines(path) as lines:
        for line_no, line in lines:
            # a fourth field stays in the third, where float() rejects its comma
            fields = line.split(",", 2)
            try:
                src, dst = int(fields[0]), int(fields[1])
                w = float(fields[2]) if len(fields) == 3 else 1.0
                data.frombytes(_EDGE_PAIR(src, dst, w, dst, src, w))
            except (ValueError, IndexError, struct.error):
                if not line.strip():
                    blank_at.append(len(data) // 6)
                    continue
                try:
                    data.frombytes(_strict_edge(path, line_no, line, n_nodes))
                except FormatError:
                    _checked_edges(path, data, blank_at, n_nodes)  # an earlier bad row wins
                    raise
    return _checked_edges(path, data, blank_at, n_nodes)


def _strict_edge(path, line_no: int, line: str, n_nodes: int) -> bytes:
    """A line's two packed edge rows from its stripped fields, or the fault naming it."""
    where = f"{path}: line {line_no}"
    fields = [f.strip() for f in line.split(",")]
    if len(fields) not in (2, 3):
        raise FormatError(f"{where}: adjacency rows need 2 or 3 fields, got {len(fields)}")
    try:
        src, dst = int(fields[0]), int(fields[1])
    except ValueError:
        raise ParseError(f"{where}: node indices must be integers") from None
    w = _parse_float(fields[2], f"{where}, field 3") if len(fields) == 3 else 1.0
    try:
        return _EDGE_PAIR(src, dst, w, dst, src, w)
    except struct.error:  # an index float64 cannot hold is outside any node range
        raise FormatError(f"{where}: {_OUT_OF_RANGE(src, dst, n_nodes)}") from None


def _checked_edges(path, data: array, blank_at: list, n_nodes: int) -> np.ndarray:
    """The buffer's rows as ``_edge_array`` checks them, a fault naming its line."""
    edges = np.frombuffer(data, dtype=np.float64).reshape(-1, 3)
    edges.flags.writeable = False
    try:
        return _edge_array(edges, n_nodes)
    except _EdgeFault as fault:
        i = fault.row // 2
        where = f"{path}: line {i + 1 + bisect_right(blank_at, i)}"
        if fault.weight is not None:
            raise _non_finite(f"{where}, field 3", fault.weight) from None
        raise FormatError(f"{where}: {fault}") from None


def _both_directions(src, dst, w) -> np.ndarray:
    """Read-only edge rows (src, dst, w), (dst, src, w) interleaved per input edge."""
    return _edge_rows([(src, dst, w)], len(src))


def _edge_rows(blocks, n_edges: int) -> np.ndarray:
    """``_both_directions`` of ``n_edges`` edges given as (src, dst, w) blocks.

    Each block is written in turn into one preallocated array, so the
    caller can drop a block once it is written. The array is read-only
    float64, so ``SeriesStore`` and ``GraphSpec`` keep it as it is rather
    than copying it (see ``_edge_array``).
    """
    edges = np.empty((2 * n_edges, 3))
    pairs, lo = edges.reshape(-1, 6), 0
    for src, dst, w in blocks:
        rows = pairs[lo:lo + len(dst)]
        rows[:, 0], rows[:, 1], rows[:, 2] = src, dst, w
        rows[:, 3], rows[:, 4], rows[:, 5] = dst, src, w
        lo += len(dst)
    edges.flags.writeable = False
    return edges


@contextmanager
def _atomic_write(path, binary: bool = False):
    """A file object that replaces ``path`` when the block exits cleanly.

    The block writes a temp file beside ``path``, which ``os.replace`` then
    moves onto it, so readers see the old file or the whole new one. If
    the block raises, the temp file is removed and ``path`` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_csv(store: SeriesStore, path) -> None:
    """Write the series with id column, full round-trip float precision.

    Every id must read back as itself, so a store with an id that does not
    raises ``ValueError`` naming the file and the id before anything is
    written: a first id that parses as a number (``load_csv`` would read
    that id column as a timestep), or any id that holds a comma or a line
    break as ``str.splitlines`` breaks lines, or that has surrounding
    whitespace (``load_csv`` strips it).
    """
    if store.node_ids and _is_number(store.node_ids[0]):
        raise ValueError(f"{path}: node id {store.node_ids[0]!r} parses as a number, "
                         "so the id column would be read back as a timestep")
    for node_id in store.node_ids:
        if "," in node_id or len(f"{node_id}.".splitlines()) > 1 or node_id != node_id.strip():
            raise ValueError(f"{path}: node id {node_id!r} holds a comma, a line break or "
                             "surrounding whitespace, so it would not be read back as written")
    with _atomic_write(path) as f:
        for node_id, row in zip(store.node_ids, store.values):
            f.write(node_id + "," + ",".join(repr(float(x)) for x in row) + "\n")


def save_adjacency_csv(store: SeriesStore, path) -> None:
    """Write each undirected edge once as 'src,dst,weight'.

    The edge rows with src < dst are written in order, ``_EDGE_BLOCK``
    rows of the store's edge array at a time, so nothing the size of the
    edge array is made.
    """
    edges = store.adjacency if store.adjacency is not None else np.empty((0, 3))
    with _atomic_write(path) as f:
        for lo in range(0, len(edges), _EDGE_BLOCK):
            block = edges[lo:lo + _EDGE_BLOCK]
            upper = block[block[:, 0] < block[:, 1]]
            ends = upper[:, :2].astype(np.int64)
            f.writelines(map("{},{},{!r}\n".format,
                             ends[:, 0].tolist(), ends[:, 1].tolist(), upper[:, 2].tolist()))


def generate_synthetic(
    n_nodes: int,
    l_data: int,
    rng: Rng,
    noise_sigma: float = 0.1,
    modulation: bool = True,
    trend: bool = True,
    radius: float = 0.2,
) -> SeriesStore:
    """Seeded synthetic node series with a random geometric adjacency.

    Each node follows an amplitude-modulated sinusoid plus a linear trend
    and Gaussian noise: amplitude in [0.5, 2], modulation period in
    [80, 160], base period in [12, 24], trend slope in [-1, 1] spread over
    the full length. Nodes whose 2-D positions fall within ``radius``
    are connected with weight 1.
    """
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if l_data < MIN_SYNTH_LENGTH:
        raise ValueError(f"l_data must be >= {MIN_SYNTH_LENGTH}, got {l_data}")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    t = np.arange(l_data, dtype=np.float64)
    values = np.empty((n_nodes, l_data), dtype=np.float64)
    for i in range(n_nodes):
        g = rng.child("node", i).gen
        amp = g.uniform(0.5, 2.0)
        period_mod = g.uniform(80.0, 160.0)
        period = g.uniform(12.0, 24.0)
        slope = g.uniform(-1.0, 1.0)
        s = amp * np.sin(2.0 * np.pi * t / period)
        if modulation:
            s = s * (1.0 + 0.5 * np.sin(2.0 * np.pi * t / period_mod))
        if trend:
            s = s + slope * t / l_data
        if noise_sigma > 0.0:
            s = s + noise_sigma * g.standard_normal(l_data)
        values[i] = s

    pos = rng.child("positions").gen.random((n_nodes, 2))
    # one row of the upper triangle at a time keeps memory O(n_nodes); each
    # row's later neighbours are kept as int32, half the bytes of the indices
    near = []
    for i in range(n_nodes):
        diff = pos[i] - pos[i + 1:]
        js = i + 1 + np.flatnonzero(np.hypot(diff[:, 0], diff[:, 1]) <= radius)
        near.append(js.astype(np.int32))

    def rows():
        """Node i's edges to its later neighbours, dropped from ``near`` once written."""
        for i in range(n_nodes):
            dst, near[i] = near[i], None
            yield i, dst, 1.0

    ids = tuple(f"n{i:03d}" for i in range(n_nodes))
    return SeriesStore(values, ids, _edge_rows(rows(), sum(map(len, near))))


def fit_norm_stats(store: SeriesStore, train_len: int) -> NormStats:
    """Per-node mean and population std over timesteps [0, train_len).

    numpy's ``std`` makes the deviations from the mean as one temporary the
    size of its input, so sigma is taken over blocks of rows that hold at
    most ``_FIT_BLOCK`` values (or one row), into one preallocated vector.
    Each row is reduced on its own, so the bits are those of
    ``head.std(axis=1)``, and the temporary does not grow with the nodes.
    """
    if not 2 <= train_len <= store.l_data:
        raise ValueError(
            f"train_len must be in [2, {store.l_data}] to fit a scale, got {train_len}"
        )
    head = store.values[:, :train_len]
    sigma = np.empty(store.n_nodes)
    step = max(1, _FIT_BLOCK // train_len)
    for lo in range(0, store.n_nodes, step):
        head[lo:lo + step].std(axis=1, out=sigma[lo:lo + step])
    return NormStats(head.mean(axis=1), sigma)


def _norm_columns(stats: NormStats, n_nodes: int, sigma_floor: float) -> tuple:
    """(mu, scale) as (n_nodes, 1) columns: a node's value x normalizes to (x - mu) / scale.

    ``scale`` is ``max(sigma, sigma_floor)``. ``apply_norm`` and the
    training and scoring gathers apply these two per-element ops in this
    order, so a value normalizes to the same bits wherever it is read.
    Stats that do not cover ``n_nodes`` nodes raise ``ShapeError``.
    """
    if stats.mu.shape[0] != n_nodes:
        raise ShapeError(f"stats cover {stats.mu.shape[0]} nodes, store has {n_nodes}")
    return stats.mu[:, None], np.maximum(stats.sigma, sigma_floor)[:, None]


def apply_norm(store: SeriesStore, stats: NormStats,
               sigma_floor: float = SIGMA_FLOOR) -> SeriesStore:
    """Return a store with values (x - mu) / max(sigma, sigma_floor).

    The difference is divided in place, so the output is the one array
    allocated.
    """
    mu, scale = _norm_columns(stats, store.n_nodes, sigma_floor)
    normed = store.values - mu
    normed /= scale
    return _with_edges(SeriesStore(normed, store.node_ids), store.adjacency)


def restrict_time(store: SeriesStore, t0: int, t1: int) -> SeriesStore:
    """The store's timesteps [t0, t1), keeping ids and adjacency.

    Its values are a read-only view of those columns: nothing is copied.
    """
    if not (0 <= t0 < t1 <= store.l_data):
        raise ValueError(f"invalid time range [{t0}, {t1}) for length {store.l_data}")
    columns = store.values[:, t0:t1]
    columns.flags.writeable = False
    return _with_edges(SeriesStore(columns, store.node_ids), store.adjacency)


def _windows(values: np.ndarray, l_in: int, l_out: int) -> tuple:
    """Read-only node-major views (x, y) of every window of (n_nodes, length) ``values``.

    ``x[d, w] = values[d, w:w + l_in]``, ``y[d, w] = values[d, w + l_in:w + l_in + l_out]``
    for ``w`` in ``range(length - l_in - l_out + 1)``; nothing is copied.
    """
    n_win = values.shape[1] - l_in - l_out + 1
    if n_win < 1:
        raise ValueError(f"series of length {values.shape[1]} too short for windows; "
                         f"needs at least {l_in + l_out}")
    view = np.lib.stride_tricks.sliding_window_view
    return view(values[:, :n_win + l_in - 1], l_in, axis=1), view(values[:, l_in:], l_out, axis=1)


def _split_ratios(ratios) -> tuple:
    """The three split ratios as floats; ``ValueError`` unless each is finite and > 0."""
    out = tuple(float(r) for r in ratios)
    if len(out) != 3 or not all(0.0 < r < math.inf for r in out):
        raise ValueError(f"split needs three finite positive ratios, got {ratios}")
    return out


def split_ranges(l_data: int, ratios=SPLIT_RATIOS) -> dict:
    """Contiguous train/val/test timestep ranges from fractional ratios."""
    r = _split_ratios(ratios)
    a = int(l_data * r[0] / sum(r))
    b = a + int(l_data * r[1] / sum(r))
    if not 0 < a < b < l_data:
        raise ValueError(f"ratios {ratios} leave an empty split for length {l_data}")
    return {"train": (0, a), "val": (a, b), "test": (b, l_data)}

