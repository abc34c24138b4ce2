"""Series storage, CSV round trips, synthetic data, normalization, splits.

A :class:`SeriesStore` holds one value row per node over a shared time axis,
plus an optional undirected weighted adjacency.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import itemgetter

import numpy as np

from .exceptions import FormatError, ParseError, ShapeError
from .numerics import Rng

SIGMA_FLOOR = 1e-8
SPLIT_RATIOS = (0.6, 0.2, 0.2)
MIN_SYNTH_LENGTH = 64


@dataclass(frozen=True)
class SeriesStore:
    """Node-major series values with node ids and an optional edge array.

    ``values`` has shape (n_nodes, l_data). ``adjacency`` is a read-only
    (n_edges, 3) float64 array of directed ``[src, dst, weight]`` rows, or
    None; undirected inputs carry both directions. It is built from a
    tuple of triples or any array of that shape. A read-only float64 array
    is kept as is, so stores derived by ``apply_norm`` and
    ``restrict_time`` share their parent's edges; any other input is
    copied once. Node indices must be integers in [0, n_nodes) without
    self-loops, and weights finite; float64 holds indices exactly below
    2**53. Instances are treated as immutable after construction.
    """

    values: np.ndarray
    node_ids: tuple
    adjacency: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if v.ndim != 2:
            raise ShapeError(f"series values must be 2-D, got shape {v.shape}")
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


def _edge_array(edges, n_nodes: int) -> np.ndarray:
    """Validated read-only (n_edges, 3) float64 array of ``edges``.

    A read-only float64 array is returned as is; anything else is copied.
    """
    a = edges
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=np.float64)
        if a.shape == (0,):
            a = a.reshape(0, 3)
        a.flags.writeable = False
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"adjacency must be (n_edges, 3) [src, dst, weight] rows, got {a.shape}")
    ends = a[:, :2]
    integral = (np.isfinite(ends) & (ends == np.floor(ends))).all(axis=1)
    in_range = ((ends >= 0) & (ends < n_nodes)).all(axis=1)
    loop = ends[:, 0] == ends[:, 1]
    finite = np.isfinite(a[:, 2])
    bad = ~integral | ~in_range | loop | ~finite
    if bad.any():
        row = int(np.argmax(bad))
        src, dst, weight = a[row].tolist()
        if not integral[row]:
            raise ValueError(f"edge ({src!r}, {dst!r}) has a non-integer node index")
        if not in_range[row]:
            raise ValueError(f"edge ({int(src)}, {int(dst)}) out of range for {n_nodes} nodes")
        if loop[row]:
            raise ValueError(f"self-loop on node {int(src)} is not supported")
        raise ValueError(f"edge ({int(src)}, {int(dst)}) has non-finite weight {weight!r}")
    return a


@dataclass(frozen=True)
class NormStats:
    """Per-node location and population scale fitted on a leading segment."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=np.float64))


def _parse_float(token: str, line_no: int, field_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(
            f"line {line_no}, field {field_no}: cannot parse {token!r} as a number"
        ) from None


def _non_finite(line_no: int, field_no: int, value: float) -> ParseError:
    return ParseError(f"line {line_no}, field {field_no}: non-finite value {value!r}")


def load_csv(path, adjacency_path=None) -> SeriesStore:
    """Read a series CSV (rows are nodes, columns timesteps).

    A leading id column is auto-detected: if the first field of the first
    data row is not numeric, every row is expected to start with an id.
    Lines are split as ``str.splitlines`` splits them, and blank lines are
    skipped but counted. The file is read line by line and each line's
    fields go through ``float`` straight into one float64 buffer, so no
    per-value Python object outlives its line.
    """
    data = array("d")
    ids, line_nos = [], []
    has_ids = width = None
    with _utf8_text(path) as f:
        line_no = 0
        for raw in f:
            for line in raw.splitlines():
                line_no += 1
                if not line.strip():
                    continue
                fields = line.split(",")
                if has_ids is None:
                    has_ids = not _is_number(fields[0])
                    width = len(fields) - has_ids
                if len(fields) - has_ids != width:
                    raise FormatError(
                        f"line {line_no}: expected {width} values, got {len(fields) - has_ids}"
                    )
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
                    data.extend([_parse_float(tok.strip(), line_no, i + 1)
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
        raise _non_finite(line_nos[row], col + 1, float(values[row, col]))

    adjacency = None
    if adjacency_path is not None:
        adjacency = _load_adjacency(adjacency_path, values.shape[0])
    return SeriesStore(values, tuple(ids), adjacency)


@contextmanager
def _utf8_text(path):
    """Open path as UTF-8 text; bytes that do not decode raise FormatError naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            yield f
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

    The columns are converted in bulk. Only when a line fails to convert,
    has a non-finite weight, or names an edge that leaves [0, n_nodes) or
    loops, are the lines walked again to name the first bad one.
    """
    with _utf8_text(path) as f:
        raw_lines = f.read().splitlines()
    rows = list(map(str.split, filter(str.strip, raw_lines), repeat(",")))
    columns = _bulk_edge_columns(rows, n_nodes)
    if columns is None:
        _raise_first_bad_line(path, raw_lines, n_nodes)
    edges = _both_directions(*columns)
    edges.flags.writeable = False
    return edges


def _column(rows, k: int, convert) -> np.ndarray:
    fields = map(str.strip, map(itemgetter(k), rows))
    return np.fromiter(map(convert, fields), dtype=np.float64)


def _bulk_edge_columns(rows, n_nodes: int):
    """(src, dst, weight) float64 columns, or None if some line is bad."""
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    weighted = widths == 3
    if not np.all(weighted | (widths == 2)):
        return None
    try:
        src = _column(rows, 0, int)
        dst = _column(rows, 1, int)
        w = np.ones(len(rows))
        w[weighted] = _column(compress(rows, weighted.tolist()), 2, float)
    except (ValueError, OverflowError):
        return None
    in_range = (src >= 0) & (src < n_nodes) & (dst >= 0) & (dst < n_nodes)
    if not np.all(in_range & (src != dst) & np.isfinite(w)):
        return None
    return src, dst, w


def _raise_first_bad_line(path, raw_lines, n_nodes: int) -> None:
    """Walk the lines with the bulk converters and raise for the first bad one."""
    for line_no, line in enumerate(raw_lines, 1):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) not in (2, 3):
            raise FormatError(
                f"line {line_no}: adjacency rows need 2 or 3 fields, got {len(fields)}"
            )
        try:
            src, dst = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"line {line_no}: node indices must be integers") from None
        w = _parse_float(fields[2], line_no, 3) if len(fields) == 3 else 1.0
        if not math.isfinite(w):
            raise _non_finite(line_no, 3, w)
        if not (0 <= src < n_nodes and 0 <= dst < n_nodes):
            raise FormatError(
                f"{path}: line {line_no}: edge ({src}, {dst}) out of range for {n_nodes} nodes"
            )
        if src == dst:
            raise FormatError(f"{path}: line {line_no}: self-loop on node {src} is not supported")


def _both_directions(src, dst, w) -> np.ndarray:
    """Edge rows (src, dst, w), (dst, src, w) interleaved per input edge."""
    return np.stack([src, dst, w, dst, src, w], axis=1).reshape(-1, 3)


def save_csv(store: SeriesStore, path) -> None:
    """Write the series with id column, full round-trip float precision."""
    with open(path, "w", encoding="utf-8") as f:
        for node_id, row in zip(store.node_ids, store.values):
            f.write(node_id + "," + ",".join(repr(float(x)) for x in row) + "\n")


def save_adjacency_csv(store: SeriesStore, path) -> None:
    """Write each undirected edge once as 'src,dst,weight'."""
    edges = store.adjacency if store.adjacency is not None else np.empty((0, 3))
    upper = edges[edges[:, 0] < edges[:, 1]]
    ends = upper[:, :2].astype(np.int64)
    with open(path, "w", encoding="utf-8") as f:
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
    # one row of the upper triangle at a time keeps memory O(n_nodes)
    near = []
    for i in range(n_nodes):
        diff = pos[i] - pos[i + 1:]
        near.append(i + 1 + np.flatnonzero(np.hypot(diff[:, 0], diff[:, 1]) <= radius))
    src = np.repeat(np.arange(n_nodes), [len(js) for js in near])
    dst = np.concatenate(near)
    ids = tuple(f"n{i:03d}" for i in range(n_nodes))
    return SeriesStore(values, ids, _both_directions(src, dst, np.ones(len(src))))


def fit_norm_stats(store: SeriesStore, train_len: int) -> NormStats:
    """Per-node mean and population std over timesteps [0, train_len)."""
    if not 2 <= train_len <= store.l_data:
        raise ValueError(
            f"train_len must be in [2, {store.l_data}] to fit a scale, got {train_len}"
        )
    head = store.values[:, :train_len]
    return NormStats(head.mean(axis=1), head.std(axis=1))


def apply_norm(store: SeriesStore, stats: NormStats, sigma_floor: float = SIGMA_FLOOR) -> SeriesStore:
    """Return a store with values (x - mu) / max(sigma, sigma_floor)."""
    if stats.mu.shape[0] != store.n_nodes:
        raise ShapeError(f"stats cover {stats.mu.shape[0]} nodes, store has {store.n_nodes}")
    scale = np.maximum(stats.sigma, sigma_floor)
    normed = (store.values - stats.mu[:, None]) / scale[:, None]
    return SeriesStore(normed, store.node_ids, store.adjacency)


def restrict_time(store: SeriesStore, t0: int, t1: int) -> SeriesStore:
    """Slice the store to timesteps [t0, t1), keeping ids and adjacency."""
    if not (0 <= t0 < t1 <= store.l_data):
        raise ValueError(f"invalid time range [{t0}, {t1}) for length {store.l_data}")
    return SeriesStore(store.values[:, t0:t1].copy(), store.node_ids, store.adjacency)


def split_ranges(l_data: int, ratios=SPLIT_RATIOS) -> dict:
    """Contiguous train/val/test timestep ranges from fractional ratios."""
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"need three positive ratios, got {ratios}")
    total = float(sum(ratios))
    a = int(l_data * ratios[0] / total)
    b = a + int(l_data * ratios[1] / total)
    if not 0 < a < b < l_data:
        raise ValueError(f"ratios {ratios} leave an empty split for length {l_data}")
    return {"train": (0, a), "val": (a, b), "test": (b, l_data)}

