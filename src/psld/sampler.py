"""Random subgraph partitioning and the sampled-neighborhood estimator.

``rss_partition`` splits the node set into disjoint contiguous chunks of a
(possibly shuffled) node order. A chunk's batch holds its node indices;
each batch builds its series windows and its adjacency block only when
they are read. Training reads neither: it gathers its minibatches from
the train store by node index. The estimator half checks, on a dense
operator over random graphs, that the Horvitz-Thompson aggregation over
an inclusion-sampled node subset matches the full-neighborhood
aggregation in expectation. Training computes no such aggregation, so
this does not check the training gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataset import SeriesStore, _both_directions, _edge_array, _windows
from .numerics import Rng

NORM_MODES = ("target_degree", "symmetric_sqrt", "unit")


class SubgraphBatch:
    """The nodes ``node_index`` of ``store``, with their windows and double-sliced adjacency.

    ``x`` is (n_windows, l_in, n_sub), ``y`` is (n_windows, l_out, n_sub),
    ``adjacency`` is the dense (n_sub, n_sub) weight block for the chunk:
    ``adjacency[i, j]`` is the weight of the edge from ``node_index[i]``
    to ``node_index[j]`` (the last one where the edge array repeats it),
    else 0. Each is built on its first read and kept by the batch. ``x``
    and ``y`` are read-only strided views into one copy of the chunk's
    series, made on the first read of either, so they hold
    O(n_sub * l_data) values however many windows they expose; indexing a
    subset of windows copies only that subset.
    """

    def __init__(self, node_index: np.ndarray, store: SeriesStore, l_in: int, l_out: int):
        self.node_index = node_index
        self._store, self._l_in, self._l_out = store, l_in, l_out

    @cached_property
    def _views(self) -> tuple:
        sliced = self._store.values[self.node_index]
        return tuple(w.transpose(1, 2, 0) for w in _windows(sliced, self._l_in, self._l_out))

    @property
    def x(self) -> np.ndarray:
        return self._views[0]

    @property
    def y(self) -> np.ndarray:
        return self._views[1]

    @cached_property
    def adjacency(self) -> np.ndarray:
        return self._store._adjacency_block(self.node_index)


def rss_partition(
    store: SeriesStore,
    n_subgraphs: int,
    l_in: int,
    l_out: int,
    training: bool,
    rng: Rng,
) -> list:
    """Partition nodes into n_subgraphs chunks, one ``SubgraphBatch`` each.

    In training mode the node order is a seeded shuffle, otherwise the
    identity. Chunks are contiguous runs of size n_nodes // n_subgraphs;
    the remainder goes to the last chunk. The union of chunks is the full
    node set and no two chunks share a node. A call costs O(n_nodes):
    each batch builds its windows and adjacency block when they are read.
    """
    n = store.n_nodes
    if not 1 <= n_subgraphs <= n:
        raise ValueError(f"n_subgraphs must be in [1, {n}], got {n_subgraphs}")
    _windows(store.values, l_in, l_out)  # a series too short for a window fails here
    order = rng.gen.permutation(n) if training else np.arange(n)
    size = n // n_subgraphs
    bounds = [k * size for k in range(n_subgraphs)] + [n]
    return [SubgraphBatch(order[lo:hi].copy(), store, l_in, l_out)
            for lo, hi in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class GraphSpec:
    """Static directed graph with node features and a shared projection.

    ``edges`` are ``SeriesStore.adjacency`` rows, validated the same way:
    ``[src, dst, weight]`` makes dst a neighbor of src, and the weight is
    not read. ``features`` is (n_nodes, d_in), ``weight`` is (d_in, d_out),
    applied as features @ weight. The sorted distinct pairs are ``src`` and
    ``dst``, with ``inv_norm`` = 1 / C_vu for each; ``degree`` counts
    neighbors. ``norm_mode`` picks C_vu: v's degree, the square root of
    both degrees, or 1.
    """

    edges: np.ndarray
    features: np.ndarray
    weight: np.ndarray
    norm_mode: str = "target_degree"

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        w = np.asarray(self.weight, dtype=np.float64)
        if f.ndim != 2 or w.ndim != 2 or w.shape[0] != f.shape[1]:
            raise ValueError(f"need features (n_nodes, d_in) and weight (d_in, d_out), "
                             f"got {f.shape} and {w.shape}")
        n = f.shape[0]
        edges = _edge_array(self.edges, n)
        key = np.sort(edges[:, 0].astype(np.intp) * n + edges[:, 1].astype(np.intp))
        src, dst = np.divmod(key[np.diff(key, prepend=-1) != 0], n)
        degree = np.bincount(src, minlength=n)
        for name, value in (("edges", edges), ("features", f), ("weight", w),
                            ("src", src), ("dst", dst), ("degree", degree),
                            ("inv_norm", _inv_norm(self.norm_mode, src, dst, degree))):
            object.__setattr__(self, name, value)

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]


def _inv_norm(norm_mode: str, src: np.ndarray, dst: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """1 / C_vu for every pair (v, u) = (src, dst); the only reader of a norm mode."""
    if norm_mode == "target_degree":
        return 1.0 / degree[src]
    if norm_mode == "symmetric_sqrt":
        sinks = dst[degree[dst] == 0]
        if sinks.size:
            raise ValueError(f"symmetric_sqrt: node {sinks[0]} is a neighbor but has none itself")
        return 1.0 / np.sqrt(degree[src] * degree[dst])
    if norm_mode == "unit":
        return np.ones(len(src))
    raise ValueError(f"norm_mode must be one of {NORM_MODES}, got {norm_mode!r}")


@dataclass(frozen=True)
class SampleDesign:
    """Independent per-node inclusion probabilities, each in (0, 1]."""

    inclusion_prob: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.inclusion_prob, dtype=np.float64)
        if p.ndim != 1 or p.size < 1:
            raise ValueError(f"inclusion_prob must be a 1-D vector, got shape {p.shape}")
        if not np.all((p > 0.0) & (p <= 1.0)):
            raise ValueError("inclusion probabilities must lie in (0, 1]")
        object.__setattr__(self, "inclusion_prob", p)

    @classmethod
    def uniform(cls, n_nodes: int, p: float) -> "SampleDesign":
        return cls(np.full(n_nodes, float(p)))


def _inv_norm_matrix(g: GraphSpec) -> np.ndarray:
    """Matrix with [v, u] = 1 / C_vu on edges and 0 elsewhere."""
    mat = np.zeros((g.n_nodes, g.n_nodes), dtype=np.float64)
    mat[g.src, g.dst] = g.inv_norm
    return mat


@dataclass(frozen=True)
class McReport:
    """Monte-Carlo comparison of the sampled estimator against the truth.

    ``rel_err[v]`` is |mean - true| / |true| in the euclidean norm for node
    v, ``max_z`` the largest per-coordinate studentized deviation of the
    trial mean, and ``rel_err_at`` holds the per-node errors after the
    requested trial-count prefixes of the same trial stream.
    """

    n_nodes: int
    n_trials: int
    rel_err: np.ndarray
    max_rel_err: float
    max_z: float
    rel_err_at: dict


def _rel_err(mean_est: np.ndarray, true_ref: np.ndarray) -> np.ndarray:
    dev = np.linalg.norm(mean_est - true_ref, axis=1)
    ref = np.linalg.norm(true_ref, axis=1)
    return np.where(dev == 0.0, 0.0, dev / np.maximum(ref, 1e-300))


def unbiasedness_mc_check(
    g: GraphSpec,
    design: SampleDesign,
    n_trials: int,
    rng: Rng,
    checkpoints: tuple = (),
) -> McReport:
    """Sample node subsets for n_trials rounds and compare estimator means.

    Trial t includes node u when an independent uniform draw falls below
    P(u). The trial mean is computed through the estimator's linearity in
    the inclusion indicators, so a design with P identically 1 reproduces
    the true aggregation bit for bit. Statistical confidence needs on the
    order of hundreds of trials; smaller counts still report.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if design.inclusion_prob.shape[0] != g.n_nodes:
        raise ValueError(
            f"design covers {design.inclusion_prob.shape[0]} nodes, graph has {g.n_nodes}"
        )
    for t in checkpoints:
        if not 1 <= t <= n_trials:
            raise ValueError(f"checkpoint {t} outside [1, {n_trials}]")

    p = design.inclusion_prob
    projected = g.features @ g.weight                       # (n, d_out)
    inv_norm = _inv_norm_matrix(g)                          # (n, n)
    true_ref = inv_norm @ projected
    reweighted = inv_norm / p[None, :]

    inc = (rng.gen.random((n_trials, g.n_nodes)) < p[None, :]).astype(np.float64)
    # per-trial estimates for every node: (n_trials, n, d_out)
    vals = np.einsum("vu,tu,ud->tvd", reweighted, inc, projected, optimize=True)

    mean_est = reweighted @ (inc.mean(axis=0)[:, None] * projected)
    rel = _rel_err(mean_est, true_ref)

    std = vals.std(axis=0, ddof=1) if n_trials > 1 else np.zeros_like(true_ref)
    se = std / math.sqrt(n_trials)
    dev = np.abs(mean_est - true_ref)
    z = np.where(dev == 0.0, 0.0, dev / np.maximum(se, 1e-300))

    rel_at = {}
    for t in checkpoints:
        mean_t = reweighted @ (inc[:t].mean(axis=0)[:, None] * projected)
        rel_at[int(t)] = _rel_err(mean_t, true_ref)

    return McReport(
        n_nodes=g.n_nodes,
        n_trials=n_trials,
        rel_err=rel,
        max_rel_err=float(rel.max()),
        max_z=float(z.max()),
        rel_err_at=rel_at,
    )


def random_graph(
    n_nodes: int,
    rng: Rng,
    edge_prob: float = 0.2,
    norm_mode: str = "target_degree",
) -> GraphSpec:
    """Seeded undirected random graph with no isolated nodes.

    Pair i < j is linked when its entry of one uniform (n, n) draw is below
    edge_prob; then each node still isolated, in index order, is linked to
    the next node (mod n). Features are (n, 3) and the weight (3, 2).
    """
    if n_nodes < 2:
        raise ValueError(f"need at least two nodes, got {n_nodes}")
    g = rng.gen
    src, dst = np.nonzero(np.triu(g.random((n_nodes, n_nodes)) < edge_prob, k=1))
    linked = np.bincount(np.append(src, dst), minlength=n_nodes) > 0
    lonely = []
    for i in np.flatnonzero(~linked).tolist():
        if not linked[i]:
            lonely.append(i)
            linked[[i, (i + 1) % n_nodes]] = True
    lonely = np.array(lonely, dtype=np.intp)
    src, dst = np.append(src, lonely), np.append(dst, (lonely + 1) % n_nodes)
    edges = _both_directions(src, dst, np.ones(len(src)))
    return GraphSpec(edges, g.standard_normal((n_nodes, 3)), g.standard_normal((3, 2)),
                     norm_mode)
