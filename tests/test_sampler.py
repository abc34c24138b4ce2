import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from psld import sampler
from psld.dataset import SeriesStore, generate_synthetic
from psld.numerics import Rng
from psld.sampler import (
    NORM_MODES,
    GraphSpec,
    SampleDesign,
    random_graph,
    rss_partition,
    unbiasedness_mc_check,
)


def six_node_store():
    values = np.arange(60, dtype=float).reshape(6, 10)
    edges = []
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)):
        edges.append((a, b, 1.0))
        edges.append((b, a, 1.0))
    return SeriesStore(values=values, node_ids=tuple(f"n{i}" for i in range(6)),
                       adjacency=tuple(edges))


def reference_rss_partition(store, n_subgraphs, l_in, l_out, training, rng):
    """(node_index, x, y, adjacency) per chunk: its own copy of the chunk's series and
    views of it, and the double slice of the dense matrix filled edge by edge."""
    n = store.n_nodes
    l_time = store.l_data - l_in - l_out + 1
    order = rng.gen.permutation(n) if training else np.arange(n)
    size = n // n_subgraphs
    bounds = [k * size for k in range(n_subgraphs)] + [n]
    dense = np.zeros((n, n))
    for a, b, w in store.adjacency.tolist():  # later rows overwrite earlier ones
        dense[int(a), int(b)] = w
    view = np.lib.stride_tricks.sliding_window_view
    batches = []
    for lo, hi in zip(bounds, bounds[1:]):
        idx = order[lo:hi]
        sliced = store.values[idx]
        x = view(sliced, l_in, axis=1)[:, :l_time].transpose(1, 2, 0)
        y = view(sliced[:, l_in:], l_out, axis=1).transpose(1, 2, 0)
        batches.append((idx.copy(), x, y, dense[np.ix_(idx, idx)]))
    return batches


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestPartition:
    def test_eval_mode_is_identity_order(self):
        store = six_node_store()
        batches = rss_partition(store, 2, 3, 2, training=False, rng=Rng(0))
        assert [b.node_index.tolist() for b in batches] == [[0, 1, 2], [3, 4, 5]]

    def test_remainder_goes_to_last_chunk(self):
        store = SeriesStore(values=np.zeros((10, 12)),
                            node_ids=tuple(str(i) for i in range(10)),
                            adjacency=())
        batches = rss_partition(store, 3, 4, 2, training=False, rng=Rng(0))
        assert [len(b.node_index) for b in batches] == [3, 3, 4]

    def test_training_covers_all_nodes_exactly_once(self):
        store = six_node_store()
        for seed in range(10):
            batches = rss_partition(store, 3, 3, 2, training=True, rng=Rng(seed))
            seen = sorted(i for b in batches for i in b.node_index.tolist())
            assert seen == list(range(6))

    def test_training_shuffles_eventually(self):
        store = six_node_store()
        orders = {
            tuple(i for b in rss_partition(store, 2, 3, 2, training=True,
                                           rng=Rng(seed))
                  for i in b.node_index.tolist())
            for seed in range(20)
        }
        assert len(orders) > 1

    def test_window_tensor_shapes_and_values(self):
        store = six_node_store()
        batches = rss_partition(store, 2, 3, 2, training=False, rng=Rng(0))
        b = batches[0]
        n_time = 10 - 3 - 2 + 1
        assert b.x.shape == (n_time, 3, 3)  # (window, l_in, nodes)
        assert b.y.shape == (n_time, 2, 3)
        # window 0 of node 0: x rows 0..2, y rows 3..4 of the raw series
        assert np.array_equal(b.x[0, :, 0], np.array([0.0, 1.0, 2.0]))
        assert np.array_equal(b.y[0, :, 0], np.array([3.0, 4.0]))

    def test_subgraph_adjacency_matches_edge_oracle(self):
        store = six_node_store()
        edge_set = {(a, b): w for a, b, w in store.adjacency}
        for seed in range(5):
            for batch in rss_partition(store, 2, 3, 2, training=True,
                                       rng=Rng(seed)):
                idx = batch.node_index
                for i, u in enumerate(idx):
                    for j, v in enumerate(idx):
                        want = edge_set.get((int(u), int(v)), 0.0)
                        assert batch.adjacency[i, j] == want

    def test_repeated_edge_takes_last_weight(self):
        edges = [(0, 1, 1.0), (2, 3, 4.0), (0, 1, 2.0), (3, 2, 5.0), (0, 1, 3.0),
                 (1, 0, 6.0), (2, 3, 7.0)]
        store = SeriesStore(values=np.zeros((4, 6)), node_ids=tuple("abcd"),
                            adjacency=tuple(edges))
        for k in (1, 2):
            want = np.zeros((4, 4))
            want[0, 1], want[1, 0], want[2, 3], want[3, 2] = 3.0, 6.0, 7.0, 5.0
            batches = rss_partition(store, k, 2, 2, training=False, rng=Rng(0))
            for b in batches:
                assert np.array_equal(b.adjacency, want[np.ix_(b.node_index, b.node_index)])

    @pytest.mark.parametrize("seed", range(6))
    def test_blocks_equal_dense_loop_oracle(self, seed):
        # reference: the dense matrix filled edge by edge, later rows overwriting
        # earlier ones, then double-sliced per chunk
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 40))
        n_edges = int(g.integers(0, 4 * n))
        src = g.integers(0, n, n_edges)
        dst = g.integers(0, n, n_edges)
        keep = src != dst
        edges = np.column_stack((src[keep], dst[keep], g.standard_normal(keep.sum())))
        store = SeriesStore(values=np.zeros((n, 6)), node_ids=tuple(map(str, range(n))),
                            adjacency=edges)
        dense = np.zeros((n, n))
        for a, b, w in edges.tolist():
            dense[int(a), int(b)] = w
        for k in sorted({1, max(1, n // 3), n}):
            for training in (False, True):
                batches = rss_partition(store, k, 2, 2, training=training, rng=Rng(seed))
                for b in batches:
                    idx = b.node_index
                    assert b.adjacency.shape == (len(idx), len(idx))
                    assert np.array_equal(b.adjacency, dense[np.ix_(idx, idx)])

    def test_no_dense_matrix_at_scale(self):
        # the partition keeps edges inside a chunk and never builds the
        # (n, n) matrix, so its peak stays below n**2 float64 beyond what it returns
        n = 2048
        g = np.random.default_rng(0)
        src = g.integers(0, n, 20000)
        dst = (src + g.integers(1, n, src.size)) % n
        store = SeriesStore(values=np.zeros((n, 8)), node_ids=tuple(map(str, range(n))),
                            adjacency=np.column_stack((src, dst, g.random(src.size))))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batches = rss_partition(store, 16, 2, 2, training=True, rng=Rng(1))
            for b in batches:  # the blocks are built on first read
                b.adjacency
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        blocks = sum(b.adjacency.nbytes for b in batches)
        assert peak < store.values.nbytes + blocks + n * n * 8

    @pytest.mark.parametrize("training,seed", [(False, 0), (True, 0), (True, 5)])
    def test_windows_equal_stacked_copies(self, training, seed):
        # reference: the per-window copy construction the views replace
        store = generate_synthetic(10, 64, Rng(2))
        l_in, l_out = 6, 4
        l_time = store.l_data - l_in - l_out + 1
        for b in rss_partition(store, 3, l_in, l_out, training=training, rng=Rng(seed)):
            sliced = store.values[b.node_index]
            x = np.stack([sliced[:, t:t + l_in].T for t in range(l_time)])
            y = np.stack([sliced[:, t + l_in:t + l_in + l_out].T for t in range(l_time)])
            assert b.x.shape == x.shape and b.y.shape == y.shape
            assert np.array_equal(b.x, x)
            assert np.array_equal(b.y, y)

    def test_windows_are_read_only(self):
        store = six_node_store()
        for b in rss_partition(store, 2, 3, 2, training=True, rng=Rng(0)):
            assert not b.x.flags.writeable
            assert not b.y.flags.writeable
            with pytest.raises(ValueError):
                b.x[0, 0, 0] = 1.0

    @pytest.mark.parametrize("l_in", [4, 24])
    def test_returned_arrays_scale_with_series_not_windows(self, l_in):
        # the batches hold one copy of the series per chunk, however many
        # windows they expose; copying every window would hold ~(l_in + l_out)
        # times that
        store = generate_synthetic(64, 200, Rng(4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            batches = rss_partition(store, 4, l_in, 12, training=True, rng=Rng(1))
            for b in batches:  # the windows and blocks are built on first read
                b.x, b.y, b.adjacency
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        small = sum(b.adjacency.nbytes + b.node_index.nbytes for b in batches)
        assert held <= store.values.nbytes + small + 32 * 1024

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_batches_equal_per_chunk_reference(self, training, seed):
        # 11 nodes in 3 chunks leaves a remainder chunk of 5
        store = generate_synthetic(11, 70, Rng(seed))
        for k, l_in, l_out in ((3, 6, 4), (1, 30, 40), (11, 1, 1)):
            got = rss_partition(store, k, l_in, l_out, training=training, rng=Rng(seed))
            want = reference_rss_partition(store, k, l_in, l_out, training, Rng(seed))
            assert len(got) == len(want) == k
            for g, w in zip(got, want):
                assert g.node_index.dtype == w[0].dtype
                for name, b in zip(("node_index", "x", "y", "adjacency"), w):
                    a = getattr(g, name)
                    assert a.shape == b.shape
                    assert np.array_equal(bits(a), bits(b))

    def test_arrays_built_once_on_first_read_and_shared(self, monkeypatch):
        # the call builds no batch's windows or block; each batch builds its
        # own once, on its first read, and its x and y share one copy of its
        # series
        store = generate_synthetic(12, 64, Rng(3))
        assert len(store.adjacency)
        built = {"windows": [], "blocks": []}
        real_windows, real_block = sampler._windows, SeriesStore._adjacency_block

        def windows(values, l_in, l_out):
            if values is not store.values:  # not the length check
                built["windows"].append(values.shape)
            return real_windows(values, l_in, l_out)

        def block(self, node_index):
            built["blocks"].append(tuple(node_index))
            return real_block(self, node_index)

        monkeypatch.setattr(sampler, "_windows", windows)
        monkeypatch.setattr(SeriesStore, "_adjacency_block", block)
        batches = rss_partition(store, 4, 5, 3, training=True, rng=Rng(0))
        assert built == {"windows": [], "blocks": []}
        assert batches[2].adjacency.shape == (3, 3)
        assert built == {"windows": [], "blocks": [tuple(batches[2].node_index)]}
        for _ in range(2):
            for b in batches:
                b.x, b.y, b.adjacency
        assert built["windows"] == [(3, 64)] * 4
        assert built["blocks"] == [tuple(batches[k].node_index) for k in (2, 0, 1, 3)]

        def root(a):
            while a.base is not None:  # views, and the strided view's wrapper
                a = a.base
            return a

        for b in batches:
            assert root(b.x) is root(b.y)
            assert root(b.x).shape == (3, 64)
            assert not np.shares_memory(root(b.x), store.values)
        assert len({id(root(b.x)) for b in batches}) == 4

    def test_arrays_are_cached_per_batch(self):
        # acceptance 4 reads adjacency[i, j] in a loop: a read must not rebuild it
        batch = rss_partition(six_node_store(), 2, 3, 2, training=True, rng=Rng(0))[1]
        for name in ("x", "y", "adjacency"):
            assert getattr(batch, name) is getattr(batch, name), name

    def test_edges_grouped_by_source_once_per_store(self):
        # the grouping is made by the first block read, not by the partition
        # or the windows, and every later block of any partition reuses it
        store = generate_synthetic(12, 64, Rng(3))
        batches = rss_partition(store, 4, 5, 3, training=True, rng=Rng(0))
        for b in batches:
            b.x, b.y
        assert "_edges_by_source" not in vars(store)
        batches[1].adjacency
        index = store._edges_by_source
        for b in batches + rss_partition(store, 3, 5, 3, training=True, rng=Rng(1)):
            b.adjacency
        assert store._edges_by_source is index

    def test_too_many_subgraphs_rejected(self):
        store = six_node_store()
        with pytest.raises(ValueError):
            rss_partition(store, 7, 3, 2, training=False, rng=Rng(0))

    def test_too_long_windows_rejected(self):
        store = six_node_store()
        with pytest.raises(ValueError, match="too short for windows; needs at least 11"):
            rss_partition(store, 2, 8, 3, training=False, rng=Rng(0))


def undirected(*links):
    """Edge rows carrying each (a, b) link in both directions."""
    return [(a, b, 1.0) for a, b in links] + [(b, a, 1.0) for a, b in links]


class TestGraphSpec:
    def test_neighbor_normalization(self):
        # repeated rows collapse to one pair, and pairs sort by (src, dst)
        g = GraphSpec(edges=((0, 2, 1.0), (0, 1, 1.0), (0, 1, 5.0), (1, 0, 1.0), (2, 0, 1.0)),
                      features=np.zeros((3, 2)),
                      weight=np.zeros((2, 2)),
                      norm_mode="target_degree")
        assert g.src.tolist() == [0, 0, 1, 2]
        assert g.dst.tolist() == [1, 2, 0, 0]
        assert g.degree.tolist() == [2, 1, 1]
        assert g.inv_norm.tolist() == [0.5, 0.5, 1.0, 1.0]

    def test_takes_store_adjacency(self):
        store = six_node_store()
        g = GraphSpec(store.adjacency, np.ones((6, 2)), np.eye(2))
        assert g.edges is store.adjacency
        assert g.degree.tolist() == [2] * 6

    def test_weight_column_is_not_read(self):
        f, w = Rng(3).gen.standard_normal((4, 3)), Rng(4).gen.standard_normal((3, 2))
        edges = np.array(undirected((0, 1), (1, 2), (2, 3), (0, 3)))
        other = edges.copy()
        other[:, 2] = np.arange(len(edges)) - 3.5
        for mode in NORM_MODES:
            a, b = GraphSpec(edges, f, w, mode), GraphSpec(other, f, w, mode)
            assert np.array_equal(a.inv_norm, b.inv_norm)
            assert np.array_equal(sampler._inv_norm_matrix(a), sampler._inv_norm_matrix(b))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop on node 0"):
            GraphSpec(edges=((0, 0, 1.0),), features=np.zeros((1, 2)),
                      weight=np.zeros((2, 2)), norm_mode="target_degree")

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range for 2 nodes"):
            GraphSpec(edges=((0, 2, 1.0),), features=np.zeros((2, 2)),
                      weight=np.zeros((2, 2)))

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            GraphSpec(edges=undirected((0, 1)), features=np.zeros((2, 2)),
                      weight=np.zeros((2, 2)), norm_mode="mean")

    def test_rejects_mismatched_weight(self):
        with pytest.raises(ValueError, match=r"got \(2, 2\) and \(3, 2\)"):
            GraphSpec(edges=(), features=np.zeros((2, 2)), weight=np.zeros((3, 2)))

    def test_symmetric_sqrt_neighbor_without_neighbors_is_named(self):
        # node 2 is a neighbor of 0 but has no neighbors, so C_02 = sqrt(2 * 0)
        # has no inverse; the graph is refused before any division
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="node 2 is a neighbor but has none"):
                GraphSpec(edges=((0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)),
                          features=np.ones((3, 2)), weight=np.eye(2),
                          norm_mode="symmetric_sqrt")
            g = GraphSpec(edges=((0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)),
                          features=np.ones((3, 2)), weight=np.eye(2), norm_mode="unit")
            assert np.isfinite(g.inv_norm).all()


def true_aggregates(g):
    """Row v: the full-neighborhood aggregation of node v, sum over u of (h_u W) / C_vu."""
    return sampler._inv_norm_matrix(g) @ (g.features @ g.weight)


class TestAggregation:
    def test_two_neighbor_frozen_example(self):
        # node 1 in a 3-path: neighbors {0, 2}, degree 2,
        # features [1,0] and [0,1], weight identity
        g = GraphSpec(edges=undirected((0, 1), (1, 2)),
                      features=np.array([[1.0, 0.0],
                                         [5.0, 5.0],
                                         [0.0, 1.0]]),
                      weight=np.eye(2),
                      norm_mode="target_degree")
        got = true_aggregates(g)[1]
        assert np.max(np.abs(got - np.array([0.5, 0.5]))) <= 1e-15

    def test_symmetric_sqrt_constant(self):
        g = GraphSpec(edges=undirected((0, 1), (1, 2)),
                      features=np.array([[1.0, 0.0],
                                         [5.0, 5.0],
                                         [0.0, 1.0]]),
                      weight=np.eye(2),
                      norm_mode="symmetric_sqrt")
        # C_1u = sqrt(2 * 1) for both neighbors
        want = (np.array([1.0, 0.0]) + np.array([0.0, 1.0])) / math.sqrt(2.0)
        assert np.max(np.abs(true_aggregates(g)[1] - want)) <= 1e-15

    def test_isolated_node_is_zero(self):
        g = GraphSpec(edges=undirected((1, 2)),
                      features=np.ones((3, 2)),
                      weight=np.ones((2, 2)),
                      norm_mode="target_degree")
        assert not sampler._inv_norm_matrix(g)[0].any()
        assert np.array_equal(true_aggregates(g)[0], np.zeros(2))

    def test_design_validation(self):
        with pytest.raises(ValueError):
            SampleDesign(inclusion_prob=np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            SampleDesign(inclusion_prob=np.array([1.5]))

    @pytest.mark.parametrize("bad", [np.nan, -np.nan])
    def test_design_rejects_nan(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            SampleDesign(inclusion_prob=np.array([bad, 0.5]))


class TestMcCheck:
    def test_star_graph_center_mean_near_truth(self):
        # hub 0 with 4 leaves, unit features/weight, no degree scaling:
        # true aggregate at the hub is 4; under p=0.5 each trial contributes
        # (#sampled leaves)/0.5 with mean 4.
        n = 5
        g = GraphSpec(
            edges=undirected((0, 1), (0, 2), (0, 3), (0, 4)),
            features=np.ones((n, 1)),
            weight=np.ones((1, 1)),
            norm_mode="unit",
        )
        design = SampleDesign.uniform(n, 0.5)
        trials = 20_000
        report = unbiasedness_mc_check(g, design, trials, Rng(99))
        # center estimate: mean of Binomial(4, .5)/.5 over 20k trials
        se = math.sqrt(4 * 0.5 * 0.5) / 0.5 / math.sqrt(trials)
        truth = 4.0
        assert abs(report.rel_err[0] * truth) <= 3.0 * se
        assert report.max_z <= 5.0

    def test_full_inclusion_is_exact(self):
        g = random_graph(20, Rng(4))
        design = SampleDesign.uniform(20, 1.0)
        report = unbiasedness_mc_check(g, design, 50, Rng(5))
        assert report.max_rel_err == 0.0

    def test_matches_neighbor_list_estimate_per_trial(self):
        # the vectorized einsum path must agree with the per-node estimator,
        # accumulated neighbor by neighbor on the reference graph
        g = random_graph(12, Rng(6))
        ref = NeighborListGraph(neighbor_lists(12, g.edges), g.features, g.weight, g.norm_mode)
        design = SampleDesign.uniform(12, 0.7)
        inc = Rng(7).gen.random((40, 12)) < design.inclusion_prob
        truth = np.zeros((12, g.weight.shape[1]))
        means = np.zeros_like(truth)
        for v in range(12):
            for u in ref.neighbors[v]:
                term = (ref.features[u] @ ref.weight) / ref_norm_constant(ref, v, u)
                truth[v] += term
                means[v] += inc[:, u].sum() * term / design.inclusion_prob[u]
        means /= 40
        report = unbiasedness_mc_check(g, design, 40, Rng(7))
        for v in range(12):
            denom = max(float(np.linalg.norm(truth[v])), 1e-12)
            want = float(np.linalg.norm(means[v] - truth[v])) / denom
            assert report.rel_err[v] == pytest.approx(want, abs=1e-10)

    def test_checkpoints_are_prefix_means(self):
        g = random_graph(10, Rng(1))
        design = SampleDesign.uniform(10, 0.5)
        r_short = unbiasedness_mc_check(g, design, 200, Rng(2))
        r_long = unbiasedness_mc_check(g, design, 800, Rng(2),
                                       checkpoints=(200, 800))
        # same seed: the first 200 trials are shared, so the checkpoint
        # reproduces the short run exactly
        assert np.array_equal(r_long.rel_err_at[200], r_short.rel_err)
        assert np.array_equal(r_long.rel_err_at[800], r_long.rel_err)


class TestRandomGraph:
    def test_deterministic(self):
        a = random_graph(15, Rng(3))
        b = random_graph(15, Rng(3))
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.features, b.features)

    def test_no_isolated_nodes(self):
        for seed in range(10):
            g = random_graph(10, Rng(seed), edge_prob=0.05)
            assert (g.degree > 0).all()

    def test_symmetry(self):
        g = random_graph(12, Rng(9))
        pairs = set(zip(g.src.tolist(), g.dst.tolist()))
        assert pairs == {(u, v) for v, u in pairs}

    @pytest.mark.parametrize("n", [2, 3, 17, 50])
    @pytest.mark.parametrize("edge_prob", [0.02, 0.2])
    def test_equals_pair_loop_reference(self, n, edge_prob):
        for seed in range(4):
            ref = pair_loop_random_graph(n, Rng(seed), edge_prob=edge_prob)
            g = random_graph(n, Rng(seed), edge_prob=edge_prob)
            pairs = [(v, u) for v, row in enumerate(ref.neighbors) for u in row]
            assert list(zip(g.src.tolist(), g.dst.tolist())) == pairs
            # every undirected link appears once per direction, with weight 1
            assert sorted(map(tuple, g.edges.tolist())) == [(v, u, 1.0) for v, u in pairs]
            assert np.array_equal(g.features, ref.features)
            assert np.array_equal(g.weight, ref.weight)


# --- references: neighbor-list graph, per-pair operator, pair-loop graph ---

@dataclass(frozen=True)
class NeighborListGraph:
    """Reference graph: a sorted tuple of neighbor indices per node."""

    neighbors: tuple
    features: np.ndarray
    weight: np.ndarray
    norm_mode: str = "target_degree"

    def __post_init__(self):
        nbs = tuple(tuple(sorted(set(int(u) for u in row))) for row in self.neighbors)
        n = len(nbs)
        for v, row in enumerate(nbs):
            for u in row:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of node {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop on node {v} is not supported")
        object.__setattr__(self, "neighbors", nbs)
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))

    @property
    def n_nodes(self) -> int:
        return len(self.neighbors)

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


def ref_norm_constant(g: NeighborListGraph, v: int, u: int) -> float:
    if g.norm_mode == "target_degree":
        return float(g.degree(v))
    if g.norm_mode == "symmetric_sqrt":
        return math.sqrt(g.degree(v) * g.degree(u))
    return 1.0


def ref_inv_norm_matrix(g: NeighborListGraph) -> np.ndarray:
    mat = np.zeros((g.n_nodes, g.n_nodes), dtype=np.float64)
    for v, row in enumerate(g.neighbors):
        for u in row:
            mat[v, u] = 1.0 / ref_norm_constant(g, v, u)
    return mat


def pair_loop_random_graph(n_nodes, rng, d_in=3, d_out=2, edge_prob=0.2,
                           norm_mode="target_degree"):
    g = rng.gen
    draw = g.random((n_nodes, n_nodes))
    nbs = [set() for _ in range(n_nodes)]
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if draw[i, j] < edge_prob:
                nbs[i].add(j)
                nbs[j].add(i)
    for i in range(n_nodes):
        if not nbs[i]:
            j = (i + 1) % n_nodes
            nbs[i].add(j)
            nbs[j].add(i)
    features = g.standard_normal((n_nodes, d_in))
    weight = g.standard_normal((d_in, d_out))
    return NeighborListGraph(tuple(tuple(sorted(s)) for s in nbs), features, weight, norm_mode)


def random_directed_graph(seed):
    """A small directed graph with repeated edges and, often, isolated nodes.

    Odd seeds add every edge's reverse, so symmetric_sqrt is defined there.
    """
    g = np.random.default_rng(seed)
    n = int(g.integers(2, 30))
    src, dst = g.integers(0, n, (2, int(g.integers(0, 3 * n))))
    src, dst = src[src != dst], dst[src != dst]
    if seed % 2:
        src, dst = np.append(src, dst), np.append(dst, src)
    repeat = g.integers(0, max(len(src), 1), len(src) // 3)
    src, dst = np.append(src, src[repeat]), np.append(dst, dst[repeat])
    edges = np.column_stack((src, dst, g.standard_normal(len(src))))
    return n, edges, g.standard_normal((n, 3)), g.standard_normal((3, 2))


def neighbor_lists(n, edges):
    return tuple(tuple(int(u) for b, u in edges[:, :2].tolist() if b == v) for v in range(n))


def mc_report_bytes(report):
    return (report.n_nodes, report.n_trials, report.rel_err.tobytes(),
            report.max_rel_err.hex(), report.max_z.hex(),
            {t: e.tobytes() for t, e in report.rel_err_at.items()})


@pytest.mark.parametrize("seed", range(36))
def test_operator_and_report_equal_neighbor_list_reference(seed, monkeypatch):
    n, edges, features, weight = random_directed_graph(seed)
    nbs = neighbor_lists(n, edges)
    design = SampleDesign(np.random.default_rng(seed).uniform(0.2, 1.0, n))
    checked = 0
    for mode in NORM_MODES:
        ref = NeighborListGraph(nbs, features, weight, mode)
        try:
            want = ref_inv_norm_matrix(ref)
        except ZeroDivisionError:
            # an edge into a node without neighbors: refused up front instead
            with pytest.raises(ValueError, match="symmetric_sqrt"):
                GraphSpec(edges, features, weight, mode)
            continue
        g = GraphSpec(edges, features, weight, mode)
        assert sampler._inv_norm_matrix(g).tobytes() == want.tobytes()
        got = unbiasedness_mc_check(g, design, 200, Rng(seed), checkpoints=(20, 200))
        # the same check with the reference operator in place of the new one
        with monkeypatch.context() as m:
            m.setattr(sampler, "_inv_norm_matrix", ref_inv_norm_matrix)
            expected = unbiasedness_mc_check(ref, design, 200, Rng(seed), checkpoints=(20, 200))
        assert mc_report_bytes(got) == mc_report_bytes(expected)
        checked += 1
    assert checked >= 2


def test_partition_on_synthetic_store():
    store = generate_synthetic(9, 64, Rng(0))
    batches = rss_partition(store, 4, 8, 4, training=True, rng=Rng(1))
    assert [len(b.node_index) for b in batches] == [2, 2, 2, 3]
    n_time = 64 - 8 - 4 + 1
    assert all(b.x.shape[0] == n_time for b in batches)
