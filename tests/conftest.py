"""Shared fixtures: small deterministic stores and graphs."""

import numpy as np
import pytest

from psld.dataset import SeriesStore, generate_synthetic
from psld.numerics import Rng
from psld.sampler import GraphSpec


@pytest.fixture
def rng():
    return Rng(1234)


@pytest.fixture
def tiny_store():
    # 3 nodes, 10 steps, a path graph 0-1-2
    values = np.arange(30, dtype=float).reshape(3, 10)
    return SeriesStore(
        values=values,
        node_ids=("a", "b", "c"),
        adjacency=((0, 1, 1.0), (1, 2, 1.0)),
    )


@pytest.fixture
def synth_store():
    return generate_synthetic(8, 200, Rng(7))


def line_graph(n: int, rng: Rng, d_in: int = 3, d_out: int = 2) -> GraphSpec:
    """n nodes in a path, random features and weight."""
    edges = [(v, v + 1, 1.0) for v in range(n - 1)] + [(v + 1, v, 1.0) for v in range(n - 1)]
    g = rng.gen
    return GraphSpec(
        edges=edges,
        features=g.standard_normal((n, d_in)),
        weight=g.standard_normal((d_in, d_out)),
        norm_mode="target_degree",
    )
