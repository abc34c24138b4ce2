"""Shared fixtures: small deterministic stores."""

import numpy as np
import pytest

from psld.dataset import SeriesStore, generate_synthetic
from psld.numerics import Rng


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

