import collections

import numpy as np
import pytest

from psld.numerics import Rng, relu, shuffle_indices


def test_relu_clamps_negatives():
    x = np.array([-2.0, -0.0, 0.0, 3.5])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 0.0, 3.5]))


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).gen.random(5)
        b = Rng(42).gen.random(5)
        assert np.array_equal(a, b)

    def test_child_independent_of_parent_consumption(self):
        r1 = Rng(42)
        r1.gen.random(100)  # burn the parent stream
        r2 = Rng(42)
        a = r1.child("x", 3).gen.random(5)
        b = r2.child("x", 3).gen.random(5)
        assert np.array_equal(a, b)

    def test_distinct_children_distinct_streams(self):
        r = Rng(42)
        a = r.child("x").gen.random(5)
        b = r.child("y").gen.random(5)
        c = r.child("x", 0).gen.random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_nested_children_deterministic(self):
        a = Rng(9).child("epoch", 2).child("dropout", 5).gen.random(3)
        b = Rng(9).child("epoch", 2).child("dropout", 5).gen.random(3)
        assert np.array_equal(a, b)


class TestShuffle:
    def test_is_permutation(self):
        idx = shuffle_indices(50, Rng(0))
        assert sorted(idx.tolist()) == list(range(50))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            shuffle_indices(0, Rng(0))

    def test_uniform_over_permutations(self):
        # n=3 has 6 permutations; 60k draws, each should land near 1/6.
        counts = collections.Counter()
        r = Rng(2024)
        for i in range(60_000):
            counts[tuple(shuffle_indices(3, r.child(i)).tolist())] += 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / 60_000 - 1 / 6) < 0.01
