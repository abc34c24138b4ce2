import numpy as np

from psld.numerics import Rng


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

