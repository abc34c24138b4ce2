import os
import subprocess
import sys

import numpy as np
import pytest

from psld import numerics

from psld.numerics import _PAIRWISE_BLOCK, Rng, _pairwise_split, blas_provenance


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



def _split(n):
    half = n // 2
    return half - half % 8


def pairwise_model(v, fold_below=8, block=128, split=_split, tree=True):
    """numpy's pairwise sum of the floats v, in pure Python, its rules as arguments."""
    n = len(v)
    if n < fold_below:
        total = 0.0
        for x in v:
            total += x
        return total
    if n <= block:
        r = list(v[:8])
        for i in range(8, n - n % 8, 8):
            for j in range(8):
                r[j] += v[i + j]
        if tree:
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        else:
            total = r[0]
            for x in r[1:]:
                total += x
        for x in v[n - n % 8:]:
            total += x
        return total
    half = split(n)
    return (pairwise_model(v[:half], fold_below, block, split, tree)
            + pairwise_model(v[half:], fold_below, block, split, tree))


class TestSummationOrder:
    """np.add.reduce's order, which the moving averages' shifted sums reproduce.

    Every add of the probes' random mantissas rounds, so summing them in
    another order changes the bits; each moved rule below is seen to change
    them. If numpy changes its order, the first test names the length
    where it did.
    """

    LENGTHS = (1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257,
               16383, 16384, 16385, 32779)
    MOVED = {
        "left fold below 16 values": dict(fold_below=16),
        "blocks of 64 values": dict(block=64),
        "blocks of 256 values": dict(block=256),
        "split at n // 2": dict(split=lambda n: n // 2),
        "accumulators added left to right": dict(tree=False),
    }

    @staticmethod
    def probe(n, seed=0):
        return np.random.default_rng([n, seed]).standard_normal(n)

    def probes(self):
        return [(n, self.probe(n, seed)) for n in self.LENGTHS for seed in range(3)]

    def test_numpy_sums_in_the_modelled_order(self):
        for n, a in self.probes():
            assert np.add.reduce(a) == 0.0 + pairwise_model(a.tolist()), n

    @pytest.mark.parametrize("rule", MOVED)
    def test_probes_see_a_moved_rule(self, rule):
        assert any(np.add.reduce(a) != pairwise_model(a.tolist(), **self.MOVED[rule])
                   for _, a in self.probes())

    def test_package_rules_are_the_model(self):
        assert _PAIRWISE_BLOCK == 128
        assert all(_pairwise_split(n) == _split(n) for n in range(129, 5000))


class TestBlasProvenance:
    FIELDS = {"numpy", "blas", "blas_version", "openblas_core", "openblas_config",
              "blas_threads"}

    def test_names_numpy_and_its_blas(self):
        got = blas_provenance()
        assert set(got) == self.FIELDS and got["numpy"] == np.__version__
        assert all(isinstance(v, str) and v for k, v in got.items() if k != "blas_threads")
        assert got["blas_threads"] == "unknown" or got["blas_threads"] >= 1

    def test_thread_count_is_the_environment_s(self):
        # OPENBLAS_NUM_THREADS is read when numpy loads, so a child process
        # with 1 thread reports 1
        code = "from psld.numerics import blas_provenance; print(blas_provenance()['blas_threads'])"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.strip()
        assert out == ("unknown" if blas_provenance()["blas_threads"] == "unknown" else "1")

    def test_every_field_falls_back_to_unknown(self, monkeypatch):
        def no_dicts(mode="stdout"):
            raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(numerics.np, "show_config", no_dicts)
        monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: object())
        got = blas_provenance()
        assert got == {"numpy": np.__version__, **{k: "unknown" for k in self.FIELDS - {"numpy"}}}
