import os
import subprocess
import sys

import numpy as np

from psld import numerics

from psld.numerics import Rng, blas_provenance


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
        # the child imports psld from where this process did, installed or not
        code = "from psld.numerics import blas_provenance; print(blas_provenance()['blas_threads'])"
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(numerics.__file__)))
        path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
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
