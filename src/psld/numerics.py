"""A splittable, seed-deterministic PRNG and numpy's BLAS provenance.

Randomness flows from a single integer seed through ``Rng`` children that
are derived from the seed and a key path alone, never from how much the
parent stream was consumed, so any subtree of streams can be reproduced
in isolation.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np


def _key_to_int(key) -> int:
    # crc32 gives a stable 32-bit value for string keys on every platform.
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    k = int(key)
    if k < 0:
        raise ValueError(f"rng path keys must be non-negative, got {k}")
    return k


class Rng:
    """Deterministic PRNG tree built on PCG64 and SeedSequence spawn keys.

    ``Rng(seed).child(*keys)`` yields a stream fully determined by
    ``(seed, keys)``. Identical seed and call sequence reproduce identical
    draws; child streams do not depend on parent consumption order.
    """

    def __init__(self, seed: int, path: tuple = ()):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self.path = tuple(_key_to_int(k) for k in path)
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.path))
        )

    def child(self, *keys) -> "Rng":
        return Rng(self.seed, self.path + keys)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"


def _openblas(name: str, restype):
    """OpenBLAS's ``get_<name>`` in the BLAS numpy loaded, or ``"unknown"`` if it has none."""
    umath = getattr(np, "_core", None) or np.core
    lib = ctypes.CDLL(umath._multiarray_umath.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        call = getattr(lib, f"{prefix}_get_{name}64_", None)
        if call is not None:
            call.argtypes, call.restype = [], restype
            return call().decode() if restype is ctypes.c_char_p else call()
    return "unknown"


def blas_provenance() -> dict:
    """numpy's version and its BLAS: name, version, OpenBLAS core and config, threads.

    Each can change the last bits of float64 products, so of artifacts (a
    DYNAMIC_ARCH OpenBLAS picks its core at run time); unread ones are "unknown".
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"),
            "openblas_core": _openblas("corename", ctypes.c_char_p),
            "openblas_config": _openblas("config", ctypes.c_char_p),
            "blas_threads": _openblas("num_threads", ctypes.c_int)}
