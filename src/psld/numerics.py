"""A splittable, seed-deterministic PRNG.

Randomness flows from a single integer seed through ``Rng`` children that
are derived from the seed and a key path alone, never from how much the
parent stream was consumed, so any subtree of streams can be reproduced
in isolation.
"""

from __future__ import annotations

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

