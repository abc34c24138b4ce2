"""A splittable, seed-deterministic PRNG, and numpy's summation order.

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


# np.add.reduce sums a contiguous float64 array's n values left to right if
# n < 8; if n <= _PAIRWISE_BLOCK, accumulator j sums values j, j+8, ... left to
# right, the eight add as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the last n % 8
# follow one by one; else it adds the sums of the two parts split at _pairwise_split.
_PAIRWISE_BLOCK = 128
# Values per summed node of the metrics' pairwise tree, at least _PAIRWISE_BLOCK:
# the two error buffers of ``training._metrics`` hold 128 KiB each.
SUM_LEAF = 16384


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum splits n > 128 values: half, down to a multiple of 8."""
    half = n // 2
    return half - half % 8


def _pairwise_leaves(n: int) -> list:
    """Lengths, in order, of the highest nodes of numpy's pairwise tree over n
    values that hold at most ``SUM_LEAF`` values each."""
    if n <= SUM_LEAF:
        return [n]
    half = _pairwise_split(n)
    return _pairwise_leaves(half) + _pairwise_leaves(n - half)


def _pairwise_join(n: int, leaf_sums) -> float:
    """The pairwise sum of n values from the sums of its ``_pairwise_leaves``, taken in order."""
    if n <= SUM_LEAF:
        return next(leaf_sums)
    half = _pairwise_split(n)
    return _pairwise_join(half, leaf_sums) + _pairwise_join(n - half, leaf_sums)
