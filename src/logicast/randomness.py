"""Deterministic shared randomness.

Both ends of a transmission must derive bit-identical pseudo-random
matrices from a seed carried in the header, across platforms and numpy
versions, so everything here is fixed-function splitmix64: the k-th draw
from a seed is finalize(seed + (k+1)*GOLDEN) in 64-bit arithmetic.  The
vector variant produces the same words as the scalar one.
"""
from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """splitmix64 finalizer of a 64-bit value."""
    z = x & MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def draw(seed: int, key: int) -> int:
    """The key-th 64-bit word of the stream seeded by `seed`."""
    return mix64(seed + (key + 1) * GOLDEN)


def draw_array(seed: int, keys: np.ndarray) -> np.ndarray:
    """Vectorized `draw` over a uint64 key array: one result array and one
    scratch array, each step computed in place."""
    with np.errstate(over="ignore"):
        z = keys + np.uint64(1)
        z *= np.uint64(GOLDEN)
        z += np.uint64(seed & MASK64)
        t = z >> np.uint64(30)
        z ^= t
        z *= np.uint64(_MUL1)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MUL2)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        return z


def derive_seed(seed: int, lane: int) -> int:
    """Independent child seed for a numbered lane of a protocol."""
    return draw(seed, lane)
