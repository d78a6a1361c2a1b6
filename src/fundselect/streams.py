"""Deterministic RNG substream derivation.

All randomness in the package flows from one 64-bit seed. A named substream is
derived as ``default_rng([seed, crc32(name_0), crc32(name_1), ...])``: the seed
plus the CRC-32 of each path component (integers pass through unchanged) form
the entropy sequence of a fresh PCG64 generator. Two substreams differ in at
least one path component, so they are independent streams, and the derivation
is stable across platforms and worker counts.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & 0xFFFFFFFF
    return zlib.crc32(str(key).encode("utf-8"))


def substream(seed: int, *path) -> np.random.Generator:
    """Return the generator for substream `path` of `seed`."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + [_key_to_int(k) for k in path]
    return np.random.default_rng(entropy)
