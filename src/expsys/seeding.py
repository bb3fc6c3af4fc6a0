"""Deterministic RNG streams.

All randomness in the package flows from a single 64-bit seed.  Sub-streams
are derived with SeedSequence spawn keys computed from stable string/int
tags, so every experiment is reproducible bit-for-bit given (seed, config),
including under per-task parallelism.
"""

import zlib

import numpy as np

from .errors import _integer


def _tag_key(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(repr(tag).encode("utf-8"))


def spawn_rng(seed: int, *tags) -> np.random.Generator:
    """Generator for the sub-stream identified by `tags` under `seed`."""
    seed = _integer(seed, "seed", 0)
    key = tuple(_tag_key(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
