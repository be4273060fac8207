"""Deterministic derivation of independent RNG streams.

One master seed plus a tuple key (typically the sample index) yields one
PCG64 stream via numpy's SeedSequence spawn-key mechanism. Streams for
distinct keys are statistically independent, and the derivation itself is a
pure function, so batch runs are reproducible regardless of how the work is
scheduled or how many workers consume it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))
