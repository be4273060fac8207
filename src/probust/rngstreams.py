"""Deterministic derivation of independent RNG streams.

One master seed plus a tuple key (typically the sample index) yields one
PCG64 stream via numpy's SeedSequence spawn-key mechanism. Streams for
distinct keys are statistically independent, and the derivation itself is a
pure function, so batch runs are reproducible regardless of how the work is
scheduled or how many workers consume it.

Batched samplers walk the indices in fixed blocks of ``BLOCK``; each index
still draws from its own stream, so a block's samples equal the one-at-a-time
ones and block bounds never depend on the worker count.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

MAX_SEED = 2**64 - 1
BLOCK = 256  # indices per batched block


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


def index_blocks(count: int, start: int = 0) -> list[tuple[int, int]]:
    """Bounds (lo, hi) of the consecutive ``BLOCK``-sized blocks of
    start..start+count-1; the last block may be shorter."""
    end = start + count
    return [(lo, min(lo + BLOCK, end)) for lo in range(start, end, BLOCK)]


def coin_rows(master_seed: int, branch: tuple, lo: int, hi: int, width: int) -> np.ndarray:
    """Row r holds the first ``width`` uniforms of stream (*branch, lo + r),
    exactly what ``derive_rng(master_seed, *branch, lo + r).random(width)``
    returns."""
    coins = np.empty((hi - lo, width))
    for idx, row in zip(range(lo, hi), coins):
        derive_rng(master_seed, *branch, idx).random(out=row)
    return coins
