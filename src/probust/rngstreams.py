"""Deterministic RNG streams, read in windows (stream layout 2, since 0.4.0).

One master seed plus a tuple key names one PCG64 stream through numpy's
SeedSequence spawn-key mechanism: ``PCG64(SeedSequence(seed,
spawn_key=key))``. Streams for distinct keys are statistically independent,
and the derivation is a pure function, so runs are reproducible however the
work is scheduled. :func:`derive_rng` hands out such a stream as one
generator, for callers that draw a variable number of values per key.

A sampler whose every sample draws the same number of coins, its width w
(m for a direct sample, 2m for a coupled one), reads all its samples from
the one stream of its (seed, branch): the coins of sample idx are window idx,
positions idx*w ... idx*w + w - 1. PCG64 jumps to any position in
O(log position) steps (``PCG64.advance``), so :func:`window_rng` is the
scalar reference for one index, and :func:`coin_rows` draws the windows of
a whole index range in one ``Generator.random`` call. The windows do not
depend on where a range is cut, so results are the same across processes,
thread counts and part sizes.

Layout 1 (before 0.4.0) gave every sample index its own stream, key
(*branch, idx); seeded samples of the two layouts differ.
"""

from __future__ import annotations

import numpy as np
# numpy loads np.random on first use (about 9 ms); load it with the package,
# as before 0.4.0, so a command's first draw does not pay for it
import numpy.random

from .errors import DomainError

MAX_SEED = 2**64 - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def check_count(count: int) -> int:
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    return count


def check_keys(keys: tuple) -> tuple:
    """``keys``, once no stream key (a branch key or an index) is negative,
    which SeedSequence and a stream position refuse."""
    if any(key < 0 for key in keys):
        raise DomainError(f"stream keys must be >= 0, got {keys}")
    return keys


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=check_keys(key))
    return np.random.Generator(np.random.PCG64(seq))


def window_rng(master_seed: int, branch: tuple, idx: int, width: int) -> np.random.Generator:
    """Stream ``branch`` under ``master_seed``, advanced to window ``idx`` of
    ``width`` coins: its next ``width`` uniforms are sample idx's coins."""
    check_keys((*branch, idx))
    rng = derive_rng(master_seed, *branch)
    rng.bit_generator.advance(idx * width)
    return rng


def coin_rows(master_seed: int, branch: tuple, lo: int, hi: int, width: int) -> np.ndarray:
    """Row r holds window lo + r of ``width`` coins of stream ``branch``:
    what ``window_rng(master_seed, branch, lo + r, width).random(width)``
    returns, for every row in one draw."""
    coins = window_rng(master_seed, branch, lo, width).random((hi - lo) * width)
    return coins.reshape(hi - lo, width)


def _bounds(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Bounds of the consecutive ``size``-sized parts of lo..hi-1; the last
    part may be shorter."""
    return [(a, min(a + size, hi)) for a in range(lo, hi, size)]
