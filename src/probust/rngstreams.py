"""Deterministic derivation of independent RNG streams.

One master seed plus a tuple key (typically the sample index) yields one
PCG64 stream via numpy's SeedSequence spawn-key mechanism. Streams for
distinct keys are statistically independent, and the derivation itself is a
pure function, so batch runs are reproducible regardless of how the work is
scheduled or how many workers consume it.

Batched samplers take any range of indices; each index still draws from its
own stream, so a range's samples equal the one-at-a-time ones however the
range is split.

A block's streams are seeded at once. Building one ``SeedSequence`` per index
costs more than deciding a small graph, so :func:`block_rngs` computes numpy's
SeedSequence hash (numpy 1.17+, unchanged under NEP 19) for every index of a
block in uint32 lanes. The words that depend only on the master seed and the
branch are mixed once; the index words are mixed row-wise. That gives each
row's ``generate_state(4, uint64)`` words, which seed numpy's own PCG64
through :class:`_SeedWords`. numpy still draws every coin, so no stream bit
changes from :func:`derive_rng`, which stays the scalar reference. At import
one row of the block path, hashing, seeding and drawing, is compared with
``derive_rng``; if it differs, :func:`block_rngs` falls back to
``derive_rng`` itself.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

MAX_SEED = 2**64 - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def check_count(count: int) -> int:
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    return count


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(seq))


def _bounds(lo: int, hi: int, size: int) -> list[tuple[int, int]]:
    """Bounds of the consecutive ``size``-sized parts of lo..hi-1; the last
    part may be shorter."""
    return [(a, min(a + size, hi)) for a in range(lo, hi, size)]


def _words(n: int) -> list[int]:
    """``n``'s 32-bit words, least significant first; 0 is one word."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _mix(x, y):
    """SeedSequence's ``mix``, on ints or uint32 arrays (mod 2^32)."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> _XSHIFT


class _HashMix:
    """SeedSequence's ``hashmix``; its multiplier advances on every call,
    whatever the value, so ints and uint32 arrays can share one sequence."""

    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * _MULT_A & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> _XSHIFT


def _seed_words(master_seed: int, branch: tuple, lo: int, hi: int) -> np.ndarray:
    """Row r: ``SeedSequence(master_seed, spawn_key=(*branch, lo + r))
    .generate_state(4, np.uint64)``. The index's words past the first must
    be the same for the whole range (no multiple of 2^32 inside lo+1..hi-1).
    """
    # entropy: the seed padded to the pool size, the branch words, the index words
    head = _words(master_seed)
    head += [0] * (_POOL_SIZE - len(head))
    for key in branch:
        head += _words(key)
    hashmix = _HashMix()
    pool = [hashmix(w) for w in head[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    low = np.arange(lo & _MASK32, (lo & _MASK32) + (hi - lo), dtype=np.uint32)
    for w in [*head[_POOL_SIZE:], low, *_words(lo)[1:]]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    state = np.empty((hi - lo, 2 * _POOL_SIZE), dtype="<u4")
    const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        state[:, i] = value ^ value >> _XSHIFT
    return state.view("<u8")


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is already computed: the four uint64
    words PCG64 asks for."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


def _fast_rngs(master_seed: int, branch: tuple, lo: int, hi: int) -> list:
    rngs = []
    # hash each run of indices whose words past the first agree separately
    while lo < hi:
        stop = min(hi, (lo | _MASK32) + 1)
        words = _seed_words(master_seed, branch, lo, stop)
        rngs += [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]
        lo = stop
    return rngs


def _self_check() -> bool:
    """One row of the block path, with two-word seed and index and a
    branch, against :func:`derive_rng`."""
    seed, branch, idx = MAX_SEED, (3, 1 << 40), (1 << 32) + 5
    expected = derive_rng(seed, *branch, idx).random(3)
    try:
        (rng,) = _fast_rngs(seed, branch, idx, idx + 1)
        return rng.random(3).tobytes() == expected.tobytes()
    except (AssertionError, TypeError, ValueError):  # a PCG64 that asks for other words
        return False


BLOCK_SEEDING = _self_check()


def block_rngs(master_seed: int, branch: tuple, lo: int, hi: int) -> list:
    """``derive_rng(master_seed, *branch, idx)`` for idx in lo..hi-1: the
    same streams, seeded a block at a time."""
    check_seed(master_seed)
    if BLOCK_SEEDING:
        return _fast_rngs(master_seed, branch, lo, hi)
    return [derive_rng(master_seed, *branch, idx) for idx in range(lo, hi)]


def coin_rows(master_seed: int, branch: tuple, lo: int, hi: int, width: int) -> np.ndarray:
    """Row r holds the first ``width`` uniforms of stream (*branch, lo + r),
    exactly what ``derive_rng(master_seed, *branch, lo + r).random(width)``
    returns."""
    coins = np.empty((hi - lo, width))
    for rng, row in zip(block_rngs(master_seed, branch, lo, hi), coins):
        rng.random(out=row)
    return coins
