"""Deterministic derivation of independent RNG streams.

One master seed plus a tuple key (typically the sample index) yields one
PCG64 stream via numpy's SeedSequence spawn-key mechanism. Streams for
distinct keys are statistically independent, and the derivation itself is a
pure function, so batch runs are reproducible regardless of how the work is
scheduled or how many workers consume it.

Batched samplers take any range of indices; each index still draws from its
own stream, so a range's samples equal the one-at-a-time ones however the
range is split.

A block's streams are 32-byte PCG64 states, not Python objects. Building one
``SeedSequence``, ``PCG64`` and ``Generator`` per index costs more than
deciding a small graph, so :class:`Streams` computes every index's state in
numpy lanes: numpy's SeedSequence hash (numpy 1.17+, unchanged under NEP 19)
in uint32 lanes, the seed and branch words mixed once and the index words
row-wise, then numpy's PCG64 seeding step in uint64 lanes. One PCG64 and one
Generator serve the whole block: for each row, its state is copied into the
generator's ``pcg64_random_t`` (found through the documented
``ctypes.state_address``) and ``Generator.random`` draws. A draw of w
doubles takes w steps of PCG64's LCG, so afterwards every row's state is
advanced by w steps at once, in closed form (Brown, "Random Number
Generation with Arbitrary Strides", 1994), and a later draw continues the
stream. numpy still draws every coin, so no stream bit changes from
:func:`derive_rng`, which stays the scalar reference.

At import a read-only guard checks that memory layout, and one row of
:class:`Streams` (two-word seed and index, a branch, two draws) is compared
with ``derive_rng``. If either fails, :func:`block_streams` hands out
``derive_rng`` generators instead.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import DomainError

MAX_SEED = 2**64 - 1

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h)
_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_MASK64, _MASK128 = 2**64 - 1, 2**128 - 1


def check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed <= MAX_SEED:
        raise DomainError(f"master seed must be a 64-bit unsigned integer, got {seed!r}")
    return int(seed)


def check_count(count: int) -> int:
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    return count


def check_keys(keys: tuple) -> tuple:
    """``keys``, once no stream key (a branch key or an index) is negative:
    SeedSequence refuses one, and :func:`_words` would never end on one."""
    if any(key < 0 for key in keys):
        raise DomainError(f"stream keys must be >= 0, got {keys}")
    return keys


def derive_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for stream ``key`` under ``master_seed``."""
    seq = np.random.SeedSequence(entropy=check_seed(master_seed), spawn_key=check_keys(key))
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


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products ``a * b``, from 32-bit pieces."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _times(lo: np.ndarray, hi: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of ``(hi:lo) * c mod 2^128``, ``c`` a Python int."""
    c_lo, c_hi = np.uint64(c & _MASK64), np.uint64(c >> 64)
    return lo * c_lo, _mulhi(lo, c_lo) + lo * c_hi + hi * c_lo


def _stride(width: int) -> tuple[int, int]:
    """``(MULT^w, sum of MULT^j over j < w)`` mod 2^128 for w = ``width``:
    ``width`` LCG steps take ``state`` to ``state * MULT^w + inc * sum``.
    Brown's square-and-multiply, O(log w) Python-int steps."""
    mult, plus, acc_mult, acc_plus = _MULT, 1, 1, 0
    while width:
        if width & 1:
            acc_mult = acc_mult * mult & _MASK128
            acc_plus = (acc_plus * mult + plus) & _MASK128
        plus = (mult + 1) * plus & _MASK128
        mult = mult * mult & _MASK128
        width >>= 1
    return acc_mult, acc_plus


def _advanced(states: np.ndarray, width: int) -> np.ndarray:
    """``states`` (rows of state_lo, state_hi, inc_lo, inc_hi) after
    ``width`` LCG steps each, in uint64 halves with carries."""
    mult, plus = _stride(width)
    state_lo, state_hi, inc_lo, inc_hi = states.T
    s_lo, s_hi = _times(state_lo, state_hi, mult)
    i_lo, i_hi = _times(inc_lo, inc_hi, plus)
    lo = s_lo + i_lo
    return np.stack([lo, s_hi + i_hi + (lo < s_lo), inc_lo, inc_hi], axis=1)


def _pcg_states(master_seed: int, branch: tuple, lo: int, hi: int) -> np.ndarray:
    """Row r: the ``pcg64_random_t`` that ``derive_rng(master_seed, *branch,
    lo + r)`` starts from, as uint64 words state_lo, state_hi, inc_lo,
    inc_hi.

    numpy seeds PCG64 from SeedSequence words w0..w3 with
    ``pcg_setseq_128_srandom_r``: ``inc = (w2:w3 << 1) | 1`` and
    ``state = ((inc + w0:w1) * MULT + inc) mod 2^128``, high word first in
    each pair. The sums carry and the product is formed from 64-bit halves.
    """
    check_keys((*branch, lo))  # the lowest index of the range
    parts = [np.empty((0, 4), dtype=np.uint64)]
    # hash each run of indices whose words past the first agree separately
    while lo < hi:
        stop = min(hi, (lo | _MASK32) + 1)
        parts.append(_seed_words(master_seed, branch, lo, stop))
        lo = stop
    w0, w1, w2, w3 = np.concatenate(parts).T
    inc_hi, inc_lo = w2 << 1 | w3 >> 63, w3 << 1 | 1
    sum_lo = inc_lo + w1
    sum_hi = inc_hi + w0 + (sum_lo < inc_lo)
    prod_lo, prod_hi = _times(sum_lo, sum_hi, _MULT)
    state_lo = prod_lo + inc_lo
    state_hi = prod_hi + inc_hi + (state_lo < prod_lo)
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _state_view(bitgen: np.random.PCG64) -> np.ndarray:
    """A writable view, as four uint64 words, of the ``pcg64_random_t`` that
    ``bitgen``'s state struct points to. Used only once
    :func:`_layout_matches` has passed on this numpy."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.ctypeslib.as_array((ctypes.c_uint64 * 4).from_address(address))


def _layout_matches(bitgen: np.random.PCG64) -> bool:
    """Read-only guard of :func:`_state_view`: the pointer stored at
    ``state_address`` points into ``bitgen`` itself, past ``state_address``,
    and the 32 bytes there are the state and inc that ``bitgen.state``
    reports, each low word first."""
    start = id(bitgen)  # the object's address
    end = start + type(bitgen).__basicsize__
    address = bitgen.ctypes.state_address
    if not start <= address <= end - 8:
        return False
    pointer = ctypes.c_void_p.from_address(address).value or 0
    if not address < pointer <= end - 32:
        return False
    state = bitgen.state["state"]
    want = b"".join(state[key].to_bytes(16, "little") for key in ("state", "inc"))
    return ctypes.string_at(pointer, 32) == want


class Streams:
    """The streams ``derive_rng(master_seed, *branch, idx)`` for idx in
    lo..hi-1, stream r held as its 32-byte PCG64 state in row r of
    ``states``. One PCG64 and one Generator serve the block: each draw
    copies a row's state into the generator and draws; then every drawn
    row's state is advanced past the draw by :func:`_advanced`."""

    def __init__(self, master_seed: int, branch: tuple, lo: int, hi: int):
        self.states = _pcg_states(check_seed(master_seed), branch, lo, hi)
        bitgen = np.random.PCG64(0)
        self._rng = np.random.Generator(bitgen)
        self._slot = _state_view(bitgen)

    def random(self, rows: np.ndarray, width: int) -> np.ndarray:
        """Row k: the next ``width`` uniforms of stream ``rows[k]``, which
        later draws read on from."""
        out = np.empty((len(rows), width))
        states, slot, draw = self.states[rows], self._slot, self._rng.random
        for state, row in zip(states, out):
            slot[...] = state
            draw(out=row)
        self.states[rows] = _advanced(states, width)
        return out


class _ReferenceStreams:
    """The same streams as :func:`derive_rng` generators, for when the
    self-check fails."""

    def __init__(self, master_seed: int, branch: tuple, lo: int, hi: int):
        self.rngs = [derive_rng(master_seed, *branch, idx) for idx in range(lo, hi)]

    def random(self, rows: np.ndarray, width: int) -> np.ndarray:
        out = np.empty((len(rows), width))
        for r, row in zip(rows, out):
            self.rngs[r].random(out=row)
        return out


def _self_check() -> bool:
    """The layout guard, then two draws from one :class:`Streams` row, with
    two-word seed and index and a branch, against :func:`derive_rng`."""
    seed, branch, idx = MAX_SEED, (3, 1 << 40), (1 << 32) + 5
    try:
        if not _layout_matches(np.random.PCG64(seed)):
            return False
    except (AttributeError, KeyError, TypeError):  # a PCG64 without this interface
        return False
    streams = Streams(seed, branch, idx, idx + 1)
    got = np.concatenate([streams.random(np.zeros(1, dtype=int), 3) for _ in range(2)], axis=1)
    return got.tobytes() == derive_rng(seed, *branch, idx).random(6).tobytes()


BLOCK_SEEDING = _self_check()


def block_streams(master_seed: int, branch: tuple, lo: int, hi: int):
    """The streams ``derive_rng(master_seed, *branch, idx)`` for idx in
    lo..hi-1, drawn by ``random(rows, width)``: a :class:`Streams` unless the
    self-check failed, then the generators themselves."""
    return (Streams if BLOCK_SEEDING else _ReferenceStreams)(master_seed, branch, lo, hi)


def coin_rows(master_seed: int, branch: tuple, lo: int, hi: int, width: int) -> np.ndarray:
    """Row r holds the first ``width`` uniforms of stream (*branch, lo + r),
    exactly what ``derive_rng(master_seed, *branch, lo + r).random(width)``
    returns."""
    return block_streams(master_seed, branch, lo, hi).random(np.arange(hi - lo), width)
