"""Edge indexing and graph realizations as bit vectors.

A labeled graph on ``n`` vertices is stored as an integer bitmask over the
``m = n(n-1)/2`` potential edges. Edge indices run 1..m in lexicographic
order of the vertex pair (u, v) with 0 <= u < v < n; bit ``i-1`` of the mask
is set iff edge ``i`` is present. The index order is a frozen convention:
history-dependent edge models are *defined* relative to it, and the coupled
generator decides edges from index m down to 1.

Conversions from a mask to structure go through numpy, starting from
:meth:`Realization.present_positions`. Neighbor masks of a mask of at most
``WORD_BITS`` edges (n <= 11, one signed 64-bit word) are the exception:
there a Python bit loop beats numpy's per-call overhead.

A batch of B realizations travels as (m, W) uint64 edge words and its count
B, from the sampling kernel to the block deciders and the record writers:
W = ceil(B / 64), bit g % 64 of word [e, g // 64] is edge e+1 of graph g,
and the padding lanes of the last word are zero. The samplers yield a range
as consecutive batches, one per kernel part, and each is decided or written
as it comes, so batches are never joined. This module owns the format:
words come from the kernel's bool rows (:func:`words_from_rows`) or from
bitmasks (:func:`words_from_bits`), and leave as bitmasks
(:func:`bits_from_words`) only where one graph leaves the batch, or as
record text (:func:`hex_from_words`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DomainError

WORD_BITS = 63  # edges in one int64 mask; m <= 63 means n <= 11


@dataclass(frozen=True)
class EdgeSpace:
    """The set of potential edges of a labeled n-vertex graph."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"vertex count must be an integer >= 1, got {self.n!r}")

    @property
    def m(self) -> int:
        return self.n * (self.n - 1) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.m) - 1

    @cached_property
    def endpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (u, v) of every edge; position i-1 holds edge i's.

        Built on first use and cached on this instance only.
        """
        u, v = np.triu_indices(self.n, 1)
        dtype = np.int16 if self.n <= np.iinfo(np.int16).max else np.int32
        return u.astype(dtype), v.astype(dtype)

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Vertex pair of each edge, position i-1 holds edge i's pair."""
        u, v = self.endpoints
        return tuple(zip(u.tolist(), v.tolist()))

    @cached_property
    def _incident_masks(self) -> tuple[int, ...]:
        """For each vertex, the bitmask of the edges incident to it.

        Edge i = (a, b) shares an endpoint with exactly the edges in
        ``inc[a] | inc[b]``, itself included.
        """
        u, v = self.endpoints
        edges = np.arange(self.m)
        bit = np.left_shift(1, edges & 7).astype(np.uint8)
        # packed rows directly: an (n, m) bool array would take 8x the memory
        rows = np.zeros((self.n, (self.m + 7) // 8), dtype=np.uint8)
        np.bitwise_or.at(rows, (u, edges >> 3), bit)
        np.bitwise_or.at(rows, (v, edges >> 3), bit)
        return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)

    def adjacency_mask(self, i: int) -> int:
        """Bitmask of edges sharing exactly one endpoint with edge ``i``."""
        self._check_index(i)
        a, b = self.pairs[i - 1]
        inc = self._incident_masks
        return (inc[a] | inc[b]) & ~(1 << (i - 1))

    @property
    def hex_width(self) -> int:
        """Hex digits of a realization bitmask: one per four edges, at least one."""
        return max(1, (self.m + 3) // 4)

    @cached_property
    def hex_format(self) -> str:
        """Format spec of a realization bitmask as ``hex_width`` lowercase hex
        digits, least-significant bit = edge index 1."""
        return f"0{self.hex_width}x"

    def hex_rows(self, rows: np.ndarray) -> np.ndarray:
        """The (B, hex_width) uint8 ASCII text of B realization bitmasks given
        as (B, k) little-endian byte rows, 2k >= hex_width, each row as
        ``hex_format`` spells it: the bytes most significant first, as
        lowercase hex (``bytes.hex``, which measured several times faster
        than a nibble table lookup), the last ``hex_width`` digits kept."""
        text = np.ascontiguousarray(rows[:, ::-1]).tobytes().hex().encode()
        hexes = np.frombuffer(text, dtype=np.uint8).reshape(len(rows), 2 * rows.shape[1])
        return hexes[:, -self.hex_width :]

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.m:
            raise DomainError(f"edge index {i} outside 1..{self.m} (n={self.n})")


def edge_index(u: int, v: int, space: EdgeSpace) -> int:
    """1-based index of edge (u, v), lexicographic by pair, requires u < v."""
    n = space.n
    if not (isinstance(u, int) and isinstance(v, int)):
        raise DomainError(f"vertices must be integers, got ({u!r}, {v!r})")
    if not (0 <= u < v < n):
        raise DomainError(f"need 0 <= u < v < n={n}, got (u={u}, v={v})")
    return u * n - u * (u + 1) // 2 + (v - u)


def index_to_edge(i: int, space: EdgeSpace) -> tuple[int, int]:
    """Inverse of :func:`edge_index`."""
    space._check_index(i)
    return space.pairs[i - 1]


@dataclass(frozen=True)
class Realization:
    """One concrete graph: a bit per potential edge."""

    space: EdgeSpace
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.space.full_mask:
            raise DomainError(
                f"bitmask 0x{self.bits:x} does not fit {self.space.m} edges"
            )

    def has_edge(self, i: int) -> bool:
        self.space._check_index(i)
        return bool(self.bits >> (i - 1) & 1)

    def edge_count(self) -> int:
        return self.bits.bit_count()

    def present_positions(self) -> np.ndarray:
        """Bit positions (edge index - 1) of the present edges, ascending."""
        m = self.space.m
        raw = np.frombuffer(self.bits.to_bytes((m + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(raw, count=m, bitorder="little"))

    def present_edges(self) -> Iterator[int]:
        """Edge indices present, ascending."""
        return iter((self.present_positions() + 1).tolist())

    def complement(self) -> "Realization":
        return Realization(self.space, self.bits ^ self.space.full_mask)

    def is_subset(self, other: "Realization") -> bool:
        _check_same_space(self, other)
        return self.bits & ~other.bits == 0

    def __or__(self, other: "Realization") -> "Realization":
        return union(self, other)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of neighbors; cached, the realization is immutable."""
        space = self.space
        n = space.n
        if space.m > WORD_BITS:
            pos = self.present_positions()
            u, v = space.endpoints
            adj = np.zeros((n, n), dtype=bool)
            adj[u[pos], v[pos]] = True
            adj[v[pos], u[pos]] = True
            rows = np.packbits(adj, axis=1, bitorder="little")
            return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
        masks = [0] * n
        pairs = space.pairs
        b = self.bits
        while b:
            low = b & -b
            u, v = pairs[low.bit_length() - 1]
            masks[u] |= 1 << v
            masks[v] |= 1 << u
            b ^= low
        return tuple(masks)

    def to_hex(self) -> str:
        """Lowercase fixed-width hex, as ``EdgeSpace.hex_format`` spells it."""
        return format(self.bits, self.space.hex_format)

    @classmethod
    def from_hex(cls, text: str, space: EdgeSpace) -> "Realization":
        try:
            bits = int(text, 16)
        except ValueError as exc:
            raise DomainError(f"not a hex realization: {text!r}") from exc
        if bits > space.full_mask:
            raise DomainError(f"hex {text!r} has bits beyond edge {space.m}")
        return cls(space, bits)

    @classmethod
    def empty(cls, space: EdgeSpace) -> "Realization":
        return cls(space, 0)

    @classmethod
    def complete(cls, space: EdgeSpace) -> "Realization":
        return cls(space, space.full_mask)

    @classmethod
    def from_edges(cls, space: EdgeSpace, edges) -> "Realization":
        bits = 0
        for u, v in edges:
            bits |= 1 << (edge_index(u, v, space) - 1)
        return cls(space, bits)


class SuffixHistory(NamedTuple):
    """Decided values of the edges with index >= start.

    ``bits`` is aligned to absolute edge positions (bit i-1 = edge i) and may
    only carry bits at positions >= start-1. ``start = m+1`` means nothing has
    been decided yet.
    """

    space: EdgeSpace
    start: int
    bits: int

    @classmethod
    def empty_for(cls, space: EdgeSpace) -> "SuffixHistory":
        return cls(space, space.m + 1, 0)

    def is_empty(self) -> bool:
        return self.start == self.space.m + 1

    def present_count(self) -> int:
        return self.bits.bit_count()

    def value(self, j: int) -> int:
        if not self.start <= j <= self.space.m:
            raise DomainError(f"edge {j} not decided (suffix starts at {self.start})")
        return self.bits >> (j - 1) & 1

    def extend(self, value: int) -> "SuffixHistory":
        """Decide the next-lower edge (index start-1) with the given bit."""
        i = self.start - 1
        if i < 1:
            raise DomainError("all edges already decided")
        return SuffixHistory(self.space, i, self.bits | (value << (i - 1)))

    def validate(self) -> None:
        if not 1 <= self.start <= self.space.m + 1:
            raise DomainError(f"suffix start {self.start} outside 1..{self.space.m + 1}")
        if self.bits >> (self.start - 1) << (self.start - 1) != self.bits:
            raise DomainError("suffix history has bits below its start index")


def _check_same_space(g1: Realization, g2: Realization) -> None:
    if g1.space != g2.space:
        raise DomainError(
            f"edge spaces differ: n={g1.space.n} vs n={g2.space.n}"
        )


def union(g1: Realization, g2: Realization) -> Realization:
    """Merge two graphs on the same vertex set; shared edges collapse to one."""
    _check_same_space(g1, g2)
    return Realization(g1.space, g1.bits | g2.bits)


def adjacent_present_count(g: Realization, i: int) -> int:
    """Number of present edges sharing an endpoint with edge ``i`` (itself excluded).

    Counts for the *position* i whether or not edge i is present; range 0..2(n-2).
    """
    return (g.bits & g.space.adjacency_mask(i)).bit_count()


def degree_histogram(g: Realization) -> dict[int, int]:
    """Map degree -> number of vertices with that degree (zero counts omitted).

    Keys are in order of the first vertex with that degree.
    """
    n = g.space.n
    pos = g.present_positions()
    u, v = g.space.endpoints
    degs = np.bincount(u[pos], minlength=n) + np.bincount(v[pos], minlength=n)
    hist: dict[int, int] = {}
    for d in degs.tolist():
        hist[d] = hist.get(d, 0) + 1
    return hist


# ---------------------------------------------------------------------------
# batches of realizations as edge words

# edge bits per slice of a batch conversion: each temporary holds about this
# many bytes (1 MiB), at least one word of 64 graphs
CONVERT_BITS = 1 << 20


def _slice_lanes(m: int) -> int:
    """Graphs per slice of a batch conversion, a whole number of words."""
    return 64 * max(1, CONVERT_BITS // (64 * max(m, 1)))


def words_from_rows(rows: np.ndarray) -> np.ndarray:
    """The edge words of the graphs whose edges are the columns of ``rows``,
    an (m, B) bool array whose row i-1 is edge i.

    A batch of B graphs is (m, W) uint64 edge words and its count B:
    W = ceil(B / 64), bit g % 64 of word [e, g // 64] is edge e+1 of graph
    g, and the padding lanes of the last word are zero. Each row is packed
    along B (``np.packbits``, which pads the last byte with zeros) and its
    bytes padded with zeros to whole words."""
    packed = np.packbits(np.ascontiguousarray(rows), axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view("<u8")


def words_from_bits(space: EdgeSpace, bits) -> np.ndarray:
    """The edge words of the graphs whose realization bitmasks are ``bits``,
    an int64 array (m < 64) or a sequence of Python ints.

    A slice of graphs at a time, each bitmask becomes a row of little-endian
    bytes (an int64's 8 while m < 64, ``int.to_bytes`` above), and the
    slice's bytes are bit-transposed (:func:`_transpose`) into its words, so
    no temporary grows with the batch."""
    m, b = space.m, len(bits)
    width = 8 if m < 64 else (m + 7) // 8
    words = np.zeros((m, -(-b // 64)), dtype=np.uint64)
    step = _slice_lanes(m)
    for lo in range(0, b, step):
        part = bits[lo : lo + step]
        if m < 64:
            raw = np.ascontiguousarray(part, dtype="<i8").view(np.uint8)
        else:
            raw = np.frombuffer(b"".join([x.to_bytes(width, "little") for x in part]), np.uint8)
        packed = _transpose(raw.reshape(-1, width), m)
        words.view(np.uint8)[:, lo // 8 : lo // 8 + packed.shape[1]] = packed
    return words


def _transpose(rows: np.ndarray, count: int) -> np.ndarray:
    """The transpose of the bit matrix whose R rows are the little-endian
    bytes ``rows``, ``count`` bits each, as (count, max(1, ceil(R / 8)))
    little-endian bytes. The rows are unpacked to bits, and byte k of every
    column is the OR of bit rows 8k..8k+7, each shifted by its bit position:
    eight passes over whole rows, several times faster than ``np.packbits``
    down the columns."""
    bits = np.unpackbits(rows, axis=1, count=count, bitorder="little")
    packed = np.zeros((max(1, -(-len(rows) // 8)), count), dtype=np.uint8)
    for bit in range(8):
        part = bits[bit::8]
        packed[: len(part)] |= part << bit
    return packed.T


def _edge_bytes(words: np.ndarray, count: int) -> np.ndarray:
    """The (count, max(1, ceil(m / 8))) little-endian bytes of the batch's
    realization bitmasks: the words bit-transposed a slice at a time."""
    out = np.empty((count, max(1, -(-len(words) // 8))), dtype=np.uint8)
    step = _slice_lanes(len(words))
    for lo in range(0, count, step):
        hi = min(count, lo + step)
        out[lo:hi] = _transpose(words[:, lo // 64 : -(-hi // 64)].view(np.uint8), hi - lo)
    return out


def bits_from_words(words: np.ndarray, count: int) -> list:
    """The realization bitmasks of a batch's graphs as Python ints, in lane
    order: the way a graph leaves a batch."""
    rows = _edge_bytes(words, count)
    if rows.shape[1] <= 8:  # one machine word: .tolist() is far cheaper than from_bytes
        return np.pad(rows, ((0, 0), (0, 8 - rows.shape[1]))).view("<u8").ravel().tolist()
    return [int.from_bytes(row, "little") for row in rows]


def hex_from_words(space: EdgeSpace, words: np.ndarray, count: int) -> np.ndarray:
    """The (count, hex_width) uint8 ASCII text of a batch's graphs, each as
    ``Realization.to_hex`` spells it (:meth:`EdgeSpace.hex_rows`)."""
    return space.hex_rows(_edge_bytes(words, count))
