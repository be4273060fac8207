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
    def _edge_adjacency(self) -> tuple[int, ...]:
        """For each edge, the bitmask of the other edges sharing an endpoint."""
        n = self.n
        touching = [0] * n  # vertex -> mask of incident edges
        for idx, (u, v) in enumerate(self.pairs):
            touching[u] |= 1 << idx
            touching[v] |= 1 << idx
        out = []
        for idx, (u, v) in enumerate(self.pairs):
            out.append((touching[u] | touching[v]) & ~(1 << idx))
        return tuple(out)

    def adjacency_mask(self, i: int) -> int:
        """Bitmask of edges sharing exactly one endpoint with edge ``i``."""
        self._check_index(i)
        return self._edge_adjacency[i - 1]

    def hex_width(self) -> int:
        return max(1, (self.m + 3) // 4)

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

    @classmethod
    def _with_neighbor_masks(
        cls, space: EdgeSpace, bits: int, masks: tuple[int, ...]
    ) -> "Realization":
        """A realization whose neighbor masks were built elsewhere, in bulk;
        ``masks`` must be what :attr:`neighbor_masks` would compute."""
        g = cls(space, bits)
        g.__dict__["neighbor_masks"] = masks  # the cached_property's slot
        return g

    def to_hex(self) -> str:
        """Lowercase fixed-width hex, least-significant bit = edge index 1."""
        return format(self.bits, f"0{self.space.hex_width()}x")

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
