"""Exact deciders for monotone graph properties, plus monotonicity certification.

Raw quantities (clique number, diameter, ...) are exposed separately from
the thresholded true/false oracles the domination tests consume; only the
thresholded forms are monotone, and only those go through
:func:`certify_monotone`. Deciders are pure functions of the realization.

Scale caps are part of each contract and raise
:class:`~probust.errors.UnsupportedScaleError` instead of running forever.
Conventions, frozen: an edgeless graph on n >= 1 vertices has clique number
1; a single vertex has diameter 0; an acyclic graph has longest cycle 0; a
disconnected graph's diameter is the largest diameter among its components
(the thresholded oracle "diam<=k" additionally requires connectivity, since
the components convention is not closed under adding edges).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedScaleError
from .graphs import WORD_BITS, EdgeSpace, Realization, bits_from_words, words_from_rows
from .models import _part_rows
from .rngstreams import _bounds

CLIQUE_MAX_N = 512
CHROMATIC_MAX_N = 20
DOMSET_MAX_N = 26
HAMILTONIAN_MAX_N = 20
MATCHING_MAX_N = 26
LONGEST_CYCLE_MAX_N = 16
SUBSET_BLOCK_MAX_N = 10  # the block deciders with a table row per vertex subset
CHROMATIC_BLOCK_MAX_N = 8  # above it the chromatic block decider's int64 count can overflow
REACH_BLOCK_MAX_N = 64  # diam's (n, n, n) reach temporary fills BLOCK_WORDS with one word
_DIAMETER_GATHER_WORDS = 1 << 20  # uint64 words of neighbour rows gathered at once
# uint64 words of the largest table one decide_block call allocates: 2 MiB
BLOCK_WORDS = 1 << 18


def _check_cap(n: int, cap: int, what: str) -> None:
    """Refuse n > ``cap`` with the message "<what> caps at n=<cap>, got <n>"."""
    if n > cap:
        raise UnsupportedScaleError(f"{what} caps at n={cap}, got {n}")


# ---------------------------------------------------------------------------
# cliques and independent sets


def _greedy_clique(n: int, adj: tuple[int, ...]) -> int:
    """Greedy incumbent: repeatedly take the candidate with most candidate
    neighbors. A real clique, so a sound lower bound."""
    cand = (1 << n) - 1
    size = 0
    while cand:
        best_v, best_d = -1, -1
        c = cand
        while c:
            v = (c & -c).bit_length() - 1
            c &= c - 1
            d = (adj[v] & cand).bit_count()
            if d > best_d:
                best_d, best_v = d, v
        size += 1
        cand &= adj[best_v]
    return size


def _max_clique(n: int, adj: tuple[int, ...], stop_at: Optional[int] = None) -> int:
    """Branch and bound with a greedy-coloring bound; exact.

    ``stop_at`` turns it into a decision procedure: the search aborts as soon
    as a clique of that size is known.
    """
    if n == 0:
        return 0
    best = _greedy_clique(n, adj)
    if stop_at is not None and best >= stop_at:
        return best

    def expand(P: int, size: int) -> None:
        nonlocal best
        # color P greedily; a vertex of color c caps any clique through it
        # at size + c, which orders and prunes the branching below
        order: list[int] = []
        colors: list[int] = []
        Q = P
        color = 0
        while Q:
            color += 1
            avail = Q
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                Q ^= low
                avail &= ~adj[v]
                avail ^= low
                order.append(v)
                colors.append(color)
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] <= best:
                return
            v = order[idx]
            sub = P & adj[v]
            if sub:
                expand(sub, size + 1)
            elif size + 1 > best:
                best = size + 1
            if stop_at is not None and best >= stop_at:
                return
            P &= ~(1 << v)

    expand((1 << n) - 1, 0)
    return best


def check_clique_scale(n: int) -> None:
    """The exact clique search is exponential in the worst case; every
    clique decision at n > ``CLIQUE_MAX_N`` is refused."""
    if n > CLIQUE_MAX_N:
        raise UnsupportedScaleError(f"exact clique search capped at n={CLIQUE_MAX_N}, got {n}")


def max_clique_size(g: Realization) -> int:
    """Exact clique number; 1 for any edgeless graph on >= 1 vertices."""
    check_clique_scale(g.space.n)
    return _max_clique(g.space.n, g.neighbor_masks)


def has_clique_at_least(g: Realization, k: int) -> bool:
    check_clique_scale(g.space.n)
    if k <= 1:
        return k <= g.space.n
    return _max_clique(g.space.n, g.neighbor_masks, stop_at=k) >= k


def max_independent_set_size(g: Realization) -> int:
    """Clique number of the complement graph."""
    n = g.space.n
    check_clique_scale(n)
    full = (1 << n) - 1
    comp = tuple((full & ~m) & ~(1 << v) for v, m in enumerate(g.neighbor_masks))
    return _max_clique(n, comp)


# ---------------------------------------------------------------------------
# coloring


def _greedy_coloring_size(n: int, adj: tuple[int, ...]) -> int:
    """Colors used by largest-degree-first greedy; an upper bound."""
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    color_masks: list[int] = []
    for v in order:
        for c, mask in enumerate(color_masks):
            if not adj[v] & mask:
                color_masks[c] |= 1 << v
                break
        else:
            color_masks.append(1 << v)
    return len(color_masks)


def _k_colorable(n: int, adj: tuple[int, ...], k: int) -> bool:
    """Backtracking with first-free-color symmetry breaking; exact."""
    if k >= n:
        return True
    if k <= 0:
        return n == 0
    order = sorted(range(n), key=lambda v: -adj[v].bit_count())
    color_masks = [0] * k

    def place(idx: int, used: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        mv = adj[v]
        bit = 1 << v
        limit = used + 1 if used < k else k
        for c in range(limit):
            if mv & color_masks[c]:
                continue
            color_masks[c] |= bit
            if place(idx + 1, max(used, c + 1)):
                return True
            color_masks[c] ^= bit
        return False

    return place(0, 0)


def chromatic_number(g: Realization) -> int:
    """Exact chromatic number, iterative deepening from the clique bound."""
    n = g.space.n
    _check_cap(n, CHROMATIC_MAX_N, "exact coloring")
    adj = g.neighbor_masks
    if g.bits == 0:
        return 1
    low = _max_clique(n, adj)
    high = _greedy_coloring_size(n, adj)
    for k in range(low, high):
        if _k_colorable(n, adj, k):
            return k
    return high


def has_chromatic_at_least(g: Realization, k: int) -> bool:
    n = g.space.n
    if k <= 1:
        return k <= 1  # every graph on >= 1 vertices needs one color
    _check_cap(n, CHROMATIC_MAX_N, "exact coloring")
    if k > n:
        return False
    adj = g.neighbor_masks
    if _max_clique(n, adj, stop_at=k) >= k:
        return True
    if _greedy_coloring_size(n, adj) < k:
        return False
    return not _k_colorable(n, adj, k - 1)


# ---------------------------------------------------------------------------
# domination


def _greedy_dominating(n: int, closed: list[int]) -> int:
    full = (1 << n) - 1
    dominated = 0
    size = 0
    while dominated != full:
        best_v, best_c = -1, -1
        for v in range(n):
            c = (closed[v] & ~dominated).bit_count()
            if c > best_c:
                best_c, best_v = c, v
        dominated |= closed[best_v]
        size += 1
    return size


def _min_dominating(n: int, adj: tuple[int, ...], stop_below: Optional[int] = None) -> int:
    """Branch on the dominators of a hardest-to-cover vertex; exact.

    ``stop_below``: abort as soon as a dominating set of that size or
    smaller is known (decision mode).
    """
    full = (1 << n) - 1
    closed = [adj[v] | (1 << v) for v in range(n)]
    best = _greedy_dominating(n, closed)
    if stop_below is not None and best <= stop_below:
        return best
    max_cover = max(c.bit_count() for c in closed)

    def search(dominated: int, size: int) -> None:
        nonlocal best
        if dominated == full:
            if size < best:
                best = size
            return
        undominated = full & ~dominated
        need = -((-undominated.bit_count()) // max_cover)  # ceil division
        if size + need >= best:
            return
        pick, pick_c = -1, n + 2
        t = undominated
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            c = closed[v].bit_count()
            if c < pick_c:
                pick_c, pick = c, v
        cands = []
        t = closed[pick]
        while t:
            u = (t & -t).bit_length() - 1
            t &= t - 1
            cands.append((-(closed[u] & ~dominated).bit_count(), u))
        cands.sort()
        for _, u in cands:
            search(dominated | closed[u], size + 1)
            if stop_below is not None and best <= stop_below:
                return

    search(0, 0)
    return best


def min_dominating_set_size(g: Realization) -> int:
    """Exact domination number; isolated vertices dominate only themselves."""
    n = g.space.n
    _check_cap(n, DOMSET_MAX_N, "exact domination")
    return _min_dominating(n, g.neighbor_masks)


def has_dominating_at_most(g: Realization, k: int) -> bool:
    n = g.space.n
    _check_cap(n, DOMSET_MAX_N, "exact domination")
    if k >= n:
        return True
    if k <= 0:
        return False
    return _min_dominating(n, g.neighbor_masks, stop_below=k) <= k


def greedy_dominating_set_size(g: Realization) -> int:
    """Greedy cover size; an upper bound, for reporting beyond the exact cap."""
    n = g.space.n
    closed = [m | (1 << v) for v, m in enumerate(g.neighbor_masks)]
    return _greedy_dominating(n, closed)


def greedy_clique_size(g: Realization) -> int:
    """Greedy clique size; a lower bound, for reporting beyond the exact cap."""
    return _greedy_clique(g.space.n, g.neighbor_masks)


def greedy_coloring_size(g: Realization) -> int:
    """Greedy color count; an upper bound, for reporting beyond the exact cap."""
    return _greedy_coloring_size(g.space.n, g.neighbor_masks)


# ---------------------------------------------------------------------------
# connectivity and distances


def _eccentricity(n: int, adj: tuple[int, ...], s: int, cutoff: Optional[int] = None):
    """(eccentricity within s's component, visited mask); None if > cutoff."""
    visited = 1 << s
    frontier = visited
    depth = 0
    while True:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        frontier = grow & ~visited
        if not frontier:
            return depth, visited
        depth += 1
        visited |= frontier
        if cutoff is not None and depth > cutoff:
            return None, visited


def is_connected(g: Realization) -> bool:
    """Vertex 0's component is every vertex; one vertex is connected."""
    n = g.space.n
    return _eccentricity(n, g.neighbor_masks, 0)[1] == (1 << n) - 1


def diameter(g: Realization) -> int:
    """Largest diameter among connected components; 0 for a single vertex."""
    n = g.space.n
    if g.space.m > WORD_BITS:
        return _diameter_bit_parallel(g)
    adj = g.neighbor_masks
    best = 0
    for s in range(n):
        ecc, _ = _eccentricity(n, adj, s)
        if ecc > best:
            best = ecc
    return best


def _diameter_bit_parallel(g: Realization) -> int:
    """Breadth-first search from every vertex at once, one bit per source.

    Row v of ``reach`` packs the vertices within distance d of v into uint64
    words; a level ORs each vertex's neighbours' rows into its own. The first
    level that adds no vertex anywhere ends the search, and the levels that
    did add one count the largest eccentricity, i.e. the largest component
    diameter (Then et al., "The More the Merrier", PVLDB 2014).
    """
    n = g.space.n
    pos = g.present_positions()
    u, v = g.space.endpoints
    src = np.concatenate([u[pos], v[pos]])
    nbrs = np.concatenate([v[pos], u[pos]])[np.argsort(src, kind="stable")]
    deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    words = (n + 63) // 64
    ids = np.arange(n)
    reach = np.zeros((n, words), dtype=np.uint64)
    reach[ids, ids >> 6] = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    # vertex ranges whose neighbour rows fill at most the gather budget (a
    # range is one vertex when that vertex alone exceeds it); isolated
    # vertices have empty reduceat segments and are left out of each range
    cap = max(1, _DIAMETER_GATHER_WORDS // words)
    chunks = []
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + cap, side="right")) - 1)
        has = np.flatnonzero(deg[lo:hi]) + lo
        if has.size:
            chunks.append((has, indptr[lo], indptr[hi]))
        lo = hi
    levels = 0
    while True:
        grown = reach.copy()
        for has, a, b in chunks:
            rows = reach[nbrs[a:b]]
            grown[has] |= np.bitwise_or.reduceat(rows, indptr[has] - a, axis=0)
        if np.array_equal(grown, reach):
            return levels
        reach = grown
        levels += 1


def has_diameter_at_most(g: Realization, k: int) -> bool:
    """Connected with every eccentricity <= k (the monotone thresholded form)."""
    n = g.space.n
    if k < 0:
        return False
    adj = g.neighbor_masks
    full = (1 << n) - 1
    for s in range(n):
        ecc, visited = _eccentricity(n, adj, s, cutoff=k)
        if ecc is None or visited != full:
            return False
    return True


# ---------------------------------------------------------------------------
# hamiltonicity and cycles


def _check_hamiltonian_scale(n: int) -> None:
    _check_cap(n, HAMILTONIAN_MAX_N, "hamiltonicity decision")


def has_hamiltonian_cycle(g: Realization) -> bool:
    """Exhaustive anchored backtracking; exact for n <= 20."""
    n = g.space.n
    _check_hamiltonian_scale(n)
    if n < 3:
        return False
    adj = g.neighbor_masks
    for v in range(n):
        if adj[v].bit_count() < 2:
            return False
    full = (1 << n) - 1
    if _eccentricity(n, adj, 0)[1] != full:
        return False

    def dfs(v: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[v] & 1)
        cand = adj[v] & ~visited
        while cand:
            low = cand & -cand
            cand ^= low
            if dfs(low.bit_length() - 1, visited | low):
                return True
        return False

    return dfs(0, 1)


def longest_cycle_length(g: Realization) -> int:
    """Exact circumference via anchored path DP over vertex subsets; 0 if acyclic."""
    n = g.space.n
    _check_cap(n, LONGEST_CYCLE_MAX_N, "exact circumference")
    masks = g.neighbor_masks
    best = 0
    for s in range(n - 2):
        # cycles whose minimum vertex is s, on the remapped suffix s..n-1
        k = n - s
        adj = tuple(masks[s + v] >> s for v in range(k))
        size = 1 << k
        dp = [0] * size
        dp[1] = 1
        close_to_anchor = adj[0] & ~1
        for mask in range(1, size, 2):  # anchor bit always set
            ends = dp[mask]
            if not ends:
                continue
            pc = mask.bit_count()
            if pc >= 3 and pc > best and ends & close_to_anchor:
                best = pc
            rem = (size - 1) ^ mask
            while rem:
                low = rem & -rem
                rem ^= low
                if adj[low.bit_length() - 1] & ends:
                    dp[mask | low] |= low
    return best


# ---------------------------------------------------------------------------
# matching


def _greedy_matching(n: int, adj: tuple[int, ...]) -> int:
    """Any maximal matching; its size is a sound lower bound on the maximum."""
    used = 0
    size = 0
    for v in range(n):
        if used >> v & 1:
            continue
        cand = adj[v] & ~used & ~((1 << (v + 1)) - 1)
        if cand:
            u = (cand & -cand).bit_length() - 1
            used |= (1 << v) | (1 << u)
            size += 1
    return size


def _max_matching(n: int, adj: tuple[int, ...]) -> int:
    """Maximum matching by search over vertex subsets, memoised on the subsets
    actually reached.

    The lowest vertex v of S is either isolated in S, and then dropped, or
    covered by some maximum matching of S (if one misses v, a neighbor u of v
    is matched, and trading u's edge for uv keeps the size), so only the
    edges at v are branched on. A branch that reaches |S|//2 ends the search
    at S.
    """
    memo: dict[int, int] = {}

    def best(S: int) -> int:
        found = memo.get(S)
        if found is not None:
            return found
        low = S & -S
        rest = S ^ low
        cand = adj[low.bit_length() - 1] & rest
        if not cand:
            result = best(rest) if rest else 0
        else:
            target = S.bit_count() // 2
            result = 0
            while cand:
                u = cand & -cand
                cand ^= u
                result = max(result, 1 + best(rest ^ u))
                if result == target:
                    break
        memo[S] = result
        return result

    return best((1 << n) - 1)


def max_matching_size(g: Realization) -> int:
    """Exact maximum matching (general graphs)."""
    n = g.space.n
    _check_cap(n, MATCHING_MAX_N, "exact matching")
    return _max_matching(n, g.neighbor_masks)


def has_matching_at_least(g: Realization, k: int) -> bool:
    n = g.space.n
    if k <= 0:
        return True
    if 2 * k > n:
        return False
    _check_cap(n, MATCHING_MAX_N, "exact matching")
    adj = g.neighbor_masks
    if _greedy_matching(n, adj) >= k:
        return True
    return max_matching_size(g) >= k


# ---------------------------------------------------------------------------
# block deciders
#
# Each takes (n, n, W) uint64 adjacency words, bit g % 64 of word [v, u, g // 64]
# set iff uv is an edge of graph g, and returns 64 * W decisions, lane g's equal
# to the matching scalar decider on graph g (lanes past the block's graphs hold
# the edgeless graph). One uint64 operation serves 64 graphs. The subset-table
# deciders index their tables [vertex subset, ..., word], with one Python step
# serving a whole family of subsets, and refuse n > SUBSET_BLOCK_MAX_N; only
# ``chrom`` (an int64 count) holds one int64 cell per graph per subset. The
# reach deciders hold no subset table and refuse n > REACH_BLOCK_MAX_N.
#
# Each decider's size function gives the uint64 words of the largest table
# one call allocates per word of its input at n, and refuses the n its
# decider refuses, so that decide_bits falls back before building any words.

_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _check_subset_block(n: int) -> None:
    _check_cap(n, SUBSET_BLOCK_MAX_N, "the subset-table block deciders")


def _check_chromatic_block(n: int) -> None:
    _check_cap(n, CHROMATIC_BLOCK_MAX_N, "the chromatic block decider")


def _check_reach_block(n: int) -> None:
    _check_cap(n, REACH_BLOCK_MAX_N, "the reach block deciders")


def _subset_words(n: int) -> int:
    """``clique``, ``match``: one word per vertex subset."""
    _check_subset_block(n)
    return 1 << n


def _subset_vertex_words(n: int) -> int:
    """``ham``, ``domset``: n words per vertex subset."""
    return n * _subset_words(n)


def _chromatic_words(n: int) -> int:
    """``chrom``: one int64 per vertex subset and lane."""
    _check_chromatic_block(n)
    return 64 << n


def _pair_words(n: int) -> int:
    """``connected``: the (n, n) step of :func:`_reach`."""
    _check_reach_block(n)
    return n * n


def _triple_words(n: int) -> int:
    """``diam<=k``: the (n, n, n) step of :func:`_reach`."""
    _check_reach_block(n)
    return n**3


def _edge_count_words(n: int) -> int:
    """``exactly-k-edges``: the words unpacked to one byte per lane."""
    return 8 * n * n


def _lanes(words: np.ndarray) -> np.ndarray:
    """The 64 * W decisions held in the lanes of (W,) words."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)


def _every_lane(adj: np.ndarray, decision: bool) -> np.ndarray:
    """One decision for every lane of the block."""
    return np.full(64 * adj.shape[2], decision)


@lru_cache(maxsize=None)
def _subset_sizes(n: int) -> np.ndarray:
    """Row S: the number of vertices in S, for every subset of n vertices."""
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    sizes.flags.writeable = False
    return sizes


def _any_of_size(table: np.ndarray, n: int, size: int) -> np.ndarray:
    """OR of the table's words over the subsets of ``size`` vertices."""
    return np.bitwise_or.reduce(table[_subset_sizes(n) == size], axis=0)


def _clique_table(adj: np.ndarray) -> np.ndarray:
    """Row S, lane g: S is a clique of graph g. With v the highest vertex of
    S and u the next, S is one iff S without u and S without v are and uv is
    an edge of g."""
    n, _, w = adj.shape
    table = np.zeros((1 << n, w), dtype=np.uint64)
    table[0] = _ALL
    for v in range(n):
        table[1 << v] = _ALL
        for u in range(v):
            lo = (1 << v) | (1 << u)
            rows = table[lo : lo + (1 << u)]
            np.bitwise_and(table[1 << v : lo], table[1 << u : 2 << u], out=rows)
            rows &= adj[v, u]
    return table


def _reach(start: np.ndarray, adj: np.ndarray, steps: int) -> np.ndarray:
    """Grow (..., n, W) reach words by ORing, for each vertex, the words of
    its reached neighbours, ``steps`` times or until nothing grows."""
    for _ in range(steps):
        grown = start | np.bitwise_or.reduce(start[..., :, None, :] & adj, axis=-3)
        if np.array_equal(grown, start):
            break
        start = grown
    return start


def _connected_block(adj: np.ndarray) -> np.ndarray:
    """Vertex 0 reaches every vertex."""
    _check_reach_block(len(adj))
    reach = np.zeros(adj.shape[1:], dtype=np.uint64)
    reach[0] = _ALL
    return _lanes(np.bitwise_and.reduce(_reach(reach, adj, len(adj) - 1), axis=0))


def _diameter_at_most_block(adj: np.ndarray, k: int) -> np.ndarray:
    """Every vertex's ball of radius k is the whole vertex set."""
    n = len(adj)
    _check_reach_block(n)
    if k < 0:
        return _every_lane(adj, False)
    balls = np.zeros(adj.shape, dtype=np.uint64)
    balls[np.arange(n), np.arange(n)] = _ALL
    balls = _reach(balls, adj, min(k, n - 1))
    return _lanes(np.bitwise_and.reduce(balls.reshape(n * n, -1), axis=0))


def _clique_at_least_block(adj: np.ndarray, k: int) -> np.ndarray:
    n = len(adj)
    _check_subset_block(n)
    if k <= 1 or k > n:
        return _every_lane(adj, k <= n)
    return _lanes(_any_of_size(_clique_table(adj), n, k))


def _chromatic_at_least_block(adj: np.ndarray, k: int) -> np.ndarray:
    """Not (k-1)-colourable, by counting (k-1)-tuples of independent sets
    that cover the vertices: sum over S of (-1)^(n-|S|) i(S)^(k-1), where
    i(S) counts the independent subsets of S (Bjorklund, Husfeldt and
    Koivisto, SIAM J. Comput. 2009). The independent sets are the cliques of
    the complement, unpacked to 0/1 counts. The terms' absolute values sum to
    at most (1 + 2^(n-1))^n, below 2^57 at n = 8 and above 2^63 at n = 9, so
    int64 is exact only up to CHROMATIC_BLOCK_MAX_N = 8, and larger n is
    refused."""
    n = len(adj)
    _check_chromatic_block(n)
    if k <= 1 or k > n:
        return _every_lane(adj, k <= 1)
    independent = _clique_table(~adj).view(np.uint8)
    counts = np.unpackbits(independent, axis=1, bitorder="little").astype(np.int64)
    for v in range(n):  # sum each row into the rows of its supersets
        pairs = counts.reshape(1 << (n - 1 - v), 2, 1 << v, -1)
        pairs[:, 1] += pairs[:, 0]
    sign = np.where(_subset_sizes(n) % 2 == n % 2, 1, -1)
    covers = (sign[:, None] * counts ** (k - 1)).sum(axis=0)
    return covers == 0


def _matching_at_least_block(adj: np.ndarray, k: int) -> np.ndarray:
    """Some 2k vertices have a perfect matching. Row S of ``perfect`` is
    filled from the partners u of S's highest vertex h: the rows holding h
    and u are a strided view of the table, as are the same rows without
    them, which are already filled."""
    n, _, w = adj.shape
    _check_subset_block(n)
    if k <= 0 or 2 * k > n:
        return _every_lane(adj, k <= 0)
    perfect = np.zeros((1 << n, w), dtype=np.uint64)
    perfect[0] = _ALL
    for h in range(1, n):
        for u in range(h):
            view = perfect[: 2 << h].reshape(2, 1 << (h - u - 1), 2, 1 << u, -1)
            view[1, :, 1] |= adj[h, u] & view[0, :, 0]
    return _lanes(_any_of_size(perfect, n, 2 * k))


def _hamiltonian_block(adj: np.ndarray) -> np.ndarray:
    """Held-Karp: word [S, v] of ``ends`` holds the graphs with a path from
    vertex 0 through exactly the vertices of S that ends at v. The subsets
    holding 0 are filled size by size, each path through S ending at v
    extending one through S without v at a neighbour of v, and a Hamilton
    cycle closes a path through all n vertices at a neighbour of 0."""
    n, _, w = adj.shape
    _check_subset_block(n)
    if n < 3:
        return _every_lane(adj, False)
    subsets = np.arange(1 << n)
    ends = np.zeros((1 << n, n, w), dtype=np.uint64)
    ends[1, 0] = _ALL
    for size in range(2, n + 1):
        layer = subsets[(_subset_sizes(n) == size) & (subsets & 1 == 1)]
        rows, v = np.nonzero(layer[:, None] >> np.arange(1, n) & 1)
        into, v = layer[rows], v + 1
        ends[into, v] = np.bitwise_or.reduce(ends[into ^ (1 << v)] & adj[v], axis=1)
    return _lanes(np.bitwise_or.reduce(ends[-1] & adj[0], axis=0))


def _dominating_at_most_block(adj: np.ndarray, k: int) -> np.ndarray:
    """Some k vertices' closed neighbourhoods cover every vertex: row S,
    vertex v of ``cover`` holds the graphs in which v is in or next to S."""
    n = len(adj)
    _check_subset_block(n)
    if k >= n or k <= 0:
        return _every_lane(adj, k >= n)
    closed = adj.copy()
    closed[np.arange(n), np.arange(n)] = _ALL
    cover = np.zeros((1 << n, *closed.shape[1:]), dtype=np.uint64)
    for u in range(n):
        np.bitwise_or(cover[: 1 << u], closed[u], out=cover[1 << u : 2 << u])
    dominated = np.bitwise_and.reduce(cover[_subset_sizes(n) == k], axis=1)
    return _lanes(np.bitwise_or.reduce(dominated, axis=0))


def _edge_count_block(adj: np.ndarray) -> np.ndarray:
    """Edges per lane: half the set bits of the words, each edge being set at
    [u, v] and at [v, u]."""
    bits = np.unpackbits(adj.view(np.uint8), axis=2, bitorder="little")
    return bits.sum(axis=(0, 1), dtype=np.int64) // 2


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class PropertyOracle:
    """A named graph property with an exact decision procedure.

    ``name`` doubles as the CLI spec string; shipped oracles are monotone
    increasing except the deliberately non-monotone ``exactly-k-edges``
    plant used to exercise certification failure paths.

    ``decide_block``, when set, decides many graphs in one call: it takes
    (n, n, W) uint64 adjacency words, bit g % 64 of word [v, u, g // 64] set
    iff uv is an edge of graph g, and returns 64 * W booleans, lane g's equal
    to ``decide`` on graph g. :func:`decide_bits`, through which the exact
    sweep and the sampled tests decide every batch, builds the words, keeps
    the decisions of its graphs' lanes and builds no :class:`Realization`;
    oracles without one are decided one graph at a time.

    ``block_words(n)`` gives the uint64 words of the largest table one
    ``decide_block`` call allocates per word (64 graphs) of its input at n,
    and raises :class:`UnsupportedScaleError` at an n the block decider
    refuses; :func:`decide_bits` sizes its calls by it. Unset, it is taken
    as 64 * 2^n, the size of ``chrom``'s int64 table. The shipped subset-table
    deciders refuse n > ``SUBSET_BLOCK_MAX_N`` (10), ``chrom``'s n >
    ``CHROMATIC_BLOCK_MAX_N`` (8), where its int64 count could overflow, and
    the reach deciders (``connected``, ``diam<=k``) n > ``REACH_BLOCK_MAX_N``
    (64).

    ``check_scale``, when set, raises :class:`UnsupportedScaleError` for a
    vertex count at which ``decide`` refuses every graph, with the message
    ``decide`` would raise; samplers and :func:`certify_monotone` call it
    before drawing anything.
    """

    name: str
    decide: Callable[[Realization], bool]
    threshold: Optional[int] = None
    direction: str = "increasing"
    decide_block: Optional[Callable[[np.ndarray], np.ndarray]] = None
    check_scale: Optional[Callable[[int], None]] = None
    block_words: Optional[Callable[[int], int]] = None


# name -> (comparison, decide(g, k), decide_block(adj, k), check_scale(n),
# block_words(n)) of each thresholded family; its oracle "name<comparison>k"
# is the CLI spelling. Only the clique cap holds for every k: the others
# answer small or large k without their search.
THRESHOLD_FAMILIES = {
    "clique": (">=", has_clique_at_least, _clique_at_least_block, check_clique_scale,
               _subset_words),
    "chrom": (">=", has_chromatic_at_least, _chromatic_at_least_block, None, _chromatic_words),
    "match": (">=", has_matching_at_least, _matching_at_least_block, None, _subset_words),
    "diam": ("<=", has_diameter_at_most, _diameter_at_most_block, None, _triple_words),
    "domset": ("<=", has_dominating_at_most, _dominating_at_most_block, None,
               _subset_vertex_words),
}


def _threshold_oracle(family: str, k: int) -> PropertyOracle:
    comparison, decide, decide_block, check_scale, block_words = THRESHOLD_FAMILIES[family]
    return PropertyOracle(
        f"{family}{comparison}{k}",
        lambda g: decide(g, k),
        k,
        decide_block=lambda adj: decide_block(adj, k),
        check_scale=check_scale,
        block_words=block_words,
    )


clique_oracle = partial(_threshold_oracle, "clique")
chromatic_oracle = partial(_threshold_oracle, "chrom")
matching_oracle = partial(_threshold_oracle, "match")
diameter_oracle = partial(_threshold_oracle, "diam")
dominating_oracle = partial(_threshold_oracle, "domset")


def hamiltonian_oracle() -> PropertyOracle:
    return PropertyOracle(
        "ham",
        has_hamiltonian_cycle,
        decide_block=_hamiltonian_block,
        check_scale=_check_hamiltonian_scale,
        block_words=_subset_vertex_words,
    )


def connected_oracle() -> PropertyOracle:
    return PropertyOracle(
        "connected", is_connected, decide_block=_connected_block, block_words=_pair_words
    )


def exactly_edges_oracle(k: int) -> PropertyOracle:
    """Deliberately non-monotone: certification must refute it."""
    return PropertyOracle(
        f"exactly-{k}-edges",
        lambda g: g.edge_count() == k,
        k,
        direction="none",
        decide_block=lambda adj: _edge_count_block(adj) == k,
        block_words=_edge_count_words,
    )


_SPEC_RE = re.compile(
    r"^(?:(?P<family>"
    + "|".join(re.escape(name + cmp) for name, (cmp, *_) in THRESHOLD_FAMILIES.items())
    + r")(?P<k>\d+)|exactly-(?P<exk>\d+)-edges|(?P<bare>ham|connected))$"
)


def parse_property(text: str) -> PropertyOracle:
    """CLI property grammar: name[>=|<=]k for thresholded oracles, bare names
    for boolean ones; the oracle's ``name`` is the canonical spelling."""
    match = _SPEC_RE.match(text.strip())
    if not match:
        raise DomainError(
            f"cannot parse property {text!r}; expected e.g. clique>=3, chrom>=4, "
            "match>=2, diam<=2, domset<=3, ham, connected"
        )
    if match["family"]:
        # every comparison is two characters
        return _threshold_oracle(match["family"][:-2], int(match["k"]))
    if match["exk"] is not None:
        return exactly_edges_oracle(int(match["exk"]))
    return hamiltonian_oracle() if match["bare"] == "ham" else connected_oracle()


# ---------------------------------------------------------------------------
# deciding a batch of graphs


def _adjacency_words(space: EdgeSpace, words: np.ndarray) -> np.ndarray:
    """The (n, n, W) adjacency words of a batch's (m, W) edge words: bit
    g % 64 of word [v, u, g // 64] is set iff uv is an edge of graph g. Each
    edge's words are stored at [u, v] and [v, u]."""
    adj = np.zeros((space.n, space.n, words.shape[1]), dtype=np.uint64)
    u, v = (e.astype(np.intp) for e in space.endpoints)
    adj[u, v] = adj[v, u] = words
    return adj


def decide_bits(
    oracle: PropertyOracle, space: EdgeSpace, words: np.ndarray, count: int
) -> np.ndarray:
    """The oracle's decisions on a batch of ``count`` graphs of ``space``
    given as (m, W) edge words (see :mod:`probust.graphs`), as a (count,)
    bool array: the one way the library decides a batch of graphs, sampled
    or exhaustive.

    The batch is handed to ``decide_block`` as adjacency words, in calls of
    ``max(1, BLOCK_WORDS // block_words(n))`` of its words, so that no
    call's largest table exceeds BLOCK_WORDS (2 MiB) unless a single word's
    does: 4096 graphs per call for ``chrom`` at n = 6, 65 536 for ``match``
    at n = 8, 64 for ``diam`` at n = 64. The decisions of the graphs' lanes
    are kept. An oracle without ``decide_block``, or one whose block decider
    refuses n, gets ``decide(Realization(space, b))`` for each graph's
    bitmask b in order, the reference; the shipped deciders refuse through
    ``block_words``, before any adjacency words are built.
    """
    if oracle.decide_block is not None:
        try:
            n = space.n
            step = max(1, BLOCK_WORDS // (oracle.block_words(n) if oracle.block_words else 64 << n))
            decided = np.empty(64 * words.shape[1], dtype=bool)
            for lo in range(0, words.shape[1], step):
                adj = _adjacency_words(space, words[:, lo : lo + step])
                decided[64 * lo : 64 * (lo + step)] = oracle.decide_block(adj)
            return decided[:count]
        except UnsupportedScaleError:
            pass
    graphs = (Realization(space, b) for b in bits_from_words(words, count))
    return np.array([bool(oracle.decide(g)) for g in graphs], dtype=bool)


# ---------------------------------------------------------------------------
# monotonicity certification


@dataclass(frozen=True)
class CertificationResult:
    ok: bool
    trials: int
    productive_trials: int
    counterexample: Optional[tuple[Realization, Realization, int]]


def certify_monotone(
    oracle: PropertyOracle,
    n: int,
    trials: int,
    rng: np.random.Generator,
) -> CertificationResult:
    """Randomized self-check that the property survives edge addition.

    Trial t reads the next m + 2 uniforms of ``rng``: u0, the density, then
    u1, the pick, then one coin per edge; edge i is present iff its coin is
    below u0. When the graph has the property and a >= 1 absent edges, the
    floor(u1 * a)-th absent edge, counting absent edges by ascending index
    from 0, is added and the property re-checked. The first violation is
    returned as (before, after, added edge index), the index counting edges
    from 1. Passing is evidence, not proof.

    No trial's draws depend on a decision, so the trials are drawn in parts
    of ``models._part_rows(m + 2)`` rows, and each part is decided by two
    :func:`decide_bits` calls, on its graphs and on its productive graphs
    with their added edges, each packed from its bool rows. The part size
    changes no result, only where a failing call leaves ``rng``: at the end
    of the part holding the violation.
    An oracle that refuses every graph on n vertices is refused before
    anything is drawn.
    """
    if trials < 0:
        raise DomainError(f"trials must be >= 0, got {trials}")
    space = EdgeSpace(n)
    if trials and oracle.check_scale is not None:
        oracle.check_scale(n)
    productive = 0
    for lo, hi in _bounds(0, trials, _part_rows(space.m + 2)):
        uniforms = rng.random((hi - lo, space.m + 2))
        present = uniforms[:, 2:] < uniforms[:, :1]
        words = words_from_rows(present.T)
        counts = space.m - present.sum(axis=1)
        rows = np.flatnonzero(decide_bits(oracle, space, words, hi - lo) & (counts > 0))
        # the running count of absent edges is nondecreasing, so the pick-th
        # absent edge's position is the number of edges where it is <= pick
        picks = (uniforms[rows, 1] * counts[rows]).astype(np.int64)
        edges = (np.cumsum(~present[rows], axis=1) <= picks[:, None]).sum(axis=1)
        plus = present[rows]
        plus[np.arange(rows.size), edges] = True
        plus_words = words_from_rows(plus.T)
        lost = np.flatnonzero(~decide_bits(oracle, space, plus_words, rows.size))
        if lost.size:
            j = int(lost[0])
            g = Realization(space, bits_from_words(words, hi - lo)[rows[j]])
            g_plus = Realization(space, bits_from_words(plus_words, rows.size)[j])
            return CertificationResult(
                ok=False,
                trials=lo + int(rows[j]) + 1,
                productive_trials=productive + j + 1,
                counterexample=(g, g_plus, int(edges[j]) + 1),
            )
        productive += rows.size
    return CertificationResult(True, trials, productive, None)
