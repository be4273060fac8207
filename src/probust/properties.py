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
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UnsupportedScaleError
from .graphs import WORD_BITS, EdgeSpace, Realization

CHROMATIC_MAX_N = 20
DOMSET_MAX_N = 26
HAMILTONIAN_MAX_N = 20
MATCHING_MAX_N = 26
LONGEST_CYCLE_MAX_N = 16
_DIAMETER_GATHER_WORDS = 1 << 20  # uint64 words of neighbour rows gathered at once


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


def max_clique_size(g: Realization) -> int:
    """Exact clique number; 1 for any edgeless graph on >= 1 vertices."""
    return _max_clique(g.space.n, g.neighbor_masks)


def has_clique_at_least(g: Realization, k: int) -> bool:
    if k <= 1:
        return k <= g.space.n
    return _max_clique(g.space.n, g.neighbor_masks, stop_at=k) >= k


def max_independent_set_size(g: Realization) -> int:
    """Clique number of the complement graph."""
    n = g.space.n
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
    if n > CHROMATIC_MAX_N:
        raise UnsupportedScaleError(f"exact coloring caps at n={CHROMATIC_MAX_N}, got {n}")
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
    if n > CHROMATIC_MAX_N:
        raise UnsupportedScaleError(f"exact coloring caps at n={CHROMATIC_MAX_N}, got {n}")
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
                pick_c, pick_v = c, v
                pick = v
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
    if n > DOMSET_MAX_N:
        raise UnsupportedScaleError(f"exact domination caps at n={DOMSET_MAX_N}, got {n}")
    return _min_dominating(n, g.neighbor_masks)


def has_dominating_at_most(g: Realization, k: int) -> bool:
    n = g.space.n
    if n > DOMSET_MAX_N:
        raise UnsupportedScaleError(f"exact domination caps at n={DOMSET_MAX_N}, got {n}")
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


def _connected_masks(n: int, adj: tuple[int, ...]) -> bool:
    if n <= 1:
        return True
    visited = 1
    frontier = 1
    while frontier:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        frontier = grow & ~visited
        visited |= frontier
    return visited == (1 << n) - 1


def is_connected(g: Realization) -> bool:
    return _connected_masks(g.space.n, g.neighbor_masks)


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


def has_hamiltonian_cycle(g: Realization) -> bool:
    """Exhaustive anchored backtracking; exact for n <= 20."""
    n = g.space.n
    if n > HAMILTONIAN_MAX_N:
        raise UnsupportedScaleError(
            f"hamiltonicity decision caps at n={HAMILTONIAN_MAX_N}, got {n}"
        )
    if n < 3:
        return False
    adj = g.neighbor_masks
    for v in range(n):
        if adj[v].bit_count() < 2:
            return False
    if not _connected_masks(n, adj):
        return False
    full = (1 << n) - 1

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
    if n > LONGEST_CYCLE_MAX_N:
        raise UnsupportedScaleError(
            f"exact circumference caps at n={LONGEST_CYCLE_MAX_N}, got {n}"
        )
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
    if n > MATCHING_MAX_N:
        raise UnsupportedScaleError(f"exact matching caps at n={MATCHING_MAX_N}, got {n}")
    return _max_matching(n, g.neighbor_masks)


def has_matching_at_least(g: Realization, k: int) -> bool:
    n = g.space.n
    if k <= 0:
        return True
    if 2 * k > n:
        return False
    if n > MATCHING_MAX_N:
        raise UnsupportedScaleError(f"exact matching caps at n={MATCHING_MAX_N}, got {n}")
    adj = g.neighbor_masks
    if _greedy_matching(n, adj) >= k:
        return True
    return max_matching_size(g) >= k


# ---------------------------------------------------------------------------
# oracles


@dataclass(frozen=True)
class PropertyOracle:
    """A named graph property with an exact decision procedure.

    ``name`` doubles as the CLI spec string; shipped oracles are monotone
    increasing except the deliberately non-monotone ``exactly-k-edges``
    plant used to exercise certification failure paths.
    """

    name: str
    decide: Callable[[Realization], bool]
    threshold: Optional[int] = None
    direction: str = "increasing"


def clique_oracle(k: int) -> PropertyOracle:
    return PropertyOracle(f"clique>={k}", lambda g: has_clique_at_least(g, k), k)


def chromatic_oracle(k: int) -> PropertyOracle:
    return PropertyOracle(f"chrom>={k}", lambda g: has_chromatic_at_least(g, k), k)


def matching_oracle(k: int) -> PropertyOracle:
    return PropertyOracle(f"match>={k}", lambda g: has_matching_at_least(g, k), k)


def diameter_oracle(k: int) -> PropertyOracle:
    return PropertyOracle(f"diam<={k}", lambda g: has_diameter_at_most(g, k), k)


def dominating_oracle(k: int) -> PropertyOracle:
    return PropertyOracle(f"domset<={k}", lambda g: has_dominating_at_most(g, k), k)


def hamiltonian_oracle() -> PropertyOracle:
    return PropertyOracle("ham", has_hamiltonian_cycle)


def connected_oracle() -> PropertyOracle:
    return PropertyOracle("connected", is_connected)


def exactly_edges_oracle(k: int) -> PropertyOracle:
    """Deliberately non-monotone: certification must refute it."""
    return PropertyOracle(
        f"exactly-{k}-edges",
        lambda g: g.edge_count() == k,
        k,
        direction="none",
    )


_SPEC_RE = re.compile(
    r"^(?:(?P<up>clique|chrom|match)>=(?P<upk>\d+)"
    r"|(?P<down>diam|domset)<=(?P<downk>\d+)"
    r"|exactly-(?P<exk>\d+)-edges"
    r"|(?P<bare>ham|connected))$"
)

_UP_FACTORY = {"clique": clique_oracle, "chrom": chromatic_oracle, "match": matching_oracle}
_DOWN_FACTORY = {"diam": diameter_oracle, "domset": dominating_oracle}


def parse_property(text: str) -> PropertyOracle:
    """CLI property grammar: name[>=|<=]k for thresholded oracles, bare names
    for boolean ones; the oracle's ``name`` is the canonical spelling."""
    match = _SPEC_RE.match(text.strip())
    if not match:
        raise DomainError(
            f"cannot parse property {text!r}; expected e.g. clique>=3, chrom>=4, "
            "match>=2, diam<=2, domset<=3, ham, connected"
        )
    if match["up"]:
        return _UP_FACTORY[match["up"]](int(match["upk"]))
    if match["down"]:
        return _DOWN_FACTORY[match["down"]](int(match["downk"]))
    if match["exk"] is not None:
        return exactly_edges_oracle(int(match["exk"]))
    return hamiltonian_oracle() if match["bare"] == "ham" else connected_oracle()


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

    Each trial draws a graph at a uniformly random density; when the graph
    has the property and has an absent edge, one random absent edge is added
    and the property is re-checked. The first violation is returned as
    (before, after, added edge index). Passing is evidence, not proof.
    """
    space = EdgeSpace(n)
    m = space.m
    productive = 0
    for t in range(trials):
        density = rng.random()
        if m:
            present = rng.random(m) < density
            bits = int.from_bytes(
                np.packbits(present, bitorder="little").tobytes(), "little"
            )
        else:
            bits = 0
        g = Realization(space, bits)
        if not oracle.decide(g):
            continue
        absent = ~bits & space.full_mask
        if not absent:
            continue
        skip = int(rng.integers(absent.bit_count()))
        b = absent
        for _ in range(skip):
            b &= b - 1
        edge_bit = b & -b
        productive += 1
        g_plus = Realization(space, bits | edge_bit)
        if not oracle.decide(g_plus):
            return CertificationResult(
                ok=False,
                trials=t + 1,
                productive_trials=productive,
                counterexample=(g, g_plus, edge_bit.bit_length()),
            )
    return CertificationResult(True, trials, productive, None)
