"""Independent brute-force references for every exact oracle.

Deliberately naive and structured differently from the package
implementations (subset enumeration, permutations, Floyd-Warshall,
inclusion-exclusion) so agreement is meaningful evidence. The solver-backed
references at the end (networkx, a scipy set-cover ILP) cover the sizes of
the acceptance trend checks, where enumeration is hopeless.
"""

from __future__ import annotations

from itertools import combinations, permutations

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from probust import (
    ConditionedAdjacencyModel,
    EdgeModel,
    EdgeSpace,
    Realization,
    derive_rng,
    generate_coupled,
    sample_direct,
    window_rng,
)
from probust.models import (
    REJECTION_TAG,
    _conditionals,
    _patch_probabilities,
    satisfies_min_adjacent,
)

INF = float("inf")


# ---------------------------------------------------------------------------
# low-bit loop references for the bitmask-to-structure conversions


def ref_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def ref_degrees(n: int, masks) -> np.ndarray:
    """Column c: the vertex degrees of bitmask ``masks[c]``, pair by pair;
    the (n, B) layout the block kernel keeps."""
    out = np.zeros((n, len(masks)), dtype=np.int64)
    for c, bits in enumerate(masks):
        for j, (u, v) in enumerate(ref_pairs(n)):
            if bits >> j & 1:
                out[u, c] += 1
                out[v, c] += 1
    return out


def ref_edge_adjacency(n: int) -> tuple[int, ...]:
    """For each edge, the mask of the other edges sharing an endpoint with
    it, pair by pair."""
    pairs = ref_pairs(n)
    return tuple(
        sum(1 << j for j, other in enumerate(pairs) if j != i and set(pair) & set(other))
        for i, pair in enumerate(pairs)
    )


def ref_present_edges(g: Realization) -> list[int]:
    out = []
    b = g.bits
    while b:
        low = b & -b
        out.append(low.bit_length())
        b ^= low
    return out


def ref_neighbor_masks(g: Realization) -> tuple[int, ...]:
    masks = [0] * g.space.n
    pairs = ref_pairs(g.space.n)
    b = g.bits
    while b:
        low = b & -b
        u, v = pairs[low.bit_length() - 1]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        b ^= low
    return tuple(masks)


def ref_degree_histogram(g: Realization) -> dict[int, int]:
    degs = [0] * g.space.n
    pairs = ref_pairs(g.space.n)
    b = g.bits
    while b:
        low = b & -b
        u, v = pairs[low.bit_length() - 1]
        degs[u] += 1
        degs[v] += 1
        b ^= low
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    return hist


def ref_certify(oracle, n: int, trials: int, rng: np.random.Generator):
    """The certification trial layout, one trial at a time: (ok, trials,
    productive trials, (before bits, after bits, added edge index) or None)."""
    space = EdgeSpace(n)
    productive = 0
    for t in range(trials):
        density, pick, *coins = rng.random(space.m + 2).tolist()
        bits = sum(1 << i for i, coin in enumerate(coins) if coin < density)
        absent = [i for i in range(space.m) if not bits >> i & 1]
        if not absent or not oracle.decide(Realization(space, bits)):
            continue
        edge = absent[int(pick * len(absent))]
        productive += 1
        if not oracle.decide(Realization(space, bits | 1 << edge)):
            return False, t + 1, productive, (bits, bits | 1 << edge, edge + 1)
    return True, trials, productive, None


# ---------------------------------------------------------------------------
# the block kernel as it was before conditional tables: one batched
# closed-form call per edge on the decided degrees


def ref_batched_conditionals(model):
    """A built-in model's conditional for B suffixes at once, from its closed
    form on their (n, B) vertex degrees."""
    n = model.space.n
    pairs = ref_pairs(n)
    kind = model.descriptor.kind
    if kind == "er":
        p = model.descriptor.params["p"]
        return lambda i, degrees: np.full(degrees.shape[1], p, dtype=np.float64)
    if kind == "global-count":
        return lambda i, degrees: 1.0 - (degrees.sum(axis=0) // 2 + 1) / (n * n)

    def adjacent(i, degrees):
        a, b = pairs[i - 1]
        return 0.5 - 1.0 / (degrees[a] + degrees[b] + 5)

    return adjacent


def ref_conditional(model):
    """A built-in model's scalar conditional, computed from its closed form
    per call: p, 1 - (k + 1) / n^2 over the k present decided edges, or
    1/2 - 1/(k + 5) over the k present decided edges adjacent to edge i."""
    n = model.space.n
    kind = model.descriptor.kind
    if kind == "er":
        p = model.descriptor.params["p"]
        return lambda i, history: p
    if kind == "global-count":
        return lambda i, history: 1.0 - (history.bits.bit_count() + 1) / (n * n)
    adjacent = ref_edge_adjacency(n)
    return lambda i, history: 0.5 - 1.0 / ((history.bits & adjacent[i - 1]).bit_count() + 5)


def ref_decide_block(model, coins, base=None):
    """The degrees and decisions of ``models._decide_block`` (same return
    value), deciding each edge from ``ref_batched_conditionals``, with a
    range check and patch probabilities per edge on all B lanes."""
    conditionals = ref_batched_conditionals(model)
    n, m = model.space.n, model.space.m
    pairs = ref_pairs(n)
    degrees = np.zeros((n, len(coins)), dtype=np.min_scalar_type(-4 * n))
    u = np.empty((m, len(coins)), dtype=bool)
    if base is not None:
        g1 = np.ascontiguousarray((coins[:, :m] < base).T[::-1])  # the m g1 coins
        g2 = np.empty_like(u)
    for j, i in enumerate(range(m, 0, -1)):
        q = conditionals(i, degrees)
        if q.size and not (q.min() >= (base or 0.0) and q.max() <= 1.0):
            return None
        if base is None:
            np.less(coins[:, j], q, out=u[i - 1])
        else:
            np.less(coins[:, m + j], _patch_probabilities(base, q), out=g2[i - 1])
            np.logical_or(g1[i - 1], g2[i - 1], out=u[i - 1])
        for v in pairs[i - 1]:
            degrees[v] += u[i - 1]
    return degrees, ((u,) if base is None else (g1, g2, u))


# ---------------------------------------------------------------------------
# the samplers' scalar references, one index at a time (stream layout 2)


def ref_sample(source, seed: int, branch: tuple, idx: int) -> int:
    """Sample idx's bitmask as ``sample_parts`` must give it: an EdgeModel
    decides window idx of stream ``branch``; the rejection sampler's attempt
    r is an adjacency-count draw from window idx of stream
    (*branch, REJECTION_TAG, r), and its errors are the sampler's own; any
    other source draws from ``derive_rng(seed, *branch, idx)``."""
    m = source.space.m
    if isinstance(source, ConditionedAdjacencyModel):
        source._check_event()
        for r in range(source.budget):
            rng = window_rng(seed, (*branch, REJECTION_TAG, r), idx, m)
            g = sample_direct(source.base_model, rng)
            if satisfies_min_adjacent(g, source.min_adjacent):
                return g.bits
        source._exhausted()
    if isinstance(source, EdgeModel):
        return sample_direct(source, window_rng(seed, branch, idx, m)).bits
    return source.sample(derive_rng(seed, *branch, idx)).bits


def ref_coupled(params, seed: int, idx: int):
    """Triple idx as ``sample_parts`` must give it: ``generate_coupled`` on
    window idx, 2m coins wide, of the seed's stream."""
    return generate_coupled(params, window_rng(seed, (), idx, 2 * params.model.space.m))


# ---------------------------------------------------------------------------
# the coupled generator's 4^m coin cells, for the exact coupling engine


def ref_coupling_marginals(params) -> tuple[np.ndarray, np.ndarray]:
    """The g1 and union marginals of the coupled generator, from the table
    ``table[g1, g2]`` of every outcome of the g1 coins and the patch coins,
    all 4^m cells.

    Per level, the patch coin's probability is evaluated for every (g1, g2)
    cell from its union g1 | g2 and multiplied with both coins' weights.
    """
    base = params.base
    m = params.model.space.m
    table = np.ones((1, 1), dtype=np.float64)
    for i in range(m, 0, -1):
        q = _conditionals(params.model, i, 0, 1 << (m - i), base)
        unions = np.arange(q.size, dtype=np.int64)
        patch = _patch_probabilities(base, q)[np.bitwise_or.outer(unions, unions)]
        g2_weights = (1.0 - patch, patch)
        new = np.empty((q.size, 2, q.size, 2), dtype=np.float64)  # cell (2 g1 + b1, 2 g2 + b2)
        for b1, g1_weight in enumerate((table * (1.0 - base), table * base)):
            for b2, g2_weight in enumerate(g2_weights):
                np.multiply(g1_weight, g2_weight, out=new[:, b1, :, b2])
        table = new.reshape(2 * q.size, 2 * q.size)
    cells = np.arange(table.shape[0])
    union = np.bincount(
        np.bitwise_or.outer(cells, cells).ravel(), weights=table.ravel(), minlength=cells.size
    )
    return table.sum(axis=1), union


def _adj_sets(g: Realization) -> list[set[int]]:
    n = g.space.n
    adj: list[set[int]] = [set() for _ in range(n)]
    pairs = g.space.pairs
    for i in g.present_edges():
        u, v = pairs[i - 1]
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_max_clique(g: Realization) -> int:
    n = g.space.n
    adj = _adj_sets(g)
    best = 1 if n else 0
    for k in range(2, n + 1):
        for sub in combinations(range(n), k):
            if all(v in adj[u] for u, v in combinations(sub, 2)):
                best = k
                break
    return best


def brute_max_independent_set(g: Realization) -> int:
    n = g.space.n
    adj = _adj_sets(g)
    best = 0
    for k in range(n, -1, -1):
        for sub in combinations(range(n), k):
            if all(v not in adj[u] for u, v in combinations(sub, 2)):
                return k
    return best


def brute_chromatic(g: Realization) -> int:
    """Inclusion-exclusion over independent-set counts, exact integers."""
    n = g.space.n
    if n == 0:
        return 0
    adj_mask = [0] * n
    pairs = g.space.pairs
    for i in g.present_edges():
        u, v = pairs[i - 1]
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    size = 1 << n
    ind = [0] * size  # number of independent subsets of X, empty set included
    ind[0] = 1
    for x in range(1, size):
        low = x & -x
        v = low.bit_length() - 1
        without_v = x ^ low
        ind[x] = ind[without_v] + ind[without_v & ~adj_mask[v]]
    for k in range(1, n + 1):
        total = 0
        for x in range(size):
            term = ind[x] ** k
            total += term if (n - x.bit_count()) % 2 == 0 else -term
        if total > 0:
            return k
    return n


def brute_min_dominating(g: Realization) -> int:
    n = g.space.n
    adj = _adj_sets(g)
    closed = [adj[v] | {v} for v in range(n)]
    everyone = set(range(n))
    for k in range(0, n + 1):
        for sub in combinations(range(n), k):
            covered = set()
            for v in sub:
                covered |= closed[v]
            if covered == everyone:
                return k
    return n


def brute_distances(g: Realization) -> list[list[float]]:
    """Floyd-Warshall all-pairs distances."""
    n = g.space.n
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    pairs = g.space.pairs
    for i in g.present_edges():
        u, v = pairs[i - 1]
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def brute_diameter(g: Realization) -> int:
    dist = brute_distances(g)
    finite = [d for row in dist for d in row if d != INF]
    return int(max(finite)) if finite else 0


def brute_connected(g: Realization) -> bool:
    """Union-find over present edges."""
    n = g.space.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = g.space.pairs
    for i in g.present_edges():
        u, v = pairs[i - 1]
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def brute_hamiltonian(g: Realization) -> bool:
    n = g.space.n
    if n < 3:
        return False
    adj = _adj_sets(g)
    for perm in permutations(range(1, n)):
        tour = (0,) + perm
        if all(tour[i + 1] in adj[tour[i]] for i in range(n - 1)) and tour[-1] in adj[0]:
            return True
    return False


def brute_longest_cycle(g: Realization) -> int:
    n = g.space.n
    adj = _adj_sets(g)
    best = 0
    for k in range(n, 2, -1):
        found = False
        for sub in combinations(range(n), k):
            anchor = sub[0]
            for perm in permutations(sub[1:]):
                cyc = (anchor,) + perm
                if all(cyc[i + 1] in adj[cyc[i]] for i in range(k - 1)) and cyc[-1] in adj[anchor]:
                    found = True
                    break
            if found:
                break
        if found:
            return k
    return 0


def brute_max_matching(g: Realization) -> int:
    """Enumerate every matching (edge subsets with pairwise disjoint endpoints)."""
    pairs = g.space.pairs
    edges = [pairs[i - 1] for i in g.present_edges()]

    def grow(start: int, used: int, size: int) -> int:
        best = size
        for j in range(start, len(edges)):
            u, v = edges[j]
            bits = (1 << u) | (1 << v)
            if used & bits:
                continue
            cand = grow(j + 1, used | bits, size + 1)
            if cand > best:
                best = cand
        return best

    return grow(0, 0, 0)


# ---------------------------------------------------------------------------
# solver-backed references for large n


def to_networkx(g: Realization) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(range(g.space.n))
    pairs = g.space.pairs
    graph.add_edges_from(pairs[i - 1] for i in g.present_edges())
    return graph


def nx_max_clique(g: Realization) -> int:
    """networkx branch and bound for the maximum (unit-weight) clique."""
    _, size = nx.max_weight_clique(to_networkx(g), weight=None)
    return size


def nx_diameter(g: Realization) -> int:
    """Max over components of networkx's BFS-bounded component diameter."""
    graph = to_networkx(g)
    return max(
        nx.diameter(graph.subgraph(comp), usebounds=True) for comp in nx.connected_components(graph)
    )


def milp_min_dominating(g: Realization) -> int:
    """Set-cover ILP: min sum x_v subject to every closed neighbourhood
    holding a chosen vertex, x binary."""
    n = g.space.n
    closed = np.eye(n)
    pairs = g.space.pairs
    for i in g.present_edges():
        u, v = pairs[i - 1]
        closed[u, v] = closed[v, u] = 1.0
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(closed, lb=1.0),
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
    )
    assert res.success, res.message
    return round(res.fun)
