"""Output checks for the benchmark, computed apart from the program.

Nothing here imports probust. Each check recomputes what a CLI output must
say from numpy, scipy, networkx and closed forms (Gilbert's connectivity
recurrence, the Poisson degree law, the Riordan-Wormald diameter), so a
fault in the program cannot hide behind its own reference. Statistical
checks use bounds of five standard errors, so they hold at every seed.
"""

from __future__ import annotations

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np

PROB_TOL = 1e-12
STAT_Z = 5.0


class CheckFailure(Exception):
    """An output that contradicts its independent reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# output formats


class Schemas:
    """Validators for the JSON schemas the program ships."""

    def __init__(self, schema_dir: Path):
        import jsonschema

        self._validators = {
            path.name.removesuffix(".schema.json"): jsonschema.Draft202012Validator(
                json.loads(path.read_text(encoding="utf-8"))
            )
            for path in sorted(Path(schema_dir).glob("*.schema.json"))
        }
        require(self._validators, f"no schemas under {schema_dir}")

    def validate(self, name: str, obj) -> None:
        validator = self._validators[name]
        if not validator.is_valid(obj):
            import jsonschema

            error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
            raise CheckFailure(f"{name} schema: {error.message}")


def parse_json_lines(text: str, count: int) -> list[dict]:
    lines = text.splitlines()
    require(len(lines) == count, f"expected {count} records, got {len(lines)}")
    return [json.loads(line) for line in lines]


def parse_single_json(text: str) -> dict:
    lines = text.splitlines()
    require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def edge_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of edges 1..m in lexicographic pair order."""
    return np.triu_indices(n, 1)


def hex_to_bits(hexes: list[str], m: int) -> np.ndarray:
    """(len(hexes), m) 0/1 array; column i-1 is edge i (bit i-1 of the mask)."""
    width = max(1, (m + 3) // 4)
    nbytes = (m + 7) // 8
    chunks = []
    for text in hexes:
        require(len(text) == width, f"hex {text!r} is not {width} digits wide")
        value = int(text, 16)
        require(value >> m == 0, f"hex {text!r} sets bits beyond edge {m}")
        chunks.append(value.to_bytes(nbytes, "little"))
    raw = np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(len(hexes), nbytes)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :m]


def min_adjacent_present(bits: np.ndarray, n: int) -> np.ndarray:
    """Per graph, the fewest present edges sharing one endpoint with any edge position."""
    u, v = edge_pairs(n)
    incidence = np.zeros((len(u), n), dtype=np.int64)
    incidence[np.arange(len(u)), u] = 1
    incidence[np.arange(len(u)), v] = 1
    degrees = bits.astype(np.int64) @ incidence
    adjacent = degrees[:, u] + degrees[:, v] - 2 * bits
    return adjacent.min(axis=1)


# ---------------------------------------------------------------------------
# closed forms


def gilbert_connected(n: int, p: str) -> float:
    """Pr(G(n, p) connected) by Gilbert's recurrence, in exact rationals."""
    q = 1 - Fraction(p)
    conn = [Fraction(0), Fraction(1)]
    for j in range(2, n + 1):
        disconnected = sum(
            math.comb(j - 1, k - 1) * conn[k] * q ** (k * (j - k)) for k in range(1, j)
        )
        conn.append(1 - disconnected)
    return float(conn[n])


def wilson_interval(successes: int, samples: int, confidence: float) -> tuple[float, float]:
    z = statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def degree_count_moments(n: int, p: float, k: int) -> tuple[float, float]:
    """Exact mean and variance of the number of degree-k vertices in G(n, p)."""

    def pmf(trials: int, j: int) -> float:
        if not 0 <= j <= trials:
            return 0.0
        return math.comb(trials, j) * p**j * (1 - p) ** (trials - j)

    single = pmf(n - 1, k)
    pair = p * pmf(n - 2, k - 1) ** 2 + (1 - p) * pmf(n - 2, k) ** 2
    mean = n * single
    var = n * single * (1 - single) + n * (n - 1) * (pair - single**2)
    return mean, var


def poisson_degree_prediction(n: int, d: float, k: int) -> float:
    return n * d**k * math.exp(-d) / math.factorial(k)


def riordan_wormald_diameter(n: int, c: float) -> float:
    """log n / log c + 2 log n / log(1/c*), c* < 1 with c* e^-c* = c e^-c."""
    target = c * math.exp(-c)
    dual = 0.0
    for _ in range(200):
        dual = target * math.exp(dual)
    return math.log(n) / math.log(c) + 2.0 * math.log(n) / math.log(1.0 / dual)


# ---------------------------------------------------------------------------
# exact tables


def adjcount_joint(n: int) -> np.ndarray:
    """Pr of every realization of the adjcount model, as a product of its
    conditionals 1/2 - 1/(k+5), k = present later edges sharing an endpoint."""
    u, v = edge_pairs(n)
    m = len(u)
    states = np.arange(1 << m, dtype=np.int64)
    probs = np.ones(1 << m, dtype=np.float64)
    q_of_k = 0.5 - 1.0 / (np.arange(2 * n, dtype=np.float64) + 5.0)
    for e in range(m - 1, -1, -1):
        later = [
            f for f in range(e + 1, m) if len({u[e], v[e]} & {u[f], v[f]}) == 1
        ]
        mask = sum(1 << f for f in later)
        q = q_of_k[np.bitwise_count(states & mask)]
        present = (states >> e) & 1
        probs *= np.where(present == 1, q, 1.0 - q)
    return probs


def er_joint(n: int, p: float) -> np.ndarray:
    """p^k (1-p)^(m-k) for every realization with k present edges."""
    m = n * (n - 1) // 2
    k = np.bitwise_count(np.arange(1 << m, dtype=np.int64)).astype(np.float64)
    return p**k * (1.0 - p) ** (m - k)


def tv_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(a - b).sum())


def read_joint_csv(path: Path, m: int) -> np.ndarray:
    """Probabilities from an exported joint, after checking the row order."""
    data = Path(path).read_bytes()
    header, _, body = data.partition(b"\n")
    require(header == b"realization,probability", f"bad joint header {header[:40]!r}")
    rows = 1 << m
    width = max(1, (m + 3) // 4)
    raw = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    require(len(ends) == rows and ends[-1] == len(raw) - 1, f"expected {rows} rows")
    starts = np.concatenate(([0], ends[:-1] + 1))
    keys = raw[starts[:, None] + np.arange(width + 1)]
    require((keys[:, width] == ord(",")).all(), "realization column has the wrong width")
    digits = keys[:, :width].astype(np.int64)
    is_digit = (digits >= ord("0")) & (digits <= ord("9"))
    is_letter = (digits >= ord("a")) & (digits <= ord("f"))
    require((is_digit | is_letter).all(), "realization column is not lowercase hex")
    values = np.where(is_digit, digits - ord("0"), digits - ord("a") + 10)
    index = (values << (4 * np.arange(width - 1, -1, -1))).sum(axis=1)
    require((index == np.arange(rows)).all(), "rows are not in bitmask order")
    numbers = np.frombuffer(body, dtype=np.uint8).copy()
    numbers[(starts[:, None] + np.arange(width + 1)).ravel()] = ord(" ")
    probs = np.fromstring(numbers.tobytes().decode("ascii"), dtype=np.float64, sep=" ")
    require(probs.shape == (rows,), f"expected {rows} probabilities, got {probs.shape}")
    return probs


# ---------------------------------------------------------------------------
# graphs at n = 1000


def er_edges(seed: int, n: int, idx: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the report's idx-th graph: stream (seed, n, idx), one block draw."""
    u, v = edge_pairs(n)
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(n, idx))
    present = np.random.Generator(np.random.PCG64(seq)).random(len(u)) < p
    return u[present], v[present]


def degree_count(n: int, u: np.ndarray, v: np.ndarray, k: int) -> int:
    degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return int(np.count_nonzero(degrees == k))


def component_diameter(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Largest eccentricity within any component, by all-sources BFS levels."""
    from scipy import sparse

    adjacency = sparse.csr_matrix(
        (np.ones(2 * len(u), dtype=np.float32), (np.r_[u, v], np.r_[v, u])), shape=(n, n)
    )
    reach = np.eye(n, dtype=bool)
    depth = 0
    while True:
        grown = reach | (np.asarray(reach.astype(np.float32) @ adjacency) > 0)
        if (grown == reach).all():
            return depth
        reach = grown
        depth += 1


def nx_component_diameter(n: int, u: np.ndarray, v: np.ndarray) -> int:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    return max(
        nx.diameter(graph.subgraph(comp), usebounds=True) if len(comp) > 1 else 0
        for comp in nx.connected_components(graph)
    )


def nx_matching_at_least(n: int, u: np.ndarray, v: np.ndarray, k: int) -> bool:
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    if len(nx.maximal_matching(graph)) >= k:
        return True
    return len(nx.max_weight_matching(graph, maxcardinality=True)) >= k
