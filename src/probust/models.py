"""Edge models with a robustness floor.

A model is a distribution over graph realizations defined by sequential
conditionals: the probability that edge i is present given the already
decided edges i+1..m. The *floor* is a probability p such that every
conditional is >= p no matter what the decided suffix looks like; graphs
sampled this way dominate an independent Bernoulli(p) graph edge by edge,
which is what the coupling in :mod:`probust.coupling` exploits.

Three built-ins have closed-form conditionals (independent, global edge
count, adjacent edge count). The fourth conditions the adjacent-edge-count
model on every potential edge position having at least three present
neighbors; that conditioning destroys the closed form, so it is a rejection
sampler and its claimed floor of 3/8 is a hypothesis to verify with the
exact engine, not a contract.

The conditional-given-the-decided-suffix reading is part of each model's
definition here. A conditional-given-everything-else (Markov-random-field)
reading of the same formulas would require constructing a consistent joint
first and is out of contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Optional

import numpy as np

from .errors import (
    DomainError,
    ModelContractError,
    RobustnessViolationError,
    SamplingFailureError,
    UnsupportedScaleError,
)
from .graphs import WORD_BITS, EdgeSpace, Realization, SuffixHistory
from .rngstreams import coin_rows, derive_rng

EXHAUSTIVE_FLOOR_CHECK_MAX_M = 24
BATCH_MAX_M = WORD_BITS  # batched sampling keeps suffixes in int64 masks

MODEL_KINDS = (
    "er",
    "global-count",
    "adjacency-count",
    "adjacency-count-conditioned",
)


@dataclass(frozen=True)
class ModelDescriptor:
    """Serializable recipe for a built-in model: {kind, n, params}."""

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise DomainError(f"unknown model kind {self.kind!r}; options: {MODEL_KINDS}")

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "n": self.n, "params": self.params},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelDescriptor":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"bad model descriptor JSON: {exc}") from exc
        if not isinstance(obj, dict) or set(obj) - {"kind", "n", "params"}:
            raise DomainError(f"model descriptor must be {{kind, n, params}}, got {obj!r}")
        return cls(obj["kind"], obj["n"], obj.get("params", {}))

    def build(self):
        if self.kind == "er":
            if "p" not in self.params:
                raise DomainError("er model needs params.p")
            return er_model(self.n, self.params["p"])
        if self.kind == "global-count":
            return global_count_model(self.n)
        if self.kind == "adjacency-count":
            return adjacency_count_model(self.n)
        budget = self.params.get("budget", DEFAULT_REJECTION_BUDGET)
        return conditioned_adjacency_model(self.n, budget=budget)


@dataclass(frozen=True)
class EdgeModel:
    """A sequential conditional-probability oracle with a robustness floor.

    ``conditional(i, history)`` must be pure and return a probability in
    [0, 1] that is never below ``floor``, for every edge index i and every
    suffix history with start == i+1.

    ``conditionals(i, suffixes)``, when given, is the same conditional for a
    whole int64 array of suffix bitmasks at once (each aligned like
    ``SuffixHistory.bits``), returning float64 values bit-identical to the
    scalar ones. The exact engine uses it in place of one ``conditional``
    call per suffix; models without it take the scalar path.
    """

    space: EdgeSpace
    floor: float
    conditional: Callable[[int, SuffixHistory], float]
    descriptor: Optional[ModelDescriptor] = None
    conditionals: Optional[Callable[[int, np.ndarray], np.ndarray]] = None

    @property
    def name(self) -> str:
        return self.descriptor.kind if self.descriptor else "custom"

    def sample(self, rng: np.random.Generator) -> Realization:
        return sample_direct(self, rng)


def er_model(n: int, p: float) -> EdgeModel:
    """Independent edges, each present with probability p; floor is p itself."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    space = EdgeSpace(n)

    def conditional(i: int, history: SuffixHistory) -> float:
        return p

    def conditionals(i: int, suffixes: np.ndarray) -> np.ndarray:
        return np.full(suffixes.size, p, dtype=np.float64)

    return EdgeModel(
        space, p, conditional, ModelDescriptor("er", n, {"p": p}), conditionals
    )


def global_count_model(n: int) -> EdgeModel:
    """Each edge present with probability 1 - (k+1)/n^2, k = decided present edges.

    Since k <= m-1 <= n(n-1)/2 - 1, the conditional is always
    >= 1 - n(n-1)/(2 n^2) >= 1/2, so the floor is 1/2 for every n.
    """
    if n < 2:
        raise DomainError(f"global-count model needs n >= 2, got {n}")
    space = EdgeSpace(n)
    nsq = n * n

    def conditional(i: int, history: SuffixHistory) -> float:
        k = history.bits.bit_count()
        return 1.0 - (k + 1) / nsq

    def conditionals(i: int, suffixes: np.ndarray) -> np.ndarray:
        return 1.0 - (np.bitwise_count(suffixes) + 1) / nsq

    return EdgeModel(
        space, 0.5, conditional, ModelDescriptor("global-count", n), conditionals
    )


def adjacency_count_model(n: int) -> EdgeModel:
    """Each edge present with probability 1/2 - 1/(k+5), k = decided present
    edges sharing an endpoint with it.

    k = 0 minimizes the formula, so the floor is 1/2 - 1/5 = 3/10.
    """
    if n < 2:
        raise DomainError(f"adjacency-count model needs n >= 2, got {n}")
    space = EdgeSpace(n)
    adj = space._edge_adjacency

    def conditional(i: int, history: SuffixHistory) -> float:
        k = (history.bits & adj[i - 1]).bit_count()
        return 0.5 - 1.0 / (k + 5)

    def conditionals(i: int, suffixes: np.ndarray) -> np.ndarray:
        # adj[i - 1] is a Python int; it fits int64 for every m the exact
        # engine accepts (m <= 24), so no adjacency array is built up front
        return 0.5 - 1.0 / (np.bitwise_count(suffixes & adj[i - 1]) + 5)

    return EdgeModel(
        space, 0.3, conditional, ModelDescriptor("adjacency-count", n), conditionals
    )


DEFAULT_REJECTION_BUDGET = 10**6
MIN_ADJACENT = 3  # the conditioning event: every edge position has >= 3 present neighbors


def satisfies_min_adjacent(g: Realization, threshold: int = MIN_ADJACENT) -> bool:
    """True iff every potential edge position has >= threshold present adjacent edges."""
    adj = g.space._edge_adjacency
    bits = g.bits
    for mask in adj:
        if (bits & mask).bit_count() < threshold:
            return False
    return True


@dataclass(frozen=True)
class ConditionedAdjacencyModel:
    """The adjacency-count model conditioned on the min-adjacent event.

    No closed-form sequential conditionals survive the conditioning, so this
    is a rejection sampler over the base model. ``claimed_floor`` (3/8, from
    substituting k >= 3 into the base formula) is verified against the exact
    conditioned distribution at tiny n rather than assumed.
    """

    space: EdgeSpace
    base_model: EdgeModel
    claimed_floor: float = 0.375
    min_adjacent: int = MIN_ADJACENT
    budget: int = DEFAULT_REJECTION_BUDGET
    descriptor: Optional[ModelDescriptor] = None

    @property
    def name(self) -> str:
        return "adjacency-count-conditioned"

    def sample(self, rng: np.random.Generator) -> Realization:
        self._check_event()
        for attempt in range(1, self.budget + 1):
            g = sample_direct(self.base_model, rng)
            if satisfies_min_adjacent(g, self.min_adjacent):
                return g
        self._exhausted()

    def _check_event(self) -> None:
        n = self.space.n
        if 2 * (n - 2) < self.min_adjacent:
            # the adjacent count cannot reach the threshold: event provably empty
            raise SamplingFailureError(
                f"conditioning event is empty at n={n}: max adjacent count "
                f"{2 * (n - 2)} < {self.min_adjacent}",
                attempts=0,
            )

    def _exhausted(self) -> NoReturn:
        raise SamplingFailureError(
            f"no accepted realization in {self.budget} attempts "
            f"(n={self.space.n}, min adjacent {self.min_adjacent}); "
            "the conditioning event may be empty or tiny",
            attempts=self.budget,
        )

    def _sample_rows(self, rngs: list) -> Optional[np.ndarray]:
        """Masks of ``sample(rng)`` for each stream, all rejection rounds
        batched: every still-pending stream draws its next m coins, the base
        model decides them as a block, and acceptance is checked against the
        edge adjacency at once. None when the base model's block sampler
        refuses a round (see :func:`_decide_block`)."""
        self._check_event()
        m = self.space.m
        adj = np.array(self.space._edge_adjacency, dtype=np.int64)
        out = np.zeros(len(rngs), dtype=np.int64)
        pending = np.arange(len(rngs))
        coins = np.empty((len(rngs), m))
        for _ in range(self.budget):
            if not pending.size:
                break
            for r in pending.tolist():
                rngs[r].random(out=coins[r])
            decided = _decide_block(self.base_model, coins[pending])
            if decided is None:
                return None
            bits = decided[0]
            counts = np.bitwise_count(bits[:, None] & adj[None, :])
            accepted = (counts >= self.min_adjacent).all(axis=1)
            out[pending[accepted]] = bits[accepted]
            pending = pending[~accepted]
        if pending.size:
            self._exhausted()
        return out


def conditioned_adjacency_model(
    n: int, budget: int = DEFAULT_REJECTION_BUDGET
) -> ConditionedAdjacencyModel:
    base = adjacency_count_model(n)
    return ConditionedAdjacencyModel(
        base.space,
        base,
        budget=budget,
        descriptor=ModelDescriptor("adjacency-count-conditioned", n, {"budget": budget}),
    )


def _checked(
    q: float,
    i: int,
    model_name: str,
    base: float = 0.0,
    history: Optional[SuffixHistory] = None,
) -> float:
    """q itself, once it is a probability and no lower than the coupling's base."""
    if not 0.0 <= q <= 1.0:
        raise ModelContractError(
            f"model {model_name!r} returned conditional {q} for edge {i}; must be in [0, 1]"
        )
    if q < base:
        raise RobustnessViolationError(
            f"conditional {q} for edge {i} fell below base {base}",
            edge=i,
            history=history,
        )
    return q


def _level_conditionals(
    model: EdgeModel, i: int, size: int, base: float = 0.0
) -> np.ndarray:
    """Conditionals of edge i after each decided suffix ``s << i``, s < size.

    One batched call when the model has ``conditionals``, else one scalar
    ``conditional`` call per suffix, which stays the reference path. Either
    way the first suffix, in ascending order, whose conditional leaves [0, 1]
    or falls below ``base`` raises as :func:`_checked` does for it.
    """
    space = model.space
    if model.conditionals is None:
        conditional = model.conditional
        q = np.empty(size, dtype=np.float64)
        for s in range(size):
            history = SuffixHistory(space, i + 1, s << i)
            q[s] = _checked(conditional(i, history), i, model.name, base, history)
        return q
    q = model.conditionals(i, np.arange(size, dtype=np.int64) << i)
    bad = ~((q >= base) & (q <= 1.0))  # NaN counts as out of range
    if bad.any():
        s = int(np.argmax(bad))
        _checked(float(q[s]), i, model.name, base, SuffixHistory(space, i + 1, s << i))
    return q


def _decide_block(
    model: EdgeModel, coins: np.ndarray, base: Optional[float] = None
) -> Optional[tuple[np.ndarray, ...]]:
    """Decide edges m down to 1 for a block of samples, one batched
    ``conditionals`` call per edge.

    Row r of ``coins`` holds the uniforms one sample's scalar path draws: m
    of them for :func:`sample_direct` (coin j decides edge m-j), or 2m for
    :func:`~probust.coupling.generate_coupled` when ``base`` is given (the g1
    coin, then the patch coin, per edge). Returns the int64 masks ``(u,)``,
    or ``(g1, g2, u)`` for a coupling, bit for bit those of the scalar
    samplers; the same strict ``<`` tests and the same float operations are
    applied. Returns None as soon as a conditional leaves [0, 1] or falls
    below ``base``: the caller re-runs the block on the scalar path, which
    raises the reference error for the first offending sample.
    """
    m = model.space.m
    floor = 0.0 if base is None else base
    u = np.zeros(coins.shape[0], dtype=np.int64)
    if base is not None:
        g1, g2 = np.zeros_like(u), np.zeros_like(u)
        in_g1 = coins[:, 0::2] < base
    for j, i in enumerate(range(m, 0, -1)):
        q = model.conditionals(i, u)
        if q.size and not (q.min() >= floor and q.max() <= 1.0):  # NaN fails too
            return None
        bit = 1 << (i - 1)
        if base is None:
            np.bitwise_or(u, bit, out=u, where=coins[:, j] < q)
            continue
        # q - p_prime(base, q), elementwise
        residual = q if base == 1.0 else q - np.minimum(q, base * (1.0 - q) / (1.0 - base))
        in_g2 = coins[:, 2 * j + 1] < residual
        np.bitwise_or(g1, bit, out=g1, where=in_g1[:, j])
        np.bitwise_or(g2, bit, out=g2, where=in_g2)
        np.bitwise_or(u, bit, out=u, where=in_g1[:, j] | in_g2)
    return (u,) if base is None else (g1, g2, u)


def batchable(model: EdgeModel) -> bool:
    """True when ``model`` can go through the block samplers."""
    return model.conditionals is not None and model.space.m <= BATCH_MAX_M


def sample_block(source, master_seed: int, branch: tuple, lo: int, hi: int):
    """``source.sample(derive_rng(master_seed, *branch, idx))`` for each idx
    in lo..hi-1, in order.

    Built-in models (and the rejection sampler over one) with m <= 63 decide
    the whole block at once; the results are the same realizations. Any
    other source, and any block the batched path refuses, takes the scalar
    path lazily, so it raises exactly where and what the scalar path does.
    """
    space = source.space
    bits = None
    if isinstance(source, EdgeModel) and batchable(source):
        decided = _decide_block(source, coin_rows(master_seed, branch, lo, hi, space.m))
        bits = None if decided is None else decided[0]
    elif isinstance(source, ConditionedAdjacencyModel) and batchable(source.base_model):
        rngs = [derive_rng(master_seed, *branch, idx) for idx in range(lo, hi)]
        bits = source._sample_rows(rngs)
    if bits is not None:
        return [Realization(space, b) for b in bits.tolist()]
    return (source.sample(derive_rng(master_seed, *branch, idx)) for idx in range(lo, hi))


def sample_direct(model: EdgeModel, rng: np.random.Generator) -> Realization:
    """Draw one realization by deciding edges m down to 1 with the model's
    conditionals; one uniform per edge, so fixed seeds reproduce bit-for-bit."""
    space = model.space
    m = space.m
    coins = rng.random(m)  # coin j decides edge m-j
    history = SuffixHistory.empty_for(space)
    conditional = model.conditional
    for j, i in enumerate(range(m, 0, -1)):
        q = _checked(conditional(i, history), i, model.name)
        a = 1 if coins[j] < q else 0
        history = history.extend(a)
    return Realization(space, history.bits)


@dataclass(frozen=True)
class FloorCheckResult:
    min_conditional: float
    floor: float
    confirmed: bool
    witness_edge: Optional[int]
    witness_history: Optional[SuffixHistory]
    exhaustive: bool
    evaluations: int


def robustness_floor_check(
    model: EdgeModel,
    exhaustive: bool = True,
    trials: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> FloorCheckResult:
    """Minimize the conditional over (edge, suffix history) and compare to the floor.

    Exhaustive mode enumerates all 2^m - 1 suffix histories and needs
    m <= 24; randomized mode samples ``trials`` histories uniformly.
    Returns the minimizing (edge, history) either way, so a violated floor
    comes with its counterexample.
    """
    space = model.space
    m = space.m
    best = 1.0
    witness: tuple[Optional[int], Optional[SuffixHistory]] = (None, None)
    evaluations = 0

    if exhaustive:
        if m > EXHAUSTIVE_FLOOR_CHECK_MAX_M:
            raise UnsupportedScaleError(
                f"exhaustive floor check caps at m={EXHAUSTIVE_FLOOR_CHECK_MAX_M}, "
                f"got m={m}; use exhaustive=False for randomized checking"
            )
        for i in range(m, 0, -1):
            q = _level_conditionals(model, i, 1 << (m - i))
            evaluations += q.size
            s = int(np.argmin(q))  # first minimum, as a strict-< scan would keep
            if q[s] < best:
                best = float(q[s])
                witness = (i, SuffixHistory(space, i + 1, s << i))
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        for _ in range(trials):
            i = int(rng.integers(1, m + 1))
            width = m - i
            s = int(rng.integers(0, 1 << width)) if width else 0
            history = SuffixHistory(space, i + 1, s << i)
            q = _checked(model.conditional(i, history), i, model.name)
            evaluations += 1
            if q < best:
                best = q
                witness = (i, history)

    if m == 0:
        best = 1.0
    confirmed = best >= model.floor
    return FloorCheckResult(
        min_conditional=best,
        floor=model.floor,
        confirmed=confirmed,
        witness_edge=witness[0],
        witness_history=witness[1],
        exhaustive=exhaustive,
        evaluations=evaluations,
    )
