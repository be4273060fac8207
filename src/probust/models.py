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

Every built-in conditional is a function of one small integer, its *key*:
nothing for the independent model, the number of decided present edges for
the global count, and the decided degree sum of the edge's two endpoints for
the adjacent count. Each states its conditional as that key and a table of
float64 values over the keys reachable at n, built from the closed form once
per key; its scalar ``conditional`` reads the same table, so the batched and
scalar values are one set of floats. The block kernel
(:func:`_decide_block`) decides edge i = m..1 for a block of samples, per
edge one key, one ``take`` from the table and one compare, for any n, and
the exact engine reads the same tables over any range of decided suffixes
(:func:`_conditionals`). :func:`sample_block` hands out the kernel's
realizations for any index range as one batch of edge words (see
:mod:`probust.graphs`), packed from the kernel's bool rows, and builds no
Python int or :class:`Realization` per sample. A range that fails to draw
comes out as the batch drawn before its lowest failing index and that
index's error. The scalar ``conditional`` on a :class:`SuffixHistory`,
:func:`sample_direct` and the rejection sampler's ``sample`` stay the
bit-for-bit reference.

The conditional-given-the-decided-suffix reading is part of each model's
definition here. A conditional-given-everything-else (Markov-random-field)
reading of the same formulas would require constructing a consistent joint
first and is out of contract.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    ModelContractError,
    RobustnessViolationError,
    SamplingFailureError,
    UnsupportedScaleError,
)
from .graphs import (
    EdgeSpace,
    Realization,
    SuffixHistory,
    join_words,
    words_from_bits,
    words_from_rows,
)
from .rngstreams import _bounds, block_streams, coin_rows, derive_rng

EXHAUSTIVE_FLOOR_CHECK_MAX_M = 24
# coin floats' worth of memory handed to one block-kernel call (32 MiB),
# counting each row's stream (its 32-byte PCG64 state) as STREAM_COINS coins:
# a larger range is decided in parts of whole rows, and rows are independent
# streams, so the parts give the same bits as one call
KERNEL_COINS = 1 << 22
STREAM_COINS = 4
# the keys a conditional table is read through (see EdgeModel)
KEYS = ("constant", "count", "degree_sum")


@dataclass(frozen=True)
class ModelDescriptor:
    """Serializable recipe for a built-in model: {kind, n, params}."""

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODELS:
            raise DomainError(f"unknown model kind {self.kind!r}; options: {MODEL_KINDS}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

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
        kind = MODELS[self.kind]
        for name in kind.required:
            if name not in self.params:
                raise DomainError(f"{self.kind} model needs params.{name}")
        taken = kind.required + kind.optional
        return kind.build(self.n, **{k: v for k, v in self.params.items() if k in taken})


@dataclass(frozen=True)
class EdgeModel:
    """A sequential conditional-probability oracle with a robustness floor.

    ``conditional(i, history)`` must be pure and return a probability in
    [0, 1] that is never below ``floor``, for every edge index i and every
    suffix history with start == i+1.

    ``key`` and ``table``, when given, state the same conditional for many
    decided suffixes at once: edge i's conditional after a suffix is
    ``table(i)[k]``, where k is the suffix's key, one of :data:`KEYS`:

    - ``"constant"``: always 0;
    - ``"count"``: the number of present decided edges;
    - ``"degree_sum"``: deg(a) + deg(b) over the present decided edges, for
      edge i = (a, b), which is the number of them adjacent to edge i.

    ``table(i)`` returns float64 values over the keys reachable at n
    (:func:`key_count` of them), equal to the scalar ones; a model whose
    conditional is the same on every edge returns one shared array, so each
    batched call checks it once. The block samplers and the exact engine
    read the tables in place of one ``conditional`` call per suffix; models
    without them take the scalar path.
    """

    space: EdgeSpace
    floor: float
    conditional: Callable[[int, SuffixHistory], float]
    descriptor: Optional[ModelDescriptor] = None
    key: Optional[str] = None
    table: Optional[Callable[[int], np.ndarray]] = None

    def __post_init__(self):
        if (self.key is None) != (self.table is None) or self.key not in (None, *KEYS):
            raise DomainError(
                f"a model takes a key out of {KEYS} together with a table, or neither; "
                f"got key {self.key!r} and {'no ' if self.table is None else ''}table"
            )

    @property
    def name(self) -> str:
        return self.descriptor.kind if self.descriptor else "custom"

    def sample(self, rng: np.random.Generator) -> Realization:
        return sample_direct(self, rng)


def key_count(key: str, n: int) -> int:
    """The number of keys reachable at n, the length of a table: a decided
    suffix holds at most m - 1 edges, and at most n - 2 at each endpoint of
    the undecided edge."""
    m = n * (n - 1) // 2
    return {"constant": 1, "count": m, "degree_sum": max(0, 2 * n - 3)}[key]


def er_model(n: int, p: float) -> EdgeModel:
    """Independent edges, each present with probability p; floor is p itself."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must be in [0, 1], got {p}")
    space = EdgeSpace(n)
    table = np.array([p], dtype=np.float64)
    (value,) = table.tolist()

    def conditional(i: int, history: SuffixHistory) -> float:
        return value

    return EdgeModel(
        space, p, conditional, ModelDescriptor("er", n, {"p": p}), "constant", lambda i: table
    )


def global_count_model(n: int) -> EdgeModel:
    """Each edge present with probability 1 - (k+1)/n^2, k = decided present edges.

    Since k <= m-1 <= n(n-1)/2 - 1, the conditional is always
    >= 1 - n(n-1)/(2 n^2) >= 1/2, so the floor is 1/2 for every n.
    """
    if n < 2:
        raise DomainError(f"global-count model needs n >= 2, got {n}")
    space = EdgeSpace(n)
    # 1 - (k + 1) / n^2 per key k; k + 1 and n^2 are exact doubles below 2^53,
    # so numpy's division rounds as Python's int / int does
    table = 1.0 - np.arange(1, space.m + 1) / (n * n)
    values = table.tolist()

    def conditional(i: int, history: SuffixHistory) -> float:
        return values[history.bits.bit_count()]

    return EdgeModel(
        space, 0.5, conditional, ModelDescriptor("global-count", n), "count", lambda i: table
    )


def adjacency_count_model(n: int) -> EdgeModel:
    """Each edge present with probability 1/2 - 1/(k+5), k = decided present
    edges sharing an endpoint with it.

    k = 0 minimizes the formula, so the floor is 1/2 - 1/5 = 3/10.
    """
    if n < 2:
        raise DomainError(f"adjacency-count model needs n >= 2, got {n}")
    space = EdgeSpace(n)
    values = [0.5 - 1.0 / (k + 5) for k in range(key_count("degree_sum", n))]
    table = np.array(values, dtype=np.float64)

    # a decided suffix never holds edge i itself, so the decided edges at
    # either endpoint of edge i are exactly its adjacent present edges
    def conditional(i: int, history: SuffixHistory) -> float:
        a, b = space.pairs[i - 1]
        inc = space._incident_masks
        return values[(history.bits & (inc[a] | inc[b])).bit_count()]

    return EdgeModel(
        space, 0.3, conditional, ModelDescriptor("adjacency-count", n), "degree_sum",
        lambda i: table,
    )


DEFAULT_REJECTION_BUDGET = 10**6
MIN_ADJACENT = 3  # the conditioning event: every edge position has >= 3 present neighbors


def satisfies_min_adjacent(g: Realization, threshold: int = MIN_ADJACENT) -> bool:
    """True iff every potential edge position has >= threshold present adjacent edges."""
    bits = g.bits
    degree = [(bits & mask).bit_count() for mask in g.space._incident_masks]
    # edge (a, b) counts its own bit once in each endpoint's degree
    for idx, (a, b) in enumerate(g.space.pairs):
        if degree[a] + degree[b] - 2 * (bits >> idx & 1) < threshold:
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
        error = self._empty_event()
        if error is not None:
            raise error
        for attempt in range(1, self.budget + 1):
            g = sample_direct(self.base_model, rng)
            if satisfies_min_adjacent(g, self.min_adjacent):
                return g
        raise self._exhausted()

    def _empty_event(self) -> Optional[SamplingFailureError]:
        """The error for an event that is provably empty at n, else None."""
        n = self.space.n
        if 2 * (n - 2) >= self.min_adjacent:
            return None
        # the adjacent count cannot reach the threshold
        return SamplingFailureError(
            f"conditioning event is empty at n={n}: max adjacent count "
            f"{2 * (n - 2)} < {self.min_adjacent}",
            attempts=0,
        )

    def _exhausted(self) -> SamplingFailureError:
        return SamplingFailureError(
            f"no accepted realization in {self.budget} attempts "
            f"(n={self.space.n}, min adjacent {self.min_adjacent}); "
            "the conditioning event may be empty or tiny",
            attempts=self.budget,
        )

    def _sample_rows(self, master_seed: int, branch: tuple, lo: int, hi: int):
        """:func:`sample_block` for this sampler, all rejection rounds
        batched: every still-pending stream of a part (see
        :func:`_part_rows`) draws its next m coins, the base model decides
        them in one block-kernel call, and acceptance is read off the final
        degrees at once, so a round's few pending rows are pooled over the
        whole part. None when the kernel refuses a round (see
        :func:`_decide_block`). If a part's budget runs out, the batch ends
        before its first pending row, with the scalar error. An empty range
        checks nothing, as the scalar path draws nothing."""
        m = self.space.m
        u, v = self.space.endpoints
        batches, error = [], None
        for start, stop in _bounds(lo, hi, _part_rows(m)):
            error = self._empty_event()
            if error is not None:
                break
            streams = block_streams(master_seed, branch, start, stop)
            out = np.zeros((m, stop - start), dtype=bool)
            pending = np.arange(stop - start)
            for _ in range(self.budget):
                if not pending.size:
                    break
                decided = _decide_block(self.base_model, streams.random(pending, m))
                if decided is None:
                    return None
                degrees, (present,) = decided
                # edge (a, b) counts its own bit once in each endpoint's degree
                adjacent = degrees[u] + degrees[v] - 2 * present.astype(degrees.dtype)
                accepted = (adjacent >= self.min_adjacent).all(axis=0)
                out[:, pending[accepted]] = present[:, accepted]
                pending = pending[~accepted]
            if pending.size:
                batches.append((words_from_rows(out[:, : pending[0]]), int(pending[0])))
                error = self._exhausted()
                break
            batches.append((words_from_rows(out), stop - start))
        return (*join_words(m, batches), error)


def conditioned_adjacency_model(
    n: int, budget: Optional[int] = None
) -> ConditionedAdjacencyModel:
    """``budget`` defaults to ``DEFAULT_REJECTION_BUDGET`` as it is at call time."""
    if budget is None:
        budget = DEFAULT_REJECTION_BUDGET
    base = adjacency_count_model(n)
    return ConditionedAdjacencyModel(
        base.space,
        base,
        budget=budget,
        descriptor=ModelDescriptor("adjacency-count-conditioned", n, {"budget": budget}),
    )


@dataclass(frozen=True)
class ModelKind:
    """A built-in model kind: its CLI short name, its builder, called as
    ``build(n, **params)``, and the params it takes."""

    cli_name: str
    build: Callable
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()


MODELS = {
    "er": ModelKind("er", er_model, required=("p",)),
    "global-count": ModelKind("globalcount", global_count_model),
    "adjacency-count": ModelKind("adjcount", adjacency_count_model),
    "adjacency-count-conditioned": ModelKind(
        "adjcount-cond", conditioned_adjacency_model, optional=("budget",)
    ),
}
MODEL_KINDS = tuple(MODELS)


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


def _edge_tables(model: EdgeModel, low: float) -> tuple[list, bool]:
    """Per edge i = m down to 1, ``table(i)`` as float64; and whether every
    entry of every table lies in [low, 1] (NaN does not). Each distinct
    array is checked once, so a table shared by every edge is checked once
    per call."""
    m = model.space.m
    tables = [model.table(i) for i in range(m, 0, -1)]
    want = (key_count(model.key, model.space.n),)
    checked = {}  # the list keeps every table alive, so ids are unique
    for j, table in enumerate(tables):
        if id(table) not in checked:
            values = np.asarray(table, dtype=np.float64)
            if values.shape != want:
                raise ModelContractError(
                    f"model {model.name!r} table for edge {m - j} has shape "
                    f"{values.shape}, not {want}"
                )
            checked[id(table)] = values, bool(((values >= low) & (values <= 1.0)).all())
    in_range = all(ok for _, ok in checked.values())
    return [checked[id(table)][0] for table in tables], in_range


def _conditionals(
    model: EdgeModel,
    i: int,
    lo: int,
    hi: int,
    base: float = 0.0,
    tables: Optional[tuple[list, bool]] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Edge i's conditional after each decided suffix s in lo..hi-1, as
    float64 (written to ``out`` if given): edge i+1 is s's low bit, so the
    suffix's mask is ``s << i``.

    A model with a table reads it through the suffixes' keys, in closed
    form: the popcount of s for ``"count"``, of s masked to the edges at
    either end of edge i for ``"degree_sum"``; a ``"constant"`` reads the
    table's one entry. ``tables`` is :func:`_edge_tables` at ``base``, for a
    caller that reads many ranges; by default it is gathered here. Other
    models take one scalar ``conditional`` call per suffix, the reference
    path. Either way the first suffix of the range whose conditional leaves
    [0, 1] or falls below ``base`` raises as :func:`_checked` does, unless
    every table entry lies in [base, 1].
    """
    space = model.space
    q = np.empty(hi - lo) if out is None else out
    if model.table is None:
        check = True
        histories = (SuffixHistory(space, i + 1, s << i) for s in range(lo, hi))
        q[:] = [model.conditional(i, h) for h in histories]
    else:
        edge_tables, in_range = _edge_tables(model, base) if tables is None else tables
        check = not in_range
        table = edge_tables[space.m - i]
        if model.key == "constant":
            q.fill(table[0])
        else:
            suffixes = np.arange(lo, hi, dtype=np.uint32)
            if model.key == "degree_sum":
                a, b = space.pairs[i - 1]
                inc = space._incident_masks
                suffixes &= (inc[a] | inc[b]) >> i
            # key_count bounds every key, so "clip" never clips; unlike the
            # default mode it writes to q without a buffer
            table.take(np.bitwise_count(suffixes), out=q, mode="clip")
    if check:
        bad = ~((q >= base) & (q <= 1.0))  # NaN counts as out of range
        if bad.any():
            s = lo + int(np.argmax(bad))
            _checked(float(q[s - lo]), i, model.name, base, SuffixHistory(space, i + 1, s << i))
    return q


def _patch_probabilities(base: float, q: np.ndarray) -> np.ndarray:
    """The patch-coin probabilities q - p'(base, q), elementwise, with the
    float operations of :func:`~probust.coupling.patch_probability`."""
    return q if base == 1.0 else q - np.minimum(q, base * (1.0 - q) / (1.0 - base))


def _decide_block(model: EdgeModel, coins: np.ndarray, base: Optional[float] = None):
    """Decide edges m down to 1 for a block of B samples from the model's
    conditional tables.

    Row r of ``coins`` holds the uniforms one sample's scalar path draws: m
    of them for :func:`sample_direct` (coin j decides edge m-j), or 2m for
    :func:`~probust.coupling.generate_coupled` when ``base`` is given (the g1
    coin, then the patch coin, per edge). Per edge the kernel forms each
    sample's key from its decided degrees (or its running edge count), takes
    its conditional from the table, or its patch-coin probability from the
    patch table built once per distinct table, and compares. Returns the
    final degrees, shape (n, B), and the decisions as (m, B) bool arrays
    whose row i-1 is edge i: ``(u,)``, or ``(g1, g2, u)`` for a coupling,
    bit for bit those of the scalar samplers; the same strict ``<`` tests
    and the same float operations are applied. Each distinct table is
    checked once, before any edge: if an entry leaves [0, 1] or falls below
    ``base``, the kernel returns None and the caller re-runs the block on the
    scalar path, which raises the reference error for the first sample that
    reaches such an entry, if one does.
    """
    space = model.space
    b = len(coins)
    tables, in_range = _edge_tables(model, 0.0 if base is None else base)
    if not in_range:
        return None
    # the smallest integer type that holds 4n: room for deg(a) + deg(b)
    degrees = np.zeros((space.n, b), dtype=np.min_scalar_type(-4 * space.n))
    vertex_rows = list(degrees)  # one view per vertex, added to in place
    count = np.zeros(b, dtype=np.min_scalar_type(-space.m)) if model.key == "count" else None
    key_out, q_out = np.empty(b, dtype=degrees.dtype), np.empty(b)  # reused by every edge
    u = np.empty((space.m, b), dtype=bool)
    if base is not None:
        g1 = np.ascontiguousarray((coins[:, 0::2] < base).T[::-1])
        g2 = np.empty_like(u)
        patches = {}  # id(table): its patch table; _edge_tables keeps the ids unique
    for j, table in enumerate(tables):
        i = space.m - j
        a, c = space.pairs[i - 1]
        if model.key == "degree_sum":
            keys = np.add(vertex_rows[a], vertex_rows[c], out=key_out)
        else:
            keys = count  # None for a constant: the table's one entry serves all
        if base is not None:
            if id(table) not in patches:
                patches[id(table)] = _patch_probabilities(base, table)
            table = patches[id(table)]
        # key_count bounds every key, so "clip" never clips; unlike the
        # default mode it writes to q_out without a buffer
        q = table[0] if keys is None else table.take(keys, out=q_out, mode="clip")
        if base is None:
            np.less(coins[:, j], q, out=u[i - 1])
        else:
            np.less(coins[:, 2 * j + 1], q, out=g2[i - 1])
            np.logical_or(g1[i - 1], g2[i - 1], out=u[i - 1])
        vertex_rows[a] += u[i - 1]
        vertex_rows[c] += u[i - 1]
        if count is not None:
            count += u[i - 1]
    return degrees, ((u,) if base is None else (g1, g2, u))


def _part_rows(width: int) -> int:
    """Rows of ``width`` coins per block-kernel call: at most ``KERNEL_COINS``
    coins, each row's stream counted as ``STREAM_COINS`` more, and at least one."""
    return max(1, KERNEL_COINS // (width + STREAM_COINS))


def _kernel_words(model: EdgeModel, master_seed: int, branch: tuple, lo: int, hi: int, base=None):
    """The block kernel's decisions for indices lo..hi-1 as edge words: (u,),
    or (g1, g2, u) for a coupling at ``base``, decided in parts of
    :func:`_part_rows` rows and each part packed as it is decided. None if
    the kernel refuses a part."""
    width = model.space.m if base is None else 2 * model.space.m
    columns = [[] for _ in range(1 if base is None else 3)]
    for start, stop in _bounds(lo, hi, _part_rows(width)):
        decided = _decide_block(model, coin_rows(master_seed, branch, start, stop, width), base)
        if decided is None:
            return None
        for column, rows in zip(columns, decided[1]):
            column.append((words_from_rows(rows), stop - start))
    return tuple(join_words(model.space.m, column)[0] for column in columns)


def _scalar_draws(draw: Callable, lo: int, hi: int) -> tuple[list, Optional[Exception]]:
    """``draw(idx)`` for idx = lo, lo + 1, ... up to the first that raises,
    and that error, or None if none does: the scalar path's samples before a
    failure, then the failure."""
    drawn = []
    for idx in range(lo, hi):
        try:
            drawn.append(draw(idx))
        except Exception as exc:  # raised by the caller once the drawn samples are decided
            return drawn, exc
    return drawn, None


def sample_block(source, master_seed: int, branch: tuple, lo: int, hi: int):
    """``(words, count, error)`` for the realizations
    ``source.sample(derive_rng(master_seed, *branch, idx))``, idx in
    lo..hi-1: the edge words of the batch drawn before the lowest index
    whose draw fails, its count, and that draw's error, or None when the
    whole range is drawn.

    Built-in models, and the rejection sampler over one, decide the range in
    the block kernel, in parts of :func:`_part_rows` rows, for any n, and
    give the same bits. Any other source, and any range the kernel refuses,
    takes the scalar path, so the error is exactly the scalar path's.
    """
    if isinstance(source, ConditionedAdjacencyModel) and source.base_model.table is not None:
        drawn = source._sample_rows(master_seed, branch, lo, hi)
        if drawn is not None:
            return drawn
    elif isinstance(source, EdgeModel) and source.table is not None:
        words = _kernel_words(source, master_seed, branch, lo, hi)
        if words is not None:
            return words[0], hi - lo, None
    bits, error = _scalar_draws(
        lambda idx: source.sample(derive_rng(master_seed, *branch, idx)).bits, lo, hi
    )
    return words_from_bits(source.space, bits), len(bits), error


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
            q = _conditionals(model, i, 0, 1 << (m - i))
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
