"""Exhaustive enumeration at tiny scale: the independent oracle for everything else.

Joint distributions are stored as dense probability tables indexed by the
realization's bitmask. The coupled generator gets the same treatment: every
(g1, union) pair its coins can reach, 3^m of them, is enumerated with its
weight, which verifies that the union reproduces the model and the embedded
layer reproduces the independent Bernoulli graph without trusting the
sampling code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .coupling import CouplingParams, _require_floor
from .errors import CertificationError, DomainError, UnsupportedScaleError
from .graphs import EdgeSpace, Realization, words_from_bits
from .models import EdgeModel, _conditionals, _edge_tables, _patch_probabilities, er_model
from .properties import PropertyOracle, decide_bits
from .rngstreams import _bounds

MAX_JOINT_M = 21  # n = 7
MAX_COUPLING_M = 10  # n = 5
PROB_TOL = 1e-12
_CSV_SLICE = 1 << 16  # rows per pass of ExactDistribution.to_csv
# decided suffixes per pass of exact_joint, and entries per pass of
# _event_mass: the pass's scratch stays in cache (2^12 and 2^16 timed slower)
_CHUNK = 1 << 14


@dataclass(frozen=True)
class ExactDistribution:
    """Probability of every one of the 2^m realizations."""

    space: EdgeSpace
    probs: np.ndarray

    def __post_init__(self):
        if self.probs.shape != (1 << self.space.m,):
            raise DomainError(
                f"need 2^{self.space.m} probabilities, got shape {self.probs.shape}"
            )
        # a NaN or infinite entry makes the sum NaN or infinite, so only then
        # is each entry looked at; the checks below report what the sum meets
        with np.errstate(invalid="ignore", over="ignore"):
            total = float(self.probs.sum())
        if not np.isfinite(total) and not np.isfinite(self.probs).all():
            raise DomainError("non-finite probability in exact table")
        if self.probs.min() < -PROB_TOL:
            raise DomainError("negative probability in exact table")
        if abs(total - 1.0) > PROB_TOL:
            raise DomainError(f"probabilities sum to {total}, not 1")

    def probability_of(self, g: Realization) -> float:
        if g.space != self.space:
            raise DomainError("realization from a different edge space")
        return float(self.probs[g.bits])

    def entries(self):
        for bits in range(1 << self.space.m):
            yield Realization(self.space, bits), float(self.probs[bits])

    def to_csv(self, path) -> None:
        """Two columns: realization hex, probability (``repr`` of the float).

        The table is written ``_CSV_SLICE`` rows at a time, each slice as one
        block of bytes, so memory beyond the table is bounded by the slice.
        Within a slice each distinct bit pattern is formatted once, so ``0.0``
        and ``-0.0`` stay apart, as ``,repr\\n`` padded with zero bytes to the
        widest. A row is the hex of its index and its value's padded text;
        the block is written without the padding.
        """
        probs = np.asarray(self.probs, dtype=np.float64)
        with open(path, "wb") as fh:
            fh.write(b"realization,probability\n")
            for lo, hi in _bounds(0, probs.size, _CSV_SLICE):
                keys, inverse = np.unique(probs[lo:hi].view(np.uint64), return_inverse=True)
                texts = [f",{x!r}\n" for x in keys.view(np.float64).tolist()]
                width = max(map(len, texts))
                padded = "".join([text.ljust(width, "\0") for text in texts]).encode()
                pool = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)
                index_bytes = np.arange(lo, hi, dtype="<i8").view(np.uint8).reshape(-1, 8)
                rows = np.hstack([self.space.hex_rows(index_bytes), pool[inverse]])
                fh.write(rows[rows != 0])


def exact_joint(model: EdgeModel) -> ExactDistribution:
    """Multiply the sequential conditionals along every suffix path.

    Level i holds the distribution of the decided edges i..m packed so edge i
    is the low bit; descending from i = m to 1 lands on the full table
    indexed by the realization bitmask. Each level is computed ``_CHUNK``
    suffixes at a time, in ascending order: their conditionals
    (:func:`~probust.models._conditionals`) into one scratch array, and both
    products into the level's half of two buffers used in turn, of 2^m and
    2^(m-1) entries. So the first bad suffix, level by level, raises.
    """
    _require_floor(model)
    space = model.space
    m = space.m
    if m > MAX_JOINT_M:
        raise UnsupportedScaleError(
            f"exact joint caps at m={MAX_JOINT_M} (n=7), got m={m}"
        )
    tables = None if model.table is None else _edge_tables(model, 0.0)
    buffers = np.empty(1 << m >> 1), np.empty(1 << m)  # level i writes buffers[i % 2]
    scratch = np.empty(min(_CHUNK, 1 << m >> 1))
    table = np.ones(1)
    for i in range(m, 0, -1):
        new = buffers[i % 2]
        for lo, hi in _bounds(0, table.size, _CHUNK):
            q = _conditionals(model, i, lo, hi, tables=tables, out=scratch[: hi - lo])
            part = table[lo:hi]
            np.multiply(part, q, out=new[2 * lo + 1 : 2 * hi : 2])
            np.multiply(part, np.subtract(1.0, q, out=q), out=new[2 * lo : 2 * hi : 2])
        table = new[: 2 * table.size]
    return ExactDistribution(space, table)


@dataclass(frozen=True)
class ExactCouplingJoint:
    """The coupled generator's reachable (g1, union) pairs with their weights.

    State j is the pair of realization bitmasks ``(g1[j], union[j])`` with
    probability ``weights[j]``. Per edge a state takes one of three steps:
    the edge is in neither graph, in the union through the patch coin only,
    or in g1 (whatever the patch coin says). So g1 is a subset of the union
    in every state, and there are 3^m states.
    """

    space: EdgeSpace
    base: float
    weights: np.ndarray
    g1: np.ndarray
    union: np.ndarray

    def _marginal(self, bits: np.ndarray) -> ExactDistribution:
        out = np.bincount(bits, weights=self.weights, minlength=1 << self.space.m)
        return ExactDistribution(self.space, out)

    def g1_marginal(self) -> ExactDistribution:
        return self._marginal(self.g1)

    def union_marginal(self) -> ExactDistribution:
        return self._marginal(self.union)


def exact_coupling_joint(params: CouplingParams) -> ExactCouplingJoint:
    """Enumerate the coupled generator's reachable (g1, union) pairs, exactly.

    Mirrors the generator's edge-by-edge recursion: per level, each state's
    patch-coin probability is read from its decided union, and each state
    splits into the three steps of :class:`ExactCouplingJoint`, stored as
    three consecutive blocks. The edge just decided becomes the low bit.
    """
    model = params.model
    base = params.base
    space = model.space
    m = space.m
    if m > MAX_COUPLING_M:
        raise UnsupportedScaleError(
            f"exact coupling joint caps at m={MAX_COUPLING_M} (n=5), got m={m}"
        )
    weights = np.ones(1, dtype=np.float64)
    g1 = union = np.zeros(1, dtype=np.int64)
    for i in range(m, 0, -1):
        q = _conditionals(model, i, 0, 1 << (m - i), base)
        patch = _patch_probabilities(base, q)[union]
        outside = weights * (1.0 - base)
        weights = np.concatenate((outside * (1.0 - patch), outside * patch, weights * base))
        g1, union = g1 << 1, union << 1
        g1 = np.concatenate((g1, g1, g1 | 1))
        union = np.concatenate((union, union | 1, union | 1))
    return ExactCouplingJoint(space, base, weights, g1, union)


def _event_indicator(
    space: EdgeSpace, oracle: PropertyOracle, support: np.ndarray
) -> np.ndarray:
    """The oracle's decision on every realization in ``support``, by
    :func:`~probust.properties.decide_bits` on the edge words of the
    supported realizations' indices; False elsewhere. The indices are
    dropped once converted, so they and the decisions are never held at
    once."""
    words = words_from_bits(space, np.flatnonzero(support))
    indicator = np.zeros(support.size, dtype=bool)
    indicator[support] = decide_bits(oracle, space, words, int(support.sum()))
    return indicator


def _lattice_words(m: int) -> np.ndarray:
    """The edge words (see :mod:`probust.graphs`) of all 2^m realizations,
    graph g in lane g, in closed form: row e is bit e of the lane index.
    Below e = 6 that is one 64-lane pattern in every word; from e = 6 on, word
    w is all ones iff bit e - 6 of w is set. Below m = 6 the one word's
    lanes past 2^m are zero."""
    words = np.arange(max(1, (1 << m) >> 6), dtype=np.uint64)
    out = np.empty((m, words.size), dtype=np.uint64)
    for e in range(min(m, 6)):
        width = 1 << e  # the pattern: runs of `width` zeros, then as many ones
        out[e] = ((1 << 64) - 1) // ((1 << width) + 1) << width
    shifts = np.arange(max(m - 6, 0), dtype=np.uint64)[:, None]
    out[6:] = 0 - ((words >> shifts) & 1)
    if m < 6:
        out &= (1 << (1 << m)) - 1
    return out


def _monotonicity_violation(indicator: np.ndarray, m: int) -> Optional[tuple[int, int]]:
    """The lowest (s, edge) with the event at s and not at s plus that edge,
    smallest s first and then the lowest edge; None if the event is monotone.

    ``indicator`` covers all 2^m realizations. Edge i splits the table into
    (edge absent, edge present) pairs, so each edge is one comparison.
    """
    found = None
    for i in range(1, m + 1):
        b = i - 1
        pairs = indicator.reshape(1 << (m - i), 2, 1 << b)
        lost = np.flatnonzero(pairs[:, 0, :] & ~pairs[:, 1, :])
        if lost.size:
            hi, lo = divmod(int(lost[0]), 1 << b)
            s = (hi << i) | lo
            if found is None or s < found[0]:
                found = (s, i)
    return found


def _event_mass(probs: np.ndarray, indicator: np.ndarray) -> float:
    """Sum of probs over the indicator, added one entry at a time in bitmask
    order; np.sum would add pairwise and change the last bits. ``_CHUNK``
    entries at a time, each pass's ``np.cumsum`` starting from the running
    total, so the additions are the same."""
    total = 0.0
    scratch = np.empty(min(_CHUNK, probs.size) + 1)
    for lo, hi in _bounds(0, probs.size, _CHUNK):
        part = scratch[: hi - lo + 1]
        part[0] = total
        part[1:] = 0.0
        np.copyto(part[1:], probs[lo:hi], where=indicator[lo:hi])
        total = np.cumsum(part, out=part)[-1]
    return float(total)


def exact_probability(dist: ExactDistribution, oracle: PropertyOracle) -> float:
    """Probability of the oracle's event: sum over qualifying realizations."""
    indicator = _event_indicator(dist.space, oracle, dist.probs != 0)
    return _event_mass(dist.probs, indicator)


def tv_distance(d1: ExactDistribution, d2: ExactDistribution) -> float:
    """Half the L1 distance; 0 iff identical, 1 for disjoint supports."""
    if d1.space != d2.space:
        raise DomainError("total variation needs distributions on one edge space")
    return 0.5 * float(np.abs(d1.probs - d2.probs).sum())


def condition_min_adjacent(
    dist: ExactDistribution, threshold: int = 3
) -> ExactDistribution:
    """Restrict to realizations where every edge position has >= threshold
    present adjacent edges, renormalized."""
    space = dist.space
    bits = np.arange(dist.probs.size, dtype=np.int64)
    # vertex degrees of every realization; one (2^m,) array per edge at a time
    # keeps the temporaries small (an (m, 2^m) int64 array is 352 MB at n = 7)
    degree = [np.bitwise_count(bits & mask) for mask in space._incident_masks]
    keep = np.ones(bits.size, dtype=bool)
    # edge (a, b) counts its own bit once in each endpoint's degree, as in
    # the scalar reference, models.satisfies_min_adjacent
    for idx, (a, b) in enumerate(space.pairs):
        present = (bits >> idx) & 1
        keep &= degree[a] + degree[b] - 2 * present >= threshold
    mass = float(dist.probs[keep].sum())
    if mass <= 0.0:
        raise DomainError(
            f"conditioning event (min adjacent {threshold}) has probability zero at n={space.n}"
        )
    probs = np.where(keep, dist.probs, 0.0) / mass
    return ExactDistribution(space, probs)


@dataclass(frozen=True)
class FullConditionalFloor:
    """Minimum of Pr(edge i | exact status of all other edges) over the support."""

    min_conditional: float
    witness_edge: int
    witness_others_bits: int


def min_full_conditional(dist: ExactDistribution) -> FullConditionalFloor:
    """Robustness floor of an arbitrary exact distribution, in the
    conditioned-on-everything-else sense.

    For each edge the table is split into (edge absent, edge present) pairs
    over the 2^(m-1) assignments of the remaining edges; pairs with zero mass
    put no constraint on the floor.
    """
    space = dist.space
    m = space.m
    if m == 0:
        raise DomainError("no edges to condition on")
    best = 1.0
    witness = (m, 0)
    for i in range(1, m + 1):
        b = i - 1
        shaped = dist.probs.reshape(1 << (m - b - 1), 2, 1 << b)
        absent = shaped[:, 0, :]
        present = shaped[:, 1, :]
        mass = absent + present
        with np.errstate(invalid="ignore", divide="ignore"):
            cond = np.where(mass > 0, present / mass, 1.0)
        idx = int(np.argmin(cond))
        val = float(cond.flat[idx])
        if val < best:
            best = val
            hi, lo = divmod(idx, 1 << b)
            witness = (i, (hi << (b + 1)) | lo)
    return FullConditionalFloor(best, witness[0], witness[1])


def sequential_conditional(dist: ExactDistribution, i: int, suffix_bits: int) -> float:
    """Pr(edge i present | edges i+1..m equal suffix_bits) under the table.

    ``suffix_bits`` is aligned to absolute positions, bits below i must be 0.
    """
    space = dist.space
    space._check_index(i)
    if suffix_bits >> i << i != suffix_bits:
        raise DomainError("suffix bits must only cover edges above i")
    # the free edges 1..i sit below bit i, so the suffix's realizations are one
    # slice, edge i present in its upper half; cumsum adds one entry at a time
    weights = dist.probs[suffix_bits : suffix_bits + (1 << i)]
    den = float(np.cumsum(weights)[-1])
    if den == 0.0:
        raise DomainError(f"conditioning suffix {suffix_bits:#x} has zero probability")
    return float(np.cumsum(weights[1 << (i - 1) :])[-1]) / den


@dataclass(frozen=True)
class DominationCheckResult:
    prob_er: float
    prob_model: float
    holds: bool
    margin: float
    oracle_name: str


def exact_domination_check(
    model: Union[EdgeModel, ExactDistribution],
    base: float,
    oracle: PropertyOracle,
    tol: float = PROB_TOL,
) -> DominationCheckResult:
    """Compare Pr(Q) under independent Bernoulli(base) edges vs under the model.

    The oracle decides every one of the 2^m realizations, not only those
    either table can produce, which proves the theorem's hypothesis outright:
    Q is monotone iff no realization has Q and loses it when an edge is
    added. A non-monotone oracle raises :class:`CertificationError` whose
    ``counterexample`` is (before, after, added edge index) for the lowest
    such pair, smallest ``before`` first and then the lowest edge. The caller
    vouches that ``base`` does not exceed the model's floor; for a raw
    distribution table the floor is whatever :func:`min_full_conditional`
    says.
    """
    if isinstance(model, ExactDistribution):
        dist = model
    else:
        _require_floor(model)
        if base > model.floor:
            raise DomainError(
                f"base {base} exceeds model floor {model.floor}; the comparison "
                "is only guaranteed up to the floor"
            )
        dist = exact_joint(model)
    space = dist.space
    if space.m > MAX_JOINT_M:
        raise UnsupportedScaleError(f"domination check caps at m={MAX_JOINT_M}")
    er_dist = exact_joint(er_model(space.n, base))
    # one decision per realization serves the proof and both tables
    indicator = decide_bits(oracle, space, _lattice_words(space.m), 1 << space.m)
    violation = _monotonicity_violation(indicator, space.m)
    if violation is not None:
        s, edge = violation
        raise CertificationError(
            f"property {oracle.name!r} failed monotonicity certification",
            counterexample=(
                Realization(space, s),
                Realization(space, s | 1 << (edge - 1)),
                edge,
            ),
        )
    prob_er = _event_mass(er_dist.probs, indicator)
    prob_model = _event_mass(dist.probs, indicator)
    return DominationCheckResult(
        prob_er=prob_er,
        prob_model=prob_model,
        holds=prob_er <= prob_model + tol,
        margin=prob_model - prob_er,
        oracle_name=oracle.name,
    )
