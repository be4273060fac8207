"""Exhaustive enumeration at tiny scale: the independent oracle for everything else.

Joint distributions are stored as dense probability tables indexed by the
realization's bitmask. The coupled generator gets the same treatment: all
4^m per-edge coin outcomes are enumerated with their weights, which verifies
that the union reproduces the model and the embedded layer reproduces the
independent Bernoulli graph without trusting the sampling code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .coupling import CouplingParams, _require_floor, p_prime
from .errors import DomainError, UnsupportedScaleError
from .graphs import EdgeSpace, Realization
from .models import EdgeModel, _level_conditionals, er_model, satisfies_min_adjacent

if TYPE_CHECKING:
    from .properties import PropertyOracle

MAX_JOINT_M = 21  # n = 7
MAX_COUPLING_M = 10  # n = 5
PROB_TOL = 1e-12
SWEEP_BLOCK = 4096  # realizations whose neighbour masks are built at once


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
        if np.any(self.probs < -PROB_TOL):
            raise DomainError("negative probability in exact table")
        total = float(self.probs.sum())
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
        """Two columns: realization hex, probability."""
        width = self.space.hex_width()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("realization,probability\n")
            for bits in range(1 << self.space.m):
                fh.write(f"{bits:0{width}x},{float(self.probs[bits])!r}\n")


def exact_joint(model: EdgeModel) -> ExactDistribution:
    """Multiply the sequential conditionals along every suffix path.

    Level i holds the distribution of the decided edges i..m packed so edge i
    is the low bit; descending from i = m to 1 lands on the full table
    indexed by the realization bitmask.
    """
    _require_floor(model)
    space = model.space
    m = space.m
    if m > MAX_JOINT_M:
        raise UnsupportedScaleError(
            f"exact joint caps at m={MAX_JOINT_M} (n=7), got m={m}"
        )
    table = np.ones(1, dtype=np.float64)
    for i in range(m, 0, -1):
        q = _level_conditionals(model, i, table.size)
        new = np.empty(table.size * 2, dtype=np.float64)
        new[1::2] = table * q
        new[0::2] = table * (1.0 - q)
        table = new
    return ExactDistribution(space, table)


@dataclass(frozen=True)
class ExactCouplingJoint:
    """Joint table over (g1, g2) pairs from the coupled generator.

    ``table[g1_bits, g2_bits]`` is the probability of that coin outcome; the
    union of an outcome is g1 | g2 by construction, so every supported pair
    satisfies the containment invariant definitionally.
    """

    space: EdgeSpace
    base: float
    table: np.ndarray

    def g1_marginal(self) -> ExactDistribution:
        return ExactDistribution(self.space, self.table.sum(axis=1))

    def g2_marginal(self) -> ExactDistribution:
        return ExactDistribution(self.space, self.table.sum(axis=0))

    def union_marginal(self) -> ExactDistribution:
        size = self.table.shape[0]
        s1 = np.arange(size, dtype=np.int64)
        or_index = np.bitwise_or.outer(s1, s1)
        out = np.bincount(or_index.ravel(), weights=self.table.ravel(), minlength=size)
        return ExactDistribution(self.space, out)


def exact_coupling_joint(params: CouplingParams) -> ExactCouplingJoint:
    """Enumerate all 4^m coin outcomes of the coupled generator, exactly.

    Per level, the conditional is evaluated once per distinct decided union
    and broadcast over the (g1, g2) table with the two independent coins'
    weights, mirroring the generator's edge-by-edge recursion.
    """
    model = params.model
    base = params.base
    space = model.space
    m = space.m
    if m > MAX_COUPLING_M:
        raise UnsupportedScaleError(
            f"exact coupling joint caps at m={MAX_COUPLING_M} (n=5), got m={m}"
        )
    table = np.ones((1, 1), dtype=np.float64)
    for i in range(m, 0, -1):
        size = table.shape[0]
        unions = np.arange(size, dtype=np.int64)
        q_by_union = _level_conditionals(model, i, size, base)
        pprime = np.array([p_prime(base, float(q)) for q in q_by_union])
        residual = q_by_union - pprime
        or_index = np.bitwise_or.outer(unions, unions)
        patch = residual[or_index]  # patch-coin probability per (g1, g2) cell
        new = np.empty((size * 2, size * 2), dtype=np.float64)
        new[0::2, 0::2] = table * (1.0 - base) * (1.0 - patch)
        new[0::2, 1::2] = table * (1.0 - base) * patch
        new[1::2, 0::2] = table * base * (1.0 - patch)
        new[1::2, 1::2] = table * base * patch
        table = new
    return ExactCouplingJoint(space, base, table)


def _event_indicator(
    space: EdgeSpace, oracle: "PropertyOracle", support: np.ndarray
) -> np.ndarray:
    """The oracle's decision on every realization in ``support``; False elsewhere.

    The neighbour masks of each block of realizations are built together,
    one pass over the edges, and handed to the realizations the oracle sees.
    """
    decide = oracle.decide
    u, v = (e.tolist() for e in space.endpoints)
    indicator = np.zeros(support.size, dtype=bool)
    todo = np.flatnonzero(support)
    for lo in range(0, todo.size, SWEEP_BLOCK):
        block = todo[lo : lo + SWEEP_BLOCK].astype(np.int64)
        masks = np.zeros((block.size, space.n), dtype=np.int64)
        for i in range(space.m):
            present = (block >> i) & 1
            masks[:, u[i]] |= present << v[i]
            masks[:, v[i]] |= present << u[i]
        for bits, row in zip(block.tolist(), masks.tolist()):
            g = Realization._with_neighbor_masks(space, bits, tuple(row))
            indicator[bits] = bool(decide(g))
    return indicator


def _event_mass(probs: np.ndarray, indicator: np.ndarray) -> float:
    """Sum of probs over the indicator, added one entry at a time in bitmask
    order; np.sum would add pairwise and change the last bits."""
    return float(np.cumsum(np.where(indicator, probs, 0.0))[-1])


def exact_probability(dist: ExactDistribution, oracle: "PropertyOracle") -> float:
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
    keep = np.zeros(dist.probs.size, dtype=bool)
    for bits in range(dist.probs.size):
        keep[bits] = satisfies_min_adjacent(Realization(space, bits), threshold)
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
    m = space.m
    space._check_index(i)
    if suffix_bits >> i << i != suffix_bits:
        raise DomainError("suffix bits must only cover edges above i")
    low = i  # free edges 1..i-1 plus edge i itself live below bit i
    num = 0.0
    den = 0.0
    edge_bit = 1 << (i - 1)
    for rest in range(1 << low):
        bits = suffix_bits | rest
        w = float(dist.probs[bits])
        den += w
        if bits & edge_bit:
            num += w
    if den == 0.0:
        raise DomainError(f"conditioning suffix {suffix_bits:#x} has zero probability")
    return num / den


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
    oracle: "PropertyOracle",
    tol: float = PROB_TOL,
) -> DominationCheckResult:
    """Compare Pr(Q) under independent Bernoulli(base) edges vs under the model.

    The caller vouches that the oracle is monotone (certify it first) and
    that ``base`` does not exceed the model's floor; for a raw distribution
    table the floor is whatever :func:`min_full_conditional` says.
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
    # one decision per realization serves both tables
    indicator = _event_indicator(space, oracle, (er_dist.probs != 0) | (dist.probs != 0))
    prob_er = _event_mass(er_dist.probs, indicator)
    prob_model = _event_mass(dist.probs, indicator)
    return DominationCheckResult(
        prob_er=prob_er,
        prob_model=prob_model,
        holds=prob_er <= prob_model + tol,
        margin=prob_model - prob_er,
        oracle_name=oracle.name,
    )
