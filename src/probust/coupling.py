"""Coupled generation: an independent Bernoulli(base) graph embedded in a model.

Edges are decided from index m down to 1. At each step the model's
conditional q is evaluated on the union's decided suffix, and two
independent coins are flipped: the first puts the edge into g1 with
probability ``base``, the second puts it into the patch graph g2 with
probability q - p', where p' = base*(1-q)/(1-base). That residual is chosen
so the union acquires the edge with probability exactly

    base + (q - p') - (q - p')*base = q,

hence the union is distributed as the model while g1 is, by construction, an
independent Bernoulli(base) graph contained in it. Containment is what makes
the construction useful: any monotone property g1 has, the union has too, on
every single sample.

Feasibility (0 <= q - p' <= 1) needs q >= base, which is precisely the
model's robustness floor; the generator re-checks it at runtime on every
edge instead of clamping, so a model that underruns its declared floor fails
loudly with the offending edge and history.

:func:`generate_coupled` is the scalar reference. :func:`coupled_parts`
yields the same triples for any range of indices, one part of
``models._part_rows`` rows at a time, each part three batches of edge words
(g1, g2 and the union; see :mod:`probust.graphs`) from the block kernel in
:mod:`probust.models`, which decides the union on its decided degrees and
draws the patch coin with the same float operations. A draw that fails ends
the parts: the samples of its part drawn before it are yielded, then its
error is raised. Its callers read edge words only, so no Python int or
:class:`CouplingTriple` is built per sample: :func:`coupled_stream` builds
one triple per index it yields, and the paired test one for a reported
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, RobustnessViolationError
from .graphs import Realization, SuffixHistory, bits_from_words, union, words_from_bits
from .models import EdgeModel, _checked, _kernel_words, _part_rows, _scalar_part
from .rngstreams import _bounds, check_count, derive_rng


def p_prime(p: float, q: float) -> float:
    """The overlap correction p(1-q)/(1-p); always in [0, q].

    p = 1 is the degenerate forced-edge case: only legal with q = 1, where
    the correction is defined as 0.
    """
    _check_pq(p, q)
    if p == 1.0:
        return 0.0
    # exact value is <= q; guard the one-ulp float overshoot at q == p
    return min(q, p * (1.0 - q) / (1.0 - p))


def patch_probability(p: float, q: float) -> float:
    """Probability q - p' for the patch coin; equals (q-p)/(1-p), in [0, 1]."""
    return q - p_prime(p, q)


def union_probability_identity(p: float, q: float) -> float:
    """Residual |p + (q-p') - (q-p')p - q| of the union-probability identity.

    Algebraically zero for every valid (p, q); in binary64 it stays below
    1e-15, which the test sweep pins.
    """
    _check_pq(p, q)
    s = patch_probability(p, q)
    return abs(p + s - s * p - q)


def _check_pq(p: float, q: float) -> None:
    if not 0.0 <= p <= 1.0 or not 0.0 <= q <= 1.0:
        raise DomainError(f"probabilities must be in [0, 1], got p={p}, q={q}")
    if p > q:
        raise DomainError(
            f"base probability p={p} exceeds conditional q={q}; "
            "the patch coin would need negative probability"
        )
    if p == 1.0 and q < 1.0:
        raise DomainError("p = 1 requires q = 1 (a floor-1 model forces every edge)")


def _require_floor(model) -> None:
    """Only an EdgeModel carries the sequential conditionals and the floor
    the embedding is built from; the rejection sampler has neither. A model
    is named by its ``name``, anything else (a swapped argument) by its type."""
    if not isinstance(model, EdgeModel):
        name = getattr(model, "name", None)
        label = repr(name) if isinstance(name, str) else f"of type {type(model).__name__}"
        raise DomainError(
            f"model {label} has no sequential conditionals or floor to "
            "embed an independent layer under"
        )


@dataclass(frozen=True)
class CouplingParams:
    """Base edge probability plus the model whose floor must cover it."""

    base: float
    model: EdgeModel

    def __post_init__(self):
        _require_floor(self.model)
        if not 0.0 <= self.base <= 1.0:
            raise DomainError(f"base probability must be in [0, 1], got {self.base}")
        if self.base > self.model.floor:
            raise RobustnessViolationError(
                f"base {self.base} exceeds the model's robustness floor "
                f"{self.model.floor}; the embedding only exists up to the floor"
            )


@dataclass(frozen=True)
class CouplingTriple:
    """(embedded graph, patch graph, their union); u == g1 | g2 always."""

    g1: Realization
    g2: Realization
    u: Realization

    def __post_init__(self):
        if self.u.bits != self.g1.bits | self.g2.bits:
            raise DomainError("union field does not equal g1 | g2")
        if not (self.g1.space == self.g2.space == self.u.space):
            raise DomainError("coupling triple mixes edge spaces")


def generate_coupled(
    params: CouplingParams, rng: np.random.Generator
) -> CouplingTriple:
    """Draw one (g1, g2, union) triple.

    RNG consumption order is frozen: for each edge from m down to 1, the g1
    coin then the g2 coin. Two uniforms per edge are always consumed, so a
    fixed seed reproduces the triple bit-for-bit.
    """
    model = params.model
    base = params.base
    space = model.space
    m = space.m
    coins = rng.random(2 * m)
    history = SuffixHistory.empty_for(space)
    conditional = model.conditional
    g1_bits = 0
    g2_bits = 0
    for j, i in enumerate(range(m, 0, -1)):
        q = _checked(conditional(i, history), i, model.name, base, history)
        residual = q - p_prime(base, q)
        in_g1 = coins[2 * j] < base
        in_g2 = coins[2 * j + 1] < residual
        bit = 1 << (i - 1)
        if in_g1:
            g1_bits |= bit
        if in_g2:
            g2_bits |= bit
        history = history.extend(1 if (in_g1 or in_g2) else 0)
    g1 = Realization(space, g1_bits)
    g2 = Realization(space, g2_bits)
    return CouplingTriple(g1, g2, union(g1, g2))


def coupled_stream(
    params: CouplingParams,
    master_seed: int,
    count: int,
    start_index: int = 0,
) -> Iterator[tuple[int, CouplingTriple]]:
    """Yield (index, triple) pairs with one derived RNG stream per index.

    Triples are independent across indices and depend only on
    (master_seed, index), so any partition of the index range over workers
    produces the same triples.
    """
    check_count(count)
    space = params.model.space
    for lo, words, drawn in coupled_parts(params, master_seed, start_index, start_index + count):
        for idx, *bits in zip(range(lo, lo + drawn), *(bits_from_words(w, drawn) for w in words)):
            yield idx, CouplingTriple(*(Realization(space, b) for b in bits))


def coupled_parts(params: CouplingParams, master_seed: int, lo: int, hi: int):
    """Yield ``(start, (g1, g2, u), count)`` for the triples
    ``t = generate_coupled(params, derive_rng(master_seed, idx))``, idx in
    lo..hi-1, one part of ``models._part_rows`` rows at a time: the edge
    words of t.g1, t.g2 and t.u over the ``count`` samples from index
    ``start`` on. If a draw fails, the samples of its part drawn before it
    are yielded, then its error is raised, so a caller decides them first.

    A model with a conditional table decides each part in the block kernel,
    for any n, and gives the same bits. Other models, and a model with a
    table entry that leaves [0, 1] or falls below the base, take the scalar
    path, so the error is exactly the scalar path's.
    """
    model = params.model
    for start, stop in _bounds(lo, hi, _part_rows(2 * model.space.m)):
        words = None if model.table is None else _kernel_words(
            model, master_seed, (), start, stop, params.base
        )
        if words is not None:
            yield start, words, stop - start
            continue
        yield from _scalar_part(
            lambda idx: generate_coupled(params, derive_rng(master_seed, idx)),
            lambda triples: tuple(
                words_from_bits(model.space, [getattr(t, key).bits for t in triples])
                for key in ("g1", "g2", "u")
            ),
            start, stop,
        )
