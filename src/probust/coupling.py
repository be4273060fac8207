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

:class:`CouplingParams` and the per-edge loop, ``models.sample_coupled``,
live in :mod:`probust.models`, beside the block kernel that decides a
coupling from its base. :func:`generate_coupled` on window idx, 2m coins
wide, of the seed's stream is the scalar reference for triple idx.
``models.sample_parts`` on a :class:`CouplingParams` yields the same
triples for any range of indices, one part at a time, each part three
batches of edge words (g1, g2 and the union; see :mod:`probust.graphs`)
from the block kernel, which decides the union on its decided degrees and
draws the patch coin with the same float operations. A draw that fails
ends the parts: the samples of its part drawn before it are yielded, then
its error is raised. Its callers read edge words only, so no Python int or
:class:`CouplingTriple` is built per sample: :func:`coupled_stream` builds
one triple per index it yields, and the paired test one for a reported
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError
from .graphs import Realization, bits_from_words
from .models import CouplingParams, sample_coupled, sample_parts
from .rngstreams import check_count


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
    """Draw one (g1, g2, union) triple: ``models.sample_coupled``'s
    bitmasks, whose RNG consumption order is frozen (2m uniforms, the g1
    coins of edges m down to 1, then the patch coins in the same order)."""
    space = params.model.space
    return CouplingTriple(*(Realization(space, bits) for bits in sample_coupled(params, rng)))


def coupled_stream(
    params: CouplingParams,
    master_seed: int,
    count: int,
    start_index: int = 0,
) -> Iterator[tuple[int, CouplingTriple]]:
    """Yield (index, triple) pairs, triple idx drawn from window idx of
    the seed's stream (see ``models.sample_parts``).

    Triples are independent across indices and depend only on
    (master_seed, index), so any partition of the index range over workers
    produces the same triples.
    """
    check_count(count)
    space = params.model.space
    hi = start_index + count
    for lo, words, drawn in sample_parts(params, master_seed, (), start_index, hi):
        for idx, *bits in zip(range(lo, lo + drawn), *(bits_from_words(w, drawn) for w in words)):
            yield idx, CouplingTriple(*(Realization(space, b) for b in bits))
