"""Statistical estimation and domination tests at desk scale.

Two kinds of checks live here. The independent-samples test compares
interval estimates from the model and from the matching independent
Bernoulli graph; it can refute domination but never prove it. The paired
test runs on coupled samples, where the embedded layer is contained in the
union by construction, so a single sample with the property on the embedded
layer but not on the union is a hard bug, not noise. The paired form is the
default verification.

All sampling derives one RNG stream per sample index from the master seed,
and aggregation is integer counting, so results are identical no matter how
the indices are partitioned over workers.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy import stats as _stats

from .coupling import CouplingParams, _require_floor, coupled_block
from .errors import DomainError, PairedViolationError, RobustnessViolationError
from .graphs import EdgeSpace, Realization, degree_histogram
from .models import EdgeModel, er_model, sample_block
from .properties import (
    PropertyOracle,
    chromatic_number,
    diameter,
    longest_cycle_length,
    max_clique_size,
    max_independent_set_size,
    min_dominating_set_size,
)
from .rngstreams import derive_rng, index_blocks

DEFAULT_CONFIDENCE = 0.99


def er_realization(space: EdgeSpace, p: float, rng: np.random.Generator) -> Realization:
    """One-shot vectorized Bernoulli(p) graph; same law as sampling the er
    model edge by edge, but consumes the stream in a single block draw."""
    m = space.m
    if m == 0:
        return Realization(space, 0)
    present = rng.random(m) < p
    bits = int.from_bytes(np.packbits(present, bitorder="little").tobytes(), "little")
    return Realization(space, bits)


# ---------------------------------------------------------------------------
# interval estimates


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    method: str
    successes: int = 0

    def __post_init__(self):
        if not self.ci_low <= self.estimate <= self.ci_high:
            raise DomainError("interval does not bracket the point estimate")


def wilson_interval(successes: int, samples: int, confidence: float = DEFAULT_CONFIDENCE):
    """Two-sided Wilson score interval for a binomial proportion."""
    if samples <= 0:
        raise DomainError("need at least one sample")
    z = _stats.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples * samples)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def hoeffding_interval(successes: int, samples: int, confidence: float = DEFAULT_CONFIDENCE):
    """Distribution-free alternative to the Wilson interval."""
    if samples <= 0:
        raise DomainError("need at least one sample")
    phat = successes / samples
    half = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return max(0.0, phat - half), min(1.0, phat + half)


_INTERVALS = {"wilson": wilson_interval, "hoeffding": hoeffding_interval}


def _map_blocks(work: Callable[[int, int], object], count: int, workers: int = 1) -> list:
    """``[work(lo, hi) for (lo, hi) in index_blocks(count)]``, in block order.

    With workers > 1 the blocks are dealt round-robin to forked processes,
    which inherit ``work`` instead of receiving it pickled, so arbitrary
    sources and oracles work. The blocks never depend on ``workers`` and
    per-index streams make each block's result independent of who computes
    it. If blocks fail, the error of the first failing block is raised, as
    the serial loop would raise it.
    """
    blocks = index_blocks(count)
    workers = min(workers, len(blocks))
    if workers <= 1:
        return [work(lo, hi) for lo, hi in blocks]
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for w in range(workers):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve_blocks, args=(work, blocks[w::workers], send))
            proc.start()
            send.close()
            conns.append(recv)
            procs.append(proc)
        outcomes = [None] * len(blocks)
        for w, conn in enumerate(conns):
            for k, outcome in enumerate(conn.recv()):
                outcomes[w + k * workers] = outcome
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    results = []
    for ok, value in outcomes:  # a worker stops at its first failing block
        if not ok:
            raise value
        results.append(value)
    return results


def _serve_blocks(work, blocks, conn) -> None:
    """Forked worker body: send [(True, result) ..., (False, error)?] back."""
    outcomes = []
    for lo, hi in blocks:
        try:
            outcomes.append((True, work(lo, hi)))
        except Exception as exc:  # handed to the parent, which raises it
            outcomes.append((False, exc))
            break
    conn.send(outcomes)
    conn.close()


def estimate_property(
    source,
    oracle: PropertyOracle,
    samples: int,
    master_seed: int,
    branch: tuple[int, ...] = (),
    method: str = "wilson",
    confidence: float = DEFAULT_CONFIDENCE,
    workers: int = 1,
) -> EstimateResult:
    """Frequency estimate of Pr(source sample has the property).

    ``source`` is anything with ``.space`` and ``.sample(rng)``. Stream for
    sample i is derived from (master_seed, *branch, i); the hit count, and
    therefore the result, does not depend on ``workers``.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if method not in _INTERVALS:
        raise DomainError(f"unknown interval method {method!r}")

    def count_hits(lo: int, hi: int) -> int:
        return sum(1 for g in sample_block(source, master_seed, branch, lo, hi) if oracle.decide(g))

    hits = sum(_map_blocks(count_hits, samples, workers))
    low, high = _INTERVALS[method](hits, samples, confidence)
    return EstimateResult(
        estimate=hits / samples,
        ci_low=low,
        ci_high=high,
        samples=samples,
        seed=master_seed,
        method=method,
        successes=hits,
    )


# ---------------------------------------------------------------------------
# domination tests


@dataclass(frozen=True)
class DominationReport:
    oracle_name: str
    est_er: EstimateResult
    est_model: EstimateResult
    margin: float
    verdict: str  # "consistent" or "refuted"


def compare_estimates(est_er: EstimateResult, est_model: EstimateResult) -> str:
    """Refute only when the intervals certify est_er > est_model."""
    return "refuted" if est_er.ci_low > est_model.ci_high else "consistent"


def domination_test(
    model: EdgeModel,
    base: float,
    oracle: PropertyOracle,
    samples: int,
    master_seed: int,
    method: str = "wilson",
    workers: int = 1,
) -> DominationReport:
    """Independent two-sample consistency check of the domination inequality.

    Caller certifies the oracle monotone first. A "consistent" verdict is
    not a proof; "refuted" means the one-sided contradiction holds at the
    interval confidence on each side. ``workers`` never changes the result.
    """
    _require_floor(model)
    if base > model.floor:
        raise RobustnessViolationError(
            f"base {base} exceeds the model floor {model.floor}"
        )
    reference = er_model(model.space.n, base)
    est_er = estimate_property(
        reference, oracle, samples, master_seed, branch=(0,), method=method, workers=workers
    )
    est_model = estimate_property(
        model, oracle, samples, master_seed, branch=(1,), method=method, workers=workers
    )
    return DominationReport(
        oracle_name=oracle.name,
        est_er=est_er,
        est_model=est_model,
        margin=est_model.estimate - est_er.estimate,
        verdict=compare_estimates(est_er, est_model),
    )


@dataclass(frozen=True)
class PairedReport:
    oracle_name: str
    samples: int
    count_g1: int
    count_union: int
    violations: int
    seed: int

    @property
    def freq_g1(self) -> float:
        return self.count_g1 / self.samples

    @property
    def freq_union(self) -> float:
        return self.count_union / self.samples


def coupled_domination_test(
    params: CouplingParams,
    oracles: Union[PropertyOracle, Sequence[PropertyOracle]],
    samples: int,
    master_seed: int,
    workers: int = 1,
) -> Union[PairedReport, list[PairedReport]]:
    """Paired sample-wise dominance on coupled samples.

    For a monotone property, the embedded layer having it forces the union
    to have it on the same sample; any observed violation raises
    :class:`PairedViolationError` naming the offending triple. Several
    oracles may share one stream of triples.
    """
    single = isinstance(oracles, PropertyOracle)
    oracle_list = [oracles] if single else list(oracles)
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")

    def count_pairs(lo: int, hi: int) -> tuple[list[int], list[int]]:
        g1_counts = [0] * len(oracle_list)
        u_counts = [0] * len(oracle_list)
        for idx, triple in zip(range(lo, hi), coupled_block(params, master_seed, lo, hi)):
            for j, oracle in enumerate(oracle_list):
                on_g1 = oracle.decide(triple.g1)
                on_union = oracle.decide(triple.u)
                if on_g1:
                    g1_counts[j] += 1
                    if not on_union:
                        raise PairedViolationError(
                            f"sample {idx}: embedded layer has {oracle.name!r} but the "
                            f"union does not (g1={triple.g1.to_hex()}, u={triple.u.to_hex()})",
                            triple=triple,
                        )
                if on_union:
                    u_counts[j] += 1
        return g1_counts, u_counts

    g1_counts = [0] * len(oracle_list)
    u_counts = [0] * len(oracle_list)
    for part_g1, part_u in _map_blocks(count_pairs, samples, workers):
        for j in range(len(oracle_list)):
            g1_counts[j] += part_g1[j]
            u_counts[j] += part_u[j]
    reports = [
        PairedReport(
            oracle_name=oracle.name,
            samples=samples,
            count_g1=g1_counts[j],
            count_union=u_counts[j],
            violations=0,
            seed=master_seed,
        )
        for j, oracle in enumerate(oracle_list)
    ]
    return reports[0] if single else reports


# ---------------------------------------------------------------------------
# asymptotic formulas and reports


@dataclass(frozen=True)
class AsymptoticFormula:
    """A named prediction f(n, p) with a validity note, and the exact
    statistic of a realization it predicts; no verdicts here."""

    name: str
    predict: Callable[[int, float], float]
    note: str
    statistic: Callable[[Realization], float]


def _avg_degree(n: int, p: float) -> float:
    return p * (n - 1)


FORMULAS: dict[str, AsymptoticFormula] = {
    "clique": AsymptoticFormula(
        "clique",
        lambda n, p: 2.0 * math.log(n) / math.log(1.0 / p),
        "max clique ~ 2 log_{1/p} n; first-order, needs 0 < p < 1",
        max_clique_size,
    ),
    "independent-set": AsymptoticFormula(
        "independent-set",
        lambda n, p: 2.0 * n * math.log(_avg_degree(n, p)) / _avg_degree(n, p),
        "max independent set ~ 2n ln(d)/d with d = p(n-1); sparse regime",
        max_independent_set_size,
    ),
    "chromatic": AsymptoticFormula(
        "chromatic",
        lambda n, p: n / (math.log(n) / math.log(1.0 / (1.0 - p))),
        "chromatic number ~ n / log_b n with b = 1/(1-p)",
        chromatic_number,
    ),
    "dominating-set": AsymptoticFormula(
        "dominating-set",
        lambda n, p: math.log(n) / math.log(1.0 / (1.0 - p)),
        "min dominating set ~ log_b n with b = 1/(1-p); first-moment value",
        min_dominating_set_size,
    ),
    "longest-cycle": AsymptoticFormula(
        "longest-cycle",
        lambda n, p: n * (1.0 - _avg_degree(n, p) * math.exp(-_avg_degree(n, p))),
        "longest cycle ~ n(1 - d e^{-d}) at constant average degree d",
        longest_cycle_length,
    ),
    "diameter": AsymptoticFormula(
        "diameter",
        lambda n, p: math.log(n) / math.log(n * p),
        "diameter ~ log n / log(np) for np -> infinity; components convention",
        diameter,
    ),
}


def degree_count_formula(k: int) -> AsymptoticFormula:
    return AsymptoticFormula(
        f"degree-count-{k}",
        lambda n, p: n * _avg_degree(n, p) ** k * math.exp(-_avg_degree(n, p)) / math.factorial(k),
        f"nodes of degree {k} ~ n d^k e^(-d) / k!; Poisson form of the binomial",
        degree_count_statistic(k),
    )


def degree_count_statistic(k: int) -> Callable[[Realization], float]:
    def stat(g: Realization) -> float:
        return float(degree_histogram(g).get(k, 0))

    return stat


@dataclass(frozen=True)
class ReportRow:
    n: int
    p: float
    predicted: float
    observed_mean: float
    observed_sd: float
    samples: int
    statistic: str = "exact"


def asymptotic_report(
    formula: AsymptoticFormula,
    statistic: Callable[[Realization], float],
    n_list: Sequence[int],
    p: Optional[float],
    samples: int,
    master_seed: int,
    degree: Optional[float] = None,
    statistic_label: str = "exact",
) -> list[ReportRow]:
    """Predicted vs observed statistic over independent Bernoulli graphs.

    Give either a fixed edge probability ``p`` or a fixed average ``degree``
    (then p = degree/(n-1) per row). No verdict: the predictions are
    asymptotic and the pass/fail decisions live with whoever pins tolerances.
    """
    if (p is None) == (degree is None):
        raise DomainError("give exactly one of p or degree")
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    rows = []
    for n in n_list:
        if p is None and n < 2:
            raise DomainError(f"a fixed average degree needs n >= 2, got n={n}")
        pn = p if p is not None else degree / (n - 1)
        if not 0.0 <= pn <= 1.0:
            raise DomainError(f"derived edge probability {pn} outside [0, 1] at n={n}")
        try:
            predicted = float(formula.predict(n, pn))
        except (ArithmeticError, ValueError) as exc:  # a pole, or the log of 0
            raise DomainError(
                f"formula {formula.name!r} is undefined at n={n}, p={pn}: {exc}"
            ) from exc
        space = EdgeSpace(n)
        values = np.empty(samples, dtype=np.float64)
        for idx in range(samples):
            g = er_realization(space, pn, derive_rng(master_seed, n, idx))
            values[idx] = statistic(g)
        rows.append(
            ReportRow(
                n=n,
                p=pn,
                predicted=predicted,
                observed_mean=float(values.mean()),
                observed_sd=float(values.std(ddof=1)) if samples > 1 else 0.0,
                samples=samples,
                statistic=statistic_label,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# degree distribution chi-square


@dataclass(frozen=True)
class ChiSquareReport:
    statistic: float
    dof: int
    p_value: float
    bins: tuple[tuple[int, int, int, float], ...]  # (k_lo, k_hi, observed, expected)
    samples: int
    seed: int


def degree_distribution_test(
    n: int,
    p: float,
    samples: int,
    master_seed: int,
    source: Optional[EdgeModel] = None,
    min_expected: float = 5.0,
) -> ChiSquareReport:
    """Chi-square of pooled degree counts against the Poisson-form prediction
    n d^k e^{-d} / k! with d = p(n-1).

    Defaults to independent Bernoulli(p) edges via the vectorized sampler;
    pass a model to test its degree counts against the same prediction.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    space = EdgeSpace(n)
    counts = np.zeros(n, dtype=np.int64)
    for idx in range(samples):
        rng = derive_rng(master_seed, idx)
        g = source.sample(rng) if source is not None else er_realization(space, p, rng)
        for deg, cnt in degree_histogram(g).items():
            counts[deg] += cnt
    d = _avg_degree(n, p)
    expected = _stats.poisson.pmf(np.arange(n), d) * n * samples
    # spread the truncated Poisson tail (degrees >= n) over nothing: renormalize
    expected = expected * counts.sum() / expected.sum()

    bins: list[tuple[int, int, int, float]] = []
    lo = 0
    acc_obs, acc_exp = 0, 0.0
    for k in range(n):
        acc_obs += int(counts[k])
        acc_exp += float(expected[k])
        if acc_exp >= min_expected:
            bins.append((lo, k, acc_obs, acc_exp))
            lo, acc_obs, acc_exp = k + 1, 0, 0.0
    if acc_exp > 0 or acc_obs > 0:
        if bins:
            plo, _, pobs, pexp = bins.pop()
            bins.append((plo, n - 1, pobs + acc_obs, pexp + acc_exp))
        else:
            bins.append((0, n - 1, acc_obs, acc_exp))
    obs = np.array([b[2] for b in bins], dtype=np.float64)
    exp = np.array([b[3] for b in bins], dtype=np.float64)
    stat = float(((obs - exp) ** 2 / exp).sum())
    dof = max(1, len(bins) - 1)
    return ChiSquareReport(
        statistic=stat,
        dof=dof,
        p_value=float(_stats.chi2.sf(stat, dof)),
        bins=tuple(bins),
        samples=samples,
        seed=master_seed,
    )
