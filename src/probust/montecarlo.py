"""Statistical estimation and domination tests at desk scale.

Two kinds of checks live here. The independent-samples test compares
interval estimates from the model and from the matching independent
Bernoulli graph; it can refute domination but never prove it. The paired
test runs on coupled samples, where the embedded layer is contained in the
union by construction, so a single sample with the property on the embedded
layer but not on the union is a hard bug, not noise. The paired form is the
default verification.

Sample idx reads its own window of one RNG stream per (master seed,
branch) (see :mod:`probust.rngstreams`), and aggregation is integer
counting, so results are identical no matter how the indices are
partitioned over workers.

Both tests decide samples a part at a time: the one sampler,
:func:`~probust.models.sample_parts`, yields each part of a worker's share
as edge words (see :mod:`probust.graphs`), the model's for the independent
test and a coupling's g1, g2 and union for the paired one, and the words go
straight to :func:`~probust.properties.decide_bits`, the decision path the
exact sweep uses too, so no Python int or ``Realization`` is built per
sample. It runs the oracle's block decider wherever that takes n: the reach
deciders (``connected``, ``diam<=k``) up to n = 64, the subset-table ones
up to n = 10, ``chrom`` up to n = 8. Above that, or for an oracle without
one, it calls ``decide`` graph by graph. A draw that fails yields the
samples of its part drawn before it and then raises the draw's error, so
the drawn samples are decided first: a paired violation or a decision
error among them is raised ahead of the draw's error. A paired violation
is found over the part as g1 & ~union; the first one, by sample and then
by oracle, is raised with its triple, the only
:class:`~probust.coupling.CouplingTriple` the test builds.

The Wilson interval's z comes from ``_ndtri``, a port of the Cephes routine
that ``scipy.stats.norm.ppf`` calls, so its bounds carry the same bits as
scipy's. ``scipy`` itself is imported only inside the degree chi-square test,
which no CLI command runs: loading ``scipy.stats`` at module level made up
most of the time and memory of ``import probust``, and every CLI call paid it.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .coupling import CouplingTriple
from .errors import DomainError, PairedViolationError, RobustnessViolationError
from .graphs import EdgeSpace, Realization, bits_from_words, degree_histogram
from .models import CouplingParams, EdgeModel, _require_floor, er_model, sample_parts
from .properties import (
    PropertyOracle,
    chromatic_number,
    decide_bits,
    diameter,
    longest_cycle_length,
    max_clique_size,
    max_independent_set_size,
    min_dominating_set_size,
)
from .rngstreams import _bounds, derive_rng

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


# Cephes ndtri (S. L. Moshier), the routine behind scipy.special.ndtri and
# scipy.stats.norm.ppf: rational approximations in y - 1/2 on the centre,
# and in 1/sqrt(-2 log y) on the two tails (split at exp(-32)).
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, highest power first. Cephes' ``p1evl`` is this with a
    leading 1.0 written out, since 1.0 * x is exactly x."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF, bit for bit as Cephes computes it."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:  # negatives, values above 1, and nan
        return math.nan
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32)
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return x if upper else -x


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:  # also refuses nan
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")


def wilson_interval(successes: int, samples: int, confidence: float = DEFAULT_CONFIDENCE):
    """Two-sided Wilson score interval for a binomial proportion."""
    if samples <= 0:
        raise DomainError("need at least one sample")
    _check_confidence(confidence)
    z = _ndtri(0.5 + confidence / 2.0)
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples * samples)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def hoeffding_interval(successes: int, samples: int, confidence: float = DEFAULT_CONFIDENCE):
    """Distribution-free alternative to the Wilson interval."""
    if samples <= 0:
        raise DomainError("need at least one sample")
    _check_confidence(confidence)
    phat = successes / samples
    half = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return max(0.0, phat - half), min(1.0, phat + half)


_INTERVALS = {"wilson": wilson_interval, "hoeffding": hoeffding_interval}


def _map_blocks(work: Callable[[int, int], object], count: int, workers: int) -> list:
    """``[work(lo, hi) for (lo, hi) in shares]``, in order, where the shares
    cut 0..count-1 (count >= 1) into runs of ``ceil(count / workers)``
    indices, with ``workers`` first capped at the CPU count: one contiguous
    share per worker.

    The calling process computes the first share itself and forks one
    process for each of the others (none for one worker); those inherit
    ``work`` instead of receiving it pickled, so arbitrary sources and
    oracles work. Every child's outcome is received, even when the first
    share fails, and the first failure in share order is raised, so the
    error is the one at the lowest failing share, as the serial loop would
    raise it. Every index reads its own coins and callers sum counts, so
    results do not depend on who computes a share or on the cut. Within a
    share, the samplers yield the samples drawn before a draw that fails
    and raise the draw's error only once the callers have decided them, so
    the error raised is the one at the lowest failing index however the
    range is cut.
    """
    workers = min(workers, os.cpu_count() or 1)
    shares = _bounds(0, count, -(-count // workers))
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    try:
        for lo, hi in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_serve_share, args=(work, lo, hi, send))
            proc.start()
            send.close()
            conns.append(recv)
            procs.append(proc)
        outcomes = [_outcome(work, *shares[0]), *(conn.recv() for conn in conns)]
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _outcome(work, lo: int, hi: int) -> tuple:
    """``(True, work(lo, hi))``, or ``(False, error)`` if it raises."""
    try:
        return True, work(lo, hi)
    except Exception as exc:  # raised by _map_blocks in share order
        return False, exc


def _serve_share(work, lo: int, hi: int, conn) -> None:
    """Forked worker body: send ``_outcome(work, lo, hi)`` back."""
    conn.send(_outcome(work, lo, hi))
    conn.close()


def check_run(samples: int, workers: int) -> None:
    """Refuse a sample or worker count below 1, as both tests do first."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")


def _check_scales(oracles: Sequence[PropertyOracle], n: int) -> None:
    """Refuse, before any sample is drawn, an oracle that refuses every graph
    on n vertices."""
    for oracle in oracles:
        if oracle.check_scale is not None:
            oracle.check_scale(n)


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

    ``source`` is anything with ``.space`` and ``.sample(rng)``. Sample i is
    ``models.sample_parts``' sample i under (master_seed, branch); the hit
    count, and therefore the result, does not depend on ``workers``.
    """
    check_run(samples, workers)
    if method not in _INTERVALS:
        raise DomainError(f"unknown interval method {method!r}")
    _check_confidence(confidence)
    _check_scales([oracle], source.space.n)

    def count_hits(lo: int, hi: int) -> int:
        return sum(
            int(decide_bits(oracle, source.space, words, drawn).sum())
            for _, (words,), drawn in sample_parts(source, master_seed, branch, lo, hi)
        )

    hits = sum(_map_blocks(count_hits, samples, workers))
    low, high = _INTERVALS[method](hits, samples, confidence)
    estimate = hits / samples
    # at 0 or all hits a Wilson bound can land a few ulps past the estimate
    return EstimateResult(
        estimate=estimate,
        ci_low=min(low, estimate),
        ci_high=max(high, estimate),
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


def er_reference(model: EdgeModel, base: float) -> EdgeModel:
    """G(n, base), the graph the independent test compares ``model`` with;
    refused above the model's floor."""
    _require_floor(model)
    if base > model.floor:
        raise RobustnessViolationError(f"base {base} exceeds the model floor {model.floor}")
    return er_model(model.space.n, base)


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
    reference = er_reference(model, base)
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
    if not oracle_list:
        raise DomainError("the paired test needs at least one oracle")
    check_run(samples, workers)
    space = params.model.space
    _check_scales(oracle_list, space.n)

    def count_pairs(lo: int, hi: int) -> np.ndarray:
        """(2, oracles) counts of the share's samples with each property on
        g1 and on the union; the first violation, by sample and then by
        oracle, raises, and then a failed draw."""
        counts = np.zeros((2, len(oracle_list)), dtype=np.int64)
        for start, words, drawn in sample_parts(params, master_seed, (), lo, hi):
            g1, _, union = words
            on_g1 = np.array([decide_bits(o, space, g1, drawn) for o in oracle_list])
            on_union = np.array([decide_bits(o, space, union, drawn) for o in oracle_list])
            lost = (on_g1 & ~on_union).T  # (samples, oracles)
            if lost.any():
                r, j = divmod(int(np.argmax(lost)), len(oracle_list))
                bits = (bits_from_words(w, drawn)[r] for w in words)
                triple = CouplingTriple(*(Realization(space, b) for b in bits))
                raise PairedViolationError(
                    f"sample {start + r}: embedded layer has {oracle_list[j].name!r} but the "
                    f"union does not (g1={triple.g1.to_hex()}, u={triple.u.to_hex()})",
                    triple=triple,
                )
            counts += [on_g1.sum(axis=1), on_union.sum(axis=1)]
        return counts

    counts = _map_blocks(count_pairs, samples, workers)
    g1_counts, u_counts = np.sum(counts, axis=0).tolist()
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
    from scipy import stats  # the only scipy use; kept off ``import probust``

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
    expected = stats.poisson.pmf(np.arange(n), d) * n * samples
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
        p_value=float(stats.chi2.sf(stat, dof)),
        bins=tuple(bins),
        samples=samples,
        seed=master_seed,
    )
