import math
import multiprocessing
import os

import numpy as np
import pytest

from probust import (
    CouplingParams,
    DomainError,
    EdgeModel,
    EdgeSpace,
    FORMULAS,
    PairedViolationError,
    PropertyOracle,
    RobustnessViolationError,
    SamplingFailureError,
    adjacency_count_model,
    asymptotic_report,
    conditioned_adjacency_model,
    coupled_domination_test,
    degree_count_formula,
    degree_distribution_test,
    domination_test,
    er_model,
    derive_rng,
    er_realization,
    estimate_property,
    exact_joint,
    generate_coupled,
    exact_probability,
    parse_property,
    sample_direct,
)
from probust.montecarlo import (
    _map_blocks,
    _ndtri,
    compare_estimates,
    degree_count_statistic,
    hoeffding_interval,
    wilson_interval,
)
from probust.models import sample_parts
from probust.properties import exactly_edges_oracle, max_clique_size, min_dominating_set_size
from probust.rngstreams import _bounds

ALWAYS = PropertyOracle("always", lambda g: True)


class TestIntervals:
    def test_wilson_at_boundary(self):
        low, high = wilson_interval(100, 100)
        assert high == 1.0 and 0.9 < low < 1.0
        low0, high0 = wilson_interval(0, 100)
        assert low0 == 0.0 and 0.0 < high0 < 0.1

    def test_wilson_brackets_and_shrinks(self):
        l1, h1 = wilson_interval(50, 100)
        l2, h2 = wilson_interval(500, 1000)
        assert l1 < 0.5 < h1 and l2 < 0.5 < h2
        assert (h2 - l2) < (h1 - l1)

    def test_hoeffding_wider_than_wilson_midrange(self):
        lw, hw = wilson_interval(500, 1000)
        lh, hh = hoeffding_interval(500, 1000)
        assert hh - lh >= hw - lw

    def test_bad_samples(self):
        with pytest.raises(DomainError):
            wilson_interval(0, 0)

    @pytest.mark.parametrize("confidence", [-0.2, 0.0, 1.0, 1.5, math.nan, -math.inf, math.inf])
    @pytest.mark.parametrize("interval", [wilson_interval, hoeffding_interval])
    def test_confidence_outside_open_unit_interval(self, interval, confidence):
        with pytest.raises(DomainError, match="confidence must be in"):
            interval(5, 10, confidence)

    def test_confidence_rejected_before_sampling(self):
        def never(g):
            raise AssertionError("sampled despite a bad confidence")

        for confidence in (0.0, 1.0, math.nan):
            with pytest.raises(DomainError, match="confidence must be in"):
                estimate_property(er_model(3, 0.5), PropertyOracle("never", never), 10, 1,
                                  confidence=confidence)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_sampling(self, workers):
        def never(g):
            raise AssertionError("sampled despite a bad worker count")

        oracle = PropertyOracle("never", never)
        message = f"workers must be >= 1, got {workers}"
        with pytest.raises(DomainError, match=message):
            estimate_property(er_model(3, 0.5), oracle, 10, 1, workers=workers)
        with pytest.raises(DomainError, match=message):
            coupled_domination_test(CouplingParams(0.5, er_model(3, 0.5)), oracle, 10, 1,
                                    workers=workers)

    def test_returns_plain_floats(self):
        for s in (0, 3, 10):
            assert all(type(v) is float for v in wilson_interval(s, 10))


def _scipy_wilson(successes, samples, confidence):
    """The interval as computed when ``z`` came from ``scipy.stats.norm.ppf``."""
    from scipy import stats

    z = stats.norm.ppf(0.5 + confidence / 2.0)
    phat = successes / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = z * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples * samples)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class TestNdtriSameBits:
    """``_ndtri`` is compared exactly, never within a tolerance: the Wilson
    bounds it feeds are printed by ``verify`` and pinned in the golden bytes."""

    @staticmethod
    def _points():
        rng = np.random.default_rng(20261018)
        return {
            "uniform": rng.random(1_000_000),
            "log-uniform": 10.0 ** rng.uniform(-300.0, 0.0, 100_000),
            # distances from 1 spread over [1e-16, 1): the upper tail, both rational forms
            "near-one": 1.0 - 10.0 ** rng.uniform(-16.0, 0.0, 100_000),
        }

    @pytest.mark.parametrize("name", ["uniform", "log-uniform", "near-one"])
    def test_equals_scipy(self, name):
        from scipy import special, stats

        points = self._points()[name]
        ours = np.array([_ndtri(float(p)) for p in points])
        np.testing.assert_array_equal(ours, special.ndtri(points))
        np.testing.assert_array_equal(ours, stats.norm.ppf(points))

    def test_default_confidence_z(self):
        assert _ndtri(0.995) == 2.5758293035489004

    @pytest.mark.parametrize(
        "p, expected",
        [(0.0, -math.inf), (-0.0, -math.inf), (1.0, math.inf), (math.nan, math.nan),
         (-1e-300, math.nan), (-0.5, math.nan), (1.0 + 2**-52, math.nan), (2.0, math.nan),
         (math.inf, math.nan), (-math.inf, math.nan)],
    )
    def test_endpoints_as_scipy(self, p, expected):
        from scipy import special, stats

        ours = _ndtri(p)
        for value in (expected, float(special.ndtri(p)), float(stats.norm.ppf(p))):
            assert ours == value or (math.isnan(ours) and math.isnan(value))

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
    def test_wilson_equals_scipy_formula(self, confidence):
        for samples in (1, 7, 100, 4096):
            for successes in range(samples + 1):
                assert wilson_interval(successes, samples, confidence) == _scipy_wilson(
                    successes, samples, confidence
                ), (successes, samples, confidence)


class TestEstimateProperty:
    def test_trivially_true(self):
        est = estimate_property(er_model(3, 0.5), ALWAYS, 500, 1)
        assert est.estimate == 1.0 and est.ci_high == 1.0 and est.ci_low < 1.0

    def test_er_clique3_near_exact_eighth(self):
        est = estimate_property(er_model(3, 0.5), parse_property("clique>=3"), 100_000, 7)
        assert 0.115 <= est.estimate <= 0.135

    def test_er_connected_near_half(self):
        est = estimate_property(er_model(3, 0.5), parse_property("connected"), 100_000, 8)
        assert 0.49 <= est.estimate <= 0.51

    def test_deterministic_and_branch_separated(self):
        model = adjacency_count_model(4)
        oracle = parse_property("connected")
        a = estimate_property(model, oracle, 300, 5)
        b = estimate_property(model, oracle, 300, 5)
        c = estimate_property(model, oracle, 300, 5, branch=(1,))
        assert a == b
        assert a.successes != c.successes or a.estimate == c.estimate  # distinct stream

    def test_workers_do_not_change_results(self):
        model = adjacency_count_model(4)
        oracle = parse_property("connected")
        seq = estimate_property(model, oracle, 3000, 5)
        par = estimate_property(model, oracle, 3000, 5, workers=3)
        assert seq == par

    @pytest.mark.parametrize("samples", [1, 255, 256, 257, 4097])
    def test_counts_equal_scalar_loop_for_any_worker_count(self, samples):
        model = adjacency_count_model(5)
        oracle = parse_property("connected")
        hits = sum(
            oracle.decide(sample_direct(model, derive_rng(6, 1, idx))) for idx in range(samples)
        )
        for workers in (1, 2, 3):
            est = estimate_property(model, oracle, samples, 6, branch=(1,), workers=workers)
            assert est.successes == hits

    def test_hoeffding_method(self):
        est = estimate_property(er_model(3, 0.5), ALWAYS, 100, 1, method="hoeffding")
        assert est.method == "hoeffding" and est.ci_high == 1.0

    def test_interval_brackets_the_estimate_at_no_hits_and_all_hits(self):
        # the raw Wilson bounds land a few ulps past 0/260 and 7/7
        assert wilson_interval(0, 260)[0] > 0.0 and wilson_interval(7, 7)[1] < 1.0
        oracle = parse_property("connected")
        none = estimate_property(er_model(4, 0.0), oracle, 260, 1)
        assert (none.successes, none.ci_low, none.ci_high) == (0, 0.0, wilson_interval(0, 260)[1])
        every = estimate_property(er_model(4, 1.0), oracle, 7, 1)
        assert (every.successes, every.ci_low, every.ci_high) == (7, wilson_interval(7, 7)[0], 1.0)

    def test_builds_no_realization_per_sample(self, realizations_built):
        est = estimate_property(adjacency_count_model(10), parse_property("connected"), 600, 21)
        assert 0 < est.successes < 600
        assert realizations_built == []

    def test_one_kernel_call_when_the_range_fits_one(self, kernel_calls):
        estimate_property(er_model(3, 0.5), parse_property("clique>=3"), 2000, 5)
        assert kernel_calls == [2000]

    def test_rejection_rounds_pool_over_the_whole_range(self, kernel_calls):
        model = conditioned_adjacency_model(10)
        estimate_property(model, parse_property("connected"), 1000, 55)
        pooled = len(kernel_calls)
        kernel_calls.clear()
        for lo, hi in _bounds(0, 1000, 256):
            list(sample_parts(model, 55, (), lo, hi))
        assert pooled < len(kernel_calls)

    @pytest.mark.parametrize("unit", [1, 7, 256, None])  # None: the kernel's own part size
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rejection_failure_for_any_cut(self, workers, unit, set_work_unit):
        model = conditioned_adjacency_model(6, budget=1)
        with pytest.raises(SamplingFailureError) as scalar_err:
            for idx in range(300):
                model.sample(derive_rng(5, idx))
        set_work_unit(unit)
        with pytest.raises(SamplingFailureError) as err:
            estimate_property(model, parse_property("connected"), 300, 5, workers=workers)
        assert str(err.value) == str(scalar_err.value)
        assert err.value.attempts == scalar_err.value.attempts


    @pytest.mark.parametrize("unit", [1, 7, 256, None])  # None: the kernel's own part size
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_decision_error_before_a_failed_draw_for_any_cut(self, workers, unit, set_work_unit):
        """An oracle that fails on sample 10 is raised ahead of the rejection
        budget that first runs out at sample 76, whatever the cut."""
        model = conditioned_adjacency_model(10, budget=8)
        drawn = []
        with pytest.raises(SamplingFailureError):
            for idx in range(300):
                drawn.append(model.sample(derive_rng(3, idx)).bits)
        assert len(drawn) == 76
        trap = drawn[10]

        def decide(g):
            if g.bits == trap:
                raise ValueError("trapped")
            return False

        set_work_unit(unit)
        with pytest.raises(ValueError, match="trapped"):
            estimate_property(model, PropertyOracle("trap", decide), 300, 3, workers=workers)


class InlineFork:
    """A fork context whose processes run their target at ``start`` in this
    process, recording how many would have started."""

    def __init__(self):
        self.started = 0
        self.Pipe = multiprocessing.Pipe
        fork = self

        class Process:
            def __init__(self, target, args):
                self.target, self.args = target, args

            def start(self):
                fork.started += 1
                self.target(*self.args)

            def join(self):
                pass

        self.Process = Process


class TestMapBlocks:
    @pytest.mark.parametrize("cpus,started", [(None, 0), (1, 0), (2, 1), (3, 2)])
    def test_forks_at_most_one_process_per_cpu(self, cpus, started, monkeypatch):
        fork = InlineFork()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: fork)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        count = 10 * 256 + 3
        blocks = _map_blocks(lambda lo, hi: (lo, hi), count, workers=5000)
        assert fork.started == started
        assert blocks == _bounds(0, count, -(-count // (started + 1)))

    def test_counts_do_not_depend_on_the_clamp(self, monkeypatch):
        model = adjacency_count_model(5)
        oracle = parse_property("connected")
        serial = estimate_property(model, oracle, 3 * 256, 9)
        fork = InlineFork()
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: fork)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert estimate_property(model, oracle, 3 * 256, 9, workers=5000) == serial
        assert fork.started == 1


class TestDominationTest:
    def test_er_against_itself_consistent(self):
        report = domination_test(er_model(5, 0.4), 0.4, parse_property("connected"), 2000, 3)
        assert report.verdict == "consistent"

    def test_adjacency_model_consistent(self):
        report = domination_test(
            adjacency_count_model(8), 0.3, parse_property("clique>=3"), 3000, 4
        )
        assert report.verdict == "consistent"
        assert report.est_model.estimate >= report.est_er.estimate - 0.05

    def test_inverted_gap_refutes(self):
        # estimates swapped on a property with a big true gap
        oracle = parse_property("clique>=2")  # at least one edge
        sparse = estimate_property(er_model(4, 0.05), oracle, 4000, 9, branch=(0,))
        dense = estimate_property(adjacency_count_model(4), oracle, 4000, 9, branch=(1,))
        assert compare_estimates(dense, sparse) == "refuted"
        assert compare_estimates(sparse, dense) == "consistent"

    def test_base_above_floor_rejected(self):
        with pytest.raises(RobustnessViolationError):
            domination_test(adjacency_count_model(4), 0.5, ALWAYS, 10, 1)


class TestCoupledDominationTest:
    def test_er_at_base_counts_equal(self):
        params = CouplingParams(0.5, er_model(5, 0.5))
        report = coupled_domination_test(params, parse_property("connected"), 1000, 11)
        assert report.count_g1 == report.count_union
        assert report.violations == 0

    def test_union_count_never_below_embedded(self):
        params = CouplingParams(0.3, adjacency_count_model(8))
        oracles = [parse_property(s) for s in ("connected", "clique>=3", "match>=3")]
        reports = coupled_domination_test(params, oracles, 1500, 12)
        for report in reports:
            assert report.count_union >= report.count_g1
            assert report.violations == 0

    def test_empty_oracle_list_refused_before_sampling(self, kernel_calls):
        params = CouplingParams(0.3, adjacency_count_model(5))
        with pytest.raises(DomainError, match="at least one oracle"):
            coupled_domination_test(params, [], 10, 1)
        assert kernel_calls == []

    def test_non_monotone_oracle_trips_hard_failure(self):
        params = CouplingParams(0.3, adjacency_count_model(6))
        with pytest.raises(PairedViolationError):
            coupled_domination_test(params, exactly_edges_oracle(3), 2000, 13)

    def test_workers_do_not_change_results(self):
        params = CouplingParams(0.3, adjacency_count_model(6))
        oracle = parse_property("connected")
        seq = coupled_domination_test(params, oracle, 2500, 14)
        par = coupled_domination_test(params, oracle, 2500, 14, workers=4)
        assert seq == par

    @pytest.mark.parametrize("unit", [1, 7, 256, None])  # None: the kernel's own part size
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_violation_is_reported_for_any_worker_count(self, workers, unit, set_work_unit):
        params = CouplingParams(0.3, adjacency_count_model(6))
        oracle = exactly_edges_oracle(3)

        def violates(idx):
            t = generate_coupled(params, derive_rng(13, idx))
            return oracle.decide(t.g1) and not oracle.decide(t.u)

        first = next(idx for idx in range(2000) if violates(idx))
        set_work_unit(unit)
        with pytest.raises(PairedViolationError) as err:
            coupled_domination_test(params, oracle, 2000, 13, workers=workers)
        assert str(err.value).startswith(f"sample {first}:")
        assert err.value.triple == generate_coupled(params, derive_rng(13, first))

    @pytest.mark.parametrize("unit", [1, 7, 256, None])  # None: the kernel's own part size
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_violation_before_a_failed_draw_for_any_cut(self, workers, unit, set_work_unit):
        """Sample 144 violates, sample 2067 is the first to fail to draw: the
        violation is raised, whatever the cut."""
        space = EdgeSpace(6)

        def conditional(i, history):
            return 0.2 if i == 2 and history.present_count() == 13 else 0.6

        def table(i):  # over the count of present decided edges
            return np.where((i == 2) & (np.arange(space.m) == 13), 0.2, 0.6)

        model = EdgeModel(space, 0.5, conditional, key="count", table=table)
        params = CouplingParams(0.5, model)
        oracle = exactly_edges_oracle(3)
        violations = []
        with pytest.raises(RobustnessViolationError):
            for idx in range(4000):
                t = generate_coupled(params, derive_rng(8, idx))
                if oracle.decide(t.g1) and not oracle.decide(t.u):
                    violations.append(idx)
        assert (violations[0], idx) == (144, 2067)
        set_work_unit(unit)
        with pytest.raises(PairedViolationError, match="^sample 144:"):
            coupled_domination_test(params, oracle, 4000, 8, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_model_errors_cross_the_fork(self, workers):
        space = EdgeSpace(5)

        def conditional(i, history):
            return 0.2 if i == 2 and history.present_count() == 8 else 0.6

        def table(i):  # over the count of present decided edges
            return np.where((i == 2) & (np.arange(space.m) == 8), 0.2, 0.6)

        model = EdgeModel(space, 0.5, conditional, key="count", table=table)
        params = CouplingParams(0.5, model)
        with pytest.raises(RobustnessViolationError) as scalar_err:
            for idx in range(1000):
                generate_coupled(params, derive_rng(16, idx))
        with pytest.raises(RobustnessViolationError) as err:
            coupled_domination_test(params, ALWAYS, 1000, 16, workers=workers)
        assert str(err.value) == str(scalar_err.value)
        assert (err.value.edge, err.value.history) == (2, scalar_err.value.history)

    def test_builds_no_realization_per_sample(self, realizations_built):
        params = CouplingParams(0.3, adjacency_count_model(10))
        oracles = [parse_property("match>=4"), parse_property("connected")]
        reports = coupled_domination_test(params, oracles, 600, 22)
        assert all(0 < r.count_g1 < r.count_union for r in reports)
        assert realizations_built == []

    def test_frequencies_near_exact_values(self):
        model = adjacency_count_model(4)
        params = CouplingParams(0.3, model)
        oracle = parse_property("connected")
        report = coupled_domination_test(params, oracle, 50_000, 15)
        p_union = exact_probability(exact_joint(model), oracle)
        p_er = exact_probability(exact_joint(er_model(4, 0.3)), oracle)
        assert report.freq_union == pytest.approx(p_union, abs=0.01)
        assert report.freq_g1 == pytest.approx(p_er, abs=0.01)


class TestAsymptoticFormulas:
    def test_hand_values(self):
        assert FORMULAS["clique"].predict(256, 0.5) == pytest.approx(16.0)
        assert FORMULAS["dominating-set"].predict(64, 0.5) == pytest.approx(6.0)
        assert degree_count_formula(5).predict(1000, 5 / 999) == pytest.approx(175.47, abs=0.01)
        assert FORMULAS["diameter"].predict(1000, 10 / 999) == pytest.approx(3.0, abs=0.01)
        assert FORMULAS["chromatic"].predict(64, 0.5) == pytest.approx(64 / 6.0)

    def test_longest_cycle_formula(self):
        d = 3.0
        n = 100
        val = FORMULAS["longest-cycle"].predict(n, d / (n - 1))
        assert val == pytest.approx(n * (1 - d * math.exp(-d)))


class TestAsymptoticReport:
    def test_clique_rows(self):
        rows = asymptotic_report(
            FORMULAS["clique"], max_clique_size, [16, 32], 0.5, 30, 21
        )
        assert [r.n for r in rows] == [16, 32]
        assert rows[0].predicted == pytest.approx(8.0)
        assert rows[1].predicted == pytest.approx(10.0)
        for r in rows:
            assert 2 <= r.observed_mean <= r.n
            assert r.observed_sd >= 0

    def test_degree_mode(self):
        rows = asymptotic_report(
            degree_count_formula(2),
            degree_count_statistic(2),
            [50],
            None,
            40,
            22,
            degree=2.0,
        )
        row = rows[0]
        assert row.p == pytest.approx(2.0 / 49)
        # Poisson(2) mass at 2 is ~0.27; crude sanity corridor
        assert 0.15 * 50 <= row.observed_mean <= 0.40 * 50

    def test_requires_exactly_one_of_p_and_degree(self):
        with pytest.raises(DomainError):
            asymptotic_report(FORMULAS["clique"], max_clique_size, [8], 0.5, 5, 1, degree=2.0)
        with pytest.raises(DomainError):
            asymptotic_report(FORMULAS["clique"], max_clique_size, [8], None, 5, 1)

    def test_deterministic(self):
        args = (FORMULAS["dominating-set"], min_dominating_set_size, [12], 0.5, 25, 23)
        assert asymptotic_report(*args) == asymptotic_report(*args)


class TestDegreeDistribution:
    def test_er_poisson_fit(self):
        report = degree_distribution_test(200, 5 / 199, 60, 31)
        assert report.p_value > 1e-3
        assert sum(b[2] for b in report.bins) == 200 * 60

    def test_p_zero_all_isolated(self):
        report = degree_distribution_test(30, 0.0, 10, 32)
        lo, hi, obs, _ = report.bins[0]
        assert lo == 0 and obs == 30 * 10

    def test_p_one_all_full_degree(self):
        report = degree_distribution_test(12, 1.0, 5, 33)
        # all observed mass in the bin containing degree n-1
        top = [b for b in report.bins if b[1] >= 11]
        assert sum(b[2] for b in top) == 12 * 5

    def test_model_source_accepted(self):
        model = adjacency_count_model(12)
        report = degree_distribution_test(12, 0.3, 30, 34, source=model)
        assert sum(b[2] for b in report.bins) == 12 * 30


class TestErRealization:
    def test_matches_edge_density(self, rng):
        space = EdgeSpace(40)
        total = sum(er_realization(space, 0.2, rng).edge_count() for _ in range(50))
        mean = total / 50
        expect = 0.2 * space.m
        assert abs(mean - expect) < 5 * math.sqrt(0.2 * 0.8 * space.m / 50) + 1

    def test_deterministic(self):
        space = EdgeSpace(10)
        a = er_realization(space, 0.4, np.random.default_rng(5))
        b = er_realization(space, 0.4, np.random.default_rng(5))
        assert a == b

    def test_same_law_as_direct_sampler(self):
        # chi-square the block sampler against the exact joint
        from scipy import stats

        space = EdgeSpace(3)
        rng = np.random.default_rng(77)
        counts = np.zeros(8, dtype=np.int64)
        for _ in range(40_000):
            counts[er_realization(space, 0.4, rng).bits] += 1
        dist = exact_joint(er_model(3, 0.4))
        assert stats.chisquare(counts, dist.probs * 40_000).pvalue > 1e-3


@pytest.mark.slow
class TestIntervalCalibration:
    def test_wilson_coverage_upholds_nominal(self):
        # exact value 1/8 from the enumeration engine; 1000 seeded runs
        truth = 1 / 8
        oracle = parse_property("clique>=3")
        model = er_model(3, 0.5)
        covered = 0
        for seed in range(1000):
            est = estimate_property(model, oracle, 2000, seed)
            if est.ci_low <= truth <= est.ci_high:
                covered += 1
        assert covered >= 985
