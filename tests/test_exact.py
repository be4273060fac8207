import dataclasses
from itertools import repeat

import numpy as np
import pytest
from scipy import stats

from probust import (
    CouplingParams,
    DomainError,
    EdgeModel,
    EdgeSpace,
    ExactDistribution,
    ModelContractError,
    PropertyOracle,
    Realization,
    RobustnessViolationError,
    SuffixHistory,
    UnsupportedScaleError,
    adjacency_count_model,
    condition_min_adjacent,
    er_model,
    exact_coupling_joint,
    exact_domination_check,
    exact_joint,
    exact_probability,
    global_count_model,
    min_full_conditional,
    parse_property,
    robustness_floor_check,
    sample_direct,
    sequential_conditional,
    tv_distance,
)
from probust import exact as exact_module
from probust.models import satisfies_min_adjacent

ALWAYS = PropertyOracle("always", lambda g: True)
BUILTINS = [lambda n: er_model(n, 0.37), global_count_model, adjacency_count_model]


def scalar_path(model):
    """The same model without its batched conditionals: the reference path."""
    return dataclasses.replace(model, conditionals=None)


def dented_model(n, batched, overshoot=True):
    """Declares floor 0.5, but edge 2 gets 0.1 after exactly three present
    higher edges and, if ``overshoot``, 1.5 after four."""
    space = EdgeSpace(n)

    def conditional(i, history):
        k = history.bits.bit_count()
        if i == 2 and k == 3:
            return 0.1
        if i == 2 and k == 4 and overshoot:
            return 1.5
        return 0.5

    def conditionals(i, suffixes):
        k = np.bitwise_count(suffixes)
        q = np.full(suffixes.size, 0.5)
        if i == 2:
            q[k == 3] = 0.1
            if overshoot:
                q[k == 4] = 1.5
        return q

    return EdgeModel(space, 0.5, conditional, None, conditionals if batched else None)


class TestBatchedConditionals:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_equal_to_scalar_bit_for_bit(self, n):
        models = [build(n) for build in BUILTINS]
        space = models[0].space
        for i in range(1, space.m + 1):
            size = 1 << (space.m - i)
            suffixes = np.arange(size, dtype=np.int64) << i
            for model in models:
                bits = range(0, size << i, 1 << i)
                histories = map(SuffixHistory, repeat(space), repeat(i + 1), bits)
                want = np.fromiter(map(model.conditional, repeat(i), histories), np.float64, size)
                got = model.conditionals(i, suffixes)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes(), (model.name, n, i)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("build", BUILTINS)
    def test_exact_joint_table_matches_scalar_path(self, build, n):
        model = build(n)
        batched = exact_joint(model).probs
        scalar = exact_joint(scalar_path(model)).probs
        assert batched.tobytes() == scalar.tobytes()

    def test_custom_closure_above_one_is_contract_error(self):
        bad = EdgeModel(EdgeSpace(3), 0.0, lambda i, h: 1.5)
        assert bad.conditionals is None
        with pytest.raises(ModelContractError, match="returned conditional 1.5 for edge 3"):
            exact_joint(bad)

    @pytest.mark.parametrize("batched", [True, False])
    def test_first_bad_suffix_decides_the_error(self, batched):
        # at edge 2 the dip (suffix 0b0111) comes before the overshoot (0b1111)
        model = dented_model(4, batched)
        with pytest.raises(RobustnessViolationError) as err:
            exact_coupling_joint(CouplingParams(0.5, model))
        assert str(err.value) == "conditional 0.1 for edge 2 fell below base 0.5"
        assert err.value.edge == 2
        assert err.value.history == SuffixHistory(model.space, 3, 0b0111 << 2)
        with pytest.raises(ModelContractError, match="conditional 1.5 for edge 2;"):
            exact_joint(model)
        with pytest.raises(ModelContractError, match="conditional 1.5 for edge 2;"):
            robustness_floor_check(model)

    @pytest.mark.parametrize("batched", [True, False])
    def test_floor_check_witness_and_evaluations(self, batched):
        model = dented_model(4, batched, overshoot=False)
        result = robustness_floor_check(model)
        assert not result.confirmed
        assert result.min_conditional == 0.1
        assert result.witness_edge == 2
        assert result.witness_history == SuffixHistory(model.space, 3, 0b0111 << 2)
        assert result.evaluations == 2**6 - 1

    @pytest.mark.parametrize("build", BUILTINS)
    def test_floor_check_matches_scalar_path(self, build):
        model = build(5)
        assert robustness_floor_check(model) == robustness_floor_check(scalar_path(model))


class TestExactJoint:
    def test_fair_coins_are_uniform(self):
        dist = exact_joint(er_model(3, 0.5))
        assert np.allclose(dist.probs, 1 / 8, atol=1e-15)

    def test_single_edge(self):
        dist = exact_joint(er_model(2, 0.3))
        assert dist.probs[0] == pytest.approx(0.7, abs=1e-15)
        assert dist.probs[1] == pytest.approx(0.3, abs=1e-15)

    def test_adjacency_empty_path(self):
        # every edge decided against a zero-adjacent history on the all-absent path
        dist = exact_joint(adjacency_count_model(3))
        assert dist.probs[0] == pytest.approx(0.7**3, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sums_to_one_all_builtins(self, n):
        for model in (er_model(n, 0.37), global_count_model(n), adjacency_count_model(n)):
            dist = exact_joint(model)
            assert abs(float(dist.probs.sum()) - 1.0) <= 1e-12
            assert float(dist.probs.min()) >= 0.0

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            exact_joint(er_model(8, 0.5))  # m = 28

    def test_chain_rule_consistency_with_model(self):
        # the table's suffix conditionals must reproduce the model's
        model = adjacency_count_model(4)
        dist = exact_joint(model)
        space = model.space
        rng = np.random.default_rng(3)
        for _ in range(200):
            i = int(rng.integers(1, space.m + 1))
            s = int(rng.integers(0, 1 << (space.m - i))) << i
            got = sequential_conditional(dist, i, s)
            want = model.conditional(i, SuffixHistory(space, i + 1, s))
            assert got == pytest.approx(want, abs=1e-12)


class TestExactCouplingJoint:
    def test_er_at_base_patch_is_point_mass_empty(self):
        joint = exact_coupling_joint(CouplingParams(0.5, er_model(4, 0.5)))
        g2 = joint.g2_marginal()
        assert g2.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_base_zero_er_layer_empty(self):
        model = adjacency_count_model(4)
        joint = exact_coupling_joint(CouplingParams(0.0, model))
        assert joint.g1_marginal().probs[0] == pytest.approx(1.0, abs=1e-12)
        assert tv_distance(joint.union_marginal(), exact_joint(model)) <= 1e-12
        assert tv_distance(joint.g2_marginal(), exact_joint(model)) <= 1e-12

    @pytest.mark.parametrize(
        "model_fn,base",
        [
            (lambda: er_model(4, 0.5), 0.5),
            (lambda: global_count_model(4), 0.5),
            (lambda: adjacency_count_model(4), 0.3),
            (lambda: adjacency_count_model(5), 0.3),
        ],
    )
    def test_both_marginals_exact(self, model_fn, base):
        model = model_fn()
        joint = exact_coupling_joint(CouplingParams(base, model))
        assert tv_distance(joint.union_marginal(), exact_joint(model)) <= 1e-12
        assert tv_distance(
            joint.g1_marginal(), exact_joint(er_model(model.space.n, base))
        ) <= 1e-12

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            exact_coupling_joint(CouplingParams(0.3, adjacency_count_model(6)))

    def test_table_is_a_distribution(self):
        joint = exact_coupling_joint(CouplingParams(0.3, adjacency_count_model(4)))
        assert joint.table.sum() == pytest.approx(1.0, abs=1e-12)
        assert joint.table.min() >= 0.0

    @pytest.mark.parametrize("base", [0.0, 0.1, 0.3])
    def test_table_and_union_marginal_bit_for_bit(self, base):
        model = adjacency_count_model(5)
        joint = exact_coupling_joint(CouplingParams(base, model))
        scalar = exact_coupling_joint(CouplingParams(base, scalar_path(model)))
        assert joint.table.tobytes() == scalar.table.tobytes()
        # reference: unbuffered in-place accumulation in row-major order
        size = joint.table.shape[0]
        s1 = np.arange(size)
        want = np.zeros(size)
        np.add.at(want, np.bitwise_or.outer(s1, s1), joint.table)
        assert joint.union_marginal().probs.tobytes() == want.tobytes()


class TestExactProbability:
    def test_triangle_probability(self):
        dist = exact_joint(er_model(3, 0.5))
        assert exact_probability(dist, parse_property("clique>=3")) == pytest.approx(
            1 / 8, abs=1e-15
        )

    def test_trivially_true(self):
        dist = exact_joint(adjacency_count_model(3))
        assert exact_probability(dist, ALWAYS) == pytest.approx(1.0, abs=1e-12)

    def test_connected_three_vertices(self):
        # triangle plus the three 2-edge paths: 4 of 8 realizations
        dist = exact_joint(er_model(3, 0.5))
        assert exact_probability(dist, parse_property("connected")) == pytest.approx(
            0.5, abs=1e-15
        )


class TestTvDistance:
    def test_zero_and_one(self):
        space = EdgeSpace(3)
        d = exact_joint(er_model(3, 0.5))
        assert tv_distance(d, d) == 0.0
        p0 = np.zeros(8)
        p0[0] = 1.0
        p7 = np.zeros(8)
        p7[7] = 1.0
        assert tv_distance(ExactDistribution(space, p0), ExactDistribution(space, p7)) == 1.0

    def test_uniform_vs_point(self):
        space = EdgeSpace(3)
        uni = ExactDistribution(space, np.full(8, 1 / 8))
        point = np.zeros(8)
        point[3] = 1.0
        assert tv_distance(uni, ExactDistribution(space, point)) == pytest.approx(0.875)

    def test_space_mismatch(self):
        with pytest.raises(DomainError):
            tv_distance(exact_joint(er_model(3, 0.5)), exact_joint(er_model(4, 0.5)))


class TestDomination:
    def test_er_against_itself_is_equality(self):
        res = exact_domination_check(er_model(4, 0.5), 0.5, parse_property("connected"))
        assert res.holds and res.prob_er == pytest.approx(res.prob_model, abs=1e-12)

    @pytest.mark.parametrize("prop", ["clique>=3", "connected"])
    def test_adjacency_model_dominates(self, prop):
        res = exact_domination_check(adjacency_count_model(4), 0.3, parse_property(prop))
        assert res.holds
        assert res.prob_model >= res.prob_er

    def test_base_above_floor_rejected(self):
        with pytest.raises(DomainError):
            exact_domination_check(adjacency_count_model(4), 0.31, parse_property("connected"))

    @pytest.mark.parametrize("base", [0.0, 0.3])
    @pytest.mark.parametrize("prop", ["clique>=3", "connected", "match>=2", "domset<=2"])
    def test_probabilities_are_sequential_sums(self, base, prop):
        model = adjacency_count_model(5)
        oracle = parse_property(prop)
        res = exact_domination_check(model, base, oracle)
        for prob, dist in (
            (res.prob_er, exact_joint(er_model(5, base))),
            (res.prob_model, exact_joint(model)),
        ):
            want = 0.0  # one entry at a time, in bitmask order
            for g, w in dist.entries():
                if w and oracle.decide(g):
                    want += w
            assert prob == want
            assert exact_probability(dist, oracle) == want


SHIPPED_PROPERTIES = [
    "clique>=3", "chrom>=3", "match>=2", "diam<=2", "domset<=2", "ham", "connected",
    "exactly-3-edges",
]


class TestEventIndicator:
    """The sweep hands each realization neighbour masks built for its whole
    block; decisions must equal a per-realization scalar loop."""

    @staticmethod
    def support(n, seed):
        size = 1 << EdgeSpace(n).m
        if n < 6:
            return np.ones(size, dtype=bool)
        return np.random.default_rng(seed).random(size) < 0.1  # a subset at n = 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("block", [7, exact_module.SWEEP_BLOCK])
    def test_matches_scalar_loop_for_every_shipped_oracle(self, n, block, monkeypatch):
        monkeypatch.setattr(exact_module, "SWEEP_BLOCK", block)
        space = EdgeSpace(n)
        support = self.support(n, seed=n)
        for prop in SHIPPED_PROPERTIES:
            oracle = parse_property(prop)
            want = np.zeros(support.size, dtype=bool)
            for bits in np.flatnonzero(support).tolist():
                want[bits] = bool(oracle.decide(Realization(space, bits)))
            got = exact_module._event_indicator(space, oracle, support)
            assert np.array_equal(got, want), prop

    @pytest.mark.parametrize("n", [2, 5, 7])
    def test_handed_masks_are_the_computed_ones(self, n):
        space = EdgeSpace(n)
        support = np.zeros(1 << space.m, dtype=bool)
        support[np.random.default_rng(n).integers(0, support.size, 3000)] = True
        support[[0, -1]] = True
        seen = []

        def record(g):
            seen.append(g.neighbor_masks == Realization(space, g.bits).neighbor_masks)
            return True

        got = exact_module._event_indicator(space, PropertyOracle("all", record), support)
        assert np.array_equal(got, support) and all(seen) and len(seen) == support.sum()


class TestConditioning:
    def test_support_matches_event(self):
        cond = condition_min_adjacent(exact_joint(adjacency_count_model(4)), 3)
        for g, prob in cond.entries():
            if prob > 0:
                assert satisfies_min_adjacent(g, 3)
            else:
                pass
        assert cond.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_event_rejected(self):
        with pytest.raises(DomainError):
            condition_min_adjacent(exact_joint(adjacency_count_model(3)), 3)

    def test_min_full_conditional_against_direct_bayes(self):
        cond = condition_min_adjacent(exact_joint(adjacency_count_model(4)), 3)
        got = min_full_conditional(cond)
        # independent route: enumerate (edge, others assignment) pairs directly
        m = cond.space.m
        best = 1.0
        for i in range(1, m + 1):
            bit = 1 << (i - 1)
            for others in range(1 << m):
                if others & bit:
                    continue
                p0 = float(cond.probs[others])
                p1 = float(cond.probs[others | bit])
                if p0 + p1 > 0:
                    best = min(best, p1 / (p0 + p1))
        assert got.min_conditional == pytest.approx(best, abs=1e-12)
        # the claimed floor of 3/8 fails in the everything-else sense...
        assert got.min_conditional < 0.375
        # ...but the suffix-conditional floor the coupling needs does hold
        worst_suffix = 1.0
        for i in range(1, m + 1):
            for s in range(1 << (m - i)):
                try:
                    worst_suffix = min(
                        worst_suffix, sequential_conditional(cond, i, s << i)
                    )
                except DomainError:
                    continue
        assert worst_suffix >= 0.375

    def test_conditioned_distribution_dominates_three_eighths_er(self):
        cond = condition_min_adjacent(exact_joint(adjacency_count_model(4)), 3)
        for prop in ("clique>=3", "connected", "match>=2"):
            res = exact_domination_check(cond, 0.375, parse_property(prop))
            assert res.holds


class TestDistributionTable:
    def test_rejects_bad_tables(self):
        space = EdgeSpace(2)
        with pytest.raises(DomainError):
            ExactDistribution(space, np.array([0.5, 0.6]))
        with pytest.raises(DomainError):
            ExactDistribution(space, np.array([-0.1, 1.1]))
        with pytest.raises(DomainError):
            ExactDistribution(space, np.array([1.0]))

    def test_csv_export(self, tmp_path):
        dist = exact_joint(er_model(3, 0.25))
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "realization,probability"
        assert len(lines) == 9
        hexes = [line.split(",")[0] for line in lines[1:]]
        total = sum(float(line.split(",")[1]) for line in lines[1:])
        assert hexes == [format(b, "01x") for b in range(8)]
        assert total == pytest.approx(1.0, abs=1e-12)


class TestMonteCarloConsistency:
    def test_sampler_matches_exact_table(self):
        # goodness of fit of the direct sampler against the enumerated joint
        model = adjacency_count_model(3)
        dist = exact_joint(model)
        rng = np.random.default_rng(99)
        samples = 100_000
        counts = np.zeros(8, dtype=np.int64)
        for _ in range(samples):
            counts[sample_direct(model, rng).bits] += 1
        res = stats.chisquare(counts, dist.probs * samples)
        assert res.pvalue > 1e-3
