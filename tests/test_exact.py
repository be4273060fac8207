import dataclasses
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from scipy import stats

import bruteforce as bf
from probust import (
    CertificationError,
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
from probust import properties as properties_module
from probust.models import KEYS, _level_conditionals, _level_keys, key_count, satisfies_min_adjacent

ALWAYS = PropertyOracle("always", lambda g: True)
BUILTINS = [lambda n: er_model(n, 0.37), global_count_model, adjacency_count_model]


def scalar_path(model):
    """The same model without its conditional table, its scalar conditional
    computed from the closed form: the reference path."""
    return dataclasses.replace(model, conditional=bf.ref_conditional(model), key=None, table=None)


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

    def table(i):  # over the count of present decided edges
        q = np.full(space.m, 0.5)
        if i == 2:
            q[3] = 0.1
            if overshoot:
                q[4] = 1.5
        return q

    if not batched:
        return EdgeModel(space, 0.5, conditional)
    return EdgeModel(space, 0.5, conditional, None, "count", table)


def suffix_histories(space, i):
    """Edge i's decided suffixes in ascending order of their bits."""
    bits = range(0, 1 << space.m, 1 << i)
    return list(map(SuffixHistory, repeat(space), repeat(i + 1), bits))


class TestBatchedConditionals:
    @pytest.mark.parametrize("n", [*range(2, 13), 30, 64])
    def test_tables_equal_the_closed_forms(self, n):
        """Entry k of each table against the closed form in Python floats."""
        m = n * (n - 1) // 2
        for model, key, want in [
            (er_model(n, 0.37), "constant", [0.37]),
            (global_count_model(n), "count", [1.0 - (k + 1) / n**2 for k in range(m)]),
            (adjacency_count_model(n), "degree_sum", [0.5 - 1 / (k + 5) for k in range(2 * n - 3)]),
        ]:
            assert model.key == key
            assert len(want) == key_count(key, n)
            for i in (1, model.space.m):
                table = model.table(i)
                assert table.dtype == np.float64 and table.tolist() == want, (model.name, i)
            assert model.table(1) is model.table(model.space.m)  # one shared array

    @pytest.mark.parametrize("n", range(2, 7))
    def test_scalar_conditional_reads_the_table(self, n):
        for model in [build(n) for build in BUILTINS]:
            reference = bf.ref_conditional(model)
            for i in range(1, model.space.m + 1):
                for history in suffix_histories(model.space, i):
                    assert model.conditional(i, history) == reference(i, history), (n, i, history)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_level_keys_are_the_suffix_keys(self, n):
        space = EdgeSpace(n)
        pairs = bf.ref_pairs(n)
        for key in KEYS:
            levels = list(_level_keys(space, key))
            assert [i for i, _ in levels] == list(range(space.m, 0, -1))
            for i, keys in levels:
                suffixes = [s << i for s in range(1 << (space.m - i))]
                degrees = bf.ref_degrees(n, suffixes)
                if key == "constant":
                    assert keys is None
                elif key == "count":
                    assert keys.tolist() == (degrees.sum(axis=0) // 2).tolist(), i
                else:
                    a, b = pairs[i - 1]
                    assert keys.tolist() == (degrees[a] + degrees[b]).tolist(), i

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("base", [0.0, "floor"])
    @pytest.mark.parametrize("build", BUILTINS, ids=["er", "globalcount", "adjcount"])
    def test_level_conditionals_equal_the_scalar_path(self, build, n, base):
        model = build(n)
        base = model.floor if base == "floor" else base
        got = list(_level_conditionals(model, base))
        want = list(_level_conditionals(scalar_path(model), base))
        assert [i for i, _ in got] == [i for i, _ in want] == list(range(model.space.m, 0, -1))
        for (i, q), (_, reference) in zip(got, want):
            assert q.dtype == np.float64 and q.tobytes() == reference.tobytes(), i

    def test_table_of_the_wrong_shape_is_a_contract_error(self):
        space = EdgeSpace(4)
        model = EdgeModel(space, 0.5, lambda i, h: 0.5, None, "count", lambda i: np.full(5, 0.5))
        message = r"table for edge 6 has shape \(5,\), not \(6,\)"
        with pytest.raises(ModelContractError, match=message):
            exact_joint(model)

    def test_key_without_a_table_is_refused(self):
        with pytest.raises(DomainError, match="got key 'count' and no table$"):
            EdgeModel(EdgeSpace(3), 0.5, lambda i, h: 0.5, None, "count")
        with pytest.raises(DomainError, match="got key None and table$"):
            EdgeModel(EdgeSpace(3), 0.5, lambda i, h: 0.5, table=lambda i: None)
        with pytest.raises(DomainError, match="^a model takes a key out of .*got key 'degrees' and"):
            EdgeModel(EdgeSpace(3), 0.5, lambda i, h: 0.5, None, "degrees", lambda i: None)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("build", BUILTINS)
    def test_exact_joint_table_matches_scalar_path(self, build, n):
        model = build(n)
        batched = exact_joint(model).probs
        scalar = exact_joint(scalar_path(model)).probs
        assert batched.tobytes() == scalar.tobytes()

    def test_custom_closure_above_one_is_contract_error(self):
        bad = EdgeModel(EdgeSpace(3), 0.0, lambda i, h: 1.5)
        assert bad.table is None
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
    def test_exact_joint_raises_at_the_first_bad_suffix(self, batched):
        """Edge 2 gets 2.5 after three present higher edges (first at suffix
        0b0111) and 1.5 after four (0b1111): the ascending scan meets 2.5."""
        space = EdgeSpace(4)
        values = {3: 2.5, 4: 1.5}

        def conditional(i, history):
            return values.get(history.bits.bit_count(), 0.5) if i == 2 else 0.5

        def table(i):
            q = np.full(space.m, 0.5)
            if i == 2:
                q[list(values)] = list(values.values())
            return q

        model = EdgeModel(space, 0.5, conditional, None, *(("count", table) if batched else ()))
        with pytest.raises(ModelContractError, match="conditional 2.5 for edge 2;"):
            exact_joint(model)

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
    def test_er_at_base_all_mass_has_g1_equal_union(self):
        # at base = p the patch coin never fires
        joint = exact_coupling_joint(CouplingParams(0.5, er_model(4, 0.5)))
        same = joint.g1 == joint.union
        assert joint.weights[same].sum() == pytest.approx(1.0, abs=1e-12)

    def test_base_zero_er_layer_empty(self):
        model = adjacency_count_model(4)
        joint = exact_coupling_joint(CouplingParams(0.0, model))
        assert joint.g1_marginal().probs[0] == pytest.approx(1.0, abs=1e-12)
        assert tv_distance(joint.union_marginal(), exact_joint(model)) <= 1e-12
        # g1 is empty with certainty, so the union is the patch layer alone
        assert not joint.weights[joint.g1 != 0].any()

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

    def test_weights_are_a_distribution(self):
        joint = exact_coupling_joint(CouplingParams(0.3, adjacency_count_model(4)))
        assert joint.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert joint.weights.min() >= 0.0

    @pytest.mark.parametrize("base", [0.0, 0.1, 0.3])
    def test_weights_and_union_marginal_bit_for_bit(self, base):
        model = adjacency_count_model(5)
        joint = exact_coupling_joint(CouplingParams(base, model))
        scalar = exact_coupling_joint(CouplingParams(base, scalar_path(model)))
        assert joint.weights.tobytes() == scalar.weights.tobytes()
        # reference: unbuffered in-place accumulation over the states in order
        want = np.zeros(1 << model.space.m)
        np.add.at(want, joint.union, joint.weights)
        assert joint.union_marginal().probs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("base", [0.0, 0.05, 0.3, "floor"])
    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("build", BUILTINS, ids=["er", "globalcount", "adjcount"])
    def test_states_against_coin_cells(self, build, n, base):
        """The 3^m states against the 4^m coin-cell reference; er's floor is its p."""
        model = build(n)
        params = CouplingParams(model.floor if base == "floor" else base, model)
        joint = exact_coupling_joint(params)
        want_g1, want_union = bf.ref_coupling_marginals(params)
        space = model.space
        assert tv_distance(joint.g1_marginal(), ExactDistribution(space, want_g1)) <= 1e-12
        assert tv_distance(joint.union_marginal(), ExactDistribution(space, want_union)) <= 1e-12
        assert joint.weights.size == 3**space.m
        assert not np.any(joint.g1 & ~joint.union)
        assert abs(float(joint.weights.sum()) - 1.0) <= exact_module.PROB_TOL
        scalar = exact_coupling_joint(dataclasses.replace(params, model=scalar_path(model)))
        assert joint.weights.tobytes() == scalar.weights.tobytes()


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
    """The sweep decides its realizations through ``decide_bits``, which
    splits them into block-decider calls; decisions must equal a
    per-realization scalar loop."""

    @staticmethod
    def support(n, seed):
        size = 1 << EdgeSpace(n).m
        if n < 6:
            return np.ones(size, dtype=bool)
        return np.random.default_rng(seed).random(size) < 0.1  # a subset at n = 6

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    # one word per call; at n = 6 one word for chrom and several for the others; the real bound
    @pytest.mark.parametrize("bound", [1, 1 << 12, properties_module.BLOCK_WORDS])
    def test_matches_scalar_loop_for_every_shipped_oracle(self, n, bound, monkeypatch):
        monkeypatch.setattr(properties_module, "BLOCK_WORDS", bound)
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

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_oracle_without_decide_block_takes_the_scalar_loop(self, n):
        space = EdgeSpace(n)
        support = self.support(n, seed=n + 10)
        shipped = parse_property("connected")
        calls = []

        def decide(g):
            calls.append(g.bits)
            return shipped.decide(g)

        got = exact_module._event_indicator(space, PropertyOracle("custom", decide), support)
        assert calls == np.flatnonzero(support).tolist()
        assert np.array_equal(got, exact_module._event_indicator(space, shipped, support))

    @pytest.mark.parametrize("prop", SHIPPED_PROPERTIES)
    def test_block_decider_replaces_decide(self, prop):
        def refuse(g):
            raise AssertionError("decide called on the block path")

        space = EdgeSpace(5)
        support = np.ones(1 << space.m, dtype=bool)
        oracle = parse_property(prop)
        got = exact_module._event_indicator(space, dataclasses.replace(oracle, decide=refuse), support)
        scalar = dataclasses.replace(oracle, decide_block=None)
        assert np.array_equal(got, exact_module._event_indicator(space, scalar, support))

    # tracemalloc peaks of the sweep over all 2^21 realizations at n = 7,
    # measured on the tree at a400f42, whose sweep handed decide_bits every
    # index as an int64 bitmask and built each call's words from them
    BITMASK_SWEEP_PEAK_MIB = {"connected": 37.19, "match>=3": 26.59}

    @pytest.mark.parametrize("prop", sorted(BITMASK_SWEEP_PEAK_MIB))
    def test_peak_memory_stays_within_the_bitmask_sweep(self, prop):
        """The edge words are built in bounded slices: no m x 2^m temporary."""
        space = EdgeSpace(7)
        support = np.ones(1 << space.m, dtype=bool)
        oracle = parse_property(prop)
        tracemalloc.start()
        try:
            exact_module._event_indicator(space, oracle, support)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BITMASK_SWEEP_PEAK_MIB[prop] * 2**20


def lowest_violation(indicator, m):
    """The first (s, edge) in (s, edge) order that loses the event; a plain search."""
    for s in range(1 << m):
        if indicator[s]:
            for i in range(1, m + 1):
                bit = 1 << (i - 1)
                if not s & bit and not indicator[s | bit]:
                    return s, i
    return None


class TestMonotonicityProof:
    @pytest.mark.parametrize("m", [0, 1, 3, 6, 10])
    def test_lowest_violation_matches_a_plain_search(self, m):
        rng = np.random.default_rng(m)
        for density in (0.0, 0.02, 0.3, 0.9, 1.0):
            indicator = rng.random(1 << m) < density
            want = lowest_violation(indicator, m)
            assert exact_module._monotonicity_violation(indicator, m) == want
            for i in range(m):  # close upwards: now monotone
                pairs = indicator.reshape(-1, 2, 1 << i)
                pairs[:, 1, :] |= pairs[:, 0, :]
            assert exact_module._monotonicity_violation(indicator, m) is None

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_plant_refuted_with_its_lowest_violating_pair(self, n):
        space = EdgeSpace(n)
        three_edges = [bin(s).count("1") == 3 for s in range(1 << space.m)]
        s, edge = lowest_violation(three_edges, space.m)
        with pytest.raises(CertificationError) as err:
            exact_domination_check(adjacency_count_model(n), 0.3, parse_property("exactly-3-edges"))
        assert str(err.value) == "property 'exactly-3-edges' failed monotonicity certification"
        before, after, added = err.value.counterexample
        assert (before.bits, after.bits, added) == (s, s | 1 << (edge - 1), edge)
        assert before.space == after.space == space

    def test_raw_table_is_proved_too(self):
        dist = condition_min_adjacent(exact_joint(adjacency_count_model(4)), 3)
        with pytest.raises(CertificationError):
            exact_domination_check(dist, 0.375, parse_property("exactly-3-edges"))


class TestConditioning:
    def test_support_matches_event(self):
        cond = condition_min_adjacent(exact_joint(adjacency_count_model(4)), 3)
        for g, prob in cond.entries():
            if prob > 0:
                assert satisfies_min_adjacent(g, 3)
            else:
                pass
        assert cond.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 5, 6])
    @pytest.mark.parametrize("threshold", [3, 4])
    def test_table_equals_the_scalar_mask(self, n, threshold):
        dist = exact_joint(adjacency_count_model(n))
        space = dist.space
        keep = np.array(
            [satisfies_min_adjacent(Realization(space, bits), threshold) for bits in range(1 << space.m)]
        )
        want = np.where(keep, dist.probs, 0.0) / float(dist.probs[keep].sum())
        got = condition_min_adjacent(dist, threshold).probs
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(DomainError, match="non-finite probability"):
            ExactDistribution(EdgeSpace(2), np.array([0.5, bad]))
        with pytest.raises(DomainError, match="non-finite probability"):
            ExactDistribution(EdgeSpace(1), np.array([bad]))

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

    @staticmethod
    def reference_csv(dist) -> str:
        """The table written one row at a time, as the writer's bytes must read."""
        spec = dist.space.hex_format
        return "realization,probability\n" + "".join(
            f"{b:{spec}},{float(p)!r}\n" for b, p in enumerate(dist.probs)
        )

    @pytest.mark.parametrize(
        "model",
        [
            er_model(1, 0.3),
            adjacency_count_model(2),
            adjacency_count_model(5),
            adjacency_count_model(6),
            er_model(6, 0.3),
            er_model(5, 0.15),
            global_count_model(5),
        ],
        ids=["er-1-0.3", "adjcount-2", "adjcount-5", "adjcount-6", "er-6-0.3", "er-5-0.15",
             "globalcount-5"],
    )
    def test_csv_bytes_equal_the_row_by_row_reference(self, model, tmp_path):
        dist = exact_joint(model)
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        assert path.read_text(encoding="utf-8") == self.reference_csv(dist)

    def test_csv_keeps_signed_zeros_and_repeats_apart(self, tmp_path):
        probs = np.array([0.25, 0.0, -0.0, 0.25, 0.125, 0.125, 0.25, -0.0])
        dist = ExactDistribution(EdgeSpace(3), probs)
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        text = path.read_text(encoding="utf-8")
        assert text == self.reference_csv(dist)
        assert text.splitlines()[2:4] == ["1,0.0", "2,-0.0"]

    def test_csv_bytes_across_slices(self, tmp_path, monkeypatch):
        monkeypatch.setattr(exact_module, "_CSV_SLICE", 7)
        dist = exact_joint(adjacency_count_model(4))
        path = tmp_path / "dist.csv"
        dist.to_csv(path)
        assert path.read_text(encoding="utf-8") == self.reference_csv(dist)


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
