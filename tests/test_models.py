import json
import random
import tracemalloc

import numpy as np
import pytest

import bruteforce as bf
from probust import (
    DomainError,
    EdgeModel,
    EdgeSpace,
    ModelContractError,
    ModelDescriptor,
    Realization,
    SamplingFailureError,
    SuffixHistory,
    UnsupportedScaleError,
    adjacency_count_model,
    conditioned_adjacency_model,
    er_model,
    global_count_model,
    robustness_floor_check,
    sample_direct,
)
from probust import models
from probust.coupling import CouplingParams
from probust.graphs import bits_from_words, words_from_rows
from probust.models import MODEL_KINDS, sample_parts, satisfies_min_adjacent
from probust.rngstreams import _bounds


def history_with_count(space, i, k):
    """A suffix history at edge i with exactly k present higher edges."""
    bits = 0
    placed = 0
    for j in range(i + 1, space.m + 1):
        if placed == k:
            break
        bits |= 1 << (j - 1)
        placed += 1
    assert placed == k, "not enough room for that many present edges"
    return SuffixHistory(space, i + 1, bits)


def adjacency_history_with_count(space, i, k):
    """A suffix history at edge i with k present edges adjacent to edge i."""
    mask = space.adjacency_mask(i)
    bits = 0
    placed = 0
    for j in range(i + 1, space.m + 1):
        if placed == k:
            break
        if mask >> (j - 1) & 1:
            bits |= 1 << (j - 1)
            placed += 1
    assert placed == k, "not enough adjacent higher-indexed edges"
    return SuffixHistory(space, i + 1, bits)


class TestErModel:
    def test_history_independence(self):
        m = er_model(3, 0.5)
        h_empty = SuffixHistory.empty_for(m.space)
        h_full = SuffixHistory(m.space, 3, 0b100)
        assert m.conditional(2, h_full) == 0.5 == m.conditional(3, h_empty)

    def test_degenerate_probabilities(self, rng):
        assert sample_direct(er_model(3, 0.0), rng).bits == 0
        assert sample_direct(er_model(3, 1.0), rng).bits == 0b111

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_bad_probability(self, p):
        with pytest.raises(DomainError):
            er_model(3, p)


class TestGlobalCountModel:
    def test_hand_evaluations(self):
        m10 = global_count_model(10)
        h = history_with_count(m10.space, 1, 4)
        assert m10.conditional(1, h) == pytest.approx(0.95, abs=1e-15)
        m2 = global_count_model(2)
        assert m2.conditional(1, SuffixHistory.empty_for(m2.space)) == 0.75

    def test_floor_half_holds_exhaustively(self):
        result = robustness_floor_check(global_count_model(4))
        assert result.confirmed and result.floor == 0.5
        # at n=4 the exhaustive minimum is 1 - 6/16, above the all-n floor
        assert result.min_conditional == pytest.approx(0.625, abs=1e-15)

    def test_non_increasing_in_count(self):
        m = global_count_model(5)
        qs = [m.conditional(1, history_with_count(m.space, 1, k)) for k in range(6)]
        assert all(a > b for a, b in zip(qs, qs[1:]))


class TestAdjacencyCountModel:
    def test_paper_floor_value(self):
        m = adjacency_count_model(4)
        q0 = m.conditional(6, SuffixHistory.empty_for(m.space))
        assert q0 == pytest.approx(0.3, abs=1e-15)

    def test_hand_evaluations(self):
        m = adjacency_count_model(6)
        h5 = adjacency_history_with_count(m.space, 1, 5)
        assert m.conditional(1, h5) == pytest.approx(0.4, abs=1e-15)

    def test_maximum_count_value(self):
        for n in (4, 5, 6):
            m = adjacency_count_model(n)
            kmax = 2 * (n - 2)
            h = adjacency_history_with_count(m.space, 1, kmax)
            assert m.conditional(1, h) == pytest.approx(0.5 - 1 / (2 * n + 1), abs=1e-15)

    def test_strictly_increasing_in_adjacent_count(self):
        m = adjacency_count_model(5)
        qs = [
            m.conditional(1, adjacency_history_with_count(m.space, 1, k))
            for k in range(2 * 3 + 1)
        ]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("build", [adjacency_count_model, conditioned_adjacency_model])
    def test_building_touches_no_edge_list(self, build):
        """Building a model at n = 1000 makes nothing per edge: the edge
        pairs and incidence masks are left to the scalar path's first use."""
        model = build(1000)
        assert {"pairs", "endpoints", "_incident_masks"}.isdisjoint(vars(model.space))
        table_model = getattr(model, "base_model", model)
        assert len(table_model.table(1)) == 2 * 1000 - 3

    def test_floor_exhaustive(self):
        result = robustness_floor_check(adjacency_count_model(4))
        assert result.confirmed
        assert result.min_conditional == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 11, 12, 30])
    def test_adjacent_count_matches_pairwise_reference(self, n):
        model = adjacency_count_model(n)
        ref = bf.ref_edge_adjacency(n)
        m = model.space.m
        draw = random.Random(n)
        for _ in range(200):
            i = draw.randint(1, m)
            suffix = draw.getrandbits(m - i) << i
            k = (suffix & ref[i - 1]).bit_count()
            q = model.conditional(i, SuffixHistory(model.space, i + 1, suffix))
            assert q == 0.5 - 1.0 / (k + 5)
            assert model.table(i)[k] == q

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_min_adjacent_event_matches_pairwise_reference(self, n):
        space = EdgeSpace(n)
        ref = bf.ref_edge_adjacency(n)
        draw = random.Random(n)
        for _ in range(100):
            g = Realization(space, draw.getrandbits(space.m))
            for threshold in range(2 * n):
                expected = all((g.bits & mask).bit_count() >= threshold for mask in ref)
                assert satisfies_min_adjacent(g, threshold) == expected


class TestFloorBounds:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_builtins_within_bounds_exhaustively(self, n):
        models = [er_model(n, 0.37), global_count_model(n), adjacency_count_model(n)]
        for model in models:
            space = model.space
            for i in range(1, space.m + 1):
                for s in range(1 << (space.m - i)):
                    q = model.conditional(i, SuffixHistory(space, i + 1, s << i))
                    assert model.floor <= q <= 1.0


class TestSampleDirect:
    def test_reproducible_for_fixed_seed(self):
        m = adjacency_count_model(5)
        a = sample_direct(m, np.random.default_rng(123))
        b = sample_direct(m, np.random.default_rng(123))
        assert a == b

    def test_first_decided_edge_marginal(self):
        # edge m is decided first against an empty history, so its marginal
        # is exactly the k=0 conditional 0.3
        m = adjacency_count_model(4)
        rng = np.random.default_rng(777)
        samples = 100_000
        hits = sum(sample_direct(m, rng).has_edge(6) for _ in range(samples))
        assert hits / samples == pytest.approx(0.3, abs=0.01)

    def test_er_marginals_within_four_stderr(self):
        p = 0.37
        m = er_model(4, p)
        rng = np.random.default_rng(2024)
        samples = 100_000
        counts = np.zeros(m.space.m)
        for _ in range(samples):
            g = sample_direct(m, rng)
            for i in g.present_edges():
                counts[i - 1] += 1
        se = np.sqrt(p * (1 - p) / samples)
        assert np.all(np.abs(counts / samples - p) <= 4 * se)

    def test_contract_violation_raises(self, rng):
        space = EdgeSpace(3)
        bad = EdgeModel(space, 0.0, lambda i, h: 1.5)
        with pytest.raises(ModelContractError):
            sample_direct(bad, rng)


class TestConditionedModel:
    def test_accepted_samples_satisfy_event(self, rng):
        model = conditioned_adjacency_model(4)
        for _ in range(25):
            g = model.sample(rng)
            assert satisfies_min_adjacent(g, 3)
            assert all(
                (g.bits & g.space.adjacency_mask(i)).bit_count() >= 3
                for i in range(1, g.space.m + 1)
            )

    def test_empty_event_at_n3_is_sampling_failure(self, rng):
        model = conditioned_adjacency_model(3)
        with pytest.raises(SamplingFailureError) as err:
            model.sample(rng)
        assert err.value.attempts == 0

    def test_budget_exhaustion_reports_attempts(self):
        model = conditioned_adjacency_model(4, budget=1)
        # seed chosen so the single attempt is rejected
        rng = np.random.default_rng(0)
        with pytest.raises(SamplingFailureError) as err:
            while True:
                model.sample(rng)
        assert err.value.attempts == 1


class TestFloorCheck:
    def test_constant_model(self):
        result = robustness_floor_check(er_model(4, 0.3))
        assert result.confirmed and result.min_conditional == 0.3

    def test_planted_violation_found_with_witness(self):
        space = EdgeSpace(4)

        def dented(i, history):
            if i == 2 and history.present_count() == 3:
                return 0.1
            return 0.5

        result = robustness_floor_check(EdgeModel(space, 0.3, dented))
        assert not result.confirmed
        assert result.min_conditional == 0.1
        assert result.witness_edge == 2
        assert result.witness_history.present_count() == 3

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            robustness_floor_check(er_model(8, 0.5))  # m = 28 > 24

    def test_randomized_fallback(self):
        result = robustness_floor_check(
            er_model(8, 0.5), exhaustive=False, trials=500, rng=np.random.default_rng(5)
        )
        assert result.confirmed and not result.exhaustive
        assert result.evaluations == 500


class TestModelDescriptor:
    def test_round_trip_and_build(self):
        for desc in [
            ModelDescriptor("er", 5, {"p": 0.4}),
            ModelDescriptor("global-count", 4),
            ModelDescriptor("adjacency-count", 6),
            ModelDescriptor("adjacency-count-conditioned", 4, {"budget": 100}),
        ]:
            again = ModelDescriptor.from_json(desc.to_json())
            assert again == desc
            model = again.build()
            assert model.space.n == desc.n

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            ModelDescriptor("nosuch", 4)

    @pytest.mark.parametrize("kind,params,message", [
        ("er", 3, "model descriptor params must be an object, got 3"),
        ("er", {"p": "x"}, "er model params.p must be a number, got 'x'"),
        ("er", {"p": True}, "er model params.p must be a number, got True"),
        ("adjacency-count-conditioned", {"budget": "x"},
         "adjacency-count-conditioned model params.budget must be an integer >= 1, got 'x'"),
        ("adjacency-count-conditioned", {"budget": -3},
         "adjacency-count-conditioned model params.budget must be an integer >= 1, got -3"),
        ("adjacency-count-conditioned", {"budget": 2.5},
         "adjacency-count-conditioned model params.budget must be an integer >= 1, got 2.5"),
    ], ids=["params-int", "p-string", "p-bool", "budget-string", "budget-negative", "budget-float"])
    def test_bad_params_name_the_param(self, kind, params, message):
        """Each param is checked against its kind when the model is built,
        before a sample is drawn."""
        text = json.dumps({"kind": kind, "n": 5, "params": params})
        with pytest.raises(DomainError) as err:
            ModelDescriptor.from_json(text).build()
        assert str(err.value) == message

    @pytest.mark.parametrize("n", [True, False, 5.0, "5"], ids=["true", "false", "float", "string"])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_bad_vertex_count_names_n(self, kind, n):
        """A bool is no vertex count, though Python counts it an int; nor is
        a float or a string. Each is refused when the model is built, as is
        a bool edge space."""
        params = {"p": 0.3} if kind == "er" else {}
        text = json.dumps({"kind": kind, "n": n, "params": params})
        with pytest.raises(DomainError) as err:
            ModelDescriptor.from_json(text).build()
        assert str(err.value) == f"{kind} model n must be an integer, got {n!r}"
        with pytest.raises(DomainError, match=f"vertex count must be an integer >= 1, got {n!r}"):
            EdgeSpace(n)

    def test_bad_json(self):
        with pytest.raises(DomainError):
            ModelDescriptor.from_json("{not json")
        with pytest.raises(DomainError):
            ModelDescriptor.from_json('{"kind": "er", "n": 3, "extra": 1}')
        for text, field in [('{"n": 3}', "'kind'"), ('{"kind": "er"}', "'n'"),
                            ('{"kind": [], "n": 3}', "kind")]:
            with pytest.raises(DomainError, match=field):
                ModelDescriptor.from_json(text)


def builtin_models(n):
    models = [er_model(n, 0.3), er_model(n, 1.0)]
    if n >= 2:
        models += [global_count_model(n), adjacency_count_model(n)]
    return models


def block_bits(source, seed, branch, lo, hi):
    """The bitmasks of the parts ``sample_parts`` yields over lo..hi-1, read
    through the to-bitmasks conversion, and the error it raises, if any.
    Each part starts where the one before it ends."""
    bits = []
    try:
        for start, (words,), count in sample_parts(source, seed, branch, lo, hi):
            assert start == lo + len(bits)
            bits += bits_from_words(words, count)
    except AssertionError:
        raise
    except Exception as exc:
        return bits, exc
    return bits, None


def drawn(source, seed, branch, lo, hi):
    """``block_bits``'s bitmasks, once its error, if any, is raised."""
    bits, error = block_bits(source, seed, branch, lo, hi)
    if error is not None:
        raise error
    return bits


def blocked(source, seed, branch, count):
    """Every sample of 0..count-1 through the block sampler, block by block."""
    return [
        bits
        for lo, hi in _bounds(0, count, 256)
        for bits in drawn(source, seed, branch, lo, hi)
    ]


def scalar(source, seed, branch, count):
    return [bf.ref_sample(source, seed, branch, idx) for idx in range(count)]


def traced_peak(fn):
    """fn()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BASES = [None, 0.0, 0.05, 0.3, "floor"]  # None: the direct kernel
TABLE_MODELS = {"er": lambda n: er_model(n, 0.37), "globalcount": global_count_model,
                "adjcount": adjacency_count_model}


class TestKernelAgainstFrozenReference:
    """The block kernel's degrees and decisions against the closed-form
    kernel it replaced (``bruteforce.ref_decide_block``), bit for bit."""

    @pytest.mark.parametrize("n", [*range(2, 13), 30, 64])
    @pytest.mark.parametrize("name", TABLE_MODELS)
    def test_degrees_and_decisions(self, name, n):
        model = TABLE_MODELS[name](n)
        m = model.space.m
        rows = 300 if n <= 12 else 48
        for base in BASES:
            base = model.floor if base == "floor" else base
            coins = models.coin_rows(51, (n,), 0, rows, m if base is None else 2 * m)
            got = models._decide_block(model, coins, base)
            want = bf.ref_decide_block(model, coins, base)
            assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0]), base
            assert len(got[1]) == len(want[1])
            for a, b in zip(got[1], want[1]):
                assert a.tobytes() == b.tobytes(), base


class TestSampleBlock:
    """The block sampler against the scalar reference, bit for bit."""

    @pytest.mark.parametrize("n", [*range(1, 14), 30, 64, 65, 100])
    def test_builtins_equal_scalar_path(self, n):
        count = 257 if n <= 13 else 5
        for model in builtin_models(n):
            assert model.table is not None
            assert blocked(model, 31, (1,), count) == scalar(model, 31, (1,), count)

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 4097])
    def test_sample_counts(self, count):
        model = adjacency_count_model(6)
        assert blocked(model, 32, (), count) == scalar(model, 32, (), count)

    def test_blocks_are_index_ranges(self):
        model = global_count_model(7)
        block = drawn(model, 33, (4,), 300, 310)
        assert block == scalar(model, 33, (4,), 310)[300:]

    def test_words_from_rows_across_word_boundaries(self):
        draw = np.random.default_rng(5)
        for m in (0, 1, 7, 8, 9, 63, 64, 65, 128, 200):
            for b in (0, 1, 7, 70):
                rows = draw.random((m, b)) < 0.5
                want = [sum(1 << j for j in range(m) if rows[j, c]) for c in range(b)]
                assert bits_from_words(words_from_rows(rows), b) == want
                transposed = np.ascontiguousarray(rows.T).T  # a transposed view
                assert bits_from_words(words_from_rows(transposed), b) == want

    @pytest.mark.parametrize("build", [adjacency_count_model, conditioned_adjacency_model])
    def test_kernel_calls_bound_their_coins(self, build, monkeypatch):
        # n = 30: a whole 256-row block holds 256 x 435 coins per call (870 KiB)
        source = build(30)
        unsplit = traced_peak(lambda: drawn(source, 47, (), 0, 256))
        monkeypatch.setattr(models, "KERNEL_COINS", 16 * 435)  # 16 rows
        split = traced_peak(lambda: drawn(source, 47, (), 0, 256))
        assert split[1] < 512 * 1024 < unsplit[1]
        assert split[0] == unsplit[0]
        assert split[0][:40] == scalar(source, 47, (), 40)

    def test_closure_model_takes_scalar_path(self):
        space = EdgeSpace(5)
        model = EdgeModel(space, 0.2, lambda i, h: 0.2 + 0.05 * h.present_count())
        assert model.table is None
        assert blocked(model, 34, (), 300) == scalar(model, 34, (), 300)

    def test_out_of_range_conditional_raises_the_scalar_error(self):
        space = EdgeSpace(5)

        def conditional(i, h):
            return 1.5 if i == 4 and h.present_count() == 3 else 0.5

        def table(i):  # over the count of present decided edges
            return np.where((i == 4) & (np.arange(space.m) == 3), 1.5, 0.5)

        batched = EdgeModel(space, 0.5, conditional, key="count", table=table)
        with pytest.raises(ModelContractError) as block_err:
            blocked(batched, 36, (), 300)
        with pytest.raises(ModelContractError) as scalar_err:
            scalar(batched, 36, (), 300)
        assert str(block_err.value) == str(scalar_err.value)
        message = "model 'custom' returned conditional 1.5 for edge 4; must be in [0, 1]"
        assert str(block_err.value) == message

    @pytest.mark.parametrize("value", [1.5, -0.25, float("nan")])
    def test_one_bad_reachable_entry_raises_at_the_lowest_failing_index(self, value):
        """Edge 1's table leaves [0, 1] at degree sum 5 only: the samples
        before the first one to reach it come out, then the scalar error."""
        space = EdgeSpace(6)
        good = adjacency_count_model(6)
        dented = good.table(1).copy()
        dented[5] = value

        def conditional(i, h):
            q = good.conditional(i, h)
            return value if i == 1 and q == good.table(1)[5] else q

        model = EdgeModel(space, 0.3, conditional, key="degree_sum",
                          table=lambda i: dented if i == 1 else good.table(i))
        want = []
        with pytest.raises(ModelContractError) as scalar_err:
            for idx in range(1000):
                want.append(bf.ref_sample(model, 41, (), idx))
        assert 0 < len(want) < 300
        got, error = block_bits(model, 41, (), 0, 1000)
        assert got == want
        assert isinstance(error, ModelContractError)
        assert str(error) == str(scalar_err.value)
        message = f"model 'custom' returned conditional {value} for edge 1;"
        assert str(scalar_err.value).startswith(message)

    def test_unreached_bad_entry_takes_the_scalar_path(self):
        """A table entry out of range refuses the kernel even where no sample
        reaches it; the scalar path then gives every sample and no error."""
        space = EdgeSpace(6)

        def table(i):  # 1.5 once all 14 higher edges are present
            return np.where((i == 1) & (np.arange(space.m) == 14), 1.5, 0.5)

        model = EdgeModel(space, 0.5, lambda i, h: 0.5, key="count", table=table)
        assert models._decide_block(model, np.zeros((300, space.m))) is None
        assert drawn(model, 42, (), 0, 300) == scalar(model, 42, (), 300)

    def test_conditioned_range_pools_pending_rows(self, kernel_calls):
        model = conditioned_adjacency_model(10)
        per_block = blocked(model, 40, (), 1000)
        block_calls = len(kernel_calls)
        kernel_calls.clear()
        assert drawn(model, 40, (), 0, 1000) == per_block == scalar(model, 40, (), 1000)
        assert len(kernel_calls) < block_calls

    def test_conditioned_model_equals_scalar_path(self):
        for n in (4, 5, 6, 10):
            model = conditioned_adjacency_model(n)
            assert blocked(model, 37, (), 257) == scalar(model, 37, (), 257)

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_conditioned_budget_exhaustion_matches_scalar(self, budget):
        model = conditioned_adjacency_model(5, budget=budget)
        with pytest.raises(SamplingFailureError) as block_err:
            blocked(model, 38, (), 300)
        with pytest.raises(SamplingFailureError) as scalar_err:
            scalar(model, 38, (), 300)
        assert str(block_err.value) == str(scalar_err.value)
        assert block_err.value.attempts == scalar_err.value.attempts == budget

    def test_conditioned_empty_event(self):
        with pytest.raises(SamplingFailureError) as err:
            blocked(conditioned_adjacency_model(3), 39, (), 5)
        assert err.value.attempts == 0
        assert list(sample_parts(conditioned_adjacency_model(3), 39, (), 5, 5)) == []


def bad_count_model(n, count, value=1.5):
    """A count-keyed model whose edge-1 conditional is ``value`` once
    ``count`` higher edges are present, 0.5 otherwise; as a table, so the
    kernel refuses it and each part takes the scalar path, or as a closure."""
    space = EdgeSpace(n)

    def conditional(i, h):
        return value if i == 1 and h.present_count() == count else 0.5

    def table(i):
        return np.where((i == 1) & (np.arange(space.m) == count), value, 0.5)

    return (EdgeModel(space, 0.5, conditional, key="count", table=table),
            EdgeModel(space, 0.5, conditional))


class TestSampleParts:
    """A part whose draw fails is yielded up to the failing index, then the
    draw's error is raised; parts before it are whole."""

    def parts_then_error(self, source, seed, lo, hi):
        parts = []
        with pytest.raises(Exception) as err:
            for start, (words,), count in sample_parts(source, seed, (), lo, hi):
                parts.append((start, count, bits_from_words(words, count)))
        return parts, err.value

    @pytest.mark.parametrize("unit", [1, 7, 64])
    def test_failing_part_is_yielded_up_to_the_failing_index(self, unit, set_work_unit):
        table_model, closure_model = bad_count_model(6, 12)
        sources = {
            "kernel-refused": table_model,
            "scalar": closure_model,
            "rejection": conditioned_adjacency_model(10, budget=8),
        }
        for name, source in sources.items():
            want = []
            with pytest.raises(Exception) as scalar_err:
                for idx in range(5, 3000):
                    want.append(bf.ref_sample(source, 3, (), idx))
            failing = 5 + len(want)
            assert 5 < failing < 3000, name
            set_work_unit(unit)
            parts, error = self.parts_then_error(source, 3, 5, 3000)
            assert type(error) is type(scalar_err.value) and str(error) == str(scalar_err.value)
            *whole, (last_start, last_count, _) = parts
            assert [(s, c) for s, c, _ in whole] == [(s, unit) for s in range(5, last_start, unit)]
            assert (last_start, last_start + last_count) == (5 + len(whole) * unit, failing), name
            assert [b for *_, bits in parts for b in bits] == want, name

    @pytest.mark.parametrize("lo", [0, 9, 2**32])
    def test_empty_range_yields_nothing(self, lo, kernel_calls):
        table_model, closure_model = bad_count_model(6, 12)
        for source in (adjacency_count_model(6), conditioned_adjacency_model(6, budget=0),
                       table_model, closure_model):
            assert list(sample_parts(source, 7, (1,), lo, lo)) == []
        for model in (adjacency_count_model(6), closure_model):
            assert list(sample_parts(CouplingParams(0.3, model), 7, (1,), lo, lo)) == []
        assert kernel_calls == []
