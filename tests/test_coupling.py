import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from probust import (
    CouplingParams,
    CouplingTriple,
    DomainError,
    EdgeModel,
    EdgeSpace,
    Realization,
    RobustnessViolationError,
    adjacency_count_model,
    coupled_stream,
    derive_rng,
    er_model,
    generate_coupled,
    global_count_model,
    p_prime,
    patch_probability,
    union_probability_identity,
)
from probust import models
from probust.coupling import coupled_parts
from probust.graphs import bits_from_words

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPPrime:
    def test_hand_value(self):
        assert p_prime(0.5, 0.75) == pytest.approx(0.25, abs=1e-15)

    def test_q_equals_p_gives_p(self):
        for p in (0.0, 0.1, 0.3, 0.77, 0.999):
            assert p_prime(p, p) == pytest.approx(p, abs=1e-15)
            assert patch_probability(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_p_zero(self):
        assert p_prime(0.0, 0.3) == 0.0
        assert patch_probability(0.0, 0.3) == 0.3

    def test_p_above_q_rejected(self):
        with pytest.raises(DomainError):
            p_prime(0.5, 0.3)

    def test_p_one_contradiction(self):
        with pytest.raises(DomainError):
            p_prime(1.0, 0.9)
        assert p_prime(1.0, 1.0) == 0.0
        assert patch_probability(1.0, 1.0) == 1.0

    def test_patch_hand_values(self):
        assert patch_probability(0.5, 0.75) == pytest.approx(0.5, abs=1e-15)
        assert patch_probability(0.3, 1.0) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.0, 0.99), st.data())
    def test_monotonic_in_q(self, p, data):
        q1 = data.draw(st.floats(p, 1.0))
        q2 = data.draw(st.floats(q1, 1.0))
        assert p_prime(p, q2) <= p_prime(p, q1) + 1e-15
        assert patch_probability(p, q2) >= patch_probability(p, q1) - 1e-15

    @given(st.floats(0.0, 0.999), st.data())
    def test_feasibility_everywhere(self, p, data):
        q = data.draw(st.floats(p, 1.0))
        pp = p_prime(p, q)
        assert 0.0 <= pp <= q
        assert 0.0 <= patch_probability(p, q) <= 1.0


class TestUnionIdentity:
    def test_hand_checks(self):
        assert union_probability_identity(0.5, 0.75) <= 1e-15
        assert union_probability_identity(0.0, 0.3) == 0.0

    def test_grid_sweep(self):
        # 10^4 grid points with p <= q, p <= 0.999
        ps = np.linspace(0.0, 0.999, 100)
        worst = 0.0
        for p in ps:
            for q in np.linspace(p, 1.0, 100):
                residual = union_probability_identity(float(p), float(q))
                worst = max(worst, residual)
                s = float(q) - p_prime(float(p), float(q))
                assert 0.0 <= s <= 1.0
        assert worst <= 1e-15

    @given(st.floats(0.0, 0.999), st.data())
    def test_fuzz(self, p, data):
        q = data.draw(st.floats(p, 1.0))
        assert union_probability_identity(p, q) <= 1e-15


class TestCouplingParams:
    def test_base_above_floor_rejected(self):
        with pytest.raises(RobustnessViolationError):
            CouplingParams(0.4, adjacency_count_model(4))

    def test_base_at_floor_ok(self):
        CouplingParams(0.3, adjacency_count_model(4))

    def test_swapped_arguments_raise_a_domain_error(self):
        with pytest.raises(DomainError, match="^model of type float has no sequential conditionals"):
            CouplingParams(adjacency_count_model(4), 0.3)

    def test_triple_invariant_enforced(self):
        space = EdgeSpace(3)
        g1 = Realization(space, 0b001)
        g2 = Realization(space, 0b010)
        with pytest.raises(DomainError):
            CouplingTriple(g1, g2, Realization(space, 0b111))


class TestGenerateCoupled:
    def test_er_at_base_never_patches(self):
        params = CouplingParams(0.5, er_model(4, 0.5))
        for idx, triple in coupled_stream(params, 11, 200):
            assert triple.g2.bits == 0
            assert triple.u == triple.g1

    def test_base_zero_is_pure_model(self):
        params = CouplingParams(0.0, adjacency_count_model(4))
        for idx, triple in coupled_stream(params, 12, 200):
            assert triple.g1.bits == 0
            assert triple.u == triple.g2

    def test_union_and_containment_every_sample(self):
        params = CouplingParams(0.3, adjacency_count_model(5))
        for idx, triple in coupled_stream(params, 13, 500):
            assert triple.u.bits == triple.g1.bits | triple.g2.bits
            assert triple.g1.is_subset(triple.u)
            assert triple.g2.is_subset(triple.u)

    def test_forced_edges_at_base_one(self):
        params = CouplingParams(1.0, er_model(3, 1.0))
        triple = generate_coupled(params, np.random.default_rng(0))
        assert triple.g1.bits == triple.u.bits == triple.u.space.full_mask

    def test_runtime_robustness_violation_identified(self):
        space = EdgeSpace(4)

        def dips(i, history):
            return 0.2 if i == 3 else 0.6

        broken = EdgeModel(space, 0.5, dips)  # floor is a lie
        params = CouplingParams(0.5, broken)
        with pytest.raises(RobustnessViolationError) as err:
            generate_coupled(params, np.random.default_rng(1))
        assert err.value.edge == 3
        assert err.value.history.start == 4


class TestCoupledStream:
    def test_count_zero(self):
        params = CouplingParams(0.3, adjacency_count_model(4))
        assert list(coupled_stream(params, 5, 0)) == []

    def test_same_seed_identical(self):
        params = CouplingParams(0.3, adjacency_count_model(4))
        a = [t for _, t in coupled_stream(params, 42, 50)]
        b = [t for _, t in coupled_stream(params, 42, 50)]
        assert a == b

    def test_disjoint_seeds_differ(self):
        params = CouplingParams(0.3, adjacency_count_model(4))
        a = [t for _, t in coupled_stream(params, 1, 100)]
        b = [t for _, t in coupled_stream(params, 2, 100)]
        assert a != b

    def test_stream_is_indexed_not_positional(self):
        params = CouplingParams(0.3, adjacency_count_model(4))
        full = dict(coupled_stream(params, 9, 20))
        tail = dict(coupled_stream(params, 9, 10, start_index=10))
        assert all(full[i] == tail[i] for i in range(10, 20))

    def test_negative_count_rejected(self):
        params = CouplingParams(0.3, adjacency_count_model(4))
        with pytest.raises(DomainError):
            list(coupled_stream(params, 5, -1))


def triples_bits(triples):
    return [(t.g1.bits, t.g2.bits, t.u.bits) for t in triples]


def scalar_triples(params, seed, lo, hi):
    return triples_bits(generate_coupled(params, derive_rng(seed, idx)) for idx in range(lo, hi))


def block_triples(params, seed, lo, hi):
    """The (g1, g2, u) bitmasks of the parts ``coupled_parts`` yields over
    lo..hi-1, read through the to-bitmasks conversion; each part starts
    where the one before it ends."""
    triples = []
    for start, words, count in coupled_parts(params, seed, lo, hi):
        assert start == lo + len(triples)
        triples += zip(*(bits_from_words(w, count) for w in words))
    return triples


class TestCoupledBlock:
    """coupled_stream's block path against generate_coupled, bit for bit."""

    @pytest.mark.parametrize("n", [*range(1, 14), 30, 64, 65, 100])
    def test_builtins_equal_scalar_path(self, n):
        count = 257 if n <= 13 else 5
        builtins = [er_model(n, 0.3), er_model(n, 1.0)]
        if n >= 2:
            builtins += [global_count_model(n), adjacency_count_model(n)]
        for model in builtins:
            for base in (0.0, 0.3, 1.0):
                if base > model.floor:
                    continue
                params = CouplingParams(base, model)
                got = triples_bits(t for _, t in coupled_stream(params, 41, count))
                assert got == scalar_triples(params, 41, 0, count), (model.name, base)

    @pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 4097])
    def test_sample_counts(self, count):
        params = CouplingParams(0.3, adjacency_count_model(5))
        got = list(coupled_stream(params, 42, count, start_index=3))
        assert [idx for idx, _ in got] == list(range(3, 3 + count))
        assert triples_bits(t for _, t in got) == scalar_triples(params, 42, 3, 3 + count)

    def test_closure_model_takes_scalar_path(self):
        space = EdgeSpace(5)
        model = EdgeModel(space, 0.3, lambda i, h: 0.3 + 0.005 * h.present_count())
        params = CouplingParams(0.3, model)
        assert block_triples(params, 43, 0, 300) == scalar_triples(
            params, 43, 0, 300
        )

    def test_kernel_calls_bound_their_coins(self, monkeypatch):
        # n = 30: a whole 256-row block holds 256 x 870 coins per call (1.7 MiB)
        params = CouplingParams(0.3, adjacency_count_model(30))

        def traced_block():
            tracemalloc.start()
            try:
                triples = block_triples(params, 48, 0, 256)
                return triples, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        unsplit = traced_block()
        monkeypatch.setattr(models, "KERNEL_COINS", 16 * (870 + models.STREAM_COINS))  # 16 rows
        split = traced_block()
        assert split[1] < 512 * 1024 < unsplit[1]
        assert split[0] == unsplit[0]
        assert split[0][:40] == scalar_triples(params, 48, 0, 40)

    def test_batched_undershoot_raises_the_scalar_error(self):
        space = EdgeSpace(5)

        # 0.25 once three of edges 7..10 are present, when edge 6 is decided
        def conditional(i, history):
            return 0.25 if i == 6 and history.present_count() == 3 else 0.6

        def table(i):  # over the count of present decided edges
            return np.where((i == 6) & (np.arange(space.m) == 3), 0.25, 0.6)

        model = EdgeModel(space, 0.5, conditional, key="count", table=table)
        params = CouplingParams(0.5, model)
        with pytest.raises(RobustnessViolationError) as block_err:
            list(coupled_stream(params, 45, 300))
        with pytest.raises(RobustnessViolationError) as scalar_err:
            scalar_triples(params, 45, 0, 300)
        assert block_err.value.edge == scalar_err.value.edge == 6
        assert block_err.value.history == scalar_err.value.history
        assert str(block_err.value) == str(scalar_err.value)

    @pytest.mark.parametrize("unit", [1, 7, 64])
    def test_failing_part_is_yielded_up_to_the_failing_index(self, unit, set_work_unit):
        """A table entry below the base refuses the kernel; each part takes
        the scalar path, and the part whose draw fails is yielded up to the
        failing index before the scalar error is raised."""
        space = EdgeSpace(5)

        def conditional(i, history):
            return 0.25 if i == 6 and history.present_count() == 3 else 0.6

        def table(i):  # over the count of present decided edges
            return np.where((i == 6) & (np.arange(space.m) == 3), 0.25, 0.6)

        params = CouplingParams(0.5, EdgeModel(space, 0.5, conditional, key="count", table=table))
        want = []
        with pytest.raises(RobustnessViolationError) as scalar_err:
            for idx in range(3, 300):
                want.append(generate_coupled(params, derive_rng(45, idx)))
        set_work_unit(unit)
        parts = []
        with pytest.raises(RobustnessViolationError) as err:
            for start, words, count in coupled_parts(params, 45, 3, 300):
                triples = list(zip(*(bits_from_words(w, count) for w in words)))
                parts.append((start, count, triples))
        assert str(err.value) == str(scalar_err.value)
        *whole, (last_start, last_count, _) = parts
        assert [(s, c) for s, c, _ in whole] == [(s, unit) for s in range(3, last_start, unit)]
        assert last_start + last_count == 3 + len(want)
        assert [t for *_, triples in parts for t in triples] == triples_bits(want)

    def test_lazy_scalar_fallback_yields_up_to_the_error(self):
        space = EdgeSpace(4)

        def conditional(i, history):
            return 0.2 if i == 1 and history.bits.bit_count() == 5 else 0.6

        def table(i):  # over the count of present decided edges
            return np.where((i == 1) & (np.arange(space.m) == 5), 0.2, 0.6)

        model = EdgeModel(space, 0.5, conditional, key="count", table=table)
        params = CouplingParams(0.5, model)
        stream = coupled_stream(params, 46, 300)
        seen = []
        with pytest.raises(RobustnessViolationError):
            for idx, triple in stream:
                seen.append(triple)
        first_bad = len(seen)
        assert 0 < first_bad < 256  # the error falls inside the first block
        assert triples_bits(seen) == scalar_triples(params, 46, 0, first_bad)
        with pytest.raises(RobustnessViolationError):
            generate_coupled(params, derive_rng(46, first_bad))
