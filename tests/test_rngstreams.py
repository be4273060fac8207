"""Stream layout 2: windows of one stream per (seed, branch), bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from probust import (
    DomainError,
    EdgeModel,
    EdgeSpace,
    conditioned_adjacency_model,
    coupled_stream,
    derive_rng,
    er_model,
    estimate_property,
    parse_property,
    window_rng,
)
from probust import models
from probust.coupling import CouplingParams
from probust.graphs import bits_from_words
from probust.models import REJECTION_TAG, adjacency_count_model, sample_parts
from probust.rngstreams import coin_rows

SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
BRANCHES = [(), (1,), (60,), (3, 5)]
WIDTHS = [0, 1, 3, 45, 90, 870]
# first indices near 0 and on both sides of 2^32 and 2^64
STARTS = st.one_of(
    st.integers(0, 600),
    st.integers(2**32 - 12, 2**32 + 2),
    st.integers(2**64 - 12, 2**64 + 2),
)


def reference_rows(seed, branch, lo, hi, width):
    """One window per index, each from its own advanced generator."""
    coins = np.empty((hi - lo, width))
    for idx, row in zip(range(lo, hi), coins):
        window_rng(seed, branch, idx, width).random(out=row)
    return coins


class TestCoinRows:
    @settings(max_examples=60)
    @given(st.sampled_from(SEEDS), st.sampled_from(BRANCHES), st.integers(0, 40),
           st.sampled_from(WIDTHS[:5]))
    def test_window_is_the_stream_read_on(self, seed, branch, idx, width):
        """Window idx is what the stream's generator gives after idx * width
        uniforms: advancing equals drawing and discarding."""
        stream = derive_rng(seed, *branch).random(idx * width + width)
        got = window_rng(seed, branch, idx, width).random(width)
        assert got.tobytes() == stream[idx * width :].tobytes()

    @settings(max_examples=150)
    @given(
        st.sampled_from(SEEDS),
        st.sampled_from(BRANCHES),
        STARTS,
        st.integers(0, 16),
        st.sampled_from(WIDTHS),
    )
    def test_equal_to_window_rng(self, seed, branch, lo, count, width):
        got = coin_rows(seed, branch, lo, lo + count, width)
        assert got.tobytes() == reference_rows(seed, branch, lo, lo + count, width).tobytes()

    @pytest.mark.parametrize("lo", [2**32 - 128, 2**64 - 128])
    def test_full_block_straddling_a_word(self, lo):
        """A 256-row range whose indices gain a 32-bit word half-way, and
        whose stream positions pass 2^64 at the upper one."""
        hi = lo + 256
        for seed in SEEDS:
            got = coin_rows(seed, (3, 5), lo, hi, 45)
            assert got.tobytes() == reference_rows(seed, (3, 5), lo, hi, 45).tobytes()

    def test_any_cut_gives_the_same_windows(self):
        whole = coin_rows(11, (2,), 0, 100, 45)
        parts = [coin_rows(11, (2,), lo, min(lo + 7, 100), 45) for lo in range(0, 100, 7)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_bad_seed_rejected(self):
        with pytest.raises(DomainError):
            coin_rows(2**64, (), 0, 3, 5)
        with pytest.raises(DomainError):
            window_rng(-1, (), 0, 3)

    def test_negative_stream_keys_refused(self):
        """A negative index or branch key is one DomainError, from the block
        streams and from ``derive_rng`` alike."""
        closure = EdgeModel(EdgeSpace(5), 0.3, lambda i, h: 0.3)  # the scalar path
        for model in (adjacency_count_model(5), closure):
            with pytest.raises(DomainError, match=r"stream keys must be >= 0, got \(-1,\)"):
                list(coupled_stream(CouplingParams(0.3, model), 7, 2, start_index=-1))
            with pytest.raises(DomainError, match=r"stream keys must be >= 0, got \(-1, 0\)"):
                estimate_property(model, parse_property("connected"), 10, 7, branch=(-1,))
        with pytest.raises(DomainError, match="stream keys must be >= 0"):
            derive_rng(7, 2, -3)

    @pytest.mark.parametrize("width", [0, 3])
    def test_empty_range(self, width):
        for lo in (0, 2**32, 2**64 - 1):
            assert coin_rows(7, (1,), lo, lo, width).shape == (0, width)
        assert list(sample_parts(conditioned_adjacency_model(6), 7, (1,), 9, 9)) == []
        params = CouplingParams(0.3, adjacency_count_model(6))
        assert list(sample_parts(params, 7, (), 9, 9)) == []


def part_bits(source, seed, branch, lo, hi):
    """The bitmasks ``sample_parts`` yields over lo..hi-1."""
    return [
        bits
        for _, (words,), count in sample_parts(source, seed, branch, lo, hi)
        for bits in bits_from_words(words, count)
    ]


def part_triples(params, seed, lo, hi):
    """The (g1, g2, u) bitmasks ``sample_parts`` yields for a coupling over
    lo..hi-1."""
    return [
        triple
        for _, words, count in sample_parts(params, seed, (), lo, hi)
        for triple in zip(*(bits_from_words(w, count) for w in words))
    ]


class TestBlockEqualsScalar:
    """Each sampler's parts against its scalar reference, one index at a
    time, for any part size and for a range that starts mid-stream."""

    @pytest.mark.parametrize("lo", [0, 2**32 - 3])
    @pytest.mark.parametrize("unit", [1, 7, 64, None])  # None: the kernel's own part size
    def test_sample_direct(self, unit, lo, set_work_unit):
        set_work_unit(unit)
        for model in (er_model(7, 0.3), adjacency_count_model(6), adjacency_count_model(11)):
            want = [bf.ref_sample(model, 5, (1,), idx) for idx in range(lo, lo + 150)]
            assert part_bits(model, 5, (1,), lo, lo + 150) == want, model.name

    @pytest.mark.parametrize("lo", [0, 2**32 - 3])
    @pytest.mark.parametrize("unit", [1, 7, 64, None])
    def test_generate_coupled(self, unit, lo, set_work_unit):
        set_work_unit(unit)
        for n in (6, 11):
            params = CouplingParams(0.3, adjacency_count_model(n))
            want = [bf.ref_coupled(params, 5, idx) for idx in range(lo, lo + 150)]
            assert part_triples(params, 5, lo, lo + 150) == [
                (t.g1.bits, t.g2.bits, t.u.bits) for t in want
            ], n

    @pytest.mark.parametrize("lo", [0, 2**32 - 3])
    @pytest.mark.parametrize("unit", [1, 7, 64, None])
    def test_conditioned_sampler(self, unit, lo, set_work_unit):
        set_work_unit(unit)
        for n in (5, 10):
            source = conditioned_adjacency_model(n)
            want = [bf.ref_sample(source, 5, (1,), idx) for idx in range(lo, lo + 150)]
            assert part_bits(source, 5, (1,), lo, lo + 150) == want, n


class TestRejectionStreams:
    @pytest.mark.parametrize("n", range(4, 11))
    def test_rejection_sampler_rows(self, n):
        source = conditioned_adjacency_model(n)
        (words,), count = source._sample_rows(21, (1,), 0, 64)
        want = [bf.ref_sample(source, 21, (1,), idx) for idx in range(64)]
        assert (bits_from_words(words, count), count) == (want, 64)

    def test_scalar_reference_is_the_samplers_own(self):
        source = conditioned_adjacency_model(6)
        for idx in (0, 1, 2**32 - 3):
            (got,) = models._sample_at(source, 8, (1,), idx)
            assert got == bf.ref_sample(source, 8, (1,), idx)

    def test_tag_keys_are_no_branch_key(self):
        """No attempt stream (*branch, REJECTION_TAG, r) is seeded like a
        stream the library reads by branch: ``generate`` and
        ``estimate_property`` by default (), ``domination_test`` (0,) and
        (1,), the adjacency-bounds preset (n,), the certification's
        ``derive_rng(seed, 0, 0)``."""

        def state(key):
            return np.random.SeedSequence(7, spawn_key=key).generate_state(4).tobytes()

        branches = [(), (0,), (1,), *((n,) for n in range(1, 600))]
        used = {state(key) for key in [*branches, (0, 0)]}
        for branch in branches[:3]:
            for r in range(64):
                assert state((*branch, REJECTION_TAG, r)) not in used, (branch, r)
