"""Block-seeded streams against the scalar reference ``derive_rng``, bit for bit."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probust import (
    DomainError,
    EdgeModel,
    EdgeSpace,
    conditioned_adjacency_model,
    coupled_stream,
    derive_rng,
    estimate_property,
    parse_property,
    rngstreams,
)
from probust.coupling import CouplingParams, coupled_parts, generate_coupled
from probust.graphs import bits_from_words
from probust.models import adjacency_count_model, sample_parts
from probust.rngstreams import Streams, block_streams, coin_rows

SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
BRANCHES = [(), (1,), (60,), (3, 5)]
WIDTHS = [0, 1, 3, 45, 90, 870]
# first indices near 0 and on both sides of the index's word-count changes
STARTS = st.one_of(
    st.integers(0, 600),
    st.integers(2**32 - 12, 2**32 + 2),
    st.integers(2**64 - 12, 2**64 + 2),
)


def reference_rows(seed, branch, lo, hi, width):
    """The per-index loop block seeding replaces."""
    coins = np.empty((hi - lo, width))
    for idx, row in zip(range(lo, hi), coins):
        derive_rng(seed, *branch, idx).random(out=row)
    return coins


@pytest.fixture
def corrupt_hash(monkeypatch):
    """Block hashing that gives wrong state words, and the self-check that
    must notice it."""
    words = rngstreams._seed_words
    monkeypatch.setattr(rngstreams, "_seed_words", lambda *args: words(*args) ^ np.uint64(1))


@pytest.fixture
def layout_mismatch(monkeypatch):
    """A layout guard that reports a PCG64 whose state bytes sit elsewhere."""
    monkeypatch.setattr(rngstreams, "_layout_matches", lambda bitgen: False)


class _OtherInc(np.random.PCG64):
    """A PCG64 whose public state reports an inc its memory does not hold."""

    @property
    def state(self):
        state = super().state
        state["state"]["inc"] ^= 2
        return state


class TestCoinRows:
    @settings(max_examples=150)
    @given(
        st.sampled_from(SEEDS),
        st.sampled_from(BRANCHES),
        STARTS,
        st.integers(0, 16),
        st.sampled_from(WIDTHS),
    )
    def test_equal_to_derive_rng(self, seed, branch, lo, count, width):
        got = coin_rows(seed, branch, lo, lo + count, width)
        assert got.tobytes() == reference_rows(seed, branch, lo, lo + count, width).tobytes()

    @pytest.mark.parametrize("lo", [2**32 - 128, 2**64 - 128])
    def test_full_block_straddling_a_word(self, lo):
        """A 256-row range whose indices gain a 32-bit word half-way."""
        hi = lo + 256
        for seed in SEEDS:
            got = coin_rows(seed, (3, 5), lo, hi, 45)
            assert got.tobytes() == reference_rows(seed, (3, 5), lo, hi, 45).tobytes()

    def test_seed_words_equal_seed_sequence(self):
        lo = 2**32 - 3
        for seed in SEEDS:
            got = np.concatenate(
                [rngstreams._seed_words(seed, (60,), lo, 2**32),
                 rngstreams._seed_words(seed, (60,), 2**32, 2**32 + 3)]
            )
            want = [
                np.random.SeedSequence(seed, spawn_key=(60, idx)).generate_state(4, np.uint64)
                for idx in range(lo, 2**32 + 3)
            ]
            assert got.tobytes() == np.array(want).tobytes()

    def test_bad_seed_rejected(self):
        with pytest.raises(DomainError):
            coin_rows(2**64, (), 0, 3, 5)
        with pytest.raises(DomainError):
            block_streams(-1, (), 0, 3)

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
        streams = Streams(7, (1,), 5, 5)
        assert streams.states.shape == (0, 4)
        assert streams.random(np.arange(0), width).shape == (0, width)
        assert list(sample_parts(conditioned_adjacency_model(6), 7, (1,), 9, 9)) == []
        params = CouplingParams(0.3, adjacency_count_model(6))
        assert list(coupled_parts(params, 7, 9, 9)) == []


class TestStreams:
    def test_draws_continue_each_stream(self):
        """Consecutive draws read on along each stream, as derive_rng's do,
        and a draw for some rows leaves the others where they were."""
        streams = block_streams(9, (2,), 250, 262)
        references = [derive_rng(9, 2, idx) for idx in range(250, 262)]
        for width, rows in [(3, range(12)), (0, range(12)), (45, range(1, 12, 2)), (1, range(12))]:
            got = streams.random(np.array(rows), width)
            want = [references[r].random(width) for r in rows]
            assert got.tobytes() == np.array(want).reshape(len(rows), width).tobytes()

    def test_states_are_what_numpy_seeds(self):
        lo = 2**32 - 3
        for seed in SEEDS:
            got = Streams(seed, (60,), lo, 2**32 + 3).states
            for idx, row in zip(range(lo, 2**32 + 3), got.tolist()):
                state = derive_rng(seed, 60, idx).bit_generator.state["state"]
                words = [w >> shift & 2**64 - 1 for w in state.values() for shift in (0, 64)]
                assert row == words

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_advance_with_each_draw(self, seed):
        """After draws of widths 0, 1, 45 and 90, on all rows or some, every
        row's state is its generator's after the same draws, over indices
        that cross 2^32."""
        lo, hi = 2**32 - 3, 2**32 + 3
        streams = Streams(seed, (60,), lo, hi)
        references = [derive_rng(seed, 60, idx) for idx in range(lo, hi)]
        for width, rows in [(0, range(6)), (1, range(6)), (45, range(0, 6, 2)), (90, range(6))]:
            streams.random(np.array(rows), width)
            for r in rows:
                references[r].random(width)
            for row, rng in zip(streams.states.tolist(), references):
                state = rng.bit_generator.state["state"]
                assert row == [w >> shift & 2**64 - 1 for w in state.values() for shift in (0, 64)]

    def test_stride_is_the_lcg_stepped_width_times(self):
        mult = rngstreams._MULT
        state, inc = 2**128 - 5, 2**64 + 7
        stepped = state
        for width in range(70):
            times, plus = rngstreams._stride(width)
            assert (state * times + inc * plus) % 2**128 == stepped, width
            stepped = (stepped * mult + inc) % 2**128

    @pytest.mark.parametrize("n", range(4, 11))
    def test_rejection_sampler_rows(self, n):
        source = conditioned_adjacency_model(n)
        words, count = source._sample_rows(21, (1,), 0, 64)
        want = [source.sample(derive_rng(21, 1, idx)).bits for idx in range(64)]
        assert (bits_from_words(words, count), count) == (want, 64)


class TestLayoutGuard:
    def test_passes_on_this_numpy(self):
        for seed in SEEDS:
            assert rngstreams._layout_matches(np.random.PCG64(seed))

    def test_rejects_bytes_that_differ_from_the_public_state(self):
        assert not rngstreams._layout_matches(_OtherInc(5))

    def test_rejects_a_state_address_outside_the_object(self):
        outside = np.random.PCG64(5).ctypes.state_address
        fake = SimpleNamespace(ctypes=SimpleNamespace(state_address=outside))
        assert not rngstreams._layout_matches(fake)

    def test_mismatch_fails_the_self_check(self, layout_mismatch):
        assert not rngstreams._self_check()


class TestSelfCheck:
    def test_passes_on_this_numpy(self):
        assert rngstreams.BLOCK_SEEDING and rngstreams._self_check()

    def test_detects_wrong_state_words(self, corrupt_hash):
        assert not rngstreams._self_check()
        # the corruption is real: the fast path now gives other coins
        assert coin_rows(5, (), 0, 4, 3).tobytes() != reference_rows(5, (), 0, 4, 3).tobytes()

    @pytest.mark.parametrize("fault", ["corrupt_hash", "layout_mismatch"])
    def test_fallback_gives_the_same_bytes(self, fault, request, monkeypatch):
        request.getfixturevalue(fault)
        monkeypatch.setattr(rngstreams, "BLOCK_SEEDING", rngstreams._self_check())
        assert not rngstreams.BLOCK_SEEDING
        lo, hi = 2**32 - 4, 2**32 + 4
        for width in (0, 3, 90):
            got = coin_rows(7, (1,), lo, hi, width)
            assert got.tobytes() == reference_rows(7, (1,), lo, hi, width).tobytes()
        source = conditioned_adjacency_model(6)
        [(start, words, count)] = sample_parts(source, 7, (1,), 0, 40)
        assert (start, count) == (0, 40)
        assert bits_from_words(words, count) == [
            source.sample(derive_rng(7, 1, idx)).bits for idx in range(40)
        ]
        params = CouplingParams(0.3, adjacency_count_model(6))
        [(start, words, count)] = coupled_parts(params, 7, 0, 40)
        assert (start, count) == (0, 40)
        assert list(zip(*(bits_from_words(w, count) for w in words))) == [
            (t.g1.bits, t.g2.bits, t.u.bits)
            for t in (generate_coupled(params, derive_rng(7, idx)) for idx in range(40))
        ]
