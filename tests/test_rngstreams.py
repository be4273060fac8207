"""Block-seeded streams against the scalar reference ``derive_rng``, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probust import DomainError, conditioned_adjacency_model, derive_rng, rngstreams
from probust.coupling import CouplingParams, coupled_block, generate_coupled
from probust.models import adjacency_count_model, sample_block
from probust.rngstreams import block_rngs, coin_rows

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
            block_rngs(-1, (), 0, 3)


class TestBlockRngs:
    def test_draws_continue_each_stream(self):
        """Consecutive draws read on along each stream, as derive_rng's do."""
        rngs = block_rngs(9, (2,), 250, 262)
        for idx, rng in zip(range(250, 262), rngs):
            reference = derive_rng(9, 2, idx)
            for width in (3, 0, 45, 1):
                assert rng.random(width).tobytes() == reference.random(width).tobytes()

    def test_state_words_are_four_uint64(self):
        (rng,) = block_rngs(9, (), 0, 1)
        seq = rng.bit_generator.seed_seq
        assert seq.generate_state(4, np.uint64).dtype == np.uint64
        with pytest.raises(AssertionError):
            seq.generate_state(8)

    @pytest.mark.parametrize("n", range(4, 11))
    def test_rejection_sampler_rows(self, n):
        source = conditioned_adjacency_model(n)
        rows = source._sample_rows(21, (1,), 0, 64)
        want = [source.sample(derive_rng(21, 1, idx)).bits for idx in range(64)]
        assert rows == want


class TestSelfCheck:
    def test_passes_on_this_numpy(self):
        assert rngstreams.BLOCK_SEEDING and rngstreams._self_check()

    def test_detects_wrong_state_words(self, corrupt_hash):
        assert not rngstreams._self_check()
        # the corruption is real: the fast path now gives other coins
        assert coin_rows(5, (), 0, 4, 3).tobytes() != reference_rows(5, (), 0, 4, 3).tobytes()

    def test_fallback_gives_the_same_bytes(self, corrupt_hash, monkeypatch):
        monkeypatch.setattr(rngstreams, "BLOCK_SEEDING", rngstreams._self_check())
        lo, hi = 2**32 - 4, 2**32 + 4
        for width in (0, 3, 90):
            got = coin_rows(7, (1,), lo, hi, width)
            assert got.tobytes() == reference_rows(7, (1,), lo, hi, width).tobytes()
        source = conditioned_adjacency_model(6)
        assert list(sample_block(source, 7, (1,), 0, 40)) == [
            source.sample(derive_rng(7, 1, idx)).bits for idx in range(40)
        ]
        params = CouplingParams(0.3, adjacency_count_model(6))
        assert list(coupled_block(params, 7, 0, 40)) == [
            (t.g1.bits, t.g2.bits, t.u.bits)
            for t in (generate_coupled(params, derive_rng(7, idx)) for idx in range(40))
        ]
