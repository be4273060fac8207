import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from probust import (
    DomainError,
    EdgeSpace,
    Realization,
    SuffixHistory,
    adjacent_present_count,
    degree_histogram,
    edge_index,
    index_to_edge,
    union,
)
from probust.graphs import (
    bits_from_words,
    hex_from_words,
    words_from_bits,
    words_from_rows,
)
from probust import graphs
from probust.properties import _adjacency_words


def bits_strategy(m):
    return st.integers(min_value=0, max_value=(1 << m) - 1)


class TestEdgeIndex:
    def test_first_and_last_pair(self):
        space = EdgeSpace(4)
        assert edge_index(0, 1, space) == 1
        assert edge_index(2, 3, space) == 6 == space.m

    def test_hand_enumerated_order(self):
        # lexicographic at n=4: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        space = EdgeSpace(4)
        assert edge_index(0, 3, space) == 3
        assert index_to_edge(3, space) == (0, 3)

    def test_inverse_exhaustive_to_n_100(self):
        for n in range(1, 101):
            space = EdgeSpace(n)
            seen = set()
            for u in range(n):
                for v in range(u + 1, n):
                    i = edge_index(u, v, space)
                    assert 1 <= i <= space.m
                    assert index_to_edge(i, space) == (u, v)
                    seen.add(i)
            assert len(seen) == space.m

    @pytest.mark.parametrize("u,v", [(2, 2), (3, 1), (-1, 2), (0, 4)])
    def test_bad_pairs_rejected(self, u, v):
        with pytest.raises(DomainError):
            edge_index(u, v, EdgeSpace(4))

    def test_bad_index_rejected(self):
        with pytest.raises(DomainError):
            index_to_edge(0, EdgeSpace(4))
        with pytest.raises(DomainError):
            index_to_edge(7, EdgeSpace(4))

    def test_single_vertex_space_is_legal(self):
        space = EdgeSpace(1)
        assert space.m == 0
        assert Realization.empty(space).to_hex() == "0"


class TestUnion:
    def test_identity_and_merge(self):
        space = EdgeSpace(4)
        empty = Realization(space, 0)
        g = Realization(space, 0b101010)
        assert union(empty, g).bits == 0b101010
        assert union(Realization(space, 0b110000), Realization(space, 0b011000)).bits == 0b111000

    def test_mismatched_spaces(self):
        with pytest.raises(DomainError):
            union(Realization(EdgeSpace(3), 0), Realization(EdgeSpace(4), 0))

    @given(bits_strategy(10), bits_strategy(10), bits_strategy(10))
    def test_commutative_associative_idempotent(self, a, b, c):
        space = EdgeSpace(5)
        ga, gb, gc = (Realization(space, x) for x in (a, b, c))
        assert union(ga, gb) == union(gb, ga)
        assert union(union(ga, gb), gc) == union(ga, union(gb, gc))
        assert union(ga, ga) == ga

    def test_operator_matches_function(self):
        space = EdgeSpace(4)
        a, b = Realization(space, 0b1001), Realization(space, 0b0011)
        assert (a | b) == union(a, b)


class TestAdjacentPresentCount:
    def test_triangle(self):
        space = EdgeSpace(3)
        tri = Realization(space, space.full_mask)
        assert adjacent_present_count(tri, edge_index(0, 1, space)) == 2

    def test_empty(self):
        space = EdgeSpace(5)
        g = Realization.empty(space)
        assert all(adjacent_present_count(g, i) == 0 for i in range(1, space.m + 1))

    def test_complete_k4_hits_range_maximum(self):
        space = EdgeSpace(4)
        k4 = Realization.complete(space)
        for i in range(1, 7):
            assert adjacent_present_count(k4, i) == 4 == 2 * (space.n - 2)

    @given(st.integers(3, 7), st.data())
    def test_bounded_by_2_n_minus_2(self, n, data):
        space = EdgeSpace(n)
        g = Realization(space, data.draw(bits_strategy(space.m)))
        i = data.draw(st.integers(1, space.m))
        assert 0 <= adjacent_present_count(g, i) <= 2 * (n - 2)

    def test_excludes_the_edge_itself(self):
        space = EdgeSpace(4)
        one = Realization(space, 1)  # only edge (0,1)
        assert adjacent_present_count(one, 1) == 0


class TestAdjacencyMask:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 12, 30])
    def test_matches_pairwise_reference(self, n):
        space = EdgeSpace(n)
        ref = bf.ref_edge_adjacency(n)
        assert tuple(space.adjacency_mask(i) for i in range(1, space.m + 1)) == ref


class TestDegreeHistogram:
    def test_examples(self):
        assert degree_histogram(Realization.empty(EdgeSpace(5))) == {0: 5}
        assert degree_histogram(Realization.complete(EdgeSpace(4))) == {3: 4}
        space = EdgeSpace(3)
        path = Realization.from_edges(space, [(0, 1), (1, 2)])
        assert degree_histogram(path) == {1: 2, 2: 1}

    @given(st.integers(1, 8), st.data())
    def test_counts_and_handshake(self, n, data):
        space = EdgeSpace(n)
        g = Realization(space, data.draw(bits_strategy(space.m)))
        hist = degree_histogram(g)
        assert sum(hist.values()) == n
        assert sum(d * c for d, c in hist.items()) == 2 * g.edge_count()


@st.composite
def realizations(draw, n, max_density=1.0):
    """Any bitmask, or one drawn at a density (empty and complete included);
    with ``max_density`` < 1, only the latter, which bounds the edge count."""
    space = EdgeSpace(n)
    if max_density == 1.0 and draw(st.booleans()):
        return Realization(space, draw(bits_strategy(space.m)))
    density = draw(st.sampled_from([d for d in (0.0, 0.01, 0.1, 0.5, 1.0) if d <= max_density]))
    present = np.random.default_rng(draw(st.integers(0, 2**32))).random(space.m) < density
    packed = np.packbits(present, bitorder="little").tobytes()
    return Realization(space, int.from_bytes(packed, "little"))


class TestConversionsMatchLowBitLoops:
    """The numpy conversions against the low-bit loops they replaced, on
    both sides of the one-word limit (m = 55, 66, 78) and well past it."""

    @staticmethod
    def check(g):
        assert g.space.pairs == bf.ref_pairs(g.space.n)
        assert list(g.present_edges()) == bf.ref_present_edges(g)
        assert g.neighbor_masks == bf.ref_neighbor_masks(g)
        # same counts and the same key order
        assert list(degree_histogram(g).items()) == list(bf.ref_degree_histogram(g).items())

    @given(st.sampled_from([1, 2, 11, 12, 13, 64, 65]).flatmap(realizations))
    def test_word_boundary_and_n_64_65(self, g):
        self.check(g)

    @settings(max_examples=5)
    @given(realizations(1000, max_density=0.01))
    def test_n_1000(self, g):
        self.check(g)

    def test_endpoints_are_cached_and_narrow(self):
        space = EdgeSpace(30)
        u, v = space.endpoints
        assert space.endpoints[0] is u and u.dtype == np.int16
        assert list(zip(u.tolist(), v.tolist())) == list(bf.ref_pairs(30))


class TestRealizationSerialization:
    @given(st.integers(1, 9), st.data())
    def test_hex_round_trip(self, n, data):
        space = EdgeSpace(n)
        g = Realization(space, data.draw(bits_strategy(space.m)))
        assert Realization.from_hex(g.to_hex(), space) == g

    def test_hex_width_fixed(self):
        space = EdgeSpace(4)  # m=6 -> 2 hex digits
        assert Realization.empty(space).to_hex() == "00"
        assert Realization.complete(space).to_hex() == "3f"

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 11])  # an int64 holds at most 63 edges
    def test_hex_rows_spell_int64_bytes(self, n):
        """The exact table's CSV reads its row indices' int64 bytes."""
        space = EdgeSpace(n)
        draw = np.random.default_rng(n)
        bits = [0, space.full_mask] + [int(x) for x in draw.integers(0, 1 << space.m, 9)]
        raw = np.array(bits, dtype="<i8").view(np.uint8).reshape(-1, 8)
        text = space.hex_rows(raw)
        assert text.shape == (11, space.hex_width)
        assert [row.tobytes().decode() for row in text] == [format(b, space.hex_format) for b in bits]
        assert space.hex_rows(raw[:0]).shape == (0, space.hex_width)

    def test_from_hex_rejects_garbage(self):
        space = EdgeSpace(3)
        with pytest.raises(DomainError):
            Realization.from_hex("zz", space)
        with pytest.raises(DomainError):
            Realization.from_hex("ff", space)  # bits beyond m=3


class TestSuffixHistory:
    def test_empty_and_extend(self):
        space = EdgeSpace(4)
        h = SuffixHistory.empty_for(space)
        assert h.is_empty() and h.start == 7
        h2 = h.extend(1)  # decides edge 6
        assert h2.start == 6 and h2.value(6) == 1 and h2.present_count() == 1
        h3 = h2.extend(0)
        assert h3.value(5) == 0 and h3.present_count() == 1

    def test_validate_rejects_low_bits(self):
        space = EdgeSpace(4)
        with pytest.raises(DomainError):
            SuffixHistory(space, 5, 0b1).validate()

    def test_value_outside_window(self):
        space = EdgeSpace(4)
        h = SuffixHistory(space, 5, 0)
        with pytest.raises(DomainError):
            h.value(3)


def lane_masks(adj, g):
    """Graph g's neighbour masks, read off (n, n, W) adjacency words."""
    lanes = (adj[:, :, g // 64] >> np.uint64(g % 64)) & np.uint64(1)
    return tuple(sum(1 << u for u in np.flatnonzero(row).tolist()) for row in lanes)


class TestEdgeWords:
    """The one batch format, (m, W) edge words and a count, and its
    conversions, against the single-graph ones."""

    @staticmethod
    def rows_and_bits(space, count, seed):
        """(m, count) bool edge rows, each graph at its own density, and the
        graphs' bitmasks spelt bit by bit."""
        draw = np.random.default_rng(seed)
        rows = draw.random((space.m, count)) < draw.random(count)
        bits = [sum(1 << e for e in np.flatnonzero(rows[:, c]).tolist()) for c in range(count)]
        return rows, bits

    @pytest.mark.parametrize("n", [*range(1, 13), 30, 63, 64])
    def test_words_give_the_neighbor_masks(self, n):
        """Words from bool rows and from bitmasks (Python ints, and int64
        arrays below 64 edges) are equal, zero in the padding lanes, and
        scatter to adjacency equal to ``Realization.neighbor_masks``."""
        space = EdgeSpace(n)
        rows, bits = self.rows_and_bits(space, 129, n)
        for b in (0, 1, 63, 64, 65, 129):
            words = words_from_rows(rows[:, :b])
            assert words.dtype == np.uint64 and words.shape == (space.m, -(-b // 64)), b
            assert np.array_equal(words_from_bits(space, bits[:b]), words), b
            if space.m < 64:
                int64 = np.array(bits[:b], dtype=np.int64)
                assert np.array_equal(words_from_bits(space, int64), words), b
            if b % 64:
                assert not (words[:, -1] >> np.uint64(b % 64)).any(), b
            adj = _adjacency_words(space, words)
            want = [Realization(space, x).neighbor_masks for x in bits[:b]]
            assert [lane_masks(adj, g) for g in range(b)] == want, b

    @pytest.mark.parametrize("n", [1, 2, 4, 11, 12, 30, 64])
    def test_hex_rows_are_to_hex(self, n):
        space = EdgeSpace(n)
        rows, bits = self.rows_and_bits(space, 129, n)
        bits[:2] = [0, space.full_mask]
        words = words_from_bits(space, bits)
        for b in (0, 1, 63, 64, 65, 129):
            text = hex_from_words(space, words[:, : -(-b // 64)], b)
            assert text.shape == (b, space.hex_width), b
            want = [Realization(space, x).to_hex() for x in bits[:b]]
            assert [row.tobytes().decode() for row in text] == want, b

    @pytest.mark.parametrize("n", [1, 2, 11, 12, 30, 64])
    def test_bitmasks_round_trip(self, n):
        space = EdgeSpace(n)
        rows, bits = self.rows_and_bits(space, 129, n)
        for b in (0, 1, 63, 64, 65, 129):
            words = words_from_rows(rows[:, :b])
            assert bits_from_words(words, b) == bits[:b], b
            assert np.array_equal(words_from_bits(space, bits_from_words(words, b)), words), b

    def test_conversions_slice_their_temporaries(self, monkeypatch):
        """A conversion of many words gives the words of one slice at a time."""
        space = EdgeSpace(12)
        rows, bits = self.rows_and_bits(space, 1000, 12)
        words = words_from_rows(rows)
        monkeypatch.setattr(graphs, "CONVERT_BITS", 64 * space.m)  # one word per slice
        assert np.array_equal(words_from_bits(space, bits), words)
        assert bits_from_words(words, 1000) == bits
        assert [row.tobytes().decode() for row in hex_from_words(space, words, 1000)] == [
            Realization(space, x).to_hex() for x in bits
        ]
