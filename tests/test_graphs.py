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

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 12, 30, 64])
    def test_byte_and_hex_rows_spell_each_bitmask(self, n):
        space = EdgeSpace(n)
        draw = np.random.default_rng(n)
        bits = [0, space.full_mask] + [
            int.from_bytes(draw.bytes(space.m // 8 + 1), "little") & space.full_mask
            for _ in range(9)
        ]
        inputs = [bits, tuple(bits)] + ([np.array(bits, dtype=np.int64)] if space.m < 64 else [])
        for given_bits in inputs:
            raw = space.byte_rows(given_bits)
            assert raw.dtype == np.uint8 and raw.shape == (11, 8 if space.m < 64 else -(-space.m // 8))
            assert [int.from_bytes(row.tobytes(), "little") for row in raw] == bits
            text = space.hex_rows(given_bits)
            assert text.shape == (11, space.hex_width)
            assert [row.tobytes().decode() for row in text] == [format(b, space.hex_format) for b in bits]
        assert space.hex_rows([]).shape == (0, space.hex_width)

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
