import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import bruteforce as bf
from probust import properties
from probust.graphs import words_from_bits
from probust import (
    DomainError,
    EdgeSpace,
    Realization,
    UnsupportedScaleError,
    chromatic_number,
    derive_rng,
    diameter,
    er_realization,
    has_hamiltonian_cycle,
    is_connected,
    longest_cycle_length,
    max_clique_size,
    max_independent_set_size,
    max_matching_size,
    min_dominating_set_size,
    parse_property,
)
from probust.properties import (
    BLOCK_WORDS,
    CHROMATIC_BLOCK_MAX_N,
    CLIQUE_MAX_N,
    REACH_BLOCK_MAX_N,
    SUBSET_BLOCK_MAX_N,
    THRESHOLD_FAMILIES,
    PropertyOracle,
    certify_monotone,
    clique_oracle,
    connected_oracle,
    chromatic_oracle,
    decide_bits,
    diameter_oracle,
    dominating_oracle,
    exactly_edges_oracle,
    greedy_clique_size,
    greedy_coloring_size,
    greedy_dominating_set_size,
    hamiltonian_oracle,
    has_clique_at_least,
    has_diameter_at_most,
    matching_oracle,
)


def graph(n, edges):
    return Realization.from_edges(EdgeSpace(n), edges)


def cycle(n):
    return graph(n, [(i, (i + 1) % n) if i + 1 < n else (0, n - 1) for i in range(n)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return graph(n, [(0, i) for i in range(1, n)])


def complete(n):
    return Realization.complete(EdgeSpace(n))


def empty(n):
    return Realization.empty(EdgeSpace(n))


def random_graph(n, rng, p=None):
    space = EdgeSpace(n)
    return er_realization(space, rng.random() if p is None else p, rng)


class TestClique:
    def test_examples(self):
        assert max_clique_size(complete(4)) == 4
        assert max_clique_size(cycle(5)) == 2
        assert max_clique_size(empty(5)) == 1

    def test_thresholded(self):
        assert has_clique_at_least(complete(4), 4)
        assert not has_clique_at_least(empty(4), 2)
        assert not has_clique_at_least(cycle(5), 3)
        assert has_clique_at_least(empty(3), 1)
        assert not has_clique_at_least(empty(3), 4)

    def test_against_brute_force_n6(self, rng):
        for _ in range(150):
            g = random_graph(6, rng)
            assert max_clique_size(g) == bf.brute_max_clique(g)


class TestCliqueScaleCap:
    @pytest.mark.parametrize(
        "decide", [max_clique_size, lambda g: has_clique_at_least(g, 2), max_independent_set_size],
        ids=["max_clique_size", "has_clique_at_least", "max_independent_set_size"],
    )
    def test_capped_above_512(self, decide):
        assert CLIQUE_MAX_N == 512
        decide(empty(512))
        with pytest.raises(UnsupportedScaleError, match="capped at n=512"):
            decide(empty(513))

    @pytest.mark.parametrize(
        "oracle,cap",
        [(clique_oracle(1), 512), (clique_oracle(4), 512), (hamiltonian_oracle(), 20)],
        ids=["clique>=1", "clique>=4", "ham"],
    )
    def test_check_scale_refuses_what_decide_refuses(self, oracle, cap):
        oracle.check_scale(cap)
        oracle.decide(empty(cap))
        with pytest.raises(UnsupportedScaleError) as before:
            oracle.check_scale(cap + 1)
        with pytest.raises(UnsupportedScaleError) as at_decide:
            oracle.decide(empty(cap + 1))
        assert str(before.value) == str(at_decide.value)

    def test_families_with_k_dependent_caps_have_no_check(self):
        # chrom>=1, match>=0 and domset<=n answer without their capped search
        for family in ("chrom", "match", "diam", "domset"):
            assert parse_property(f"{family}{THRESHOLD_FAMILIES[family][0]}1").check_scale is None
        assert chromatic_oracle(1).decide(empty(30))
        assert connected_oracle().check_scale is None


class TestIndependentSet:
    def test_examples(self):
        assert max_independent_set_size(empty(5)) == 5
        assert max_independent_set_size(complete(5)) == 1
        assert max_independent_set_size(cycle(5)) == 2

    def test_complement_duality(self, rng):
        for _ in range(100):
            g = random_graph(7, rng)
            assert max_independent_set_size(g) == max_clique_size(g.complement())


class TestChromatic:
    def test_examples(self):
        assert chromatic_number(complete(4)) == 4
        assert chromatic_number(cycle(5)) == 3
        assert chromatic_number(cycle(6)) == 2
        assert chromatic_number(path(4)) == 2
        assert chromatic_number(empty(5)) == 1

    def test_at_least_clique(self, rng):
        for _ in range(100):
            g = random_graph(7, rng)
            assert chromatic_number(g) >= max_clique_size(g)

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            chromatic_number(empty(21))


class TestDominatingSet:
    def test_examples(self):
        assert min_dominating_set_size(star(5)) == 1
        assert min_dominating_set_size(empty(4)) == 4
        assert min_dominating_set_size(cycle(5)) == 2

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            min_dominating_set_size(empty(27))


class TestDiameter:
    def test_examples(self):
        assert diameter(path(3)) == 2
        assert diameter(complete(5)) == 1
        # components convention: the max over component diameters
        assert diameter(graph(4, [(0, 1), (2, 3)])) == 1
        assert diameter(empty(1)) == 0
        assert diameter(empty(6)) == 0

    def test_large_n_route_agrees(self, rng):
        # past one word of edges (n >= 12) diameter takes the bit-parallel route
        for _ in range(10):
            g = random_graph(40, rng, p=0.15)
            assert diameter(g) == bf.nx_diameter(g)

    @staticmethod
    def components(n, sizes, density, seed):
        """Disjoint random graphs on consecutive vertex blocks of the given
        sizes; the vertices after the last block stay isolated."""
        rng = np.random.default_rng(seed)
        edges, start = [], 0
        for size in sizes:
            block = range(start, min(start + size, n))
            edges += [(u, v) for u in block for v in block if u < v and rng.random() < density]
            start += size
        return graph(n, edges)

    @given(
        st.integers(12, 200),
        st.lists(st.integers(1, 80), max_size=4),
        st.sampled_from([0.0, 0.02, 0.1, 0.5, 1.0]),
        st.integers(0, 2**32),
    )
    def test_bit_parallel_vs_networkx(self, n, sizes, density, seed):
        g = self.components(n, sizes or [n], density, seed)
        assert diameter(g) == bf.nx_diameter(g)

    @pytest.mark.parametrize("budget", [1, 5, 64])
    def test_gather_chunks(self, monkeypatch, budget):
        # budgets below one vertex's neighbour rows, and a few vertices per chunk
        import probust.properties as props

        rng = np.random.default_rng(5)
        graphs = [self.components(130, [40, 3, 60], 0.1, 1), complete(70), empty(90)]
        graphs += [random_graph(150, rng, p) for p in (0.01, 0.05, 0.3)]
        want = [diameter(g) for g in graphs]
        monkeypatch.setattr(props, "_DIAMETER_GATHER_WORDS", budget)
        assert [diameter(g) for g in graphs] == want == [bf.nx_diameter(g) for g in graphs]

    def test_thresholded_requires_connectivity(self):
        two_edges = graph(4, [(0, 1), (2, 3)])
        assert diameter(two_edges) == 1
        assert not has_diameter_at_most(two_edges, 2)
        assert has_diameter_at_most(path(3), 2)
        assert not has_diameter_at_most(path(4), 2)


class TestHamiltonian:
    def test_examples(self):
        assert has_hamiltonian_cycle(cycle(4))
        assert not has_hamiltonian_cycle(star(4))
        k4_minus = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert has_hamiltonian_cycle(k4_minus)
        assert not has_hamiltonian_cycle(complete(2))

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            has_hamiltonian_cycle(empty(21))


class TestMatching:
    def test_examples(self):
        assert max_matching_size(cycle(4)) == 2
        assert max_matching_size(star(5)) == 1
        assert max_matching_size(cycle(5)) == 2

    def test_search_vs_brute_force(self, rng):
        for _ in range(60):
            g = random_graph(9, rng)
            assert max_matching_size(g) == bf.brute_max_matching(g)

    def test_search_vs_networkx_up_to_the_cap(self, rng):
        import time

        import networkx as nx

        def blossom(g):
            graph = nx.Graph()
            graph.add_nodes_from(range(g.space.n))
            graph.add_edges_from(g.space.pairs[i - 1] for i in g.present_edges())
            return len(nx.max_weight_matching(graph, maxcardinality=True))

        graphs = [random_graph(n, rng, p) for n in range(20, 27) for p in (0.05, 0.1, 0.3)]
        # unbalanced complete bipartite graphs never reach |S|//2, so the
        # search visits the most subsets on them
        for side in (set(range(5)), set(range(0, 24, 2))):  # K5,21 and K12,14
            graphs.append(
                graph(26, [(u, v) for u in range(26) for v in range(u + 1, 26)
                           if (u in side) != (v in side)])
            )
        for g in graphs:
            start = time.perf_counter()
            size = max_matching_size(g)
            assert time.perf_counter() - start < 5.0
            assert size == blossom(g)
        assert [max_matching_size(g) for g in graphs[-2:]] == [5, 12]

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            max_matching_size(empty(27))


class TestLongestCycle:
    def test_examples(self):
        assert longest_cycle_length(cycle(5)) == 5
        assert longest_cycle_length(path(5)) == 0
        assert longest_cycle_length(star(6)) == 0
        assert longest_cycle_length(complete(4)) == 4

    def test_scale_cap(self):
        with pytest.raises(UnsupportedScaleError):
            longest_cycle_length(empty(17))


class TestConnected:
    def test_examples(self):
        assert is_connected(complete(2))
        assert not is_connected(empty(2))
        assert is_connected(path(5))
        assert is_connected(empty(1))


ORACLE_PAIRS = [
    ("clique", max_clique_size, bf.brute_max_clique),
    ("independent-set", max_independent_set_size, bf.brute_max_independent_set),
    ("chromatic", chromatic_number, bf.brute_chromatic),
    ("dominating-set", min_dominating_set_size, bf.brute_min_dominating),
    ("diameter", diameter, bf.brute_diameter),
    ("hamiltonian", has_hamiltonian_cycle, bf.brute_hamiltonian),
    ("matching", max_matching_size, bf.brute_max_matching),
    ("longest-cycle", longest_cycle_length, bf.brute_longest_cycle),
    ("connected", is_connected, bf.brute_connected),
]


class TestBruteForceAgreement:
    @pytest.mark.parametrize("name,ours,brute", ORACLE_PAIRS, ids=[p[0] for p in ORACLE_PAIRS])
    def test_exhaustive_small_n(self, name, ours, brute):
        for n in range(1, 5):
            space = EdgeSpace(n)
            for bits in range(1 << space.m):
                g = Realization(space, bits)
                assert ours(g) == brute(g), f"{name} differs on n={n} bits={bits:#x}"

    @pytest.mark.parametrize("name,ours,brute", ORACLE_PAIRS, ids=[p[0] for p in ORACLE_PAIRS])
    def test_random_n8(self, name, ours, brute, rng):
        for _ in range(40):
            g = random_graph(8, rng)
            assert ours(g) == brute(g), f"{name} differs on {g.to_hex()}"


# the acceptance gate's seed and stream branches for criteria 6a-6c
ACCEPTANCE_SEED = 20240817


class TestAcceptanceSizeAgreement:
    """The oracles behind the C6 trend means, on the very realizations the
    gate draws, against solver-backed references (a subset where slow)."""

    def test_dominating_set_against_milp_c6b(self):
        space = EdgeSpace(26)
        for idx in range(100):
            g = er_realization(space, 0.5, derive_rng(ACCEPTANCE_SEED, 61, idx))
            assert min_dominating_set_size(g) == bf.milp_min_dominating(g), idx

    def test_diameter_against_networkx_c6c(self):
        space = EdgeSpace(1000)
        for idx in range(5):
            g = er_realization(space, 10 / 999, derive_rng(ACCEPTANCE_SEED, 62, idx))
            assert diameter(g) == bf.nx_diameter(g), idx

    def test_clique_against_networkx_c6a(self):
        space = EdgeSpace(256)
        for idx in range(3):
            g = er_realization(space, 0.5, derive_rng(ACCEPTANCE_SEED, 60, idx))
            assert max_clique_size(g) == bf.nx_max_clique(g), idx


SHIPPED_MONOTONE = [
    clique_oracle(3),
    chromatic_oracle(3),
    matching_oracle(2),
    diameter_oracle(2),
    dominating_oracle(2),
    hamiltonian_oracle(),
    connected_oracle(),
]


class TestCertification:
    @pytest.mark.parametrize("oracle", SHIPPED_MONOTONE, ids=[o.name for o in SHIPPED_MONOTONE])
    def test_shipped_oracles_pass(self, oracle):
        res = certify_monotone(oracle, 7, 3000, np.random.default_rng(101))
        assert res.ok, f"counterexample: {res.counterexample}"
        assert res.productive_trials > 0

    def test_planted_non_monotone_is_refuted(self):
        res = certify_monotone(exactly_edges_oracle(3), 7, 10_000, np.random.default_rng(55))
        assert not res.ok
        g, g_plus, edge = res.counterexample
        assert g.edge_count() == 3 and g_plus.edge_count() == 4
        assert g_plus.bits == g.bits | (1 << (edge - 1))

    def test_negative_trials_rejected(self):
        with pytest.raises(DomainError, match="trials must be >= 0"):
            certify_monotone(connected_oracle(), 6, -5, np.random.default_rng(1))

    def test_components_convention_diameter_would_fail(self):
        # the reason the shipped diam<=k oracle demands connectivity
        raw_form = PropertyOracle("raw-diam<=2", lambda g: diameter(g) <= 2)
        res = certify_monotone(raw_form, 7, 10_000, np.random.default_rng(7))
        assert not res.ok

    @pytest.mark.parametrize(
        "oracle,n,trials",
        [
            (connected_oracle(), 1, 50),
            (clique_oracle(3), 5, 400),
            (exactly_edges_oracle(3), 5, 400),
            (matching_oracle(2), 7, 400),
            (exactly_edges_oracle(3), 7, 400),
            (PropertyOracle("raw-diam<=2", lambda g: diameter(g) <= 2), 7, 400),
            (matching_oracle(4), 10, 300),
            (chromatic_oracle(4), 10, 100),  # block decider refuses n = 10: scalar decide
            (matching_oracle(5), 12, 100),  # block decider refuses n = 12: scalar decide
            (connected_oracle(), 12, 100),  # block decider over masks of m = 66 bits
            (diameter_oracle(3), 30, 100),
        ],
        ids=lambda v: getattr(v, "name", str(v)),
    )
    def test_follows_the_trial_layout(self, oracle, n, trials):
        res = certify_monotone(oracle, n, trials, np.random.default_rng(n))
        ok, ran, productive, example = bf.ref_certify(oracle, n, trials, np.random.default_rng(n))
        assert (res.ok, res.trials, res.productive_trials) == (ok, ran, productive)
        if example is not None:
            before, after, edge = res.counterexample
            assert (before.bits, after.bits, edge) == example

    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize(
        "oracle", [matching_oracle(3), exactly_edges_oracle(3)], ids=lambda o: o.name
    )
    def test_part_and_call_sizes_change_nothing(self, oracle, n, monkeypatch):
        default = certify_monotone(oracle, n, 2000, derive_rng(7, 0, n))
        monkeypatch.setattr(properties, "_part_rows", lambda width: 7)
        monkeypatch.setattr(properties, "BLOCK_WORDS", 1)  # one word per call
        assert certify_monotone(oracle, n, 2000, derive_rng(7, 0, n)) == default

    @pytest.mark.parametrize("oracle,n", [(clique_oracle(3), 600), (hamiltonian_oracle(), 25)])
    def test_refuses_over_cap_before_drawing(self, oracle, n):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(UnsupportedScaleError):
            certify_monotone(oracle, n, 10, rng)
        assert rng.bit_generator.state == state

    def test_builds_only_the_counterexample(self, realizations_built):
        assert certify_monotone(matching_oracle(4), 10, 2000, derive_rng(7, 0, 0)).ok
        assert realizations_built == []
        res = certify_monotone(exactly_edges_oracle(3), 10, 10_000, derive_rng(7, 0, 0))
        before, after, _ = res.counterexample
        assert realizations_built == [before.bits, after.bits]


def every_shipped_oracle(n):
    """Every shipped factory at every threshold from 0 to n + 1, the plant too."""
    oracles = [hamiltonian_oracle(), connected_oracle()]
    for k in range(n + 2):
        oracles += [clique_oracle(k), chromatic_oracle(k), matching_oracle(k),
                    diameter_oracle(k), dominating_oracle(k), exactly_edges_oracle(k)]
    return oracles


def reach_oracles(n, ks=None):
    """``connected``, and ``diam<=k`` at every k from 0 to n + 1 or at ``ks``:
    the block deciders that hold no subset table."""
    return [connected_oracle()] + [diameter_oracle(k) for k in (ks or range(n + 2))]


def accepts(oracle, n):
    """Whether the oracle's block decider takes n vertices."""
    try:
        oracle.block_words(n)
    except UnsupportedScaleError:
        return False
    return True


def random_bits(space, count, rng):
    """``count`` random bitmasks as Python ints, each graph at its own density."""
    present = rng.random((count, space.m)) < rng.random((count, 1))
    return [int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in present]


def long_bits(space, count, rng):
    """Bitmasks of connected graphs whose diameters spread over 1..n-1: a path
    through the vertices in a random order, plus up to n / 2 random chords."""
    n = space.n
    out = []
    for _ in range(count):
        order = rng.permutation(n).tolist()
        edges = list(zip(order, order[1:]))
        for _ in range(int(rng.random() ** 2 * n / 2)):
            u, v = rng.choice(n, 2, replace=False).tolist()
            edges.append((u, v))
        out.append(Realization.from_edges(space, set(map(tuple, map(sorted, edges)))).bits)
    return out


def block_of(space, graphs):
    """The (n, n, W) adjacency words of some realizations, graph g in lane g,
    read off their neighbour masks: bit g % 64 of word [v, u, g // 64] is bit
    u of graph g's mask of v."""
    n, w = space.n, -(-len(graphs) // 64)
    masks = np.zeros((64 * w, n), dtype=np.uint64)
    rows = np.array([g.neighbor_masks for g in graphs], dtype=np.uint64)
    masks[: len(graphs)] = rows.reshape(-1, n)
    bits = (masks[:, :, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)  # [g, v, u]
    lanes = np.packbits(bits.astype(np.uint8), axis=0, bitorder="little")  # [byte, v, u]
    return np.ascontiguousarray(lanes.transpose(1, 2, 0)).view("<u8")


def decide_masks(oracle, space, bits):
    """``decide_bits`` on the graphs whose bitmasks are ``bits``, read
    through the from-bitmasks conversion."""
    return decide_bits(oracle, space, words_from_bits(space, bits), len(bits))


class TestDecideBlock:
    """Each shipped oracle's block decider equals its scalar ``decide``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_equals_decide_on_every_realization(self, n):
        space = EdgeSpace(n)
        graphs = [Realization(space, bits) for bits in range(1 << space.m)]
        words = block_of(space, graphs)
        for oracle in every_shipped_oracle(n):
            got = oracle.decide_block(words)
            assert got.dtype == bool and got.shape == (64 * words.shape[2],), oracle.name
            want = [bool(oracle.decide(g)) for g in graphs]
            assert got[: len(graphs)].tolist() == want, oracle.name

    @pytest.mark.parametrize("n,count", [(7, 20_000), (9, 2000), (SUBSET_BLOCK_MAX_N, 2000)])
    def test_equals_decide_on_random_graphs(self, n, count):
        """Above CHROMATIC_BLOCK_MAX_N the chromatic block decider refuses,
        and ``chrom`` is checked through ``decide_bits``'s scalar path."""
        space = EdgeSpace(n)
        rng = np.random.default_rng(2024)
        present = rng.random((count, space.m)) < rng.random((count, 1))  # any density
        bits = (present.astype(np.int64) << np.arange(space.m)).sum(axis=1)
        graphs = [Realization(space, b) for b in bits.tolist()]
        parts = [graphs[lo : lo + 1000] for lo in range(0, count, 1000)]  # 2^n table rows per graph
        blocks = [block_of(space, part) for part in parts]
        for oracle in every_shipped_oracle(n):
            want = [bool(oracle.decide(g)) for g in graphs]
            if oracle.name.startswith("chrom") and n > CHROMATIC_BLOCK_MAX_N:
                with pytest.raises(UnsupportedScaleError):
                    oracle.decide_block(blocks[0])
                got = decide_masks(oracle, space, bits)
            else:
                got = np.concatenate([
                    oracle.decide_block(block)[: len(part)] for block, part in zip(blocks, parts)
                ])
            assert got.tolist() == want, oracle.name

    @pytest.mark.parametrize("n", [11, 12, 30, 63, REACH_BLOCK_MAX_N])
    def test_reach_deciders_equal_decide_at_every_k(self, n):
        """Random graphs at any density, and connected ones whose diameters
        spread over 1..n-1, at every threshold from 0 to n + 1."""
        space = EdgeSpace(n)
        rng = np.random.default_rng(n)
        bits = random_bits(space, 40, rng) + long_bits(space, 40, rng)
        graphs = [Realization(space, b) for b in bits]
        words = block_of(space, graphs)
        for oracle in reach_oracles(n):
            got = oracle.decide_block(words)
            assert got.dtype == bool and got.shape == (64 * words.shape[2],), oracle.name
            assert got[: len(graphs)].tolist() == [bool(oracle.decide(g)) for g in graphs], (
                oracle.name)

    @pytest.mark.parametrize("n", [7, SUBSET_BLOCK_MAX_N, 30, REACH_BLOCK_MAX_N])
    def test_every_lane_and_block_size(self, n):
        """The deciders hold 64 graphs per word, the last word padded: each
        graph is decided alike in a block of the first b graphs and in one of
        the last b, so at another lane, for b around the word size, and each
        padding lane holds the edgeless graph's decision. Above
        SUBSET_BLOCK_MAX_N only the reach deciders take n."""
        space = EdgeSpace(n)
        rng = np.random.default_rng(64 + n)
        bits = random_bits(space, 129, rng)
        graphs = [Realization(space, b) for b in bits]
        if n > SUBSET_BLOCK_MAX_N:
            bits[::3] = long_bits(space, 43, rng)
            graphs = [Realization(space, b) for b in bits]
            oracles = reach_oracles(n, ks=[0, 1, 2, 3, n // 2, n - 1, n + 1])
        else:
            oracles = every_shipped_oracle(n)
        for oracle in oracles:
            if oracle.name.startswith("chrom") and n > CHROMATIC_BLOCK_MAX_N:
                continue  # refused, as test_equals_decide_on_random_graphs checks
            want = [bool(oracle.decide(g)) for g in graphs]
            edgeless = bool(oracle.decide(Realization(space, 0)))
            for b in (0, 1, 63, 64, 65, 129):
                for lo in (0, 129 - b):
                    got = oracle.decide_block(block_of(space, graphs[lo : lo + b]))
                    assert got.dtype == bool, (oracle.name, b, lo)
                    assert got[:b].tolist() == want[lo : lo + b], (oracle.name, b, lo)
                    assert (got[b:] == edgeless).all(), (oracle.name, b, lo)

    @pytest.mark.parametrize("n", [*range(1, SUBSET_BLOCK_MAX_N + 1), 11, 12, 30, 63, 64])
    def test_words_are_the_neighbor_masks(self, n):
        """Bit for bit, from Python ints of any width and, below one machine
        word of edges, from int64 arrays."""
        space = EdgeSpace(n)
        bits = random_bits(space, 129, np.random.default_rng(n))
        for b in (0, 1, 63, 64, 65, 129):
            words = properties._adjacency_words(space, words_from_bits(space, bits[:b]))
            graphs = [Realization(space, x) for x in bits[:b]]
            assert words.dtype == np.uint64 and words.shape == (n, n, -(-b // 64)), b
            assert np.array_equal(words, block_of(space, graphs)), b
            if space.m < 64:
                int64 = words_from_bits(space, np.array(bits[:b], dtype=np.int64))
                int64 = properties._adjacency_words(space, int64)
                assert np.array_equal(int64, words), b

    def test_deciders_refuse_above_their_caps(self):
        words = {n: block_of(EdgeSpace(n), [Realization.empty(EdgeSpace(n))]) for n in (9, 11, 65)}
        refusals = [
            (chromatic_oracle(3), 9),
            (clique_oracle(3), 11),
            (matching_oracle(2), 11),
            (dominating_oracle(2), 11),
            (hamiltonian_oracle(), 11),
            (connected_oracle(), 65),
            (diameter_oracle(2), 65),
        ]
        for oracle, n in refusals:
            with pytest.raises(UnsupportedScaleError, match=f"caps at n={n - 1}, got {n}"):
                oracle.decide_block(words[n])
            with pytest.raises(UnsupportedScaleError, match=f"caps at n={n - 1}, got {n}"):
                oracle.block_words(n)
            assert accepts(oracle, n - 1), oracle.name


class TestDecideBits:
    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_equals_decide_for_every_shipped_oracle(self, n):
        space = EdgeSpace(n)
        rng = np.random.default_rng(n)
        bits = random_bits(space, 300, rng)
        graphs = [Realization(space, b) for b in bits]
        for oracle in every_shipped_oracle(n):
            got = decide_masks(oracle, space, bits)
            assert got.dtype == bool and got.shape == (len(bits),), oracle.name
            assert got.tolist() == [bool(oracle.decide(g)) for g in graphs], oracle.name

    def test_keeps_masks_on_both_sides_of_bit_63_exact(self):
        # numpy promotes [1, 2^63] to float64; neither path may
        space = EdgeSpace(12)
        bits = [1, 1 << 63, (1 << 63) | 1]
        graphs = [Realization(space, b) for b in bits]
        for oracle in every_shipped_oracle(12):
            got = decide_masks(oracle, space, bits)
            assert got.tolist() == [bool(oracle.decide(g)) for g in graphs], oracle.name

    @pytest.mark.parametrize("n", [9, 11, 65])
    def test_refusing_decider_builds_no_words(self, n, monkeypatch):
        """An oracle whose block decider refuses n is decided one graph at a
        time, and no adjacency words are built for it."""
        space = EdgeSpace(n)
        bits = [0, (1 << space.m) - 1, 1 << (space.m - 1)]
        graphs = [Realization(space, b) for b in bits]

        def unbuilt(space, bits):
            raise AssertionError("adjacency words built for a refusing decider")

        def refuse(adj):
            raise AssertionError("block decider called at an n it refuses")

        monkeypatch.setattr(properties, "_adjacency_words", unbuilt)
        oracles = every_shipped_oracle(n) if n < 65 else reach_oracles(n, ks=[0, 2, n + 1])
        refusing = [o for o in oracles if not accepts(o, n)]
        families = {o.name.rstrip("0123456789") for o in refusing}
        assert families == {
            9: {"chrom>="},
            11: {"chrom>=", "clique>=", "match>=", "domset<=", "ham"},
            65: {"connected", "diam<="},
        }[n]
        for oracle in refusing:
            got = decide_masks(dataclasses.replace(oracle, decide_block=refuse), space, bits)
            assert got.tolist() == [bool(oracle.decide(g)) for g in graphs], oracle.name

    # graphs per call at n = 8, 64 * max(1, bound // block_words(8)), by family
    CALL_GRAPHS = {
        BLOCK_WORDS: {"chrom": 1024, "clique": 65536, "match": 65536, "ham": 8192,
                      "domset": 8192, "connected": 262144, "diam": 32768, "exactly": 32768},
        1 << 12: {"chrom": 64, "clique": 1024, "match": 1024, "ham": 128, "domset": 128,
                  "connected": 4096, "diam": 512, "exactly": 512},
    }

    @pytest.mark.parametrize("bound", sorted(CALL_GRAPHS))
    def test_splits_any_batch_into_block_calls(self, bound, monkeypatch):
        """Each call holds as many words as keep its decider's largest table
        within the bound: chrom's calls at the real bound are 1024 graphs at
        n = 8, the size they had under the former 2^18 >> n rule."""
        monkeypatch.setattr(properties, "BLOCK_WORDS", bound)
        space = EdgeSpace(8)
        rng = np.random.default_rng(8)
        present = rng.random((5000, space.m)) < rng.random((5000, 1))
        bits = (present.astype(np.int64) << np.arange(space.m)).sum(axis=1)
        graphs = [Realization(space, b) for b in bits.tolist()]
        words = properties._adjacency_words
        for oracle in [*SHIPPED_MONOTONE, exactly_edges_oracle(12)]:
            sizes, calls = [], []

            def counted(adj, decide_block=oracle.decide_block):
                calls.append(adj.shape)
                return decide_block(adj)

            def built(space, part):
                sizes.append(part.shape[1])
                return words(space, part)

            monkeypatch.setattr(properties, "_adjacency_words", built)
            got = decide_masks(dataclasses.replace(oracle, decide_block=counted), space, bits)
            assert got.tolist() == [bool(oracle.decide(g)) for g in graphs], oracle.name
            step = self.CALL_GRAPHS[bound][oracle.name.split(">")[0].split("<")[0].split("-")[0]]
            want = [step] * (5000 // step) + ([5000 % step] if 5000 % step else [])
            assert sizes == [-(-size // 64) for size in want], oracle.name
            assert calls == [(8, 8, -(-size // 64)) for size in want], oracle.name

    @pytest.mark.parametrize("n", [6, 10, 30])
    def test_decisions_do_not_depend_on_the_bound(self, n, monkeypatch):
        space = EdgeSpace(n)
        bits = random_bits(space, 300, np.random.default_rng(n))
        oracles = every_shipped_oracle(n) if n <= SUBSET_BLOCK_MAX_N else reach_oracles(n)
        default = [decide_masks(oracle, space, bits) for oracle in oracles]
        monkeypatch.setattr(properties, "BLOCK_WORDS", 1)  # one word per call
        for oracle, want in zip(oracles, default):
            assert np.array_equal(decide_masks(oracle, space, bits), want), oracle.name

    @pytest.mark.parametrize("n,count", [(6, 5000), (10, 5000), (30, 1000), (64, 300)])
    def test_no_call_exceeds_the_bound(self, n, count):
        """Every call's words times its decider's stated table size stay within
        BLOCK_WORDS, and the memory a call allocates, traced, within four
        tables of that size: the statement is honest."""
        space = EdgeSpace(n)
        bits = random_bits(space, count, np.random.default_rng(n))
        oracles = [hamiltonian_oracle(), connected_oracle(), exactly_edges_oracle(3)]
        for k in (2, 3, n // 2):
            oracles += [factory(k) for factory in (clique_oracle, chromatic_oracle,
                                                   matching_oracle, diameter_oracle,
                                                   dominating_oracle)]
        checked = 0
        for oracle in oracles:
            if not accepts(oracle, n):
                continue
            table = oracle.block_words(n)
            calls = []

            def traced(adj, decide_block=oracle.decide_block):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                got = decide_block(adj)
                calls.append((adj.shape[2], tracemalloc.get_traced_memory()[1] - start))
                return got

            tracemalloc.start()
            try:
                decide_masks(dataclasses.replace(oracle, decide_block=traced), space, bits)
            finally:
                tracemalloc.stop()
            assert calls, oracle.name
            for w, peak in calls:
                assert w * table <= BLOCK_WORDS or w == 1, (oracle.name, w)
                assert peak <= 4 * 8 * w * table, (oracle.name, w, peak)
            checked += 1
        assert checked >= {6: 17, 10: 14, 30: 5, 64: 5}[n]


class TestPropertyGrammar:
    @pytest.mark.parametrize(
        "text",
        ["clique>=3", "chrom>=4", "match>=2", "diam<=2", "domset<=3", "ham", "connected",
         "exactly-3-edges"],
    )
    def test_round_trip(self, text):
        oracle = parse_property(text)
        assert oracle.name == text
        again = parse_property(oracle.name)
        assert again.name == oracle.name

    @pytest.mark.parametrize("bad", ["clique>3", "diam>=2", "clique<=2", "nosuch", "", "ham "])
    def test_rejects(self, bad):
        if bad == "ham ":
            assert parse_property(bad).name == "ham"  # whitespace tolerated
        else:
            with pytest.raises(DomainError):
                parse_property(bad)

    @given(st.sampled_from(["clique", "chrom", "match"]), st.integers(1, 9))
    def test_threshold_round_trip_up(self, name, k):
        oracle = parse_property(f"{name}>={k}")
        assert oracle.threshold == k and oracle.name == f"{name}>={k}"

    @given(st.sampled_from(["diam", "domset"]), st.integers(1, 9))
    def test_threshold_round_trip_down(self, name, k):
        oracle = parse_property(f"{name}<={k}")
        assert oracle.threshold == k and oracle.name == f"{name}<={k}"

    def test_every_family_round_trips(self):
        spellings = [(clique_oracle, "clique>="), (chromatic_oracle, "chrom>="),
                     (matching_oracle, "match>="), (diameter_oracle, "diam<="),
                     (dominating_oracle, "domset<=")]
        assert {prefix[:-2] for _, prefix in spellings} == set(THRESHOLD_FAMILIES)
        oracles = [hamiltonian_oracle(), connected_oracle()]
        oracles += [exactly_edges_oracle(k) for k in range(10)]
        for factory, prefix in spellings:
            for k in range(10):
                oracle = factory(k)
                assert oracle.name == f"{prefix}{k}" and oracle.threshold == k
                oracles.append(oracle)
        for oracle in oracles:
            assert parse_property(oracle.name).name == oracle.name

    def test_decides_match_quantities(self, rng):
        for _ in range(50):
            g = random_graph(6, rng)
            assert parse_property("clique>=3").decide(g) == (max_clique_size(g) >= 3)
            assert parse_property("chrom>=3").decide(g) == (chromatic_number(g) >= 3)
            assert parse_property("match>=2").decide(g) == (max_matching_size(g) >= 2)
            assert parse_property("domset<=2").decide(g) == (min_dominating_set_size(g) <= 2)
            assert parse_property("diam<=2").decide(g) == (
                is_connected(g) and diameter(g) <= 2
            )


class TestMonotonePropertyDirect:
    @given(st.integers(0, (1 << 15) - 1), st.integers(0, (1 << 15) - 1))
    def test_adding_edges_preserves(self, bits, extra):
        space = EdgeSpace(6)
        g = Realization(space, bits)
        g_sup = Realization(space, bits | extra)
        for oracle in SHIPPED_MONOTONE:
            if oracle.decide(g):
                assert oracle.decide(g_sup), oracle.name


class TestGreedyBounds:
    def test_greedy_brackets_exact(self, rng):
        for _ in range(60):
            g = random_graph(9, rng)
            assert greedy_clique_size(g) <= max_clique_size(g)
            assert greedy_coloring_size(g) >= chromatic_number(g)
            assert greedy_dominating_set_size(g) >= min_dominating_set_size(g)
