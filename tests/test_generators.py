import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degex
from degex import generators
from degex.combinatorics import binom, ksubsets
from degex.degree import min_degree
from degex.errors import ValidationError
from degex.generators import (
    balanced_partition,
    complete,
    deletion_bound,
    erdos_renyi,
    partition_deletion,
)
from degex.hypergraph import build, serialize


def brute_surviving_edges(G, parts):
    """Edges meeting every part in at most one vertex, by direct filter."""
    kept = []
    for e in G.edges:
        hits = [sum(1 for v in e if start <= v < stop) for start, stop in parts]
        if max(hits) <= 1:
            kept.append(e)
    return kept


class TestComplete:
    def test_sizes(self):
        assert complete(5, 3).edge_count == 10
        assert complete(4, 3).edge_count == 4
        assert complete(2, 3).edge_count == 0


class TestErdosRenyi:
    def test_p_one_is_complete(self):
        assert erdos_renyi(7, 3, 1, seed=5) == complete(7, 3)

    def test_p_zero_is_empty(self):
        assert erdos_renyi(7, 3, 0, seed=5).edge_count == 0

    def test_deterministic(self):
        a = erdos_renyi(12, 3, Fraction(1, 2), seed=42)
        b = erdos_renyi(12, 3, Fraction(1, 2), seed=42)
        assert a == b
        assert serialize(a) == serialize(b)

    def test_different_seeds_differ(self):
        a = erdos_renyi(12, 3, Fraction(1, 2), seed=1)
        b = erdos_renyi(12, 3, Fraction(1, 2), seed=2)
        assert a != b

    def test_mean_density_concentrates(self):
        total = binom(20, 3)
        densities = [
            erdos_renyi(20, 3, Fraction(1, 2), seed=s).edge_count / total
            for s in range(200)
        ]
        mean = sum(densities) / len(densities)
        assert abs(mean - 0.5) < 0.02

    def test_r4_supported(self):
        G = erdos_renyi(8, 4, Fraction(1, 2), seed=3)
        assert G.r == 4
        assert 0 < G.edge_count < binom(8, 4)

    def test_bad_p_rejected(self):
        with pytest.raises(ValidationError):
            erdos_renyi(5, 3, Fraction(3, 2), seed=0)


def reference_erdos_renyi(n, r, p, seed):
    """The documented stream: one Random(seed).random() per r-subset, in colex order."""
    rng = random.Random(seed)
    return tuple(e for e in ksubsets(n, r) if rng.random() < p)


def nth_draw(seed, i):
    rng = random.Random(seed)
    for _ in range(i):
        rng.random()
    return rng.random()


def colex_nth(n, r, i):
    return next(itertools.islice(ksubsets(n, r), i, None))


SEEDS = st.one_of(st.integers(-(10**30), 10**30), st.integers(-5, 5))
# denominators about 2^53, where a draw k / 2^53 can sit next to p, and beyond
DENOMINATORS = st.one_of(
    st.integers(2**53 - 3, 2**53 + 3), st.integers(2**60, 2**80), st.integers(1, 100)
)


@st.composite
def probabilities(draw):
    den = draw(DENOMINATORS)
    return draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(draw(st.integers(0, den)), den)]))


class TestErdosRenyiStream:
    @given(st.integers(0, 9), st.integers(1, 5), probabilities(), SEEDS,
           st.sampled_from([1, 3, generators.BLOCK_ROWS]))
    @settings(max_examples=300, deadline=None)
    @example(2, 3, Fraction(1, 2), 7, generators.BLOCK_ROWS)  # n < r
    @example(8, 3, Fraction(1), 10**30 - 1, 5)
    @example(8, 3, Fraction(0), -(10**30), 5)
    def test_matches_the_random_stream(self, n, r, p, seed, rows):
        with mock.patch.object(generators, "BLOCK_ROWS", rows):
            G = erdos_renyi(n, r, p, seed)
        assert G.edges == reference_erdos_renyi(n, r, p, seed)

    @given(st.integers(3, 9), st.integers(1, 3), SEEDS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_draw_equal_to_p_is_not_kept(self, n, r, seed, data):
        # p at, just below and just above the value of one subset's draw
        i = data.draw(st.integers(0, binom(n, r) - 1))
        x = Fraction(nth_draw(seed, i))
        for p in (x, x - Fraction(1, 2**80), x + Fraction(1, 2**80)):
            assert erdos_renyi(n, r, p, seed).edges == reference_erdos_renyi(n, r, p, seed)
        assert colex_nth(n, r, i) not in erdos_renyi(n, r, x, seed).edges
        assert colex_nth(n, r, i) in erdos_renyi(n, r, x + Fraction(1, 2**80), seed).edges

    def test_large_instance_matches_the_random_stream(self):
        # C(44, 3) = 13244 draws in two blocks of 8192
        with mock.patch.object(generators, "BLOCK_ROWS", 8192):
            G = erdos_renyi(44, 3, Fraction(1, 2), 12345)
        assert G.edges == reference_erdos_renyi(44, 3, Fraction(1, 2), 12345)

    def test_gen_er_leaves_numpy_random_unimported(self, tmp_path):
        script = (
            "import sys\n"
            "from degex.cli import main\n"
            "rc = main(['gen', 'er', '--n', '30', '--r', '3', '--p', '1/2', '--seed', '1',"
            " '--out', sys.argv[1]])\n"
            "print(rc, 'numpy.random' in sys.modules)\n"
        )
        src = Path(degex.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "g.hg")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.stdout.split() == ["0", "False"], done.stderr


class TestBalancedPartition:
    def test_layout(self):
        spec = balanced_partition(10, 3)
        assert spec.parts == ((0, 4), (4, 7), (7, 10))
        assert spec.sizes == (4, 3, 3)

    def test_even_split(self):
        spec = balanced_partition(9, 3)
        assert spec.sizes == (3, 3, 3)

    def test_sizes_differ_by_at_most_one(self):
        for n in range(1, 20):
            for N in range(1, n + 1):
                sizes = balanced_partition(n, N).sizes
                assert max(sizes) - min(sizes) <= 1
                assert sum(sizes) == n

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            balanced_partition(5, 0)
        with pytest.raises(ValidationError):
            balanced_partition(5, 6)


class TestPartitionDeletion:
    def test_k6_two_parts_kills_everything(self):
        G = complete(6, 3)
        H, spec = partition_deletion(G, 2)
        assert spec.parts == ((0, 3), (3, 6))
        assert H.edge_count == 0  # 3 vertices in 2 parts always double up
        assert G.edge_count - H.edge_count == 20

    def test_k6_three_parts_transversals(self):
        G = complete(6, 3)
        H, spec = partition_deletion(G, 3)
        assert H.edge_count == 8  # 2*2*2 transversal triples
        assert H.edges == tuple(sorted(
            brute_surviving_edges(G, spec.parts), key=lambda e: e[::-1]
        ))

    def test_singleton_parts_delete_nothing(self):
        G = erdos_renyi(7, 3, Fraction(1, 2), seed=8)
        H, _ = partition_deletion(G, 7)
        assert H == G

    def test_matches_brute_filter(self):
        for seed in range(5):
            G = erdos_renyi(10, 3, Fraction(1, 2), seed=900 + seed)
            for N in (2, 3, 4):
                H, spec = partition_deletion(G, N)
                assert set(H.edges) == set(brute_surviving_edges(G, spec.parts))

    def test_edges_are_subset(self):
        G = erdos_renyi(11, 3, Fraction(3, 5), seed=17)
        H, _ = partition_deletion(G, 3)
        assert set(H.edges) <= set(G.edges)

    def test_deletion_bound(self):
        for seed in range(5):
            for n in (8, 10, 12):
                G = erdos_renyi(n, 3, Fraction(1, 2), seed=1000 + seed)
                for N in (2, 3, 4):
                    H, _ = partition_deletion(G, N)
                    deleted = G.edge_count - H.edge_count
                    assert deleted <= deletion_bound(n, N)

    def test_no_large_positive_codegree_subgraph(self):
        # every (N+1)-subset contains two vertices of one part, whose pair
        # has codegree 0 after deletion
        G = erdos_renyi(10, 3, Fraction(4, 5), seed=77)
        for N in (2, 3):
            H, _ = partition_deletion(G, N)
            for X in itertools.combinations(range(10), N + 1):
                sub, _ = H.induced(X)
                assert min_degree(sub, 2) == 0

    def test_codegree_kill_sampled_on_larger_graph(self):
        import random

        G = erdos_renyi(20, 3, Fraction(1, 2), seed=78)
        H, _ = partition_deletion(G, 4)
        rng = random.Random(0)
        for _ in range(1000):
            X = rng.sample(range(20), 5)
            sub, _ = H.induced(X)
            assert min_degree(sub, 2) == 0

    def test_r4_generalization(self):
        G = complete(8, 4)
        H, spec = partition_deletion(G, 4)
        # parts of size 2: a 4-edge must hit 4 distinct parts
        assert H.edge_count == 2 ** 4
        assert set(H.edges) == set(brute_surviving_edges(G, spec.parts))

    def test_r1_rejected(self):
        with pytest.raises(ValidationError):
            partition_deletion(build(4, 1, [(0,)]), 2)
