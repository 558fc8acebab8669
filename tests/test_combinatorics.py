import itertools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degex.combinatorics import (
    Links,
    binom,
    colex_blocks,
    colex_order,
    colex_rank,
    colex_unrank,
    ksubsets,
    mask_vertices,
    mask_words,
    random_ksubset,
    subset_mask,
    tuple_ranks,
    vertex_words,
)
from degex.errors import ValidationError
from degex.generators import erdos_renyi


def columns(sets, k, n):
    """The sorted k-sets as vertex columns, row i the i-th smallest vertex of
    every set, in the smallest unsigned dtype that holds n."""
    return np.array(sets, dtype=np.min_scalar_type(n)).reshape(-1, k).T


def pascal_binom(n, k):
    """Pascal-triangle oracle, no factorials."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestBinom:
    def test_empty_subset(self):
        assert binom(5, 0) == 1
        assert binom(0, 0) == 1

    def test_hand_enumerable(self):
        assert binom(5, 2) == 10

    def test_cards(self):
        assert pascal_binom(52, 5) == 2598960
        assert binom(52, 5) == 2598960

    def test_k_above_n_is_zero(self):
        assert binom(3, 7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            binom(-1, 2)
        with pytest.raises(ValidationError):
            binom(3, -2)

    def test_matches_pascal_oracle(self):
        for n in range(20):
            for k in range(n + 2):
                assert binom(n, k) == pascal_binom(n, k)

    def test_subset_splitting_identity(self):
        # C(n,l) C(n-l, m-l) = C(n,m) C(m,l): choose the m-set then the l-set
        for n in range(0, 41, 5):
            for m in range(0, n + 1, 3):
                for ell in range(m + 1):
                    assert binom(n, ell) * binom(n - ell, m - ell) == binom(
                        n, m
                    ) * binom(m, ell)


class TestColex:
    def test_smallest_subset(self):
        assert colex_rank((0, 1)).rank == 0

    def test_largest_subset(self):
        for n, k in [(5, 2), (8, 3), (6, 6)]:
            top = binom(n, k) - 1
            assert colex_unrank(top, k, n) == tuple(range(n - k, n))

    def test_example_rank(self):
        # enumerate all 2-subsets of [0,5) sorted by colex and find {1,3}
        subsets = sorted(
            itertools.combinations(range(5), 2), key=lambda s: s[::-1]
        )
        assert subsets.index((1, 3)) == 4
        assert colex_rank((1, 3)).rank == 4

    def test_rank_independent_of_n(self):
        # the same subset keeps its rank as the ground set grows
        assert colex_rank((2, 4, 5)) == colex_rank((2, 4, 5))
        r = colex_rank((2, 4, 5)).rank
        assert colex_unrank(r, 3, 6) == colex_unrank(r, 3, 12) == (2, 4, 5)

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            colex_rank((3, 1))

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            colex_rank((1, 1))

    def test_edge_array_row_ranks_like_its_tuple(self):
        G = erdos_renyi(9, 3, "1/2", seed=3)
        for row, edge in zip(G.edge_array, G.edges):
            assert colex_rank(row) == colex_rank(edge)

    @pytest.mark.parametrize("bad", [2.5, "2"])
    def test_non_integer_vertex_rejected(self, bad):
        with pytest.raises(ValidationError, match="has a vertex that is not an integer"):
            colex_rank((0, bad))

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            colex_unrank(binom(5, 2), 2, 5)
        with pytest.raises(ValidationError):
            colex_unrank(-1, 2, 5)

    @given(st.data())
    def test_roundtrip(self, data):
        n = data.draw(st.integers(0, 12))
        k = data.draw(st.integers(0, n))
        S = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1) if n else st.nothing(), min_size=k, max_size=k))))
        rank = colex_rank(S)
        assert rank.k == k
        assert colex_unrank(rank.rank, k, n) == S
        assert colex_rank(colex_unrank(rank.rank, k, n)).rank == rank.rank

    def test_enumerator_matches_unrank(self):
        for n in range(9):
            for k in range(n + 2):
                listed = list(ksubsets(n, k))
                assert len(listed) == binom(n, k)
                assert len(set(listed)) == len(listed)
                for rank, S in enumerate(listed):
                    assert colex_rank(S).rank == rank
                    assert S == colex_unrank(rank, k, n)

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 8, 13, 64])
    def test_blocks_hold_at_most_rows_and_run_on(self, rows):
        for n in range(10):
            for m in range(n + 2):
                offset, listed = 0, []
                for start, cols in colex_blocks(n, m, rows):
                    assert start == offset and 0 < cols.shape[1] <= rows
                    assert cols.dtype == np.min_scalar_type(n) and len(cols) == m
                    offset += cols.shape[1]
                    listed += map(tuple, cols.T.tolist())
                expected = sorted(itertools.combinations(range(n), m), key=lambda S: S[::-1])
                assert listed == expected == list(ksubsets(n, m))


class TestTupleRanks:
    @given(st.data())
    def test_matches_colex_rank(self, data):
        n = data.draw(st.integers(1, 300))
        m = data.draw(st.integers(1, min(n, 6)))
        k = data.draw(st.integers(0, m))
        assume(binom(n, k) <= 2**32)  # the ranks' stated domain
        subset = st.sets(st.integers(0, n - 1), min_size=m, max_size=m)
        sets = [tuple(sorted(X)) for X in data.draw(st.lists(subset, max_size=20))]
        cols = columns(sets, m, n)
        assert cols.shape == (m, len(sets))
        seen = []
        for P, rank in tuple_ranks(cols, k, n):
            seen.append(P)
            assert rank.tolist() == [colex_rank([X[i] for i in P]).rank for X in sets]
        assert sorted(seen) == list(itertools.combinations(range(m), k))


class TestColexOrder:
    @given(st.data())
    def test_sorts_and_marks_repeats(self, data):
        n = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(0, n))  # k = 0: every set is the empty set
        subsets = list(itertools.combinations(range(n), k))
        sets = data.draw(st.lists(st.sampled_from(subsets), max_size=30))
        cols = columns(sets, k, n) if k else np.zeros((0, len(sets)), dtype=np.uint8)
        order, first = colex_order(cols)
        ranked = [tuple(row) for row in cols.T[order].tolist()]
        assert ranked == sorted(sets, key=lambda S: colex_rank(S).rank)
        assert [S for S, new in zip(ranked, first) if new] == sorted(set(sets), key=lambda S: S[::-1])


def python_links(edges):
    """link(T) as an int with bit v for each v in it, keyed by T, from the edge tuples."""
    links = {}
    for e in edges:
        for v in e:
            T = tuple(u for u in e if u != v)
            links[T] = links.get(T, 0) | 1 << v
    return links


def words_int(words):
    """The int whose 64-bit words, low word first, are `words`."""
    return sum(x << 64 * w for w, x in enumerate(words))


class TestLinks:
    @given(st.data())
    @settings(deadline=None)
    def test_dense_and_sparse_links_match_the_edges(self, data):
        # r = 1 is the l-graph of poor vertices that eq3 scores at l = 1.  An
        # incidence packs into one word while r fields of the bit length of
        # the largest label fit in 64 bits, up to n = 2^(64 // r) labels; past
        # that, and at n = 10^8 for r >= 3, the sets are sorted as columns
        r = data.draw(st.integers(1, 8))
        last = [1 << 64 // r, (1 << 64 // r) + 1] if r > 1 else []
        n = data.draw(st.one_of(st.integers(r, 9), st.sampled_from([63, 64, 65, 129, *last, 10**8])))
        if n == 10**8:  # a sparse graph, its vertices low or anywhere
            vertex, most = st.one_of(st.integers(0, 63), st.integers(0, n - 1)), max(2, 15 // r)
        else:  # labels up to 2^(64 // r), vertices among the first 200
            vertex, most = st.integers(0, min(n, 200) - 1), 60
        edge = st.sets(vertex, min_size=r, max_size=r).map(lambda e: tuple(sorted(e)))
        edges = sorted(set(data.draw(st.lists(edge, min_size=2 if n == 10**8 else 0, max_size=most))))
        links = Links(n, columns(edges, r, n))
        expected = python_links(edges)
        keys, starts, verts = links._runs
        runs = keys.shape[1]
        assert [tuple(T) for T in keys.T.tolist()] == sorted(expected, key=lambda T: T[::-1])  # colex
        for T, lo, hi in zip(keys.T.tolist(), starts.tolist(), starts[1:].tolist()):
            assert sorted(verts[lo:hi].tolist()) == list(mask_vertices(expected[tuple(T)]))
        if links.width * runs <= 1 << 20:
            rows = data.draw(st.integers(1, 8))
            blocks = list(links.blocks(rows))
            assert all(K.shape[1] == rows for K, _ in blocks[:-1])
            assert all(W.shape == (links.width, K.shape[1]) for K, W in blocks)
            keys = [tuple(T) for K, _ in blocks for T in K.T.tolist()]
            words = [words_int(w) for _, W in blocks for w in W.T.tolist()]
            assert dict(zip(keys, words)) == expected
            assert links.masks() == expected
            assert list(links.masks()) == keys
        if binom(n, r - 1) * links.width <= 1 << 20:
            table = links.table()
            assert table.shape == (links.width, binom(n, r - 1))
            assert np.count_nonzero(table.any(axis=0)) == len(expected)
            for T, mask in expected.items():
                assert words_int(table[:, colex_rank(T).rank].tolist()) == mask

    @given(st.data())
    def test_set_words_share_the_link_layout(self, data):
        n = data.draw(st.sampled_from([1, 5, 63, 64, 65, 129, 255, 256, 300]))
        m = data.draw(st.integers(1, min(n, 6)))
        subset = st.sets(st.integers(0, n - 1), min_size=m, max_size=m)
        sets = [tuple(sorted(X)) for X in data.draw(st.lists(subset, max_size=10))]
        masks = [subset_mask(X) for X in sets]
        words = mask_words(masks, n)
        assert words.shape == (len(sets), -(-n // 64))
        assert [words_int(row) for row in words.tolist()] == masks
        assert vertex_words(columns(sets, m, n), -(-n // 64)).T.tolist() == words.tolist()


class TestRandomKSubset:
    def test_forced_full(self):
        rng = random.Random(1)
        assert random_ksubset(6, 6, rng) == tuple(range(6))

    def test_forced_empty(self):
        rng = random.Random(1)
        assert random_ksubset(6, 0, rng) == ()

    def test_oversized_rejected(self):
        with pytest.raises(ValidationError):
            random_ksubset(3, 4, random.Random(1))

    def test_same_seed_same_stream(self):
        a = [random_ksubset(10, 4, random.Random(99)) for _ in range(1)]
        b = [random_ksubset(10, 4, random.Random(99)) for _ in range(1)]
        rng1, rng2 = random.Random(7), random.Random(7)
        seq1 = [random_ksubset(8, 3, rng1) for _ in range(50)]
        seq2 = [random_ksubset(8, 3, rng2) for _ in range(50)]
        assert a == b
        assert seq1 == seq2

    def test_uniform_frequencies(self):
        # 6 possible 2-subsets of [0,4); each should appear with freq 1/6 +- 0.01
        rng = random.Random(2024)
        draws = 100_000
        counts = Counter(random_ksubset(4, 2, rng) for _ in range(draws))
        assert set(counts) == set(itertools.combinations(range(4), 2))
        for subset, c in counts.items():
            assert abs(c / draws - 1 / 6) < 0.01, (subset, c)


class TestMasks:
    def test_roundtrip(self):
        for S in [(), (0,), (1, 4, 9), tuple(range(12))]:
            assert mask_vertices(subset_mask(S)) == S
