import itertools
import json
import math
import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degex import degree, extraction
from degex.combinatorics import (
    Links, binom, colex_blocks, colex_rank, colex_unrank, ksubsets, random_ksubset, subset_mask,
)
from degex.degree import degree_of, min_degree, poor_sets
from degex.errors import LimitExceeded, ValidationError
from degex.extraction import (
    _attempt_seed,
    _bad_counts,
    _count_poor_free,
    _induced_min_degree,
    _live_labels,
    _phi_count,
    _within_tail_bound,
    audit_bad_total,
    audit_eq2_phi,
    audit_eq3,
    extract_exhaustive,
    extract_random,
    good_threshold,
    theorem_params,
)
from degex.generators import complete, erdos_renyi
from degex.hypergraph import build
from degex.jsonio import dumps

from oracles import (
    brute_bad_total,
    brute_min_induced_degree,
    brute_phi,
    brute_poor_free,
    brute_poor_pairs,
    brute_rich_sets,
)

EXAMPLE = build(5, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])


# ---------------------------------------------------------------------------
# theorem parameters


class TestTheoremParams:
    def test_frozen_m0_values(self):
        # frozen from a 120-digit decimal evaluation of the ceil formula
        cases = [
            ((3, 2, Fraction(1, 10)), 11974),
            ((3, 2, Fraction(1, 20)), 62312),
            ((3, 2, Fraction(1, 1000)), 359203275),
            ((3, 1, Fraction(1, 10)), 23947),
            ((4, 2, Fraction(1, 10)), 47894),
            ((4, 3, Fraction(1, 20)), 93467),
            ((5, 2, Fraction(1, 4)), 10381),
            ((5, 4, Fraction(1, 100)), 4789377),
            ((4, 1, Fraction(3, 10)), 3131),
            ((6, 3, Fraction(1, 8)), 93426),
        ]
        for (r, ell, delta), expected in cases:
            assert theorem_params(r, ell, delta, m=r).m0 == expected

    def test_delta_one_tenth_not_small_enough(self):
        tp = theorem_params(3, 2, Fraction(1, 10), m=10)
        # 10 < 52 * ln(10) ~ 119.7, so the smallness condition fails
        assert tp.delta_valid is False

    def test_tiny_delta_valid(self):
        tp = theorem_params(3, 2, Fraction(1, 1000), m=10)
        assert tp.delta_valid is True

    def test_validity_boundary_is_algebraic(self):
        # l = 1, delta = 1/2 puts l*ln(1/delta) exactly at ln 2;
        # the non-strict reading keeps that side satisfied
        tp = theorem_params(2, 1, Fraction(1, 2), m=5)
        assert tp.delta_valid is False  # first condition fails: 2 < 26 ln 2
        big = theorem_params(2, 1, Fraction(1, 2) + Fraction(1, 1000), m=5)
        assert big.delta_valid is False  # delta^-1 < 2 fails the ln-2 side

    def test_eps_field(self):
        tp = theorem_params(3, 2, Fraction(1, 10), m=10)
        assert tp.eps == Fraction(1, 200)
        assert float(tp.eps) == 0.005

    def test_m0_of_a_tiny_delta_is_exact(self):
        # m0 = ceil(52 * 10^400 * ln(10^200)) has 403 digits: the bracket
        # behind it must carry the digits of the coefficient
        with localcontext() as ctx:
            ctx.prec = 1000
            x = 52 * Decimal(10) ** 400 * Decimal(10**200).ln()
        assert theorem_params(3, 2, Fraction(1, 10**200), m=3).m0 == math.ceil(x)

    def test_float_delta_accepted(self):
        assert theorem_params(3, 2, 0.1, m=10).m0 == 11974

    def test_domain_violations(self):
        with pytest.raises(ValidationError):
            theorem_params(3, 3, Fraction(1, 10), m=10)
        with pytest.raises(ValidationError):
            theorem_params(3, 2, Fraction(0), m=10)
        with pytest.raises(ValidationError):
            theorem_params(3, 2, Fraction(11, 10), m=10)
        with pytest.raises(ValidationError):
            theorem_params(3, 2, Fraction(1, 10), m=2)


class TestGoodThreshold:
    def test_strictly_above_boundary(self):
        # boundary 0.99 * 2 = 1.98 -> need 2
        boundary, need = good_threshold(Fraction(1), Fraction(1, 100), 4, 2, 3)
        assert boundary == Fraction(198, 100)
        assert need == 2

    def test_integer_boundary_needs_more(self):
        # boundary exactly 1: good means strictly above it
        boundary, need = good_threshold(Fraction(1), Fraction(1, 2), 4, 2, 3)
        assert boundary == 1
        assert need == 2

    def test_nonpositive_boundary(self):
        _, need = good_threshold(Fraction(1, 10), Fraction(1, 2), 4, 2, 3)
        assert need <= 0  # everything qualifies when p < delta


# ---------------------------------------------------------------------------
# randomized extraction


class TestExtractRandom:
    def test_complete_graph_first_attempt(self):
        G = complete(9, 3)
        report = extract_random(G, 2, 5, 1, Fraction(1, 10), budget=50, seed=0)
        assert report.success is True
        assert report.attempts == 1
        assert report.achieved_min_degree == 3  # C(5-2, 1)
        assert len(report.subset) == 5

    def test_empty_graph_exhausts_budget(self):
        G = build(8, 3, [])
        report = extract_random(G, 2, 4, Fraction(1, 2), Fraction(1, 10), budget=7, seed=1)
        assert report.success is False
        assert report.achieved_min_degree == 0
        assert report.attempts == 7
        assert len(report.subset) == 4

    def test_er_success_and_recheck(self):
        G = erdos_renyi(16, 3, Fraction(7, 10), seed=5)
        report = extract_random(
            G, 2, 8, Fraction(7, 10), Fraction(1, 4), budget=100, seed=12
        )
        assert report.success is True
        assert brute_min_induced_degree(G, report.subset, 2) == report.achieved_min_degree
        assert report.achieved_min_degree >= report.threshold

    def test_deterministic_reports(self):
        G = erdos_renyi(14, 3, Fraction(1, 2), seed=3)
        a = extract_random(G, 2, 6, Fraction(1, 2), Fraction(1, 5), budget=20, seed=9)
        b = extract_random(G, 2, 6, Fraction(1, 2), Fraction(1, 5), budget=20, seed=9)
        assert a == b
        assert dumps(a) == dumps(b)

    def test_reported_degree_always_rechecked(self):
        for seed in range(5):
            G = erdos_renyi(12, 3, Fraction(2, 5), seed=40 + seed)
            report = extract_random(
                G, 2, 6, Fraction(3, 5), Fraction(1, 10), budget=10, seed=seed
            )
            assert report.achieved_min_degree == brute_min_induced_degree(
                G, report.subset, 2
            )

    def test_m_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            extract_random(EXAMPLE, 2, 6, Fraction(1, 2), Fraction(1, 10), 5, 0)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValidationError):
            extract_random(EXAMPLE, 2, 4, Fraction(1, 2), Fraction(1, 10), 0, 0)

    def test_attempt_walks_bounded_by_the_enum_budget(self):
        # an attempt walks the C(6, 2) = 15 pairs of its X; the refusal
        # comes before the first draw
        G = build(12, 3, [])
        args = (G, 1, 6, Fraction(1, 2), Fraction(1, 4))
        report = extract_random(*args, budget=4, seed=0, enum_budget=60)
        assert report.attempts == 4 and not report.success
        with mock.patch.object(extraction, "random_ksubset", side_effect=AssertionError):
            refused = r"5 attempts of C\(6, 2\) = 75 exceeds the limit of 60"
            with pytest.raises(LimitExceeded, match=refused):
                extract_random(*args, budget=5, seed=0, enum_budget=60)


class TestExtractExhaustive:
    def test_complete_k5_all_good(self):
        res = extract_exhaustive(complete(5, 3), 2, 4, 1, Fraction(1, 100))
        assert res.threshold == 2
        assert res.good_ranks == (0, 1, 2, 3, 4)
        assert res.count == 5

    def test_empty_graph_none_good(self):
        res = extract_exhaustive(build(6, 3, []), 2, 4, Fraction(1, 2), Fraction(1, 10))
        assert res.good_ranks == ()

    def test_example_graph_frozen(self):
        # threshold (1/2 - 1/10) * C(2,1) = 0.8 -> need codegree >= 1 everywhere;
        # every 4-subset of the example contains a codegree-0 pair
        res = extract_exhaustive(EXAMPLE, 2, 4, Fraction(1, 2), Fraction(1, 10))
        assert res.threshold == 1
        assert res.good_ranks == ()

    def test_matches_per_subset_oracle(self):
        for seed in range(4):
            G = erdos_renyi(9, 3, Fraction(3, 5), seed=60 + seed)
            res = extract_exhaustive(G, 2, 5, Fraction(1, 2), Fraction(1, 5))
            good = {
                rank
                for rank in range(binom(9, 5))
                if brute_min_induced_degree(G, colex_unrank(rank, 5, 9), 2)
                >= res.threshold
            }
            assert set(res.good_ranks) == good

    def test_generic_ell_path_matches_oracle(self):
        # l = 1 on a 3-graph exercises the generic (non-link-table) path
        G = erdos_renyi(8, 3, Fraction(1, 2), seed=21)
        res = extract_exhaustive(G, 1, 5, Fraction(1, 2), Fraction(1, 4))
        good = {
            rank
            for rank in range(binom(8, 5))
            if brute_min_induced_degree(G, colex_unrank(rank, 5, 8), 1)
            >= res.threshold
        }
        assert set(res.good_ranks) == good

    def test_r4_codegree_path(self):
        G = erdos_renyi(8, 4, Fraction(3, 5), seed=22)
        res = extract_exhaustive(G, 3, 6, Fraction(1, 2), Fraction(1, 5))
        good = {
            rank
            for rank in range(binom(8, 6))
            if brute_min_induced_degree(G, colex_unrank(rank, 6, 8), 3)
            >= res.threshold
        }
        assert set(res.good_ranks) == good

    def test_budget_refusal_names_count(self):
        with pytest.raises(LimitExceeded, match=str(binom(10, 5))):
            extract_exhaustive(
                erdos_renyi(10, 3, Fraction(1, 2), seed=0),
                2, 5, Fraction(1, 2), Fraction(1, 10), enum_budget=100,
            )

    def test_random_successes_are_sound(self):
        # (n, r, l, m, p): l = r-1 and l < r-1, so both table paths are checked
        cases = ((11, 3, 2, 6, Fraction(1, 2)), (11, 3, 1, 6, Fraction(1, 2)),
                 (9, 4, 2, 6, Fraction(1, 2)), (9, 4, 1, 6, Fraction(2, 5)))
        successes = 0
        for n, r, ell, m, p in cases:
            for seed in range(6):
                G = erdos_renyi(n, r, Fraction(3, 5), seed=80 + seed)
                res = extract_exhaustive(G, ell, m, p, Fraction(1, 4))
                report = extract_random(G, ell, m, p, Fraction(1, 4), budget=40, seed=seed)
                assert report.success == (
                    colex_rank(report.subset).rank in res.good_ranks
                )
                successes += report.success
        assert successes > 0


class TestLinkTable:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_min_degree_matches_oracle(self, data):
        r = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(r, 8))
        G = draw_graph(data, n, r)
        X = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
        links = Links(G.n, G.edge_array.T).masks()
        # the links over the vertices on some edge, as extract_random labels them
        # when vertices outnumber incidences; X may hold vertices on no edge
        live = np.unique(G.edge_array).tolist()
        live_links = Links(len(live), np.searchsorted(live, G.edge_array).T).masks()
        labels, xmask = _live_labels(live, X)
        for ell in range(1, min(r, len(X) + 1)):
            expected = brute_min_induced_degree(G, X, ell)
            assert _induced_min_degree(links, r, X, ell, subset_mask(X)) == expected
            assert _induced_min_degree(live_links, r, labels, ell, xmask) == expected

    def test_vertices_on_no_edge_have_degree_0(self):
        # K5 on {0, ..., 4} and the edge 016; vertices 5 and 7 lie on no edge,
        # so every l-set through them has degree 0, as has 6 without 0
        G = build(8, 3, [*itertools.combinations(range(5), 3), (0, 1, 6)])
        live = np.unique(G.edge_array).tolist()
        assert live == [0, 1, 2, 3, 4, 6]
        links = Links(len(live), np.searchsorted(live, G.edge_array).T).masks()
        for X, least in (((0, 1, 2, 3, 4), (6, 3)), ((0, 1, 2, 3, 4, 5, 7), (0, 0)),
                         ((5, 7), (0,)), ((1, 2, 3, 4, 6), (0, 0))):
            labels, xmask = _live_labels(live, X)
            assert xmask == subset_mask(live.index(v) for v in X if v in live)
            for ell, degree in enumerate(least, 1):
                assert min_degree(G.induced(X)[0], ell) == degree
                assert _induced_min_degree(links, 3, labels, ell, xmask) == degree

    def test_links_past_32_bit_ranks(self):
        # C(3000, 3) > 2^32, past the ranks tuple_ranks keeps exact; the links
        # are keyed by vertex columns.  300 of the 400 edges lie in the top 12
        # vertices, so a set there has a nonzero minimum degree for every l
        rng = random.Random(11)
        top = rng.sample(list(itertools.combinations(range(2988, 3000), 4)), 300)
        G = build(3000, 4, top + [rng.sample(range(3000), 4) for _ in range(100)])
        assert binom(3000, 3) > 2**32 and G.edge_count == 400
        expected = {}
        for e in G.edges:
            for v in e:
                T = tuple(u for u in e if u != v)
                expected[T] = expected.get(T, 0) | 1 << v
        links = Links(G.n, G.edge_array.T).masks()
        assert links == expected
        X = tuple(range(2988, 3000))
        for ell in (1, 2, 3):
            expected = min_degree(G.induced(X)[0], ell)
            assert _induced_min_degree(links, 4, X, ell, subset_mask(X)) == expected > 0
        # every attempt of extract_random scores its own draw as G[X] does; the
        # 3000 vertices outnumber the 1600 incidences, so it labels the live ones
        live = np.unique(G.edge_array).tolist()
        seen = []

        def record(links, r, labels, ell, xmask):
            seen.append((labels, xmask, _induced_min_degree(links, r, labels, ell, xmask)))
            return seen[-1][2]

        for ell in (1, 3):
            seen.clear()
            with mock.patch.object(extraction, "_induced_min_degree", record):
                report = extract_random(G, ell, 30, Fraction(1, 2), Fraction(1, 4), budget=8, seed=5)
            draws = [random_ksubset(3000, 30, random.Random(_attempt_seed(5, a))) for a in range(1, 9)]
            assert report.attempts == 8
            assert [(*_live_labels(live, X), min_degree(G.induced(X)[0], ell)) for X in draws] == seen
        # random draws of 30 meet few edges, so force every draw into the top
        # 12, whose labels are not the vertices: each scores its nonzero degree
        assert _live_labels(live, X)[0] != X
        for ell in (1, 2, 3):
            seen.clear()
            with mock.patch.object(extraction, "_induced_min_degree", record), \
                    mock.patch.object(extraction, "random_ksubset", lambda n, m, rng: X):
                report = extract_random(G, ell, 12, Fraction(1, 2), Fraction(1, 4), budget=3, seed=5)
            expected = min_degree(G.induced(X)[0], ell)
            assert report.achieved_min_degree == expected > 0
            assert seen == [(*_live_labels(live, X), expected)] * report.attempts


# ---------------------------------------------------------------------------
# block enumeration


def scan_blocks(G, ell, m):
    """(offset, rows) of each block the m-subset scan of G's links walks."""
    scan = _bad_counts(G.n, G.edge_array.T, m, ell, 1, None)
    return [(offset, len(counts)) for offset, counts in scan]


def block_masks(n, m):
    """(rank, mask) of each m-subset of the blocks the scan walks for rows of
    one word and no held sums (t = l, n <= 64), in their order."""
    out = []
    rows = max(extraction.BLOCK_BYTES // 8, 1)
    for offset, cols in colex_blocks(n, m, rows):
        assert cols.shape[0] == m
        assert 1 <= cols.shape[1] <= rows
        assert cols.dtype.kind == "u" and n - 1 <= np.iinfo(cols.dtype).max
        assert (np.diff(cols.astype(np.int64), axis=0) > 0).all()  # ascending rows
        out += [(offset + i, subset_mask(X)) for i, X in enumerate(cols.T.tolist())]
    return out


def block_good(G, ell, m, need):
    """Whether each m-subset, in colex order, is good, by the block scorer."""
    good = []
    for _, counts in _bad_counts(G.n, G.edge_array.T, m, ell, need, None):
        good += (counts == 0).tolist()
    return good


def oracle_good(G, ell, m, need):
    """Whether each m-subset, in colex order, is good, one subset at a time by
    extract_random's scorer."""
    links = Links(G.n, G.edge_array.T).masks()
    return [_induced_min_degree(links, G.r, X, ell, subset_mask(X)) >= need for X in ksubsets(G.n, m)]


def scan_poor_free(n, m, ell, poor):
    """m-subsets of [0, n) holding none of the poor l-subsets (vertex columns),
    by the m-subset scan: X holds none of them iff no (l-1)-subset of X has a
    poor link vertex in X, a link sum below 1.  The reference for the branch
    count of _count_poor_free."""
    if not poor.shape[1]:
        return binom(n, m)
    scan = _bad_counts(n, poor, m, ell - 1, 1, None)
    return sum(int(np.count_nonzero(counts == binom(m, ell - 1))) for _, counts in scan)


def poor_columns(sets, n, ell):
    """The poor l-sets `sets` as vertex columns."""
    return np.array(sorted(sets), dtype=np.min_scalar_type(n)).reshape(-1, ell).T


def draw_graph(data, n, r):
    possible = list(itertools.combinations(range(n), r))
    keep = data.draw(st.lists(st.booleans(), min_size=len(possible), max_size=len(possible)))
    return build(n, r, itertools.compress(possible, keep))


# budgets of one row, two rows, a few rows and the default
BUDGETS = st.sampled_from([8, 16, 64, 1 << 18])


class TestBlockEnumeration:
    @pytest.mark.parametrize("block_bytes", [8, 24, 256, 1 << 18])
    def test_blocks_are_colex_order(self, monkeypatch, block_bytes):
        monkeypatch.setattr(extraction, "BLOCK_BYTES", block_bytes)
        for n in range(11):
            for m in range(n + 2):
                expected = list(enumerate(subset_mask(X) for X in ksubsets(n, m)))
                assert block_masks(n, m) == expected

    @pytest.mark.parametrize("block_bytes", [4096, 1 << 18])
    def test_blocks_beyond_64_vertices_are_colex_order(self, monkeypatch, block_bytes):
        # bit 63 and rows of one, two and three 64-bit words
        monkeypatch.setattr(extraction, "BLOCK_BYTES", block_bytes)
        for n, m in ((63, 2), (64, 1), (64, 63), (65, 2), (70, 3), (70, 68), (130, 2), (130, 129)):
            expected = list(enumerate(subset_mask(X) for X in ksubsets(n, m)))
            assert block_masks(n, m) == expected
            assert max(mask for _, mask in expected).bit_length() == n

    def test_blocks_fill_at_most_the_rows(self):
        rows = extraction.BLOCK_BYTES // 8
        # C(58, 3) = 30856 subsets of many colex parts fill one block of rows
        # of one word; at n = 100 rows take two words
        assert len(scan_blocks(erdos_renyi(58, 3, Fraction(1, 10), seed=95), 2, 3)) == 1
        blocks = scan_blocks(erdos_renyi(100, 3, Fraction(1, 10), seed=96), 2, 3)
        sizes = [size for _, size in blocks]
        assert len(sizes) <= math.ceil(binom(100, 3) / (rows // 2)) + 1
        assert max(sizes) <= rows // 2 and sum(sizes) == binom(100, 3)
        assert blocks == [(offset, cols.shape[1]) for offset, cols in colex_blocks(100, 3, rows // 2)]
        # for t > l a row also holds its C(m, l) link sums, of one byte here
        sizes = [size for _, size in scan_blocks(erdos_renyi(20, 3, Fraction(1, 2), seed=97), 1, 8)]
        assert max(sizes) <= rows // 2 and sum(sizes) == binom(20, 8) and len(sizes) > 1

    def test_small_budget_spans_many_blocks(self, monkeypatch):
        G = erdos_renyi(11, 3, Fraction(3, 5), seed=90)
        H = erdos_renyi(10, 4, Fraction(3, 5), seed=91)
        p, delta = Fraction(1, 2), Fraction(1, 4)

        def run():
            return (
                extract_exhaustive(G, 2, 6, p, delta),
                extract_exhaustive(G, 1, 5, p, delta),
                audit_eq3(G, 2, 6, Fraction(2, 5)),
                audit_bad_total(H, 2, 6, p, delta),
            )

        whole = run()
        assert len(scan_blocks(G, 2, 6)) == 1
        monkeypatch.setattr(extraction, "BLOCK_BYTES", 64)
        assert len(scan_blocks(G, 2, 6)) > 50
        assert run() == whole
        assert whole[0].count > 0 and whole[2].lhs > 0 and whole[3].lhs > 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_block_scorer_matches_per_subset_oracle(self, data):
        r = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(r, 9))
        ell = data.draw(st.integers(1, r - 1))
        m = data.draw(st.integers(ell, n))
        G = draw_graph(data, n, r)
        # need <= 0 makes every subset good; need above C(m - l, r - l), any
        # degree in G[X], makes none good
        need = data.draw(st.integers(-1, binom(m - ell, r - ell) + 2))
        with mock.patch.object(extraction, "BLOCK_BYTES", data.draw(BUDGETS)):
            assert block_good(G, ell, m, need) == oracle_good(G, ell, m, need)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_block_scorer_beyond_64_vertices_matches_oracle(self, data):
        r = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(60, 130 if r == 2 else 70))
        ell = data.draw(st.integers(1, r - 1))
        m = data.draw(st.integers(ell, r))
        edges = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True), max_size=4 * n
        ))
        G = build(n, r, edges)
        need = data.draw(st.integers(-1, binom(m - ell, r - ell) + 1))
        with mock.patch.object(extraction, "BLOCK_BYTES", data.draw(st.sampled_from([4096, 1 << 18]))):
            assert block_good(G, ell, m, need) == oracle_good(G, ell, m, need)

    def test_need_extremes(self):
        G = erdos_renyi(9, 3, Fraction(1, 2), seed=92)
        total = binom(9, 5)
        assert block_good(G, 2, 5, 0) == [True] * total
        assert block_good(G, 2, 5, -3) == [True] * total
        assert block_good(G, 1, 5, binom(4, 2) + 1) == [False] * total
        assert block_good(complete(9, 3), 1, 5, binom(4, 2)) == [True] * total

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_poor_free_count_matches_isdisjoint(self, data):
        # the branch count against a brute force over itertools.combinations
        # and against the m-subset scan it replaced
        n = data.draw(st.integers(1, 10))
        ell = data.draw(st.integers(1, min(3, n)))
        m = data.draw(st.integers(ell, n))
        subsets = list(itertools.combinations(range(n), ell))
        poor = set(data.draw(st.lists(st.sampled_from(subsets), max_size=len(subsets))))
        expected = brute_poor_free(n, m, ell, poor)
        cols = poor_columns(poor, n, ell)
        with mock.patch.object(extraction, "BLOCK_BYTES", data.draw(BUDGETS)):
            assert _count_poor_free(n, m, ell, cols) == expected
            assert scan_poor_free(n, m, ell, cols) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_phi_count_matches_brute_force(self, data):
        # the l < r-1 path of _phi_count, which enumerates T in blocks
        r = data.draw(st.integers(3, 5))
        n = data.draw(st.integers(r, 9))
        ell = data.draw(st.integers(1, r - 2))
        m = data.draw(st.integers(ell, n))
        G = draw_graph(data, n, r)
        S = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=ell, max_size=ell))))
        boundary = Fraction(data.draw(st.integers(-2, 4 * binom(m - ell, r - ell) + 2)), 4)
        expected = brute_phi(G, S, m, boundary)
        with mock.patch.object(extraction, "BLOCK_BYTES", data.draw(BUDGETS)):
            assert _phi_count(G, S, m, boundary) == expected

    def test_beyond_62_vertices_matches_oracle(self):
        p, delta = Fraction(1, 2), Fraction(1, 4)
        G = erdos_renyi(70, 3, Fraction(1, 2), seed=93)
        res = extract_exhaustive(G, 2, 3, p, delta)
        _, need = good_threshold(p, delta, 3, 2, 3)
        expected = [rank for rank, good in enumerate(oracle_good(G, 2, 3, need)) if good]
        assert list(res.good_ranks) == expected
        assert 0 < res.count < binom(70, 3)
        assert audit_eq3(G, 2, 3, p).lhs == brute_poor_free(70, 3, 2, brute_poor_pairs(G, 2, p))
        # m = n - 2: rows of two words, the first of them full
        H = erdos_renyi(70, 2, Fraction(1, 2), seed=94)
        res = extract_exhaustive(H, 1, 68, Fraction(2, 5), Fraction(1, 100))
        _, need = good_threshold(Fraction(2, 5), Fraction(1, 100), 68, 1, 2)
        expected = [rank for rank, good in enumerate(oracle_good(H, 1, 68, need)) if good]
        assert list(res.good_ranks) == expected
        assert 0 < res.count < binom(70, 68)
        # vertex 63 at the top of a word, rows of one to four words, and the
        # largest vertex columns of one byte (n = 255) and of two (n = 256)
        cases = ((63, 3, 2, 3), (64, 3, 1, 3), (65, 2, 1, 3), (130, 2, 1, 2), (255, 2, 1, 2),
                 (256, 2, 1, 2))
        for n, r, ell, m in cases:
            G = erdos_renyi(n, r, Fraction(1, 2), seed=n)
            res = extract_exhaustive(G, ell, m, p, delta)
            _, need = good_threshold(p, delta, m, ell, r)
            expected = [rank for rank, good in enumerate(oracle_good(G, ell, m, need)) if good]
            assert list(res.good_ranks) == expected
            assert 0 < res.count < binom(n, m)

    def test_memory_stays_within_a_few_blocks(self):
        # C(23, 9) = 817190 subsets: their masks alone would take 6.2 MiB
        G = erdos_renyi(23, 3, Fraction(1, 5), seed=1)
        tracemalloc.start()
        try:
            res = extract_exhaustive(G, 2, 9, Fraction(1, 2), Fraction(1, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.count == 0
        assert peak < 8 * extraction.BLOCK_BYTES


# ---------------------------------------------------------------------------
# auditors


class TestAuditEq3:
    def test_no_poor_sets_is_tight(self):
        G = erdos_renyi(8, 3, Fraction(1, 2), seed=30)
        report = audit_eq3(G, 2, 4, 0)
        assert report.lhs == binom(8, 4)
        assert report.rhs == binom(8, 4)
        assert report.holds is True

    def test_k5_minus_edge_frozen(self):
        G = build(5, 3, [e for e in itertools.combinations(range(5), 3) if e != (0, 1, 2)])
        report = audit_eq3(G, 2, 4, 1)
        # poor pairs are exactly the three inside the removed edge, and every
        # 4-subset of [0,5) contains at least one of them
        assert report.context["poor_count"] == 3
        assert report.lhs == 0
        assert report.rhs == Fraction(-19)
        assert report.holds is True

    def test_lhs_matches_brute_force(self):
        for seed in range(5):
            G = erdos_renyi(10, 3, Fraction(1, 2), seed=200 + seed)
            p = Fraction(1, 2)
            report = audit_eq3(G, 2, 5, p)
            assert report.lhs == brute_poor_free(10, 5, 2, brute_poor_pairs(G, 2, p))

    def test_holds_on_random_instances(self):
        for seed in range(30):
            n = 10 + seed % 4
            G = erdos_renyi(n, 3, Fraction(1, 2), seed=300 + seed)
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                assert audit_eq3(G, 2, 6, p).holds is True

    def test_budget_refusal(self):
        with pytest.raises(LimitExceeded):
            audit_eq3(erdos_renyi(12, 3, Fraction(1, 2), seed=0), 2, 6, Fraction(1, 2), enum_budget=10)

    def test_lhs_matches_the_scan(self):
        for seed, (n, m, d) in enumerate(((15, 7, Fraction(3, 10)), (16, 8, Fraction(1, 2)),
                                          (17, 8, Fraction(7, 10)), (12, 6, Fraction(1, 5)))):
            G = erdos_renyi(n, 3, d, seed=400 + seed)
            for ell, p in ((1, Fraction(1, 2)), (2, d), (2, Fraction(1, 4))):
                table = degree.degree_table(G, ell)
                poor = table.sets()[:, table.poor(p)]
                assert audit_eq3(G, ell, m, p).lhs == scan_poor_free(n, m, ell, poor)


class TestPoorFreeBranchCount:
    # (poor pairs on [0, n), the number of their independent m-sets) for
    # poor graphs whose counts have closed forms
    SHAPES = {
        "matching": (lambda n: [(2 * i, 2 * i + 1) for i in range(n // 2)],
                     lambda n, m: binom(n // 2, m) * 2**m),
        "star": (lambda n: [(0, v) for v in range(1, n)], lambda n, m: binom(n - 1, m)),
        "path": (lambda n: [(v, v + 1) for v in range(n - 1)], lambda n, m: binom(n - m + 1, m)),
        "one edge": (lambda n: [(0, 1)], lambda n, m: binom(n, m) - binom(n - 2, m - 2)),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("n", [24, 26, 28])
    def test_adversarial_shapes_take_few_branches(self, shape, n):
        # without the memo, one edge at n = 24, m = 12 takes 9.1 M branches
        pairs, count = self.SHAPES[shape]
        m = n // 2
        with mock.patch.object(extraction, "_branches", wraps=extraction._branches) as branches:
            assert _count_poor_free(n, m, 2, poor_columns(pairs(n), n, 2)) == count(n, m)
        assert 0 < branches.call_count <= n * m

    @pytest.mark.parametrize("n, m", [(3000, 2), (2000, 1999)])
    def test_depth_is_not_recursion(self, n, m):
        # one branch level a vertex: thousands deep, past the default
        # recursion limit of 1000; the traced peak, link masks included,
        # stays within 32 BLOCK_BYTES
        for shape in ("path", "one edge"):
            pairs, count = self.SHAPES[shape]
            tracemalloc.start()
            try:
                assert _count_poor_free(n, m, 2, poor_columns(pairs(n), n, 2)) == count(n, m)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 32 * extraction.BLOCK_BYTES

    @pytest.mark.parametrize("n, m, lhs", [(3000, 2, 3000), (2000, 1999, 0)])
    def test_audit_at_thousands_of_vertices(self, n, m, lhs):
        # disjoint triangles, p = 10^-6: the 3 pairs of each are rich, and
        # every other pair poor.  The scan agrees (18 s and 11 s on a
        # 2-vCPU VM, too slow for tier-1)
        G = build(n, 3, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(n // 3)])
        report = audit_eq3(G, 2, m, Fraction(1, 10**6))
        assert report.lhs == lhs
        assert report.context["poor_count"] == binom(n, 2) - 3 * (n // 3)

    def test_a_small_memo_drops_states_and_agrees(self, monkeypatch):
        # a matching on 20 vertices, counted again with a memo of 2 states
        pairs, expected = poor_columns(self.SHAPES["matching"][0](20), 20, 2), binom(10, 6) * 2**6

        def branches():
            with mock.patch.object(extraction, "_branches", wraps=extraction._branches) as spy:
                assert _count_poor_free(20, 6, 2, pairs) == expected
            return spy.call_count

        whole = branches()
        monkeypatch.setattr(extraction, "BLOCK_BYTES", 2 * (20 // 8 + 128))
        assert branches() > whole


class TestAuditEq2Phi:
    def test_complete_graph_no_bad_sets(self):
        G = complete(10, 3)
        report = audit_eq2_phi(G, (0, 1), 6, 1, Fraction(1, 10))
        assert report.lhs == 0
        assert report.holds is True

    def test_poor_subset_rejected(self):
        G = build(6, 3, [(0, 1, 2)])
        with pytest.raises(ValidationError, match="poor"):
            audit_eq2_phi(G, (3, 4), 5, Fraction(1, 2), Fraction(1, 10))

    def test_matches_brute_oracle(self):
        G = erdos_renyi(14, 3, Fraction(3, 5), seed=70)
        p, delta = Fraction(11, 20), Fraction(1, 5)
        rich = brute_rich_sets(G, 2, p)
        assert rich  # the regime should have rich pairs
        for S in rich[:5]:
            report = audit_eq2_phi(G, S, 8, p, delta)
            assert report.lhs == brute_phi(G, S, 8, (p - delta) * binom(6, 1))
            assert report.rhs == pytest.approx(
                binom(12, 6) * math.exp(-float(delta) ** 2 * 8 / 2)
            )

    def test_generic_rl_path(self):
        # r - l = 2 exercises the subset-mask neighbourhood path
        G = erdos_renyi(10, 4, Fraction(7, 10), seed=71)
        S = max(
            itertools.combinations(range(10), 2),
            key=lambda s: degree_of(G, s),
        )
        report = audit_eq2_phi(G, S, 7, Fraction(1, 2), Fraction(1, 5))
        assert report.lhs == brute_phi(G, S, 7, Fraction(3, 10) * binom(5, 2))

    def test_holds_is_exact_past_float_precision(self):
        # C = 2^60 + 129 rounds up to 2^60 + 256 as a float, so a float
        # verdict takes C <= C * exp(-x) for true at any tiny x > 0
        C, x = 2**60 + 129, Fraction(1, 2**70)
        assert C <= C * math.exp(-float(x))
        assert _within_tail_bound(C, C, x) is False
        assert _within_tail_bound(C - 1, C, x) is True
        assert _within_tail_bound(0, C, x) is True
        assert _within_tail_bound(C, C, Fraction(0)) is True
        assert _within_tail_bound(C + 1, C, Fraction(0)) is False

    def test_holds_is_exact_when_the_bound_meets_lhs(self):
        # phi_S = 4 of C(5, 4) = 5 extensions at m = 5, r - l = 1, and delta
        # within 10^-40 of -sqrt(2 ln(5/4) / 5), where 5 exp(-delta^2 m / 2)
        # crosses 4: the float bound reads 4.0 on both sides of the crossing.
        # No small instance with 0 < delta < 1 comes this close, so the
        # verdict is called directly.
        m = 5
        with localcontext() as ctx:
            ctx.prec = 100
            crossing = -(2 * (Decimal(5) / 4).ln() / m).sqrt()
            for step in (Fraction(1, 10**40), -Fraction(1, 10**40)):
                delta = Fraction(crossing) + step
                holds = _within_tail_bound(4, 5, delta * delta * m / 2)
                d = Decimal(delta.numerator) / delta.denominator
                assert extraction._tail_bound(5, delta, m, 2, 1) == 4.0
                assert holds is (4 <= 5 * (-d * d * m / 2).exp())
                assert holds is (step > 0)


class TestAuditBadTotal:
    def test_complete_graph_at_p_equals_delta(self):
        G = complete(8, 3)
        report = audit_bad_total(G, 2, 5, Fraction(1, 4), Fraction(1, 4))
        assert report.lhs == 0
        assert report.holds is True

    def test_all_poor_means_zero(self):
        G = build(7, 3, [])  # every pair has degree 0, poor for any p > 0
        report = audit_bad_total(G, 2, 4, Fraction(1, 2), Fraction(1, 10))
        assert report.context["rich_count"] == 0
        assert report.lhs == 0
        assert report.holds is True

    def test_matches_brute_oracle(self):
        G = erdos_renyi(12, 3, Fraction(3, 5), seed=72)
        p, delta = Fraction(1, 2), Fraction(3, 10)
        report = audit_bad_total(G, 2, 6, p, delta)
        assert report.lhs == brute_bad_total(G, 2, 6, p, delta)
        assert report.rhs == Fraction(binom(12, 6), 2)
        assert report.context["intermediate_bound"] == pytest.approx(
            binom(12, 6) * binom(6, 2) * math.exp(-float(delta) ** 2 * 6 / 2)
        )

    def test_closed_form_regimes_match_brute_oracle(self):
        # for l = r-1, phi_S sums C(a, j) C(N - a, m - l - j) over j <= cap,
        # with a = |link(S)| and N = n - l; each case hits a clipped regime.
        # cap >= a needs delta <= 0: a rich S has a >= p N > (p - delta)(m - l)
        cases = [
            # cap < 0
            (erdos_renyi(12, 3, Fraction(3, 5), seed=72), 6, Fraction(1, 10), Fraction(1, 2)),
            # m - l > N - a: links cover nearly every outside vertex
            (erdos_renyi(10, 3, Fraction(9, 10), seed=75), 6, Fraction(1, 2), Fraction(1, 10)),
        ]
        hit = set()
        for G, m, p, delta in cases:
            ell = 2
            report = audit_bad_total(G, ell, m, p, delta)
            assert report.lhs == brute_bad_total(G, ell, m, p, delta)
            rich = brute_rich_sets(G, ell, p)
            cap = math.floor((p - delta) * (m - ell))
            for S in rich:
                a = degree_of(G, S)
                hit.add("cap < 0" if cap < 0 else "cap >= a" if cap >= a else "inside")
                if m - ell > G.n - ell - a:
                    hit.add("m - l > N - a")
        assert hit >= {"cap < 0", "m - l > N - a"}
        assert "cap >= a" not in hit

    def test_r4_matches_brute_oracle(self):
        G = erdos_renyi(9, 4, Fraction(3, 5), seed=73)
        for ell, m, p, delta in ((2, 6, Fraction(1, 2), Fraction(1, 5)),
                                 (1, 5, Fraction(1, 2), Fraction(1, 10))):
            report = audit_bad_total(G, ell, m, p, delta)
            # lhs > 0 needs a rich S
            assert report.lhs == brute_bad_total(G, ell, m, p, delta) > 0

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_pass_matches_sum_of_brute_phi(self, data):
        # l < r-1: the rich S that are bad in each m-subset X, counted in one
        # pass over X, against phi_S summed over the rich S
        r = data.draw(st.integers(4, 5))
        n = data.draw(st.integers(r, 8))
        ell = data.draw(st.integers(1, r - 2))
        m = data.draw(st.integers(ell, n))
        G = draw_graph(data, n, r)
        p = Fraction(data.draw(st.integers(0, 10)), 10)
        delta = Fraction(data.draw(st.integers(1, 15)), 16)
        with mock.patch.object(extraction, "BLOCK_BYTES", data.draw(BUDGETS)):
            report = audit_bad_total(G, ell, m, p, delta)
        assert report.context["rich_count"] == len(brute_rich_sets(G, ell, p))
        assert report.lhs == brute_bad_total(G, ell, m, p, delta)

    def test_good_count_dominates_poorfree_minus_bad(self):
        for seed in range(8):
            G = erdos_renyi(11, 3, Fraction(1, 2), seed=400 + seed)
            p, delta = Fraction(1, 2), Fraction(1, 4)
            good = extract_exhaustive(G, 2, 6, p, delta).count
            poor_free = audit_eq3(G, 2, 6, p).lhs
            bad_sum = audit_bad_total(G, 2, 6, p, delta).lhs
            assert good >= poor_free - bad_sum


class TestProbabilityDomain:
    def test_p_out_of_range_rejected(self):
        G = erdos_renyi(8, 3, Fraction(1, 2), seed=2)
        S = max(itertools.combinations(range(8), 2), key=lambda s: degree_of(G, s))
        delta = Fraction(1, 10)
        for p in (Fraction(-10**18), Fraction(-1, 2), Fraction(3, 2)):
            calls = (
                lambda: extract_random(G, 2, 5, p, delta, budget=3, seed=0),
                lambda: extract_exhaustive(G, 2, 5, p, delta),
                lambda: audit_eq3(G, 2, 5, p),
                lambda: audit_eq2_phi(G, S, 5, p, delta),
                lambda: audit_bad_total(G, 2, 5, p, delta),
                lambda: poor_sets(G, 2, p),
                lambda: erdos_renyi(6, 3, p, seed=0),
            )
            for call in calls:
                with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                    call()


class TestReportSerialization:
    def test_rationals_as_num_den(self):
        report = audit_eq3(EXAMPLE, 2, 4, Fraction(1, 2))
        payload = json.loads(dumps(report))
        assert payload["context"]["p"] == {"num": 1, "den": 2}
        assert payload["inequality_id"] == "eq3_rich_count"
        assert isinstance(payload["holds"], bool)

    def test_extraction_report_fields(self):
        report = extract_random(
            complete(6, 3), 2, 4, 1, Fraction(1, 10), budget=3, seed=5
        )
        payload = json.loads(dumps(report))
        assert set(payload) == {
            "success", "subset", "achieved_min_degree", "threshold", "attempts", "seed",
        }
        assert payload["seed"] == 5
