import csv
import io
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from degex.combinatorics import binom, colex_unrank, ksubsets
from degex.degree import (
    degree_of,
    degree_table,
    eps_min_degree,
    kth_min_degree,
    min_degree,
    poor_sets,
    table_poor_sets,
)
from degex.errors import ValidationError
from degex.generators import complete, erdos_renyi
from degex.hypergraph import build

EXAMPLE = build(5, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])


def reference_csv(table):
    """The table through csv.writer, one row per ksubsets subset."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("rank", "subset", "degree"))
    subsets = ksubsets(table.n, table.ell)
    writer.writerows(
        (rank, " ".join(map(str, S)), d) for rank, (S, d) in enumerate(zip(subsets, table.degrees))
    )
    return out.getvalue()


def naive_eps_min(degrees, exceptions, cap):
    """Try every d: the largest d with at most `exceptions` entries below it."""
    best = 0
    for d in range(cap + 2):
        if sum(1 for x in degrees if x < d) <= exceptions:
            best = d
    return min(best, cap) if best > cap else best


class TestDegreeOf:
    def test_complete_pair(self):
        G = complete(5, 3)
        for pair in itertools.combinations(range(5), 2):
            assert degree_of(G, pair) == 3

    def test_empty_graph(self):
        G = build(6, 3, [])
        assert degree_of(G, (2, 4)) == 0

    def test_example_graph(self):
        assert degree_of(EXAMPLE, (0, 1)) == 3
        assert degree_of(EXAMPLE, (3, 4)) == 1

    def test_subset_too_large_rejected(self):
        with pytest.raises(ValidationError):
            degree_of(EXAMPLE, (0, 1, 2))

    @pytest.mark.parametrize("bad", [1.9, "1", None, np.float64(1)])
    def test_non_integer_vertex_rejected(self, bad):
        # 1.9 used to match no edge column and count 0
        with pytest.raises(ValidationError, match="has a vertex that is not an integer"):
            degree_of(complete(5, 3), [bad, 2])

    def test_integer_types_read_as_ints(self):
        assert degree_of(complete(5, 3), [np.int64(1), np.uint8(2)]) == 3

    def test_counts_extensions(self):
        # deg(S) equals the number of (r-l)-sets T with S union T an edge
        G = erdos_renyi(8, 3, "1/2", seed=4)
        for S in itertools.combinations(range(8), 2):
            ext = sum(
                1
                for T in itertools.combinations(set(range(8)) - set(S), 1)
                if G.has_edge(S + T)
            )
            assert degree_of(G, S) == ext


def counter_degree_table(G, ell):
    """Reference table: a Counter of the l-sub-tuples of the edges, read out
    over the l-subsets in colex order."""
    counts = Counter(
        itertools.chain.from_iterable(itertools.combinations(e, ell) for e in G.edges)
    )
    return tuple(counts[S] for S in ksubsets(G.n, ell))


class TestDegreeTable:
    def test_empty_graph_all_zero(self):
        table = degree_table(build(6, 3, []), 2)
        assert set(table.degrees) == {0}
        assert len(table.degrees) == 15

    def test_complete_k6(self):
        table = degree_table(complete(6, 3), 2)
        assert set(table.degrees) == {4}

    def test_pointwise_oracle(self):
        for seed in range(6):
            n = 6 + seed % 4
            r = 3 + seed % 2
            G = erdos_renyi(n, r, "1/2", seed=100 + seed)
            for ell in range(1, r):
                table = degree_table(G, ell)
                for rank, d in enumerate(table.degrees):
                    S = colex_unrank(rank, ell, n)
                    assert d == degree_of(G, S)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_counter_reference(self, data):
        r = data.draw(st.integers(2, 5))
        n = data.draw(st.integers(r, 11))
        kind = data.draw(st.sampled_from(["random", "empty", "complete"]))
        if kind == "complete":
            G = complete(n, r)
        else:
            possible = list(itertools.combinations(range(n), r))
            edges = data.draw(st.lists(st.sampled_from(possible), max_size=40)) if kind == "random" else []
            G = build(n, r, edges)
        den = 2**55 + 2 * data.draw(st.integers(0, 2**20)) + 1  # p past int64 products
        for ell in range(1, r):
            table = degree_table(G, ell)
            degrees = list(counter_degree_table(G, ell))
            assert table.degrees.dtype == np.int64 and not table.degrees.flags.writeable
            assert table.degrees.tolist() == degrees
            assert min_degree(G, ell) == min(degrees) and type(min_degree(G, ell)) is int
            histogram = table.histogram()
            assert list(histogram.items()) == sorted(Counter(degrees).items())
            assert all(type(d) is int and type(c) is int for d, c in histogram.items())
            ordered = sorted(degrees)
            for k in range(len(degrees) + 2):
                kth = kth_min_degree(table, k)
                assert type(kth) is int
                assert kth == (ordered[k] if k < len(degrees) else table.max_possible)
            cap = table.max_possible
            # p * cap an exact integer (a degree equal to it is rich), and p
            # with a denominator near 2^55
            for p in (Fraction(data.draw(st.integers(0, cap)), cap),
                      Fraction(data.draw(st.integers(0, den)), den)):
                poor = [d < p * cap for d in degrees]
                assert table.poor(p).tolist() == poor
                ranks = tuple(i for i, bad in enumerate(poor) if bad)
                assert table_poor_sets(table, p).poor == ranks

    def test_ell_out_of_range(self):
        with pytest.raises(ValidationError):
            degree_table(EXAMPLE, 3)
        with pytest.raises(ValidationError):
            degree_table(EXAMPLE, 0)

    def test_csv_rows(self):
        rows = list(csv.reader(io.StringIO(degree_table(EXAMPLE, 2).csv())))
        assert rows[0] == ["rank", "subset", "degree"]
        assert len(rows) == 11
        assert rows[1] == ["0", "0 1", "3"]
        for rank, subset, _ in rows[1:]:
            assert subset == " ".join(map(str, colex_unrank(int(rank), 2, 5)))

    def test_csv_matches_csv_writer(self):
        graphs = [build(n, r, []) for n in range(5) for r in (2, 3, 4)]
        graphs += [complete(6, 3), EXAMPLE, erdos_renyi(44, 3, Fraction(1, 2), seed=1)]
        graphs += [erdos_renyi(13, 4, Fraction(1, 3), seed=2), erdos_renyi(300, 3, Fraction(1, 10**5), seed=3)]
        for G in graphs:
            for ell in range(1, G.r):
                table = degree_table(G, ell)
                assert table.csv() == reference_csv(table)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_handshake(self, data):
        n = data.draw(st.integers(3, 12))
        r = data.draw(st.integers(2, min(4, n)))
        possible = list(itertools.combinations(range(n), r))
        edges = data.draw(st.lists(st.sampled_from(possible), max_size=30))
        G = build(n, r, edges)
        for ell in range(1, r):
            table = degree_table(G, ell)
            assert sum(table.degrees) == G.edge_count * binom(r, ell)
            assert all(0 <= d <= table.max_possible for d in table.degrees)


class TestMinDegree:
    def test_complete(self):
        assert min_degree(complete(5, 3), 2) == 3

    def test_example(self):
        assert min_degree(EXAMPLE, 2) == 1

    def test_isolated_vertex(self):
        G = build(6, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)])
        assert min_degree(G, 2) == 0  # any pair through vertex 5


class TestEpsMinDegree:
    def test_eps_zero_is_min_degree(self):
        for seed in range(4):
            G = erdos_renyi(8, 3, "1/2", seed=seed)
            assert eps_min_degree(G, 2, 0) == min_degree(G, 2)

    def test_example_values(self):
        assert eps_min_degree(EXAMPLE, 2, Fraction(95, 100)) == 3
        assert eps_min_degree(EXAMPLE, 2, Fraction(5, 100)) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            eps_min_degree(EXAMPLE, 2, -1)

    def test_negative_exceptions_rejected(self):
        # np.partition would read index -1 as the largest degree, 5 here
        table = degree_table(erdos_renyi(8, 3, "1/2", seed=1), 2)
        assert kth_min_degree(table, len(table.degrees) - 1) == 5
        for exceptions in (-1, -len(table.degrees), -len(table.degrees) - 1):
            with pytest.raises(ValidationError, match=f"exceptions must be nonnegative, got {exceptions}"):
                kth_min_degree(table, exceptions)

    def test_cap_when_everything_may_fail(self):
        assert eps_min_degree(EXAMPLE, 2, 1) == binom(3, 1)
        assert eps_min_degree(build(6, 3, []), 2, 2) == binom(4, 1)

    def test_matches_naive_oracle(self):
        for seed in range(8):
            G = erdos_renyi(7 + seed % 4, 3, "1/2", seed=300 + seed)
            table = degree_table(G, 2)
            total = len(table.degrees)
            for i in range(11):
                eps = Fraction(i, 10)
                k = math.floor(eps * total)
                expected = naive_eps_min(table.degrees, k, table.max_possible)
                assert eps_min_degree(G, 2, eps) == expected

    def test_monotone_in_eps(self):
        G = erdos_renyi(9, 3, "2/5", seed=11)
        values = [eps_min_degree(G, 2, Fraction(i, 20)) for i in range(21)]
        assert values == sorted(values)

    def test_boundary_exceptions(self):
        # at eps = k / C(n, l) exactly k exceptions are allowed; just below, k-1
        G = EXAMPLE  # degrees: nine 1s and one 3, C(5,2) = 10
        assert eps_min_degree(G, 2, Fraction(9, 10)) == 3
        assert eps_min_degree(G, 2, Fraction(9, 10) - Fraction(1, 1000)) == 1
        assert eps_min_degree(G, 2, Fraction(8, 10)) == 1


class TestPoorSets:
    def test_p_zero_empty(self):
        report = poor_sets(EXAMPLE, 2, 0)
        assert report.poor == ()

    def test_boundary_is_not_poor(self):
        # complete: deg = 3 = 1 * C(3,1) exactly, and the comparison is strict
        report = poor_sets(complete(5, 3), 2, 1)
        assert report.poor == ()

    def test_example_half(self):
        report = poor_sets(EXAMPLE, 2, Fraction(1, 2))
        assert len(report.poor) == 9
        assert report.fraction == Fraction(9, 10)
        assert report.fraction_float == 0.9
        # the surviving pair is {0,1}, colex rank 0
        assert 0 not in report.poor

    def test_out_of_range_p(self):
        with pytest.raises(ValidationError):
            poor_sets(EXAMPLE, 2, Fraction(3, 2))

    def test_no_subsets_is_no_poor_share(self):
        # n < l leaves C(n, l) = 0 subsets, none of them poor
        for n in (0, 1):
            report = poor_sets(build(n, 3, []), 2, Fraction(1, 2))
            assert (report.poor, report.total, report.fraction) == ((), 0, 0)
            assert report.fraction_float == 0.0

    def test_exact_strict_classification(self):
        for seed in range(5):
            G = erdos_renyi(8, 3, "1/2", seed=500 + seed)
            table = degree_table(G, 2)
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)):
                report = poor_sets(G, 2, p)
                expected = {
                    rank
                    for rank, d in enumerate(table.degrees)
                    if d < p * table.max_possible
                }
                assert set(report.poor) == expected

    def test_cut_past_int64(self):
        # C(69, 34) > 2^63: the integer cut still compares with the int64 degrees
        G = build(70, 35, [tuple(range(35))])  # degree 1 on [0, 35), 0 above
        assert poor_sets(G, 1, 0).poor == ()
        assert poor_sets(G, 1, Fraction(1, binom(69, 34))).poor == tuple(range(35, 70))
        assert poor_sets(G, 1, Fraction(1, 2)).poor == tuple(range(70))

    def test_few_poor_implies_high_eps_min_degree(self):
        # if at most k subsets are poor at p, the k-exception minimum is
        # at least ceil(p * C(n-l, r-l))
        for seed in range(6):
            G = erdos_renyi(9, 3, "3/5", seed=700 + seed)
            table = degree_table(G, 2)
            for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                report = poor_sets(G, 2, p)
                k = len(report.poor)
                if k >= len(table.degrees):
                    continue
                assert kth_min_degree(table, k) >= math.ceil(report.threshold)


class TestInducedMonotonicity:
    def test_induced_degrees_never_grow(self):
        G = erdos_renyi(9, 3, "1/2", seed=13)
        for X in itertools.combinations(range(9), 5):
            H, imap = G.induced(X)
            for S in itertools.combinations(range(5), 2):
                parent_S = tuple(imap.to_parent(v) for v in S)
                assert degree_of(H, S) <= degree_of(G, parent_S)
