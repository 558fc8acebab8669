import itertools
import random
from fractions import Fraction

import pytest

from degex.errors import LimitExceeded, ValidationError
from degex.generators import complete, erdos_renyi, partition_deletion
from degex.hypergraph import build
from degex.jsonio import dumps
from degex.quasirandomness import (
    check_qr_codegree_implication,
    deviation_111_exact,
    deviation_12_exact,
    deviation_12_sampled,
    e111,
    e12,
)

SINGLE_EDGE = build(3, 3, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# brute-force oracles: enumerate every (X, P) / (X, Y, Z) explicitly


def brute_dev12(G, p):
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    n = G.n
    pairs = [(u, v) for v in range(n) for u in range(v)]
    best = 0  # scaled by den
    for xmask in range(1 << n):
        X = [v for v in range(n) if xmask >> v & 1]
        d = [
            sum(1 for x in X if x != u and x != v and G.has_edge((x, u, v)))
            for (u, v) in pairs
        ]
        e = 0
        pmask = 0
        for i in range(1, 1 << len(pairs)):
            j = (i & -i).bit_length() - 1
            if pmask >> j & 1:
                pmask ^= 1 << j
                e -= d[j]
            else:
                pmask ^= 1 << j
                e += d[j]
            dev = abs(den * e - num * len(X) * pmask.bit_count())
            if dev > best:
                best = dev
    return Fraction(best, den)


def brute_dev111(G, p):
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    n = G.n
    perms = list(itertools.permutations(range(3)))
    best = 0
    for xmask in range(1 << n):
        kx = xmask.bit_count()
        for ymask in range(1 << n):
            ky = ymask.bit_count()
            for zmask in range(1 << n):
                e = 0
                for edge in G.edges:
                    for px, py, pz in perms:
                        if (
                            xmask >> edge[px] & 1
                            and ymask >> edge[py] & 1
                            and zmask >> edge[pz] & 1
                        ):
                            e += 1
                dev = abs(den * e - num * kx * ky * zmask.bit_count())
                if dev > best:
                    best = dev
    return Fraction(best, den)


class TestCounts:
    def test_e12_empty_sides(self):
        G = complete(4, 3)
        assert e12(G, [], [(0, 1)]) == 0
        assert e12(G, [0, 1], []) == 0

    def test_e12_complete(self):
        G = complete(4, 3)
        allpairs = list(itertools.combinations(range(4), 2))
        assert e12(G, range(4), allpairs) == 12  # 6 pairs, 2 completions each

    def test_e12_single_edge(self):
        assert e12(SINGLE_EDGE, [0], [(1, 2)]) == 1
        assert e12(SINGLE_EDGE, [1], [(1, 2)]) == 0  # x inside the pair

    def test_e111_orderings(self):
        assert e111(SINGLE_EDGE, range(3), range(3), range(3)) == 6

    def test_requires_3graph(self):
        G4 = complete(5, 4)
        with pytest.raises(ValidationError):
            e12(G4, [0], [(1, 2)])
        with pytest.raises(ValidationError):
            deviation_12_exact(G4, Fraction(1, 2))


class TestDeviation12Exact:
    def test_empty_graph_zero(self):
        report = deviation_12_exact(build(5, 3, []), 0)
        assert report.D == 0
        assert report.eps_star == 0
        assert report.witness == ((), ())
        assert report.mode == "exact"

    def test_complete_k4_at_p_one(self):
        report = deviation_12_exact(complete(4, 3), 1)
        assert report.D == Fraction(12)
        X, P = report.witness
        assert X == (0, 1, 2, 3)
        assert set(P) == set(itertools.combinations(range(4), 2))

    def test_all_graphs_n4_match_brute_force(self):
        triples = list(itertools.combinations(range(4), 3))
        for bits in range(1 << len(triples)):
            G = build(4, 3, [t for i, t in enumerate(triples) if bits >> i & 1])
            for p in (0, Fraction(1, 4), Fraction(1, 2), 1):
                assert deviation_12_exact(G, p).D == brute_dev12(G, p)

    def test_random_n5_match_brute_force(self):
        for seed in range(6):
            G = erdos_renyi(5, 3, Fraction(1, 2), seed=800 + seed)
            for p in (0, Fraction(1, 2), 1):
                assert deviation_12_exact(G, p).D == brute_dev12(G, p)

    def test_witness_attains_the_deviation(self):
        for seed in range(5):
            G = erdos_renyi(6, 3, Fraction(2, 5), seed=810 + seed)
            p = Fraction(1, 3)
            report = deviation_12_exact(G, p)
            X, P = report.witness
            assert abs(e12(G, X, P) - p * len(X) * len(P)) == report.D

    def test_huge_denominator_falls_back_exactly(self):
        G = erdos_renyi(5, 3, Fraction(1, 2), seed=3)
        p = Fraction(10**20 + 1, 3 * 10**20)  # forces the object-dtype path
        assert deviation_12_exact(G, p).D == brute_dev12(G, p)

    def test_threads_do_not_change_output(self):
        G = erdos_renyi(10, 3, Fraction(1, 2), seed=99)
        one = deviation_12_exact(G, Fraction(1, 2), threads=1)
        four = deviation_12_exact(G, Fraction(1, 2), threads=4)
        assert one == four
        assert dumps(one) == dumps(four)

    def test_p_out_of_range_rejected(self):
        # a huge negative p used to overflow the int64 weights and trip the
        # witness recheck with an AssertionError
        G = erdos_renyi(6, 3, "1/2", seed=1)
        for p in (Fraction(-10**18), Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                deviation_12_exact(G, p)
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                deviation_12_sampled(G, p, trials=5, seed=0)
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                deviation_111_exact(G, p)
            with pytest.raises(ValidationError, match=r"\[0, 1\]"):
                check_qr_codegree_implication(G, p)

    def test_limit_refusal_names_sampling(self):
        G = build(30, 3, [])
        with pytest.raises(LimitExceeded, match="sampled"):
            deviation_12_exact(G, Fraction(1, 2))

    def test_limit_override(self):
        G = erdos_renyi(8, 3, Fraction(1, 2), seed=1)
        with pytest.raises(LimitExceeded):
            deviation_12_exact(G, Fraction(1, 2), exact_limit=6)

    def test_per_set_inner_max_dominates_random_pairsets(self):
        from degex.quasirandomness import _witness_12

        rng = random.Random(7)
        G = erdos_renyi(5, 3, Fraction(1, 2), seed=5)
        p = Fraction(1, 2)
        pairs = list(itertools.combinations(range(5), 2))
        for xmask in range(1 << 5):
            X = [v for v in range(5) if xmask >> v & 1]
            scaled, _, _ = _witness_12(G, xmask, p.numerator, p.denominator)
            d_x = Fraction(scaled, p.denominator)
            for _ in range(40):
                P = [pr for pr in pairs if rng.random() < 0.5]
                assert d_x >= abs(e12(G, X, P) - p * len(X) * len(P))


class TestDeviation12Sampled:
    def test_exhaustive_coverage_equals_exact(self):
        G = erdos_renyi(3, 3, Fraction(1, 2), seed=2)
        # with 500 draws over 8 masks every X appears (checked for this seed)
        rng = random.Random(11)
        assert {rng.getrandbits(3) for _ in range(500)} == set(range(8))
        sampled = deviation_12_sampled(G, Fraction(1, 2), trials=500, seed=11)
        exact = deviation_12_exact(G, Fraction(1, 2))
        assert sampled.D == exact.D
        assert sampled.mode == "sampled"
        assert sampled.trials == 500
        assert sampled.seed == 11

    def test_empty_graph(self):
        report = deviation_12_sampled(build(6, 3, []), 0, trials=50, seed=0)
        assert report.D == 0

    def test_monotone_in_trials_and_below_exact(self):
        G = erdos_renyi(9, 3, Fraction(1, 2), seed=44)
        p = Fraction(1, 2)
        exact = deviation_12_exact(G, p).D
        last = Fraction(-1)
        for trials in (1, 5, 25, 125, 600):
            d = deviation_12_sampled(G, p, trials=trials, seed=13).D
            assert d >= last
            assert d <= exact
            last = d

    def test_scales_past_the_exact_limit(self):
        # n = 40 is far beyond the 2^n loop; sampling still works
        G = erdos_renyi(40, 3, Fraction(1, 2), seed=55)
        report = deviation_12_sampled(G, Fraction(1, 2), trials=300, seed=1)
        assert report.D > 0
        X, P = report.witness
        assert abs(e12(G, X, P) - Fraction(1, 2) * len(X) * len(P)) == report.D


class TestDeviation111Exact:
    def test_empty_graph(self):
        assert deviation_111_exact(build(4, 3, []), 0).D == 0

    def test_single_edge_all_orderings(self):
        report = deviation_111_exact(SINGLE_EDGE, 0)
        assert report.D == Fraction(6)
        assert report.witness == ((0, 1, 2), (0, 1, 2), (0, 1, 2))

    def test_matches_brute_force_n3(self):
        for edges in ([], [(0, 1, 2)]):
            G = build(3, 3, edges)
            for p in (0, Fraction(1, 2), 1):
                assert deviation_111_exact(G, p).D == brute_dev111(G, p)

    def test_matches_brute_force_n4(self):
        for seed in range(4):
            G = erdos_renyi(4, 3, Fraction(1, 2), seed=820 + seed)
            for p in (0, Fraction(1, 2), 1):
                assert deviation_111_exact(G, p).D == brute_dev111(G, p)

    def test_witness_attains_the_deviation(self):
        for seed in range(4):
            G = erdos_renyi(5, 3, Fraction(3, 5), seed=830 + seed)
            p = Fraction(1, 2)
            report = deviation_111_exact(G, p)
            X, Y, Z = report.witness
            assert abs(e111(G, X, Y, Z) - p * len(X) * len(Y) * len(Z)) == report.D

    def test_limit_refusal(self):
        with pytest.raises(LimitExceeded):
            deviation_111_exact(build(20, 3, []), Fraction(1, 2))


class TestCodegreeImplication:
    def test_complete_graphs(self):
        for n in range(3, 9):
            verdict = check_qr_codegree_implication(complete(n, 3), 1)
            assert verdict.eps_star == Fraction(n - 1, n * n)
            assert verdict.passed is True
            assert verdict.min_degree_eps == n - 2

    def test_empty_graph_at_p_zero(self):
        verdict = check_qr_codegree_implication(build(6, 3, []), 0)
        assert verdict.eps_star == 0
        assert verdict.passed is True

    def test_seeded_er_instances(self):
        for seed in range(8):
            G = erdos_renyi(10, 3, Fraction(1, 2), seed=840 + seed)
            assert check_qr_codegree_implication(G, Fraction(1, 2)).passed is True

    def test_tiny_graph_rejected(self):
        with pytest.raises(ValidationError):
            check_qr_codegree_implication(build(1, 3, []), Fraction(1, 2))


class TestDeletionComposition:
    def test_deviation_grows_at_most_3_per_deleted_edge(self):
        for seed in range(4):
            G = erdos_renyi(9, 3, Fraction(1, 2), seed=850 + seed)
            for N in (2, 3):
                H, _ = partition_deletion(G, N)
                deleted = G.edge_count - H.edge_count
                for p in (Fraction(1, 4), Fraction(1, 2)):
                    dG = deviation_12_exact(G, p).D
                    dH = deviation_12_exact(H, p).D
                    assert dH <= dG + 3 * deleted
