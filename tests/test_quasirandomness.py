import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degex.quasirandomness as qr
from degex.combinatorics import binom, ksubsets, mask_vertices
from degex.errors import MAX_ENTRIES, DegexError, LimitExceeded, ValidationError
from degex.generators import complete, erdos_renyi, partition_deletion
from degex.cli import main as cli_main
from degex.hypergraph import build, dump
from degex.jsonio import dumps
from degex.quasirandomness import (
    _witness_12,
    check_qr_codegree_implication,
    deviation_111_exact,
    deviation_12_exact,
    deviation_12_sampled,
    e111,
    e12,
)

from oracles import brute_dev111, brute_dev12

SINGLE_EDGE = build(3, 3, [(0, 1, 2)])


# ---------------------------------------------------------------------------
# references for the sweep, the sampled scorer and the witness


def reference_sweep(rows, step, start, mask, low_bits):
    """The per-state Gray sweep that qr._sweep replaces: one state per step."""
    sums = rows.sum(axis=1).tolist() if low_bits else None
    vec = start
    buf = np.empty_like(vec)
    width = vec.shape[0]
    total = int(vec.sum())
    k = mask.bit_count()
    best, best_mask = -1, mask
    for i in range(1 << low_bits):
        if i:
            x = (i & -i).bit_length() - 1
            mask ^= 1 << x
            if mask >> x & 1:
                k += 1
                total += sums[x]
                np.add(vec, rows[x], out=vec)
            else:
                k -= 1
                total -= sums[x]
                np.subtract(vec, rows[x], out=vec)
        c = step * k
        np.subtract(vec, c, out=buf)
        np.abs(buf, out=buf)
        score = (int(buf.sum()) + abs(total - c * width)) // 2
        if score > best or (score == best and mask < best_mask):
            best, best_mask = score, mask
    return best, best_mask


def reference_grouped_sweep(rows, step, start, mask, low_bits):
    """reference_sweep once per group of (groups x width) rows, each group g
    with its own step[g]: the best (score, mask, group), ties toward the
    smallest (mask, group)."""
    score, mask, group = min(
        (-score, best_mask, g)
        for g in range(start.shape[0])
        for score, best_mask in [
            reference_sweep(rows[:, g], step[g], start[g].copy(), mask, low_bits)
        ]
    )
    return -score, mask, group


def oracle_sweep(rows, sizes, num, den, mask, low_bits):
    """reference_grouped_sweep on the weights that qr._sweep scores from counts:
    den * count, less step * k with step = num * sizes[g] in group g."""
    weights = rows.astype(object) * den
    start = np.zeros(weights.shape[1:], dtype=object)
    for x in mask_vertices(mask):
        start += weights[x]
    step = np.array([num * int(s) for s in sizes], dtype=object)
    return reference_grouped_sweep(weights, step, start, mask, low_bits)


def gray_tie_sweep():
    """Two groups of 8-wide 0/1 rows at p = 0, with a block budget that gives
    a sweep of 5 bits 2 inner bits and outer bits 2 to 4, walked 0, {2},
    {2,3}, {3}, {3,4}, {2,3,4}, {2,4}, {4}.  Group 0 scores 8 only on {3,4}
    and group 1 on every mask with 4, so {3,4} ties across the groups, and
    the walk meets it and {2,4} before the smallest winner, ({4}, group 1)."""
    rows = np.zeros((5, 2, 8), dtype=np.uint8)
    rows[3, 0, :4] = rows[4, 0, 4:] = rows[4, 1] = 1
    return rows, [1, 1], Fraction(0), 0, 5, 2 * (8 + qr.SCORE_BYTES) << 2


def reference_sampled_scores(G, masks, num, den):
    """The per-trial path that qr._sampled_best replaces: each trial counts
    d_X(uv) over the pairs uv in an edge from the link incidences (x, uv),
    and scores it in Python ints as a sweep of zero bits does, at step
    c = num |X|: (sum over all C(n, 2) pairs of |den d - c| + |den sum(d) -
    c C(n, 2)|) // 2, where each pair on no edge adds |0 - c| = c."""
    # each edge a < b < c gives x the pair uv, u < v, of colex rank C(v, 2) + u
    a, b, c = G.edge_array.T.astype(np.intp)
    verts = np.concatenate([a, b, c])
    ranks = np.concatenate([c * (c - 1) // 2 + b, c * (c - 1) // 2 + a, b * (b - 1) // 2 + a])
    pairs, which = np.unique(ranks, return_inverse=True)
    width = binom(G.n, 2)
    scores = []
    for mask in masks:
        inside = np.isin(verts, mask_vertices(mask))
        d = np.bincount(which[inside], minlength=len(pairs)).tolist()
        step = num * mask.bit_count()
        spread = sum(abs(den * dv - step) for dv in d) + (width - len(d)) * step
        scores.append((spread + abs(den * sum(d) - step * width)) // 2)
    return scores


def reference_sampled_best(G, masks, num, den):
    """(best, hit) of qr._sampled_best, from the per-trial scores."""
    scores = reference_sampled_scores(G, masks, num, den)
    return max(scores), [score == max(scores) for score in scores]


def sampled_best(G, masks, num, den):
    best, hit = qr._sampled_best(G, masks, num, den)
    return best, hit.tolist()


def reference_witness_12(G, mask, num, den):
    """The dict-and-loop witness recheck that qr._witness_12 replaces."""
    X = mask_vertices(mask)
    pairs = list(ksubsets(G.n, 2))
    index = {uv: i for i, uv in enumerate(pairs)}
    d = [0] * len(pairs)
    for a, b, c in G.edges:
        if mask >> a & 1:
            d[index[b, c]] += 1
        if mask >> b & 1:
            d[index[a, c]] += 1
        if mask >> c & 1:
            d[index[a, b]] += 1
    w = [den * dv - num * len(X) for dv in d]
    if sum(w) >= 0:
        indexes = [i for i, wi in enumerate(w) if wi > 0]
        scaled = sum(w[i] for i in indexes)
    else:
        indexes = [i for i, wi in enumerate(w) if wi < 0]
        scaled = -sum(w[i] for i in indexes)
    return scaled, X, tuple(pairs[i] for i in indexes)


def ksubsets_witness_12(G, mask, num, den):
    """qr._witness_12 with its pairs listed by ksubsets, not by np.tri."""
    n = G.n
    X = mask_vertices(mask)
    member = np.zeros(n, dtype=bool)
    member[list(X)] = True
    a, b, c = G.edge_array.T.astype(np.intp)
    d = np.zeros(n * n, dtype=np.int64)
    for x, u, v in ((a, b, c), (b, a, c), (c, a, b)):
        inside = member[x]
        d += np.bincount(u[inside] * n + v[inside], minlength=n * n)
    pairs = np.fromiter(itertools.chain.from_iterable(ksubsets(n, 2)), np.intp, 2 * binom(n, 2))
    u, v = pairs.reshape(-1, 2).T
    w = d[u * n + v].astype(object) * den - num * len(X)
    scaled, indexes = reference_best_support(w)
    return scaled, X, tuple(zip(u[indexes].tolist(), v[indexes].tolist()))


def reference_best_support(w):
    """The weight rule that qr._best_support replaces, on den-scaled weights w
    of object dtype: max(sum of positive w, -(sum of negative w)) and the
    indexes attaining it, ties to the positive support."""
    support = np.flatnonzero(w > 0 if w.sum() >= 0 else w < 0)
    return abs(int(w[support].sum())), support


def fractions_over(dens):
    return dens.flatmap(lambda den: st.integers(0, den).map(lambda num: Fraction(num, den)))


# small fractions fit int64 weights; denominators near 2^60 need Python ints
PROBABILITIES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    fractions_over(st.integers(2**60 - 2**20, 2**60 + 2**20)),
)
# the sweep holds one int64 limb for small fractions and two or more for the
# benchmark's 2^55 denominators and for 2^60 to 2^64
SWEEP_PROBABILITIES = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    fractions_over(st.integers(0, 2**20).map(lambda r: 2**55 + 2 * r + 1)),
    fractions_over(st.integers(2**60, 2**64)),
)


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

    def test_huge_denominator_is_exact_on_limbs(self):
        # no other path: den past int64 splits the sweep's scores into limbs
        G = erdos_renyi(5, 3, Fraction(1, 2), seed=3)
        p = Fraction(10**20 + 1, 3 * 10**20)
        assert len(qr._Score(10, 5, p.numerator, p.denominator).den_limbs) == 2
        assert deviation_12_exact(G, p).D == brute_dev12(G, p)
        H = erdos_renyi(4, 3, Fraction(1, 2), seed=3)
        assert deviation_111_exact(H, p).D == brute_dev111(H, p)
        # den alone overflows int64; with n = 1 this used to raise OverflowError
        for n in (0, 1, 2):
            H = build(n, 3, [])
            assert deviation_12_exact(H, p).D == brute_dev12(H, p)
            assert deviation_12_sampled(H, p, trials=4, seed=0).D <= brute_dev12(H, p)
            assert deviation_111_exact(H, p).D == brute_dev111(H, p)

    def test_threads_do_not_change_output(self):
        # at n = 13 each worker's (1,2) sweep has outer Gray bits on both
        # dtypes; (1,1,1) at n = 10 has 8 Y blocks, and with BLOCK_BYTES at
        # 4096, n = 8 has 64 (int64) or 256 (big int) blocks of few groups
        big = Fraction(2**55 + 1, 3 * 2**55 + 7)
        cases = [(deviation_12_exact, 10, Fraction(1, 2), qr.BLOCK_BYTES),
                 (deviation_12_exact, 13, Fraction(1, 3), qr.BLOCK_BYTES),
                 (deviation_12_exact, 13, big, qr.BLOCK_BYTES),
                 (deviation_111_exact, 10, Fraction(1, 3), qr.BLOCK_BYTES),
                 (deviation_111_exact, 8, Fraction(1, 3), 4096),
                 (deviation_111_exact, 8, big, 4096)]
        for deviation, n, p, block_bytes in cases:
            G = erdos_renyi(n, 3, Fraction(1, 2), seed=99)
            with mock.patch.object(qr, "BLOCK_BYTES", block_bytes):
                one = deviation(G, p, threads=1)
                four = deviation(G, p, threads=4)
            assert one == four
            assert dumps(one) == dumps(four)

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # a serial stand-in pool records max_workers; no process is started
        seen = []

        class SerialPool:
            def __init__(self, max_workers, mp_context):
                assert mp_context.get_start_method() == "spawn"
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(qr, "ProcessPoolExecutor", SerialPool)
        G = erdos_renyi(9, 3, Fraction(1, 2), seed=98)
        p = Fraction(1, 3)
        for deviation in (deviation_12_exact, deviation_111_exact):
            seen.clear()
            serial = deviation(G, p, threads=1)
            assert seen == []
            monkeypatch.setattr(qr.os, "cpu_count", lambda: 2)
            assert deviation(G, p, threads=10**6) == serial
            assert seen == [2]
            for cpus in (None, 1, 3, 8, 64):  # every split gives the same report
                monkeypatch.setattr(qr.os, "cpu_count", lambda: cpus)
                assert deviation(G, p, threads=10**6) == serial
                assert max(seen) <= max(cpus or 1, 2)

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

    def test_sparse_graph_memory_and_time_stay_bounded(self):
        # n = 400 with 300 edges: the n x C(n, 2) link rows alone would take
        # 255 MB; sampling counts each start vector from the edges instead
        rng = random.Random(400)
        edges = {tuple(sorted(rng.sample(range(400), 3))) for _ in range(300)}
        G = build(400, 3, sorted(edges))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = deviation_12_sampled(G, Fraction(1, 1000), trials=50, seed=3)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.D > 0
        assert peak < 32 * 2**20
        assert elapsed < 10

    def test_scales_past_the_exact_limit(self):
        # n = 40 is far beyond the 2^n loop; sampling still works
        G = erdos_renyi(40, 3, Fraction(1, 2), seed=55)
        report = deviation_12_sampled(G, Fraction(1, 2), trials=300, seed=1)
        assert report.D > 0
        X, P = report.witness
        assert abs(e12(G, X, P) - Fraction(1, 2) * len(X) * len(P)) == report.D


def assert_agrees_with_the_reference_on_a_prefix(G, masks, best, hit, k):
    """(best, hit) of qr._sampled_best over masks: the reference scores of the
    first k masks, which take tens of ms each at n = 1000, fix its prefix."""
    prefix_best, prefix_hit = reference_sampled_best(G, masks[:k], 1, 1000)
    assert sampled_best(G, masks[:k], 1, 1000) == (prefix_best, prefix_hit)
    assert best >= prefix_best
    assert hit[:k].tolist() == (prefix_hit if best == prefix_best else [False] * k)


def sparse_graph(n, size, seed):
    rng = random.Random(seed)
    return build(n, 3, [rng.sample(range(n), 3) for _ in range(size)])


class TestSampledScorer:
    """qr._sampled_best against the per-trial path it replaces."""

    @staticmethod
    @st.composite
    def scored_graphs(draw):
        # up to 130 vertices, so that a link spans 3 words
        n = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 63, 64, 65, 128, 129, 130]),
                           st.integers(4, 130)))
        kind = draw(st.sampled_from(["empty", "complete", "dense", "sparse"]))
        if kind == "empty" or n < 3:
            return build(n, 3, [])
        if kind == "complete":
            return complete(min(n, 70), 3)
        seed = draw(st.integers(0, 2**32))
        if kind == "dense":
            return erdos_renyi(min(n, 40), 3, Fraction(1, 2), seed=seed)
        return sparse_graph(n, draw(st.integers(1, 300)), seed)

    @given(
        scored_graphs(),
        PROBABILITIES,
        st.integers(1, 40),
        st.integers(0, 2**32),
        # 64 and 256 bytes split both the pairs and the trials into blocks
        st.sampled_from([64, 256, 1024, 4096, qr.BLOCK_BYTES]),
    )
    @example(build(9, 3, []), Fraction(0), 30, 5, 64)  # every trial ties at 0
    # three words a link; 64 bytes hold blocks of 2 pairs and of 4 trials
    @example(sparse_graph(130, 300, 1), Fraction(1, 7), 30, 5, 64)
    @example(sparse_graph(130, 300, 2), Fraction(2**60 + 1, 2**61 + 3), 30, 5, 64)
    @example(complete(9, 3), Fraction(1), 30, 5, 64)
    @example(erdos_renyi(20, 3, Fraction(1, 2), seed=4), Fraction(2**60 + 1, 3 * 2**60), 10, 2,
             qr.BLOCK_BYTES)
    @settings(max_examples=120, deadline=None)
    def test_scores_match_the_per_trial_path(self, G, p, trials, seed, block_bytes):
        num, den = p.numerator, p.denominator
        rng = random.Random(seed)
        masks = [rng.getrandbits(G.n) if G.n else 0 for _ in range(trials)]
        expected = reference_sampled_best(G, masks, num, den)
        with mock.patch.object(qr, "BLOCK_BYTES", block_bytes):
            assert sampled_best(G, masks, num, den) == expected
            report = deviation_12_sampled(G, p, trials=trials, seed=seed)
        best, hit = expected
        assert report.D == Fraction(best, den)
        smallest = min(m for m, tied in zip(masks, hit) if tied)
        assert report.witness[0] == mask_vertices(smallest)

    def test_smallest_mask_wins_ties(self):
        # with no edges and p = 0 every score is 0; drawn masks repeat at n = 2
        for n in (2, 5, 70):
            report = deviation_12_sampled(build(n, 3, []), 0, trials=25, seed=9)
            rng = random.Random(9)
            assert report.D == 0
            assert report.witness[0] == mask_vertices(min(rng.getrandbits(n) for _ in range(25)))

    @given(
        scored_graphs(),
        PROBABILITIES,
        st.integers(0, 2**130),
    )
    @settings(max_examples=60, deadline=None)
    def test_witness_matches_the_dict_loop(self, G, p, bits):
        mask = bits & ((1 << G.n) - 1)
        num, den = p.numerator, p.denominator
        assert _witness_12(G, mask, num, den) == reference_witness_12(G, mask, num, den)

    def test_witness_pairs_are_listed_in_colex_order(self):
        for n in range(71):
            v, u = np.nonzero(np.tri(n, k=-1, dtype=bool))
            assert list(zip(u.tolist(), v.tolist())) == list(ksubsets(n, 2))

    def test_witness_matches_the_ksubsets_listing(self):
        rng = random.Random(12)
        sparse = build(300, 3, sorted({tuple(sorted(rng.sample(range(300), 3))) for _ in range(200)}))
        graphs = [build(n, 3, []) for n in range(4)]
        graphs += [erdos_renyi(n, 3, Fraction(1, 2), seed=n) for n in (3, 9, 44, 70)] + [sparse]
        for G in graphs:
            for p in (Fraction(0), Fraction(2, 5), Fraction(1), Fraction(2**60 + 1, 3 * 2**60)):
                num, den = p.numerator, p.denominator
                for mask in (0, (1 << G.n) - 1, rng.getrandbits(max(G.n, 1)) & ((1 << G.n) - 1)):
                    assert _witness_12(G, mask, num, den) == ksubsets_witness_12(G, mask, num, den)

    def test_memory_does_not_grow_with_the_pair_words(self):
        # n = 1000 with 300 edges: one word row over all C(n, 2) pairs would
        # take C(1000, 2) * 16 * 8 bytes = 64 MB; the scorer builds words for
        # the at most 900 pairs that lie in an edge
        rng = random.Random(400)
        edges = {tuple(sorted(rng.sample(range(1000), 3))) for _ in range(300)}
        G = build(1000, 3, sorted(edges))
        masks = [rng.getrandbits(1000) for _ in range(200)]
        tracemalloc.start()
        try:
            best, hit = qr._sampled_best(G, masks, 1, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_agrees_with_the_reference_on_a_prefix(G, masks, best, hit, 5)
        # a few block arrays; one bincount of the per-trial path took 4 MB
        assert peak < 2 * 2**20

    def test_words_are_built_a_pair_block_at_a_time(self):
        # n = 1000 with 20000 edges: about 56000 pairs lie in an edge, and their
        # words, 16 a pair, would take 6.9 MiB at once; the incidences take
        # about 100 bytes an edge, and the blocks a few BLOCK_BYTES
        rng = random.Random(401)
        edges = {tuple(sorted(rng.sample(range(1000), 3))) for _ in range(20000)}
        G = build(1000, 3, sorted(edges))
        masks = [rng.getrandbits(1000) for _ in range(200)]
        tracemalloc.start()
        try:
            best, hit = qr._sampled_best(G, masks, 1, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_agrees_with_the_reference_on_a_prefix(G, masks, best, hit, 3)
        assert peak < 4 * qr.BLOCK_BYTES + 160 * len(edges) < 56000 * 16 * 8

    def test_the_widest_vertex_range_fills_every_word(self):
        # n = 4472, the most vertices whose C(n, 2) pairs the scorer admits: a
        # link is 70 words, and the edges reach words 0, 31 and 69.  Measured
        # on a 2-vCPU VM: a peak of 0.52 MiB and 30-80 ms under tracemalloc
        G = build(4472, 3, [(0, 1, 2), (5, 2000, 4471)])
        rng = random.Random(4472)
        masks = [rng.getrandbits(4472) for _ in range(200)]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            best, hit = qr._sampled_best(G, masks, 1, 1000)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_agrees_with_the_reference_on_a_prefix(G, masks, best, hit, 1)
        assert peak < 4 * qr.BLOCK_BYTES
        assert elapsed < 1

    def test_a_denominator_past_int64_costs_no_memory(self):
        # n = 500 with 300 edges: the witness lists about 124000 pairs; weights
        # past int64, one Python int for each of the C(n, 2) pairs, would raise
        # the peak by a fifth, but counts decide every weight's sign
        rng = random.Random(400)
        G = build(500, 3, sorted({tuple(sorted(rng.sample(range(500), 3))) for _ in range(300)}))
        peaks = []
        for p in (Fraction(1, 3), Fraction(2**64 + 1, 3 * 2**64 + 1)):
            tracemalloc.start()
            try:
                report = deviation_12_sampled(G, p, trials=20, seed=3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.D > 0
        assert peaks[1] <= 1.05 * peaks[0]


class TestBestSupport:
    """qr._best_support, on counts, against the weight rule it replaces."""

    @staticmethod
    @st.composite
    def supports(draw):
        """int64 counts d, den and c in [0, den * max(d)]: random counts, all
        equal ones, or ones whose weights den*d - c sum to 0, where the tie goes
        to the positive support.  c also lands next to a multiple den*x of a
        count, where floor and ceiling of c / den part."""
        den = draw(st.one_of(st.integers(1, 12), st.integers(2**60, 2**66)))
        d = draw(st.lists(st.integers(0, 2**40), max_size=40))
        kind = draw(st.sampled_from(["random", "equal", "balanced"]))
        if kind == "equal":
            d = [draw(st.integers(0, 2**40))] * len(d)
        if kind == "balanced" and d:
            # w = den * (len(d) x - sum d) over the counts x of d
            return np.array([x * len(d) for x in d], dtype=np.int64), den * sum(d), den
        top = den * max(d, default=0)
        near = [den * x + e for x in d for e in (-1, 0, 1)]
        c = draw(st.one_of(st.integers(0, top), st.sampled_from(near or [0])))
        return np.array(d, dtype=np.int64), min(max(c, 0), top), den

    @given(supports())
    @example((np.zeros(0, dtype=np.int64), 0, 1))
    @example((np.array([3, 1, 2], dtype=np.int64), 2 * (2**64 + 1), 2**64 + 1))  # sum w = 0
    @settings(max_examples=300, deadline=None)
    def test_matches_the_weight_rule(self, args):
        d, c, den = args
        scaled, support = qr._best_support(d, c, den)
        expected, indexes = reference_best_support(d.astype(object) * den - c)
        assert scaled == expected
        assert support.tolist() == indexes.tolist()


def python_int_score(num, den, width, D, lo, d_lo, m):
    """The score of a state on Python ints, with c = num * m."""
    c = num * m
    return max(den * D - c * width, 0) + c * lo - den * d_lo


# one int64 limb for small fractions, two near 2^55 and 2^61, three or more past
# 2^100; from 2^47 c = num * m can need a limb more than den
SCORE_DENOMINATORS = st.one_of(st.integers(1, 12), st.integers(2**47, 2**50),
                               st.integers(2**55, 2**55 + 2**20),
                               st.integers(2**61 - 2**20, 2**61), st.integers(2**100, 2**130))


class TestScore:
    """qr._Score.best against the Python-int score of each state."""

    @staticmethod
    @st.composite
    def scored_states(draw, width=st.integers(0, 5000), top=st.integers(0, 5000),
                      dens=SCORE_DENOMINATORS):
        """A _Score's arguments and states (D, lo, d_lo, m) in `groups` columns,
        as a sweep has them: lo of `width` columns of counts at most `top` lie
        below ceil(num*m / den) and sum to d_lo, the rest reach it, and D sums
        all, often next to ceil(num*m*width / den), where the larger support
        changes sides.  Copies of the best state tie with it."""
        width, top, den = draw(width), draw(top), draw(dens)
        num, groups = draw(st.integers(0, den)), draw(st.integers(1, 3))
        states = []
        for _ in range(draw(st.integers(1, 4)) * groups):
            m = draw(st.integers(0, top))
            thr = -(-num * m // den)
            lo = draw(st.integers(0, width if thr else 0))
            d_lo = draw(st.integers(0, lo * max(thr - 1, 0)))
            least, most = d_lo + (width - lo) * thr, d_lo + (width - lo) * top
            side = -(-num * m * width // den)
            near = [min(max(side + e, least), most) for e in (-1, 0)]
            D = draw(st.one_of(st.integers(least, most), st.sampled_from(near)))
            states.append((D, lo, d_lo, m))
        scores = [python_int_score(num, den, width, *state) for state in states]
        for i in draw(st.lists(st.integers(0, len(states) - 1), max_size=3)):
            states[i] = states[scores.index(max(scores))]
        return width, top, num, den, groups, states

    @staticmethod
    def check_best(width, top, num, den, groups, states, narrow=False):
        """Score states as (rows, groups) arrays: int64, as the sampled scorer
        passes them, or with lo and d_lo in the _Score dtypes, as _sweep does."""
        score = qr._Score(width, top, num, den)
        D, lo, d_lo, m = (np.array(column, dtype=np.int64).reshape(-1, groups)
                          for column in zip(*states))
        if narrow:
            lo, d_lo = lo.astype(score.lo_dtype), d_lo.astype(score.d_lo_dtype)
        m = m.astype(np.intp)
        best, hit = score.best(D, lo, d_lo, m)
        expected = [python_int_score(num, den, width, *state) for state in states]
        assert best == max(expected)
        assert hit.ravel().tolist() == [value == best for value in expected]
        # each state alone, so that a state below the best is scored too
        for index, value in zip(np.ndindex(D.shape), expected):
            assert score.best(D[index], lo[index], d_lo[index], m[index]) == (value, True)
        return score

    @given(scored_states(), st.booleans())
    @example((0, 7, 1, 3, 1, [(0, 0, 0, 0), (0, 0, 0, 7)]), True)  # no columns
    @example((5, 4, 0, 1, 2, [(0, 0, 0, 0)] * 4), True)  # every state ties at 0
    @example((3, 2, 1, 1, 1, [(0, 3, 0, 2), (6, 0, 0, 2), (0, 3, 0, 2)]), False)
    # den takes one 49-bit limb, c = num * 5000 two
    @example((1, 5000, 2**49 - 2, 2**49 - 1, 1, [(0, 1, 0, 5000), (4999, 1, 4999, 5000)]), False)
    @settings(max_examples=300, deadline=None)
    def test_best_matches_the_python_int_score(self, args, narrow):
        self.check_best(*args, narrow=narrow)

    @pytest.mark.parametrize("den, limbs", [(7, 1), (2**55 + 3, 2), (2**100 + 1, 3)])
    def test_limbs_grow_with_the_denominator(self, den, limbs):
        # 300 columns of counts at most 22 leave 49-bit limbs
        score = qr._Score(300, 22, den - 2, den)
        assert (score.bits, len(score.den_limbs)) == (49, limbs)
        # every column at 22, every column below the threshold, and an empty X
        thr = -(-(den - 2) * 22 // den)
        states = [(22 * 300, 0, 0, 22), ((thr - 1) * 300, 300, (thr - 1) * 300, 22), (0, 0, 0, 0)]
        self.check_best(300, 22, den - 2, den, 1, states)

    @given(scored_states(width=st.just(binom(4472, 2)), top=st.just(4472),
                         dens=st.integers(2**55, 2**56 - 1)))
    @settings(max_examples=100, deadline=None)
    def test_the_sampled_bound_at_the_pair_cap(self, args):
        # the most pairs a sampled (1,2) run scores: C(4472, 2) of counts at most 4472
        assert binom(4472, 2) <= MAX_ENTRIES < binom(4473, 2)
        score = self.check_best(*args)
        assert (score.bits, len(score.den_limbs)) == (26, 3)
        width, top, num, den = args[:4]
        thr = -(-num * top // den)
        extremes = [(top * width, 0, 0, top), ((thr - 1) * width, width, (thr - 1) * width, top)]
        self.check_best(width, top, num, den, 1, extremes if thr else extremes[:1])


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

    def test_memory_stays_within_a_few_blocks(self):
        # one (n, 2^n, n) int64 array of every Y would take 4.5 MiB at n = 12;
        # each Y block builds rows of 128 groups, 0.14 MiB
        G = erdos_renyi(12, 3, Fraction(1, 2), seed=12)
        tracemalloc.start()
        try:
            report = deviation_111_exact(G, Fraction(1, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.D > 0
        assert peak < 2 * 2**20 < 12 * 2**12 * 12 * 8

    @given(st.integers(0, 9), st.integers(0, 2**32), st.integers(0, 2**9 - 1),
           st.integers(0, 2**9 - 1))
    @settings(max_examples=40, deadline=None)
    def test_e111_vector_matches_the_counts(self, n, seed, xbits, ybits):
        G = erdos_renyi(n, 3, Fraction(1, 2), seed=seed)
        xmask, ymask = xbits & ((1 << n) - 1), ybits & ((1 << n) - 1)
        X, Y = mask_vertices(xmask), mask_vertices(ymask)
        assert qr._e111_vector(G, xmask, ymask).tolist() == [
            e111(G, X, Y, [z]) for z in range(n)
        ]


class TestSweepKernel:
    """Every deviation runs on the one Gray-sweep kernel; check it against the oracles."""

    @staticmethod
    @st.composite
    def graphs(draw, max_n):
        n = draw(st.integers(0, max_n))
        triples = list(itertools.combinations(range(n), 3))
        keep = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
        return build(n, 3, [t for t, k in zip(triples, keep) if k])

    probabilities = PROBABILITIES

    @given(graphs(5), probabilities)
    @settings(max_examples=40, deadline=None)
    def test_12_exact_matches_brute_force(self, G, p):
        assert deviation_12_exact(G, p).D == brute_dev12(G, p)

    @given(graphs(4), probabilities)
    @settings(max_examples=30, deadline=None)
    def test_111_exact_matches_brute_force(self, G, p):
        assert deviation_111_exact(G, p).D == brute_dev111(G, p)

    @staticmethod
    @st.composite
    def sweeps(draw, groups):
        """Kernel inputs: count rows, sizes, p, mask, low_bits and a block
        budget, with `groups` drawn from its strategy.  Entries of group g are
        at most sizes[g], as the kernel requires."""
        g = draw(groups)
        n = draw(st.integers(0, 8))
        low_bits = draw(st.integers(0, n))
        width = draw(st.sampled_from([0, 1, 3, 40, 300]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        # 0/1 rows of one size, as in (1,2), or counts up to each group's size,
        # as in (1,1,1); all-zero and all-full rows are heavy with ties, within
        # and across groups
        sizes = draw(st.one_of(st.just([1] * g),
                               st.lists(st.integers(0, 9), min_size=g, max_size=g)))
        cap = np.array(sizes)[None, :, None]
        fill = draw(st.sampled_from(["random", "sparse", "zero", "full"]))
        rows = {
            "random": lambda: rng.integers(0, cap + 1, size=(n, g, width)),
            "sparse": lambda: cap * (rng.random((n, g, width)) < 0.1),
            "zero": lambda: np.zeros((n, g, width)),
            "full": lambda: np.broadcast_to(cap, (n, g, width)),
        }[fill]().astype(np.uint8)
        rows[list(mask_vertices(draw(st.integers(0, 2**n - 1))))] = 0
        mask = draw(st.integers(0, 2 ** (n - low_bits) - 1)) << low_bits
        # small budgets leave outer Gray bits above the block
        block_bytes = draw(st.sampled_from([64, 512, 4096, qr.BLOCK_BYTES]))
        return rows, sizes, draw(SWEEP_PROBABILITIES), mask, low_bits, block_bytes

    @staticmethod
    def check_sweep(rows, sizes, p, mask, low_bits, block_bytes):
        num, den = p.numerator, p.denominator
        with mock.patch.object(qr, "BLOCK_BYTES", block_bytes):
            got = qr._sweep(rows, sizes, num, den, mask, low_bits)
        assert got == oracle_sweep(rows, sizes, num, den, mask, low_bits)
        return got

    @given(sweeps(st.just(1)))
    # outer bits 2 and 3; only row 3 is nonzero, so the Gray walk reaches mask
    # 0b1100 before the smaller tying mask 0b1000
    @example((np.repeat(np.array([[[0]], [[0]], [[0]], [[1]]], dtype=np.uint8), 40, axis=2),
              [1], Fraction(0), 0, 4, (40 + qr.SCORE_BYTES) << 2))
    @example((np.ones((6, 1, 40), dtype=np.uint8), [1], Fraction(2**55 + 1, 3 * 2**55 + 7),
              0, 6, 512))
    @settings(max_examples=150, deadline=None)
    def test_sweep_matches_reference_kernel(self, args):
        self.check_sweep(*args)

    @given(sweeps(st.integers(2, 8)))
    @example(gray_tie_sweep())
    @example((np.full((3, 2, 4), 9, dtype=np.uint8), [9, 9], Fraction(2**64 - 1, 2**64), 0, 3, 64))
    @settings(max_examples=150, deadline=None)
    def test_grouped_sweep_matches_reference_per_group(self, args):
        self.check_sweep(*args)

    def test_grouped_sweep_ties_go_to_the_smallest_mask_then_group(self):
        rows, sizes, p, mask, low_bits, block_bytes = gray_tie_sweep()
        with mock.patch.object(qr, "BLOCK_BYTES", block_bytes):
            assert qr._block_bits(2, 8, np.uint8, 5) == 2
        assert self.check_sweep(*gray_tie_sweep()) == (8, 0b10000, 1)

    def test_narrow_dtypes_meet_the_oracle_at_their_bounds(self):
        big = Fraction(2**55 + 1, 3 * 2**55 + 7)
        # every column sums to n * size, 255 in uint8 and 256 in uint16
        for n, size, dtype in ((5, 51, np.uint8), (4, 64, np.uint16)):
            assert qr._Score(3, n * size, 1, 2).count == dtype
            rows = np.full((n, 1, 3), size, dtype=np.uint8)
            for p in (Fraction(0), Fraction(1, 2), Fraction(1), big):
                self.check_sweep(rows, [size], p, 0, n, qr.BLOCK_BYTES)
        # 300 columns of counts 124 below thresholds 125 k at p = 1: lo reaches
        # 300 and d_lo 148800, past uint8 and 2^16
        rows = np.full((4, 1, 300), 124, dtype=np.uint8)
        score = qr._Score(300, 500, 1, 1)
        assert (score.count, score.lo_dtype, score.d_lo_dtype) == (np.uint16, np.uint16, np.uint32)
        for p in (Fraction(1), Fraction(2**64 - 1, 2**64)):
            assert self.check_sweep(rows, [125], p, 0, 4, qr.BLOCK_BYTES)[1] == 0b1111

    @pytest.mark.parametrize("deviation, n", [(deviation_12_exact, 14), (deviation_111_exact, 8)])
    def test_big_int_p_stays_within_a_few_blocks(self, deviation, n):
        # a block's table, its copy and its compare, and the int64 limbs of its
        # scores: no array of Python ints at any p
        G = erdos_renyi(n, 3, Fraction(1, 2), seed=14)
        p = Fraction(2**55 + 1, 3 * 2**55 + 7)
        tracemalloc.start()
        try:
            report = deviation(G, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.D > 0
        assert peak < 4 * qr.BLOCK_BYTES

    def test_sweep_block_fills_its_byte_budget(self):
        for dtype in (np.uint8, np.uint16):
            for groups, width in itertools.product((1, 3, 64), (0, 1, 5, 78, 120, 190, 700, 5000)):
                b = qr._block_bits(groups, width, dtype, 64)
                cost = groups * (width * np.dtype(dtype).itemsize + qr.SCORE_BYTES)
                # the largest block in the budget; one state at least
                assert b == 0 or cost << b <= qr.BLOCK_BYTES
                assert qr.BLOCK_BYTES < cost << b + 1
                assert qr._block_bits(groups, width, dtype, 3) == min(b, 3)
        # (1,2) at n = 16 and (1,1,1) at n = 16 (uint16 counts) have outer Gray bits
        assert qr._block_bits(1, 120, np.uint8, 16) < 16
        assert qr._Score(16, 16 * 16, 1, 2).count == np.uint16
        assert qr._block_bits(1, 10**6, np.uint8, 0) == 0

    def test_111_witness_is_smallest_mask_pair(self):
        # graphs where the first maximum in Gray order over X is not the
        # smallest X mask attaining it
        cases = [
            ([(0, 1, 2), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4), (1, 3, 4)], Fraction(1, 6)),
            ([(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 1, 4), (0, 3, 4), (2, 3, 4)], Fraction(1, 3)),
            ([(0, 1, 2), (0, 1, 3), (1, 2, 3), (1, 3, 4), (2, 3, 4)], Fraction(1, 3)),
        ]
        for (edges, p), block_bytes in itertools.product(cases, (qr.BLOCK_BYTES, 64)):
            # at 64 bytes each Y is a block of its own, and ties meet across blocks
            G = build(5, 3, edges)
            with mock.patch.object(qr, "BLOCK_BYTES", block_bytes):
                report = deviation_111_exact(G, p)

            def best_over_z(xmask, ymask):
                X, Y = mask_vertices(xmask), mask_vertices(ymask)
                w = [e111(G, X, Y, [z]) - p * len(X) * len(Y) for z in range(5)]
                return max(sum(wz for wz in w if wz > 0), -sum(wz for wz in w if wz < 0))

            first = next(
                (xmask, ymask)
                for xmask in range(1 << 5)
                for ymask in range(1 << 5)
                if best_over_z(xmask, ymask) == report.D
            )
            assert report.witness[:2] == tuple(map(mask_vertices, first))

    @given(graphs(8), probabilities, st.integers(1, 30), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_sampled_is_best_witness_over_drawn_masks(self, G, p, trials, seed):
        rng = random.Random(seed)
        masks = [rng.getrandbits(G.n) if G.n else 0 for _ in range(trials)]
        scores = {m: _witness_12(G, m, p.numerator, p.denominator)[0] for m in masks}
        best = max(scores.values())
        report = deviation_12_sampled(G, p, trials=trials, seed=seed)
        assert report.D == Fraction(best, p.denominator)
        assert report.witness[0] == mask_vertices(min(m for m in scores if scores[m] == best))

    def test_witness_agrees_with_scorer_at_60_vertices(self):
        # the scorer groups pairs by combinatorics.colex_order, the witness
        # lists them off np.tri: two derivations of colex order
        G = erdos_renyi(60, 3, Fraction(1, 2), seed=3)
        p = Fraction(2, 5)
        num, den = p.numerator, p.denominator
        mask = random.Random(8).getrandbits(60)
        scaled, X, P = _witness_12(G, mask, num, den)
        assert sampled_best(G, [mask], num, den) == (scaled, [True])
        assert (scaled, X, P) == reference_witness_12(G, mask, num, den)
        assert X == mask_vertices(mask)
        assert abs(e12(G, X, P) - p * len(X) * len(P)) == Fraction(scaled, den)

    def test_failed_witness_recheck_is_internal_error(self, monkeypatch, capsys, tmp_path):
        G = erdos_renyi(6, 3, Fraction(1, 2), seed=1)
        g = tmp_path / "g.hg"
        dump(G, g)
        p = Fraction(1, 2)
        witness_12, e111_vector = qr._witness_12, qr._e111_vector

        def off_by_one(*args):
            scaled, X, P = witness_12(*args)
            return scaled + 1, X, P

        monkeypatch.setattr(qr, "_witness_12", off_by_one)
        monkeypatch.setattr(qr, "_e111_vector", lambda *a: e111_vector(*a) + 1)
        for run in (
            lambda: deviation_12_exact(G, p),
            lambda: deviation_12_sampled(G, p, trials=5, seed=0),
            lambda: deviation_111_exact(G, p),
        ):
            with pytest.raises(DegexError, match="^internal error: witness"):
                run()
        # the CLI prints the message once, without doubling its prefix
        for flags in (("--kind", "12"), ("--kind", "12", "--mode", "sampled"), ("--kind", "111")):
            assert cli_main(["qr", "--in", str(g), "--p", "1/2", *flags]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("internal error: witness")
            assert captured.err.count("internal error") == 1
            assert captured.err.count("\n") == 1


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
