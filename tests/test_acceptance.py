"""Acceptance suite: one test per release criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every assertion is exact (integer / rational) except where a
criterion is explicitly statistical (success rates, wall-clock caps).
"""

import itertools
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from degex.cli import main as cli_main
from degex.combinatorics import binom, colex_rank, colex_unrank
from degex.degree import degree_of, degree_table, eps_min_degree, min_degree
from degex.extraction import (
    audit_bad_total,
    audit_eq3,
    extract_exhaustive,
    extract_random,
    theorem_params,
)
from degex.generators import deletion_bound, erdos_renyi, partition_deletion
from degex.hypergraph import build, dump
from degex.quasirandomness import (
    check_qr_codegree_implication,
    deviation_111_exact,
    deviation_12_exact,
)

from oracles import brute_dev111, brute_dev12, naive_eps_min


def report(line: str) -> None:
    print(f"[acceptance] {line}")


# ---------------------------------------------------------------------------
# 1. degree tables, handshake, eps-minimum vs naive oracles


def test_criterion_1_degree_oracle_suite():
    start = time.perf_counter()
    probs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for i in range(100):
        n = 6 + i % 7          # 6..12
        r = 3 + i % 2          # 3 or 4
        G = erdos_renyi(n, r, probs[i % 3], seed=9000 + i)
        for ell in range(1, r):
            table = degree_table(G, ell)
            # pointwise brute-force agreement
            for rank, d in enumerate(table.degrees):
                assert d == degree_of(G, colex_unrank(rank, ell, n))
            # handshake: every edge contributes C(r, l) subset increments
            assert sum(table.degrees) == G.edge_count * binom(r, ell)
            # eps-minimum against a try-every-d oracle
            total = len(table.degrees)
            cap = table.max_possible
            for tenth in range(11):
                eps = Fraction(tenth, 10)
                expected = naive_eps_min(table.degrees, math.floor(eps * total), cap)
                assert eps_min_degree(G, ell, eps) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s, cap is 30s"
    report(f"criterion 1 (degree oracle suite, 100 instances, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 2 + 3. exact counting audits on a shared instance schedule


AUDIT_PROBS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
EDGE_PROBS = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
DELTAS = (Fraction(1, 10), Fraction(1, 4))


def audit_instances():
    for i in range(200):
        n = 10 + i % 5         # 10..14
        m = 4 + i % 4          # 4..7
        p = AUDIT_PROBS[i % 3]
        pe = EDGE_PROBS[(i // 3) % 3]
        delta = DELTAS[i % 2]
        yield i, n, m, p, delta, erdos_renyi(n, 3, pe, seed=9500 + i)


def test_criterion_2_eq3_always_holds():
    start = time.perf_counter()
    for i, n, m, p, _, G in audit_instances():
        result = audit_eq3(G, 2, m, p)
        assert result.holds, f"instance {i}: lhs={result.lhs} rhs={result.rhs}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 2 took {elapsed:.1f}s, cap is 2min"
    report(f"criterion 2 (union-bound audit, 200 instances, {elapsed:.1f}s): PASS")


def test_criterion_3_good_count_identity():
    start = time.perf_counter()
    for i, n, m, p, delta, G in audit_instances():
        good = extract_exhaustive(G, 2, m, p, delta).count
        poor_free = audit_eq3(G, 2, m, p).lhs
        bad_sum = audit_bad_total(G, 2, m, p, delta).lhs
        assert good >= poor_free - bad_sum, (
            f"instance {i}: good={good} poor_free={poor_free} bad={bad_sum}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"criterion 3 took {elapsed:.1f}s, cap is 5min"
    report(f"criterion 3 (good >= poor-free - bad, 200 instances, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 4. extraction soundness and Monte Carlo success rate


def test_criterion_4_extraction_soundness_and_success():
    start = time.perf_counter()
    # soundness on fully enumerable instances
    for seed in range(15):
        n = 10 + seed % 3
        G = erdos_renyi(n, 3, Fraction(3, 5), seed=9700 + seed)
        p, delta = Fraction(1, 2), Fraction(1, 4)
        exhaustive = extract_exhaustive(G, 2, 6, p, delta)
        result = extract_random(G, 2, 6, p, delta, budget=25, seed=seed)
        H, _ = G.induced(result.subset)
        assert result.achieved_min_degree == min_degree(H, 2)
        if result.success:
            assert colex_rank(result.subset).rank in exhaustive.good_ranks

    # concentration regime: dense random graphs almost always yield a subset
    successes = 0
    p, delta = Fraction(7, 10), Fraction(1, 4)
    for seed in range(100):
        G = erdos_renyi(30, 3, p, seed=13000 + seed)
        result = extract_random(G, 2, 10, p, delta, budget=200, seed=seed)
        if result.success:
            successes += 1
            H, _ = G.induced(result.subset)
            assert min_degree(H, 2) >= result.threshold
    assert successes >= 95, f"success rate {successes}/100 below 0.95"
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"criterion 4 took {elapsed:.1f}s, cap is 2min"
    report(
        f"criterion 4 (extraction soundness; success {successes}/100, {elapsed:.1f}s): PASS"
    )


# ---------------------------------------------------------------------------
# 5. the m0 formula against an independent high-precision oracle


M0_TUPLES = [
    (3, 2, Fraction(1, 10)),
    (3, 2, Fraction(1, 20)),
    (3, 2, Fraction(1, 1000)),
    (3, 1, Fraction(1, 10)),
    (3, 1, Fraction(1, 2)),
    (4, 2, Fraction(1, 10)),
    (4, 3, Fraction(1, 20)),
    (4, 1, Fraction(3, 10)),
    (5, 2, Fraction(1, 4)),
    (5, 4, Fraction(1, 100)),
    (5, 3, Fraction(1, 6)),
    (6, 3, Fraction(1, 8)),
    (6, 5, Fraction(1, 50)),
    (6, 1, Fraction(2, 5)),
    (7, 2, Fraction(1, 30)),
    (7, 6, Fraction(1, 9)),
    (8, 4, Fraction(1, 12)),
    (3, 2, Fraction(9, 10)),
    (4, 2, Fraction(1, 2)),
    (5, 1, Fraction(1, 64)),
]


def oracle_m0_and_validity(r, ell, delta):
    """One-shot 120-digit evaluation of the ceil formula and both conditions."""
    getcontext().prec = 120
    d = Decimal(delta.numerator) / Decimal(delta.denominator)
    ln_inv = (1 / d).ln()
    x = Fraction(26 * ell * (r - ell) ** 2) / (delta * delta) * Fraction(ln_inv)
    m0 = math.ceil(x)
    # guard against a boundary the 120-digit evaluation could not resolve
    assert abs(x - round(x)) > Fraction(1, 10**30)
    cond_small = Fraction(1, 1) / delta >= 26 * ell * (r - ell) ** 2 * Fraction(ln_inv)
    cond_two = (1 / delta) ** ell >= 2
    return m0, cond_small and cond_two


def test_criterion_5_m0_formula():
    assert theorem_params(3, 2, Fraction(1, 10), m=10).m0 == 11974
    for r, ell, delta in M0_TUPLES:
        expected_m0, expected_valid = oracle_m0_and_validity(r, ell, delta)
        tp = theorem_params(r, ell, delta, m=r)
        assert tp.m0 == expected_m0, (r, ell, delta)
        assert tp.delta_valid == expected_valid, (r, ell, delta)
    report(f"criterion 5 (m0 formula, {len(M0_TUPLES)} tuples): PASS")


# ---------------------------------------------------------------------------
# 6. discrepancy maximizers against full brute force


def test_criterion_6_discrepancy_oracle_equivalence():
    start = time.perf_counter()
    probs = (Fraction(0), Fraction(1, 2), Fraction(1))
    # every 3-graph on 4 vertices
    triples = list(itertools.combinations(range(4), 3))
    for bits in range(1 << len(triples)):
        G = build(4, 3, [t for i, t in enumerate(triples) if bits >> i & 1])
        for p in probs:
            assert deviation_12_exact(G, p).D == brute_dev12(G, p)
    # random 5-vertex instances
    for seed in range(50):
        G = erdos_renyi(5, 3, EDGE_PROBS[seed % 3], seed=14000 + seed)
        for p in probs:
            assert deviation_12_exact(G, p).D == brute_dev12(G, p)
    # ordered-triple deviation on n <= 4
    for seed in range(8):
        n = 3 + seed % 2
        G = erdos_renyi(n, 3, Fraction(1, 2), seed=14100 + seed)
        for p in probs:
            assert deviation_111_exact(G, p).D == brute_dev111(G, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"criterion 6 took {elapsed:.1f}s, cap is 5min"
    report(f"criterion 6 (discrepancy vs brute force, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 7. partition deletion: deleted-count cap, codegree kill, deviation growth


def test_criterion_7_partition_deletion_suite():
    start = time.perf_counter()
    p = Fraction(1, 2)
    for n in range(8, 13):
        for N in (2, 3, 4):
            G = erdos_renyi(n, 3, Fraction(1, 2), seed=15000 + 10 * n + N)
            H, spec = partition_deletion(G, N)
            deleted = G.edge_count - H.edge_count

            # (a) exact deleted-count cap
            assert deleted <= deletion_bound(n, N)

            # (b) every (N+1)-subset induces a codegree-0 pair (exhaustive)
            pair_link = {}
            for pair in itertools.combinations(range(n), 2):
                link = 0
                for z in range(n):
                    if z not in pair and H.has_edge(pair + (z,)):
                        link |= 1 << z
                pair_link[pair] = link
            checked = 0
            for X in itertools.combinations(range(n), N + 1):
                xmask = 0
                for v in X:
                    xmask |= 1 << v
                zero_pair = any(
                    pair_link[pair] & xmask == 0
                    for pair in itertools.combinations(X, 2)
                )
                assert zero_pair, (n, N, X)
                if checked < 20:  # spot-check the mask shortcut against the library
                    sub, _ = H.induced(X)
                    assert min_degree(sub, 2) == 0
                    checked += 1

            # (c) deviation grows by at most 3 per deleted edge
            dG = deviation_12_exact(G, p).D
            dH = deviation_12_exact(H, p).D
            assert dH <= dG + 3 * deleted
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"criterion 7 took {elapsed:.1f}s, cap is 10min"
    report(f"criterion 7 (partition deletion suite, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 8. quasirandom => codegree implication on seeded instances


def test_criterion_8_codegree_implication():
    start = time.perf_counter()
    for i in range(50):
        n = 12 + i % 3
        for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            G = erdos_renyi(n, 3, p, seed=16000 + i)
            verdict = check_qr_codegree_implication(G, p)
            assert verdict.passed, (
                f"seed {16000 + i}, n={n}, p={p}: "
                f"lhs={verdict.min_degree_eps} bound~{verdict.bound_float:.3f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 600, f"criterion 8 took {elapsed:.1f}s, cap is 10min"
    report(f"criterion 8 (codegree implication, 150 checks, {elapsed:.1f}s): PASS")


# ---------------------------------------------------------------------------
# 9. performance floor and thread-count independence


def test_criterion_9_performance_floor(tmp_path, capsys):
    G = erdos_renyi(20, 3, Fraction(1, 2), seed=424242)
    t0 = time.perf_counter()
    single = deviation_12_exact(G, Fraction(1, 2), threads=1)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60, f"n=20 exact sweep took {elapsed:.1f}s, cap is 60s"

    path = tmp_path / "n20.hg"
    dump(G, path)
    outputs = []
    for threads in ("1", "8"):
        code = cli_main(
            ["qr", "--in", str(path), "--kind", "12", "--p", "1/2",
             "--threads", threads]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1], "thread count changed the output bytes"
    assert f'"num": {single.D.numerator}' in outputs[0]
    report(f"criterion 9 (n=20 sweep {elapsed:.1f}s <= 60s; threads byte-identical): PASS")
