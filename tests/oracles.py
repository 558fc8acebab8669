"""Brute-force references for the tests, one definition of each.

Each counts its quantity from its definition, subset by subset, and shares
no code with the scan, branch count or sweep it checks.  The unit,
acceptance and CLI tests all read these.
"""

import itertools
from collections import Counter
from fractions import Fraction

from degex.combinatorics import binom, ksubsets
from degex.degree import degree_of

# ---------------------------------------------------------------------------
# degrees


def subset_degrees(G, ell):
    """deg(S) by l-subset S, as a Counter of the l-sub-tuples of the edges."""
    return Counter(
        itertools.chain.from_iterable(itertools.combinations(e, ell) for e in G.edges)
    )


def counter_degree_table(G, ell):
    """Reference table: subset_degrees read out over the l-subsets in colex order."""
    counts = subset_degrees(G, ell)
    return tuple(counts[S] for S in ksubsets(G.n, ell))


def naive_eps_min(degrees, exceptions, cap):
    """Try every d: the largest d with at most `exceptions` entries below it,
    capped at the largest possible degree."""
    best = 0
    for d in range(cap + 2):
        if sum(1 for x in degrees if x < d) <= exceptions:
            best = d
    return min(best, cap)


def brute_min_induced_degree(G, X, ell):
    """min l-degree of G[X], from per-subset degree_of calls."""
    H, _ = G.induced(X)
    return min(degree_of(H, S) for S in itertools.combinations(range(H.n), ell))


def brute_poor_pairs(G, ell, p):
    """l-subsets below the density threshold, from scratch."""
    threshold = Fraction(p) * binom(G.n - ell, G.r - ell)
    degrees = subset_degrees(G, ell)
    return {S for S in itertools.combinations(range(G.n), ell) if degrees[S] < threshold}


def brute_rich_sets(G, ell, p):
    """The l-subsets that brute_poor_pairs leaves out, in lexicographic order."""
    poor = brute_poor_pairs(G, ell, p)
    return [S for S in itertools.combinations(range(G.n), ell) if S not in poor]


# ---------------------------------------------------------------------------
# extraction counts


def brute_poor_free(n, m, ell, poor):
    """m-subsets of [0, n) holding none of the l-subsets (sorted tuples) in poor."""
    return sum(
        1 for X in itertools.combinations(range(n), m)
        if poor.isdisjoint(itertools.combinations(X, ell))
    )


def brute_phi(G, S, m, boundary):
    """phi_S: the (m-l)-subsets T of V minus S with at most `boundary` edges
    e, S <= e <= S + T, counted with frozensets."""
    ell = len(S)
    sset = set(S)
    nbrs = [frozenset(e) - sset for e in G.edges if sset <= set(e)]
    rest = [v for v in range(G.n) if v not in sset]
    count = 0
    for T in itertools.combinations(rest, m - ell):
        tset = set(T)
        inside = sum(1 for nb in nbrs if nb <= tset)
        if inside <= boundary:
            count += 1
    return count


def brute_bad_total(G, ell, m, p, delta):
    """The sum of phi_S over the rich l-subsets S, at the boundary
    (p - delta) C(m - l, r - l)."""
    boundary = (Fraction(p) - Fraction(delta)) * binom(m - ell, G.r - ell)
    return sum(brute_phi(G, S, m, boundary) for S in brute_rich_sets(G, ell, p))


# ---------------------------------------------------------------------------
# quasirandomness: enumerate every (X, P) / (X, Y, Z) explicitly


def brute_dev12(G, p):
    """max |e12(X, P) - p |X| |P||, P walked in Gray order for each X."""
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
    """max |e111(X, Y, Z) - p |X| |Y| |Z||, counting each edge's orderings."""
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
