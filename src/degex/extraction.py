"""High minimum l-degree subgraph extraction and exact counting audits.

The extraction target: given density p and margin delta, an m-subset X of
V(G) is *good* when the induced subgraph G[X] has minimum l-degree strictly
above (p - delta) * C(m - l, r - l).  (Bad-for-S uses the non-strict <=, so
good is its strict complement; for integer degrees that means
deg >= floor(boundary) + 1, which is what ExtractionReport.threshold holds.)

Three auditors count the quantities behind the extraction guarantee exactly
on small instances:

  * eq3_rich_count  -- m-subsets free of poor l-subsets vs the union bound;
    this inequality is unconditional, so holds=False signals a bug.
  * eq2_phi_bound   -- phi_S, the number of bad (m-l)-extensions of a rich
    l-subset S, vs its martingale tail bound; diagnostic only.
  * bad_total_bound -- sum of phi_S over rich S vs C(n, m)/2; diagnostic
    (the bound is only claimed for m >= m0, far beyond desk scale).

Extraction and the auditors rest on one identity: link(T) holds the v with
T + {v} an edge, and an edge e with S <= e <= X counts once for each vertex
of e outside S, so deg_X(S) is the sum of |link(T) & X| over the (r-1)-sets
S <= T <= X, over r - l (one popcount for l = r-1).  combinatorics.Links
builds the links in two forms.  Exhaustive extraction, eq3 and phi_S for
l < r-1 score m-subsets a colex block at a time against a dense table of
link words by rank (_LinkWords.bad_counts); eq3 scores the poor l-sets as an
l-graph, the sum of phi_S over rich S is one pass counting the rich S <= X
bad in X, and for l = r-1 phi_S is a closed form in |link(S)|.  Each attempt
of extract_random is scored from a dict of link bitmasks keyed by the tuple
T (_induced_min_degree), which takes no rank and so is exact at any n; when
the vertices outnumber the link incidences, the masks are over only the
vertices on some edge (_live_labels).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .combinatorics import (
    BLOCK_BYTES,
    Links,
    binom,
    colex_blocks,
    random_ksubset,
    subset_mask,
    tuple_ranks,
    vertex_words,
)
from . import degree
from .degree import degree_of, min_degree
from .errors import DegexError, ValidationError, refuse_above
from .hypergraph import Hypergraph
from .rational import to_fraction, to_probability

DEFAULT_ENUM_BUDGET = 100_000_000
_RAISE_BUDGET = "raise the budget to force it"


# ---------------------------------------------------------------------------
# Extraction guarantee parameters


@dataclass(frozen=True)
class TheoremParams:
    """Derived constants for the extraction guarantee at accuracy delta."""

    r: int
    ell: int
    delta: Fraction
    m: int
    m0: int
    eps: Fraction  # m^(-l) / 2
    delta_valid: bool


def _ln_bracket(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of ln(q) for rational q > 0.

    decimal's division and ln() are correctly rounded at the context
    precision; a 4-extra-digit margin swallows both rounding steps.
    """
    if q <= 0:
        raise ValidationError(f"ln requires a positive argument, got {q}")
    if q == 1:
        return Fraction(0), Fraction(0)
    with localcontext() as ctx:
        ctx.prec = prec
        y = (Decimal(q.numerator) / Decimal(q.denominator)).ln()
        margin = Decimal(1).scaleb(max(y.adjusted(), 0) - prec + 4)
    approx = Fraction(y)
    pad = Fraction(margin)
    return approx - pad, approx + pad


def _certified_ceil(coeff: Fraction, q: Fraction) -> int:
    """ceil(coeff * ln(q)) exactly (coeff > 0, rational q > 1): the least c
    with c >= coeff * ln(q), found up from a bracket good to coeff's digits."""
    lo, _ = _ln_bracket(q, 40 + len(str(math.ceil(coeff))))
    c = math.ceil(coeff * lo)
    while not _certified_ge_ln(Fraction(c), coeff, q):
        c += 1
    return c


def _certified_ge_ln(lhs: Fraction, coeff: Fraction, q: Fraction) -> bool:
    """Decide lhs >= coeff * ln(q) exactly (coeff > 0, rational q > 1)."""
    prec = 40
    while prec <= 4000:
        lo, hi = _ln_bracket(q, prec)
        if lhs >= coeff * hi:
            return True
        if lhs < coeff * lo:
            return False
        prec *= 2
    raise ArithmeticError(f"cannot separate {lhs} from {coeff} * ln({q})")


def _check_delta(delta) -> Fraction:
    """delta as a Fraction, checked to lie in (0, 1), the one domain of delta."""
    delta = to_fraction(delta, "delta")
    if not 0 < delta < 1:
        raise ValidationError(f"need 0 < delta < 1, got {delta}")
    return delta


def theorem_params(r: int, ell: int, delta, m: int) -> TheoremParams:
    """Compute m0 = ceil(26 l (r-l)^2 delta^-2 ln(1/delta)) and companions.

    ln is the natural logarithm.  delta_valid records whether delta meets
    the two smallness conditions the m0 guarantee is derived under; an
    invalid delta is flagged, not rejected.
    """
    if not 1 <= ell < r:
        raise ValidationError(f"need 1 <= ell < r, got ell={ell}, r={r}")
    delta = _check_delta(delta)
    if m < r:
        raise ValidationError(f"need m >= r, got m={m}, r={r}")
    inv = 1 / delta
    scale = 26 * ell * (r - ell) ** 2
    m0 = _certified_ceil(scale * inv * inv, inv)
    # second smallness condition l*ln(1/delta) >= ln 2 is algebraic:
    # it holds iff delta^-l >= 2
    cond_small = _certified_ge_ln(inv, Fraction(scale), inv)
    cond_two = inv**ell >= 2
    return TheoremParams(
        r=r,
        ell=ell,
        delta=delta,
        m=m,
        m0=m0,
        eps=Fraction(1, 2 * m**ell),
        delta_valid=cond_small and cond_two,
    )


# ---------------------------------------------------------------------------
# Good-subset threshold machinery


def good_threshold(p: Fraction, delta: Fraction, m: int, ell: int, r: int) -> tuple[Fraction, int]:
    """Boundary (p - delta) * C(m - l, r - l) and the least integer above it."""
    boundary = (p - delta) * binom(m - ell, r - ell)
    return boundary, math.floor(boundary) + 1


def _induced_min_degree(links: dict, r: int, X: Sequence[int], ell: int, xmask: int) -> int:
    """Minimum l-degree of G[X] from G's Links.masks(): the least link sum of
    an l-subset of X, over r - l.  X holds the labels of its vertices in the
    links, in order, and xmask their bits; a vertex on no edge may take any
    label that no link holds, and no bit (_live_labels)."""
    k = r - ell
    if k == 1:
        best = len(X)  # above any codegree inside X
        for S in itertools.combinations(X, ell):
            d = (links.get(S, 0) & xmask).bit_count()
            if d < best:
                best = d
                if not d:
                    break
        return best
    totals = dict.fromkeys(itertools.combinations(X, ell), 0)
    for T in itertools.combinations(X, r - 1):
        c = (links.get(T, 0) & xmask).bit_count()
        if c:
            for S in itertools.combinations(T, ell):
                totals[S] += c
    return min(totals.values()) // k


def _live_labels(live: list[int], X: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The labels of sorted X in links over live, the sorted vertices on some
    edge, and their mask: a live vertex is labeled by its place in live, and
    a vertex on no edge by len(live) + its place in X, which adds no bit."""
    labels, xmask = [], 0
    for i, v in enumerate(X):
        j = bisect.bisect_left(live, v)
        if j < len(live) and live[j] == v:
            xmask |= 1 << j
        else:
            j = len(live) + i
        labels.append(j)
    return tuple(labels), xmask


def _check_extract_args(G: Hypergraph, ell: int, m: int, p, delta=None):
    """Check l, m, p and, unless it is None, delta; returns p and delta as Fractions."""
    if not 1 <= ell < G.r:
        raise ValidationError(f"need 1 <= ell < r, got ell={ell}, r={G.r}")
    if m > G.n:
        raise ValidationError(f"need m <= n, got m={m}, n={G.n}")
    if m < ell:
        raise ValidationError(f"need m >= ell, got m={m}, ell={ell}")
    return to_probability(p), None if delta is None else _check_delta(delta)


# ---------------------------------------------------------------------------
# Randomized extraction


@dataclass(frozen=True)
class ExtractionReport:
    """Outcome of a randomized extraction run (deterministic given seed)."""

    success: bool
    subset: tuple[int, ...]
    achieved_min_degree: int
    threshold: int
    attempts: int
    seed: int


def _attempt_seed(seed: int, attempt: int) -> int:
    """Substream seed for one attempt: SHA-256 of 'degex-extract:<seed>:<attempt>'."""
    digest = hashlib.sha256(f"degex-extract:{seed}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def extract_random(
    G: Hypergraph,
    ell: int,
    m: int,
    p,
    delta,
    budget: int,
    seed: int,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> ExtractionReport:
    """Sample uniform m-subsets until one is good or the budget runs out.

    Attempt i draws its subset from an independent substream derived from
    (seed, i), so parallel and serial schedules see identical samples.  On
    failure the report carries the best subset seen (maximum achieved
    minimum l-degree, ties to the earliest attempt).  The reported degree is
    recomputed on the induced subgraph, never trusted from the search loop.
    The links are masks over labels: the vertices themselves, or, when they
    outnumber the r |E| link incidences, the L vertices on some edge, in
    order (_live_labels).  That pays only where it drops mask words: with
    every vertex live it adds about 1 ms a call at n = 44 (CHANGES.md has
    the crossover).  Attempts walking more than enum_budget
    (r-1)-subsets in all are refused, as are link masks of more than
    MAX_ENTRIES words, ceil(L / 64) for each incidence (L = n unlabeled).
    """
    p, delta = _check_extract_args(G, ell, m, p, delta)
    if budget < 1:
        raise ValidationError(f"budget must be at least 1, got {budget}")
    # the recheck's min_degree(G[X], l)
    refuse_above(binom(m, ell), f"the degree table over C({m}, {ell})")
    what = f"extract_random with {budget} attempts of C({m}, {G.r - 1})"
    refuse_above(budget * binom(m, G.r - 1), what, enum_budget, _RAISE_BUDGET)
    rows, live = G.edge_array, None
    if G.n > G.r * G.edge_count:  # label the vertices on some edge, in order
        live = np.unique(rows)
        rows, live = np.searchsorted(live, rows), live.tolist()
    count = G.n if live is None else len(live)
    width = -(-count // 64)
    what = f"the link masks of {G.r} * {G.edge_count} incidences * {width} words"
    refuse_above(G.r * G.edge_count * width, what)
    _, need = good_threshold(p, delta, m, ell, G.r)

    links = Links(count, rows.T).masks()
    best_deg = -1
    best_subset: tuple[int, ...] = ()
    success = False
    attempts = 0
    for attempt in range(1, budget + 1):
        attempts = attempt
        rng = random.Random(_attempt_seed(seed, attempt))
        X = random_ksubset(G.n, m, rng)
        labels, xmask = (X, subset_mask(X)) if live is None else _live_labels(live, X)
        achieved = _induced_min_degree(links, G.r, labels, ell, xmask)
        if achieved > best_deg:
            best_deg = achieved
            best_subset = X
        if achieved >= need:
            success = True
            best_subset = X
            break

    sub, _ = G.induced(best_subset)
    verified = min_degree(sub, ell)
    if success and verified < need:
        raise DegexError(
            f"internal error: subset {best_subset} failed recheck "
            f"({verified} < {need})"
        )
    return ExtractionReport(
        success=success,
        subset=best_subset,
        achieved_min_degree=verified,
        threshold=need,
        attempts=attempts,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Block enumeration of m-subsets


def _colex_blocks(n: int, m: int) -> Iterator[tuple[int, np.ndarray]]:
    """The m-subsets of [0, n) in colex order, in blocks of BLOCK_BYTES // 8
    rows: one 64-bit word a row fits BLOCK_BYTES."""
    return colex_blocks(n, m, max(BLOCK_BYTES // 8, 1))


class _LinkWords:
    """words[w, rank of T] holds word w of link(T), for every t-subset T of
    [0, n), t = r - 1, of the edges held as vertex columns ends (Links)."""

    def __init__(self, n: int, ends: np.ndarray):
        t, width = len(ends) - 1, -(-n // 64)
        refuse_above(binom(n, t) * width, f"the link table over C({n}, {t}) * {width} words")
        self.n, self.t, self.words = n, t, Links(n, ends).table()

    def bad_counts(self, cols: np.ndarray, ell: int, thr: int, keep) -> np.ndarray:
        """For each row X of a block: the number of l-subsets S of X, with
        keep[rank of S] unless keep is None, whose link sum is below thr.

        The link sum of S, the sum of |link(T) & X| over the t-subsets T with
        S <= T <= X, is (r - l) deg_X(S).  For t > l every S holds its sum
        until the last T; row passes keep the words and sums in BLOCK_BYTES.
        """
        m, total = cols.shape
        acc = np.min_scalar_type(binom(m - ell, self.t - ell) * m)  # bounds every link sum
        per_row = 8 * len(self.words) + (binom(m, ell) * acc.itemsize if self.t > ell else 0)
        step = max(BLOCK_BYTES // per_row, 1)
        out = np.zeros(total, dtype=np.min_scalar_type(binom(m, ell)))

        def judge(counts, sums, rank):
            bad = sums < thr
            if keep is not None:
                bad &= np.take(keep, rank)
            counts += bad

        for lo in range(0, total, step):
            part, counts = cols[:, lo:lo + step], out[lo:lo + step]
            rows = part.shape[1]
            xwords = vertex_words(part, len(self.words))
            positions = itertools.combinations(range(m), ell)
            held = {S: np.zeros(rows, acc) for S in positions} if self.t > ell else {}
            word = np.empty(rows, dtype=np.uint64)
            for P, rank in tuple_ranks(part, self.t, self.n):
                sums = np.zeros(rows, acc)
                for link, x in zip(self.words, xwords):
                    np.take(link, rank, out=word, mode="clip")
                    word &= x
                    sums += np.bitwise_count(word)
                if self.t == ell:
                    judge(counts, sums, rank)
                else:
                    for S in itertools.combinations(P, ell):
                        held[S] += sums
            for S, rank in tuple_ranks(part, ell, self.n) if held else ():
                judge(counts, held[S], rank)
        return out


# ---------------------------------------------------------------------------
# Exhaustive extraction


@dataclass(frozen=True)
class ExhaustiveExtraction:
    """All good m-subsets, as colex ranks in increasing order."""

    m: int
    ell: int
    threshold: int
    good_ranks: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.good_ranks)


def extract_exhaustive(
    G: Hypergraph,
    ell: int,
    m: int,
    p,
    delta,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> ExhaustiveExtraction:
    """Exact list of good m-subsets; the finite oracle behind extract_random.

    The m-subsets are scored a colex block at a time, so memory stays within
    a few BLOCK_BYTES besides the result.
    """
    p, delta = _check_extract_args(G, ell, m, p, delta)
    what = f"extract_exhaustive with C({G.n}, {m})"
    refuse_above(binom(G.n, m), what, enum_budget, _RAISE_BUDGET)
    _, need = good_threshold(p, delta, m, ell, G.r)

    # X is good when (r - l) deg_X(S) >= (r - l) need for every l-subset S of X
    links = _LinkWords(G.n, G.edge_array.T)
    thr = need * (G.r - ell)
    good: list[int] = []
    for offset, cols in _colex_blocks(G.n, m):
        good += (np.flatnonzero(links.bad_counts(cols, ell, thr, None) == 0) + offset).tolist()
    return ExhaustiveExtraction(m=m, ell=ell, threshold=need, good_ranks=tuple(good))


# ---------------------------------------------------------------------------
# Auditors


@dataclass(frozen=True)
class AuditReport:
    """Exact left/right sides of one audited counting inequality."""

    inequality_id: str
    lhs: int | Fraction
    rhs: Fraction | float
    holds: bool
    context: dict = field(default_factory=dict)


def _count_poor_free(n: int, m: int, ell: int, poor: np.ndarray) -> int:
    """m-subsets of [0, n) holding none of the poor l-subsets (vertex columns).

    The poor sets are the edges of an l-graph: X holds none of them iff no
    (l-1)-subset of X has a poor link vertex in X, a link sum below 1.
    """
    if not poor.shape[1]:
        return binom(n, m)
    links = _LinkWords(n, poor)
    return sum(
        int(np.count_nonzero(links.bad_counts(cols, ell - 1, 1, None) == binom(m, ell - 1)))
        for _, cols in _colex_blocks(n, m)
    )


def audit_eq3(
    G: Hypergraph,
    ell: int,
    m: int,
    p,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> AuditReport:
    """Poor-free m-subset count against the union bound (must always hold)."""
    p, _ = _check_extract_args(G, ell, m, p)
    refuse_above(binom(G.n, m), f"audit_eq3 with C({G.n}, {m})", enum_budget, _RAISE_BUDGET)
    # looked up at call time, so a wrapper records the build
    table = degree.degree_table(G, ell)
    poor = table.sets()[:, table.poor(p)]
    lhs = _count_poor_free(G.n, m, ell, poor)
    eps_eff = Fraction(poor.shape[1], len(table.degrees))
    rhs = (1 - eps_eff * m**ell) * binom(G.n, m)
    return AuditReport(
        inequality_id="eq3_rich_count",
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        context={
            "n": G.n,
            "r": G.r,
            "ell": ell,
            "m": m,
            "p": p,
            "poor_count": poor.shape[1],
            "eps_eff": eps_eff,
        },
    )


def _tail_count(a: int, rest: int, k: int, cap: int) -> int:
    """k-subsets of a link vertices and rest others with at most cap link vertices."""
    return sum(binom(a, j) * binom(rest, k - j) for j in range(min(cap, a, k) + 1))


def _phi_count(G: Hypergraph, S: tuple[int, ...], m: int, boundary: Fraction) -> int:
    """phi_S: (m-l)-subsets T of V minus S with deg_{S+T}(S) <= boundary."""
    ell = len(S)
    k = G.r - ell
    cap = math.floor(boundary)  # deg <= boundary iff deg <= floor(boundary)
    if cap < 0:
        return 0
    # the link of S: each edge through S with S cut out, on V minus S
    # relabelled as [0, n - l) by v -> v - |{s in S: s < v}|; deg_{S+T}(S)
    # counts the link edges inside T
    rows = G.edge_array
    through = rows[degree.edges_through(G, S)]
    rest = through[~np.isin(through, S)].reshape(-1, k)  # row order is kept
    link = rest - np.searchsorted(np.array(S, dtype=rows.dtype), rest, side="right")
    if k == 1:
        return _tail_count(len(link), G.n - ell - len(link), m - ell, cap)
    # inside T the link edges number the link sum of the empty set over k
    links = _LinkWords(G.n - ell, link.T)
    return sum(
        int(np.count_nonzero(links.bad_counts(cols, 0, (cap + 1) * k, None)))
        for _, cols in _colex_blocks(G.n - ell, m - ell)
    )


def _tail_bound_factor(delta: Fraction, m: int, r: int, ell: int) -> float:
    """exp(-delta^2 m / (2 (r - l)^2)); delta < 1 keeps the exponent within m."""
    return math.exp(-float(delta * delta * m) / (2 * (r - ell) ** 2))


def _within_tail_bound(lhs: int, total: int, x: Fraction) -> bool:
    """Decide lhs <= total * exp(-x) exactly, for x >= 0.

    For lhs, x > 0 that is x <= ln(total / lhs), false unless total > lhs.
    e^x is irrational for rational x != 0, so x is never that logarithm,
    and a fine enough ln bracket separates them.
    """
    if not lhs or not x:
        return lhs <= total
    return total > lhs and not _certified_ge_ln(x, Fraction(1), Fraction(total, lhs))


def audit_eq2_phi(
    G: Hypergraph,
    S: Sequence[int],
    m: int,
    p,
    delta,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> AuditReport:
    """Exact phi_S against the martingale tail bound (diagnostic, not asserted)."""
    S = tuple(sorted(S))
    ell = len(S)
    p, delta = _check_extract_args(G, ell, m, p, delta)
    deg = degree_of(G, S)
    max_possible = binom(G.n - ell, G.r - ell)
    if deg < degree.least_rich_degree(p, max_possible):
        raise ValidationError(
            f"S={S} is poor (deg {deg} < {p * max_possible}); the bound only covers rich subsets"
        )
    # for l = r-1, phi_S is a closed form and enumerates nothing
    count = binom(G.n - ell, m - ell) if ell < G.r - 1 else 0
    what = f"audit_eq2_phi with C({G.n - ell}, {m - ell})"
    refuse_above(count, what, enum_budget, _RAISE_BUDGET)
    boundary, _ = good_threshold(p, delta, m, ell, G.r)
    lhs = _phi_count(G, S, m, boundary)
    total = binom(G.n - ell, m - ell)
    x = delta * delta * m / (2 * (G.r - ell) ** 2)  # rhs shows total * exp(-x)
    return AuditReport(
        inequality_id="eq2_phi_bound",
        lhs=lhs,
        rhs=total * _tail_bound_factor(delta, m, G.r, ell),
        holds=_within_tail_bound(lhs, total, x),
        context={
            "n": G.n,
            "r": G.r,
            "ell": ell,
            "m": m,
            "p": p,
            "delta": delta,
            "S": S,
            "deg_S": deg,
            "boundary": boundary,
        },
    )


def audit_bad_total(
    G: Hypergraph,
    ell: int,
    m: int,
    p,
    delta,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> AuditReport:
    """Sum of phi_S over rich S against C(n, m)/2 (diagnostic, not asserted)."""
    p, delta = _check_extract_args(G, ell, m, p, delta)
    # the pass over the C(n, m) m-subsets X visits C(n, l) C(n - l, m - l)
    # pairs S <= X; for l = r-1, phi_S is a closed form and enumerates nothing
    count = binom(G.n, ell) * binom(G.n - ell, m - ell) if ell < G.r - 1 else 0
    what = f"audit_bad_total with C({G.n}, {ell}) * C({G.n - ell}, {m - ell})"
    refuse_above(count, what, enum_budget, _RAISE_BUDGET)
    # looked up at call time, so a wrapper records the build
    table = degree.degree_table(G, ell)
    rich = ~table.poor(p)
    rich_count = int(np.count_nonzero(rich))
    boundary, _ = good_threshold(p, delta, m, ell, G.r)
    cap = math.floor(boundary)  # S is bad in X when deg_X(S) <= cap
    lhs = 0
    if ell == G.r - 1:
        # phi_S in closed form in a = |link(S)| = deg(S): once per distinct rich degree
        values, counts = np.unique(table.degrees[rich], return_counts=True)
        for a, count in zip(values.tolist(), counts.tolist()):
            lhs += count * _tail_count(a, G.n - ell - a, m - ell, cap)
    elif cap >= 0 and rich_count:
        # the sum of phi_S over rich S counts the pairs S <= X, X an m-subset,
        # with S rich and bad in X: one pass over X
        links = _LinkWords(G.n, G.edge_array.T)
        thr = (cap + 1) * (G.r - ell)
        for _, cols in _colex_blocks(G.n, m):
            lhs += int(links.bad_counts(cols, ell, thr, rich).sum())
    rhs = Fraction(binom(G.n, m), 2)
    intermediate = (
        binom(G.n, m) * binom(m, ell) * _tail_bound_factor(delta, m, G.r, ell)
    )
    return AuditReport(
        inequality_id="bad_total_bound",
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        context={
            "n": G.n,
            "r": G.r,
            "ell": ell,
            "m": m,
            "p": p,
            "delta": delta,
            "rich_count": rich_count,
            "poor_count": len(table.degrees) - rich_count,
            "intermediate_bound": intermediate,
        },
    )
