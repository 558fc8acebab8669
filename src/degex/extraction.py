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
builds the links in two forms.  Exhaustive extraction, phi_S for l < r-1
and the sum of phi_S run one scan of the m-subsets (_bad_counts):
it walks its own colex blocks against a dense table of link words by rank
and counts the l-subsets of each X whose degree falls below a bound the
caller gives, applying the factor t + 1 - l of its t-graph itself.  The sum
of phi_S over rich S counts the rich S <= X bad in X, and for l = r-1 phi_S
is a closed form in |link(S)|.  eq3 scans nothing: it counts the
independent m-sets of the poor l-graph by branching on vertices, from the
links of the poor sets as bitmasks (_count_poor_free).  Each attempt of
extract_random is scored from a dict of link bitmasks keyed by the tuple T
(_induced_min_degree), which takes no rank and so is exact at any n; when
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
    for attempt in range(1, budget + 1):
        rng = random.Random(_attempt_seed(seed, attempt))
        X = random_ksubset(G.n, m, rng)
        labels, xmask = (X, subset_mask(X)) if live is None else _live_labels(live, X)
        achieved = _induced_min_degree(links, G.r, labels, ell, xmask)
        if achieved > best_deg:
            best_deg = achieved
            best_subset = X
        if achieved >= need:
            break
    success = best_deg >= need

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
        attempts=attempt,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# The m-subset scan


def _bad_counts(n: int, ends: np.ndarray, m: int, ell: int, below: int, keep
                ) -> Iterator[tuple[int, np.ndarray]]:
    """The one scan of m-subsets, behind exhaustive extraction and the
    tail-bound auditors, of the (t+1)-graph on [0, n) whose edges are held
    as vertex columns ends (Links): G or the link of S.  Walk the m-subsets
    X of [0, n) in colex blocks, yielding each block's first rank and, for
    each X of the block, the number of l-subsets S of X, with keep[rank of
    S] unless keep is None, whose degree deg_X(S) is below `below`.

    The scan reads words[w, rank of T], word w of link(T) for every t-subset
    T, a table refused before it is built.  An edge e with S <= e <= X
    counts once for each of its t + 1 - l vertices outside S, so the link
    sum of S, the sum of |link(T) & X| over the t-subsets T with
    S <= T <= X, is (t + 1 - l) deg_X(S).  For t > l every S holds its sum
    until the last T; a block's words and sums fit BLOCK_BYTES.
    """
    t, width = len(ends) - 1, -(-n // 64)
    refuse_above(binom(n, t) * width, f"the link table over C({n}, {t}) * {width} words")
    words = Links(n, ends).table()
    acc = np.min_scalar_type(binom(m - ell, t - ell) * m)  # bounds every link sum
    per_row = 8 * width + (binom(m, ell) * acc.itemsize if t > ell else 0)
    thr = below * (t + 1 - ell)
    for offset, cols in colex_blocks(n, m, max(BLOCK_BYTES // per_row, 1)):
        yield offset, _block_counts(words, n, t, cols, ell, thr, keep, acc)


def _block_counts(words: np.ndarray, n: int, t: int, cols: np.ndarray, ell: int, thr: int,
                  keep, acc) -> np.ndarray:
    """_bad_counts of one block, whose arrays go before the next is built."""
    m, rows = cols.shape
    counts = np.zeros(rows, dtype=np.min_scalar_type(binom(m, ell)))

    def bad(sums, rank):
        low = sums < thr
        return low if keep is None else low & np.take(keep, rank)

    xwords = vertex_words(cols, len(words))
    positions = itertools.combinations(range(m), ell)
    held = {S: np.zeros(rows, acc) for S in positions} if t > ell else {}
    word = np.empty(rows, dtype=np.uint64)
    for P, rank in tuple_ranks(cols, t, n):
        sums = np.zeros(rows, acc)
        for link, x in zip(words, xwords):
            np.take(link, rank, out=word, mode="clip")
            word &= x
            sums += np.bitwise_count(word)
        if t == ell:
            counts += bad(sums, rank)
        else:
            for S in itertools.combinations(P, ell):
                held[S] += sums
    for S, rank in tuple_ranks(cols, ell, n) if held else ():
        counts += bad(held[S], rank)
    return counts


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

    # X is good when no l-subset S of X has deg_X(S) below need
    scan = _bad_counts(G.n, G.edge_array.T, m, ell, need, None)
    good = itertools.chain.from_iterable(
        (np.flatnonzero(counts == 0) + offset).tolist() for offset, counts in scan
    )
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
    """m-subsets of [0, n) holding none of the poor l-subsets (vertex columns):
    the independent m-sets of the poor l-graph, counted by branching.

    A state (cand, k, held) still takes k vertices from the mask cand, all
    below those taken.  Its top vertex v is left out or taken (_branches):

        count(cand, k) = count(cand - v, k) + count(cand - v - forced(v), k - 1)

    A poor set P is a rule (U, W): once U is taken, no vertex of W may be.
    It comes from Links(n, poor).masks() at T = P less its least vertex,
    which W holds, and joins held, with U = T less v, when its top v is
    taken; forced(v) is the W of the rules whose U is then empty.  For l = 2
    U is always empty, so held is too; for l = 1 the poor vertices are out
    from the start.  A state settles as 0 when cand holds fewer than k
    vertices, and as C(|cand|, k) when k < 2 or no rule can still apply.

    The walk keeps its own stacks, of at most three states for each vertex
    of cand, and memoizes counted states in a dict bounded to about
    BLOCK_BYTES, dropping the oldest first.
    """
    links = Links(n, poor).masks()
    cand = (1 << n) - 1 & ~links.pop((), 0)
    tops: dict[int, list[tuple[int, int]]] = {}
    for T, W in links.items():
        if W := W & (1 << T[0]) - 1:
            tops.setdefault(1 << T[-1], []).append((subset_mask(T[:-1]), W))
    live, memo, cap = sum(tops), {}, BLOCK_BYTES // (n // 8 + 128)
    todo, values = [(cand, m, ())], []
    while todo:
        state = todo.pop()
        if type(state) is list:  # the sum of the two branches below it
            value = memo[state[0]] = values.pop() + values.pop()
            if len(memo) > cap:
                del memo[next(iter(memo))]
            values.append(value)
            continue
        cand, k, held = state
        if (size := cand.bit_count()) < k or k < 2 or not held and not cand & live:
            values.append(math.comb(size, k))
        elif state in memo:
            values.append(memo[state])
        else:
            todo += [[state], *_branches(state, tops)]
    return values[0]


def _state(cand: int, k: int, rules: list) -> tuple:
    """The state (cand, k, held) after rules (U, W): with the W of the rules
    whose U is taken out of cand, and the rest that can still apply, W cut
    to cand and the W of one U merged, in order."""
    if not rules:
        return cand, k, ()
    held: dict[int, int] = {}
    for U, W in rules:
        held[U] = held.get(U, 0) | W
    cand &= ~held.pop(0, 0)
    rest = ((U, W & cand) for U, W in held.items() if W & cand and not U & ~cand)
    return cand, k, tuple(sorted(rest))


def _branches(state: tuple, tops: dict) -> list:
    """The two states below one of _count_poor_free: its top vertex v left
    out, and taken with the rules of the poor sets topped by v."""
    cand, k, held = state
    bit = 1 << cand.bit_length() - 1
    rules = [(U & ~bit, W) for U, W in held] + tops.get(bit, [])
    return [_state(cand ^ bit, k, held), _state(cand ^ bit, k - 1, rules)]


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
    # inside T the link edges number the degree of the empty set
    scan = _bad_counts(G.n - ell, link.T, m - ell, 0, cap + 1, None)
    return sum(int(np.count_nonzero(counts)) for _, counts in scan)


def _tail_bound(total: int, delta: Fraction, m: int, r: int, ell: int) -> float:
    """total exp(-delta^2 m / (2 (r - l)^2)) as a float, inf only past the
    float range; delta < 1 keeps the exponent within m.  A total past the
    float range goes in by its logarithm."""
    x = float(delta * delta * m) / (2 * (r - ell) ** 2)
    try:
        return total * math.exp(-x)
    except OverflowError:
        try:
            return math.exp(math.log(total) - x)
        except OverflowError:
            return math.inf


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
        rhs=_tail_bound(total, delta, m, G.r, ell),
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
        scan = _bad_counts(G.n, G.edge_array.T, m, ell, cap + 1, rich)
        lhs = sum(int(counts.sum()) for _, counts in scan)
    rhs = Fraction(binom(G.n, m), 2)
    intermediate = _tail_bound(binom(G.n, m) * binom(m, ell), delta, m, G.r, ell)
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
