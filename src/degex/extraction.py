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

Exhaustive extraction, eq3 and phi_S for l < r-1 enumerate their subsets in
colex blocks (_colex_blocks) and mark the bad rows of a whole block with a
few numpy passes per l-subset (_bad_rows), so no subset is visited alone.
"""

from __future__ import annotations

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
    binom,
    colex_unrank,
    ksubsets,
    mask_vertices,
    random_ksubset,
    subset_mask,
)
from .degree import degree_of, min_degree, poor_sets
from .errors import DegexError, LimitExceeded, ValidationError
from .hypergraph import Hypergraph
from .rational import to_fraction, to_probability

DEFAULT_ENUM_BUDGET = 100_000_000

# Exhaustive enumeration scores m-subsets in blocks: a fixed high part OR'd
# onto a table of at most BLOCK_BYTES of int64 low masks, which use at most
# LOW_BITS bits so that they stay nonnegative.
BLOCK_BYTES = 1 << 18
LOW_BITS = 62


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
    """ceil(coeff * ln(q)) exactly (coeff > 0, rational q > 1)."""
    prec = 40
    while prec <= 4000:
        lo, hi = _ln_bracket(q, prec)
        clo, chi = math.ceil(coeff * lo), math.ceil(coeff * hi)
        if clo == chi:
            return clo
        prec *= 2
    raise ArithmeticError(f"cannot certify ceil({coeff} * ln({q}))")


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


def theorem_params(r: int, ell: int, delta, m: int) -> TheoremParams:
    """Compute m0 = ceil(26 l (r-l)^2 delta^-2 ln(1/delta)) and companions.

    ln is the natural logarithm.  delta_valid records whether delta meets
    the two smallness conditions the m0 guarantee is derived under; an
    invalid delta is flagged, not rejected.
    """
    if not 1 <= ell < r:
        raise ValidationError(f"need 1 <= ell < r, got ell={ell}, r={r}")
    delta = to_fraction(delta, "delta")
    if not 0 < delta < 1:
        raise ValidationError(f"need 0 < delta < 1, got {delta}")
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


class _LinkTable:
    """Link bitmask of every (r-1)-subset of an edge, keyed by its sorted tuple.

    link(T) has bit v set when T + {v} is an edge.  For X with bitmask xmask
    and an l-subset S of X, each edge e with S <= e <= X is counted once for
    every vertex of e outside S (dropping that vertex leaves an (r-1)-set
    between S and X), so

        deg_X(S) = sum of |link(T) & X| over (r-1)-sets S <= T <= X, / (r - l)

    which for l = r-1 is the single popcount |link(S) & X|.
    """

    def __init__(self, G: Hypergraph):
        self.n = G.n
        self.r = G.r
        masks: dict[tuple[int, ...], int] = {}
        get = masks.get
        for e in G.edges:
            # combinations drops the vertices of the sorted edge last to first
            for sub, v in zip(itertools.combinations(e, G.r - 1), reversed(e)):
                masks[sub] = get(sub, 0) | 1 << v
        self.masks = masks

    def induced_min_degree(self, X: Sequence[int], ell: int) -> int:
        """Minimum l-degree of G[X], for sorted X."""
        xmask = subset_mask(X)
        masks = self.masks
        k = self.r - ell
        if k == 1:
            best = len(X)  # above any codegree inside X
            for S in itertools.combinations(X, ell):
                d = (masks.get(S, 0) & xmask).bit_count()
                if d < best:
                    best = d
                    if not d:
                        break
            return best
        totals = dict.fromkeys(itertools.combinations(X, ell), 0)
        for T in itertools.combinations(X, self.r - 1):
            c = (masks.get(T, 0) & xmask).bit_count()
            if c:
                for S in itertools.combinations(T, ell):
                    totals[S] += c
        return min(totals.values()) // k

    def degree_items(self, ell: int) -> dict[tuple[int, ...], tuple[int, int, list]]:
        """S -> (mask of S, reach, parts) for every l-subset S, the items of _bad_rows.

        parts holds (mask of T, link(T)) for the (r-1)-sets T >= S with a
        nonempty link (for l = r-1 that is S itself), and reach is the sum of
        their link sizes, a bound on every link sum of S.
        """
        parts: dict[tuple[int, ...], list[tuple[int, int]]] = {
            S: [] for S in itertools.combinations(range(self.n), ell)
        }
        reach = dict.fromkeys(parts, 0)
        for T, link in self.masks.items():
            part, size = (subset_mask(T), link), link.bit_count()
            for S in itertools.combinations(T, ell):
                parts[S].append(part)
                reach[S] += size
        return {S: (subset_mask(S), reach[S], parts[S]) for S in parts}


def _check_extract_args(G: Hypergraph, ell: int, m: int) -> None:
    if not 1 <= ell < G.r:
        raise ValidationError(f"need 1 <= ell < r, got ell={ell}, r={G.r}")
    if m > G.n:
        raise ValidationError(f"need m <= n, got m={m}, n={G.n}")
    if m < ell:
        raise ValidationError(f"need m >= ell, got m={m}, ell={ell}")


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
) -> ExtractionReport:
    """Sample uniform m-subsets until one is good or the budget runs out.

    Attempt i draws its subset from an independent substream derived from
    (seed, i), so parallel and serial schedules see identical samples.  On
    failure the report carries the best subset seen (maximum achieved
    minimum l-degree, ties to the earliest attempt).  The reported degree is
    recomputed on the induced subgraph, never trusted from the search loop.
    """
    _check_extract_args(G, ell, m)
    p = to_probability(p)
    delta = to_fraction(delta, "delta")
    if budget < 1:
        raise ValidationError(f"budget must be at least 1, got {budget}")
    _, need = good_threshold(p, delta, m, ell, G.r)

    links = _LinkTable(G)
    best_deg = -1
    best_subset: tuple[int, ...] = ()
    success = False
    attempts = 0
    for attempt in range(1, budget + 1):
        attempts = attempt
        rng = random.Random(_attempt_seed(seed, attempt))
        X = random_ksubset(G.n, m, rng)
        achieved = links.induced_min_degree(X, ell)
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


def _low_masks(k: int, j: int) -> np.ndarray:
    """Bitmasks of the j-subsets of [0, k) in colex order, as int64 (k <= LOW_BITS)."""
    # level t lists the t-subsets of [0, k - j + t), the ones that can still
    # grow into a j-subset of [0, k), by top element v: each is v plus a
    # (t-1)-subset of [0, v), and those are the first C(v, t-1) of level t-1
    level = np.zeros(1, dtype=np.int64)
    for t in range(1, j + 1):
        tops = range(t - 1, k - j + t)
        counts = [math.comb(v, t - 1) for v in tops]
        level = np.concatenate([level[:c] for c in counts])
        level |= np.repeat(np.left_shift(1, np.array(tops, dtype=np.int64)), counts)
    return level


def _colex_blocks(n: int, m: int) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """The m-subsets of [0, n) in colex order, as blocks (offset, high, k, low).

    Block i holds the masks high | low[i] with colex ranks offset + i: low is
    the int64 table of the j-subsets of [0, k) and high a Python int with
    bits at k and above.  Colex order on m-subsets is the numeric order of
    their masks, so masks(n, m) = masks(n-1, m) ++ (masks(n-1, m-1) | 1 << (n-1)).
    The walk unrolls that recursion on an explicit stack, first part first,
    until a part's table fits BLOCK_BYTES and LOW_BITS bits.
    """
    rows = max(BLOCK_BYTES // 8, 1)
    offset = 0
    stack = [(n, m, 0)]
    while stack:
        k, j, high = stack.pop()
        size = math.comb(k, j) if j >= 0 else 0
        if not size:
            continue
        if size <= rows and k <= LOW_BITS:
            yield offset, high, k, _low_masks(k, j)
            offset += size
        else:
            stack.append((k - 1, j - 1, high | 1 << (k - 1)))
            stack.append((k - 1, j, high))


def _link_sum(high: int, k: int, low: np.ndarray, parts: list[tuple[int, int]]) -> np.ndarray:
    """For each mask X = high | low[i]: the sum of |link & X| over the parts
    (t, link) with t <= X.

    Each t must lie within high and the low k bits.  The parts are scored a
    chunk at a time, in chunk x rows passes of at most BLOCK_BYTES.
    """
    lowmask = (1 << k) - 1
    links = np.array([[link & lowmask] for _, link in parts], dtype=np.int64)
    rests = np.array([[t & lowmask] for t, _ in parts], dtype=np.int64)
    # |link & X| = |link & high| + |link & low|; the first part is fixed
    bases = np.array([[(link & high).bit_count()] for _, link in parts], dtype=np.int64)
    sums = np.zeros(len(low), dtype=np.int64)
    step = max(BLOCK_BYTES // (8 * max(len(low), 1)), 1)
    for i in range(0, len(parts), step):
        chunk = slice(i, i + step)
        hit = (low & rests[chunk]) == rests[chunk]
        counts = np.bitwise_count(low & links[chunk])
        counts *= hit
        sums += counts.sum(axis=0, dtype=np.int64)
        if bases[chunk].any():
            sums += (hit * bases[chunk]).sum(axis=0)
    return sums


def _subsets_meeting(high: int, k: int, j: int, ell: int) -> Iterator[tuple[int, ...]]:
    """The l-subsets that some mask high | low, low a j-subset of [0, k), holds."""
    top = mask_vertices(high)
    for a in range(max(ell - j, 0), min(ell, len(top)) + 1):
        for below in itertools.combinations(range(k), ell - a):
            for above in itertools.combinations(top, a):
                yield below + above


def _bad_rows(
    high: int, k: int, low: np.ndarray, items: dict[tuple[int, ...], tuple], ell: int, thr: int
) -> np.ndarray:
    """Which masks X = high | low[i] of a block hold a bad item.

    items maps l-subsets S to (mask of S, reach, parts).  S is bad in X when
    S <= X and the link sum of parts within X (see _link_sum) is below thr;
    reach bounds that sum.  With _LinkTable.degree_items this marks X whose
    l-degree sum (r - l) deg_X(S) is below thr for some S <= X.  Only the S
    and the parts that some X of the block holds are read.  A single part
    that every X holding S holds, as for l = r - 1, is one popcount pass;
    several parts are summed over the rows holding S alone.
    """
    lowmask = (1 << k) - 1
    outside = ~(high | lowmask)
    j = int(low[0]).bit_count()  # every row has j bits
    bad = np.zeros(len(low), dtype=bool)
    if thr <= 0:
        return bad
    columns: dict[int, np.ndarray] = {}

    def held(mask: int) -> np.ndarray:
        """Which rows hold the vertices of mask, a nonzero mask of low bits."""
        out = None
        while mask:
            bit = mask & -mask
            mask ^= bit
            column = columns.get(bit)
            if column is None:
                column = columns[bit] = (low & bit) != 0
                column.flags.writeable = False
            out = column if out is None else out & column
        return out

    for S in _subsets_meeting(high, k, j, ell):
        item = items.get(S)
        if item is None:
            continue
        smask, reach, parts = item
        s = smask & lowmask
        if thr > reach:  # every X holding S is bad
            if not s:
                bad[:] = True
                break
            bad |= held(s)
            continue
        inner = [
            (t, link) for t, link in parts
            if not t & outside and (t & lowmask).bit_count() <= j
        ]
        if len(inner) == 1 and not inner[0][0] & lowmask & ~s:
            link = inner[0][1]
            # a popcount of low bits is at most LOW_BITS, so the cap is exact
            below = min(thr - (link & high).bit_count(), LOW_BITS + 1)
            if below > 0:
                few = np.bitwise_count(low & (link & lowmask)) < below
                bad |= few & held(s) if s else few
        else:
            rows = np.flatnonzero(held(s)) if s else np.arange(len(low))
            bad[rows[_link_sum(high, k, low[rows], inner) < thr]] = True
    return bad


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


def _check_enum_budget(count: int, what: str, budget: int) -> None:
    if count > budget:
        raise LimitExceeded(
            f"{what} requires enumerating {count} subsets, above the budget "
            f"of {budget}; raise the budget to force it"
        )


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
    _check_extract_args(G, ell, m)
    p = to_probability(p)
    delta = to_fraction(delta, "delta")
    _check_enum_budget(binom(G.n, m), f"extract_exhaustive with C({G.n}, {m})", enum_budget)
    _, need = good_threshold(p, delta, m, ell, G.r)

    # X is good when (r - l) deg_X(S) >= (r - l) need for every l-subset S of X
    items = _LinkTable(G).degree_items(ell)
    thr = need * (G.r - ell)
    good: list[int] = []
    for offset, high, k, low in _colex_blocks(G.n, m):
        good += (np.flatnonzero(~_bad_rows(high, k, low, items, ell, thr)) + offset).tolist()
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


def _poor_subsets(G: Hypergraph, ell: int, p: Fraction) -> set[tuple[int, ...]]:
    return {colex_unrank(rank, ell, G.n) for rank in poor_sets(G, ell, p).poor}


def _count_poor_free(n: int, m: int, poor: set[tuple[int, ...]]) -> int:
    """m-subsets of [0, n) containing no poor l-subset.

    A poor S is an item with no parts, so _bad_rows marks every X holding it.
    """
    if not poor:
        return binom(n, m)
    items = {S: (subset_mask(S), 0, []) for S in poor}
    ell = len(next(iter(poor)))
    return sum(
        len(low) - int(np.count_nonzero(_bad_rows(high, k, low, items, ell, 1)))
        for _, high, k, low in _colex_blocks(n, m)
    )


def audit_eq3(
    G: Hypergraph,
    ell: int,
    m: int,
    p,
    enum_budget: int = DEFAULT_ENUM_BUDGET,
) -> AuditReport:
    """Poor-free m-subset count against the union bound (must always hold)."""
    _check_extract_args(G, ell, m)
    p = to_probability(p)
    _check_enum_budget(binom(G.n, m), f"audit_eq3 with C({G.n}, {m})", enum_budget)
    poor = _poor_subsets(G, ell, p)
    lhs = _count_poor_free(G.n, m, poor)
    eps_eff = Fraction(len(poor), binom(G.n, ell))
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
            "poor_count": len(poor),
            "eps_eff": eps_eff,
        },
    )


def _phi_count(
    links: _LinkTable,
    S: tuple[int, ...],
    m: int,
    boundary: Fraction,
) -> int:
    """phi_S: (m-l)-subsets T of V minus S with deg_{S+T}(S) <= boundary."""
    ell = len(S)
    k = links.r - ell
    cap = math.floor(boundary)  # deg <= boundary iff deg <= floor(boundary)
    if cap < 0:
        return 0
    if k == 1:
        # deg_{S+T}(S) = |link(S) & T|: count the T meeting the a link
        # vertices in j <= cap places, among the n - l vertices outside S
        a = links.masks.get(S, 0).bit_count()
        rest = links.n - ell - a
        return sum(
            binom(a, j) * binom(rest, m - ell - j) for j in range(min(cap, a, m - ell) + 1)
        )
    # relabel V minus S as [0, n - l), so that T is an (m-l)-subset of it;
    # deg_{S+T}(S) is the sum of |link(S + U) & T| over the (k-1)-sets U <= T,
    # over k, so deg <= cap when that sum is below (cap + 1) k
    complement = [v for v in range(links.n) if v not in S]
    parts = []
    for U in itertools.combinations(complement, k - 1):
        link = links.masks.get(tuple(sorted(S + U)), 0)
        if link:
            parts.append((_squeeze(subset_mask(U), S), _squeeze(link, S)))
    items = {(): (0, sum(link.bit_count() for _, link in parts), parts)}
    return sum(
        int(np.count_nonzero(_bad_rows(high, bits, low, items, 0, (cap + 1) * k)))
        for _, high, bits, low in _colex_blocks(links.n - ell, m - ell)
    )


def _squeeze(mask: int, S: tuple[int, ...]) -> int:
    """mask, whose bits avoid sorted S, with the bits of S cut out and the bits above moved down."""
    for v in reversed(S):
        mask = mask & ((1 << v) - 1) | mask >> (v + 1) << v
    return mask


def _tail_bound_factor(delta: Fraction, m: int, r: int, ell: int) -> float:
    return math.exp(-float(delta * delta * m) / (2 * (r - ell) ** 2))


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
    _check_extract_args(G, ell, m)
    p = to_probability(p)
    delta = to_fraction(delta, "delta")
    deg = degree_of(G, S)
    rich_floor = p * binom(G.n - ell, G.r - ell)
    if deg < rich_floor:
        raise ValidationError(
            f"S={S} is poor (deg {deg} < {rich_floor}); the bound only covers rich subsets"
        )
    _check_enum_budget(
        binom(G.n - ell, m - ell), f"audit_eq2_phi with C({G.n - ell}, {m - ell})", enum_budget
    )
    boundary, _ = good_threshold(p, delta, m, ell, G.r)
    lhs = _phi_count(_LinkTable(G), S, m, boundary)
    rhs = binom(G.n - ell, m - ell) * _tail_bound_factor(delta, m, G.r, ell)
    return AuditReport(
        inequality_id="eq2_phi_bound",
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
    _check_extract_args(G, ell, m)
    p = to_probability(p)
    delta = to_fraction(delta, "delta")
    _check_enum_budget(binom(G.n, m), f"audit_bad_total with C({G.n}, {m})", enum_budget)
    _check_enum_budget(
        binom(G.n, ell) * binom(G.n - ell, m - ell),
        f"audit_bad_total with C({G.n}, {ell}) * C({G.n - ell}, {m - ell})",
        enum_budget,
    )
    poor = _poor_subsets(G, ell, p)
    boundary, _ = good_threshold(p, delta, m, ell, G.r)
    links = _LinkTable(G)
    lhs = 0
    rich_count = 0
    for S in ksubsets(G.n, ell):
        if S in poor:
            continue
        rich_count += 1
        lhs += _phi_count(links, S, m, boundary)
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
            "poor_count": len(poor),
            "intermediate_bound": intermediate,
        },
    )
