"""Exact quasirandomness discrepancies for 3-graphs, with witnesses.

The (1,2) deviation of G at density p is

    D = max over X subset of V, P subset of V^(2) of |e12(X, P) - p|X||P||

For fixed X the optimal P is analytic: with w(uv) = d_X(uv) - p|X|, where
d_X(uv) counts x in X with xuv an edge, the maximum over P is
max(sum of positive w, -(sum of negative w)), attained at the positive or
negative support.  The (1,1,1) deviation quantifies over X and Y, with the
set Z optimal in the same way from the per-vertex weights e_XY(z) - p|X||Y|.

Both exact deviations run on one kernel, _sweep, over the subsets X of a
set of count rows: row x holds the counts x adds in each group and column,
so X's rows sum to d_X for (1,2), one group over the pairs uv, and to e_XY
for (1,1,1), a group for each Y of a block of Y's top bits, over the z.  One
driver runs the sweeps as tasks, serially or in processes, one for each
block of Y and value of the top bits of X.

The sampled (1,2) deviation scores many sampled sets X at once by popcount:
d_X(uv) is the popcount of link(uv) & X, in 64-vertex words, for a block of
trials against a block of the pairs that lie in some edge (combinatorics.
Links).  A trial's score needs only three sums over the pairs, so no
n x C(n, 2) rows are built and memory stays O(|E| + trials) at any n.

Everything is exact: p is a Fraction num/den, every score is an integer, den
times a deviation, and results are returned as Fractions.  Both scorers hold
counts, and one _Score forms their scores in int64 limbs for every p.  The
witnesses, apart from it so as to recheck it, decide each weight's sign from
its count in the same way and form their few sums of weights as Python ints.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import BLOCK_BYTES, Links, binom, mask_vertices, mask_words
from .degree import degree_table, kth_min_degree
from .errors import DegexError, ValidationError, refuse_above
from .hypergraph import Hypergraph
from .rational import floor_sqrt_scaled, to_probability

DEFAULT_EXACT_LIMIT_12 = 22
DEFAULT_EXACT_LIMIT_111 = 13

# a sweep state's share of the int64 score arrays, in each group
SCORE_BYTES = 32


@dataclass(frozen=True)
class DiscrepancyReport:
    """Maximum quasirandomness deviation, exact or sampled lower bound."""

    kind: str  # "12" or "111"
    p: Fraction
    D: Fraction
    eps_star: Fraction  # D / n^3
    witness: tuple
    mode: str  # "exact" or "sampled"
    trials: int | None = None
    seed: int | None = None


def _require_3graph(G: Hypergraph) -> None:
    if G.r != 3:
        raise ValidationError(f"quasirandomness is defined for 3-graphs, got r={G.r}")


def e12(G: Hypergraph, X: Iterable[int], P: Iterable[Sequence[int]]) -> int:
    """Pairs (x, uv) in X times P whose union {x, u, v} is an edge."""
    _require_3graph(G)
    xs = set(X)
    count = 0
    for pair in P:
        u, v = pair
        for x in xs:
            if x != u and x != v and G.has_edge((x, u, v)):
                count += 1
    return count


def e111(G: Hypergraph, X: Iterable[int], Y: Iterable[int], Z: Iterable[int]) -> int:
    """Ordered triples (x, y, z) in X times Y times Z forming an edge."""
    _require_3graph(G)
    xs, ys, zs = list(X), list(Y), list(Z)
    count = 0
    for x in xs:
        for y in ys:
            if y == x:
                continue
            for z in zs:
                if z == x or z == y:
                    continue
                if G.has_edge((x, y, z)):
                    count += 1
    return count


# ---------------------------------------------------------------------------
# integer scores


class _Score:
    """Scores den*P + c*R (see _sweep) of states of `width` columns of counts,
    with c = num * m and m <= top: their dtypes, tables over m and int64 limbs.

    A count d sums n entries or fewer, so d <= top: n for (1,2), whose rows are
    0/1, and at most n^2 for (1,1,1), whose entries count y in Y.  A threshold
    ceil(num*m / den), m <= top, is at most m as num <= den.  So counts, table
    entries and thresholds fit `count`, the smallest unsigned dtype holding
    top, and lo <= width and d_lo <= top * width the ones holding those.  In a
    score den*P + c*R, |P| <= top * width and |R| <= width; in limbs of `bits`
    bits, den_i*P + c_i*R is below 2^bits * width * (top + 1) and a carry adds
    at most width * (top + 1) + 1, so with 2^bits * (width * (top + 1) + 1) <
    2^62 every limb stays below 2^63.
    """

    def __init__(self, width: int, top: int, num: int, den: int):
        self.width = width
        dtypes = map(np.min_scalar_type, (top, width, top * width))
        self.count, self.lo_dtype, self.d_lo_dtype = dtypes
        self.bits = bits = 62 - (width * (top + 1) + 1).bit_length()
        limbs = range(-(-max(den, num * top).bit_length() // bits))
        c = [num * m for m in range(top + 1)]
        self.thr = np.array([-(-cm // den) for cm in c], dtype=self.count)
        self.thr_width = np.array([-(-cm * width // den) for cm in c], dtype=np.int64)
        self.c_limbs = np.array([[cm >> bits * i & (1 << bits) - 1 for cm in c] for i in limbs])
        self.den_limbs = [den >> bits * i & (1 << bits) - 1 for i in limbs]

    def best(self, D: np.ndarray, lo: np.ndarray, d_lo: np.ndarray, m: np.ndarray) -> tuple:
        """(the largest score, hit) over states of count sum D, lo columns below
        thr[m] and d_lo their sum; hit marks the states that reach it."""
        s = D >= self.thr_width[m]
        P, R = D * s - d_lo, lo - self.width * s
        t = [den_i * P + c_i[m] * R for den_i, c_i in zip(self.den_limbs, self.c_limbs)]
        for i in range(len(t) - 1):
            t[i + 1] += t[i] >> self.bits
            t[i] &= (1 << self.bits) - 1
        score, hit = 0, True
        for part in reversed(t):
            high = int(part[hit].max())
            score, hit = (score << self.bits) + high, hit & (part == high)
        return score, hit


# ---------------------------------------------------------------------------
# the sweep kernel


def _block_bits(groups: int, width: int, dtype, low_bits: int) -> int:
    """Inner bits b of a sweep: 2^b states, each with groups x width counts of
    dtype and SCORE_BYTES a group, fit BLOCK_BYTES."""
    cost = groups * (width * np.dtype(dtype).itemsize + SCORE_BYTES)
    return min(low_bits, max(BLOCK_BYTES // cost, 1).bit_length() - 1)


def _sweep(rows: np.ndarray, sizes, num: int, den: int, mask: int, low_bits: int) -> tuple:
    """Best score over the masks that agree with `mask` above its low bits.

    rows[x] is (groups x width) counts, at most sizes[g] in group g; the low
    `low_bits` bits of mask must be clear.  A state is a mask X and a group g;
    with d the sum of X's rows in g and c = num * m, m = |X| sizes[g], it
    scores the larger support weight of w = den*d - c.  Returns (best score,
    its mask, its group), ties toward the smallest (mask, group).

    No weight is formed: w < 0 exactly when d < ceil(c / den).  With D the sum
    of d, lo the number of columns below that and d_lo their sum, and
    s = [D >= ceil(c * width / den)], the score is
    max(den*D - c * width, 0) + c*lo - den*d_lo = den*P + c*R, with
    P = s*D - d_lo and R = lo - s * width; the ceilings and c are tables over m.

    The low bits split into b inner bits, b from _block_bits, and outer bits.
    table[:, j, g] sums rows[v, g] over the bits v of inner mask j, built by
    doubling, as are D and m of j alone; (j, g) are the contiguous axes, so a
    sum over the width adds whole rows.  A Gray walk over the outer bits keeps
    vec, the counts of mask's outer bits; at each outer state one add, one
    compare and two sums over the width give lo and d_lo of the whole block,
    and _Score.best takes den*P + c*R in carried int64 limbs to its
    lexicographic maximum, first met at the smallest (inner mask, group): the
    block's best.  A mask is met at one outer state only, so ties between
    outer states compare masks alone.
    """
    n, groups, width = rows.shape
    sizes = np.asarray(sizes, dtype=np.intp)
    score = _Score(width, n * int(sizes.max()), num, den)
    cols = rows.astype(score.count, copy=False).transpose(0, 2, 1)[:, :, None]  # (width, 1, groups)
    inner = _block_bits(groups, width, score.count, low_bits)
    table = np.zeros((width, 1 << inner, groups), dtype=score.count)
    sums = np.zeros((2, 1 << inner, groups), dtype=np.int64)  # D and m of each inner mask
    steps = np.stack([rows.sum(axis=2, dtype=np.int64), np.broadcast_to(sizes, (n, groups))], 1)
    for v in range(inner):
        np.add(table[:, : 1 << v], cols[v], out=table[:, 1 << v : 2 << v])
        np.add(sums[:, : 1 << v], steps[v, :, None], out=sums[:, 1 << v : 2 << v])
    table_sums, m_inner = sums
    vec = cols[list(mask_vertices(mask))].sum(axis=0, dtype=score.count)
    buf, low = np.empty_like(table), np.empty(table.shape, dtype=bool)
    lo, d_lo = np.empty(m_inner.shape, score.lo_dtype), np.empty(m_inner.shape, score.d_lo_dtype)
    best, best_mask, best_group = -1, mask, 0
    for i in range(1 << (low_bits - inner)):
        if i:
            x = inner + (i & -i).bit_length() - 1
            mask ^= 1 << x
            (np.add if mask >> x & 1 else np.subtract)(vec, cols[x], out=vec)
        m = m_inner + mask.bit_count() * sizes
        np.add(table, vec, out=buf)
        np.less(buf, score.thr[m], out=low)
        np.add.reduce(low.view(np.uint8), axis=0, dtype=lo.dtype, out=lo)
        np.multiply(buf, low, out=buf)
        np.add.reduce(buf, axis=0, dtype=d_lo.dtype, out=d_lo)
        value, hit = score.best(table_sums + vec.sum(axis=0, dtype=np.int64), lo, d_lo, m)
        j, g = divmod(int(hit.argmax()), groups)
        if value > best or (value == best and mask | j < best_mask):
            best, best_mask, best_group = value, mask | j, g
    return best, best_mask, best_group


def _sweep_task(rows_of, args: tuple, num: int, den: int, ymask: int, xmask: int,
                low_bits: int) -> tuple:
    """(-score, xmask, ymask) of the best state of the Y block ymask, whose rows
    and sizes are rows_of(*args, ymask), and the X that match xmask's top bits."""
    rows, sizes = rows_of(*args, ymask)
    score, xmask, group = _sweep(rows, sizes, num, den, xmask, low_bits)
    return -score, xmask, ymask | group


def _exact_best(rows_of, args: tuple, num: int, den: int, n: int, yblocks: Sequence[int],
                threads: int) -> tuple:
    """The least _sweep_task result over the Y blocks and the values of enough top
    bits of X for a task a worker, run in min(threads, os.cpu_count()) processes.
    More than MAX_ENTRIES tasks are refused before the task list is built."""
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    workers = min(threads, os.cpu_count() or 1)
    low_bits = n - min((workers - 1).bit_length(), n)
    refuse_above(len(yblocks) << n - low_bits,
                 f"exact sweep tasks over {len(yblocks)} blocks of Y * {1 << n - low_bits} of X")
    task = functools.partial(_sweep_task, rows_of, args, num, den, low_bits=low_bits)
    ys, xs = zip(*itertools.product(yblocks, range(0, 1 << n, 1 << low_bits)))
    if min(workers, len(xs)) == 1:
        return min(map(task, ys, xs))
    # spawned workers import degex afresh: forking a process with threads is unsafe
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(workers, len(xs)), mp_context=spawn) as pool:
        return min(pool.map(task, ys, xs))


def _member(n: int, mask: int) -> np.ndarray:
    """member[v]: whether vertex v < n lies in mask."""
    member = np.zeros(n, dtype=bool)
    member[list(mask_vertices(mask))] = True
    return member


def _best_support(d: np.ndarray, c: int, den: int) -> tuple[int, np.ndarray]:
    """For the weights w = den*d - c of int64 counts d: max(sum of positive w,
    -(sum of negative w)) and the indexes attaining it.

    Ties prefer the positive support.  No weight is formed: w > 0 exactly when
    d > c // den, w < 0 exactly when d < ceil(c / den), and a support S weighs
    den * (sum of d over S) - c |S|, two Python ints.
    """
    if den * int(d.sum()) >= c * len(d):
        support = np.flatnonzero(d > c // den)
    else:
        support = np.flatnonzero(d < -(-c // den))
    return abs(den * int(d[support].sum()) - c * len(support)), support


def _report(kind: str, p: Fraction, n: int, best: int, scaled: int, witness: tuple, mode: str,
            trials: int | None = None, seed: int | None = None) -> DiscrepancyReport:
    """Report the sweep's best scaled deviation once its witness rechecks."""
    if scaled != best:
        raise DegexError("internal error: witness recomputation disagrees with the sweep")
    D = Fraction(best, p.denominator)
    eps_star = D / n**3 if n else Fraction(0)
    return DiscrepancyReport(kind, p, D, eps_star, witness, mode, trials, seed)


# ---------------------------------------------------------------------------
# (1,2) deviation


def _witness_12(G: Hypergraph, mask: int, num: int, den: int) -> tuple[int, tuple, tuple]:
    """Recompute (scaled D, X, P) for a fixed X mask; P is the optimal support.

    d_X is counted into an n x n array from the edge columns, and the pairs
    are read off the strict lower triangle, row v then column u, which is
    colex order on {u < v}: it is derived apart from tuple_ranks and from
    both scorers.
    """
    n = G.n
    X = mask_vertices(mask)
    member = _member(n, mask)
    a, b, c = G.edge_array.T.astype(np.intp)
    d = np.zeros(n * n, dtype=np.int64)
    for x, u, v in ((a, b, c), (b, a, c), (c, a, b)):
        inside = member[x]
        d += np.bincount(u[inside] * n + v[inside], minlength=n * n)
    v, u = np.nonzero(np.tri(n, k=-1, dtype=bool))
    scaled, indexes = _best_support(d[u * n + v], num * len(X), den)
    return scaled, X, tuple(zip(u[indexes].tolist(), v[indexes].tolist()))


def _rows_12(n: int, ends: np.ndarray, ymask: int) -> tuple:
    """The (1,2) rows and sizes, of one group of size 1; there is no Y
    (ymask = 0).  Row x is 1 at the pairs uv of its link incidences (x, uv)."""
    links = Links(n, ends)
    rows = np.zeros((n, 1, binom(n, 2)), dtype=np.uint8)
    rows[links.verts, 0, links.ranks()] = 1
    return rows, [1]


def deviation_12_exact(G: Hypergraph, p, exact_limit: int | None = None,
                       threads: int = 1) -> DiscrepancyReport:
    """Exact maximum (1,2) deviation over all (X, P), with a witness.

    The 2^n loop over X refuses above `exact_limit` vertices (default 22);
    use deviation_12_sampled past that.  Rows of more than MAX_ENTRIES
    entries are refused too, whatever the limit.  threads > 1 splits the
    top bits of X across at most os.cpu_count() processes; results are
    identical for every thread count.
    """
    _require_3graph(G)
    p = to_probability(p)
    limit = DEFAULT_EXACT_LIMIT_12 if exact_limit is None else exact_limit
    refuse_above(G.n, "exact (1,2) deviation over 2^n vertex sets with n", limit,
                 "use deviation_12_sampled or raise the limit")
    num, den = p.numerator, p.denominator
    n = G.n
    refuse_above(n * binom(n, 2), f"exact (1,2) rows over {n} * C({n}, 2) entries")
    best, best_mask, _ = _exact_best(_rows_12, (n, G.edge_array.T), num, den, n, [0], threads)
    scaled, X, P = _witness_12(G, best_mask, num, den)
    return _report("12", p, n, -best, scaled, (X, P), "exact")


def _sampled_best(G: Hypergraph, masks: Sequence[int], num: int, den: int) -> tuple:
    """(best, hit): the largest scaled (1,2) score of the masks as X, max over
    P times den, and which masks reach it.

    Each trial is a _Score state with one column per pair, so it needs three
    sums over the pairs: of d_X, of the d_X below ceil(num*|X| / den), where
    the weight den*d_X - num*|X| is negative, and their count.

    Only the pairs in some edge are counted, a block of their link words at
    a time (Links.blocks): d_X(uv) = popcount(link(uv) & X) for a whole
    (trials x pairs) block in a few numpy passes, every array of a block
    within BLOCK_BYTES.  A pair in no edge has d_X = 0, so it lies below the
    threshold exactly when num*|X| > 0.
    """
    n = G.n
    pairs = binom(n, 2)
    links = Links(n, G.edge_array.T)
    trials = len(masks)
    xwords = mask_words(masks, n)
    m = np.bitwise_count(xwords).sum(axis=1, dtype=np.intp)
    score = _Score(pairs, n, num, den)
    thr = score.thr[m]  # a pair's weight is negative exactly when d_X < thr
    total, below, below_sum = np.zeros((3, trials), dtype=np.int64)

    linked = 0
    for _, words in links.blocks(max(BLOCK_BYTES // (8 * max(links.width, 1)), 1)):
        block = words.shape[1]
        linked += block
        trial_block = max(BLOCK_BYTES // (8 * block), 1)
        for t0 in range(0, trials, trial_block):
            t1 = min(t0 + trial_block, trials)
            buf = np.empty((t1 - t0, block), dtype=np.uint64)
            d = np.empty(buf.shape, dtype=score.count)
            for w, word in enumerate(words):
                np.bitwise_and(xwords[t0:t1, w, None], word, out=buf)
                if w:
                    d += np.bitwise_count(buf)
                else:
                    np.bitwise_count(buf, out=d)
            low = d < thr[t0:t1, None]
            # a row sums at most BLOCK_BYTES / 8 counts of at most n < 2^13: below 2^32
            total[t0:t1] += d.sum(axis=1, dtype=np.uint32)
            below[t0:t1] += low.sum(axis=1, dtype=np.uint32)
            below_sum[t0:t1] += (d * low).sum(axis=1, dtype=np.uint32)
    below += (pairs - linked) * (thr > 0)
    return score.best(total, below, below_sum, m)


def deviation_12_sampled(G: Hypergraph, p, trials: int, seed: int) -> DiscrepancyReport:
    """Lower-bound the (1,2) deviation by sampling X uniformly.

    Trial t draws mask = Random(seed).getrandbits(n) (one draw per trial, in
    order), so the best-so-far is monotone in the trial count for a fixed
    seed.  The inner P is still exactly optimal, hence D <= the true maximum.
    Ties go to the smallest mask.  The witness lists the C(n, 2) pairs and a
    trial takes ceil(n / 64) words, so more than MAX_ENTRIES of either
    are refused before anything is drawn.
    """
    _require_3graph(G)
    p = to_probability(p)
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    num, den = p.numerator, p.denominator
    n = G.n
    pairs, width = binom(n, 2), max(-(-n // 64), 1)
    refuse_above(pairs, f"sampled (1,2) scoring over C({n}, 2) pairs")
    refuse_above(trials * width, f"sampled (1,2) scoring over {trials} trials * {width} words")
    rng = random.Random(seed)
    masks = [rng.getrandbits(n) for _ in range(trials)]
    best, hit = _sampled_best(G, masks, num, den)
    best_mask = min(itertools.compress(masks, hit.tolist()))
    scaled, X, P = _witness_12(G, best_mask, num, den)
    return _report("12", p, n, best, scaled, (X, P), "sampled", trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# (1,1,1) exact deviation


def _e111_vector(G: Hypergraph, xmask: int, ymask: int) -> np.ndarray:
    """e_{XY}(z) for every z: ordered pairs (x, y) in X times Y with xyz an
    edge, one np.bincount for each of the six orders of the edge columns."""
    inx, iny = _member(G.n, xmask), _member(G.n, ymask)
    orders = itertools.permutations(G.edge_array.T.astype(np.intp))
    return sum(np.bincount(z[inx[x] & iny[y]], minlength=G.n) for x, y, z in orders)


def _rows_111(n: int, ends: np.ndarray, group_bits: int, ymask: int) -> tuple:
    """The (1,1,1) rows and sizes over X of the Y block ymask: group j is
    Y = ymask | j, of size |Y|, and row x counts y in Y with xyz an edge, for
    each z.  The groups are built by doubling over Y's low vertices."""
    R = np.zeros((n, n, n), dtype=np.min_scalar_type(n))  # 1 at (x, y, z) when xyz is an edge
    R[tuple(map(np.concatenate, zip(*itertools.permutations(ends))))] = 1
    rows = np.empty((n, 1 << group_bits, n), dtype=R.dtype)
    rows[:, 0] = R[:, list(mask_vertices(ymask))].sum(axis=1, dtype=R.dtype)
    sizes = np.full(1 << group_bits, ymask.bit_count())
    for v in range(group_bits):
        np.add(rows[:, : 1 << v], R[:, v, None], out=rows[:, 1 << v : 2 << v])
        np.add(sizes[: 1 << v], 1, out=sizes[1 << v : 2 << v])
    return rows, sizes


def deviation_111_exact(G: Hypergraph, p, exact_limit: int | None = None,
                        threads: int = 1) -> DiscrepancyReport:
    """Exact maximum (1,1,1) deviation over all (X, Y, Z), with a witness.

    For each block of Y by its top bits, one grouped sweep over X scores the
    per-vertex weights e_{XY}(z) - p|X||Y| of every Y in it, with Z optimal
    analytically (4^n states in all).  threads splits the tasks as in
    deviation_12_exact.  Refuses above `exact_limit` vertices (default 13),
    and above MAX_ENTRIES tasks whatever the limit.
    """
    _require_3graph(G)
    p = to_probability(p)
    limit = DEFAULT_EXACT_LIMIT_111 if exact_limit is None else exact_limit
    refuse_above(G.n, "exact (1,1,1) deviation over 4^n set pairs with n", limit,
                 "raise the limit to force it")
    num, den = p.numerator, p.denominator
    n = G.n
    # groups and inner states cost alike: a block of Y leaves its sweep 4 or more inner bits
    group_bits = _block_bits(16, n, np.min_scalar_type(n * n), n)
    yblocks = range(0, 1 << n, 1 << group_bits)
    best, best_x, best_y = _exact_best(_rows_111, (n, G.edge_array.T, group_bits), num, den, n,
                                       yblocks, threads)

    # witness: recompute the winning (X, Y) directly and pick the Z support
    c = num * best_x.bit_count() * best_y.bit_count()
    scaled, Z = _best_support(_e111_vector(G, best_x, best_y), c, den)
    witness = (mask_vertices(best_x), mask_vertices(best_y), tuple(Z.tolist()))
    return _report("111", p, n, -best, scaled, witness, "exact")


# ---------------------------------------------------------------------------
# quasirandom => codegree implication


@dataclass(frozen=True)
class QrImplicationVerdict:
    """Both sides of delta_2^sqrt(eps*)(G) >= (p - 4 sqrt(eps*)) n, decided exactly."""

    passed: bool
    p: Fraction
    n: int
    eps_star: Fraction
    exceptions: int  # floor(sqrt(eps*) * C(n, 2))
    min_degree_eps: int  # delta_2^sqrt(eps*)(G)
    bound_float: float  # (p - 4 sqrt(eps*)) * n, for display
    discrepancy: DiscrepancyReport


def check_qr_codegree_implication(G: Hypergraph, p, exact_limit: int | None = None,
                                  threads: int = 1) -> QrImplicationVerdict:
    """Verify the quasirandomness-to-codegree implication at eps* = D / n^3.

    The comparison is exact: lhs >= (p - 4 sqrt(eps*)) n is decided by
    rational arithmetic after squaring, never by floating sqrt.  The
    implication holds unconditionally, so callers treat a failed verdict
    as fatal.
    """
    _require_3graph(G)
    if G.n < 2:
        raise ValidationError("the implication check needs at least 2 vertices")
    p = to_probability(p)
    report = deviation_12_exact(G, p, exact_limit=exact_limit, threads=threads)
    n = G.n
    eps_star = report.eps_star
    exceptions = floor_sqrt_scaled(eps_star, binom(n, 2))
    table = degree_table(G, 2)
    lhs = kth_min_degree(table, exceptions)
    # lhs >= p n - 4 n sqrt(eps*)  <=>  4 n sqrt(eps*) >= p n - lhs
    rho = p * n - lhs
    passed = rho <= 0 or 16 * n * n * eps_star >= rho * rho
    bound = float(p) * n - 4 * n * float(eps_star) ** 0.5
    return QrImplicationVerdict(passed, p, n, eps_star, exceptions, lhs, bound, report)
