"""Exact quasirandomness discrepancies for 3-graphs, with witnesses.

The (1,2) deviation of G at density p is

    D = max over X subset of V, P subset of V^(2) of |e12(X, P) - p|X||P||

For fixed X the optimal P is analytic: with w(uv) = d_X(uv) - p|X|, where
d_X(uv) counts x in X with xuv an edge, the maximum over P is
max(sum of positive w, -(sum of negative w)), attained at the positive or
negative support.  So only the 2^n sets X are enumerated, in Gray-code
order, maintaining the pair counts d_X incrementally; each step costs a few
vectorized passes over the C(n, 2) pairs.

Everything is exact: p is a Fraction with denominator q, the loop works on
integer weights q*d_X(uv) - p.numerator*|X|, and results are returned as
Fractions.  When the integer weights could overflow int64 the same loop
runs on an object-dtype array of Python ints.

The (1,1,1) deviation quantifies over X and Y (4^n pairs, nested Gray
sweeps) with the set Z optimal analytically in the same way.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .combinatorics import binom, mask_vertices
from .degree import degree_table, kth_min_degree
from .errors import LimitExceeded, ValidationError
from .hypergraph import Hypergraph
from .rational import floor_sqrt_scaled, to_probability

DEFAULT_EXACT_LIMIT_12 = 22
DEFAULT_EXACT_LIMIT_111 = 13

INT64_SAFE = 1 << 62


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
# shared geometry: pairs in colex order


def _pair_rank(u: int, v: int) -> int:
    return u + v * (v - 1) // 2


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for v in range(n) for u in range(v)]


def _pair_link_indexes(G: Hypergraph) -> list[list[int]]:
    """For each vertex x, the colex pair ranks {u,v} with {x,u,v} an edge."""
    idx: list[list[int]] = [[] for _ in range(G.n)]
    for a, b, c in G.edges:
        idx[a].append(_pair_rank(b, c))
        idx[b].append(_pair_rank(a, c))
        idx[c].append(_pair_rank(a, b))
    return idx


def _weight_dtype(n: int, num: int, den: int):
    # worst-case |sum of weights| <= C(n,2) * n * (num + den); this needs
    # num >= 0, which holds because every entry point takes p through
    # to_probability (0 <= p <= 1)
    bound = binom(n, 2) * max(n, 1) * (num + den)
    return np.int64 if bound < INT64_SAFE else object


# ---------------------------------------------------------------------------
# (1,2) exact deviation


def _sweep_12_block(
    n: int,
    edges: tuple[tuple[int, int, int], ...],
    num: int,
    den: int,
    base_mask: int,
    low_bits: int,
) -> tuple[int, int]:
    """Gray sweep over the low bits with the high bits fixed to base_mask.

    Returns (best scaled deviation, best X mask); the scaled deviation is
    den * D_X, tie-broken toward the smallest mask.
    """
    G = Hypergraph(n, 3, edges)
    idx = _pair_link_indexes(G)
    deg = [len(ii) for ii in idx]
    npairs = binom(n, 2)
    dtype = _weight_dtype(n, num, den)
    idx_arrays = [np.array(ii, dtype=np.intp) for ii in idx]
    wd = np.zeros(npairs, dtype=dtype)  # den * d_X per pair
    buf = np.empty(npairs, dtype=dtype)

    mask = base_mask
    k = 0
    sum_d = 0
    for x in mask_vertices(base_mask):
        wd[idx_arrays[x]] += den
        sum_d += deg[x]
        k += 1

    def evaluate() -> int:
        c = num * k
        np.subtract(wd, c, out=buf)
        np.abs(buf, out=buf)
        s_abs = int(buf.sum())
        s_w = den * sum_d - c * npairs
        return (s_abs + abs(s_w)) // 2

    best = evaluate()
    best_mask = mask
    for i in range(1, 1 << low_bits):
        x = (i & -i).bit_length() - 1
        bit = 1 << x
        if mask & bit:
            mask ^= bit
            k -= 1
            sum_d -= deg[x]
            wd[idx_arrays[x]] -= den
        else:
            mask ^= bit
            k += 1
            sum_d += deg[x]
            wd[idx_arrays[x]] += den
        dx = evaluate()
        if dx > best or (dx == best and mask < best_mask):
            best = dx
            best_mask = mask
    return best, best_mask


def _sweep_12_block_star(args) -> tuple[int, int]:
    return _sweep_12_block(*args)


def _witness_12(G: Hypergraph, mask: int, num: int, den: int) -> tuple[int, tuple, tuple]:
    """Recompute (scaled D, X, P) for a fixed X mask; P is the optimal support."""
    X = mask_vertices(mask)
    k = len(X)
    npairs = binom(G.n, 2)
    d = [0] * npairs
    for a, b, c in G.edges:
        if mask >> a & 1:
            d[_pair_rank(b, c)] += 1
        if mask >> b & 1:
            d[_pair_rank(a, c)] += 1
        if mask >> c & 1:
            d[_pair_rank(a, b)] += 1
    w = [den * dv - num * k for dv in d]
    s_w = sum(w)
    positive = s_w >= 0  # ties prefer the positive support
    pairs = _all_pairs(G.n)
    if positive:
        P = tuple(pairs[i] for i in range(npairs) if w[i] > 0)
        scaled = sum(wi for wi in w if wi > 0)
    else:
        P = tuple(pairs[i] for i in range(npairs) if w[i] < 0)
        scaled = -sum(wi for wi in w if wi < 0)
    return scaled, X, P


def deviation_12_exact(
    G: Hypergraph,
    p,
    exact_limit: int | None = None,
    threads: int = 1,
) -> DiscrepancyReport:
    """Exact maximum (1,2) deviation over all (X, P), with a witness.

    The 2^n loop over X refuses above `exact_limit` vertices (default 22);
    use deviation_12_sampled past that.  threads > 1 splits the top bits of
    X across processes; results are identical for every thread count.
    """
    _require_3graph(G)
    p = to_probability(p)
    limit = DEFAULT_EXACT_LIMIT_12 if exact_limit is None else exact_limit
    if G.n > limit:
        raise LimitExceeded(
            f"exact (1,2) deviation enumerates 2^{G.n} vertex sets, above the "
            f"limit of n={limit}; use deviation_12_sampled or raise the limit"
        )
    num, den = p.numerator, p.denominator

    n = G.n
    if threads < 1:
        raise ValidationError(f"threads must be at least 1, got {threads}")
    block_bits = 0
    if threads > 1 and n > 0:
        block_bits = min((threads - 1).bit_length(), n)
    tasks = [
        (n, G.edges, num, den, b << (n - block_bits), n - block_bits)
        for b in range(1 << block_bits)
    ]
    if len(tasks) == 1:
        results = [_sweep_12_block_star(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            results = list(pool.map(_sweep_12_block_star, tasks))

    best, best_mask = results[0]
    for dx, mask in results[1:]:
        if dx > best or (dx == best and mask < best_mask):
            best, best_mask = dx, mask

    scaled, X, P = _witness_12(G, best_mask, num, den)
    if scaled != best:
        raise AssertionError("witness recomputation disagrees with the sweep")
    D = Fraction(best, den)
    eps_star = D / n**3 if n else Fraction(0)
    return DiscrepancyReport(
        kind="12", p=p, D=D, eps_star=eps_star, witness=(X, P), mode="exact"
    )


def deviation_12_sampled(
    G: Hypergraph,
    p,
    trials: int,
    seed: int,
) -> DiscrepancyReport:
    """Lower-bound the (1,2) deviation by sampling X uniformly.

    Trial t draws mask = Random(seed).getrandbits(n) (one draw per trial, in
    order), so the best-so-far is monotone in the trial count for a fixed
    seed.  The inner P is still exactly optimal, hence D <= the true maximum.
    """
    _require_3graph(G)
    p = to_probability(p)
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    num, den = p.numerator, p.denominator
    n = G.n
    npairs = binom(n, 2)
    idx = _pair_link_indexes(G)
    dtype = _weight_dtype(n, num, den)
    idx_arrays = [np.array(ii, dtype=np.intp) for ii in idx]
    deg = [len(ii) for ii in idx]
    buf = np.empty(npairs, dtype=dtype)

    rng = random.Random(seed)
    best = -1
    best_mask = 0
    for _ in range(trials):
        mask = rng.getrandbits(n) if n else 0
        wd = np.zeros(npairs, dtype=dtype)
        k = 0
        sum_d = 0
        for x in mask_vertices(mask):
            wd[idx_arrays[x]] += den
            sum_d += deg[x]
            k += 1
        c = num * k
        np.subtract(wd, c, out=buf)
        np.abs(buf, out=buf)
        s_abs = int(buf.sum())
        s_w = den * sum_d - c * npairs
        dx = (s_abs + abs(s_w)) // 2
        if dx > best or (dx == best and mask < best_mask):
            best = dx
            best_mask = mask

    scaled, X, P = _witness_12(G, best_mask, num, den)
    if scaled != best:
        raise AssertionError("witness recomputation disagrees with the sweep")
    D = Fraction(best, den)
    eps_star = D / n**3 if n else Fraction(0)
    return DiscrepancyReport(
        kind="12",
        p=p,
        D=D,
        eps_star=eps_star,
        witness=(X, P),
        mode="sampled",
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# (1,1,1) exact deviation


def _dev111_weight_dtype(n: int, num: int, den: int):
    # num >= 0 here too, as in _weight_dtype
    bound = max(n, 1) ** 3 * (num + den)
    return np.int64 if bound < INT64_SAFE else object


def _e111_vector(G: Hypergraph, xmask: int, ymask: int) -> list[int]:
    """e_{XY}(z) for every z: ordered pairs (x, y) in X times Y with xyz an edge."""
    out = [0] * G.n
    for e in G.edges:
        for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            if xmask >> e[x] & 1 and ymask >> e[y] & 1:
                out[e[z]] += 1
    return out


def deviation_111_exact(
    G: Hypergraph,
    p,
    exact_limit: int | None = None,
) -> DiscrepancyReport:
    """Exact maximum (1,1,1) deviation over all (X, Y, Z), with a witness.

    Nested Gray sweeps over X and Y (4^n states); Z is optimal analytically
    from the per-vertex weights e_{XY}(z) - p|X||Y|.  Refuses above
    `exact_limit` vertices (default 13).
    """
    _require_3graph(G)
    p = to_probability(p)
    limit = DEFAULT_EXACT_LIMIT_111 if exact_limit is None else exact_limit
    if G.n > limit:
        raise LimitExceeded(
            f"exact (1,1,1) deviation enumerates 4^{G.n} set pairs, above the "
            f"limit of n={limit}; raise the limit to force it"
        )
    num, den = p.numerator, p.denominator
    n = G.n
    dtype = _dev111_weight_dtype(n, num, den)

    # M[y, z] = den * #{x in X : xyz an edge}, maintained over the X sweep
    M = np.zeros((max(n, 1), max(n, 1)), dtype=dtype)
    rows: list[list[int]] = [[] for _ in range(n)]
    cols: list[list[int]] = [[] for _ in range(n)]
    for a, b, c in G.edges:
        for third, u, v in ((a, b, c), (b, a, c), (c, a, b)):
            rows[third].extend((u, v))
            cols[third].extend((v, u))
    row_idx = [np.array(rr, dtype=np.intp) for rr in rows]
    col_idx = [np.array(cc, dtype=np.intp) for cc in cols]

    e_scaled = np.empty(max(n, 1), dtype=dtype)
    buf = np.empty(max(n, 1), dtype=dtype)

    best = -1
    best_x = best_y = 0
    xmask = 0
    kx = 0
    states = 1 << n
    for xi in range(states):
        if xi:
            x = (xi & -xi).bit_length() - 1
            bit = 1 << x
            if xmask & bit:
                xmask ^= bit
                kx -= 1
                M[row_idx[x], col_idx[x]] -= den
            else:
                xmask ^= bit
                kx += 1
                M[row_idx[x], col_idx[x]] += den
        row_sums = [int(s) for s in M.sum(axis=1)] if n else []

        e_scaled[:] = 0
        sum_e = 0
        ymask = 0
        ky = 0
        # evaluate (X, Y=empty): every weight is zero
        if 0 > best or (0 == best and (xmask, ymask) < (best_x, best_y)):
            best, best_x, best_y = 0, xmask, ymask
        for yi in range(1, states):
            y = (yi & -yi).bit_length() - 1
            bit = 1 << y
            if ymask & bit:
                ymask ^= bit
                ky -= 1
                np.subtract(e_scaled, M[y], out=e_scaled)
                sum_e -= row_sums[y]
            else:
                ymask ^= bit
                ky += 1
                np.add(e_scaled, M[y], out=e_scaled)
                sum_e += row_sums[y]
            c = num * kx * ky
            np.subtract(e_scaled, c, out=buf)
            np.abs(buf, out=buf)
            s_abs = int(buf.sum())
            s_w = sum_e - c * n
            dx = (s_abs + abs(s_w)) // 2
            if dx > best or (dx == best and (xmask, ymask) < (best_x, best_y)):
                best, best_x, best_y = dx, xmask, ymask

    # witness: recompute the winning (X, Y) directly and pick the Z support
    evec = _e111_vector(G, best_x, best_y)
    kx = best_x.bit_count()
    ky = best_y.bit_count()
    w = [den * ev - num * kx * ky for ev in evec]
    s_w = sum(w)
    positive = s_w >= 0
    if positive:
        Z = tuple(z for z in range(n) if w[z] > 0)
        scaled = sum(wi for wi in w if wi > 0)
    else:
        Z = tuple(z for z in range(n) if w[z] < 0)
        scaled = -sum(wi for wi in w if wi < 0)
    if scaled != best:
        raise AssertionError("witness recomputation disagrees with the sweep")
    D = Fraction(best, den)
    eps_star = D / n**3 if n else Fraction(0)
    return DiscrepancyReport(
        kind="111",
        p=p,
        D=D,
        eps_star=eps_star,
        witness=(mask_vertices(best_x), mask_vertices(best_y), Z),
        mode="exact",
    )


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


def check_qr_codegree_implication(
    G: Hypergraph,
    p,
    exact_limit: int | None = None,
    threads: int = 1,
) -> QrImplicationVerdict:
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
    return QrImplicationVerdict(
        passed=passed,
        p=p,
        n=n,
        eps_star=eps_star,
        exceptions=exceptions,
        min_degree_eps=lhs,
        bound_float=bound,
        discrepancy=report,
    )
