"""Instance generators: complete and Erdos-Renyi r-graphs, partition deletion.

Seeding is documented and version-stable: erdos_renyi walks the r-subsets of
[0, n) in colex order and draws one random.Random(seed).random() per subset,
keeping the subset when the draw is strictly below p.  The comparison is
exact even for Fraction p (Python compares float vs Fraction exactly), so
p = 1 always yields the complete graph and p = 0 the empty one.  Both
generators refuse more than MAX_SUBSETS r-subsets before drawing any.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .combinatorics import binom, ksubsets
from .errors import LimitExceeded, ValidationError
from .hypergraph import Hypergraph
from .rational import to_probability

# Most r-subsets a generator walks: one draw or one edge each.
MAX_SUBSETS = 10**7


def _check_subsets(n: int, r: int) -> None:
    count = binom(n, r)
    if count > MAX_SUBSETS:
        raise LimitExceeded(
            f"generating over C({n}, {r}) = {count} subsets exceeds the limit of "
            f"{MAX_SUBSETS} subsets"
        )


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph K_n^(r) (empty when r > n)."""
    if r > n:
        return Hypergraph(n, r, ())
    _check_subsets(n, r)
    return Hypergraph(n, r, itertools.combinations(range(n), r))


def erdos_renyi(n: int, r: int, p, seed: int) -> Hypergraph:
    """Each r-subset is an edge independently with probability p, seeded."""
    p = to_probability(p)
    if r < 1:
        raise ValidationError(f"uniformity must be at least 1, got {r}")
    _check_subsets(n, r)
    rng = random.Random(seed)
    edges = [e for e in ksubsets(n, r) if rng.random() < p]
    return Hypergraph(n, r, edges)


@dataclass(frozen=True)
class PartitionSpec:
    """Balanced partition of [0, n) into N consecutive blocks.

    parts are half-open intervals (start, stop); block sizes differ by at
    most one, with the first n mod N blocks taking the larger size.
    """

    N: int
    parts: tuple[tuple[int, int], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.parts)


def balanced_partition(n: int, N: int) -> PartitionSpec:
    """Consecutive index blocks; the first n mod N parts get ceil(n/N) vertices."""
    if not 1 <= N <= n:
        raise ValidationError(f"need 1 <= N <= n, got N={N}, n={n}")
    big, rem = divmod(n, N)
    parts = []
    start = 0
    for i in range(N):
        size = big + (1 if i < rem else 0)
        parts.append((start, start + size))
        start += size
    return PartitionSpec(N, tuple(parts))


def partition_deletion(G: Hypergraph, N: int) -> tuple[Hypergraph, PartitionSpec]:
    """Delete every edge meeting some part of a balanced N-partition in >= 2 vertices.

    Keeps exactly the edges with at most one vertex per part.  For r = 3 the
    deleted count obeys e(G) - e(G') <= N * n * C(ceil(n/N), 2) and every
    (N+1)-subset of the result induces a codegree-0 pair.
    """
    if G.r < 2:
        raise ValidationError(f"partition deletion needs r >= 2, got r={G.r}")
    spec = balanced_partition(G.n, N)
    part_index = [0] * G.n
    for i, (start, stop) in enumerate(spec.parts):
        for v in range(start, stop):
            part_index[v] = i
    kept = []
    for e in G.edges:
        counts: dict[int, int] = {}
        ok = True
        for v in e:
            i = part_index[v]
            counts[i] = counts.get(i, 0) + 1
            if counts[i] >= 2:
                ok = False
                break
        if ok:
            kept.append(e)
    return Hypergraph(G.n, G.r, kept), spec


def deletion_bound(n: int, N: int) -> int:
    """Pigeonhole cap N * n * C(ceil(n/N), 2) on deleted triples (r = 3)."""
    ceil_part = -(-n // N)
    return N * n * binom(ceil_part, 2)
