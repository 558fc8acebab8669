"""Instance generators: complete and Erdos-Renyi r-graphs, partition deletion.

Seeding is documented and version-stable: erdos_renyi walks the r-subsets of
[0, n) in colex order and draws one random.Random(seed).random() per subset,
keeping the subset when the draw is strictly below p.  Both generators
refuse more than MAX_ENTRIES r-subsets before drawing any.

erdos_renyi takes those draws in blocks without calling random() itself.
CPython's random() is (a * 2^26 + b) / 2^53, from two 32-bit Mersenne
Twister outputs a = w0 >> 5 and b = w1 >> 6, and getrandbits(64 * k) holds
the next 2k outputs as little-endian 32-bit words, in order.  A draw is
below p exactly when a * 2^26 + b < ceil(p * 2^53), an integer test that is
exact for any rational p, as the old float-to-Fraction comparison was: p = 1
always yields the complete graph and p = 0 the empty one.  Each block of
r-subsets, as vertex columns from combinatorics.colex_blocks, is tested in
one numpy pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .combinatorics import BLOCK_BYTES, binom, colex_blocks
from .errors import ValidationError, refuse_above
from .hypergraph import Hypergraph
from .rational import to_probability

# r-subsets a block: one 64-bit draw each fits BLOCK_BYTES
BLOCK_ROWS = BLOCK_BYTES // 8


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph K_n^(r) (empty when r > n)."""
    if r > n:
        return Hypergraph(n, r, ())
    refuse_above(binom(n, r), f"generating over C({n}, {r})")
    blocks = [cols for _, cols in colex_blocks(n, r, BLOCK_ROWS)]
    return Hypergraph.from_rows(n, r, np.concatenate(blocks, axis=1).T)


def erdos_renyi(n: int, r: int, p, seed: int) -> Hypergraph:
    """Each r-subset is an edge independently with probability p, seeded."""
    p = to_probability(p)
    if r < 1:
        raise ValidationError(f"uniformity must be at least 1, got {r}")
    refuse_above(binom(n, r), f"generating over C({n}, {r})")
    rng = random.Random(seed)
    cut = math.ceil(p * (1 << 53))  # a draw k / 2^53 is below p iff k < cut
    kept = []
    for _, cols in colex_blocks(n, r, BLOCK_ROWS):
        count = cols.shape[1]
        bits = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
        words = np.frombuffer(bits, dtype="<u4").reshape(count, 2)
        draws = (words[:, 0] >> 5).astype(np.uint64) << 26 | words[:, 1] >> 6
        kept.append(cols[:, draws < cut])
    if not kept:  # r > n: no subsets to draw for
        return Hypergraph(n, r, ())
    return Hypergraph.from_rows(n, r, np.concatenate(kept, axis=1).T)


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
    # 1 + the part of each vertex; in a sorted edge two vertices share a
    # part only if two neighbours do
    part = np.searchsorted([start for start, _ in spec.parts], G.edge_array, side="right")
    kept = G.edge_array[(np.diff(part, axis=1) != 0).all(axis=1)]
    return Hypergraph.from_rows(G.n, G.r, kept), spec


def deletion_bound(n: int, N: int) -> int:
    """Pigeonhole cap N * n * C(ceil(n/N), 2) on deleted triples (r = 3)."""
    ceil_part = -(-n // N)
    return N * n * binom(ceil_part, 2)
