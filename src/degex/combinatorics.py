"""Exact k-subset combinatorics: binomials, colex ranking, enumeration, sampling.

Subsets of [0, n) are represented as strictly increasing tuples of ints.
Ranks are colexicographic: subsets are compared by their largest differing
element, so the rank of a k-subset does not depend on n.  Concretely

    rank({v_0 < v_1 < ... < v_{k-1}}) = sum_j C(v_j, j+1)

which maps the k-subsets of [0, n) bijectively onto [0, C(n, k)).  tuple_ranks
takes the ranks of many sets at once, held as vertex columns; colex_blocks
lists every k-subset of [0, n) as such columns, a block at a time, and
colex_order sorts many sets, held the same way, into colex order.  Links
builds a hypergraph's links as 64-bit words, in the one layout that
vertex_words and mask_words also give vertex sets.  It groups the link
incidences by one sort of integer keys that pack each incidence in a word,
which is colex order, and by colex_order only where a key would not fit.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

# Block enumerations and the arrays built per block stay within a few of these.
BLOCK_BYTES = 1 << 18


class SubsetId(NamedTuple):
    """Colex rank of a k-subset together with its size k."""

    rank: int
    k: int


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); 0 when k > n.

    Python integers are arbitrary precision, so the result never wraps.
    """
    if n < 0 or k < 0:
        raise ValidationError(f"binom requires nonnegative arguments, got ({n}, {k})")
    if k > n:
        return 0
    return math.comb(n, k)


def _check_subset(S: Sequence[int]) -> None:
    for i, v in enumerate(S):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"subset elements must be ints, got {v!r}")
        if v < 0:
            raise ValidationError(f"subset elements must be nonnegative, got {v}")
        if i > 0 and S[i - 1] >= v:
            raise ValidationError(
                f"subset must be strictly increasing, got {tuple(S)}"
            )


def colex_rank(S: Sequence[int]) -> SubsetId:
    """Colex rank of a strictly increasing k-subset."""
    S = tuple(S)
    _check_subset(S)
    rank = sum(math.comb(v, j + 1) for j, v in enumerate(S))
    return SubsetId(rank, len(S))


def colex_unrank(rank: int, k: int, n: int) -> tuple[int, ...]:
    """The k-subset of [0, n) with the given colex rank.

    Inverse of colex_rank: peel off the largest element by binary search
    for the biggest v with C(v, k) <= rank.
    """
    if k < 0 or n < 0:
        raise ValidationError(f"colex_unrank requires k, n >= 0, got k={k}, n={n}")
    total = binom(n, k)
    if not 0 <= rank < total:
        raise ValidationError(
            f"rank {rank} out of range [0, {total}) for k={k}, n={n}"
        )
    out = [0] * k
    while k > 0:
        lo, hi = k - 1, n  # invariant: C(lo, k) <= rank < C(hi, k)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if math.comb(mid, k) <= rank:
                lo = mid
            else:
                hi = mid
        rank -= math.comb(lo, k)
        k -= 1
        out[k] = lo
        n = lo
    return tuple(out)


def tuple_ranks(
    cols: np.ndarray, k: int, n: int
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Each k-tuple P of rows of the vertex columns cols, over [0, n), with
    the colex rank of every column's vertices at P; the next tuple
    overwrites the ranks.

    terms[i, v] is C(v, i + 1), capped at 2^32 so that no sum overflows.
    Each term of a rank is at most the rank, so the ranks are exact when
    C(n, k) <= 2^32, as for every table the callers index.  The walk fills
    places from the top down, so a partial sum is shared by all the tuples
    below it: ranks[i] sums places i and up, and holds until the last-in,
    first-out stack has finished the places below it.
    """
    terms = np.empty((k, n), dtype=np.intp)
    row = np.arange(n, dtype=np.intp)
    for i in range(k):
        terms[i] = row = np.minimum(row, 1 << 32)
        row = np.cumsum(row) - row  # C(v, i + 2) is the sum of C(u, i + 1) over u < v
    ranks = np.zeros((max(k, 1), cols.shape[1]), dtype=np.intp)
    if not k:
        yield (), ranks[0]
        return
    stack = [(k - 1, p, ()) for p in range(k - 1, len(cols))]
    while stack:
        i, p, tail = stack.pop()
        rank, above = ranks[i], ranks[i + 1] if i + 1 < k else 0
        if i:
            np.take(terms[i], cols[p], out=rank, mode="clip")
            rank += above
            stack += [(i - 1, q, (p,) + tail) for q in range(i - 1, p)]
        else:
            np.add(above, cols[p], out=rank)  # C(v, 1) = v
            yield (p,) + tail, rank


def _subset_columns(k: int, j: int, high: tuple[int, ...], dtype) -> np.ndarray:
    """The sets L + high, for the j-subsets L of [0, k) in colex order; row i
    of the result holds the i-th smallest vertex of every set."""
    # level t lists the t-subsets of [0, k - j + t), the ones that can still
    # grow into a j-subset of [0, k), by top element v: each is v plus a
    # (t-1)-subset of [0, v), and those are the first C(v, t-1) of level t-1
    level = np.zeros((0, 1), dtype=dtype)
    for t in range(1, j + 1):
        tops = range(t - 1, k - j + t)
        counts = [math.comb(v, t - 1) for v in tops]
        below = np.concatenate([level[:, :c] for c in counts], axis=1)
        level = np.concatenate([below, np.repeat(np.array(tops, dtype=dtype), counts)[None]])
    top = np.array(high, dtype=dtype)[:, None]
    return np.concatenate([level, top.repeat(level.shape[1], axis=1)])


def colex_blocks(n: int, m: int, rows: int) -> Iterator[tuple[int, np.ndarray]]:
    """The m-subsets of [0, n) in colex order, as blocks (offset, cols).

    cols[i] holds the i-th smallest vertex of each subset of the block, in
    the smallest unsigned dtype that holds n, and the block's colex ranks run
    from offset.  The m-subsets of [0, k) are those of [0, k - 1) followed by
    the (m-1)-subsets of [0, k - 1) plus k - 1; the walk unrolls that
    recursion on a stack and splits only a part larger than `rows`; a part
    that does not fit the rows left starts the next block, so every block has
    at most `rows` subsets.
    """
    dtype = np.min_scalar_type(n)  # unsigned, and holds every vertex
    offset, filled, parts = 0, 0, []
    stack = [(n, m, ())]
    while stack:
        k, j, high = stack.pop()
        size = math.comb(k, j) if j >= 0 else 0
        if size > rows:
            stack += [(k - 1, j - 1, (k - 1,) + high), (k - 1, j, high)]
            continue
        if size > rows - filled:
            yield offset, np.concatenate(parts, axis=1)
            offset, filled, parts = offset + filled, 0, []
        if size:
            parts.append(_subset_columns(k, j, high, dtype))
            filled += size
    if filled:
        yield offset, np.concatenate(parts, axis=1)


def colex_order(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The permutation that sorts sets, held as vertex columns (cols[i] the
    i-th smallest vertex of every set), into colex order, and a mask of the
    sorted sets that differ from the set before them.

    Colex order compares the largest elements first, so the last column is
    lexsort's primary key.
    """
    order = np.lexsort(cols) if len(cols) else np.arange(cols.shape[1])
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for col in np.take(cols, order, axis=1):
        first[1:] |= col[1:] != col[:-1]
    return order, first


class Links:
    """The link incidences of an r-graph, and its links as words.

    Each edge e (ends[i] holds the i-th smallest vertex of every edge) and
    vertex v of e give one incidence: sets[:, i] holds the (r-1)-set T = e - v
    as a vertex column, and verts[i] holds v, one vertex of link(T).  A vertex
    set of [0, n) is ceil(n / 64) uint64 words, v being bit v & 63 of word v >> 6.
    table() places the links by the rank of T; masks() and blocks() read one
    grouping of the incidences by T, built on first use, and fill all the
    words of each link.  So a caller bounds its words by n: extract_random
    relabels a sparse vertex range to the vertices on some edge first.
    """

    def __init__(self, n: int, ends: np.ndarray):
        r = len(ends)
        ends = ends.astype(np.min_scalar_type(n), copy=False)
        self.n, self.t, self.width = n, r - 1, -(-n // 64)
        # each edge once for each of its vertices v: the (r-1)-set T it leaves, and v
        self.sets = np.concatenate([ends[np.arange(r) != j] for j in range(r)], axis=1)
        self.verts = ends.ravel()

    def ranks(self) -> np.ndarray:
        """The colex rank of each incidence's T, exact while C(n, t) <= 2^32."""
        return next(tuple_ranks(self.sets, self.t, self.n))[1]

    def table(self) -> np.ndarray:
        """words[w, rank of T]: word w of link(T), for every t-subset T of [0, n)."""
        words = np.zeros((self.width, binom(self.n, self.t)), dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), self.verts & 63, dtype=np.uint64)
        np.bitwise_or.at(words, (self.verts >> 6, self.ranks()), bits)
        return words

    @functools.cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The incidences grouped by T in colex order, as (keys, starts, verts):
        run g holds the vertices verts[starts[g]:starts[g + 1]] of link(T) for
        the T in keys[:, g].

        With b the bit length of n - 1, r fields of b bits hold an incidence
        in one integer: T's largest vertex in the top field, v in the lowest.
        Sorted, these run in colex order of T, and the fields of a run's head
        give its T.  Past 64 bits, colex_order sorts the sets instead.
        """
        t, b = self.t, max(self.n - 1, 0).bit_length()
        if (t + 1) * b <= 64:
            dtype = np.min_scalar_type((1 << (t + 1) * b) - 1)
            verts = self.verts.astype(dtype)
            for i, col in enumerate(self.sets, 1):
                verts |= np.left_shift(col, i * b, dtype=dtype)
            verts.sort()
            tees, field = verts >> b, (1 << b) - 1
            verts &= field
            new = np.ones(len(verts), dtype=bool)
            np.not_equal(tees[1:], tees[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            heads = tees[starts]
            keys = np.array([heads >> i * b & field for i in range(t)], dtype).reshape(t, len(heads))
        else:
            order, new = colex_order(self.sets)
            starts = np.flatnonzero(new)
            keys, verts = np.take(self.sets, order[starts], axis=1), self.verts[order]
        return keys, np.append(starts, len(verts)), verts

    def blocks(self, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The T with a nonempty link in colex order, `rows` at a time, as (keys,
        words): keys holds the T as vertex columns and words[w] word w of each
        link(T), for every w < width.  No rank is taken, so any n is exact."""
        keys, starts, verts = self._runs
        for lo in range(0, keys.shape[1], rows):
            hi = min(lo + rows, keys.shape[1])
            run = verts[starts[lo]:starts[hi]]
            bits = np.left_shift(np.uint64(1), run & 63, dtype=np.uint64)
            words = np.zeros((self.width, hi - lo), dtype=np.uint64)
            if self.width == 1:  # link(T): the OR of the bits of T's run of vertices
                np.bitwise_or.reduceat(bits, starts[lo:hi] - starts[lo], out=words[0])
            else:  # each bit ORed into its word of its T's link
                group = np.repeat(np.arange(hi - lo), np.diff(starts[lo:hi + 1]))
                np.bitwise_or.at(words, (run >> 6, group), bits)
            yield keys[:, lo:hi], words

    def masks(self) -> dict[tuple[int, ...], int]:
        """Each nonempty link(T) as an int, bit v for vertex v, keyed by tuple T:
        its words, low word first, are the int's bytes (mask_words reversed)."""
        for keys, words in self.blocks(max(len(self.verts), 1)):  # at most one block
            if self.width == 1:
                ints = words[0].tolist()
            else:
                links = np.ascontiguousarray(words.T, dtype="<u8").view(f"V{8 * self.width}")
                ints = [int.from_bytes(link, "little") for link in links.ravel().tolist()]
            # each T as a tuple; for r = 1, the one T is the empty set
            return dict(zip(zip(*keys.tolist()) if self.t else itertools.repeat(()), ints))
        return {}


def vertex_words(cols: np.ndarray, width: int) -> np.ndarray:
    """words[w, j]: word w of the j-th set of cols, sets held as vertex columns
    in the smallest unsigned dtype that holds n, width = ceil(n / 64)."""
    words = np.zeros((width, cols.shape[1]), dtype=np.uint64)
    for c, w in itertools.product(cols, range(width)):
        # below word w, c - 64w wraps to 64 or more, as 64 W is at most
        # 2^bits of the dtype that holds n; a shift by 64 or more gives 0
        shift = c - c.dtype.type(64 * w)
        words[w] |= np.left_shift(np.uint64(1), shift, dtype=np.uint64)
    return words


def mask_words(masks: Sequence[int], n: int) -> np.ndarray:
    """words[j, w]: word w of the vertex set of masks[j], bit v for vertex v < n."""
    width = -(-n // 64)
    data = b"".join(m.to_bytes(8 * width, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").reshape(len(masks), width)


def ksubsets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of [0, n) in increasing colex rank, C(n, k) of them,
    read off colex_blocks a block at a time."""
    if k < 0 or n < 0:
        raise ValidationError(f"ksubsets requires k, n >= 0, got k={k}, n={n}")
    for _, cols in colex_blocks(n, k, BLOCK_BYTES // 8):
        yield from map(tuple, cols.T.tolist())


def random_ksubset(n: int, k: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform random k-subset of [0, n), drawn as a uniform colex rank.

    Consumes exactly one rng.randrange(C(n, k)) draw, so the seed-to-stream
    mapping is the documented Mersenne Twister getrandbits stream.
    """
    if k > n:
        raise ValidationError(f"cannot sample a {k}-subset from {n} vertices")
    if k < 0 or n < 0:
        raise ValidationError(f"random_ksubset requires k, n >= 0, got k={k}, n={n}")
    total = math.comb(n, k)
    return colex_unrank(rng.randrange(total), k, n)


def subset_mask(S: Iterable[int]) -> int:
    """Bitmask with bit v set for each vertex v in S."""
    m = 0
    for v in S:
        m |= 1 << v
    return m


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Sorted vertices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
