"""Degree statistics over l-subsets: tables, minima, epsilon-minima, poor sets.

deg(S) for an l-subset S is the number of edges containing S.  A DegreeTable
holds it for all C(n, l) subsets, by colex rank, as one read-only int64 array
counted by a np.bincount of the ranks of the edges' l-subsets; the minimum
l-degree, its epsilon relaxation, the histogram and the poor/rich split at a
density p are array passes over it.  The split is exact: p is a Fraction, and
an integer degree is below p * C(n - l, r - l) exactly when it is below the
integer ceil(p * C(n - l, r - l)), so there is never a float tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import binom, colex_blocks, tuple_ranks
from .errors import ValidationError, refuse_above
from .hypergraph import Hypergraph, vertex_indices
from .rational import to_fraction, to_probability


def least_rich_degree(p: Fraction, max_possible: int) -> int:
    """The poor/rich cut, ceil(p * C(n - l, r - l)): a lower degree is poor."""
    return math.ceil(p * max_possible)


@dataclass(frozen=True, eq=False)
class DegreeTable:
    """deg(S) for every l-subset S of [0, n), by colex rank: a read-only int64 array."""

    n: int
    r: int
    ell: int
    degrees: np.ndarray

    @property
    def max_possible(self) -> int:
        """Largest achievable degree, C(n - l, r - l)."""
        if self.n < self.ell:
            return 0
        return binom(self.n - self.ell, self.r - self.ell)

    def poor(self, p) -> np.ndarray:
        """Mask of the poor l-subsets, deg(S) < p * C(n - l, r - l)."""
        return self.degrees < least_rich_degree(to_probability(p), self.max_possible)

    def sets(self) -> np.ndarray:
        """The l-subsets in colex order as vertex columns: row i holds the i-th
        smallest vertex of each, in the smallest unsigned dtype that holds n."""
        size = len(self.degrees)
        if not size:
            return np.zeros((self.ell, 0), dtype=np.min_scalar_type(self.n))
        ((_, cols),) = colex_blocks(self.n, self.ell, size)
        return cols

    def histogram(self) -> dict[int, int]:
        values, counts = np.unique(self.degrees, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))

    def csv(self) -> str:
        """The table as CSV text: a rank,subset,degree header, then one line
        per l-subset in colex order, its vertices separated by spaces.

        Rank, vertices and degree are stacked into one array and formatted
        in one go.
        """
        size = len(self.degrees)
        rows = np.empty((size, self.ell + 2), dtype=np.int64)
        rows[:, 0] = np.arange(size)
        rows[:, 1:-1] = self.sets().T
        rows[:, -1] = self.degrees
        line = "%d," + " ".join(["%d"] * self.ell) + ",%d\n"
        return "rank,subset,degree\n" + (line * size) % tuple(rows.ravel().tolist())


@dataclass(frozen=True)
class PoorSetReport:
    """l-subsets with deg(S) strictly below p * C(n - l, r - l)."""

    p: Fraction
    ell: int
    threshold: Fraction  # p * C(n - l, r - l)
    poor: tuple[int, ...]  # colex ranks
    total: int  # C(n, l)

    @property
    def fraction(self) -> Fraction:
        """The poor share of the C(n, l) subsets; 0 when there are none (n < l)."""
        return Fraction(len(self.poor), self.total or 1)

    @property
    def fraction_float(self) -> float:
        return float(self.fraction)


def edges_through(G: Hypergraph, S: Sequence[int]) -> np.ndarray:
    """Mask of the edges of G that contain the set S, over G.edge_array."""
    return np.isin(G.edge_array, S).sum(axis=1) == len(S)


def degree_of(G: Hypergraph, S: Sequence[int]) -> int:
    """Number of edges of G containing the l-subset S (l < r)."""
    s = tuple(sorted(vertex_indices(S, "subset")))
    if len(set(s)) != len(s):
        raise ValidationError(f"subset {tuple(S)} repeats a vertex")
    if len(s) >= G.r:
        raise ValidationError(f"subset size {len(s)} must be below r={G.r}")
    if s and (s[0] < 0 or s[-1] >= G.n):
        raise ValidationError(f"subset {s} has a vertex outside [0, {G.n})")
    return int(np.count_nonzero(edges_through(G, s)))


def degree_table(G: Hypergraph, ell: int) -> DegreeTable:
    """All l-subset degrees at once: each edge bumps its C(r, l) sub-subsets.

    Column i of the edge array holds the i-th smallest vertex of every edge;
    each l-tuple of columns gives the colex ranks of one l-subset of every
    edge, and a bincount of those ranks adds them into the table.  Refuses a
    table of more than MAX_ENTRIES subsets before building anything.
    """
    if not 1 <= ell < G.r:
        raise ValidationError(f"need 1 <= ell < r, got ell={ell}, r={G.r}")
    size = binom(G.n, ell)
    refuse_above(size, f"the degree table over C({G.n}, {ell})")
    ranks = tuple_ranks(G.edge_array.T, ell, G.n)
    counts = sum(np.bincount(rank, minlength=size) for _, rank in ranks)
    counts.flags.writeable = False
    return DegreeTable(G.n, G.r, ell, counts)


def min_degree(G: Hypergraph, ell: int) -> int:
    """The minimum l-degree over all l-subsets of V(G)."""
    degrees = degree_table(G, ell).degrees
    if not len(degrees):  # n < l
        raise ValidationError(f"need at least ell={ell} vertices, got n={G.n}")
    return int(degrees.min())


def kth_min_degree(table: DegreeTable, exceptions: int) -> int:
    """Largest d such that all but at most `exceptions` subsets have degree >= d.

    That is the (exceptions+1)-th smallest table entry; when every subset
    may be an exception (exceptions >= table size) the value is capped at
    the maximum possible degree C(n - l, r - l).
    """
    if exceptions >= len(table.degrees):
        return table.max_possible
    return int(np.partition(table.degrees, exceptions)[exceptions])


def eps_exceptions(table: DegreeTable, eps) -> int:
    """floor(eps * C(n, l)): how many subsets the eps-relaxed minimum may skip."""
    eps = to_fraction(eps, "eps")
    if eps < 0:
        raise ValidationError(f"eps must be nonnegative, got {eps}")
    return math.floor(eps * len(table.degrees))


def table_poor_sets(table: DegreeTable, p) -> PoorSetReport:
    """Classify the table's l-subsets as poor (deg < p * C(n-l, r-l))."""
    p = to_probability(p)
    poor = tuple(np.flatnonzero(table.poor(p)).tolist())
    return PoorSetReport(
        p=p, ell=table.ell, threshold=p * table.max_possible, poor=poor, total=len(table.degrees)
    )


def eps_min_degree(G: Hypergraph, ell: int, eps) -> int:
    """The epsilon-relaxed minimum l-degree: floor(eps * C(n, l)) exceptions allowed."""
    table = degree_table(G, ell)
    return kth_min_degree(table, eps_exceptions(table, eps))


def poor_sets(G: Hypergraph, ell: int, p) -> PoorSetReport:
    """Classify l-subsets as poor (deg < p * C(n-l, r-l)) at threshold p."""
    return table_poor_sets(degree_table(G, ell), p)
