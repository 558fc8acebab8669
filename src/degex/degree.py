"""Degree statistics over l-subsets: tables, minima, epsilon-minima, poor sets.

deg(S) for an l-subset S is the number of edges containing S.  The table
over all C(n, l) subsets, indexed by colex rank and counted from the ranks
of the edges' l-subsets, is the substrate for the minimum l-degree, its
epsilon relaxation, and the poor/rich split at a density threshold p.  All
threshold comparisons are exact: p is a Fraction and degrees are ints, so
there is never a float tie at a boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinatorics import binom, colex_blocks, tuple_ranks
from .errors import LimitExceeded, ValidationError
from .hypergraph import Hypergraph
from .rational import to_fraction, to_probability

# Largest table degree_table builds: C(n, l) entries, each a Python int.
MAX_TABLE_ENTRIES = 10**7


@dataclass(frozen=True)
class DegreeTable:
    """deg(S) for every l-subset S of [0, n), indexed by colex rank."""

    n: int
    r: int
    ell: int
    degrees: tuple[int, ...]

    @property
    def max_possible(self) -> int:
        """Largest achievable degree, C(n - l, r - l)."""
        if self.n < self.ell:
            return 0
        return binom(self.n - self.ell, self.r - self.ell)

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for d in self.degrees:
            hist[d] = hist.get(d, 0) + 1
        return dict(sorted(hist.items()))

    def csv(self) -> str:
        """The table as CSV text: a rank,subset,degree header, then one line
        per l-subset in colex order, its vertices separated by spaces.

        The subsets come as vertex columns from colex_blocks; rank, vertices
        and degree are stacked into one array and formatted in one go.
        """
        header = "rank,subset,degree\n"
        size = len(self.degrees)
        if not size:
            return header
        ((_, cols),) = colex_blocks(self.n, self.ell, size)
        rows = np.empty((size, self.ell + 2), dtype=np.int64)
        rows[:, 0] = np.arange(size)
        rows[:, 1:-1] = cols.T
        rows[:, -1] = self.degrees
        line = "%d," + " ".join(["%d"] * self.ell) + ",%d\n"
        return header + (line * size) % tuple(rows.ravel().tolist())


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
        return Fraction(len(self.poor), self.total)

    @property
    def fraction_float(self) -> float:
        return float(self.fraction)


def _check_ell(G: Hypergraph, ell: int) -> None:
    if not 1 <= ell < G.r:
        raise ValidationError(f"need 1 <= ell < r, got ell={ell}, r={G.r}")


def degree_of(G: Hypergraph, S: Sequence[int]) -> int:
    """Number of edges of G containing the l-subset S (l < r)."""
    s = tuple(sorted(S))
    if len(set(s)) != len(s):
        raise ValidationError(f"subset {tuple(S)} repeats a vertex")
    if len(s) >= G.r:
        raise ValidationError(f"subset size {len(s)} must be below r={G.r}")
    if s and (s[0] < 0 or s[-1] >= G.n):
        raise ValidationError(f"subset {s} has a vertex outside [0, {G.n})")
    sset = set(s)
    return sum(1 for e in G.edges if sset.issubset(e))


def degree_table(G: Hypergraph, ell: int) -> DegreeTable:
    """All l-subset degrees at once: each edge bumps its C(r, l) sub-subsets.

    Column i of the edge array holds the i-th smallest vertex of every edge;
    each l-tuple of columns gives the colex ranks of one l-subset of every
    edge, and a bincount of those ranks adds them into the table.  Refuses a
    table of more than MAX_TABLE_ENTRIES subsets before building anything.
    """
    _check_ell(G, ell)
    size = binom(G.n, ell)
    if size > MAX_TABLE_ENTRIES:
        raise LimitExceeded(
            f"the degree table over C({G.n}, {ell}) = {size} subsets exceeds the "
            f"limit of {MAX_TABLE_ENTRIES} entries"
        )
    ranks = tuple_ranks(G.edge_array.T, ell, G.n)
    counts = sum(np.bincount(rank, minlength=size) for _, rank in ranks)
    return DegreeTable(G.n, G.r, ell, tuple(counts.tolist()))


def min_degree(G: Hypergraph, ell: int) -> int:
    """The minimum l-degree over all l-subsets of V(G)."""
    _check_ell(G, ell)
    if G.n < ell:
        raise ValidationError(f"need at least ell={ell} vertices, got n={G.n}")
    return min(degree_table(G, ell).degrees)


def kth_min_degree(table: DegreeTable, exceptions: int) -> int:
    """Largest d such that all but at most `exceptions` subsets have degree >= d.

    That is the (exceptions+1)-th smallest table entry; when every subset
    may be an exception (exceptions >= table size) the value is capped at
    the maximum possible degree C(n - l, r - l).
    """
    if exceptions >= len(table.degrees):
        return table.max_possible
    return sorted(table.degrees)[exceptions]


def eps_exceptions(table: DegreeTable, eps) -> int:
    """floor(eps * C(n, l)): how many subsets the eps-relaxed minimum may skip."""
    eps = to_fraction(eps, "eps")
    if eps < 0:
        raise ValidationError(f"eps must be nonnegative, got {eps}")
    return math.floor(eps * len(table.degrees))


def table_poor_sets(table: DegreeTable, p) -> PoorSetReport:
    """Classify the table's l-subsets as poor (deg < p * C(n-l, r-l))."""
    p = to_probability(p)
    threshold = p * table.max_possible
    poor = tuple(
        rank for rank, d in enumerate(table.degrees) if d < threshold
    )
    return PoorSetReport(
        p=p, ell=table.ell, threshold=threshold, poor=poor, total=len(table.degrees)
    )


def eps_min_degree(G: Hypergraph, ell: int, eps) -> int:
    """The epsilon-relaxed minimum l-degree: floor(eps * C(n, l)) exceptions allowed."""
    table = degree_table(G, ell)
    return kth_min_degree(table, eps_exceptions(table, eps))


def poor_sets(G: Hypergraph, ell: int, p) -> PoorSetReport:
    """Classify l-subsets as poor (deg < p * C(n-l, r-l)) at threshold p."""
    return table_poor_sets(degree_table(G, ell), p)
