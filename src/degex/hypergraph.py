"""Immutable r-uniform hypergraphs on vertex set [0, n).

Edges are strictly sorted r-tuples of 0-based vertex indices, kept in colex
order, with a frozenset of the same tuples for O(1) membership tests.

.hg text format:
    line 1:             "<r> <n>"
    following lines:    r space-separated vertex indices (one edge per line)
    lines starting with '#' are comments; blank lines are ignored
Canonical output sorts vertices within each edge and orders edges by colex
rank.  UTF-8, LF line endings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FormatError, ValidationError


def _canonical_edge(edge: Iterable[int], n: int, r: int) -> tuple[int, ...]:
    e = tuple(sorted(edge))
    if len(e) != r:
        raise ValidationError(f"edge {tuple(edge)} has arity {len(e)}, expected {r}")
    if len(set(e)) != r:
        raise ValidationError(f"edge {tuple(edge)} has a repeated vertex")
    if e and (e[0] < 0 or e[-1] >= n):
        raise ValidationError(f"edge {e} has a vertex outside [0, {n})")
    return e


class Hypergraph:
    """An r-uniform hypergraph on n labeled vertices, immutable after build."""

    def __init__(self, n: int, r: int, edge_list: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise ValidationError(f"vertex count must be nonnegative, got {n}")
        if r < 1:
            raise ValidationError(f"uniformity must be at least 1, got {r}")
        seen = {_canonical_edge(e, n, r) for e in edge_list}
        self.n = n
        self.r = r
        # canonical order = colex order = lexicographic on reversed tuples
        self.edges: tuple[tuple[int, ...], ...] = tuple(
            sorted(seen, key=lambda e: e[::-1])
        )
        self._edge_set = frozenset(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (self.n, self.r, self._edge_set) == (other.n, other.r, other._edge_set)

    def __hash__(self) -> int:
        return hash((self.n, self.r, self._edge_set))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={self.edge_count})"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self._edge_set

    def induced(self, X: Iterable[int]) -> tuple["Hypergraph", "InducedMap"]:
        """Induced subgraph on X, relabeled order-preservingly to [0, |X|)."""
        xs = sorted(set(X))
        if xs and (xs[0] < 0 or xs[-1] >= self.n):
            raise ValidationError(f"induced set {xs} has a vertex outside [0, {self.n})")
        relabel = {v: i for i, v in enumerate(xs)}
        xset = set(xs)
        sub_edges = [
            tuple(relabel[v] for v in e)
            for e in self.edges
            if xset.issuperset(e)
        ]
        return Hypergraph(len(xs), self.r, sub_edges), InducedMap(tuple(xs))


@dataclass(frozen=True)
class InducedMap:
    """Order-preserving relabeling of an induced subgraph back to its parent."""

    parent_vertices: tuple[int, ...]

    def to_parent(self, v: int) -> int:
        return self.parent_vertices[v]


def build(n: int, r: int, edge_list: Iterable[Iterable[int]]) -> Hypergraph:
    """Construct a hypergraph, deduplicating and canonicalizing edges."""
    return Hypergraph(n, r, edge_list)


def parse(text: str) -> Hypergraph:
    """Parse .hg text. Raises FormatError with a line number on bad input."""
    header = None
    edges = []
    n = r = 0
    lines = text.split("\n")
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise FormatError(f"header must be '<r> <n>', got {line!r}", line=idx)
            try:
                r, n = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError(f"header must be two integers, got {line!r}", line=idx)
            if r < 1 or n < 0:
                raise FormatError(f"header requires r >= 1 and n >= 0, got r={r}, n={n}", line=idx)
            header = (r, n)
            continue
        try:
            verts = [int(f) for f in fields]
        except ValueError:
            raise FormatError(f"edge line must be integers, got {line!r}", line=idx)
        if len(verts) != r:
            raise FormatError(f"edge has {len(verts)} vertices, expected r={r}", line=idx)
        if len(set(verts)) != r:
            raise FormatError(f"edge {verts} repeats a vertex", line=idx)
        if min(verts) < 0 or max(verts) >= n:
            raise FormatError(f"edge {verts} has a vertex outside [0, {n})", line=idx)
        edges.append(verts)
    if header is None:
        raise FormatError("missing '<r> <n>' header", line=max(len(lines), 1))
    return Hypergraph(n, r, edges)


def serialize(G: Hypergraph) -> str:
    """Canonical .hg text: parse(serialize(G)) == G and the text is a fixpoint."""
    out = [f"{G.r} {G.n}"]
    out.extend(" ".join(str(v) for v in e) for e in G.edges)
    return "\n".join(out) + "\n"


def load(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump(G: Hypergraph, path, header_comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(serialize(G))
