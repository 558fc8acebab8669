"""Immutable r-uniform hypergraphs on vertex set [0, n).

A Hypergraph keeps its edges in one read-only (E x r) integer array,
`edge_array`: each row is an edge, its vertices strictly increasing, and the
rows run in strictly increasing colex order.  Its dtype is the smallest
unsigned type that holds n (object past 64 bits), so the array is sized by the
edges alone, and == compares it.  `edges` and the frozenset behind has_edge
are built from it on first use.  The constructor and both parsers check each
edge with _canonical_edge and order the rows with _canonical_rows; producers
of canonical rows (the generators and induced) use the trusted from_rows.

.hg text format:
    line 1:             "<r> <n>"
    following lines:    r space-separated vertex indices (one edge per line)
    lines starting with '#' are comments; blank lines are ignored
Canonical output sorts vertices within each edge and orders edges by colex
rank.  UTF-8, LF line endings.

parse reads text the way load reads a file: it encodes the text as UTF-8
and takes the one bytes path, which turns CR and CRLF line ends into LF and
reads ASCII digit fields and whitespace in bulk with numpy: one scan of the
non-digit bytes finds every field and line end, and edges already in colex
order, as dump writes them, are not sorted again.  Any other UTF-8 text, and
any text with an error, goes through the line parser, which reports the
first bad line.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .combinatorics import colex_order
from .errors import FormatError, ValidationError


def vertex_indices(vertices: Iterable[int], what: str) -> list[int]:
    """The vertices read with operator.index: 2.5 or "2" is a ValidationError."""
    vertices = tuple(vertices)
    try:
        return list(map(operator.index, vertices))
    except TypeError:
        raise ValidationError(f"{what} {vertices} has a vertex that is not an integer") from None


def _canonical_edge(edge: Iterable[int], n: int, r: int) -> tuple[int, ...]:
    e = tuple(sorted(vertex_indices(edge, "edge")))
    if len(e) != r:
        raise ValidationError(f"edge {tuple(edge)} has arity {len(e)}, expected {r}")
    if len(set(e)) != r:
        raise ValidationError(f"edge {tuple(edge)} has a repeated vertex")
    if e[0] < 0 or e[-1] >= n:
        raise ValidationError(f"edge {e} has a vertex outside [0, {n})")
    return e


def _canonical_rows(cols: np.ndarray) -> np.ndarray | None:
    """The (E x r) edge array of the edges in cols (cols[i] the i-th vertex of
    each, in any order), or None if one repeats a vertex.  May sort cols."""
    if (cols[1:] <= cols[:-1]).any():  # an edge out of order, or repeating a vertex
        cols.sort(axis=0)
        if (cols[1:] == cols[:-1]).any():
            return None
    if cols.shape[1] > 1:  # fewer edges are in order, and the loop below runs once a column
        # the edges rise strictly in colex order where the last column that differs rises
        rising = cols[0, :-1] < cols[0, 1:]
        for col in cols[1:]:
            rising = (col[:-1] < col[1:]) | (col[:-1] == col[1:]) & rising
        if not rising.all():
            order, first = colex_order(cols)
            cols = np.take(cols, order[first], axis=1)
    return cols.T


class Hypergraph:
    """An r-uniform hypergraph on n labeled vertices, immutable after build."""

    def __init__(self, n: int, r: int, edge_list: Iterable[Iterable[int]] = ()):
        _check_shape(n, r)
        rows = np.array([_canonical_edge(e, n, r) for e in edge_list], np.min_scalar_type(n))
        self._set_rows(n, r, _canonical_rows(rows.reshape(-1, r).T))

    @classmethod
    def from_rows(cls, n: int, r: int, rows: np.ndarray) -> "Hypergraph":
        """Trusted constructor: rows is an (E x r) array of vertices of [0, n),
        each row strictly increasing and the rows strictly increasing in colex
        order.  Only n and r are checked."""
        _check_shape(n, r)
        G = cls.__new__(cls)
        G._set_rows(n, r, rows.astype(np.min_scalar_type(n), copy=False))
        return G

    def _set_rows(self, n: int, r: int, rows: np.ndarray) -> None:
        rows.flags.writeable = False
        self.n = n
        self.r = r
        self.edge_array = rows

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @functools.cached_property
    def _edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)  # r: its width

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={self.edge_count})"

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self._edge_set

    def induced(self, X: Iterable[int]) -> tuple["Hypergraph", "InducedMap"]:
        """Induced subgraph on X, relabeled order-preservingly to [0, |X|)."""
        xs = sorted(set(vertex_indices(X, "induced set")))
        if xs and (xs[0] < 0 or xs[-1] >= self.n):
            raise ValidationError(f"induced set {xs} has a vertex outside [0, {self.n})")
        rows = self.edge_array
        verts = np.array(xs, dtype=rows.dtype)
        # a vertex of X is relabeled by its position in xs, which keeps the
        # order inside rows and the colex order between them
        inside = functools.reduce(operator.and_, np.isin(rows, verts, kind="sort").T)
        sub = np.searchsorted(verts, rows[inside])
        return Hypergraph.from_rows(len(xs), self.r, sub), InducedMap(tuple(xs))


# the longest axis numpy allows, so the most columns an edge array can have
_MAX_ARITY = np.iinfo(np.intp).max


def _check_shape(n: int, r: int) -> None:
    if n < 0:
        raise ValidationError(f"vertex count must be nonnegative, got {n}")
    if r < 1:
        raise ValidationError(f"uniformity must be at least 1, got {r}")
    if r > _MAX_ARITY:
        raise ValidationError(f"uniformity must be at most {_MAX_ARITY}, got {r}")


@dataclass(frozen=True)
class InducedMap:
    """Order-preserving relabeling of an induced subgraph back to its parent."""

    parent_vertices: tuple[int, ...]

    def to_parent(self, v: int) -> int:
        return self.parent_vertices[v]


def build(n: int, r: int, edge_list: Iterable[Iterable[int]]) -> Hypergraph:
    """Construct a hypergraph, deduplicating and canonicalizing edges."""
    return Hypergraph(n, r, edge_list)


# longest field the bulk parser reads: 18 digits stay below 2^63
_BULK_DIGITS = 18


def _parse_bulk(data: bytes) -> Hypergraph | None:
    """Parse .hg bytes of ASCII digit fields in bulk; None where the line
    parser must decide, for any other text and for every error.

    Holds only arrays of the text's size, whatever n the header names.
    """
    if not data.endswith(b"\n"):  # so that a newline follows every field
        data += b"\n"
    # the header: the first line that is neither blank nor a comment
    start = 0
    while True:
        end = data.find(b"\n", start)
        if end < 0:
            return None
        header = data[start:end].strip()
        if header and not header.startswith(b"#"):
            break
        start = end + 1
    fields = header.split()
    if len(fields) != 2 or not (fields[0].isdigit() and fields[1].isdigit()):
        return None
    try:
        r, n = int(fields[0]), int(fields[1])
    except ValueError:  # past int()'s digit limit
        return None
    if not 1 <= r <= _MAX_ARITY:
        return None
    chars = np.frombuffer(data, dtype=np.uint8, offset=end)  # from the header's newline
    # byte p less 48, below 10 exactly at the digits, is digits[p + _BULK_DIGITS]:
    # the zeros before it let the decode below index back past the first field
    digits = np.zeros(_BULK_DIGITS + len(chars), dtype=np.uint8)
    gaps = np.flatnonzero(np.subtract(chars, 48, out=digits[_BULK_DIGITS:]) >= 10)  # non-digits
    space = chars[gaps]
    newline = space == 10
    if not (newline | (space == 32) | (space == 9) | (space == 13)).all():
        return None
    steps = np.diff(gaps)  # one more than the digits between two gaps
    ends, breaks = gaps[1:], newline[1:]
    if not (steps > 1).all():  # runs of gaps: a field ends at the first of each run
        at = np.flatnonzero(steps > 1) + 1
        ends, steps, breaks = gaps[at], steps[at - 1], np.logical_or.reduceat(newline, at)
    # a newline after every r-th field, and only there
    if len(ends) % r or np.count_nonzero(breaks) * r != len(ends) or not breaks[r - 1::r].all():
        return None
    if not len(ends):  # no field to decode
        return Hypergraph(n, r)
    longest = int(steps.max()) - 1
    if longest > _BULK_DIGITS:
        return None
    # each field from its end, a place a step, in a dtype that holds 10^longest
    values = np.zeros(len(ends), dtype=np.min_scalar_type(10**longest))
    for i in reversed(range(longest)):  # the digit of 10^i lies i + 1 bytes before the end
        digit = digits[_BULK_DIGITS - 1 - i:].take(ends)
        values = values * 10 + (np.where(steps > i + 1, digit, 0) if i else digit)
    if int(values.max()) >= n:
        return None
    rows = _canonical_rows(values.reshape(-1, r).T.astype(np.min_scalar_type(n), order="C"))
    return None if rows is None else Hypergraph.from_rows(n, r, rows)


def _parse_lines(text: str) -> Hypergraph:
    """Parse .hg text line by line, raising FormatError at the first bad line."""
    edges = []
    n = r = None
    lines = text.split("\n")
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if r is None:
            if len(fields) != 2:
                raise FormatError(f"header must be '<r> <n>', got {line!r}", line=idx)
            try:
                r, n = int(fields[0]), int(fields[1])
            except ValueError:
                raise FormatError(f"header must be two integers, got {line!r}", line=idx)
            if r < 1 or n < 0:
                raise FormatError(f"header requires r >= 1 and n >= 0, got r={r}, n={n}", line=idx)
            continue
        try:
            edges.append(_canonical_edge([int(f) for f in fields], n, r))
        except ValidationError as exc:
            raise FormatError(str(exc), line=idx) from None
        except ValueError:  # from int()
            raise FormatError(f"edge line must be integers, got {line!r}", line=idx)
    if r is None:
        raise FormatError("missing '<r> <n>' header", line=max(len(lines), 1))
    return Hypergraph(n, r, edges)


def _parse_bytes(data: bytes) -> Hypergraph:
    """Parse .hg bytes, for load and parse alike: CR and CRLF become LF,
    ASCII goes to the bulk reader, and text it declines, once checked to be
    UTF-8, to the line parser."""
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    G = _parse_bulk(data) if data.isascii() else None
    if G is not None:
        return G
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"text is not UTF-8: byte 0x{data[exc.start]:02x} cannot be decoded",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None
    return _parse_lines(text)


def parse(text: str) -> Hypergraph:
    """Parse .hg text as load reads its UTF-8 bytes.  Raises FormatError with
    a line number on bad input; a lone surrogate is not UTF-8."""
    return _parse_bytes(text.encode("utf-8", "surrogatepass"))


def serialize(G: Hypergraph) -> str:
    """Canonical .hg text: parse(serialize(G)) == G and the text is a fixpoint.

    Each vertex is a row of a digit matrix, the place of 10^i in column
    width - 1 - i and its separator, space or newline, in the last column;
    the text is the places each value reaches and every separator.  The
    powers of 10 take the dtype of the edge array, which holds them, as it
    holds the largest value.
    """
    vals = G.edge_array.reshape(-1, 1)
    width = len(str(vals.max())) if vals.size else 1
    powers = np.array([10**i for i in reversed(range(width))], dtype=vals.dtype)
    text = np.full((len(vals), width + 1), ord(" "), dtype=np.uint8)
    text[:, :-1] = vals // powers % 10 + ord("0")
    text[G.r - 1::G.r, -1] = ord("\n")
    keep = np.hstack([vals >= powers[:-1], np.ones((len(vals), 2), dtype=bool)])
    return f"{G.r} {G.n}\n" + text[keep].tobytes().decode("ascii")


def load(path) -> Hypergraph:
    """Read a .hg file.  Lines may end in LF, CRLF or CR; text that is not
    UTF-8 raises FormatError with the line of the first bad byte."""
    with open(path, "rb") as fh:
        return _parse_bytes(fh.read())


def dump(G: Hypergraph, path, header_comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment:
            for line in header_comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(serialize(G))
