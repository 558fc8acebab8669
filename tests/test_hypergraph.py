import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degex.combinatorics import colex_rank
from degex.errors import FormatError, ValidationError
from degex.generators import complete, erdos_renyi
from degex.hypergraph import Hypergraph, _parse_bulk, _parse_lines, build, dump, load, parse, serialize
from degex.jsonio import dumps


def brute_induced_edge_count(G, X):
    xset = set(X)
    return sum(1 for e in G.edges if xset.issuperset(e))


def percent_serialize(G):
    """.hg text by one % template over a tuple of every vertex, the reference
    for serialize's digit matrix."""
    line = " ".join(["%d"] * G.r) + "\n"
    return f"{G.r} {G.n}\n" + (line * G.edge_count) % tuple(G.edge_array.ravel().tolist())


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    r = draw(st.integers(1, 4))
    possible = list(itertools.combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(possible), max_size=25)) if possible else []
    return Hypergraph(n, r, edges)


class TestBuild:
    def test_empty(self):
        G = build(5, 3, [])
        assert (G.n, G.r, G.edge_count) == (5, 3, 0)

    def test_complete_k4(self):
        G = build(4, 3, itertools.combinations(range(4), 3))
        assert G.edge_count == 4

    def test_dedupe_and_sort(self):
        G = build(5, 3, [(0, 1, 2), (2, 1, 0)])
        assert G.edge_count == 1
        assert G.edges == ((0, 1, 2),)

    def test_repeated_vertex_named(self):
        with pytest.raises(ValidationError, match=r"1, 1, 2"):
            build(5, 3, [(1, 1, 2)])

    def test_out_of_range_named(self):
        with pytest.raises(ValidationError, match=r"\(0, 1, 7\)"):
            build(5, 3, [(0, 1, 7)])

    def test_wrong_arity_named(self):
        with pytest.raises(ValidationError, match="arity"):
            build(5, 3, [(0, 1)])

    def test_arity_past_the_array_limit_refused(self):
        # an (E x r) edge array cannot have more than 2^63 - 1 columns
        for make in (lambda r: build(5, r, []), lambda r: complete(5, r),
                     lambda r: erdos_renyi(5, r, "1/2", seed=1)):
            with pytest.raises(ValidationError, match="uniformity must be at most"):
                make(10**20)
        with pytest.raises(ValidationError, match="uniformity must be at most"):
            parse(f"{10**20} 5\n")

    def test_edges_in_colex_order(self):
        G = build(5, 3, [(2, 3, 4), (0, 1, 2), (0, 1, 4)])
        ranks = [colex_rank(e).rank for e in G.edges]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("bad", [2.5, "2", None, np.float64(2)])
    def test_non_integer_vertex_named(self, bad):
        message = f"edge {(0, 1, bad)} has a vertex that is not an integer"
        with pytest.raises(ValidationError, match=re.escape(message)):
            build(5, 3, [(0, 1, bad)])

    def test_integer_types_read_as_ints(self):
        G = build(5, 3, [(np.uint8(4), np.int64(0), True)])
        assert G.edges == ((0, 1, 4),)
        assert all(type(v) is int for v in G.edges[0])

    def test_numpy_vertices_past_64_bits_read_as_ints(self):
        n = 2**64 + 5
        G = build(n, 3, [np.array([3, 0, 1]), (np.uint64(2**64 - 1), 7, n - 1)])
        assert G.edge_array.dtype == object
        assert all(type(v) is int for e in G.edges for v in e)
        assert dumps(G.edges) == dumps([[0, 1, 3], [7, 2**64 - 1, n - 1]])

    @pytest.mark.parametrize("make", [
        lambda r: Hypergraph(5, r), lambda r: build(5, r, []),
        lambda r: parse(f"{r} 5\n"), lambda r: _parse_lines(f"{r} 5\n"),
    ])
    def test_edgeless_graph_with_huge_arity_is_quick(self, make):
        # canonical order is never looked for in fewer than two edges, so no
        # pass runs once per column
        start = time.perf_counter()
        G = make(10**7)
        assert time.perf_counter() - start < 1.0
        assert (G.n, G.r, G.edge_count) == (5, 10**7, 0)

    def test_backends_agree(self):
        G = erdos_renyi(7, 3, "1/2", seed=5)
        edges = set(G.edges)
        for e in itertools.combinations(range(7), 3):
            assert G.has_edge(e) == (e in edges)
            assert G.has_edge(e[::-1]) == (e in edges)


class TestInduced:
    def test_identity(self):
        G = build(5, 3, [(0, 1, 2), (1, 2, 3)])
        H, m = G.induced(range(5))
        assert H == G
        assert m.parent_vertices == (0, 1, 2, 3, 4)

    def test_complete_stays_complete(self):
        G = complete(5, 3)
        for X in itertools.combinations(range(5), 4):
            H, _ = G.induced(X)
            assert H == complete(4, 3)

    def test_filter_example(self):
        G = build(5, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
        H, m = G.induced({0, 1, 2, 3})
        assert H.edge_count == 2
        assert H.edges == ((0, 1, 2), (0, 1, 3))
        assert m.to_parent(3) == 3

    def test_relabeling_order_preserving(self):
        G = build(6, 3, [(1, 3, 5)])
        H, m = G.induced({1, 3, 5})
        assert H.edges == ((0, 1, 2),)
        assert m.parent_vertices == (1, 3, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            build(4, 3, []).induced({0, 9})

    @pytest.mark.parametrize("bad", [2.7, "2", None, np.float64(2)])
    def test_non_integer_vertex_named(self, bad):
        # 2.7 used to be compared as a number: one edge, and 2.7 in parent_vertices;
        # the message names every vertex of an iterator too
        message = f"induced set {(0, 1, bad)} has a vertex that is not an integer"
        with pytest.raises(ValidationError, match=re.escape(message)):
            complete(5, 3).induced(iter([0, 1, bad]))

    def test_integer_types_read_as_ints(self):
        H, m = complete(5, 3).induced([np.uint8(4), np.int64(0), True])
        assert H == complete(3, 3)
        assert m.parent_vertices == (0, 1, 4)
        assert all(type(v) is int for v in m.parent_vertices)

    def test_vertex_count(self):
        G = erdos_renyi(8, 3, "1/2", seed=1)
        H, _ = G.induced({0, 2, 4, 6})
        assert H.n == 4

    def test_matches_brute_filter_all_subsets(self):
        G = erdos_renyi(8, 3, "3/5", seed=9)
        for mask in range(1 << 8):
            X = [v for v in range(8) if mask >> v & 1]
            H, _ = G.induced(X)
            assert H.edge_count == brute_induced_edge_count(G, X)
            assert H.edge_count <= G.edge_count

    @given(small_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_induced_edge_count_property(self, G, data):
        X = data.draw(st.sets(st.integers(0, G.n - 1) if G.n else st.nothing()))
        H, _ = G.induced(X)
        assert H.n == len(X)
        assert H.edge_count == brute_induced_edge_count(G, X)


class TestTextFormat:
    def test_parse_minimal(self):
        G = parse("3 4\n0 1 2\n")
        assert (G.n, G.r, G.edge_count) == (4, 3, 1)

    def test_serialize_empty(self):
        assert serialize(Hypergraph(5, 3)) == "3 5\n"

    def test_comments_and_blank_lines(self):
        G = parse("# a comment\n\n3 5\n# another\n2 1 0\n\n")
        assert G.edges == ((0, 1, 2),)

    def test_unsorted_input_canonicalized(self):
        a = parse("3 5\n4 2 0\n1 0 2\n")
        b = parse("3 5\n0 1 2\n0 2 4\n")
        assert serialize(a) == serialize(b)

    def test_roundtrip_random_graph(self):
        G = erdos_renyi(12, 3, "1/2", seed=3)
        assert G.edge_count > 80  # sanity: the instance is nontrivial
        text = serialize(G)
        assert parse(text) == G
        assert serialize(parse(text)) == text

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, G):
        text = serialize(G)
        assert text == percent_serialize(G)
        assert parse(text) == G
        assert serialize(parse(text)) == text

    def test_missing_header(self):
        with pytest.raises(FormatError, match="header"):
            parse("# nothing here\n")

    def test_malformed_header_line_numbered(self):
        with pytest.raises(FormatError, match="line 2"):
            parse("# c\n3 4 5\n")

    def test_wrong_arity_line_numbered(self):
        with pytest.raises(FormatError, match="line 3"):
            parse("3 5\n0 1 2\n0 1\n")

    def test_vertex_out_of_range_line_numbered(self):
        with pytest.raises(FormatError, match="line 2"):
            parse("3 4\n0 1 9\n")

    def test_non_integer_edge(self):
        with pytest.raises(FormatError, match="integers"):
            parse("3 4\n0 1 x\n")

    def test_huge_header_parses_in_memory_of_the_text(self):
        # nothing is sized by the 10^9 vertices the header names
        tracemalloc.start()
        try:
            G = parse("3 1000000000\n2 0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.edges == ((0, 1, 2),) and G.n == 10**9
        assert peak < 1 << 20

    @pytest.mark.parametrize("G", [erdos_renyi(n, 3, "3/10", seed=n) for n in (10, 44, 60)]
                             + [erdos_renyi(300, 2, "1/2", seed=3)], ids=repr)
    def test_serialize_matches_the_percent_formatter(self, G):
        # the digit-matrix writer against one % template over every vertex
        assert serialize(G) == percent_serialize(G)
        assert serialize(parse(serialize(G))) == serialize(G)

    @pytest.mark.parametrize("label", [0, 9, 10, 99, 100, 255, 256, 2**63, 2**64 - 1, 2**64 + 4])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_serialize_at_every_digit_count_and_dtype(self, label, r):
        # uint8 to uint64 edge arrays and, past 2^64, Python ints
        n = label + r + 1
        G = Hypergraph(n, r, [range(r), range(label, label + r), range(n - r, n)])
        assert (G.edge_array.dtype == object) == (n > 2**64)
        assert serialize(G) == percent_serialize(G)
        assert parse(serialize(G)) == G

    def test_header_past_int64(self):
        n = 10**30
        assert parse(f"3 {n}\n").edge_count == 0
        G = parse(f"3 {n}\n{n - 1} 0 1\n4 5 3\n")
        assert G.edges == ((3, 4, 5), (0, 1, n - 1))
        assert parse(serialize(G)) == G


# pieces of .hg text: fields the bulk parser reads, fields only int() reads,
# and fields nothing reads
FIELDS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["007", "10", "+3", "1_0", "\u0663", "-1", "x", "99999999999999999999"]),
)
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t"])
ENDINGS = st.sampled_from(["\n", "\r\n"])
MARGINS = st.sampled_from(["", "", "", " ", "\t", "  "])


@st.composite
def hg_texts(draw):
    r = draw(st.integers(1, 4))
    n = draw(st.integers(0, 9))
    lines = draw(st.lists(st.sampled_from(["", "# comment", "  ", "\t"]), max_size=2))
    header = [f"{r} {n}", f"{r}\t{n} ", f"+{r} {n}", f"{r} {n} 1"]
    lines.append(draw(st.sampled_from(header[:2] * 4 + header[2:])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "# c", " \t", "  ", "\t"])))
            continue
        if kind < 16 and n >= r:  # an edge, its vertices in any order
            edge = draw(st.sets(st.integers(0, n - 1), min_size=r, max_size=r))
            fields = draw(st.permutations(sorted(edge)))
        elif kind < 18:  # maybe repeating a vertex or leaving [0, n)
            fields = draw(st.lists(st.integers(0, n), min_size=r, max_size=r))
        else:
            fields = draw(st.lists(FIELDS, min_size=max(r - 1, 0), max_size=r + 1))
        lead, trail = draw(MARGINS), draw(MARGINS)
        lines.append(lead + draw(SEPARATORS).join(map(str, fields)) + trail)
    ending = draw(ENDINGS)
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def outcome(parser, text):
    try:
        G = parser(text)
    except FormatError as exc:
        return str(exc)
    return G.n, G.r, G.edges, G.edge_array.dtype


class TestBulkParse:
    @given(hg_texts())
    @settings(max_examples=400, deadline=None)
    def test_bulk_and_line_parsers_agree(self, text):
        expected = outcome(_parse_lines, text)
        assert outcome(parse, text) == expected
        bulk = _parse_bulk(text.encode())
        if bulk is not None:
            assert outcome(lambda _: bulk, text) == expected

    @pytest.mark.parametrize("text", [
        "3 5\n0 1 2\n2 1 0\n4 3 1\n",  # duplicate and permuted edges
        "3 5\r\n0\t1 2\r\n\r\n3 4 0\r\n",  # tabs, CRLF and a blank line
        "# c\n\n 3 5 \n0 1 2",  # comments before the header, no final LF
        "3 5\n",  # header only
        "3 5",
    ])
    def test_bulk_path_reads_plain_text(self, text):
        assert _parse_bulk(text.encode()) is not None
        assert outcome(parse, text) == outcome(_parse_lines, text)

    @pytest.mark.parametrize("text", [
        "3 5\n0 1\n2 3 4 1\n",  # field counts that cancel out across lines
        "3 5\n0 1 2 3\n4 0\n",
        "3 5\n0 1 2 3 4 0\n",  # two edges on one line
        "3 5\n0 1\n2\n",  # a line end after every r-th field, and one more
        "3 5\n0 1 1\n",
        "3 5\n0 1 5\n",
        "3 5\n0 1 2\n# c\n+3 1 2\n",
        "3 15\n1_0 1 2\n",
        "3 5\n\u0663 1 2\n",
        "3 5\n0 1 99999999999999999999\n",
        "\n\n",
    ])
    def test_line_parser_decides_the_rest(self, text):
        assert _parse_bulk(text.encode()) is None
        assert outcome(parse, text) == outcome(_parse_lines, text)

    def test_loose_whitespace_stays_on_the_bulk_path(self):
        # doubled spaces, tabs, margins and blank lines: gaps of more than one byte
        G = erdos_renyi(60, 3, "3/10", seed=5)
        assert G.edge_count > 10**4
        loose = ["  ", "\t", " \t "]
        lines = [
            loose[i % 3] * (i % 2) + loose[i % 3].join(map(str, e)) + " " * (i % 4) + "\n" * (1 + i % 5 // 4)
            for i, e in enumerate(G.edges)
        ]
        text = f"{G.r} {G.n}\n\n" + "".join(lines)
        bulk = _parse_bulk(text.encode())
        assert bulk is not None
        assert outcome(lambda _: bulk, text) == outcome(parse, serialize(G)) == outcome(_parse_lines, text)

    def test_header_past_the_int_digit_limit_is_a_format_error(self):
        text = "3 " + "1" * 5000 + "\n"
        assert _parse_bulk(text.encode()) is None
        with pytest.raises(FormatError, match="two integers"):
            parse(text)


class TestLoad:
    @pytest.mark.parametrize("data", [
        b"3 5\n0 1 2\n2 3 4\n",
        b"3 5\r\n0 1 2\r\n2 3 4",
        b"3 5\r0 1 2\r\r2 3 4\r",  # CR alone ends a line, as in text mode
        b"# caf\xc3\xa9\n3 5\n0 1 2\n2 3 4\n",  # UTF-8 outside ASCII, in a comment
    ])
    def test_reads_what_text_mode_reads(self, tmp_path, data):
        path = tmp_path / "g.hg"
        path.write_bytes(data)
        with open(path, encoding="utf-8") as fh:
            expected = parse(fh.read())
        assert load(path) == expected == build(5, 3, [(0, 1, 2), (2, 3, 4)])
        assert parse(data.decode("utf-8")) == expected  # the line ends as written

    @pytest.mark.parametrize("text, line", [
        ("3 5\n0 1 \ud800\n", 2),
        ("# \udfff\n3 5\n0 1 2\n", 1),  # in a comment, before edges the bulk reader takes
        ("3 5\r0 1 2\r# \ud800\r", 3),
    ])
    def test_parse_of_a_lone_surrogate_is_format_error_at_its_line(self, text, line):
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            parse(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("data, line", [
        (b"3 5\n0 1 \xff\n", 2),
        (b"\xfe3 5\n", 1),
        (b"3 5\r\n0 1 2\r\n# caf\xe9\r\n", 3),
        (b"# caf\xe9\n3 5\n0 1 2\n", 1),  # before a header and edges the bulk reader takes
    ])
    def test_non_utf8_is_format_error_at_its_line(self, tmp_path, data, line):
        path = tmp_path / "bad.hg"
        path.write_bytes(data)
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            load(path)
        assert exc.value.line == line
        bad = next(b for b in data if b >= 0x80)
        assert str(exc.value) == f"line {line}: text is not UTF-8: byte 0x{bad:02x} cannot be decoded"

    def test_peak_memory_is_a_few_bytes_per_input_byte(self, tmp_path):
        path = tmp_path / "g.hg"
        dump(erdos_renyi(60, 3, "3/10", seed=1), path)
        size = path.stat().st_size
        assert size > 80_000
        tracemalloc.start()
        try:
            load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * size


class TestEquality:
    @pytest.mark.parametrize("n", [7, 2**64 + 5])
    def test_every_producer_gives_equal_graphs(self, tmp_path, n):
        edges = [(n - 1, 2, 0), (0, 1, 2), (3, 1, 0), (2, 1, 0)]
        G = build(n, 3, edges)
        path = tmp_path / "g.hg"
        dump(G, path)
        rows = np.array([[0, 1, 2], [0, 1, 3], [0, 2, n - 1]], dtype=np.int64 if n < 2**63 else object)
        same = [parse(serialize(G)), _parse_lines(serialize(G)), load(path), Hypergraph.from_rows(n, 3, rows)]
        if n < 100:  # past 64 bits, no vertex set of all n vertices can be listed
            same.append(G.induced(range(n))[0])
        for H in same:
            assert H == G and G == H
            assert hash(H) == hash(G)
            assert H.edge_array.dtype == G.edge_array.dtype

    def test_vertex_count_or_arity_tells_graphs_apart(self):
        G = build(5, 3, [(0, 1, 2)])
        H = build(6, 3, [(0, 1, 2)])
        assert np.array_equal(G.edge_array, H.edge_array) and G != H
        assert Hypergraph(5, 2) != Hypergraph(5, 3)
        assert build(5, 3, [(0, 1, 2)]) != build(5, 3, [(0, 1, 3)])

    def test_other_types_are_unequal(self):
        G = build(5, 3, [(0, 1, 2)])
        assert (G == object()) is False
        assert G != G.edges


def reference_build(n, r, edge_list):
    """The constructor as it was before one numpy path canonicalized every
    edge list: a set of sorted tuples, sorted by their reversed tuples (colex
    order), read into the array with fromiter."""
    seen = set()
    for edge in edge_list:
        e = tuple(sorted(edge))
        if len(e) != r:
            raise ValidationError(f"edge {tuple(edge)} has arity {len(e)}, expected {r}")
        if len(set(e)) != r:
            raise ValidationError(f"edge {tuple(edge)} has a repeated vertex")
        if e and (e[0] < 0 or e[-1] >= n):
            raise ValidationError(f"edge {e} has a vertex outside [0, {n})")
        seen.add(e)
    ordered = sorted(seen, key=lambda e: e[::-1])
    flat = itertools.chain.from_iterable(ordered)
    rows = np.fromiter(flat, np.min_scalar_type(n), len(ordered) * r).reshape(len(ordered), r)
    return n, r, tuple(map(tuple, rows.tolist())), rows.dtype


@st.composite
def edge_lists(draw):
    """n, r and an edge list with duplicates, permuted copies, wrong arities,
    repeated vertices and vertices outside [0, n), as tuples, lists and numpy rows."""
    n = draw(st.sampled_from([0, 1, 3, 5, 8, 8, 8, 2**64 + 5, 2**64 + 5]))
    r = draw(st.integers(1, 4))
    inside = list(range(min(n, 8))) + ([2**63, 2**64 - 1, n - 2, n - 1] if n > 8 else [])
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if edges and kind < 5:  # an earlier edge again, permuted
            edge = draw(st.permutations(draw(st.sampled_from(edges))))
        elif kind < 17 and len(inside) >= r:
            edge = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(inside), min_size=r, max_size=r)))))
        else:  # maybe the wrong arity, a repeated vertex or a vertex outside [0, n)
            arity = draw(st.sampled_from([r, r - 1, r + 1]))
            edge = draw(st.lists(st.sampled_from(inside + [-1, n, n + 1]), min_size=arity, max_size=arity))
        form = draw(st.sampled_from(["tuple", "list", "array"]))
        if form == "array":
            fits = all(-(2**63) <= v < 2**63 for v in edge)
            edge = np.array(edge, dtype=np.int64 if fits else object)
        edges.append(tuple(edge) if form == "tuple" else edge)
    return n, r, edges


def build_outcome(make, n, r, edges):
    try:
        G = make(n, r, edges)
    except ValidationError as exc:
        # the old range message printed numpy vertices as np.int64(7); now they are ints
        return type(exc), re.sub(r"np\.\w+\((-?\d+)\)", r"\1", str(exc))
    return G if isinstance(G, tuple) else (G.n, G.r, G.edges, G.edge_array.dtype)


class TestCanonicalRows:
    @given(edge_lists())
    @settings(max_examples=400, deadline=None)
    def test_constructor_matches_the_reference(self, case):
        n, r, edges = case
        assert build_outcome(build, n, r, edges) == build_outcome(reference_build, n, r, edges)

    @pytest.mark.parametrize("text, line, edge", [
        ("3 5\n0 1 2\n0 1\n", 3, (0, 1)),
        ("3 5\n2 0 2\n", 2, (2, 0, 2)),
        ("3 5\n# c\n7 0 1\n", 3, (7, 0, 1)),
    ])
    def test_line_parser_reports_the_constructors_message(self, text, line, edge):
        with pytest.raises(ValidationError) as direct:
            build(5, 3, [edge])
        with pytest.raises(FormatError) as exc:
            parse(text)
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: {direct.value}"
