import io
import re
import sys
import tracemalloc
from array import array
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from domcover import (
    CapacityError,
    DomainError,
    Graph,
    GraphParseError,
    as_vertex_set,
    blocks_and_cut_vertices,
    cover_number,
    cycle,
    is_block_graph,
    is_connected,
    is_dominating,
    is_efficient_dominating,
    is_p4_free,
    is_total_dominating,
    parse_graph,
    path,
    private_neighbors,
    random_tree,
    star,
    write_graph,
)
from domcover import graph as graph_module
from domcover.graph import first_unreachable


def graphs(max_n=8):
    """Arbitrary small graphs as (n, subset of all pairs)."""

    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
        return Graph(n, tuple(picked))

    return st.composite(build)()


PARSE_ERROR_CASES = [
    ("", "line 1: missing header"),
    ("3\n", "line 1: expected two fields"),
    ("a 2\n", "line 1: non-integer"),
    ("-1 0\n", "line 1: negative count"),
    ("3 1\n0 1\n1 2\n", "line 3: more than 1 edge lines"),
    ("3 2\n0 1\n", "expected 2 edge lines, found 1"),
    ("3 1\n0 3\n", "line 2: vertex id 3 out of range"),
    ("3 1\n1 1\n", "line 2: self-loop at vertex 1"),
    ("3 2\n0 1\n1 0\n", "line 3: duplicate edge (0, 1)"),
    ("2 1\n0 1 2\n", "line 2: expected two fields"),
    ("2 1\n0 x\n", "line 2: non-integer"),
    # the first bad line wins, whatever the kind of error
    ("3 3\n0 1\n1 0\n0 x\n", "line 3: duplicate edge (0, 1)"),
    ("3 1\n0 3\n0 1\n", "line 2: vertex id 3 out of range"),
    ("3 2\n1 1\n0 1 2\n", "line 2: self-loop at vertex 1"),
]


def reference_parse(text):
    """parse_graph as one loop over splitlines(), with its own check of the
    edges: the per-line form that the flat-array path must agree with."""
    lines = text.splitlines()
    n = m = -1  # until the header is read
    edges = []
    for lineno, raw in enumerate(lines, 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 2:
            raise _reference_edge_error(lines, n, edges) or GraphParseError(
                f"line {lineno}: expected two fields, got {len(parts)}"
            )
        try:
            edge = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise _reference_edge_error(lines, n, edges) or GraphParseError(
                f"line {lineno}: non-integer field"
            ) from None
        if m < 0:
            if edge[0] < 0 or edge[1] < 0:
                raise GraphParseError(f"line {lineno}: negative count in header")
            n, m = edge
        elif len(edges) == m:
            raise _reference_edge_error(lines, n, edges) or GraphParseError(
                f"line {lineno}: more than {m} edge lines"
            )
        else:
            edges.append(edge)
    if m < 0:
        raise GraphParseError("line 1: missing header")
    if len(edges) != m:
        raise _reference_edge_error(lines, n, edges) or GraphParseError(
            f"line {len(lines)}: expected {m} edge lines, found {len(edges)}"
        )
    error = _reference_edge_error(lines, n, edges)
    if error is not None:
        raise error
    return Graph(n, edges)


def _reference_edge_error(lines, n, edges):
    """The error for the first edge that is out of range, a self-loop or a
    repeat, on its own line; None when there is none."""
    content = [k for k, raw in enumerate(lines, 1) if (parts := raw.split()) and parts[0][0] != "#"]
    seen = set()
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            reason = f"vertex id {u if not 0 <= u < n else v} out of range for n={n}"
        elif u == v:
            reason = f"self-loop at vertex {u}"
        elif (min(u, v), max(u, v)) in seen:
            reason = f"duplicate edge ({min(u, v)}, {max(u, v)})"
        else:
            seen.add((min(u, v), max(u, v)))
            continue
        return GraphParseError(f"line {content[i + 1]}: {reason}")
    return None


def parse_outcome(parse, text):
    """The graph parse returns, or the text of the GraphParseError it raises."""
    try:
        return parse(text)
    except GraphParseError as exc:
        return f"GraphParseError: {exc}"


# Value-preserving rewrites of one field ("7" -> ...): leading zeros, a sign,
# Arabic-Indic and fullwidth digits; int() reads each back as the same id.
FIELD_REWRITES = (
    lambda f: "00" + f,
    lambda f: "+" + f,
    lambda f: f.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda f: f.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
)


@st.composite
def perturbed_texts(draw):
    """write_graph output of a small graph with a few of the edits the
    flat-array path must hand over to the per-line loop, or read alike."""
    lines = write_graph(draw(graphs(max_n=7))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from((
            "comment", "blank", "field", "tab", "big id", "drop line", "extra line",
        )))
        i = draw(st.integers(0, len(lines) - 1))
        # Edits that change a value or drop a line leave the header alone:
        # a header n of 2^63 would ask for 2^63 rows.
        header = next(k for k, line in enumerate(lines) if line.split() and line.split()[0][0] != "#")
        if kind == "comment":
            lines.insert(i, "# a comment 1 2")
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(("", "  ", "\t"))))
        elif kind == "tab":
            lines[i] = lines[i].replace(" ", draw(st.sampled_from(("\t", " \t ", "  "))))
        elif kind == "field":
            parts = lines[i].split()
            if parts and parts[0][0] != "#":
                j = draw(st.integers(0, len(parts) - 1))
                parts[j] = draw(st.sampled_from(FIELD_REWRITES))(parts[j])
                lines[i] = " ".join(parts)
        elif kind == "big id" and i > header:
            parts = lines[i].split()
            if len(parts) == 2:
                parts[draw(st.integers(0, 1))] = str(2**63 + draw(st.integers(-1, 2**70)))
                lines[i] = " ".join(parts)
        elif kind == "drop line" and i > header:
            del lines[i]
        elif kind == "extra line":
            lines.append(draw(st.sampled_from(("0 1", "1 0", "0 0", "0 9"))))
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


class TestConstruction:
    def test_basic_accessors(self):
        g = Graph(4, ((2, 1), (0, 1), (1, 3)))
        assert g.n == 4 and g.m == 3
        assert g.neighbors(1) == (0, 2, 3)
        assert g.degree(1) == 3 and g.degrees() == (1, 3, 1, 1)
        assert g.has_edge(1, 2) and g.has_edge(2, 1) and not g.has_edge(0, 2)
        assert list(g.edges()) == [(0, 1), (1, 2), (1, 3)]

    def test_rejects_bad_edges(self):
        with pytest.raises(DomainError):
            Graph(3, ((0, 3),))
        with pytest.raises(DomainError):
            Graph(3, ((1, 1),))
        with pytest.raises(DomainError):
            Graph(3, ((0, 1), (1, 0)))
        with pytest.raises(DomainError):
            Graph(-1, ())

    def test_rejection_names_the_first_bad_edge_in_input_order(self):
        with pytest.raises(DomainError, match=r"^duplicate edge \(2, 3\)$"):
            Graph(4, [(0, 1), (2, 3), (3, 2), (1, 0)])
        with pytest.raises(DomainError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(4, [(0, 1), (1, 0), (0, 5)])
        with pytest.raises(DomainError, match=r"^edge \(0, 5\) out of range for n=4$"):
            Graph(4, [(0, 1), (0, 5), (1, 0)])
        with pytest.raises(DomainError, match=r"^self-loop at vertex 2$"):
            Graph(4, [(0, 1), (2, 2), (1, 0)])

    def test_ids_beyond_64_bits_and_non_pairs(self):
        with pytest.raises(DomainError, match=r"^edge \(0, 1180591620717411303424\) out of range for n=3$"):
            Graph(3, [(0, 2**70)])
        with pytest.raises(DomainError, match=r"^duplicate edge \(0, 1\)$"):
            Graph(3, [(0, 1), (1, 0), (0, -(2**70))])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1,)])

    def test_accepts_any_iterable(self):
        g = Graph(4, ((i, i + 1) for i in range(3)))
        assert g == path(4) and g.m == 3
        with pytest.raises(DomainError, match=r"^duplicate edge \(1, 2\)$"):
            Graph(3, (e for e in ((1, 2), (0, 1), (2, 1))))

    def test_equality_ignores_edge_order(self):
        assert Graph(3, ((0, 1), (1, 2))) == Graph(3, ((2, 1), (0, 1)))
        assert hash(Graph(2, ())) == hash(Graph(2, ()))

    def test_isolated_vertex_detection(self):
        assert Graph(3, ((0, 1),)).has_isolated_vertex()
        assert not path(3).has_isolated_vertex()


class TestParse:
    def test_round_trip(self):
        g = cycle(5)
        assert parse_graph(write_graph(g)) == g

    def test_tolerates_blank_lines_and_whitespace(self):
        g = parse_graph("  3 2 \n\n0 1\n\n 1 2 \n")
        assert g == path(3)

    @pytest.mark.parametrize("text, fragment", PARSE_ERROR_CASES)
    def test_parse_errors_name_the_line(self, text, fragment):
        with pytest.raises(GraphParseError) as exc:
            parse_graph(text)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("text, fragment", PARSE_ERROR_CASES)
    def test_matches_reference_on_error_cases(self, text, fragment):
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse, text)

    @given(graphs())
    def test_matches_reference_on_written_graphs(self, g):
        text = write_graph(g)
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse, text) == g

    @settings(deadline=None, max_examples=300)
    @given(perturbed_texts())
    def test_matches_reference_on_perturbed_texts(self, text):
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse, text)

    @settings(deadline=None, max_examples=100)
    @given(perturbed_texts(), st.integers(1, 12))
    def test_matches_reference_across_chunk_cuts(self, text, chunk):
        # Tiny chunks cut every few lines, so the cuts meet every edit.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_CHUNK", chunk)
            assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse, text)

    @pytest.mark.parametrize(
        "text",
        [
            "3 1\n0 9223372036854775808\n",
            "3 1\n0 999999999999999999\n",
            "3 1\n0 0000000000000000000000001\n",
            "3 99999999999999999999\n0 1\n",
            "3 1\n0 1",
            "3 1\r\n0 1\r\n",
            "3 1\n0\t1\n",
            "3 1\n0 1_0\n",
            "3 1\n0 1\x0c\n",
            "3 1\n0 1\n\n",
            "# c\n3 1\n0 1\n",
            "3 0\n",
            "0 0\n",
        ],
    )
    def test_matches_reference_at_the_edges_of_the_format(self, text):
        assert parse_outcome(parse_graph, text) == parse_outcome(reference_parse, text)

    def test_id_beyond_64_bits_names_its_line(self):
        with pytest.raises(GraphParseError, match=r"^line 2: vertex id 9223372036854775808 out of range for n=3$"):
            parse_graph("3 1\n0 9223372036854775808\n")


class Unseekable(io.StringIO):
    """A text file that can only be read forward, like a pipe.  sizes
    records the size asked of each read."""

    def __init__(self, text):
        super().__init__(text)
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")

    def tell(self):
        raise io.UnsupportedOperation("tell")


def from_file(text):
    return parse_graph(io.StringIO(text))


class TestParseFile:
    """parse_graph on open text files agrees with reference_parse on text."""

    @pytest.mark.parametrize("text, fragment", PARSE_ERROR_CASES)
    def test_matches_reference_on_error_cases(self, text, fragment):
        assert parse_outcome(from_file, text) == parse_outcome(reference_parse, text)

    @given(graphs())
    def test_matches_reference_on_written_graphs(self, g):
        text = write_graph(g)
        assert parse_outcome(from_file, text) == parse_outcome(reference_parse, text) == g

    @settings(deadline=None, max_examples=200)
    @given(perturbed_texts())
    def test_matches_reference_on_perturbed_texts(self, text):
        assert parse_outcome(from_file, text) == parse_outcome(reference_parse, text)

    @settings(deadline=None, max_examples=100)
    @given(perturbed_texts(), st.integers(1, 12))
    def test_matches_reference_across_read_cuts(self, text, chunk):
        # Tiny reads end mid-line, so the carried line meets every edit.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(graph_module, "_CHUNK", chunk)
            assert parse_outcome(from_file, text) == parse_outcome(reference_parse, text)

    @settings(deadline=None, max_examples=100)
    @given(perturbed_texts())
    def test_unseekable_file_is_read_whole(self, text):
        outcome = parse_outcome(lambda t: parse_graph(Unseekable(t)), text)
        assert outcome == parse_outcome(reference_parse, text)

    @staticmethod
    def assert_read_in_pieces(text):
        fh = Unseekable(text)
        parse_outcome(lambda _: parse_graph(fh), text)
        assert fh.sizes and all(size is not None and size >= 0 for size in fh.sizes)

    @settings(deadline=None, max_examples=100)
    @given(perturbed_texts())
    def test_pipe_is_read_in_pieces(self, text):
        self.assert_read_in_pieces(text)

    @pytest.mark.parametrize("text, fragment", PARSE_ERROR_CASES)
    def test_pipe_is_read_in_pieces_on_error_cases(self, text, fragment):
        self.assert_read_in_pieces(text)

    def test_large_pipe_is_read_in_pieces(self):
        g = random_tree(3000, 4)
        for t in (write_graph(g), "# c\n" + write_graph(g)):
            fh = Unseekable(t)
            assert parse_graph(fh) == g
            assert len(fh.sizes) > 1 and set(fh.sizes) == {graph_module._CHUNK}

    @settings(deadline=None, max_examples=100)
    @given(perturbed_texts())
    def test_fallback_rereads_from_the_starting_position(self, text):
        # The parse begins at the file's current position, not at its
        # first byte.
        def after_preamble(t):
            fh = io.StringIO("preamble 1 2 3\n" + t)
            fh.readline()
            return parse_graph(fh)

        assert parse_outcome(after_preamble, text) == parse_outcome(reference_parse, text)

    def test_disk_file_reads_alike(self, tmp_path):
        # A real text file seeks by opaque cookies, not by character counts.
        g = random_tree(3000, 4)
        f = tmp_path / "g.txt"
        for text in (write_graph(g), "# a comment\n" + write_graph(g)):
            f.write_text(text, encoding="utf-8")
            with open(f, encoding="utf-8") as fh:
                assert parse_graph(fh) == g


class TestHugeHeader:
    def test_beyond_the_list_limit_fails_before_allocating(self):
        with pytest.raises(CapacityError, match=r"^n=100000000000000000000 exceeds the vertex limit"):
            Graph(10**20)
        for parse in (parse_graph, from_file):
            with pytest.raises(CapacityError, match=r"^n=99999999999999999999 "):
                parse("99999999999999999999 0\n")

    # Outcomes reference_parse cannot model, as it raises no CapacityError:
    # an id of 2^70 fits no array('q'), and n = 10^20 - 1 is above sys.maxsize.
    @pytest.mark.parametrize(
        "text, error, message",
        [
            (
                "99999999999999999999 1\n0 1 2\n",
                GraphParseError,
                "line 2: expected two fields, got 3",
            ),
            (
                "99999999999999999999 1\n0 1180591620717411303424\n",
                CapacityError,
                f"n=99999999999999999999 exceeds the vertex limit of {sys.maxsize}",
            ),
            (
                "99999999999999999999 2\n0 1180591620717411303424\n"
                "1180591620717411303424 0\n0 x\n",
                GraphParseError,
                "line 2: vertex id 1180591620717411303424 out of range for n=99999999999999999999",
            ),
            (
                "3 2\n0 1\n1 0\n0 1180591620717411303424\n",
                GraphParseError,
                "line 3: duplicate edge (0, 1)",
            ),
        ],
    )
    def test_ids_beyond_64_bits_under_huge_headers(self, text, error, message):
        for parse in (parse_graph, from_file):
            with pytest.raises(error, match=rf"^{re.escape(message)}$"):
                parse(text)


class TestMemoryShape:
    def test_caller_array_is_never_changed(self):
        ends = array("q", [0, 1, 1, 2, 2, 3])
        g = Graph(4, ends)
        assert ends == array("q", [0, 1, 1, 2, 2, 3])
        assert g == path(4) and g.m == 3

    @pytest.mark.parametrize("family", ["path", "random_tree"])
    def test_parsed_graph_holds_at_most_16_bytes_per_vertex(self, family):
        # Row tuples sharing one int per vertex held 96 B per vertex here,
        # and their build peaked at 195 B.
        # Text not in write_graph's shape is read into the same flat array:
        # a comment first, or after the header, used to cost 219 B.  Text
        # with "\r" line endings is cut into pieces at its CRs as a string
        # and as a file opened with newline="", where it once came through
        # as one piece and peaked at 96 B.
        g = path(10**5) if family == "path" else random_tree(10**5, 1)
        text = write_graph(g)
        header, _, edges = text.partition("\n")
        cr = text.replace("\n", "\r")
        texts = (text, "# c\n" + text, f"{header}\n# c\n{edges}", cr, io.StringIO(cr, newline=""))
        for t in texts:
            tracemalloc.start()
            try:
                h = parse_graph(t)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert h == g
            assert held <= 16 * g.n and peak <= 48 * g.n


class TestBuildCheck:
    """Rows are built in input order, checked in one pass, and sorted only
    where that pass finds them out of order."""

    @staticmethod
    def rows(n, edges):
        rows = [set() for _ in range(n)]
        for u, v in edges:
            rows[u].add(v)
            rows[v].add(u)
        return tuple(tuple(sorted(r)) for r in rows)

    def test_edges_out_of_order_give_ascending_rows(self):
        g = random_tree(300, 5)
        edges = [(v, u) if (u + v) % 3 else (u, v) for u, v in g.edges()]
        edges.reverse()
        expected = self.rows(g.n, edges)
        text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        for h in (Graph(g.n, edges), parse_graph(text), from_file(text)):
            assert h.adjacency == expected
            assert h == g and hash(h) == hash(g)
            assert list(h.edges()) == list(g.edges())

    def test_row_may_start_with_the_entry_the_previous_row_ends_in(self):
        # rows (2,), (2,), (0, 1): the first pair of equal entries straddles rows
        assert Graph(3, [(0, 2), (1, 2)]).adjacency == ((2,), (2,), (0, 1))
        # row 1 is built as (3, 2), so it is sorted after the check
        g = Graph(4, [(0, 3), (1, 3), (1, 2)])
        assert g.adjacency == ((3,), (2, 3), (1,), (0, 1))
        assert parse_graph("4 3\n0 3\n1 3\n1 2\n") == g

    @pytest.mark.parametrize(
        "edges, line, reason",
        [
            # the repeat is the last two entries of row 0
            ([(0, 1), (0, 2), (0, 3), (0, 3)], 5, "duplicate edge (0, 3)"),
            ([(0, 1), (0, 3), (0, 2), (3, 0)], 5, "duplicate edge (0, 3)"),
            # the repeat is the last two entries of the last row
            ([(0, 3), (1, 3), (3, 1)], 4, "duplicate edge (1, 3)"),
            ([(2, 1), (0, 3), (1, 2), (0, 3)], 4, "duplicate edge (1, 2)"),
        ],
    )
    def test_repeated_edges_are_rejected_at_the_first(self, edges, line, reason):
        with pytest.raises(DomainError, match=rf"^{re.escape(reason)}$"):
            Graph(4, edges)
        text = f"4 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        for parse in (parse_graph, from_file):
            with pytest.raises(GraphParseError, match=rf"^line {line}: {re.escape(reason)}$"):
                parse(text)


class TestPredicates:
    def test_dominating(self):
        g = path(4)
        assert is_dominating(g, (0, 3)) and is_dominating(g, (1, 2))
        assert not is_dominating(g, (0,)) and not is_dominating(g, ())
        assert is_dominating(Graph(1, ()), (0,))

    def test_total_dominating(self):
        g = cycle(4)
        assert is_total_dominating(g, (0, 1))
        assert not is_total_dominating(g, (0, 2))  # members lack neighbors inside
        with pytest.raises(DomainError):
            is_total_dominating(Graph(2, ()), (0, 1))

    def test_efficient(self):
        assert is_efficient_dominating(path(4), (0, 3))
        assert not is_efficient_dominating(path(4), (0, 2))  # vertex 1 hit twice
        assert is_efficient_dominating(cycle(6), (0, 3))
        assert not is_efficient_dominating(cycle(4), (0, 2))

    def test_private_neighbors(self):
        assert private_neighbors(path(4), 2, (0, 2)) == (2, 3)
        assert private_neighbors(star(3), 1, (0, 1)) == ()
        with pytest.raises(DomainError):
            private_neighbors(path(4), 1, (0, 2))

    def test_cover_number(self):
        assert cover_number(path(4), (0, 3)) == 2
        assert cover_number(star(4), (0,)) == 4
        assert cover_number(path(4), ()) == 0

    def test_as_vertex_set_normalizes(self):
        assert as_vertex_set(path(4), [3, 0]) == (0, 3)
        assert as_vertex_set(path(4), [0, 0, 2]) == (0, 2)
        with pytest.raises(DomainError):
            as_vertex_set(path(4), [4])
        with pytest.raises(DomainError):
            as_vertex_set(path(4), [-1])


class TestStructure:
    def test_blocks_of_path(self):
        blocks, cuts = blocks_and_cut_vertices(path(4))
        assert sorted(blocks) == [(0, 1), (1, 2), (2, 3)]
        assert cuts == (1, 2)

    def test_blocks_of_cycle(self):
        blocks, cuts = blocks_and_cut_vertices(cycle(5))
        assert blocks == ((0, 1, 2, 3, 4),) and cuts == ()

    def test_blocks_of_single_vertex(self):
        assert blocks_and_cut_vertices(Graph(1, ())) == (((0,),), ())

    def test_blocks_reject_disconnected(self):
        with pytest.raises(DomainError, match="disconnected"):
            blocks_and_cut_vertices(Graph(4, ((0, 1), (2, 3))))

    def test_is_block_graph(self):
        assert is_block_graph(path(6))
        assert is_block_graph(Graph(5, ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))))
        assert not is_block_graph(cycle(4))
        diamond = Graph(4, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
        assert not is_block_graph(diamond)

    def test_is_p4_free(self):
        assert is_p4_free(cycle(4))
        assert is_p4_free(star(5))
        assert is_p4_free(Graph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4))))
        assert not is_p4_free(path(4))
        assert not is_p4_free(cycle(5))

    def test_is_connected(self):
        assert is_connected(path(5)) and is_connected(Graph(1, ()))
        assert not is_connected(Graph(3, ((0, 1),)))

    def test_first_unreachable(self):
        assert first_unreachable(Graph(0, ())) is None
        assert first_unreachable(path(5)) is None
        assert first_unreachable(Graph(5, ((0, 1), (3, 4), (1, 2)))) == 3

    def test_is_block_graph_matches_pairwise_clique_check(self, corpus_all):
        instances = corpus_all + corpus.random_block_graphs() + corpus.glued_cliques()
        verdicts = [is_block_graph(g) for g in instances]
        assert verdicts == [_blocks_are_cliques_pairwise(g) for g in instances]
        assert any(verdicts) and not all(verdicts)


def _blocks_are_cliques_pairwise(g):
    """Reference for is_block_graph: look up every pair inside every block."""
    blocks, _ = blocks_and_cut_vertices(g)
    return all(g.has_edge(u, v) for block in blocks for u, v in combinations(block, 2))


class TestProperties:
    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degrees()) == 2 * g.m

    @given(graphs())
    def test_write_parse_round_trip(self, g):
        assert parse_graph(write_graph(g)) == g

    @given(graphs())
    def test_full_vertex_set_dominates(self, g):
        assert is_dominating(g, tuple(range(g.n)))

    @given(graphs(max_n=7))
    def test_blocks_partition_edges(self, g):
        if not is_connected(g):
            return
        blocks, cuts = blocks_and_cut_vertices(g)
        seen = []
        for block in blocks:
            inside = set(block)
            seen.extend(e for e in g.edges() if e[0] in inside and e[1] in inside)
        if g.n > 1:
            assert sorted(seen) == list(g.edges())
        membership = {v: sum(v in b for b in blocks) for v in range(g.n)}
        assert all(membership[v] >= 2 for v in cuts)
        assert all(membership[v] == 1 for v in range(g.n) if v not in cuts)

    @given(graphs())
    def test_efficient_implies_dominating(self, g):
        for v in range(g.n):
            d = (v,)
            if is_efficient_dominating(g, d):
                assert is_dominating(g, d)
