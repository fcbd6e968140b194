import random

import pytest

from packcrit import Graph, Graph6Error, emit_graph6, parse_graph6, parse_graph6_lines
from packcrit.corpus import corpus_names, load_corpus
from packcrit.families import LabeledGraph


# hand-decoded vectors: format is header byte(s) then upper-triangle bits
# in column order (0,1),(0,2),(1,2),(0,3),... packed 6 per byte, +63
HAND_VECTORS = [
    ("@", Graph.empty(1)),
    ("A_", Graph.from_edges(2, [(0, 1)])),
    ("A?", Graph.empty(2)),
    ("Bw", Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])),
    ("Cl", Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
    ("D?{", Graph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])),
    ("Ds_", Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
]


class TestParse:
    @pytest.mark.parametrize("text,graph", HAND_VECTORS)
    def test_hand_vectors(self, text, graph):
        assert parse_graph6(text) == graph

    @pytest.mark.parametrize("text,graph", HAND_VECTORS)
    def test_emit_matches(self, text, graph):
        assert emit_graph6(graph) == text

    def test_trailing_newline_ok(self):
        assert parse_graph6("A_\n") == Graph.from_edges(2, [(0, 1)])

    def test_zero_vertices(self):
        g = parse_graph6("?")
        assert g.n == 0
        assert emit_graph6(Graph.empty(0)) == "?"

    def test_empty_string(self):
        with pytest.raises(Graph6Error, match="empty"):
            parse_graph6("")

    def test_truncated_body(self):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6("D?")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error, match="trailing"):
            parse_graph6("A_X")

    def test_out_of_range_byte(self):
        with pytest.raises(Graph6Error, match="out of range"):
            parse_graph6("A" + chr(30))

    def test_nonzero_padding(self):
        # K2 body uses 1 bit; the other 5 must stay zero
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("A" + chr(63 + 0b111111))

    def test_malformed_long_header(self):
        with pytest.raises(Graph6Error, match="header"):
            parse_graph6("~A")


class TestRoundTrip:
    def test_random_small(self):
        rng = random.Random(20240817)
        for _ in range(200):
            n = rng.randrange(0, 11)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.4]
            g = Graph.from_edges(n, edges)
            assert parse_graph6(emit_graph6(g)) == g

    def test_boundary_sizes(self):
        # 62 is the last short-header size, 63 switches to the long form
        for n in (61, 62, 63, 64, 100):
            g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
            s = emit_graph6(g)
            if n <= 62:
                assert not s.startswith("~")
            else:
                assert s.startswith("~") and not s.startswith("~~")
            assert parse_graph6(s) == g

    def test_long_header_empty_graph(self):
        g = Graph.empty(70)
        assert parse_graph6(emit_graph6(g)) == g


class TestTrustedRows:
    @pytest.mark.parametrize("name", corpus_names())
    def test_checked_constructor_agrees_on_corpus(self, name):
        # the parser skips Graph's checks; its rows must pass them anyway
        for g in load_corpus(name):
            if isinstance(g, LabeledGraph):
                g = g.graph
            parsed = parse_graph6(emit_graph6(g))
            assert Graph(parsed.n, parsed.rows) == parsed == g

    def test_checked_constructor_agrees_on_long_headers(self):
        rng = random.Random(26)
        for n in (62, 63, 64, 90):
            g = Graph.from_edges(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n)
                                     if rng.random() < 0.1])
            parsed = parse_graph6(emit_graph6(g))
            assert Graph(parsed.n, parsed.rows) == parsed == g


class TestLines:
    def test_multiple_lines(self):
        text = "@\nA_\n\nBw\n"
        graphs = list(parse_graph6_lines(text))
        assert [g.n for g in graphs] == [1, 2, 3]

    def test_lines_end_at_newline_only(self):
        # \x0b inside a line is no line break, so the line does not parse
        with pytest.raises(Graph6Error):
            list(parse_graph6_lines("A_\x0bA_\n"))

    def test_error_carries_through(self):
        with pytest.raises(Graph6Error):
            list(parse_graph6_lines("@\nD?\n"))
