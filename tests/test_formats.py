"""Edge-list and DIMACS parsing, serialization round trips, DOT output."""

from __future__ import annotations

import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bicert.formats as formats
import bicert.graph as graph_module
from bicert import (
    Bipartition,
    CheckOutcome,
    InputError,
    OddCycle,
    ParseError,
    build_graph,
    check,
    parse_dimacs,
    parse_edge_list,
    write_dimacs,
    write_dot,
    write_edge_list,
)
from bicert.generators import GenSpec, generate
from bicert.graph import MAX_EDGES, MAX_VERTICES
from conftest import four_cycle, graphs, triangle

LONG_ID = "1" * 5000  # more digits than int() converts by default


def _outcome(parse, text):
    """What a parser makes of text: the graph's parts, or the error's message."""
    try:
        g = parse(text)
    except ParseError as exc:
        return str(exc)
    return g.n, g.pairs, g.adjacency(), g.first_loop


@st.composite
def near_writer_text(draw, dimacs):
    """Text in a writer's layout whose counts and ids may be wrong."""
    number = st.one_of(st.integers(0, 9).map(str), st.sampled_from(
        ["00", "07", "10000001", "4000000000", str(2**63), LONG_ID]))
    n = draw(number)
    lines = draw(st.lists(st.tuples(number, number), max_size=6))
    if dimacs:
        m = draw(st.one_of(st.just(str(len(lines))), number))
        return f"p edge {n} {m}\n" + "".join(f"e {u} {v}\n" for u, v in lines)
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in lines)


# edge lines with an id the bulk read refuses, each after a good line; ids
# as the file has them, so 0 is out of range in DIMACS only
REFUSED_IN_BULK = {
    "leading-zero": ["1 2", "01 2"],
    "past-64-bits": ["1 2", f"2 {2**63}"],
    "5000-digits": ["1 2", f"1 {LONG_ID}"],
    "past-n": ["1 2", "1 6"],
    "zero": ["1 2", "0 1"],
}


class TestParseEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert g.pairs == [(0, 1), (1, 2)]

    def test_header_after_comment_is_honored(self):
        g = parse_edge_list("# comment\nn 4\n0 1\n")
        assert g.n == 4
        assert g.m == 1

    def test_loop_line(self):
        g = parse_edge_list("0 0\n")
        assert g.n == 1
        assert g.pairs == [(0, 0)]

    def test_duplicate_lines_are_parallel_edges(self):
        g = parse_edge_list("0 1\n0 1\n")
        assert g.m == 2

    def test_empty_input_is_empty_graph(self):
        g = parse_edge_list("")
        assert g.n == 0 and g.m == 0

    def test_blank_lines_and_comments_skipped(self):
        g = parse_edge_list("\n# x\n\n0 1\n\n# y\n")
        assert g.m == 1

    def test_non_integer_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\n0 x\n")

    def test_wrong_token_count_reports_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_edge_list("0 1 2\n")

    def test_vertex_over_declared_count(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("n 2\n0 5\n")

    def test_negative_id(self):
        with pytest.raises(ParseError):
            parse_edge_list("-1 0\n")

    def test_header_not_first_is_an_error(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("0 1\nn 5\n")

    @pytest.mark.parametrize("text", ["n\n", "n 5 6\n"], ids=["no-count", "two-counts"])
    def test_header_of_the_wrong_width_is_an_error(self, text):
        with pytest.raises(ParseError) as info:
            parse_edge_list(text)
        assert str(info.value) == "line 1: header must be 'n <count>'"

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_edge_list(write_edge_list(g)) == g


class TestParseDimacs:
    def test_basic(self):
        g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
        assert g.n == 3
        assert g.pairs == [(0, 1), (1, 2)]

    def test_edgeless_problem(self):
        g = parse_dimacs("p edge 2 0\n")
        assert g.n == 2 and g.m == 0

    def test_missing_problem_line(self):
        with pytest.raises(ParseError, match="missing problem line"):
            parse_dimacs("c nothing\n")

    def test_duplicate_problem_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("p edge 2 0\np edge 2 0\n")

    def test_edge_before_problem_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_dimacs("e 1 2\np edge 2 1\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("p edge 2 1\ne 1 3\n")

    def test_count_mismatch(self):
        with pytest.raises(ParseError, match="declared 2"):
            parse_dimacs("p edge 3 2\ne 1 2\n")

    def test_unknown_line_type(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_dimacs("p edge 2 1\nq 1 2\n")

    @pytest.mark.parametrize("text", ["p edge 3 2000000000\n", "p edge 3 2000000000\ne 1 2\n"])
    def test_edge_count_over_the_cap(self, text):
        # refused on its problem line, before a single edge is read
        with pytest.raises(ParseError, match=(
                f"^line 1: edge count 2000000000 exceeds the limit of {MAX_EDGES}$")):
            parse_dimacs(text)

    def test_one_based_loop(self):
        g = parse_dimacs("p edge 1 1\ne 1 1\n")
        assert g.pairs == [(0, 0)]

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_dimacs(write_dimacs(g)) == g


# three edges in each format and layout, read in bulk or by the line walk
CAPPED_TEXTS = {
    "edge-list-bulk": (parse_edge_list, "n 3\n0 1\n1 2\n2 0\n", 4),
    "edge-list-walk": (parse_edge_list, "0 1\n1 2\n2 0\n", 3),
    "dimacs-walk": (parse_dimacs, "c x\np edge 3 2\ne 1 2\ne 2 3\ne 3 1\n", 5),
}


@pytest.mark.parametrize("parse, text, line", CAPPED_TEXTS.values(), ids=list(CAPPED_TEXTS))
def test_an_edge_line_past_the_cap_is_named(parse, text, line, monkeypatch):
    monkeypatch.setattr(formats, "MAX_EDGES", 2)
    monkeypatch.setattr(graph_module, "MAX_EDGES", 2)
    with pytest.raises(ParseError, match=f"^line {line}: edge count exceeds the limit of 2$"):
        parse(text)
    monkeypatch.setattr(formats, "MAX_EDGES", 3)
    monkeypatch.setattr(graph_module, "MAX_EDGES", 3)
    if parse is parse_dimacs:
        text = text.replace("p edge 3 2", "p edge 3 3")
    assert parse(text).m == 3


class TestWriteDot:
    def test_bipartite_uses_two_fill_colors(self):
        out = check(four_cycle(), "dsu")
        dot = write_dot(four_cycle(), out)
        fills = {line.split('fillcolor="')[1].split('"')[0]
                 for line in dot.splitlines() if "fillcolor" in line}
        assert len(fills) == 2
        assert dot.count("--") == 4

    def test_odd_cycle_highlights_certificate_edges(self):
        out = check(triangle(), "growth")
        dot = write_dot(triangle(), out)
        assert dot.count("penwidth") == 3
        assert "color=red" in dot

    def test_highlight_matches_edge_ids_not_endpoints(self):
        # parallel edges: only the certified copy is bold
        g = build_graph(1, [(0, 0), (0, 0)])
        dot = write_dot(g, CheckOutcome(odd_cycle=OddCycle([0], [1])))
        lines = [l for l in dot.splitlines() if "--" in l]
        assert "penwidth" not in lines[0]
        assert "penwidth" in lines[1]

    def test_empty_graph_is_valid_empty_dot(self):
        g = build_graph(0, [])
        dot = write_dot(g, CheckOutcome(bipartition=Bipartition([])))
        assert dot == "graph certified {\n}\n"

    def test_unverified_outcome_rejected(self):
        bogus = CheckOutcome(bipartition=Bipartition([0, 0, 0]))
        with pytest.raises(InputError):
            write_dot(triangle(), bogus)

    def test_byte_stable(self):
        out = check(four_cycle(), "flip")
        assert write_dot(four_cycle(), out) == write_dot(four_cycle(), out)


class TestWriters:
    def test_edge_list_header_preserves_isolated(self):
        g = build_graph(5, [(0, 1)])
        assert parse_edge_list(write_edge_list(g)).n == 5

    def test_dimacs_is_one_based(self):
        text = write_dimacs(build_graph(2, [(0, 1)]))
        assert text == "p edge 2 1\ne 1 2\n"


class TestAsciiGrammar:
    """Ids are [0-9]+, tokens split on spaces and tabs, lines on \\n only."""

    @pytest.mark.parametrize("text, line", [
        ("\u0661 \u0662\n", 1),          # Arabic-Indic digits
        ("1_0 2\n", 1),
        ("+1 2\n", 1),
        ("0 1\n0 \uff11\n", 2),         # a fullwidth digit
        ("0 1\x0c0 x\n", 1),             # a form feed ends no line
        ("0 1\x1c1 2\n", 1),
        ("0 1\x851 2\n", 1),
        ("0 1\u20281 2\n", 1),
        ("0 1\r1 2\n", 1),               # nor does a lone carriage return
        ("0\x0b1\n", 1),                 # other whitespace separates nothing
        ("0\u30001\n", 1),
        ("0 1\n\n# c\n1 \xa02\n", 4),
        ("n\u00a05\n", 1),
        ("0 1\u00a0\n", 1),              # and is not stripped from line ends
        ("\x0c0 1\n", 1),
        ("0 1\x0b\n", 1),
        ("0 1\r \n", 1),
    ])
    def test_edge_list_rejects_non_ascii_layout(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_edge_list(text)

    @pytest.mark.parametrize("text, line", [
        ("p edge 2 1\ne \u0661 2\n", 2),
        ("p edge 2 1\ne +1 2\n", 2),
        ("p edge 1_0 0\n", 1),
        ("p edge 2 1\x0ce 1 2\n", 1),
        ("c x\np edge 2 1\ne 1\u20282\n", 3),
    ])
    def test_dimacs_rejects_non_ascii_layout(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_dimacs(text)

    def test_crlf_tabs_and_padding_are_accepted(self):
        expected = build_graph(3, [(0, 1), (1, 2)])
        assert parse_edge_list("n 3\r\n0\t1\r\n  1 \t 2 \r\n") == expected
        assert parse_dimacs("p\tedge 3 2\r\ne 1 2\r\n\te  2\t3\n") == expected

    def test_comments_may_hold_any_text(self):
        assert parse_edge_list("# \u0661\x0c\n0 1\n").pairs == [(0, 1)]
        assert parse_dimacs("c \u2028 \x85\np edge 2 1\ne 1 2\n").pairs == [(0, 1)]

    @pytest.mark.parametrize("parse, text, message", [
        (parse_edge_list, "-1 0\n", "vertex id -1 is negative"),
        (parse_edge_list, "0 -0\n", "vertex id -0 is negative"),
        (parse_edge_list, "n -3\n", "vertex count -3 is negative"),
        (parse_dimacs, "p edge 2 -1\n", "edge count -1 is negative"),
        (parse_edge_list, "0 --1\n", "vertex id '--1' is not an integer"),
    ])
    def test_signs_are_refused(self, parse, text, message):
        with pytest.raises(ParseError, match=f"^line 1: {message}$"):
            parse(text)

    @pytest.mark.parametrize("parse, text", [
        (parse_edge_list, f"0 {LONG_ID}\n"),              # line walk
        (parse_edge_list, f"n 5\n0 {LONG_ID}\n"),        # bulk layout
        (parse_edge_list, f"n {LONG_ID}\n"),
        (parse_dimacs, f"p edge 2 1\ne 1 {LONG_ID}\n"),
        (parse_dimacs, f"p edge {LONG_ID} 0\n"),
    ])
    def test_too_long_id_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError, match="5000 digits is too long"):
            parse(text)

    @pytest.mark.parametrize("parse, text, line", [
        (parse_edge_list, "0 1\n0 4000000000\n", 2),
        (parse_edge_list, "n 4000000000\n0 1\n", 1),
        (parse_edge_list, "n 10000001\n", 1),
        (parse_dimacs, "p edge 4000000000 0\n", 1),
    ])
    def test_vertex_cap_is_a_parse_error(self, parse, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: .*exceeds the limit"):
            parse(text)


class TestBulkRead:
    """The bulk read of the writers' layout agrees with the line walk."""

    @given(graphs())
    def test_writer_output_reads_in_bulk(self, g):
        for write, parse, walk, layout in (
            (write_edge_list, parse_edge_list, formats._walk_edge_list,
             formats._EDGE_LIST_LAYOUT),
            (write_dimacs, parse_dimacs, formats._walk_dimacs, formats._DIMACS_LAYOUT),
        ):
            text = write(g)
            assert formats._edge_lines_start(text, layout) == text.index("\n") + 1
            assert _outcome(parse, text) == _outcome(walk, text)
            assert parse(text).adjacency() == g.adjacency()

    @given(graphs(), st.sampled_from([1, 2, 5, 13, 64]))
    def test_chunk_boundaries(self, g, chunk):
        with mock.patch.object(formats, "_CHUNK", chunk):
            assert _outcome(parse_edge_list, write_edge_list(g)) == _outcome(
                formats._walk_edge_list, write_edge_list(g))
            assert _outcome(parse_dimacs, write_dimacs(g)) == _outcome(
                formats._walk_dimacs, write_dimacs(g))

    def test_input_larger_than_one_chunk(self):
        g = generate(GenSpec(kind="random", n=50_000, m=120_000,
                             allow_loops=True, allow_multi=True, seed=3))
        for write, parse, walk in ((write_edge_list, parse_edge_list,
                                    formats._walk_edge_list),
                                   (write_dimacs, parse_dimacs, formats._walk_dimacs)):
            text = write(g)
            assert len(text) > formats._CHUNK
            assert _outcome(parse, text) == _outcome(walk, text)

    @given(graphs(), st.sets(st.sampled_from(
        ["comment", "blank", "crlf", "tab", "no-final-newline"]), min_size=1))
    def test_other_layouts_take_the_line_walk(self, g, variants):
        for write, parse, layout, comment in (
            (write_edge_list, parse_edge_list, formats._EDGE_LIST_LAYOUT, "# x"),
            (write_dimacs, parse_dimacs, formats._DIMACS_LAYOUT, "c x"),
        ):
            lines = write(g).splitlines()
            if "comment" in variants:
                lines.insert(1, comment)
            if "blank" in variants:
                lines.append("")
            if "tab" in variants:
                lines = [line.replace(" ", "\t") for line in lines]
            eol = "\r\n" if "crlf" in variants else "\n"
            text = eol.join(lines)
            if "no-final-newline" not in variants:
                text += eol
            if text == write(g):  # a blank line and no final newline: the writer's layout
                continue
            assert not formats._edge_lines_start(text, layout)
            assert parse(text) == g

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    @pytest.mark.parametrize("dimacs", [False, True], ids=["edge-list", "dimacs"])
    @pytest.mark.parametrize("case", list(REFUSED_IN_BULK))
    def test_refused_ids_read_as_the_walk_reads_them(self, case, dimacs, header):
        lines = REFUSED_IN_BULK[case]
        if dimacs:
            lines = [f"e {line}" for line in lines]
            head, parse, walk = f"p edge 5 {len(lines)}", parse_dimacs, formats._walk_dimacs
            layout = formats._DIMACS_LAYOUT
        else:
            head, parse, walk = "n 5", parse_edge_list, formats._walk_edge_list
            layout = formats._EDGE_LIST_LAYOUT
        text = "".join(f"{line}\n" for line in ([head] if header else []) + lines)
        # without its header line a text is in no bulk layout
        assert bool(formats._edge_lines_start(text, layout)) == header
        assert _outcome(parse, text) == _outcome(walk, text)

    @given(near_writer_text(dimacs=False))
    def test_edge_list_bulk_falls_back_on_bad_counts(self, text):
        assert formats._edge_lines_start(text, formats._EDGE_LIST_LAYOUT)
        assert _outcome(parse_edge_list, text) == _outcome(formats._walk_edge_list, text)

    @given(near_writer_text(dimacs=True))
    def test_dimacs_bulk_falls_back_on_bad_counts(self, text):
        assert formats._edge_lines_start(text, formats._DIMACS_LAYOUT)
        assert _outcome(parse_dimacs, text) == _outcome(formats._walk_dimacs, text)


# text near both grammars, plus characters each must refuse
_FUZZ_TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        list("0123456789 \t\r\n#cnpe-+_") + ["edge", "\x0c", "\x85", "\u2028",
                                           "\u0661", "4000000000", LONG_ID]),
    ).map("".join),
)


# the writers' layouts as whole-text patterns: a plain statement of what the
# two-pattern layout check accepts, fine for short texts
_LAYOUT_REFERENCE = (
    (formats._EDGE_LIST_LAYOUT, re.compile(r"n [0-9]+\n(?:[0-9]+ [0-9]+\n)*")),
    (formats._DIMACS_LAYOUT, re.compile(r"p edge [0-9]+ [0-9]+\n(?:e [0-9]+ [0-9]+\n)*")),
)


@given(st.one_of(_FUZZ_TEXT, near_writer_text(dimacs=False), near_writer_text(dimacs=True),
                 st.tuples(near_writer_text(dimacs=False), _FUZZ_TEXT).map("".join),
                 st.tuples(near_writer_text(dimacs=True), _FUZZ_TEXT).map("".join)))
def test_layout_check_matches_its_whole_text_pattern(text):
    for layout, reference in _LAYOUT_REFERENCE:
        start = formats._edge_lines_start(text, layout)
        whole = reference.fullmatch(text)
        assert bool(start) == bool(whole)
        if whole:
            assert start == text.index("\n") + 1


def test_bad_id_in_writer_layout_allocates_no_adjacency():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="^line 2: "):
            parse_edge_list(f"n {MAX_VERTICES}\n0 {MAX_VERTICES}\n")
        with pytest.raises(ParseError, match="^line 2: "):
            parse_dimacs(f"p edge {MAX_VERTICES} 1\ne 1 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _parse_peak(parse, text):
    """The graph ``parse`` reads from ``text`` and the tracemalloc peak of reading it."""
    tracemalloc.start()
    try:
        parsed = parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return parsed, peak


@pytest.fixture(scope="module")
def edges_1e5():
    return generate(GenSpec(kind="planted_bipartite", n_left=25_000, n_right=25_000,
                            m=10**5, seed=1))


@pytest.mark.parametrize("parse, text_of", [
    (parse_edge_list, lambda g: write_edge_list(g).partition("\n")[2]),  # no header
    (parse_dimacs, lambda g: "c hand\n" + write_dimacs(g)),  # a comment first
], ids=["edge-list", "dimacs"])
def test_line_walk_keeps_endpoints_flat(parse, text_of, edges_1e5):
    # neither text is in its writer's layout, so the line walk reads it; its
    # ids go into one array of 4-byte slots, not one tuple per edge
    g = edges_1e5
    parsed, peak = _parse_peak(parse, text_of(g))
    assert parsed.ends == g.ends
    assert peak <= 48 * g.m


@pytest.mark.parametrize("parse, text_of", [
    (parse_edge_list, write_edge_list),
    (parse_dimacs, write_dimacs),
], ids=["edge-list", "dimacs"])
def test_bulk_read_decodes_a_chunk_at_a_time(parse, text_of, edges_1e5):
    # measured 18.4 B per edge for the edge list and 18.8 for DIMACS: the
    # graph's 8 and one chunk's ints; decoding the whole text at once would
    # hold over 70 B per edge of ints
    g = edges_1e5
    parsed, peak = _parse_peak(parse, text_of(g))
    assert parsed.ends == g.ends
    assert peak <= 28 * g.m


@pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 16])
@pytest.mark.parametrize("text", [
    "", "\n", "0 1", "0 1\n", "\n\n0 1\r\n \t\n2\t 3 \n\n", "# c\n0 1\n" * 7 + "4 5",
])
def test_lines_in_chunks_keep_the_numbers_of_one_split(text, chunk, monkeypatch):
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    whole = [(line_no, line.split()) for line_no, line in enumerate(text.split("\n"), 1)
             if line.strip(" \t\r")]
    assert list(formats._lines(text)) == whole


def test_parse_error_past_the_first_chunk_names_its_line():
    text = "0 1\n" * (formats._CHUNK // 2) + "\n0 x\n"
    with pytest.raises(ParseError, match=f"^line {formats._CHUNK // 2 + 2}: "):
        parse_edge_list(text)


@given(_FUZZ_TEXT)
def test_fuzz_only_parse_errors_escape(text):
    for parse, walk in ((parse_edge_list, formats._walk_edge_list),
                        (parse_dimacs, formats._walk_dimacs)):
        assert _outcome(parse, text) == _outcome(walk, text)
