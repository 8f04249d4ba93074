"""Text formats: whitespace edge lists, DIMACS, and DOT rendering."""

from __future__ import annotations

import re
from array import array
from itertools import islice
from typing import Iterator

from .certificates import CheckOutcome, verify_outcome
from .errors import InputError, ParseError
from .graph import ID_TYPECODE, MAX_EDGES, MAX_VERTICES, Graph, build_graph

# fixed fills for the two sides; certificate edges go bold red
_SIDE_COLORS = ("#a6cee3", "#fdbf6f")
# DOT lines joined per piece of dot_runs: about 200 KiB of text at most
_DOT_RUN = 1 << 12

# The exact layouts write_edge_list and write_dimacs emit, read in bulk; any
# other text (comments, blank lines, tabs, CRLF, no final newline, a bad line)
# is read line by line.  A layout is a header pattern and the pattern of a
# newline followed by neither an edge line nor the end: text is in the layout
# when it opens with the header and no such newline follows.  One search finds
# that newline without the backtracking state a repeated group of edge lines
# keeps per line (about 30 MiB at 1.6e5 edges).
_EDGE_LIST_LAYOUT = (re.compile(r"n [0-9]+\n"), re.compile(r"\n(?![0-9]+ [0-9]+\n|\Z)"))
_DIMACS_LAYOUT = (
    re.compile(r"p edge [0-9]+ [0-9]+\n"),
    re.compile(r"\n(?!e [0-9]+ [0-9]+\n|\Z)"),
)
# the bulk read and the line walk split newline-aligned chunks of about this
# many characters, so that one chunk's tokens or lines are alive at a time,
# not the whole file's: about 1 MiB of strs and ints per chunk
_CHUNK = 1 << 16
# tokens on a line are separated by spaces and tabs, nothing else
_SEPARATOR = re.compile(r"[ \t]+")
# the line walks hand their ids to the build in lists of this many: about
# 40 KiB of ints beside the array that holds them all
_WALK_RUN = 1 << 10
# the writers format this many ids, the ends of half as many edges, with
# one %: about 250 KiB of text per run at 10⁶ vertices
_WRITE_RUN = 1 << 15


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line of ``text`` that has any.

    Lines end at ``\\n`` only, optionally preceded by ``\\r``; spaces and
    tabs around and between tokens are dropped.
    """
    line_no = 0
    begin = 0
    while True:
        end = text.find("\n", begin + _CHUNK)
        for raw in (text[begin:] if end < 0 else text[begin:end]).split("\n"):
            line_no += 1
            line = raw.removesuffix("\r").strip(" \t")
            if line:
                yield line_no, _SEPARATOR.split(line)
        if end < 0:
            return
        begin = end + 1


def _too_many_edges(line_no: int) -> ParseError:
    return ParseError(f"edge count exceeds the limit of {MAX_EDGES}", line_no)


def _runs(ids: array) -> Iterator[list[int]]:
    """``ids`` in lists of ``_WALK_RUN``, as ``build_graph(..., flat=True)`` reads them."""
    return (ids[i:i + _WALK_RUN].tolist() for i in range(0, len(ids), _WALK_RUN))


def _edge_lines_start(text: str, layout: tuple[re.Pattern, re.Pattern]) -> int:
    """Where the edge lines begin if ``text`` is in ``layout``, else 0."""
    header, bad_break = layout
    head = header.match(text)
    if head is None or bad_break.search(text, head.end() - 1):
        return 0
    return head.end()


def _is_digits(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _int_token(token: str, line_no: int, what: str) -> int:
    """A token of ASCII digits as an int; any other token is a ParseError."""
    if _is_digits(token):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts (4300 by default)
            raise ParseError(f"{what} of {len(token)} digits is too long", line_no) from None
    if token.startswith("-") and _is_digits(token[1:]):
        raise ParseError(f"{what} {token} is negative", line_no)
    raise ParseError(f"{what} {token!r} is not an integer", line_no)


def _bulk_runs(text: str, start: int, dimacs: bool) -> Iterator[list[int]]:
    """The endpoint ids of the edge lines from ``text[start:]`` on, a chunk at a time.

    The lines must be in their writer's layout: ``u v`` or DIMACS's
    ``e u v`` with 1-based ids, which come out 0-based.  Each chunk's lines
    become one JSON array for ``json.loads``, which raises ValueError on
    what ``int()`` reads but JSON does not, such as a leading zero.  Ids
    are not range-checked here.
    """
    import json  # on the first bulk read, not with ``import bicert``

    begin = start
    while begin < len(text):
        end = text.find("\n", begin + _CHUNK) + 1 or len(text)
        if dimacs:  # the "e " opening each line goes
            lines = text[begin + 2:end - 1].replace("\ne ", ",")
        else:
            lines = text[begin:end - 1].replace("\n", ",")
        ids = json.loads("[" + lines.replace(" ", ",") + "]")
        del lines
        if dimacs:
            ids = [i - 1 for i in ids]
        yield ids
        begin = end


def parse_edge_list(text: str) -> Graph:
    """Parse "u v" lines; "#" starts a comment; blank lines are skipped.

    The first significant line may be a header ``n <count>`` declaring the
    vertex count (this is how isolated trailing vertices survive a round
    trip).  Without a header, n is one more than the largest id seen.
    Duplicate edge lines become parallel edges; ``u u`` is a loop.  Ids and
    counts are ASCII digits; lines end at ``\\n`` (or ``\\r\\n``) and tokens
    are separated by spaces and tabs.  Any other text raises ParseError.
    """
    start = _edge_lines_start(text, _EDGE_LIST_LAYOUT)
    if start:
        try:
            return build_graph(int(text[2:start - 1]), _bulk_runs(text, start, dimacs=False),
                               flat=True)
        except ValueError:  # an id or count that JSON, int() or the build refuses
            pass
    # the line walk reads any other text and names the line of any error
    return _walk_edge_list(text)


def _walk_edge_list(text: str) -> Graph:
    declared: int | None = None
    ids = array(ID_TYPECODE)  # u and v of each edge in turn, range-checked first
    for line_no, tokens in _lines(text):
        if tokens[0].startswith("#"):
            continue
        if declared is None and not ids and tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError("header must be 'n <count>'", line_no)
            declared = _int_token(tokens[1], line_no, "vertex count")
            if declared > MAX_VERTICES:
                raise ParseError(
                    f"vertex count {declared} exceeds the limit of {MAX_VERTICES}",
                    line_no,
                )
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {len(tokens)} tokens", line_no)
        if len(ids) == 2 * MAX_EDGES:
            raise _too_many_edges(line_no)
        u = _int_token(tokens[0], line_no, "vertex id")
        v = _int_token(tokens[1], line_no, "vertex id")
        if declared is not None:
            if u >= declared or v >= declared:
                raise ParseError(
                    f"vertex id exceeds declared count {declared}: {u} {v}", line_no
                )
        elif u >= MAX_VERTICES or v >= MAX_VERTICES:
            raise ParseError(
                f"vertex id {max(u, v)} exceeds the limit of {MAX_VERTICES} vertices",
                line_no,
            )
        ids.append(u)
        ids.append(v)
    n = declared if declared is not None else 1 + max(ids, default=-1)
    return build_graph(n, _runs(ids), flat=True)


def _id_runs(g: Graph) -> Iterator[array]:
    """``g.ends`` in slices of ``_WRITE_RUN`` ids."""
    ends = g.ends
    return (ends[i:i + _WRITE_RUN] for i in range(0, len(ends), _WRITE_RUN))


def write_edge_list(g: Graph) -> str:
    """Serialize with an ``n`` header so isolated vertices round-trip."""
    return f"n {g.n}\n" + "".join(
        "%d %d\n" * (len(run) >> 1) % tuple(run) for run in _id_runs(g))


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS: "c" comments, one "p edge <n> <m>", "e <u> <v>" 1-based.

    Every malformation is reported with its line number: a missing or
    duplicate problem line, an edge before it, vertices outside [1, n],
    unknown line types, or a final edge count differing from the declared m.
    Lines, tokens and numbers follow the edge list's ASCII rules.
    """
    start = _edge_lines_start(text, _DIMACS_LAYOUT)
    if start:
        try:
            n, m = map(int, text[7:start - 1].split(" "))
            if text.count("\n", start) == m:
                return build_graph(n, _bulk_runs(text, start, dimacs=True), flat=True)
        except ValueError:  # an id or count that JSON, int() or the build refuses
            pass
    # the line walk reads any other text and names the line of any error
    return _walk_dimacs(text)


def _walk_dimacs(text: str) -> Graph:
    n: int | None = None
    declared_m = 0
    ids = array(ID_TYPECODE)  # u - 1 and v - 1 of each edge in turn, range-checked first
    for line_no, tokens in _lines(text):
        if tokens[0].startswith("c"):
            continue
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", line_no)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("problem line must be 'p edge <n> <m>'", line_no)
            n = _int_token(tokens[2], line_no, "vertex count")
            declared_m = _int_token(tokens[3], line_no, "edge count")
            if n > MAX_VERTICES:
                raise ParseError(
                    f"vertex count {n} exceeds the limit of {MAX_VERTICES}", line_no
                )
            if declared_m > MAX_EDGES:
                raise ParseError(
                    f"edge count {declared_m} exceeds the limit of {MAX_EDGES}", line_no
                )
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", line_no)
            if len(tokens) != 3:
                raise ParseError("edge line must be 'e <u> <v>'", line_no)
            if len(ids) == 2 * MAX_EDGES:
                raise _too_many_edges(line_no)
            u = _int_token(tokens[1], line_no, "vertex id")
            v = _int_token(tokens[2], line_no, "vertex id")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(
                    f"vertex ids must lie in [1, {n}]: {u} {v}", line_no
                )
            ids.append(u - 1)
            ids.append(v - 1)
        else:
            raise ParseError(f"unknown line type {tokens[0]!r}", line_no)
    if n is None:
        raise ParseError("missing problem line")
    if len(ids) != 2 * declared_m:
        raise ParseError(
            f"problem line declared {declared_m} edges, found {len(ids) >> 1}"
        )
    return build_graph(n, _runs(ids), flat=True)


def write_dimacs(g: Graph) -> str:
    return f"p edge {g.n} {g.m}\n" + "".join(
        "e %d %d\n" * (len(run) >> 1) % tuple([x + 1 for x in run]) for run in _id_runs(g))


def write_dot(g: Graph, outcome: CheckOutcome) -> str:
    """Render the graph with its certificate as byte-stable DOT.

    Bipartite outcomes fill the two sides with two fixed colors; odd-cycle
    outcomes draw the certificate's edges (matched by id) bold red.  The
    outcome is re-verified first; one that fails is an input error.  An
    empty graph renders as a valid empty DOT body.
    """
    if not verify_outcome(g, outcome):
        raise InputError("outcome does not verify against this graph")
    return "".join(dot_runs(g, outcome))


def dot_runs(g: Graph, outcome: CheckOutcome) -> Iterator[str]:
    """``write_dot(g, outcome)`` in pieces of up to ``_DOT_RUN`` lines each.

    It renders the outcome it is given, which the caller has verified
    (``cli.cmd_check`` renders a run ``_certified_runs`` verified).  Each
    piece is made as it is asked for, so a writer that writes them one by
    one never holds a line per vertex or edge.
    """
    if outcome.bipartition is not None:
        fills = [f' [style=filled, fillcolor="{color}"];\n' for color in _SIDE_COLORS]
        vertex_lines = (f"  {v}{fills[s]}" for v, s in enumerate(outcome.bipartition.side))
        edge_lines = (f"  {u} -- {v};\n" for u, v in g.edges())
    else:
        in_cycle = set(outcome.odd_cycle.edge_ids)
        vertex_lines = (f"  {v};\n" for v in range(g.n))
        edge_lines = (f"  {u} -- {v} [color=red, penwidth=2.0];\n" if eid in in_cycle
                      else f"  {u} -- {v};\n" for eid, (u, v) in enumerate(g.edges()))
    yield "graph certified {\n"
    for lines in vertex_lines, edge_lines:
        while run := "".join(islice(lines, _DOT_RUN)):
            yield run
    yield "}\n"
