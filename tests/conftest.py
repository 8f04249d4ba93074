"""Shared graphs and strategies for the test suite."""

from __future__ import annotations

import os

from hypothesis import settings
from hypothesis import strategies as st

from bicert import Graph, build_graph

# CI runners set CI: a property failure there prints the @reproduce_failure
# line that replays it; every other setting stays as already loaded
settings.register_profile("bicert-ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("bicert-ci")


def adjacency(g: Graph, x: int) -> list[tuple[int, int]]:
    """x's ``(neighbor, edge id)`` entries in edge-id order, built from
    ``g.pairs`` and not from the graph's adjacency; a loop at x is listed
    twice, once for each of its ends."""
    entries = []
    for eid, (u, v) in enumerate(g.pairs):
        if u == x:
            entries.append((v, eid))
        if v == x:
            entries.append((u, eid))
    return entries


def triangle() -> Graph:
    return build_graph(3, [(0, 1), (1, 2), (2, 0)])


def four_cycle() -> Graph:
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def five_cycle() -> Graph:
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def k4() -> Graph:
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def petersen() -> Graph:
    return build_graph(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
    ])


@st.composite
def graphs(draw, max_n: int = 8, max_m: int = 16,
           loops: bool = True, multi: bool = True):
    """Small arbitrary multigraphs for property tests."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return build_graph(0, [])
    vertex = st.integers(min_value=0, max_value=n - 1)
    pair = st.tuples(vertex, vertex)
    if not loops:
        pair = pair.filter(lambda e: e[0] != e[1])
    raw = draw(st.lists(pair, max_size=max_m))
    if not multi:
        seen, pairs = set(), []
        for u, v in raw:
            key = (u, v) if u <= v else (v, u)
            if key not in seen:
                seen.add(key)
                pairs.append((u, v))
    else:
        pairs = raw
    return build_graph(n, pairs)
