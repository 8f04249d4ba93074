"""``bicert check`` at scale against the bipartite double cover.

The double cover of G on vertices 0..n-1 has the vertices v and v' = v + n
and, for every edge u–v of G, the edges u–v' and u'–v.  G is bipartite iff
no vertex shares a double-cover component with its copy.  The union-find
here decides that and reads every certificate of the ``--json`` report (and
the ``--dot`` file's edge ids) with this file's own checks, so nothing in
the verdict or the checking is shared with bicert.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np
import pytest

import bicert.cli as cli
import bicert.formats as formats
from bicert.checkers import run_instrumented
from bicert.formats import write_dimacs, write_edge_list
from bicert.generators import GenSpec, generate

WRITERS = {"edgelist": write_edge_list, "dimacs": write_dimacs}
# one comment line in front of the writer's text sends it down the line walk
COMMENT = {"edgelist": "# cross-check\n", "dimacs": "c cross-check\n"}
WALKS = ("_walk_edge_list", "_walk_dimacs")

# about 10⁵ edges of every generate kind
SPECS = {
    "random": GenSpec(kind="random", n=100_000, m=100_000, seed=1),
    "planted_bipartite": GenSpec(kind="planted_bipartite", n_left=50_000,
                                 n_right=50_000, m=100_000, seed=1),
    "planted_odd_cycle": GenSpec(kind="planted_odd_cycle", n_left=50_000, n_right=50_000,
                                 m=100_000 - 302, cycle_len=301, seed=1),
    "forest": GenSpec(kind="forest", n=111_112, seed=1),
}


def double_cover(n: int, us, vs) -> tuple[bool, int]:
    """Whether no v shares a component with v + n in the double cover, and a count.

    When some v does, the count is the first edge index after which one
    does; when none does, it is the count c of components of G.
    """
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    joined = 0
    for eid, (u, v) in enumerate(zip(us, vs)):
        for a, b in ((u, v + n), (u + n, v)):
            ra = find(a)
            rb = find(b)
            if ra != rb:
                parent[ra] = rb
                joined += 1
        # swapping every v with v + n maps the cover onto itself, so the two
        # components this edge grew are each other's image: a vertex meets
        # its copy in one of them only if they are one, and then u does too
        if find(u) == find(u + n):
            return False, eid
    # then each component of G lifts to two components of the cover
    return True, (2 * n - joined) // 2


def double_cover_bipartite(n: int, us, vs) -> bool:
    """True iff no v shares a component with v + n in the double cover."""
    return double_cover(n, us, vs)[0]


def edge_keys(ends: np.ndarray, n: int) -> np.ndarray:
    """Each edge's endpoints as one number, the same for both directions."""
    us, vs = ends[0::2], ends[1::2]
    return np.minimum(us, vs) * n + np.maximum(us, vs)


def check_sides(sides: dict, n: int, ends: np.ndarray) -> None:
    """side0 and side1 partition 0..n-1 and every edge crosses them."""
    side0 = np.array(sides["side0"], dtype=np.int64)
    side1 = np.array(sides["side1"], dtype=np.int64)
    assert np.array_equal(np.sort(np.concatenate([side0, side1])), np.arange(n))
    side = np.zeros(n, dtype=np.int8)
    side[side1] = 1
    assert (side[ends[0::2]] != side[ends[1::2]]).all()


def cycle_steps(cycle: list[int], n: int, keys: np.ndarray) -> np.ndarray:
    """The odd simple cycle's steps as sorted edge keys, each checked to be an edge."""
    length = len(cycle)
    assert length % 2 == 1 and len(set(cycle)) == length
    assert all(0 <= v < n for v in cycle)
    here = np.array(cycle, dtype=np.int64)
    last = np.roll(here, 1)
    steps = np.sort(np.minimum(here, last) * n + np.maximum(here, last))
    assert np.isin(steps, keys).all()
    return steps


def cross_check(g, bipartite: bool, text: str, fmt: str, walked: bool, tmp_path, capsys,
                monkeypatch) -> None:
    # read at the array's own item size, then widened for edge_keys' products
    ends = np.frombuffer(g.ends, dtype=f"i{g.ends.itemsize}").astype(np.int64)
    keys = edge_keys(ends, g.n)
    walks = []

    def spy(walk):
        def spied(text):
            walks.append(walk)
            return walk(text)
        return spied

    for name in WALKS:
        monkeypatch.setattr(formats, name, spy(getattr(formats, name)))
    path = tmp_path / "g"
    path.write_text(text)
    dot = tmp_path / "g.dot"  # the only output that names a cycle's edge ids
    code = cli.main(["check", str(path), "--format", fmt, "--json",
                     *([] if bipartite else ["--dot", str(dot)])])
    reports = json.loads(capsys.readouterr().out)
    assert bool(walks) == walked
    assert code == (0 if bipartite else 1)
    for report in reports:
        assert (report["n"], report["m"]) == (g.n, g.m)
        if bipartite:
            check_sides(report["sides"], g.n, ends)
        else:
            steps = cycle_steps(report["cycle"], g.n, keys)
            if report is reports[0]:  # the DOT draws the first certificate's edges red
                lines = [line for line in dot.read_text().splitlines() if " -- " in line]
                assert len(lines) == g.m
                red = [eid for eid, line in enumerate(lines) if "color=red" in line]
                assert np.array_equal(np.sort(keys[red]), steps)


@lru_cache(maxsize=None)
def covered(kind: str):
    """The kind's graph, its double-cover verdict and count (see ``double_cover``)."""
    g = generate(SPECS[kind])
    return (g, *double_cover(g.n, g.ends[0::2], g.ends[1::2]))


def generated(kind: str):
    """The kind's graph and its double-cover verdict."""
    return covered(kind)[:2]


@pytest.mark.parametrize("walked", [False, True], ids=["writer-layout", "line-walk"])
@pytest.mark.parametrize("fmt", list(WRITERS))
@pytest.mark.parametrize("kind", list(SPECS))
def test_check_agrees_with_the_double_cover(kind, fmt, walked, tmp_path, capsys, monkeypatch):
    g, bipartite = generated(kind)
    text = (COMMENT[fmt] if walked else "") + WRITERS[fmt](g)
    cross_check(g, bipartite, text, fmt, walked, tmp_path, capsys, monkeypatch)


def test_million_edge_planted_odd_cycle(tmp_path, capsys, monkeypatch):
    # the 301-cycle's edges close the stream; all four checkers run, in two
    # processes over one shared adjacency, and their runs must agree
    g = generate(GenSpec(kind="planted_odd_cycle", n_left=250_000, n_right=250_000,
                         m=1_000_000 - 302, cycle_len=301, seed=1))
    assert g.m == 1_000_000
    bipartite = double_cover_bipartite(g.n, g.ends[0::2], g.ends[1::2])
    cross_check(g, bipartite, write_edge_list(g), "edgelist", False, tmp_path, capsys,
                monkeypatch)


@pytest.mark.parametrize("kind", list(SPECS))
def test_closing_edge_and_union_count(kind):
    g, bipartite, count = covered(kind)
    if bipartite:  # dsu unions once per edge that joins two of G's components
        assert run_instrumented(g, "dsu")[1] == g.n - count
    else:  # the edge that makes G's prefix odd closes flip's and dsu's cycles
        assert g.first_loop is None
        for name in ("flip", "dsu"):
            assert run_instrumented(g, name)[0].odd_cycle.edge_ids[-1] == count


@pytest.mark.parametrize("pairs, n, count", [
    ([], 3, 3),
    ([(0, 1), (1, 2), (2, 0)], 3, 2),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, 1),
    ([(0, 0), (0, 1)], 2, 0),
    ([(0, 1), (0, 1), (2, 3)], 5, 3),
    ([(0, 1), (2, 3), (3, 4), (4, 2), (0, 2)], 5, 3),
], ids=["edgeless", "triangle", "four-cycle", "loop", "parallel", "far-triangle"])
def test_double_cover_count_on_small_graphs(pairs, n, count):
    assert double_cover(n, [u for u, _ in pairs], [v for _, v in pairs])[1] == count


@pytest.mark.parametrize("pairs, n, bipartite", [
    ([], 3, True),
    ([(0, 1), (1, 2), (2, 0)], 3, False),
    ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, True),
    ([(0, 0)], 1, False),
    ([(0, 1), (0, 1)], 2, True),
    ([(0, 1), (2, 3), (3, 4), (4, 2)], 5, False),
], ids=["edgeless", "triangle", "four-cycle", "loop", "parallel", "far-triangle"])
def test_double_cover_verdict_on_small_graphs(pairs, n, bipartite):
    us = [u for u, _ in pairs]
    vs = [v for _, v in pairs]
    assert double_cover_bipartite(n, us, vs) == bipartite
