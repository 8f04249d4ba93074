"""Graph container and structural operations."""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bicert import (
    GenSpec,
    Graph,
    InputError,
    build_graph,
    connected_components,
    find_path,
    generate,
    simplify,
)
from bicert.graph import MAX_VERTICES, bfs_path
from conftest import adjacency, four_cycle, graphs, triangle


def walk(g, x):
    """x's ``(neighbor, edge id)`` entries read from ``g.adjacency()``."""
    head, nxt = g.adjacency()
    entries = []
    s = head[x]
    while s != -1:
        assert g.ends[s] == x
        entries.append((g.ends[s ^ 1], s >> 1))
        s = nxt[s]
    return entries


class TestBuildGraph:
    def test_triangle(self):
        g = triangle()
        assert g.n == 3
        assert g.m == 3
        assert g.pairs == [(0, 1), (1, 2), (2, 0)]

    def test_loop_adjacency_entry_is_single(self):
        # one edge id, seen once from each of its two slots
        g = build_graph(1, [(0, 0)])
        assert g.m == 1
        assert walk(g, 0) == [(0, 0), (0, 0)]

    def test_parallel_edges_have_distinct_ids(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        assert walk(g, 0) == [(1, 0), (1, 1)]

    def test_endpoint_out_of_range_names_pair(self):
        with pytest.raises(InputError, match=r"\(0, 5\)"):
            build_graph(3, [(0, 5)])

    def test_negative_vertex_count(self):
        with pytest.raises(InputError):
            build_graph(-1, [])

    def test_empty_graph(self):
        g = build_graph(0, [])
        assert g.n == 0 and g.m == 0

    def test_vertex_count_over_the_cap_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="exceeds the limit"):
                build_graph(MAX_VERTICES + 1, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_endpoint_out_of_range_allocates_no_adjacency(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=r"edge 1 .*\(0, -1\)"):
                build_graph(MAX_VERTICES, [(0, 1), (0, -1)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @given(graphs())
    def test_adjacency_length_sum(self, g):
        # every slot of ends is on exactly one list, a loop's two slots included
        assert sum(len(walk(g, v)) for v in range(g.n)) == 2 * g.m

    @pytest.mark.parametrize("pairs, eid", [
        ([(0, 1, 2)], 0),
        ([(0, 1), (0, 1, 2), (3,)], 1),  # flattened, it would read as 3 edges
        ([(0, 1), 5], 1),
        ([(0.5, 1)], 0),
    ])
    def test_malformed_pair_names_its_edge(self, pairs, eid):
        with pytest.raises(InputError, match=rf"^edge {eid} is not a pair of integers"):
            build_graph(4, pairs)

    def test_id_past_a_64_bit_slot_names_pair(self):
        with pytest.raises(InputError, match=rf"^edge 0 endpoint pair \(0, {2**70}\)"):
            build_graph(5, [(0, 2**70)])

    def test_first_bad_pair_is_named_before_an_oversized_one(self):
        with pytest.raises(InputError, match=r"^edge 1 endpoint pair \(0, 9\)"):
            build_graph(5, [(0, 1), (0, 9), (-(2**70), 0)])

    def test_equality_with_a_non_graph(self):
        g = build_graph(2, [(0, 1)])
        assert g != (2, [(0, 1)])
        assert Graph.__eq__(g, 5) is NotImplemented

    @given(graphs())
    def test_pairs_and_edges_read_back_the_input(self, g):
        assert build_graph(g.n, g.pairs) == g
        assert list(g.edges()) == g.pairs
        assert len(g.ends) == 2 * g.m


class TestCsr:
    @given(graphs())
    @example(build_graph(3, [(0, 1), (1, 1), (0, 1), (2, 2), (1, 0)]))
    def test_matches_a_reference_built_from_pairs(self, g):
        # the head/nxt walks read as a CSR built from the pairs: edge-id order
        # at each vertex, parallel edges apart, a loop at both of its slots
        off, nbr = [0] * (g.n + 1), []
        for x in range(g.n):
            for eid, (u, v) in enumerate(g.pairs):
                if u == x:
                    nbr.append((v, eid))
                if v == x:
                    nbr.append((u, eid))
            off[x + 1] = len(nbr)
        head, nxt = g.adjacency()
        assert len(head) == g.n and len(nxt) == len(g.ends) == off[-1]
        for x in range(g.n):
            assert walk(g, x) == nbr[off[x]:off[x + 1]] == adjacency(g, x)


class TestAdjacency:
    def test_built_on_first_use_and_kept(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 2)])
        assert g._adj is None
        assert g.adjacency() is g.adjacency()

    def test_build_and_adjacency_keep_40_bytes_per_edge(self):
        spec = GenSpec(kind="planted_bipartite", n_left=25_000, n_right=25_000,
                       m=100_000, seed=8)
        pairs = generate(spec).pairs
        tracemalloc.start()
        try:
            g = build_graph(50_000, pairs)
            g.adjacency()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 40 * len(pairs)
        assert peak <= 40 * len(pairs)


class TestSimplify:
    def test_collapses_parallel_pair(self):
        g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
        result = simplify(g)
        assert result.removed == 2
        assert result.graph.pairs == [(0, 1)]

    def test_keeps_one_loop(self):
        g = build_graph(1, [(0, 0), (0, 0)])
        result = simplify(g)
        assert result.removed == 1
        assert result.graph.pairs == [(0, 0)]

    def test_plain_graph_unchanged(self):
        g = four_cycle()
        result = simplify(g)
        assert result.removed == 0
        assert result.graph == g

    @given(graphs())
    def test_idempotent(self, g):
        once = simplify(g)
        twice = simplify(once.graph)
        assert twice.removed == 0
        assert twice.graph == once.graph


class TestConnectedComponents:
    def test_two_components_ordered_by_smallest_vertex(self):
        g = build_graph(5, [(3, 4), (0, 1)])
        lab = connected_components(g)
        assert lab.k == 3
        assert lab.component_of == [0, 0, 1, 2, 2]
        assert lab.members() == [[0, 1], [2], [3, 4]]

    def test_isolated_vertices_are_singletons(self):
        lab = connected_components(build_graph(3, []))
        assert lab.k == 3
        assert lab.component_of == [0, 1, 2]

    def test_loops_and_parallels_do_not_split(self):
        g = build_graph(2, [(0, 0), (0, 1), (0, 1)])
        lab = connected_components(g)
        assert lab.k == 1


class TestFindPath:
    def test_zero_length(self):
        p = find_path(triangle(), {0, 1, 2}, 1, 1)
        assert p.vertices == [1] and p.edge_ids == [] and p.length == 0

    def test_ties_resolve_to_lowest_vertex(self):
        p = find_path(four_cycle(), {0, 1, 2, 3}, 0, 2)
        assert p.length == 2
        assert p.vertices == [0, 1, 2]
        assert p.edge_ids == [0, 1]

    def test_respects_allowed_set(self):
        p = find_path(four_cycle(), {0, 2, 3}, 0, 2)
        assert p.vertices == [0, 3, 2]
        assert find_path(four_cycle(), {0, 2}, 0, 2) is None

    def test_unreachable_returns_none(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert find_path(g, {0, 1, 2, 3}, 0, 3) is None

    def test_endpoint_outside_allowed_set(self):
        with pytest.raises(InputError):
            find_path(triangle(), {0, 1}, 0, 2)

    def test_parallel_edges_pick_lowest_id(self):
        g = build_graph(2, [(0, 1), (0, 1)])
        p = find_path(g, {0, 1}, 0, 1)
        assert p.edge_ids == [0]

    @given(graphs(max_n=6))
    def test_path_well_formed(self, g):
        allowed = set(range(g.n))
        for a in range(g.n):
            for b in range(g.n):
                p = find_path(g, allowed, a, b)
                if p is None:
                    continue
                assert p.vertices[0] == a and p.vertices[-1] == b
                assert len(set(p.vertices)) == len(p.vertices)
                for i, eid in enumerate(p.edge_ids):
                    u, v = g.pairs[eid]
                    assert {u, v} == {p.vertices[i], p.vertices[i + 1]}


def sorted_scan_path(g, a, b, vertex_ok, edge_ok):
    """``bfs_path`` as a BFS that scans each vertex's ``(neighbor, edge id)``
    entries sorted and keeps ``(parent, edge id)`` per reached vertex."""
    if a == b:
        return [a], []
    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for y, eid in sorted(adjacency(g, x)):
            if y in parent or not vertex_ok[y] or not edge_ok[eid]:
                continue
            parent[y] = (x, eid)
            if y == b:
                verts, eids = [b], []
                while parent[verts[-1]] is not None:
                    prev, via = parent[verts[-1]]
                    eids.append(via)
                    verts.append(prev)
                return verts[::-1], eids[::-1]
            queue.append(y)
    return None


class TestBfsPath:
    @settings(max_examples=400)
    @given(graphs(max_n=9, max_m=30), st.data())
    def test_matches_the_sorted_scan(self, g, data):
        # masks and endpoints drawn per example; parallel edges and loops
        # make the smallest-allowed-edge rule matter
        if g.n == 0:
            return
        mostly_ok = st.sampled_from([1, 1, 1, 0])
        vertex_ok = bytearray(data.draw(st.lists(mostly_ok, min_size=g.n, max_size=g.n)))
        edge_ok = bytearray(data.draw(st.lists(mostly_ok, min_size=g.m, max_size=g.m)))
        a = data.draw(st.integers(0, g.n - 1))
        b = data.draw(st.integers(0, g.n - 1))
        vertex_ok[a] = vertex_ok[b] = 1
        path = bfs_path(g, a, b, vertex_ok=vertex_ok, edge_ok=edge_ok)
        expected = sorted_scan_path(g, a, b, vertex_ok, edge_ok)
        if expected is None:
            assert path is None
        else:
            assert (path.vertices, path.edge_ids) == expected
