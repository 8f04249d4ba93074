"""Graph container and structural operations."""

from __future__ import annotations

import random
import tracemalloc
from array import array
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
import bicert.checkers as checkers_module
import bicert.generators as generators_module
import bicert.graph as graph_module
from bicert.graph import ID_TYPECODE, MAX_EDGES, MAX_VERTICES, bfs_path
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
        ([(0, 1), (0, 1, 2), (1, 2, 3)], 1),  # or as 4
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


def per_pair_build(n, pairs):
    """What the pair build makes of ``pairs``: the graph's parts or the error's message.

    The reference for ``build_graph(n, pairs)``, stated pair by pair: each
    pair's ids are appended to one array of the graph's typecode, an item
    that is not a pair of integers naming its edge, then the pair is
    range-checked, an id past one of the 4-byte slots reading as out of
    range.  So the first bad edge is the one named, whatever its fault.
    """
    ends = array(ID_TYPECODE)
    for eid, pair in enumerate(pairs):
        try:
            u, v = pair
            ends.append(u)
            ends.append(v)
        except (TypeError, ValueError):
            return f"edge {eid} is not a pair of integers: {pair!r}"
        except OverflowError:
            return f"edge {eid} endpoint pair ({u}, {v}) out of range for n={n}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge {eid} endpoint pair ({u}, {v}) out of range for n={n}"
    loops = [eid for eid in range(len(ends) // 2) if ends[2 * eid] == ends[2 * eid + 1]]
    return n, list(ends), loops[0] if loops else None


def built(n, pairs):
    try:
        g = build_graph(n, pairs)
    except InputError as exc:
        return str(exc)
    return g.n, list(g.ends), g.first_loop


_ID = st.one_of(st.integers(0, 5), st.sampled_from([-1, 2**31, 2**63, -(2**70)]))
_ITEM = st.one_of(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.tuples(_ID, _ID),
    st.lists(st.integers(0, 5), min_size=1, max_size=3),
    st.sampled_from([5, (0.5, 1), ("0", 1), (0,), (0, 1, 2), "01", None]),
)


class TestFlatBuild:
    """Pairs, and one sequence of flat ids, build what the per-pair build did."""

    @given(st.integers(0, 6), st.lists(st.one_of(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), _ITEM), max_size=12), st.booleans())
    def test_pairs_build_what_the_per_pair_build_did(self, n, pairs, lazily):
        assert built(n, iter(pairs) if lazily else pairs) == per_pair_build(n, pairs)

    @given(graphs())
    def test_a_list_and_an_array_build_the_graph_of_their_pairs(self, g):
        ids = g.ends.tolist()
        for flat in (build_graph(g.n, ids, flat=True),
                     build_graph(g.n, array(ID_TYPECODE, ids), flat=True)):
            assert flat.n == g.n and flat.ends == g.ends and flat.first_loop == g.first_loop

    def test_an_array_becomes_ends_uncopied(self):
        ids = array(ID_TYPECODE, [0, 1, 2, 2, 1, 1])
        g = build_graph(3, ids, flat=True)
        assert g.ends is ids and g.first_loop == 1

    @pytest.mark.parametrize("ids", [
        [0, 1, 0], [0, 1, 0, 3], [0, 1, -1, 0], [0, 1, 0, 2**63], [0, 1, 0, "1"], [0, 1, 0.0, 1],
        array(ID_TYPECODE, [0, 1, 0]), array(ID_TYPECODE, [0, 1, 0, 3]),
        array(ID_TYPECODE, [0, 1, -1, 0]),
    ], ids=["odd", "out-of-range", "negative", "past-8-bytes", "str", "float",
            "odd-array", "out-of-range-array", "negative-array"])
    def test_refused_ids_are_named(self, ids):
        with pytest.raises(InputError, match=r"^ids are not an even count of ints in 0\.\.2$"):
            build_graph(3, ids, flat=True)

    def test_generators_and_simplify_build_flat(self, monkeypatch):
        flats = []

        def spy(n, pairs, *, flat=False):
            flats.append(flat)
            return build_graph(n, pairs, flat=flat)

        monkeypatch.setattr(graph_module, "build_graph", spy)
        monkeypatch.setattr(generators_module, "build_graph", spy)
        specs = [
            # 12 edges on 3 vertices, loops included, repeat one of the 6 pairs
            GenSpec(kind="random", n=3, m=12, allow_loops=True, allow_multi=True, seed=1),
            GenSpec(kind="random", n=6, p=0.5, seed=2),
            GenSpec(kind="planted_bipartite", n_left=3, n_right=4, p=0.5, seed=3),
            GenSpec(kind="planted_odd_cycle", n_left=2, n_right=3, m=6, cycle_len=5, seed=4),
            GenSpec(kind="forest", n=9, seed=5),
        ]
        multigraph = [generate(spec) for spec in specs][0]
        assert simplify(multigraph).removed > 0
        assert flats == [True] * 6


class TestEdgeCap:
    """No graph holds more than ``MAX_EDGES`` edges, so each slot fits its 4 bytes."""

    def test_every_slot_and_its_parent_mark_fit_four_bytes(self):
        assert array(ID_TYPECODE).itemsize == 4
        last = 2 * (MAX_EDGES - 1) + 1  # the slot 2e + 1 of the last edge
        assert last < 2**31 and -2 - last >= -(2**31)  # and _region_bfs's mark of it
        assert MAX_VERTICES < 2**31

    @pytest.mark.parametrize("extra, message", [
        ([(0, 1)], "edge count exceeds the limit of 3"),
        ([(0, 5)], "edge count exceeds the limit of 3"),  # past the cap before the range
        ([None], "edge count exceeds the limit of 3"),
        ([], None),
    ], ids=["pair", "out-of-range", "non-pair", "none"])
    @pytest.mark.parametrize("container", [list, tuple, iter, lambda pairs: (p for p in pairs)],
                             ids=["list", "tuple", "iterator", "generator"])
    def test_an_edge_past_the_cap_is_refused(self, extra, message, container, monkeypatch):
        # whatever holds the pairs gives the same answer
        monkeypatch.setattr(graph_module, "MAX_EDGES", 3)
        pairs = [(1, 0), (0, 1), (1, 1)] + extra
        if message is None:
            g = build_graph(2, container(pairs))
            assert g.pairs == pairs and g.first_loop == 2
        else:
            with pytest.raises(InputError, match=f"^{message}$"):
                build_graph(2, container(pairs))

    @pytest.mark.parametrize("container", [list, lambda ids: array(ID_TYPECODE, ids)],
                             ids=["list", "array"])
    def test_flat_ids_past_the_cap_are_refused(self, container, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_EDGES", 3)
        with pytest.raises(InputError, match="^edge count exceeds the limit of 3$"):
            build_graph(2, container([1, 0, 0, 1, 1, 1, 0, 1]), flat=True)
        assert build_graph(2, container([1, 0, 0, 1, 1, 1]), flat=True).m == 3

    @pytest.mark.parametrize("pairs, message", [
        ([(0, 5), (0, 1), (0, 1)], r"edge 0 endpoint pair \(0, 5\) out of range for n=2"),
        ([(0, 1), None, (0, 1)], r"edge 1 is not a pair of integers: None"),
        ([(0, 1), (0, 2**31), (0, 1)], r"edge 1 endpoint pair \(0, 2147483648\) out of range"),
        # the first bad edge is named, whatever the fault of a later one
        ([(0, 5), None], r"edge 0 endpoint pair \(0, 5\) out of range for n=2$"),
        ([(0, 5), (0, 1, 2)], r"edge 0 endpoint pair \(0, 5\) out of range for n=2$"),
        ([(0, 2**31), None], r"edge 0 endpoint pair \(0, 2147483648\) out of range for n=2$"),
        # within an edge, a type fault is named before a range fault
        ([(0.5, 5)], r"edge 0 is not a pair of integers: \(0\.5, 5\)$"),
    ], ids=["out-of-range", "non-pair", "past-a-slot", "out-of-range-then-non-pair",
            "out-of-range-then-triple", "past-a-slot-then-non-pair", "non-int-and-out-of-range"])
    def test_a_bad_edge_within_the_cap_is_named(self, pairs, message, monkeypatch):
        monkeypatch.setattr(graph_module, "MAX_EDGES", 3)
        with pytest.raises(InputError, match=f"^{message}"):
            build_graph(2, pairs)


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

    def test_peak_bytes_per_vertex_on_a_star(self):
        # the queue is one array of 4-byte ids: 12.2 B per vertex with the
        # labels, against 48.2 with a deque of Python ints
        leaves = 200_000
        g = build_graph(leaves + 1, [(0, leaf) for leaf in range(1, leaves + 1)])
        g.adjacency()
        tracemalloc.start()
        try:
            lab = connected_components(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lab.k == 1 and lab.component_of == [0] * g.n
        assert peak / g.n <= 16


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


def shuffled_grid(rng):
    """A grid of up to 14 × 14 vertices, ids shuffled, a quarter of its edges
    copied, all edges in shuffled order: many shortest paths tie."""
    rows, cols = rng.randint(2, 14), rng.randint(2, 14)
    label = rng.sample(range(rows * cols), rows * cols)
    pairs = [(label[r * cols + c], label[r * cols + c + 1])
             for r in range(rows) for c in range(cols - 1)]
    pairs += [(label[r * cols + c], label[(r + 1) * cols + c])
              for r in range(rows - 1) for c in range(cols)]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    return build_graph(rows * cols, pairs)


def complete_bipartite(rng):
    """K_{p,q} with p, q up to 12, ids shuffled and edges in shuffled order."""
    p, q = rng.randint(1, 12), rng.randint(1, 12)
    label = rng.sample(range(p + q), p + q)
    pairs = [(label[i], label[p + j]) for i in range(p) for j in range(q)]
    rng.shuffle(pairs)
    return build_graph(p + q, pairs)


def random_multigraph(rng):
    """Up to 200 vertices and 3n edges drawn with repeats, loops included."""
    n = rng.randint(2, 200)
    return build_graph(n, [(rng.randrange(n), rng.randrange(n))
                           for _ in range(rng.randint(n // 2, 3 * n))])


def cycle_with_pendants(rng):
    """An odd cycle of 31 to 151 vertices with pendant trees hung on it and
    up to three chords, ids shuffled and edges in shuffled order: a ball
    around an end holds many tree vertices on no shortest path, and the
    region between two cycle vertices is long and thin."""
    c = rng.randrange(31, 152, 2)
    n = c + rng.randint(c // 2, 2 * c)
    label = rng.sample(range(n), n)
    pairs = [(label[i], label[(i + 1) % c]) for i in range(c)]
    pairs += [(label[rng.randrange(v)], label[v]) for v in range(c, n)]
    pairs += [(label[i], label[j]) for i, j in
              (rng.sample(range(c), 2) for _ in range(rng.randint(0, 3)))]
    rng.shuffle(pairs)
    return build_graph(n, pairs)


class TestBfsPathDeep:
    """``bfs_path`` against the sorted scan on graphs where the two ends'
    balls meet past their second layer, or never meet."""

    @pytest.mark.parametrize("family", [shuffled_grid, complete_bipartite, random_multigraph,
                                        cycle_with_pendants])
    def test_matches_the_sorted_scan(self, family):
        lengths, missed = [], 0
        for seed in range(150):
            rng = random.Random(seed)
            g = family(rng)
            for _ in range(10):
                keep_v = rng.choice([1, 0.9, 0.7])
                keep_e = rng.choice([1, 0.9, 0.6, 0.3])
                vertex_ok = bytearray(rng.random() < keep_v for _ in range(g.n))
                edge_ok = bytearray(rng.random() < keep_e for _ in range(g.m))
                a, b = rng.randrange(g.n), rng.randrange(g.n)
                vertex_ok[a] = vertex_ok[b] = 1
                path = bfs_path(g, a, b, vertex_ok=vertex_ok, edge_ok=edge_ok)
                expected = sorted_scan_path(g, a, b, vertex_ok, edge_ok)
                if expected is None:
                    assert path is None, (seed, a, b)
                    missed += 1
                else:
                    assert (path.vertices, path.edge_ids) == expected, (seed, a, b)
                    lengths.append(path.length)
        # the corpus reaches paths too long for two layers from each end, and misses
        assert max(lengths) >= 5 and missed


class CountingMask:
    """A vertex or edge mask that counts how many times it is read."""

    def __init__(self, mask):
        self.mask = mask
        self.reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return self.mask[v]


class TestBfsPathSearchSize:
    def test_growth_certificate_reads_the_cycle_not_the_base(self, monkeypatch):
        # the benchmark's late odd cycle at 10⁵ base edges: growth grows the
        # base, crosses the bridge (the last edge) and clashes on the
        # 301-cycle; a BFS from one end of the 299-edge path reads the mask
        # for the whole base, about 5×10⁴ times
        g = generate(GenSpec(kind="planted_odd_cycle", n_left=25_000, n_right=25_000,
                             m=100_000, cycle_len=301, seed=1))
        calls = []

        def recorded(g, a, b, vertex_ok):
            calls.append((a, b, bytearray(vertex_ok), bfs_path(g, a, b, vertex_ok)))
            return calls[-1][3]

        monkeypatch.setattr(checkers_module, "bfs_path", recorded)
        outcome, _ = checkers_module.run_instrumented(g, "growth")
        assert outcome.odd_cycle.length == 301
        [(a, b, member, path)] = calls
        counted = CountingMask(member)
        assert bfs_path(g, a, b, vertex_ok=counted) == path
        assert path.length == 299
        assert counted.reads <= 3 * 301

    def test_bare_cycle_reads_each_edge_twice(self):
        # the two neighbours of vertex 0 on an odd cycle, 0 masked off: the
        # region is the whole path between them, so the balls read each edge
        # mask once and the BFS once more; a third walk would read it again
        n = 1001
        g = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        vertex_ok = bytearray([1]) * n
        vertex_ok[0] = 0
        counted = CountingMask(bytearray([1]) * n)
        path = bfs_path(g, 1, n - 1, vertex_ok=vertex_ok, edge_ok=counted)
        assert path.vertices == list(range(1, n))
        assert path.edge_ids == list(range(1, n - 1))
        assert counted.reads <= 2 * n + 8
