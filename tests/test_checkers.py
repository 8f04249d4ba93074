"""The four checkers, the forest checker's leaf peel, and the verifying dispatcher.

Frozen certificates below were derived by hand-tracing each algorithm's
deterministic rule, then cross-checked against the exhaustive oracle
before being pinned.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bicert.checkers as checkers
from bicert import (
    ALGORITHM_NAMES,
    Bipartition,
    CheckOutcome,
    GenSpec,
    InputError,
    InternalInvariantError,
    OddCycle,
    brute_force_bipartite,
    build_graph,
    canonicalize_bipartition,
    check,
    connected_components,
    find_odd_cycle_exhaustive,
    generate,
    run_instrumented,
    verify_bipartition,
    verify_odd_cycle,
    verify_outcome,
)
from conftest import five_cycle, four_cycle, graphs, k4, petersen, triangle


def canonical(g, outcome):
    return canonicalize_bipartition(connected_components(g), outcome.bipartition)


@given(graphs(max_n=6, max_m=20))
def test_recorded_first_loop_certifies_every_run(g):
    loops = [eid for eid, (u, v) in enumerate(g.pairs) if u == v]
    assert g.first_loop == (loops[0] if loops else None)
    if loops:
        u = g.pairs[loops[0]][0]
        expected = CheckOutcome(odd_cycle=OddCycle([u], [loops[0]]))
        for name in ALGORITHM_NAMES:
            assert run_instrumented(g, name) == (expected, 0)


@pytest.mark.parametrize("make, read", [
    (four_cycle, lambda g: run_instrumented(g, "flip")),
    (four_cycle, lambda g: run_instrumented(g, "dsu")),
    (four_cycle, lambda g: verify_outcome(g, CheckOutcome(bipartition=Bipartition([0, 1, 0, 1])))),
    (triangle, lambda g: verify_outcome(g, CheckOutcome(odd_cycle=OddCycle([0, 1, 2], [0, 1, 2])))),
    (four_cycle, find_odd_cycle_exhaustive),
    (triangle, find_odd_cycle_exhaustive),
    (four_cycle, brute_force_bipartite),
], ids=["flip", "dsu", "verify-sides", "verify-cycle", "oracle-none", "oracle-cycle",
        "oracle-sides"])
def test_edge_streaming_readers_never_build_the_adjacency(make, read):
    # flip and dsu build it only to extract a cycle; the verifiers and the
    # oracle read the edges alone
    g = make()
    read(g)
    assert g._adj is None


@pytest.mark.parametrize("name", ALGORITHM_NAMES)
class TestCommonBehavior:
    def test_empty_graph(self, name):
        out = check(build_graph(0, []), name)
        assert out.is_bipartite and out.bipartition.side == bytes([])

    def test_single_vertex(self, name):
        out = check(build_graph(1, []), name)
        assert out.bipartition.side == bytes([0])

    def test_loop_certified_first(self, name):
        # edge order puts a loop after other edges; the pre-pass still wins
        g = build_graph(3, [(0, 1), (1, 2), (2, 2), (1, 1)])
        out = check(g, name)
        assert out.odd_cycle.vertices == [2]
        assert out.odd_cycle.edge_ids == [2]
        # the pre-pass runs before the checker, so no work is counted
        assert run_instrumented(g, name) == (out, 0)

    def test_four_cycle_canonical_sides(self, name):
        out = check(four_cycle(), name)
        assert verify_bipartition(four_cycle(), out.bipartition)
        assert canonical(four_cycle(), out).side == bytes([0, 1, 0, 1])

    def test_triangle_certificate_verifies(self, name):
        g = triangle()
        out = check(g, name)
        assert out.branch == "odd_cycle"
        assert out.odd_cycle.length == 3
        assert verify_odd_cycle(g, out.odd_cycle)

    def test_parallel_edges_keep_verdict(self, name):
        g = build_graph(2, [(0, 1), (0, 1), (1, 0)])
        out = check(g, name)
        assert verify_bipartition(g, out.bipartition)

    def test_isolated_vertices_get_side_zero(self, name):
        g = build_graph(4, [(1, 2)])
        out = check(g, name)
        assert canonical(g, out).side[0] == 0
        assert canonical(g, out).side[3] == 0


class TestGrowth:
    def test_k4_frozen_certificate(self):
        # hand trace: seed 0, absorb 1 as side 1; vertex 2 sees both sides
        # through edges 1 and 3; path 0-1 closes the triangle
        out, absorbed = run_instrumented(k4(), "growth")
        assert out.odd_cycle.vertices == [0, 1, 2]
        assert out.odd_cycle.edge_ids == [0, 3, 1]
        assert absorbed == 2
        assert verify_odd_cycle(k4(), out.odd_cycle)
        assert brute_force_bipartite(k4()) is None

    def test_triangle_frozen_certificate(self):
        out = check(triangle(), "growth")
        assert out.odd_cycle.vertices == [0, 1, 2]
        assert out.odd_cycle.edge_ids == [0, 1, 2]

    def test_four_cycle_exact_sides(self):
        assert check(four_cycle(), "growth").bipartition.side == bytes([0, 1, 0, 1])

    def test_absorption_counter_counts_vertices(self):
        _, absorbed = run_instrumented(four_cycle(), "growth")
        assert absorbed == 4

    def test_disconnected_grown_subgraph_is_an_invariant_error(self, monkeypatch):
        # the check must hold under ``python -O`` too, so it is no assert
        monkeypatch.setattr(checkers, "bfs_path", lambda *args, **kwargs: None)
        with pytest.raises(InternalInvariantError):
            run_instrumented(k4(), "growth")


@pytest.mark.parametrize("name", ["flip", "dsu"])
def test_unconnected_certificate_endpoints_are_an_invariant_error(name, monkeypatch):
    # flip and dsu search their even path with bfs_path; None there is a bug
    monkeypatch.setattr(checkers, "bfs_path", lambda *args, **kwargs: None)
    with pytest.raises(InternalInvariantError, match="endpoints not connected"):
        run_instrumented(triangle(), name)


class TestIncrementalFlip:
    def test_triangle_third_edge_closes(self):
        out, flips = run_instrumented(triangle(), "flip")
        assert out.odd_cycle.vertices == [2, 1, 0]
        assert out.odd_cycle.edge_ids == [1, 0, 2]
        assert flips == 2

    def test_two_singleton_flips_then_clean_merge(self):
        # (0,1) flips {0}; (2,3) flips {2}; (1,2) already separates
        g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
        out, flips = run_instrumented(g, "flip")
        assert verify_bipartition(g, out.bipartition)
        assert out.bipartition.side == bytes([1, 0, 1, 0])
        assert canonical(g, out).side == bytes([0, 1, 0, 1])
        assert flips == 2

    def test_smaller_component_is_flipped(self):
        # path 0-1-2 colored, then vertex 3 clashes with 0: {3} flips
        g = build_graph(4, [(0, 1), (1, 2), (3, 0)])
        out, flips = run_instrumented(g, "flip")
        assert verify_bipartition(g, out.bipartition)
        assert out.bipartition.side == bytes([1, 0, 1, 0])

    def test_even_closing_edge_accepted_without_flip(self):
        out, flips = run_instrumented(four_cycle(), "flip")
        assert out.is_bipartite
        assert flips == 2


class TestDsuParity:
    def test_four_cycle_raw_sides(self):
        out = check(four_cycle(), "dsu")
        assert out.bipartition.side == bytes([0, 1, 0, 1])

    def test_five_cycle_frozen_certificate(self):
        out, unions = run_instrumented(five_cycle(), "dsu")
        assert out.odd_cycle.vertices == [4, 3, 2, 1, 0]
        assert out.odd_cycle.edge_ids == [3, 2, 1, 0, 4]
        assert out.odd_cycle.length == 5
        assert unions == 4
        assert verify_odd_cycle(five_cycle(), out.odd_cycle)

    def test_matches_oracle_on_seeded_random(self):
        g = generate(GenSpec(kind="random", n=12, m=20, seed=7))
        out = check(g, "dsu")
        oracle_bp = brute_force_bipartite(g)
        assert out.is_bipartite == (oracle_bp is not None)

    def test_redundant_edges_perform_no_union(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)])
        _, unions = run_instrumented(g, "dsu")
        assert unions == 3


def peel(g):
    # on a forest input the BFS forest is the graph itself, so the forest
    # checker's coloring is the leaf peel's
    return check(g, "forest").bipartition


@st.composite
def bipartite_graphs_and_forests(draw, max_n: int = 12):
    """Forests with shuffled ids and edge order, or bipartite multigraphs."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if draw(st.booleans()):
        ids = draw(st.permutations(range(n)))
        parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) for v in range(1, n)]
        pairs = [(ids[v], ids[p]) for v, p in enumerate(parents, 1) if p is not None]
        return build_graph(n, draw(st.permutations(pairs)))
    side = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    left = [v for v in range(n) if side[v] == 0]
    right = [v for v in range(n) if side[v] == 1]
    if not left or not right:
        return build_graph(n, [])
    edge = st.tuples(st.sampled_from(left), st.sampled_from(right), st.booleans())
    pairs = [(b, a) if swap else (a, b) for a, b, swap in draw(st.lists(edge, max_size=24))]
    return build_graph(n, pairs)


def distance_parity_to_component_max(g):
    """Each vertex's graph-distance parity to the max-id vertex of its component."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.pairs:
        adj[u].append(v)
        adj[v].append(u)
    parity = [None] * g.n
    for root in reversed(range(g.n)):  # larger ids already sit in their components
        if parity[root] is not None:
            continue
        parity[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if parity[y] is None:
                    parity[y] = parity[x] ^ 1
                    queue.append(y)
    return parity


class TestLeafPeel:
    @given(bipartite_graphs_and_forests())
    def test_side_is_distance_parity_to_the_component_max(self, g):
        assert peel(g).side == bytes(distance_parity_to_component_max(g))

    def test_cycle_left_after_the_scan_is_an_invariant_error(self):
        # a triangle's degrees and neighbor XORs: no vertex is ever a leaf
        with pytest.raises(InternalInvariantError, match="cycle"):
            checkers._peel([2, 2, 2], [1 ^ 2, 0 ^ 2, 0 ^ 1])

    def test_path_forced_alternation(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert peel(g).side == bytes([0, 1, 0])

    def test_star_up_to_canonicalization(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        bp = peel(g)
        assert bp.side == bytes([1, 0, 0, 0])
        canon = canonicalize_bipartition(connected_components(g), bp)
        assert canon.side == bytes([0, 1, 1, 1])

    def test_edgeless(self):
        assert peel(build_graph(3, [])).side == bytes([0, 0, 0])

    def test_coloring_verifies_on_forests(self):
        g = build_graph(7, [(0, 3), (3, 5), (1, 2), (5, 6)])
        assert verify_bipartition(g, peel(g))

    @pytest.mark.parametrize("pairs, side", [
        # path 3-1-5-0-4-2: peels 2, 3, 1, 4, 0, then 5
        ([(3, 1), (1, 5), (5, 0), (0, 4), (4, 2)], [1, 1, 1, 0, 0, 0]),
        # star on centre 2: peels 0, 1, 3, 4, then 2 beside 5, then 5
        ([(2, 0), (2, 5), (2, 3), (2, 1), (2, 4)], [0, 0, 1, 0, 0, 0]),
    ], ids=["path", "star"])
    def test_last_peeled_vertex_gets_side_zero(self, pairs, side):
        assert peel(build_graph(6, pairs)).side == bytes(side)


class TestForestRecolor:
    def test_chorded_square_frozen_certificate(self):
        # BFS tree is the star at 0; the chord's triangle comes back first
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        out, examined = run_instrumented(g, "forest")
        assert out.odd_cycle.vertices == [1, 0, 2]
        assert out.odd_cycle.edge_ids == [0, 4, 1]
        assert 4 in out.odd_cycle.edge_ids  # the chord
        assert out.odd_cycle.length == 3
        assert verify_odd_cycle(g, out.odd_cycle)

    def test_triangle_certificate(self):
        out = check(triangle(), "forest")
        assert out.odd_cycle.vertices == [1, 0, 2]
        assert out.odd_cycle.edge_ids == [0, 2, 1]

    def test_examined_counter_skips_tree_edges(self):
        _, examined = run_instrumented(four_cycle(), "forest")
        assert examined == 1

    def test_clash_across_two_bfs_depths_is_an_invariant_error(self, monkeypatch):
        # with every vertex on side 0, the clash is edge 2 = (2, 3) at BFS
        # depths 2 and 1; the lockstep climb reaches the root 0 from 3 first
        # instead of returning the even closed walk [2, 1, 0, 3]
        monkeypatch.setattr(checkers, "_peel", lambda deg, nbrs: [0] * len(deg))
        with pytest.raises(InternalInvariantError, match="two BFS depths"):
            run_instrumented(four_cycle(), "forest")


class TestWalkMemory:
    """tracemalloc peak of one growth or forest run, its outcome included,
    on a graph whose adjacency is already built.

    Each BFS queue holds a vertex once, as a 4-byte id.  A queue of Python
    ints, which growth filled once per scanned slot, measured (queue of
    ints -> 4-byte ids):

    star of 2×10⁵ leaves, per vertex     growth 42.2 -> 5.2 B, forest 54.2 -> 19.2 B
    planted bipartite, 2×10⁴ vertices
    and 2×10⁵ edges, per edge            growth 32.4 -> 0.5 B
    """

    LEAVES = 200_000

    @pytest.mark.parametrize("algo, bound", [("growth", 8), ("forest", 24)])
    def test_peak_bytes_per_vertex_on_a_star(self, algo, bound):
        g = build_graph(self.LEAVES + 1, [(0, leaf) for leaf in range(1, self.LEAVES + 1)])
        g.adjacency()
        tracemalloc.start()
        try:
            out, _ = run_instrumented(g, algo)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_bipartition(g, out.bipartition)
        assert peak / g.n <= bound

    def test_growth_peak_bytes_per_edge_on_a_dense_graph(self):
        # every vertex has about 20 neighbors: a queue entry per scanned slot
        # is O(m), one per vertex O(n)
        g = generate(GenSpec(kind="planted_bipartite", n_left=10_000, n_right=10_000,
                             m=200_000, seed=1))
        g.adjacency()
        tracemalloc.start()
        try:
            out, _ = run_instrumented(g, "growth")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.is_bipartite
        assert peak / g.m <= 2


class TestCheckDispatch:
    def test_growth_triangle(self):
        out = check(triangle(), "growth")
        assert out.branch == "odd_cycle"
        assert verify_odd_cycle(triangle(), out.odd_cycle)

    def test_dsu_four_cycle(self):
        out = check(four_cycle(), "dsu")
        assert out.branch == "bipartite"

    def test_forest_petersen_length_five(self):
        out = check(petersen(), "forest")
        assert out.odd_cycle.length == 5
        assert verify_odd_cycle(petersen(), out.odd_cycle)
        assert brute_force_bipartite(petersen()) is None

    def test_unknown_algorithm(self):
        with pytest.raises(InputError):
            check(triangle(), "quantum")

    @pytest.mark.parametrize("side", [
        [0, 0, 0],  # not proper
        [0, 0],  # too short to verify
        [0, 2, 0],  # not binary
    ], ids=["improper", "short", "non-binary"])
    def test_rejected_certificate_is_internal(self, side, monkeypatch):
        def broken(g, algorithm):
            return CheckOutcome(bipartition=Bipartition(side)), 0

        monkeypatch.setattr(checkers, "run_instrumented", broken)
        with pytest.raises(InternalInvariantError):
            check(triangle(), "growth")
