"""Cross-checking properties: four algorithms, two oracles, one truth.

Each property here ties independent implementations together, so a bug in
any single route shows up as a disagreement rather than a silent pass.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from bicert import (
    ALGORITHM_NAMES,
    brute_force_bipartite,
    build_graph,
    canonicalize_bipartition,
    check,
    connected_components,
    find_odd_cycle_exhaustive,
    find_path,
    run_instrumented,
    simplify,
    verify_bipartition,
    verify_odd_cycle,
    verify_outcome,
)
from conftest import adjacency, graphs


@given(graphs())
@settings(deadline=None)
def test_every_certificate_verifies(g):
    for name in ALGORITHM_NAMES:
        assert verify_outcome(g, check(g, name))


@given(graphs())
@settings(deadline=None)
def test_all_algorithms_agree_on_the_branch(g):
    branches = {check(g, name).branch for name in ALGORITHM_NAMES}
    assert len(branches) == 1


@given(graphs())
@settings(deadline=None)
def test_branch_matches_brute_force(g):
    want = brute_force_bipartite(g) is not None
    for name in ALGORITHM_NAMES:
        assert check(g, name).is_bipartite == want


@given(graphs())
@settings(deadline=None)
def test_never_both_certificates(g):
    # the two verifiers cannot accept on the same graph
    brute = brute_force_bipartite(g)
    cycle = find_odd_cycle_exhaustive(g)
    assert (brute is None) != (cycle is None)
    if brute is not None:
        assert verify_bipartition(g, brute)
    if cycle is not None:
        assert verify_odd_cycle(g, cycle)


@given(graphs())
@settings(deadline=None)
def test_loop_forces_odd_verdict(g):
    if any(u == v for u, v in g.pairs):
        for name in ALGORITHM_NAMES:
            assert not check(g, name).is_bipartite


@given(graphs())
@settings(deadline=None)
def test_simplify_preserves_the_branch(g):
    simple = simplify(g).graph
    for name in ALGORITHM_NAMES:
        assert check(g, name).branch == check(simple, name).branch


@given(graphs())
@settings(deadline=None)
def test_isolated_vertex_is_inert(g):
    padded = build_graph(g.n + 1, g.pairs)
    for name in ALGORITHM_NAMES:
        assert check(g, name).branch == check(padded, name).branch


@given(graphs(loops=False))
@settings(deadline=None)
def test_connected_bipartite_coloring_is_unique(g):
    # each component has exactly two colorings, one per side of its smallest
    # vertex, so canonical forms of all four answers must coincide
    if brute_force_bipartite(g) is None:
        return
    labeling = connected_components(g)
    colorings = {
        tuple(canonicalize_bipartition(labeling, check(g, name).bipartition).side)
        for name in ALGORITHM_NAMES
    }
    assert len(colorings) == 1


@given(graphs())
@settings(deadline=None)
def test_components_match_reachability(g):
    comp = connected_components(g).component_of
    everything = range(g.n)
    for a in range(g.n):
        for b in range(a + 1, g.n):
            path = find_path(g, everything, a, b)
            assert (path is not None) == (comp[a] == comp[b])


@given(graphs(loops=False))
@settings(deadline=None)
def test_path_parity_matches_sides(g):
    outcome = check(g, "dsu")
    if not outcome.is_bipartite:
        return
    side = outcome.bipartition.side
    everything = range(g.n)
    for a in range(g.n):
        for b in range(g.n):
            path = find_path(g, everything, a, b)
            if path is None:
                continue
            # alternation holds on any path under a proper 2-coloring
            assert (side[a] == side[b]) == (path.length % 2 == 0)


def _union_edges(g):
    """Union edges of a plain id-order union-find, and the first odd-closing edge."""
    comp = list(range(g.n))
    parity = [0] * g.n
    unions = []
    for eid, (a, b) in enumerate(g.pairs):
        if comp[a] != comp[b]:
            old, flip = comp[b], parity[a] ^ parity[b] ^ 1
            for v in range(g.n):
                if comp[v] == old:
                    comp[v] = comp[a]
                    parity[v] ^= flip
            unions.append(eid)
        elif parity[a] == parity[b]:
            return unions, eid
    return unions, None


def _bfs_forest_edges(g):
    """Edges of the id-order BFS forest, and the first non-forest edge closing an odd cycle."""
    depth = [-1] * g.n
    tree = set()
    for seed in range(g.n):
        if depth[seed] >= 0:
            continue
        depth[seed] = 0
        queue = [seed]
        for x in queue:
            for nbr, eid in adjacency(g, x):
                if depth[nbr] < 0:
                    depth[nbr] = depth[x] + 1
                    tree.add(eid)
                    queue.append(nbr)
    closing = next((eid for eid, (a, b) in enumerate(g.pairs)
                    if eid not in tree and depth[a] % 2 == depth[b] % 2), None)
    return sorted(tree), closing


def _old_route_certificate(g, kept, closing):
    """Adjacency over the kept ids, a BFS in sorted order, then the closing edge."""
    a, b = g.pairs[closing]
    adj = [[] for _ in range(g.n)]
    for k in kept:
        u, v = g.pairs[k]
        adj[u].append((v, k))
        adj[v].append((u, k))
    parent = {a: None}
    queue = [a]
    for x in queue:
        for nbr, k in sorted(adj[x]):
            if nbr not in parent:
                parent[nbr] = (x, k)
                queue.append(nbr)
    verts, eids = [b], []
    while verts[-1] != a:
        x, k = parent[verts[-1]]
        verts.append(x)
        eids.append(k)
    return verts[::-1], eids[::-1] + [closing]


def _stem_and_cycle(stem, cycle, chords=()):
    """A path 0..stem, then a cycle of ``cycle`` vertices starting at its end, plus chords."""
    pairs = [(v, v + 1) for v in range(stem + cycle - 1)]
    pairs.append((stem + cycle - 1, stem))
    return build_graph(stem + cycle, pairs + list(chords))


# Long climbs for forest's tree path.  A BFS forest puts a same-side
# non-tree edge's ends at equal depth; their climbs meet at the root
# (vertex 0) in the first and fourth examples, 200 and 40 levels below it
# in the second and third.
@given(graphs(max_n=12, max_m=30, loops=False))
@example(_stem_and_cycle(0, 301))
@example(_stem_and_cycle(200, 151))
@example(_stem_and_cycle(0, 301, [(40, 120), (250, 180)]))
@example(_stem_and_cycle(150, 201, [(0, 151), (20, 250), (300, 160)]))
@settings(deadline=None)
def test_certificates_match_the_adjacency_rebuild_route(g):
    # flip, dsu and forest used to rebuild an adjacency over their kept edge
    # ids and search it; their certificates must not have changed
    unions, closing = _union_edges(g)
    tree, tree_closing = _bfs_forest_edges(g)
    if closing is None:
        assert tree_closing is None
        return
    expected = {
        "flip": _old_route_certificate(g, range(closing), closing),
        "dsu": _old_route_certificate(g, unions, closing),
        "forest": _old_route_certificate(g, tree, tree_closing),
    }
    for name, (verts, eids) in expected.items():
        cycle = run_instrumented(g, name)[0].odd_cycle
        assert (cycle.vertices, cycle.edge_ids) == (verts, eids), name
