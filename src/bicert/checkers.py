"""Four independent certifying bipartiteness checkers.

Each checker either two-colors the graph or finds an odd cycle, and each
takes a genuinely different route:

* ``check_growth_induced``   grows a two-colored induced subgraph one vertex
  at a time; a vertex adjacent to both sides closes an odd cycle.
* ``check_incremental_flip`` inserts edges one by one into a two-colored
  spanning subgraph, flipping whole components to repair side clashes.
* ``check_dsu_parity``       tracks side parity between every vertex and its
  union-find root; an edge joining same-parity vertices in one tree is odd.
* ``check_forest_recolor``   colors a spanning forest by peeling leaves, then
  re-examines the leftover edges; a clash yields the fundamental cycle.

All four process edges (and seed vertices) in id order, so their output is a
pure function of the input graph.  ``run_instrumented`` certifies loops in
a pre-pass as length-1 odd cycles before any checker runs.  ``check``
dispatches by name and re-verifies the result before returning it.
"""

from __future__ import annotations

import heapq
from collections import deque

from .certificates import (
    Bipartition,
    CheckOutcome,
    OddCycle,
    verify_outcome,
)
from .errors import CyclicGraphError, InputError, InternalInvariantError
from .graph import Graph, bfs_path, build_graph, find_path

ALGORITHM_NAMES = ("growth", "flip", "dsu", "forest")


def _loop_certificate(g: Graph) -> OddCycle | None:
    for eid, (u, v) in enumerate(g.pairs):
        if u == v:
            return OddCycle([u], [eid])
    return None


def _closed_by(g: Graph, kept: list[int], a: int, b: int, eid: int) -> CheckOutcome:
    """Odd cycle: the even a..b path over the ``kept`` edge ids, then edge ``eid``."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for k in kept:
        u, v = g.pairs[k]
        adj[u].append((v, k))
        adj[v].append((u, k))
    path = bfs_path(adj, None, a, b)
    if path is None:
        raise InternalInvariantError("certificate endpoints not connected")
    return CheckOutcome(odd_cycle=OddCycle(path.vertices, path.edge_ids + [eid]))


def _growth(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    adj = g.adj
    side = [0] * n
    member = bytearray(n)
    absorbed = 0
    for seed in range(n):
        if member[seed]:
            continue
        member[seed] = 1
        absorbed += 1
        queue = deque(nbr for nbr, _ in adj[seed])
        while queue:
            z = queue.popleft()
            if member[z]:
                continue
            first_zero: tuple[int, int] | None = None
            first_one: tuple[int, int] | None = None
            for nbr, eid in adj[z]:
                if member[nbr]:
                    if side[nbr] == 0:
                        if first_zero is None:
                            first_zero = (nbr, eid)
                    elif first_one is None:
                        first_one = (nbr, eid)
            if first_zero is not None and first_one is not None:
                x0, e0 = first_zero
                x1, e1 = first_one
                inside = {v for v in range(n) if member[v]}
                path = find_path(g, inside, x0, x1)
                assert path is not None  # grown subgraph is connected
                cyc_v = path.vertices + [z]
                cyc_e = path.edge_ids + [e1, e0]
                return CheckOutcome(odd_cycle=OddCycle(cyc_v, cyc_e)), absorbed
            # every queued vertex has a grown neighbor, so one side is set
            side[z] = 1 if first_zero is not None else 0
            member[z] = 1
            absorbed += 1
            for nbr, _ in adj[z]:
                if not member[nbr]:
                    queue.append(nbr)
    return CheckOutcome(bipartition=Bipartition(side)), absorbed


def _incremental_flip(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    side = bytearray(n)
    comp_id = list(range(n))
    members: list[list[int] | None] = [[v] for v in range(n)]
    accepted: list[int] = []
    flips = 0
    for eid, (a, b) in enumerate(g.pairs):
        ca = comp_id[a]
        cb = comp_id[b]
        if side[a] != side[b]:
            accepted.append(eid)
            if ca == cb:
                continue
            small, big = (ca, cb) if len(members[ca]) <= len(members[cb]) else (cb, ca)
            for v in members[small]:
                comp_id[v] = big
            members[big].extend(members[small])
            members[small] = None
            continue
        if ca == cb:
            # same side inside one component: even path + this edge
            return _closed_by(g, accepted, a, b, eid), flips
        # same side, distinct components: flip the smaller, ties toward a
        small, big = (ca, cb) if len(members[ca]) <= len(members[cb]) else (cb, ca)
        for v in members[small]:
            side[v] ^= 1
            comp_id[v] = big
        members[big].extend(members[small])
        members[small] = None
        flips += 1
        accepted.append(eid)
    return CheckOutcome(bipartition=Bipartition(list(side))), flips


def _dsu_parity(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    parent = list(range(n))
    rank = bytearray(n)
    par = bytearray(n)  # parity of each vertex relative to its parent
    forest: list[int] = []  # edge ids that performed unions, never rewritten
    unions = 0
    for eid, (a, b) in enumerate(g.pairs):
        ra = a
        pa = 0
        w = parent[ra]
        while w != ra:
            pa ^= par[ra]
            ra = w
            w = parent[ra]
        x = a
        px = pa
        w = parent[x]
        while w != ra:
            old = par[x]
            parent[x] = ra
            par[x] = px
            px ^= old
            x = w
            w = parent[x]
        rb = b
        pb = 0
        w = parent[rb]
        while w != rb:
            pb ^= par[rb]
            rb = w
            w = parent[rb]
        x = b
        px = pb
        w = parent[x]
        while w != rb:
            old = par[x]
            parent[x] = rb
            par[x] = px
            px ^= old
            x = w
            w = parent[x]
        if ra != rb:
            unions += 1
            forest.append(eid)
            bit = pa ^ pb ^ 1
            if rank[ra] < rank[rb]:
                parent[ra] = rb
                par[ra] = bit
            elif rank[ra] > rank[rb]:
                parent[rb] = ra
                par[rb] = bit
            else:
                parent[rb] = ra
                par[rb] = bit
                rank[ra] += 1
        elif pa == pb:
            # the forest path a..b has even length; this edge closes it
            return _closed_by(g, forest, a, b, eid), unions
    side = bytearray(n)
    for v in range(n):
        rv = v
        pv = 0
        w = parent[rv]
        while w != rv:
            pv ^= par[rv]
            rv = w
            w = parent[rv]
        side[v] = pv
    return CheckOutcome(bipartition=Bipartition(list(side))), unions


def leaf_peel_two_color(g: Graph) -> Bipartition:
    """Two-color an acyclic graph by peeling minimum-degree vertices.

    Each step removes the smallest-id vertex of minimum degree (always 0 or
    1 in an acyclic graph), recording its surviving neighbor if any; the
    coloring is rebuilt in reverse removal order, isolated-at-removal
    vertices landing on side 0.  Loops, parallel pairs, or any cycle raise
    CyclicGraphError.
    """
    for u, v in g.pairs:
        if u == v:
            raise CyclicGraphError(f"loop at vertex {u} is a cycle")
    n = g.n
    deg = [len(g.adj[v]) for v in range(n)]
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removed = bytearray(n)
    order: list[int] = []
    rec_neighbor = [-1] * n
    while len(order) < n:
        while heap:
            d, v = heapq.heappop(heap)
            if not removed[v] and d == deg[v]:
                break
        else:
            raise CyclicGraphError("graph contains a cycle")
        if d > 1:
            raise CyclicGraphError("graph contains a cycle")
        if d == 1:
            for nbr, _ in g.adj[v]:
                if not removed[nbr]:
                    rec_neighbor[v] = nbr
                    deg[nbr] -= 1
                    heapq.heappush(heap, (deg[nbr], nbr))
                    break
        removed[v] = 1
        order.append(v)
    side = [0] * n
    for v in reversed(order):
        w = rec_neighbor[v]
        side[v] = 0 if w < 0 else side[w] ^ 1
    return Bipartition(side)


def _forest_recolor(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    adj = g.adj
    visited = bytearray(n)
    is_tree = bytearray(g.m)
    forest_eids: list[int] = []
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = 1
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            for nbr, eid in adj[x]:
                if not visited[nbr]:
                    visited[nbr] = 1
                    is_tree[eid] = 1
                    forest_eids.append(eid)
                    queue.append(nbr)
    forest_graph = build_graph(n, [g.pairs[e] for e in forest_eids])
    side = leaf_peel_two_color(forest_graph).side
    examined = 0
    for eid, (a, b) in enumerate(g.pairs):
        if is_tree[eid]:
            continue
        examined += 1
        if side[a] == side[b]:
            return _closed_by(g, forest_eids, a, b, eid), examined
    return CheckOutcome(bipartition=Bipartition(side)), examined


def check_growth_induced(g: Graph) -> CheckOutcome:
    """Grow a two-colored induced subgraph until it spans or clashes."""
    return run_instrumented(g, "growth")[0]


def check_incremental_flip(g: Graph) -> CheckOutcome:
    """Insert edges in id order, flipping smaller components to repair sides."""
    return run_instrumented(g, "flip")[0]


def check_dsu_parity(g: Graph) -> CheckOutcome:
    """Union-find with side parity; certificates come from the union forest."""
    return run_instrumented(g, "dsu")[0]


def check_forest_recolor(g: Graph) -> CheckOutcome:
    """Color a spanning forest, then test every non-forest edge against it."""
    return run_instrumented(g, "forest")[0]


_CHECKERS = {
    "growth": _growth,
    "flip": _incremental_flip,
    "dsu": _dsu_parity,
    "forest": _forest_recolor,
}


def run_instrumented(g: Graph, algorithm: str) -> tuple[CheckOutcome, int]:
    """Run one checker, returning its outcome and an operation counter.

    Counters: growth counts vertices absorbed, flip counts component flips,
    dsu counts unions, forest counts non-forest edges examined.  A loop is
    certified by the pre-pass here, before the checker runs, with counter 0.
    No verification happens here; callers that need the self-certifying
    contract use ``check``.
    """
    try:
        fn = _CHECKERS[algorithm]
    except KeyError:
        raise InputError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHM_NAMES}"
        ) from None
    loop = _loop_certificate(g)
    if loop is not None:
        return CheckOutcome(odd_cycle=loop), 0
    return fn(g)


def check(g: Graph, algorithm: str) -> CheckOutcome:
    """Dispatch to a checker by name and verify its certificate.

    A certificate rejected by its own verifier raises
    InternalInvariantError: that can only mean a bug here, never bad input.
    """
    outcome, _ = run_instrumented(g, algorithm)
    if not verify_outcome(g, outcome):
        raise InternalInvariantError(
            f"checker {algorithm!r} returned a certificate its verifier rejects"
        )
    return outcome
