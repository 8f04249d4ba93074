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
  re-examines the leftover edges; a clash yields the fundamental cycle, the
  tree path read off the forest's BFS parents plus the clashing edge.

All four process edges (and seed vertices) in id order, so their output is a
pure function of the input graph.  ``run_instrumented`` certifies loops in
a pre-pass as length-1 odd cycles before any checker runs.  ``check``
dispatches by name and re-verifies the result before returning it.
Certificate extraction searches only the region it needs: flip and dsu run
a masked BFS over the graph's own adjacency, forest walks tree parents.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable

from .certificates import (
    Bipartition,
    CheckOutcome,
    OddCycle,
    verify_outcome,
)
from .errors import InputError, InternalInvariantError
from .graph import Graph, bfs_path

ALGORITHM_NAMES = ("growth", "flip", "dsu", "forest")


def _loop_certificate(g: Graph) -> OddCycle | None:
    eid = g.first_loop
    if eid is None:
        return None
    return OddCycle([g.pairs[eid][0]], [eid])


def _closed_by(g: Graph, kept: bytes | bytearray, a: int, b: int, eid: int) -> CheckOutcome:
    """Odd cycle: the even a..b path over edges with ``kept[id]`` set, then edge ``eid``."""
    path = bfs_path(g.adj, a, b, edge_ok=kept)
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
                path = bfs_path(adj, x0, x1, vertex_ok=member)
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
    flips = 0
    # every edge before a clash is accepted: each branch below merges,
    # skips a redundant edge, or returns
    for eid, (a, b) in enumerate(g.pairs):
        ca = comp_id[a]
        cb = comp_id[b]
        if side[a] != side[b]:
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
            kept = b"\x01" * eid + bytes(g.m - eid)
            return _closed_by(g, kept, a, b, eid), flips
        # same side, distinct components: flip the smaller, ties toward a
        small, big = (ca, cb) if len(members[ca]) <= len(members[cb]) else (cb, ca)
        for v in members[small]:
            side[v] ^= 1
            comp_id[v] = big
        members[big].extend(members[small])
        members[small] = None
        flips += 1
    return CheckOutcome(bipartition=Bipartition(list(side))), flips


def _dsu_parity(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    parent = list(range(n))
    rank = bytearray(n)
    par = bytearray(n)  # parity of each vertex relative to its parent
    in_forest = bytearray(g.m)  # edge ids that performed unions
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
            in_forest[eid] = 1
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
            return _closed_by(g, in_forest, a, b, eid), unions
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


def _peel(n: int, pairs: list[tuple[int, int]], eids: Iterable[int]) -> list[int]:
    """Two-color the forest of edges ``pairs[e]``, e in ``eids``, by peeling.

    Each step removes the smallest-id vertex of minimum degree (always 0 or
    1 in a forest), recording its surviving neighbor if any; the coloring
    is rebuilt in reverse removal order, isolated-at-removal vertices
    landing on side 0.  Vertices of degree 0 and 1 wait in two integer
    heaps; an entry whose vertex has since been removed or lost degree is
    stale and skipped.  ``nbrs[v]`` is the XOR of v's surviving neighbors,
    so at degree 1 it is that neighbor: no adjacency is needed.
    """
    deg = [0] * n
    nbrs = [0] * n
    for e in eids:
        u, v = pairs[e]
        deg[u] += 1
        deg[v] += 1
        nbrs[u] ^= v
        nbrs[v] ^= u
    # ascending lists already satisfy the heap invariant
    zero = [v for v in range(n) if deg[v] == 0]
    one = [v for v in range(n) if deg[v] == 1]
    removed = bytearray(n)
    order: list[int] = []
    rec_neighbor = [-1] * n
    heappop = heapq.heappop
    heappush = heapq.heappush
    while len(order) < n:
        if zero:
            v = heappop(zero)
        else:
            while one:
                v = heappop(one)
                if not removed[v] and deg[v] == 1:
                    break
            else:
                raise InternalInvariantError("BFS forest contains a cycle")
            w = nbrs[v]
            rec_neighbor[v] = w
            nbrs[w] ^= v
            d = deg[w] - 1
            deg[w] = d
            if d == 0:
                heappush(zero, w)
            elif d == 1:
                heappush(one, w)
        removed[v] = 1
        order.append(v)
    side = [0] * n
    for v in reversed(order):
        w = rec_neighbor[v]
        side[v] = 0 if w < 0 else side[w] ^ 1
    return side


def _forest_recolor(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    adj = g.adj
    pairs = g.pairs
    visited = bytearray(n)
    is_tree = bytearray(g.m)
    up = [-1] * n  # each vertex's tree edge to its BFS parent; -1 at a root
    depth = [0] * n
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = 1
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            below = depth[x] + 1
            for nbr, eid in adj[x]:
                if not visited[nbr]:
                    visited[nbr] = 1
                    is_tree[eid] = 1
                    up[nbr] = eid
                    depth[nbr] = below
                    queue.append(nbr)
    side = _peel(n, pairs, (e for e in up if e >= 0))
    examined = 0
    for eid, (a, b) in enumerate(pairs):
        if is_tree[eid]:
            continue
        examined += 1
        if side[a] == side[b]:
            return CheckOutcome(odd_cycle=_tree_cycle(pairs, up, depth, a, b, eid)), examined
    return CheckOutcome(bipartition=Bipartition(side)), examined


def _tree_cycle(
    pairs: list[tuple[int, int]], up: list[int], depth: list[int], a: int, b: int, eid: int
) -> OddCycle:
    """The tree path a..b, found by climbing both ends to their meeting vertex, then ``eid``."""
    a_verts, a_eids = [a], []
    b_verts, b_eids = [b], []
    while a != b:
        if depth[a] >= depth[b]:
            e = up[a]
            u, v = pairs[e]
            a = u ^ v ^ a
            a_verts.append(a)
            a_eids.append(e)
        else:
            e = up[b]
            u, v = pairs[e]
            b = u ^ v ^ b
            b_verts.append(b)
            b_eids.append(e)
    b_verts.pop()  # the meeting vertex ends a_verts already
    b_verts.reverse()
    b_eids.reverse()
    return OddCycle(a_verts + b_verts, a_eids + b_eids + [eid])


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

    A certificate rejected by its own verifier, or too malformed to verify,
    raises InternalInvariantError: that can only mean a bug here, never bad
    input.
    """
    outcome, _ = run_instrumented(g, algorithm)
    try:
        ok = verify_outcome(g, outcome)
    except InputError:  # a malformed certificate is the checker's fault too
        ok = False
    if not ok:
        raise InternalInvariantError(
            f"checker {algorithm!r} returned a certificate its verifier rejects"
        )
    return outcome
