"""Four independent certifying bipartiteness checkers.

Each checker either two-colors the graph or finds an odd cycle, and each
takes a genuinely different route:

* ``growth`` grows a two-colored induced subgraph one vertex at a time; a
  vertex adjacent to both sides closes an odd cycle.
* ``flip``   inserts edges one by one into a two-colored spanning subgraph,
  flipping whole components to repair side clashes.
* ``dsu``    tracks side parity between every vertex and its union-find
  root (union by rank, so a find's climb needs no path compression); an
  edge joining same-parity vertices in one tree is odd.
* ``forest`` colors a BFS spanning forest by peeling its smallest leaf, one
  linear scan over the degrees and neighbor XORs the BFS recorded, then
  re-examines the leftover edges; a clash yields the fundamental cycle: the
  tree path read off the forest's BFS parents (both ends, which share a BFS
  depth, climb in lockstep until they meet), then the clashing edge.

All four process edges (and seed vertices) in id order, so their output is a
pure function of the input graph.  flip and dsu stream the edges off
``Graph.ends``; growth and forest scan each vertex's neighbors once, by
walking its slot list in the graph's adjacency, which ``Graph.adjacency``
builds on the first call and keeps.
``run_instrumented`` certifies loops in a pre-pass as length-1 odd cycles
before any checker runs, so no walk meets a loop.  ``check`` dispatches by
name and re-verifies the result before returning it.  Certificate
extraction searches only the region it needs: growth, flip and dsu find
their even path with ``bfs_path``, a masked search over the adjacency
(building it if nothing has yet) that grows a ball around each end of the
path until the two touch, then runs one BFS from the first end over its
ball and the vertices on shortest paths between the ends; forest walks
tree parents.

Per-vertex state is flat: bytearrays for flags and sides, arrays of 4-byte
items (typecode ``graph.ID_TYPECODE``) for ids, parent slots and counts.
The BFS queues of growth and forest are such arrays too: each holds a
component's vertices once, in the order they were queued, and the loop
over it reads on to its end as the scans append.  growth's one state byte
per vertex marks it queued, then grown on its side.
flip keeps each component as an array linked list (``next`` per vertex;
``tail`` and ``size`` per component id, which is the component's first
member), so merging two components is an O(1) splice after the smaller one
is walked.  Every checker returns its ``Bipartition`` as ``bytes``, one
byte per vertex.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable

from .certificates import (
    Bipartition,
    CheckOutcome,
    OddCycle,
    verify_outcome,
)
from .errors import InputError, InternalInvariantError
from .graph import ID_TYPECODE, Graph, bfs_path


def _closed_by(g: Graph, kept: bytes | bytearray, a: int, b: int, eid: int) -> CheckOutcome:
    """Odd cycle: the even a..b path over edges with ``kept[id]`` set, then edge ``eid``."""
    path = bfs_path(g, a, b, edge_ok=kept)
    if path is None:
        raise InternalInvariantError("certificate endpoints not connected")
    return CheckOutcome(odd_cycle=OddCycle(path.vertices, path.edge_ids + [eid]))


# growth keeps one state byte per vertex: 0 until it is queued, 1 while it
# is queued, then 2 + its side once grown; these map a state to the side and
# to whether the vertex is grown
_GROWN_SIDE = bytes.maketrans(b"\x02\x03", b"\x00\x01")
_GROWN = bytes.maketrans(b"\x01\x02\x03", b"\x00\x01\x01")


def _growth(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    ends = g.ends
    head, nxt = g.adjacency()
    state = bytearray(n)
    # the FIFO queue: each vertex once, in the order it was queued; the loop
    # over it also reads what its own scans append
    order = array(ID_TYPECODE)
    absorbed = 0
    for seed in range(n):
        if state[seed]:
            continue
        order.append(seed)
        for z in order:
            # one scan: note z's first slots to a grown vertex on each side
            # and queue the rest; a clash returns before the queue is read
            first_zero: int | None = None
            first_one: int | None = None
            s = head[z]
            while s != -1:
                y = ends[s ^ 1]
                t = state[y]
                if not t:
                    state[y] = 1
                    order.append(y)
                elif t == 2:
                    if first_zero is None:
                        first_zero = s
                elif t == 3 and first_one is None:
                    first_one = s
                s = nxt[s]
            if first_zero is not None and first_one is not None:
                path = bfs_path(g, ends[first_zero ^ 1], ends[first_one ^ 1],
                                vertex_ok=state.translate(_GROWN))
                if path is None:
                    raise InternalInvariantError("grown subgraph is not connected")
                cyc_v = path.vertices + [z]
                cyc_e = path.edge_ids + [first_one >> 1, first_zero >> 1]
                return CheckOutcome(odd_cycle=OddCycle(cyc_v, cyc_e)), absorbed
            # the seed has no grown neighbor and takes side 0; every later
            # vertex was queued by a grown neighbor, so one side is set
            state[z] = 3 if first_zero is not None else 2
            absorbed += 1
        del order[:]
    return CheckOutcome(bipartition=Bipartition(bytes(state.translate(_GROWN_SIDE)))), absorbed


def _incremental_flip(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    side = bytearray(n)
    # components are linked lists of their members; a component's id is its
    # first member, and only an id's tail and size slots are meaningful
    comp_id = array(ID_TYPECODE, range(n))
    nxt = array(ID_TYPECODE, [-1]) * n  # the next member of v's component, -1 at its tail
    tail = array(ID_TYPECODE, range(n))
    size = array(ID_TYPECODE, [1]) * n
    flips = 0
    # every edge before a clash is accepted: each branch below merges,
    # skips a redundant edge, or returns
    for eid, (a, b) in enumerate(g.edges()):
        ca = comp_id[a]
        cb = comp_id[b]
        if side[a] != side[b]:
            if ca == cb:
                continue
            small, big = (ca, cb) if size[ca] <= size[cb] else (cb, ca)
            v = small
            while v != -1:
                comp_id[v] = big
                v = nxt[v]
        elif ca == cb:
            # same side inside one component: even path + this edge
            kept = b"\x01" * eid + bytes(g.m - eid)
            return _closed_by(g, kept, a, b, eid), flips
        else:
            # same side, distinct components: flip the smaller, ties toward a
            small, big = (ca, cb) if size[ca] <= size[cb] else (cb, ca)
            v = small
            while v != -1:
                side[v] ^= 1
                comp_id[v] = big
                v = nxt[v]
            flips += 1
        nxt[tail[big]] = small
        tail[big] = tail[small]
        size[big] += size[small]
    return CheckOutcome(bipartition=Bipartition(bytes(side))), flips


def _dsu_parity(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    parent = array(ID_TYPECODE, range(n))
    rank = bytearray(n)
    par = bytearray(n)  # parity of each vertex relative to its parent
    in_forest = bytearray(g.m)  # edge ids that performed unions
    unions = 0
    for eid, (a, b) in enumerate(g.edges()):
        ra = a
        pa = 0
        w = parent[ra]
        while w != ra:
            pa ^= par[ra]
            ra = w
            w = parent[ra]
        rb = b
        pb = 0
        w = parent[rb]
        while w != rb:
            pb ^= par[rb]
            rb = w
            w = parent[rb]
        if ra != rb:
            unions += 1
            in_forest[eid] = 1
            # union by rank: the lower root goes under the higher, b's under a's on a tie
            if rank[ra] < rank[rb]:
                ra, rb = rb, ra
            elif rank[ra] == rank[rb]:
                rank[ra] += 1
            parent[rb] = ra
            par[rb] = pa ^ pb ^ 1
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
    return CheckOutcome(bipartition=Bipartition(bytes(side))), unions


def _peel(deg: array, nbrs: array) -> bytearray:
    """Two-color a forest by peeling its smallest leaf.

    ``deg[v]`` is v's forest degree and ``nbrs[v]`` the XOR of its forest
    neighbors; the scan consumes both.  It is the linear Prüfer-order scan:
    a pointer walks the ids upward, removing each leaf it meets, and a
    removal that turns a smaller neighbor into a leaf removes that neighbor
    next.  At degree 1 ``nbrs[v]`` is v's one surviving neighbor, and it
    keeps naming the neighbor v was peeled from.  Smallest-leaf order never
    removes a tree's max-id vertex while two or more of its vertices remain,
    so that vertex is left over on side 0; the coloring, a byte per vertex,
    is rebuilt in reverse removal order.  A degree above 0 means a cycle.
    """
    order = array(ID_TYPECODE)
    for i in range(len(deg)):
        v = i
        while deg[v] == 1:
            deg[v] = 0
            order.append(v)
            w = nbrs[v]
            nbrs[w] ^= v
            deg[w] -= 1
            if w > i:
                break
            v = w
    if any(deg):
        raise InternalInvariantError("BFS forest contains a cycle")
    side = bytearray(len(deg))
    for v in reversed(order):
        side[v] = side[nbrs[v]] ^ 1
    return side


def _forest_recolor(g: Graph) -> tuple[CheckOutcome, int]:
    n = g.n
    ends = g.ends
    head, nxt = g.adjacency()
    visited = bytearray(n)
    is_tree = bytearray(g.m)
    # the slot of ends holding each vertex's parent; -1 at a root
    up = array(ID_TYPECODE, [-1]) * n
    deg = array(ID_TYPECODE, [0]) * n  # forest degree
    nbrs = array(ID_TYPECODE, [0]) * n  # XOR of forest neighbors
    order = array(ID_TYPECODE)  # the FIFO queue, as in growth
    for seed in range(n):
        if visited[seed]:
            continue
        visited[seed] = 1
        order.append(seed)
        for x in order:
            kids = 0
            kids_xor = 0
            s = head[x]
            while s != -1:
                y = ends[s ^ 1]
                if not visited[y]:
                    visited[y] = 1
                    is_tree[s >> 1] = 1
                    up[y] = s
                    deg[y] = 1
                    nbrs[y] = x
                    kids += 1
                    kids_xor ^= y
                    order.append(y)
                s = nxt[s]
            if kids:
                deg[x] += kids
                nbrs[x] ^= kids_xor
        del order[:]
    side = _peel(deg, nbrs)
    examined = 0
    for eid, (a, b) in enumerate(g.edges()):
        if is_tree[eid]:
            continue
        examined += 1
        if side[a] == side[b]:
            return CheckOutcome(odd_cycle=_tree_cycle(g.ends, up, a, b, eid)), examined
    return CheckOutcome(bipartition=Bipartition(bytes(side))), examined


def _tree_cycle(ends: array, up: array, a: int, b: int, eid: int) -> OddCycle:
    """The tree path a..b, then ``eid``: a and b climb in lockstep until they meet.

    A same-side non-tree edge joins two vertices at one BFS depth, so the
    climbs meet at their lowest common ancestor; a root reached first means
    that did not hold.
    """
    a_verts, a_eids, b_verts, b_eids = [a], [], [], []
    while a != b:
        sa = up[a]
        sb = up[b]
        if sa == -1 or sb == -1:
            raise InternalInvariantError("a clashing edge joins two BFS depths")
        b_verts.append(b)  # stops below the meeting vertex, which ends a's part
        a = ends[sa]
        b = ends[sb]
        a_verts.append(a)
        a_eids.append(sa >> 1)
        b_eids.append(sb >> 1)
    return OddCycle(a_verts + b_verts[::-1], a_eids + b_eids[::-1] + [eid])


_CHECKERS = {
    "growth": _growth,
    "flip": _incremental_flip,
    "dsu": _dsu_parity,
    "forest": _forest_recolor,
}
ALGORITHM_NAMES = tuple(_CHECKERS)


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
    eid = g.first_loop
    if eid is not None:
        return CheckOutcome(odd_cycle=OddCycle([g.ends[2 * eid]], [eid])), 0
    return fn(g)


def check(g: Graph, algorithm: str) -> CheckOutcome:
    """Dispatch to a checker by name and verify its certificate.

    A certificate rejected by its own verifier, or too malformed to verify,
    raises InternalInvariantError: that can only mean a bug here, never bad
    input.
    """
    return run_verified(g, algorithm, run_instrumented, verify_outcome)[0]


def run_verified(
    g: Graph,
    algorithm: str,
    run: Callable[[Graph, str], tuple[CheckOutcome, int]],
    verify: Callable[[Graph, CheckOutcome], bool],
) -> tuple[CheckOutcome, int, int]:
    """``run(g, algorithm)``, its certificate checked by ``verify``.

    Returns the outcome, the ops counter and the wall nanoseconds of
    ``run`` alone; a certificate ``verify`` rejects raises
    InternalInvariantError.  Each caller passes the runner and verifier its
    own module names, so that replacing a name there (a test's fault, a
    tracing wrapper) reaches this path.
    """
    t0 = time.perf_counter_ns()
    outcome, ops = run(g, algorithm)
    elapsed = time.perf_counter_ns() - t0
    if not verify(g, outcome):
        raise InternalInvariantError(
            f"checker {algorithm!r} returned a certificate its verifier rejects"
        )
    return outcome, ops, elapsed
