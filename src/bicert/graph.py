"""Immutable undirected multigraph and basic structural operations.

Vertices are dense integers ``0..n-1`` and edges keep their input order as
dense ids ``0..m-1``.  Parallel edges and loops are legal everywhere in this
package; a loop is the edge ``(v, v)``.

Storage is flat and in stdlib arrays of 4-byte ids, typecode
``ID_TYPECODE``: one array holds every edge's two endpoints, and the
adjacency links each vertex's endpoint slots in that array into a list,
built the first time a reader asks for it.  Routes that only stream the
edges in id order never build it.  ``MAX_VERTICES`` and ``MAX_EDGES`` keep
every vertex id and every slot below 2**31, so 4 bytes hold them all.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import eq
from typing import Callable, Iterable, Iterator, MutableSequence, NamedTuple, Sequence

from .errors import InputError

# the most vertices a Graph may have; a larger declared count is bad input,
# refused before any adjacency is allocated
MAX_VERTICES = 10_000_000
# the most edges a Graph may have: every slot 2e + 1 of ``ends``, and the
# ``-2 - slot`` that ``_region_bfs`` stores, then fits in 31 bits and a sign
MAX_EDGES = (1 << 30) - 1
# the typecode of every array of vertex ids, slots and counts: a C int,
# 4 bytes on every platform CPython supports
ID_TYPECODE = "i"
# heads set to -1 per slice assignment when the adjacency is linked
_HEAD_RUN = 1 << 12


class Graph:
    """Edge-list multigraph with a lazily built adjacency, frozen after construction.

    ``ends`` holds edge e's endpoints at slots ``2e`` and ``2e + 1``.
    ``adjacency()`` returns ``(head, nxt)``, two int sequences of format
    ``ID_TYPECODE``: ``head[x]`` is the first slot of ``ends`` holding x and
    ``nxt[s]`` the next slot holding ``ends[s]``, -1 ending a list.  Walking
    x's list visits its edges in edge-id order; at slot s the neighbor is
    ``ends[s ^ 1]`` and the edge id ``s >> 1``.  A non-loop edge appears
    once at each endpoint, a loop twice, once per slot.
    Instances are treated as read-only values by every algorithm here; do not
    mutate ``ends`` or the adjacency.  ``first_loop`` is the id of the
    first loop, or None when there is none.  ``__init__`` takes pairs one
    by one, checking each as it is appended, to name the first bad edge;
    ``_from_ids`` takes one flat sequence of ids, checked whole.
    """

    __slots__ = ("n", "ends", "first_loop", "_adj", "_adj_source")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        """The graph on ``n`` vertices whose edges are ``pairs``, in order.

        Each pair is appended, then range-checked, and a loop noted, in one
        pass, so that an InputError names the first bad edge, or the limit at
        a pair past ``MAX_EDGES`` edges.  Within an edge, an item that is not
        a pair of integers is named before an id outside ``0..n-1``.
        """
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        self.n = n
        self.ends = ends = array(ID_TYPECODE)
        self._adj: tuple[Sequence[int], Sequence[int]] | None = None
        self._adj_source: Callable[[], tuple | None] | None = None
        self.first_loop = None
        append = ends.append
        it = iter(pairs)
        for eid, pair in enumerate(islice(it, MAX_EDGES)):
            try:
                u, v = pair  # a wrong length must not shift the edges after it
                append(u)
                append(v)
            except (TypeError, ValueError):
                raise InputError(f"edge {eid} is not a pair of integers: {pair!r}") from None
            except OverflowError:  # past a 4-byte slot, so past any n
                raise _out_of_range(n, eid, u, v) from None
            if not (0 <= u < n and 0 <= v < n):
                raise _out_of_range(n, eid, *ends[-2:])  # as stored: True reads 1
            if u == v and self.first_loop is None:
                self.first_loop = eid
        for _ in it:  # a pair past the limit
            raise _too_many_edges()

    @classmethod
    def _from_ids(cls, n: int, ids: Sequence[int]) -> Graph:
        """The graph whose ``ends`` are ``ids``, flat ``u, v, u, v, ...``.

        An ``array(ID_TYPECODE)`` is kept uncopied, a list converted once.
        C-level ``min`` and ``max`` check the range, so an id past a 4-byte
        slot is refused by its value.  InputError names the limit past
        ``MAX_EDGES`` edges, or an odd count or anything but ints in ``0..n-1``.
        """
        g = cls(n, ())
        if len(ids) > 2 * MAX_EDGES:
            raise _too_many_edges()
        try:
            if len(ids) & 1 or ids and (min(ids) < 0 or max(ids) >= n):
                raise TypeError  # refused like an item that is not an int
            kept = getattr(ids, "typecode", None) == ID_TYPECODE
            g.ends = ids = ids if kept else array(ID_TYPECODE, ids)
        except TypeError:
            raise InputError(f"ids are not an even count of ints in 0..{n - 1}") from None
        it = iter(ids)  # any() first: a pass that counts the edges too is slower
        if any(map(eq, it, it)):
            g.first_loop = _first_loop(ids)
        return g

    @property
    def m(self) -> int:
        return len(self.ends) >> 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """The endpoint pairs ``(u, v)`` in edge-id order, read off ``ends``."""
        it = iter(self.ends)
        return zip(it, it)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """A fresh list of ``edges()``; for callers that index pairs by edge id."""
        return list(self.edges())

    def adjacency(self) -> tuple[Sequence[int], Sequence[int]]:
        """The slot lists ``(head, nxt)``, made on the first call and kept.

        They are two ``array(ID_TYPECODE)`` built here by ``link_slots``, unless
        ``_adj_source`` is set: then the first call clears it and keeps what
        it returns instead, and builds the arrays only if that is None.
        ``cli._two_halves`` sets it in its forked worker, to adopt the
        views of a region both processes map once the parent links them.
        """
        if self._adj is None:
            source, self._adj_source = self._adj_source, None
            adj = None if source is None else source()
            if adj is None:
                adj = array(ID_TYPECODE, [0]) * self.n, array(ID_TYPECODE, [0]) * len(self.ends)
                link_slots(self.ends, *adj)
            self._adj = adj
        return self._adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.ends == other.ends

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def link_slots(ends: Sequence[int], head: MutableSequence[int],
               nxt: MutableSequence[int]) -> None:
    """Write the lists ``Graph.adjacency`` returns into ``head`` and ``nxt``.

    ``head`` holds one item per vertex and ``nxt`` one per slot of ``ends``,
    both of format ``ID_TYPECODE``, whatever they held before: an array, or
    a view of memory that another process shares.
    """
    ends_of_lists = array(ID_TYPECODE, [-1]) * _HEAD_RUN
    for lo in range(0, len(head), _HEAD_RUN):
        head[lo:lo + _HEAD_RUN] = ends_of_lists[:len(head) - lo]
    # prepending from the last slot down leaves each list ascending
    for s, x in zip(range(len(ends) - 1, -1, -1), reversed(ends)):
        nxt[s] = head[x]
        head[x] = s


def _too_many_edges() -> InputError:
    return InputError(f"edge count exceeds the limit of {MAX_EDGES}")


def _out_of_range(n: int, eid: int, u: int, v: int) -> InputError:
    return InputError(f"edge {eid} endpoint pair ({u}, {v}) out of range for n={n}")


def _first_loop(ids: Sequence[int]) -> int | None:
    """The first loop's id among the edges of flat ids ``ids``, or None; one C pass."""
    it = iter(ids)
    return next(compress(count(), map(eq, it, it)), None)


def build_graph(n: int, pairs: Iterable, *, flat: bool = False) -> Graph:
    """Construct a graph on ``n`` vertices from endpoint pairs.

    Edge ids are assigned in input order.  Raises InputError naming the
    first bad edge: an item that is not a pair of integers, or a pair with
    an endpoint out of range.

    ``flat`` is internal to the readers, the generators and ``simplify``:
    ``pairs`` is then flat ids ``u, v, u, v, ...`` for ``Graph._from_ids``.
    The readers pass it here only so that ``perfbench/traced_check.py``,
    which wraps ``formats.build_graph``, still times their build.
    """
    return Graph._from_ids(n, pairs) if flat else Graph(n, pairs)


class SimplifyResult(NamedTuple):
    graph: Graph
    removed: int


def simplify(g: Graph) -> SimplifyResult:
    """Drop parallel duplicates, keeping the first copy of each endpoint pair.

    Loops are retained (deduplicated like any other pair) because they decide
    the two-colorability verdict on their own.  The result has freshly dense
    edge ids; ``removed`` counts dropped duplicates.  Idempotent.
    """
    n = g.n
    seen: set[int] = set()  # u * n + v, u <= v: ints, unlike tuples, are not tracked by gc
    ids: list[int] = []
    for u, v in g.edges():
        key = u * n + v if u <= v else v * n + u
        if key not in seen:
            seen.add(key)
            ids += u, v
    return SimplifyResult(build_graph(g.n, ids, flat=True), g.m - len(ids) // 2)


@dataclass(frozen=True)
class ComponentLabeling:
    """Dense component ids per vertex; ids ordered by smallest member vertex."""

    component_of: list[int]
    k: int

    def members(self) -> list[list[int]]:
        groups: list[list[int]] = [[] for _ in range(self.k)]
        for v, c in enumerate(self.component_of):
            groups[c].append(v)
        return groups


def connected_components(g: Graph) -> ComponentLabeling:
    """Label connected components; isolated vertices are singletons."""
    label = [-1] * g.n
    ends = g.ends
    head, nxt = g.adjacency()
    queue = array(ID_TYPECODE)  # one component's vertices, read on as they are appended
    k = 0
    for seed in range(g.n):
        if label[seed] != -1:
            continue
        label[seed] = k
        queue.append(seed)
        for x in queue:
            s = head[x]
            while s != -1:
                y = ends[s ^ 1]
                if label[y] == -1:
                    label[y] = k
                    queue.append(y)
                s = nxt[s]
        del queue[:]
        k += 1
    return ComponentLabeling(label, k)


@dataclass
class Path:
    """A simple path: ``vertices[i]`` joined to ``vertices[i+1]`` by ``edge_ids[i]``."""

    vertices: list[int]
    edge_ids: list[int]

    @property
    def length(self) -> int:
        return len(self.edge_ids)


def find_path(g: Graph, allowed: Iterable[int], a: int, b: int) -> Path | None:
    """Shortest path from ``a`` to ``b`` using only ``allowed`` vertices.

    Breadth-first; at each step neighbors are scanned in ascending
    ``(vertex, edge_id)`` order, so ties between equal-length paths resolve
    toward lower vertex ids.  Returns None when ``b`` is unreachable; a == b
    yields the zero-length path.  Loops are never traversed.  Beyond an
    O(n) mask, the cost follows the vertices on shortest a..b paths, not
    all that ``a`` reaches (see ``bfs_path``).
    """
    n = g.n
    member = bytearray(n)
    for v in allowed:
        if 0 <= v < n:
            member[v] = 1
    if not (0 <= a < n and member[a] and 0 <= b < n and member[b]):
        raise InputError("path endpoints must belong to the allowed set")
    return bfs_path(g, a, b, vertex_ok=member)


def bfs_path(
    g: Graph,
    a: int,
    b: int,
    vertex_ok: Sequence[int] | None = None,
    edge_ok: Sequence[int] | None = None,
) -> Path | None:
    """``find_path`` over the graph's adjacency, with masks.

    ``vertex_ok[v]`` and ``edge_ok[eid]`` (a bytearray, say) are truthy for
    the vertices and edge ids the path may use; None allows all of them.
    The caller makes sure ``a`` and ``b`` are allowed.

    The path is the one a BFS from ``a`` finds when it walks x's slot list
    in edge-id order, so that the first allowed edge to reach a vertex is
    its smallest allowed one, and queues the vertices x reaches in
    ascending order: the ``(vertex, edge_id)`` order ``find_path``
    promises.  That BFS runs over a ball around ``a`` and the region, the
    vertices on some shortest a..b path, only, and finds the same path:
    the neighbors one step nearer ``a`` of a vertex in either are in one
    of the two, so the order in which the BFS takes them, and the parent
    it gives each, depend on them alone.  The balls are grown around each
    end until the two touch (Pohl's bidirectional search), which gives
    the distance d; the BFS then takes a vertex outside a's ball from its
    level k only when b's ball holds it at d - k - 1, which puts it on a
    shortest path.  Apart from two n-long arrays of 4-byte distances, one
    per end, the search visits only the two balls and the region, so its
    cost follows them, not all that ``a`` reaches.
    """
    if a == b:
        return Path([a], [])
    # each vertex's distance from a and from b, -1 where not known
    dists = array(ID_TYPECODE, [-1]) * g.n, array(ID_TYPECODE, [-1]) * g.n
    dists[0][a] = dists[1][b] = 0
    d = _grow_balls(g, dists, a, b, vertex_ok, edge_ok)
    if d is None:
        return None
    return _region_bfs(g, *dists, d, a, b, edge_ok)


# The two steps of bfs_path are functions of their own: tracemalloc looks
# up the line of each allocation from the start of its function's code, so
# one long function made a traced search of a long cycle three times slower.

def _grow_balls(g: Graph, dists: tuple[array, array], a: int, b: int,
                vertex_ok: Sequence[int] | None,
                edge_ok: Sequence[int] | None) -> int | None:
    """Grow a ball around a and one around b until one touches the other.

    ``dists`` hold the distances from a and from b.  Each round adds one
    layer to the ball whose frontier, its last layer, is the smaller, a's
    on a tie.  Returns the distance d from a to b as soon as the layer
    reaches a vertex the other ball holds, leaving that layer part grown,
    or None when a ball stops growing first.
    """
    ends = g.ends
    head, nxt = g.adjacency()
    fronts = [[a], [b]]
    while True:
        side = len(fronts[0]) > len(fronts[1])
        dist, other = dists[side], dists[not side]
        depth = dist[fronts[side][0]] + 1
        layer = []
        for x in fronts[side]:
            s = head[x]
            while s != -1:
                y = ends[s ^ 1]
                if (dist[y] == -1 and (edge_ok is None or edge_ok[s >> 1])
                        and (vertex_ok is None or vertex_ok[y])):
                    if other[y] != -1:
                        return depth + other[y]
                    dist[y] = depth
                    layer.append(y)
                s = nxt[s]
        if not layer:
            return None
        fronts[side] = layer


def _region_bfs(g: Graph, from_a: array, from_b: array, d: int, a: int, b: int,
                edge_ok: Sequence[int] | None) -> Path:
    """The BFS from a, level by level, over a's ball and the region.

    At level k it takes a neighbor y over an allowed edge when a's ball
    holds y at depth k + 1, or when y is outside it and b's ball holds y
    at d - k - 1: y is then k + 1 from a, so on a shortest a..b path.
    It writes each reached vertex's parent slot, the slot of ``ends``
    holding its parent on the edge it was reached by, over its distance
    from a, as ``-2 - slot``: below -1, it reads as neither.
    """
    ends = g.ends
    head, nxt = g.adjacency()
    level, depth = [a], 0
    while True:  # b is d from a, so a level reaches it
        depth += 1
        rest = d - depth
        next_level = []
        for x in level:
            reached = []
            s = head[x]
            while s != -1:
                y = ends[s ^ 1]
                near = from_a[y]
                if ((near == depth or near == -1 and from_b[y] == rest)
                        and (edge_ok is None or edge_ok[s >> 1])):
                    from_a[y] = -2 - s
                    if y == b:
                        verts = [b]
                        path_eids = []
                        while y != a:
                            s = -2 - from_a[y]
                            path_eids.append(s >> 1)
                            y = ends[s]
                            verts.append(y)
                        verts.reverse()
                        path_eids.reverse()
                        return Path(verts, path_eids)
                    reached.append(y)
                s = nxt[s]
            reached.sort()
            next_level += reached
        level = next_level
