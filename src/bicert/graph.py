"""Immutable undirected multigraph and basic structural operations.

Vertices are dense integers ``0..n-1`` and edges keep their input order as
dense ids ``0..m-1``.  Parallel edges and loops are legal everywhere in this
package; a loop is the edge ``(v, v)``.

Storage is flat and in stdlib arrays: one ``array('q')`` holds every edge's
two endpoints, and the adjacency is a compressed sparse row (CSR) index over
it, built the first time a reader asks for it.  Routes that only stream the
edges in id order never build it.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, compress, count, islice
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError

# the most vertices a Graph may have; a larger declared count is bad input,
# refused before any adjacency is allocated
MAX_VERTICES = 10_000_000


class Graph:
    """Edge-list multigraph with a lazily built CSR adjacency, frozen after construction.

    ``ends`` holds edge e's endpoints at ``2e`` and ``2e + 1``.  ``csr()``
    returns the adjacency ``(off, nbr, eid)``: for ``off[x] <= j < off[x + 1]``,
    ``nbr[j]`` and ``eid[j]`` are x's neighbors and the ids of the edges to
    them, in edge-id order.  A non-loop edge appears once at each endpoint, a
    loop exactly once, at its single endpoint.  Instances are treated as
    read-only values by every algorithm here; do not mutate ``ends`` or the
    CSR arrays.  ``first_loop`` is the id of the first loop, or None when
    there is none.
    """

    __slots__ = ("n", "ends", "first_loop", "_csr")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        ends = array("q")
        append = ends.append
        for eid, pair in enumerate(pairs):
            try:
                u, v = pair  # a wrong length must not shift the edges after it
                append(u)
                append(v)
            except (TypeError, ValueError):
                raise InputError(f"edge {eid} is not a pair of integers: {pair!r}") from None
            except OverflowError:  # past a 64-bit slot, so past any n
                del ends[2 * eid:]
                _check_range(n, ends)
                raise _out_of_range(n, eid, u, v) from None
        # checked before any adjacency is allocated, so a bad id costs no n slots
        _check_range(n, ends)
        loops = compress(count(), map(eq, islice(ends, 0, None, 2), islice(ends, 1, None, 2)))
        self.n = n
        self.ends = ends
        self.first_loop = next(loops, None)
        self._csr: tuple[array, array, array] | None = None

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

    def csr(self) -> tuple[array, array, array]:
        """The adjacency ``(off, nbr, eid)``, built on the first call and kept."""
        if self._csr is None:
            self._csr = _build_csr(self.n, self.ends, self.first_loop)
        return self._csr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.ends == other.ends

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _out_of_range(n: int, eid: int, u: int, v: int) -> InputError:
    return InputError(f"edge {eid} endpoint pair ({u}, {v}) out of range for n={n}")


def _check_range(n: int, ends: array) -> None:
    """Raise for the first edge in ``ends`` with an endpoint outside ``0..n-1``."""
    if ends and (min(ends) < 0 or max(ends) >= n):
        it = iter(ends)
        for eid, (u, v) in enumerate(zip(it, it)):
            if not (0 <= u < n and 0 <= v < n):
                raise _out_of_range(n, eid, u, v)


def _build_csr(n: int, ends: array, first_loop: int | None) -> tuple[array, array, array]:
    """Count degrees, then place each edge at its endpoints in edge-id order."""
    deg = array("q", [0]) * n
    for x in ends:
        deg[x] += 1
    if first_loop is not None:  # a loop was counted at both of its ends
        rest = islice(ends, 2 * first_loop, None)
        for u, v in zip(rest, rest):
            if u == v:
                deg[u] -= 1
    off = array("q", [0])
    off.extend(accumulate(deg))
    del deg
    pos = off[:-1]  # where each vertex's next entry goes
    nbr = array("q", [0]) * off[-1]
    eid = array("q", [0]) * off[-1]
    it = iter(ends)
    for e, (u, v) in enumerate(zip(it, it)):
        j = pos[u]
        pos[u] = j + 1
        nbr[j] = v
        eid[j] = e
        if u != v:
            j = pos[v]
            pos[v] = j + 1
            nbr[j] = u
            eid[j] = e
    return off, nbr, eid


def build_graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Construct a graph on ``n`` vertices from endpoint pairs.

    Edge ids are assigned in input order.  Raises InputError naming the
    offending edge when an item is not a pair of integers, or the first
    pair with an endpoint out of range.
    """
    return Graph(n, pairs)


class SimplifyResult(NamedTuple):
    graph: Graph
    removed: int


def simplify(g: Graph) -> SimplifyResult:
    """Drop parallel duplicates, keeping the first copy of each endpoint pair.

    Loops are retained (deduplicated like any other pair) because they decide
    the two-colorability verdict on their own.  The result has freshly dense
    edge ids; ``removed`` counts dropped duplicates.  Idempotent.
    """
    seen: set[tuple[int, int]] = set()
    kept: list[tuple[int, int]] = []
    for u, v in g.edges():
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        kept.append((u, v))
    return SimplifyResult(Graph(g.n, kept), g.m - len(kept))


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
    off, nbr, _ = g.csr()
    k = 0
    for seed in range(g.n):
        if label[seed] != -1:
            continue
        label[seed] = k
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            for j in range(off[x], off[x + 1]):
                y = nbr[j]
                if label[y] == -1:
                    label[y] = k
                    queue.append(y)
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
    yields the zero-length path.  Loops are never traversed.
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
    """``find_path`` over the graph's CSR adjacency, with masks.

    ``vertex_ok[v]`` and ``edge_ok[eid]`` (a bytearray, say) are truthy for
    the vertices and edge ids the path may use; None allows all of them.
    The caller makes sure ``a`` and ``b`` are allowed.

    The search keeps one ``array('q')`` slot per vertex: the id of the edge
    a reached vertex was reached by, whose other end is its parent.  Apart
    from allocating that array it visits only what it reaches, so its cost
    follows the region searched.  The scan of x's neighbors runs in edge-id
    order, so the first allowed edge to reach a vertex is its smallest
    allowed one; the vertices x reaches are then queued in ascending order.
    That is the ``(vertex, edge_id)`` order ``find_path`` promises.
    """
    if a == b:
        return Path([a], [])
    off, nbrs, eids = g.csr()
    ends = g.ends
    # the edge id each reached vertex was reached by; -1 unreached, -2 at a
    via = array("q", [-1]) * g.n
    via[a] = -2
    queue = deque([a])
    while queue:
        x = queue.popleft()
        reached = []
        for j in range(off[x], off[x + 1]):
            y = nbrs[j]
            if via[y] != -1 or (vertex_ok is not None and not vertex_ok[y]):
                continue
            e = eids[j]
            if edge_ok is not None and not edge_ok[e]:
                continue
            via[y] = e
            if y == b:
                verts = [b]
                path_eids = []
                while y != a:
                    path_eids.append(e)
                    y ^= ends[2 * e] ^ ends[2 * e + 1]
                    verts.append(y)
                    e = via[y]
                verts.reverse()
                path_eids.reverse()
                return Path(verts, path_eids)
            reached.append(y)
        reached.sort()
        queue.extend(reached)
    return None
