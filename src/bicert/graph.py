"""Immutable undirected multigraph and basic structural operations.

Vertices are dense integers ``0..n-1`` and edges keep their input order as
dense ids ``0..m-1``.  Parallel edges and loops are legal everywhere in this
package; a loop is the edge ``(v, v)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError

# the most vertices a Graph may have; a larger declared count is bad input,
# refused before any adjacency list is allocated
MAX_VERTICES = 10_000_000


class Graph:
    """Adjacency-list multigraph, frozen after construction.

    A non-loop edge appears once in each endpoint's adjacency list; a loop
    appears exactly once, in its single endpoint's list.  Entries are
    ``(neighbor, edge_id)`` pairs in edge-id order.  Instances are treated
    as read-only values by every algorithm here; do not mutate ``pairs``
    or ``adj`` after construction.  ``first_loop`` is the id of the first
    loop, or None when there is none.
    """

    __slots__ = ("n", "pairs", "adj", "first_loop")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        copied = [(u, v) for u, v in pairs]
        # checked before adj is allocated, so a bad id costs no n lists
        for eid, (u, v) in enumerate(copied):
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(
                    f"edge {eid} endpoint pair ({u}, {v}) out of range for n={n}"
                )
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        first_loop = None
        for eid, (u, v) in enumerate(copied):
            adj[u].append((v, eid))
            if u != v:
                adj[v].append((u, eid))
            elif first_loop is None:
                first_loop = eid
        self.n = n
        self.pairs = copied
        self.adj = adj
        self.first_loop = first_loop

    @property
    def m(self) -> int:
        return len(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Construct a graph on ``n`` vertices from endpoint pairs.

    Edge ids are assigned in input order.  Raises InputError naming the
    offending pair when an endpoint is out of range.
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
    for u, v in g.pairs:
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
    adj = g.adj
    k = 0
    for seed in range(g.n):
        if label[seed] != -1:
            continue
        label[seed] = k
        queue = deque([seed])
        while queue:
            x = queue.popleft()
            for nbr, _ in adj[x]:
                if label[nbr] == -1:
                    label[nbr] = k
                    queue.append(nbr)
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
    return bfs_path(g.adj, a, b, vertex_ok=member)


def bfs_path(
    adj: list[list[tuple[int, int]]],
    a: int,
    b: int,
    vertex_ok: Sequence[int] | None = None,
    edge_ok: Sequence[int] | None = None,
) -> Path | None:
    """``find_path`` over ``(neighbor, edge_id)`` adjacency lists and masks.

    ``vertex_ok[v]`` and ``edge_ok[eid]`` (a bytearray, say) are truthy for
    the vertices and edge ids the path may use; None allows all of them.
    The search visits only what it reaches, so its cost follows the region
    searched, not the size of the graph.  The caller makes sure ``a`` and
    ``b`` are allowed.
    """
    if a == b:
        return Path([a], [])
    parent: dict[int, tuple[int, int]] = {a: (-1, -1)}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        for nbr, eid in sorted(adj[x]):
            if (
                nbr in parent
                or (vertex_ok is not None and not vertex_ok[nbr])
                or (edge_ok is not None and not edge_ok[eid])
            ):
                continue
            parent[nbr] = (x, eid)
            if nbr == b:
                verts = [b]
                eids = []
                cur = b
                while cur != a:
                    prev, via = parent[cur]
                    eids.append(via)
                    verts.append(prev)
                    cur = prev
                verts.reverse()
                eids.reverse()
                return Path(verts, eids)
            queue.append(nbr)
    return None
