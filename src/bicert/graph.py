"""Immutable undirected multigraph and basic structural operations.

Vertices are dense integers ``0..n-1`` and edges keep their input order as
dense ids ``0..m-1``.  Parallel edges and loops are legal everywhere in this
package; a loop is the edge ``(v, v)``.

Storage is flat and in stdlib arrays: one ``array('q')`` holds every edge's
two endpoints, and the adjacency links each vertex's endpoint slots in that
array into a list, built the first time a reader asks for it.  Routes that
only stream the edges in id order never build it.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InputError

# the most vertices a Graph may have; a larger declared count is bad input,
# refused before any adjacency is allocated
MAX_VERTICES = 10_000_000
# pairs flattened into one run at a time: a run's list and its two halves
# for the loop check stay under 1 MiB
_RUN_PAIRS = 1 << 14


class Graph:
    """Edge-list multigraph with a lazily built adjacency, frozen after construction.

    ``ends`` holds edge e's endpoints at slots ``2e`` and ``2e + 1``.
    ``adjacency()`` returns ``(head, nxt)``: ``head[x]`` is the first slot of
    ``ends`` holding x and ``nxt[s]`` the next slot holding ``ends[s]``, -1
    ending a list.  Walking x's list visits its edges in edge-id order; at
    slot s the neighbor is ``ends[s ^ 1]`` and the edge id ``s >> 1``.  A
    non-loop edge appears once at each endpoint, a loop twice, once per slot.
    Instances are treated as read-only values by every algorithm here; do not
    mutate ``ends`` or the adjacency arrays.  ``first_loop`` is the id of the
    first loop, or None when there is none.
    """

    __slots__ = ("n", "ends", "first_loop", "_adj")

    def __init__(self, n: int, pairs: Iterable[tuple[int, int]]):
        """The graph on ``n`` vertices whose edges are ``pairs``, in order.

        The pairs are flattened ``_RUN_PAIRS`` at a time into runs for
        ``_take``; from the first run it refuses on, they are appended one
        by one, so that the error names the first bad edge.
        """
        self._start(n)
        it = iter(pairs)
        while chunk := list(islice(it, _RUN_PAIRS)):
            if not self._take(_flat(chunk)):
                self._take_pairs(chain(chunk, it))
                return

    def _start(self, n: int) -> None:
        """Set the fields of a graph on ``n`` vertices and no edges yet."""
        if n < 0:
            raise InputError(f"vertex count must be non-negative, got {n}")
        if n > MAX_VERTICES:
            raise InputError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
        self.n = n
        self.ends = array("q")
        self.first_loop: int | None = None
        self._adj: tuple[array, array] | None = None

    def _take(self, run: list | None) -> bool:
        """Append ``run``, flat endpoint ids ``u, v, u, v, ...``, as edges.

        A run that is None, of odd length, or holds anything but ints in
        ``0..n-1`` is refused: ``ends`` stays as it was and False is
        returned.  Every check is a C-level pass over the run, so an id
        past a 64-bit slot is refused by its value, never by an
        OverflowError.
        """
        if run is None or len(run) & 1:
            return False
        if not run:
            return True
        ends = self.ends
        try:
            if min(run) < 0 or max(run) >= self.n:
                return False
            first = len(ends) >> 1
            ends.fromlist(run)
        except TypeError:  # an item that is not an int
            return False
        if self.first_loop is None:
            halves = run[0::2], run[1::2]
            if any(map(eq, *halves)):
                self.first_loop = first + list(map(eq, *halves)).index(True)
        return True

    def _take_pairs(self, pairs: Iterator) -> None:
        """Append ``pairs`` one by one, raising InputError naming the first bad edge."""
        n, ends = self.n, self.ends
        first = len(ends) >> 1
        append = ends.append
        for eid, pair in enumerate(pairs, first):
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
        _check_range(n, ends)
        if self.first_loop is None:
            self.first_loop = next(compress(count(first), map(
                eq, islice(ends, 2 * first, None, 2), islice(ends, 2 * first + 1, None, 2))), None)

    @classmethod
    def _from_runs(cls, n: int, runs: Iterable[list]) -> Graph:
        """The graph whose ``ends`` are ``runs``, lists of flat ids, joined.

        A refused run (see ``_take``) raises InputError.
        """
        g = cls.__new__(cls)
        g._start(n)
        for i, run in enumerate(runs):
            if not g._take(run):
                raise InputError(f"run {i} is not an even count of ints in 0..{n - 1}")
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

    def adjacency(self) -> tuple[array, array]:
        """The slot lists ``(head, nxt)``, built on the first call and kept."""
        if self._adj is None:
            ends = self.ends
            head = array("q", [-1]) * self.n
            nxt = array("q", [-1]) * len(ends)
            # prepending from the last slot down leaves each list ascending
            for s, x in zip(range(len(ends) - 1, -1, -1), reversed(ends)):
                nxt[s] = head[x]
                head[x] = s
            self._adj = head, nxt
        return self._adj

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


def _flat(pairs: list) -> list | None:
    """``pairs`` flattened to ``u, v, u, v, ...``, or None unless each has two items."""
    try:
        if min(map(len, pairs)) == 2:
            run = list(chain.from_iterable(pairs))
            # none is shorter than two, so none is longer when they add up to two each
            if len(run) == 2 * len(pairs):
                return run
    except TypeError:  # an item without a length
        pass
    return None


def build_graph(n: int, pairs: Iterable, *, flat: bool = False) -> Graph:
    """Construct a graph on ``n`` vertices from endpoint pairs.

    Edge ids are assigned in input order.  Raises InputError naming the
    offending edge when an item is not a pair of integers, or the first
    pair with an endpoint out of range.

    ``flat`` is internal to the readers in ``formats.py``: ``pairs`` is then
    an iterable of runs, lists of flat ids ``u, v, u, v, ...``, each checked
    whole at C speed, and a refused run raises InputError naming the run,
    not an edge.  The readers pass it here rather than to ``Graph._from_runs``
    only so that ``perfbench/traced_check.py``, which wraps
    ``formats.build_graph``, still times their build.
    """
    return Graph._from_runs(n, pairs) if flat else Graph(n, pairs)


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
    ends = g.ends
    head, nxt = g.adjacency()
    k = 0
    for seed in range(g.n):
        if label[seed] != -1:
            continue
        label[seed] = k
        queue = deque([seed])
        while queue:
            s = head[queue.popleft()]
            while s != -1:
                y = ends[s ^ 1]
                if label[y] == -1:
                    label[y] = k
                    queue.append(y)
                s = nxt[s]
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
    """``find_path`` over the graph's adjacency, with masks.

    ``vertex_ok[v]`` and ``edge_ok[eid]`` (a bytearray, say) are truthy for
    the vertices and edge ids the path may use; None allows all of them.
    The caller makes sure ``a`` and ``b`` are allowed.

    The search keeps one ``array('q')`` slot per vertex: the slot of ``ends``
    that holds a reached vertex's parent, on the edge it was reached by.
    Apart from allocating that array it visits only what it reaches, so its
    cost follows the region searched.  The walk of x's slot list runs in
    edge-id order, so the first allowed edge to reach a vertex is its
    smallest allowed one; the vertices x reaches are then queued in
    ascending order.  That is the ``(vertex, edge_id)`` order ``find_path``
    promises.
    """
    if a == b:
        return Path([a], [])
    ends = g.ends
    head, nxt = g.adjacency()
    # the parent's slot on the edge each reached vertex was reached by;
    # -1 unreached, -2 at a
    via = array("q", [-1]) * g.n
    via[a] = -2
    queue = deque([a])
    while queue:
        reached = []
        s = head[queue.popleft()]
        while s != -1:
            y = ends[s ^ 1]
            if (via[y] == -1 and (vertex_ok is None or vertex_ok[y])
                    and (edge_ok is None or edge_ok[s >> 1])):
                via[y] = s
                if y == b:
                    verts = [b]
                    path_eids = []
                    while y != a:
                        path_eids.append(s >> 1)
                        y = ends[s]
                        verts.append(y)
                        s = via[y]
                    verts.reverse()
                    path_eids.reverse()
                    return Path(verts, path_eids)
                reached.append(y)
            s = nxt[s]
        reached.sort()
        queue.extend(reached)
    return None
