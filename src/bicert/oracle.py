"""Exhaustive ground truth for small graphs.

Everything here is deliberately brute force and shares no code with the
checkers, so it can arbitrate them.  Size guards keep the exponential
enumeration at desk scale.
"""

from __future__ import annotations

import numpy as np

from .certificates import Bipartition, OddCycle
from .errors import InputError
from .graph import Graph

MAX_ASSIGNMENT_VERTICES = 20
MAX_CYCLE_SEARCH_VERTICES = 12


def _valid_assignments(g: Graph) -> np.ndarray:
    """Boolean vector over all 2^n assignments; ascending mask order is
    lexicographic order of side tuples when side[0] is the top bit."""
    n = g.n
    masks = np.arange(1 << n, dtype=np.uint32)
    valid = np.ones(masks.shape, dtype=bool)
    for u, v in g.edges():
        differs = ((masks >> (n - 1 - u)) ^ (masks >> (n - 1 - v))) & 1
        valid &= differs.astype(bool)
    return valid


def _guard(g: Graph, limit: int, what: str) -> None:
    if g.n > limit:
        raise InputError(f"{what} is limited to n <= {limit}, got n={g.n}")


def brute_force_bipartite(g: Graph) -> Bipartition | None:
    """First proper two-sided assignment in lexicographic order, else None."""
    _guard(g, MAX_ASSIGNMENT_VERTICES, "assignment enumeration")
    valid = _valid_assignments(g)
    idx = int(np.argmax(valid))
    if not valid[idx]:
        return None
    n = g.n
    return Bipartition(bytes((idx >> (n - 1 - i)) & 1 for i in range(n)))


def count_proper_2colorings(g: Graph) -> int:
    """Number of proper 0/1 assignments; 0 exactly when not bipartite."""
    _guard(g, MAX_ASSIGNMENT_VERTICES, "assignment enumeration")
    return int(_valid_assignments(g).sum())


def find_odd_cycle_exhaustive(g: Graph) -> OddCycle | None:
    """First odd simple cycle in canonical order, else None.

    Canonical order: cycles grouped by smallest contained vertex ``s``
    ascending; within a group, vertex sequences starting at ``s`` in
    lexicographic order (a loop at ``s`` is the sequence ``[s]``, which
    precedes every longer sequence).  Loops qualify as length-1 cycles.
    """
    _guard(g, MAX_CYCLE_SEARCH_VERTICES, "cycle enumeration")
    n = g.n
    # each vertex's (neighbor, edge id) pairs, a loop listed once
    adj_sorted: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    loop_at: dict[int, int] = {}
    for eid, (u, v) in enumerate(g.edges()):
        adj_sorted[u].append((v, eid))
        if u != v:
            adj_sorted[v].append((u, eid))
        elif u not in loop_at:
            loop_at[u] = eid
    for entries in adj_sorted:
        entries.sort()

    def search(s: int, path_v: list[int], path_e: list[int], on_path: set[int]):
        x = path_v[-1]
        for nbr, eid in adj_sorted[x]:
            if nbr == s:  # x is not s: a loop at s returns before search(s)
                if len(path_v) == 2 and eid == path_e[0]:
                    continue  # reusing the entry edge is a walk, not a cycle
                if len(path_v) % 2 == 1:
                    return OddCycle(list(path_v), path_e + [eid])
            elif nbr > s and nbr not in on_path:
                path_v.append(nbr)
                path_e.append(eid)
                on_path.add(nbr)
                found = search(s, path_v, path_e, on_path)
                if found is not None:
                    return found
                on_path.discard(nbr)
                path_e.pop()
                path_v.pop()
        return None

    for s in range(n):
        if s in loop_at:
            return OddCycle([s], [loop_at[s]])
        found = search(s, [s], [], {s})
        if found is not None:
            return found
    return None
