"""Certificates of two-colorability and their verifiers.

Every checker in this package returns one of two verifiable artifacts: a
``Bipartition`` (a proper two-sided assignment) or an ``OddCycle`` (an
odd-length closed walk through distinct vertices, length 1 meaning a loop).
Verification is linear and independent of how the certificate was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .graph import ComponentLabeling, Graph, Path


@dataclass(frozen=True)
class Bipartition:
    """Side assignment, one 0/1 byte per vertex."""

    side: bytes


@dataclass(frozen=True)
class OddCycle:
    """Cycle ``vertices[i] -- vertices[(i+1) % k]`` via ``edge_ids[i]``; k odd.

    k == 1 encodes a loop certificate.
    """

    vertices: list[int]
    edge_ids: list[int]

    @property
    def length(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class CheckOutcome:
    """Exactly one of ``bipartition`` / ``odd_cycle``."""

    bipartition: Bipartition | None = None
    odd_cycle: OddCycle | None = None

    def __post_init__(self):
        if (self.bipartition is None) == (self.odd_cycle is None):
            raise InputError("outcome must carry exactly one certificate")

    @property
    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    @property
    def branch(self) -> str:
        return "bipartite" if self.bipartition is not None else "odd_cycle"


def verify_bipartition(g: Graph, bp: Bipartition) -> bool:
    """True iff ``bp`` is a total 0/1 assignment separating every edge.

    A partial or non-binary assignment, or a side that is not a sequence,
    is an input error, not a False (``verify_outcome`` reads it as False).
    A side value is the int 0 or 1 exactly: ``0.0``, ``True`` and any other
    value that only compares equal to one is non-binary.  Loops can never
    be separated, so any loop forces False.
    """
    side = bp.side
    try:
        if len(side) != g.n:
            raise InputError(
                f"assignment covers {len(side)} vertices, graph has {g.n}"
            )
        if isinstance(side, (bytes, bytearray)):
            # every item is an int; what deleting 0s and 1s leaves is non-binary
            stray = side.translate(None, b"\x00\x01")
            if stray:
                raise InputError(f"side values must be 0 or 1, got {stray[0]!r}")
        else:
            for s in side:
                if type(s) is not int or (s != 0 and s != 1):
                    raise InputError(f"side values must be 0 or 1, got {s!r}")
        for u, v in g.edges():
            if side[u] == side[v]:
                return False
    except TypeError:  # no len, no items or no indexing
        raise InputError(f"assignment must be a sequence, got {type(side).__name__}") from None
    return True


def verify_odd_cycle(g: Graph, cycle: OddCycle) -> bool:
    """True iff ``cycle`` is a genuine odd cycle of ``g``.

    Malformed input returns False rather than raising: vertices and edge
    ids that are not sequences of ints are False, as are anything but an
    odd length >= 1, distinct vertices, edge ids in range, and each claimed
    edge joining the consecutive vertex pair it is assigned to (a loop for
    k == 1).  An id is an int exactly, as a checker makes it: ``1.0``,
    ``True`` and other values that only compare equal to an int are False.
    """
    verts = cycle.vertices
    eids = cycle.edge_ids
    try:
        k = len(verts)
        if k == 0 or k % 2 == 0 or len(eids) != k:
            return False
        if set(map(type, verts)) != {int} or set(map(type, eids)) != {int}:
            return False
        if len(set(verts)) != k:
            return False
        m = g.m
        ends = g.ends
        for i, eid in enumerate(eids):
            if not (0 <= eid < m):
                return False
            a, b = verts[i], verts[(i + 1) % k]
            u, v = ends[2 * eid], ends[2 * eid + 1]
            if (u, v) != (a, b) and (u, v) != (b, a):
                return False
    except TypeError:  # no len, or no items
        return False
    return True


def verify_outcome(g: Graph, outcome: CheckOutcome) -> bool:
    """Run the matching verifier for whichever certificate is present.

    A certificate too malformed to verify (a partial or non-binary
    assignment, a side that is not a sequence, or any malformed cycle) is
    False here, never an error.
    """
    if outcome.bipartition is not None:
        try:
            return verify_bipartition(g, outcome.bipartition)
        except InputError:
            return False
    return verify_odd_cycle(g, outcome.odd_cycle)


def flip_component(bp: Bipartition, component: Iterable[int]) -> Bipartition:
    """Swap the side of every vertex in ``component``; pure, an involution.

    Verification is preserved exactly when ``component`` is a union of whole
    connected components of the graph being certified.
    """
    side = bytearray(bp.side)
    for v in component:
        if not (0 <= v < len(side)):
            raise InputError(f"vertex {v} outside the assignment")
        side[v] ^= 1
    return Bipartition(bytes(side))


def check_path_parity(bp: Bipartition, path: Path) -> bool:
    """True iff sides strictly alternate along ``path``.

    For a verified bipartition this means the endpoints share a side exactly
    when the path length is even.  Zero-length paths alternate vacuously.
    """
    side = bp.side
    verts = path.vertices
    for v in verts:
        if not (0 <= v < len(side)):
            raise InputError(f"path vertex {v} outside the assignment")
    return all(side[verts[i]] != side[verts[i + 1]] for i in range(len(verts) - 1))


def canonicalize_bipartition(
    labeling: ComponentLabeling, bp: Bipartition
) -> Bipartition:
    """Flip components so the smallest vertex of each lands on side 0.

    Puts the two equivalent assignments of each component into one normal
    form, letting outputs of different algorithms be compared directly.
    """
    if len(bp.side) != len(labeling.component_of):
        raise InputError("assignment and labeling cover different vertex counts")
    flip = [0] * labeling.k
    seen = [False] * labeling.k
    for v, c in enumerate(labeling.component_of):
        if not seen[c]:
            seen[c] = True
            flip[c] = bp.side[v]
    return Bipartition(bytes(s ^ flip[c] for s, c in zip(bp.side, labeling.component_of)))
