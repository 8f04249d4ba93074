"""Seeded graph generators with bit-stable output.

All randomness flows through SplitMix64 (Steele, Lea, and Vigna's published
64-bit mixer), so a given ``GenSpec`` produces the identical graph on every
platform and Python version.  The platform RNG is deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import InputError
from .graph import MAX_EDGES, MAX_VERTICES, Graph, build_graph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

FOREST_ISOLATION_PROBABILITY = 0.1


class SplitMix64:
    """Reference SplitMix64 stream; 64-bit state, 64-bit output."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # multiply-shift reduction; bias is bound/2^64, negligible and stable
        return (self.next_u64() * bound) >> 64

    def random(self) -> float:
        # 53-bit mantissa in [0, 1)
        return (self.next_u64() >> 11) * (2.0 ** -53)


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one generated graph.

    ``kind`` is a key of ``_KINDS``, which lists the fields each kind
    requires and the fields it may also set; every other field must keep
    its default.  ``m`` (edge count) and ``p`` (edge probability) are
    mutually exclusive.
    """

    kind: str
    n: int | None = None
    n_left: int | None = None
    n_right: int | None = None
    m: int | None = None
    p: float | None = None
    cycle_len: int | None = None
    allow_loops: bool = False
    allow_multi: bool = False
    seed: int = 0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _distinct_pairs(n: int, loops: bool) -> int:
    """The unordered pairs of ``n`` vertices, and the n loops when ``loops``."""
    return n * (n - 1) // 2 + (n if loops else 0)


def _random(spec: GenSpec, rng: SplitMix64) -> Graph:
    """Uniform random graph on ``n`` vertices.

    With ``p``: every unordered pair (and loop, when allowed) is included
    independently, pairs enumerated in ascending order.  With ``m``: pairs
    are drawn until ``m`` survive the loop/duplicate rules.
    """
    n = spec.n
    ids: list[int] = []
    if spec.p is not None:
        for u in range(n):
            start = u if spec.allow_loops else u + 1
            for v in range(start, n):
                if rng.random() < spec.p:
                    ids += u, v
    else:
        seen: set[tuple[int, int]] = set()
        while len(ids) < 2 * spec.m:
            u = rng.below(n)
            v = rng.below(n)
            if u == v and not spec.allow_loops:
                continue
            if not spec.allow_multi:
                key = (u, v) if u <= v else (v, u)
                if key in seen:
                    continue
                seen.add(key)
            ids += u, v
    return build_graph(n, ids, flat=True)


def _planted_bipartite(spec: GenSpec, rng: SplitMix64) -> Graph:
    """Graph with all edges between [0, n_left) and [n_left, n_left+n_right).

    ``p`` enumerates cross pairs in ascending order; ``m`` samples cross
    pairs with replacement, so parallel edges can occur.
    """
    return build_graph(spec.n_left + spec.n_right, _planted_ids(rng, spec), flat=True)


def _planted_ids(rng: SplitMix64, spec: GenSpec) -> list[int]:
    """The cross edges of a planted kind, as flat ids ``u, v, u, v, ...``."""
    left, right = spec.n_left, spec.n_right
    ids: list[int] = []
    if spec.p is not None:
        for u in range(left):
            for v in range(left, left + right):
                if rng.random() < spec.p:
                    ids += u, v
        return ids
    for _ in range(spec.m or 0):
        ids += rng.below(left), left + rng.below(right)
    return ids


def _planted_odd_cycle(spec: GenSpec, rng: SplitMix64) -> Graph:
    """A planted bipartite base plus one odd cycle on fresh vertices.

    The cycle occupies ids [base_n, base_n + cycle_len); when the base is
    non-empty, one bridge edge joins a random base vertex to the first
    cycle vertex.  An empty base yields the bare cycle.  ``m``/``p`` size
    the base; omitting both means an edgeless base.
    """
    cycle_len = spec.cycle_len
    base_n = spec.n_left + spec.n_right
    ids = _planted_ids(rng, spec)
    first = base_n
    for i in range(cycle_len - 1):
        ids += first + i, first + i + 1
    ids += first + cycle_len - 1, first
    if base_n > 0:
        ids += rng.below(base_n), first
    return build_graph(base_n + cycle_len, ids, flat=True)


def _forest(spec: GenSpec, rng: SplitMix64) -> Graph:
    """Uniform attachment forest.

    Vertex v > 0 stays isolated with probability 0.1, otherwise joins a
    uniformly chosen earlier vertex.  Always acyclic; m < n whenever n > 0.
    """
    n = spec.n
    ids: list[int] = []
    for v in range(1, n):
        if rng.random() < FOREST_ISOLATION_PROBABILITY:
            continue
        ids += rng.below(v), v
    return build_graph(n, ids, flat=True)


# kind -> (builder, required fields, fields it may also set).  The required
# fields are vertex counts, so their sum is the number of vertices built.
_KINDS = {
    "random": (_random, ("n",), ("m", "p", "allow_loops", "allow_multi")),
    "planted_bipartite": (_planted_bipartite, ("n_left", "n_right"), ("m", "p")),
    "planted_odd_cycle": (
        _planted_odd_cycle, ("n_left", "n_right", "cycle_len"), ("m", "p")
    ),
    "forest": (_forest, ("n",), ()),
}

KIND_NAMES = tuple(_KINDS)


def generate(spec: GenSpec) -> Graph:
    """Check ``spec`` with ``check_spec``, then build it."""
    check_spec(spec)
    return _KINDS[spec.kind][0](spec, SplitMix64(spec.seed))


def check_spec(spec: GenSpec) -> None:
    """Raise InputError unless ``generate`` can build ``spec``; build nothing.

    The fields are checked against the kind's row of ``_KINDS``, then the
    sizes against the limits, then what the kind needs of them.
    """
    try:
        _, required, optional = _KINDS[spec.kind]
    except KeyError:
        raise InputError(
            f"unknown kind {spec.kind!r}; expected one of {KIND_NAMES}"
        ) from None
    for field in fields(GenSpec):
        name = field.name
        value = getattr(spec, name)
        if name in required:
            _require(value is not None and value >= 0,
                     f"{spec.kind} requires {name} >= 0")
        elif name not in optional and name not in ("kind", "seed"):
            _require(value == field.default,
                     f"field {name!r} does not apply to kind {spec.kind!r}")
    total = sum(getattr(spec, name) for name in required)
    _require(total <= MAX_VERTICES,
             f"vertex count {total} exceeds the limit of {MAX_VERTICES}")
    _require(isinstance(spec.seed, int) and 0 <= spec.seed <= _MASK64,
             f"seed must be a 64-bit unsigned integer, got {spec.seed!r}")
    if spec.p is not None:
        _require(spec.m is None, "m and p are mutually exclusive")
        _require(0.0 <= spec.p <= 1.0, f"p must lie in [0, 1], got {spec.p}")
    if spec.m is not None:
        _require(spec.m >= 0, f"m must be non-negative, got {spec.m}")
    most = _most_edges(spec)
    _require(most <= MAX_EDGES,
             f"{spec.kind} may make {most} edges, more than the limit of {MAX_EDGES}")
    if spec.kind == "random":
        _require((spec.m is None) != (spec.p is None),
                 "random kind requires exactly one of m, p")
        if spec.m is not None:
            n = spec.n
            if spec.m > 0:
                _require(n >= 1 if spec.allow_loops else n >= 2,
                         f"no legal edges exist for n={n} with these flags")
            if not spec.allow_multi:
                capacity = _distinct_pairs(n, spec.allow_loops)
                _require(spec.m <= capacity,
                         f"m={spec.m} exceeds the {capacity} distinct pairs available")
        return
    if spec.kind == "planted_bipartite":
        _require((spec.m is None) != (spec.p is None),
                 "planted_bipartite requires exactly one of m, p")
    elif spec.kind == "planted_odd_cycle":
        cycle_len = spec.cycle_len
        _require(cycle_len >= 3 and cycle_len % 2 == 1,
                 f"cycle_len must be an odd integer >= 3, got {cycle_len}")
    if spec.m:  # a planted kind's cross edges; a forest has no m
        _require(spec.n_left > 0 and spec.n_right > 0,
                 "cross edges need both sides non-empty")


def _most_edges(spec: GenSpec) -> int:
    """The most edges ``spec`` can make: m, or every pair p enumerates, and a planted cycle's.

    ``check_spec`` refuses a spec over ``MAX_EDGES`` before any pair is drawn,
    since the graph would refuse the edges only once they were drawn.
    """
    if spec.p is None:
        most = spec.m or 0  # a forest has fewer edges than its n <= MAX_VERTICES
    elif spec.kind == "random":
        most = _distinct_pairs(spec.n, spec.allow_loops)
    else:
        most = spec.n_left * spec.n_right
    if spec.kind == "planted_odd_cycle":
        most += spec.cycle_len + 1  # the cycle and its bridge to the base
    return most
