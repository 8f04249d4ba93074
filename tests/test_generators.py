"""Seeded generators: parameter validation, structure, and bit-stability."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import pytest

from bicert import (
    ALGORITHM_NAMES,
    GenSpec,
    InputError,
    SplitMix64,
    check,
    connected_components,
    generate,
    write_edge_list,
)
import bicert.generators as generators_module
from bicert.graph import MAX_EDGES, MAX_VERTICES

GOLDEN = Path(__file__).parent / "golden"


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 0: first outputs of the published mixer
        rng = SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535
        assert rng.next_u64() == 7960286522194355700

    def test_below_bounds(self):
        rng = SplitMix64(42)
        draws = [rng.below(10) for _ in range(1000)]
        assert all(0 <= d < 10 for d in draws)
        assert len(set(draws)) == 10

    def test_random_unit_interval(self):
        rng = SplitMix64(7)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(1000))


class TestGenRandom:
    def test_p_one_is_complete(self):
        g = generate(GenSpec(kind="random", n=5, p=1.0, seed=3))
        assert g.m == 10
        assert all(u != v for u, v in g.pairs)

    def test_p_zero_is_empty(self):
        assert generate(GenSpec(kind="random", n=5, p=0.0, seed=3)).m == 0

    def test_m_mode_exact_count(self):
        g = generate(GenSpec(kind="random", n=8, m=11, seed=5))
        assert g.m == 11
        seen = {tuple(sorted(e)) for e in g.pairs}
        assert len(seen) == 11  # no multi unless asked

    def test_golden_bytes(self):
        g = generate(GenSpec(kind="random", n=12, m=20, seed=7))
        expected = (GOLDEN / "random_n12_m20_s7.txt").read_text()
        assert write_edge_list(g) == expected

    def test_same_seed_same_graph(self):
        spec = GenSpec(kind="random", n=30, m=60, seed=99,
                       allow_loops=True, allow_multi=True)
        assert generate(spec) == generate(spec)

    def test_loops_only_when_allowed(self):
        spec = GenSpec(kind="random", n=4, p=1.0, allow_loops=True, seed=1)
        g = generate(spec)
        assert g.m == 10  # 6 pairs + 4 loops
        assert sum(1 for u, v in g.pairs if u == v) == 4

    def test_m_exceeding_capacity(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="random", n=3, m=4, seed=0))

    def test_m_with_multi_may_exceed_capacity(self):
        g = generate(GenSpec(kind="random", n=3, m=9, seed=0,
                             allow_multi=True))
        assert g.m == 9

    def test_requires_exactly_one_of_m_p(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="random", n=3, seed=0))
        with pytest.raises(InputError):
            generate(GenSpec(kind="random", n=3, m=1, p=0.5, seed=0))

    def test_p_out_of_range(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="random", n=3, p=1.5, seed=0))

    def test_edgeless_zero_vertices(self):
        assert generate(GenSpec(kind="random", n=0, p=1.0, seed=0)).n == 0

    def test_m_on_zero_vertices(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="random", n=0, m=1, seed=0))


class TestGenPlantedBipartite:
    def test_complete_bipartite(self):
        g = generate(GenSpec(kind="planted_bipartite",
                             n_left=3, n_right=3, p=1.0, seed=2))
        assert g.m == 9
        assert all(u < 3 <= v for u, v in g.pairs)

    def test_all_checkers_say_bipartite(self):
        g = generate(GenSpec(kind="planted_bipartite",
                             n_left=50, n_right=50, m=500, seed=3))
        for name in ALGORITHM_NAMES:
            assert check(g, name).is_bipartite

    def test_edges_cross_sides_in_m_mode(self):
        g = generate(GenSpec(kind="planted_bipartite",
                             n_left=4, n_right=6, m=30, seed=8))
        assert all(u < 4 <= v < 10 for u, v in g.pairs)

    def test_m_with_empty_side(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="planted_bipartite",
                             n_left=0, n_right=5, m=2, seed=0))

    def test_loops_flag_rejected(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="planted_bipartite",
                             n_left=2, n_right=2, m=1,
                             allow_loops=True, seed=0))


class TestGenPlantedOddCycle:
    def test_bare_cycle_on_empty_base(self):
        g = generate(GenSpec(kind="planted_odd_cycle",
                             n_left=0, n_right=0,
                             cycle_len=5, seed=9))
        assert g.n == 5
        assert g.pairs == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]

    def test_bare_triangle_on_empty_base(self):
        g = generate(GenSpec(kind="planted_odd_cycle",
                             n_left=0, n_right=0,
                             cycle_len=3, seed=9))
        assert g.n == 3 and g.m == 3

    def test_bridge_attaches_cycle_to_base(self):
        g = generate(GenSpec(kind="planted_odd_cycle",
                             n_left=2, n_right=2, m=3,
                             cycle_len=3, seed=4))
        assert g.n == 7
        bridge_u, bridge_v = g.pairs[-1]
        assert bridge_u < 4 and bridge_v == 4

    def test_all_checkers_find_the_plant(self):
        g = generate(GenSpec(kind="planted_odd_cycle",
                             n_left=10, n_right=10, m=30,
                             cycle_len=7, seed=11))
        for name in ALGORITHM_NAMES:
            assert check(g, name).branch == "odd_cycle"

    def test_even_cycle_len_rejected(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="planted_odd_cycle",
                             n_left=0, n_right=0,
                             cycle_len=4, seed=0))

    def test_cycle_len_one_rejected(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="planted_odd_cycle",
                             n_left=0, n_right=0,
                             cycle_len=1, seed=0))


class TestGenForest:
    def test_acyclic_by_construction(self):
        g = generate(GenSpec(kind="forest", n=200, seed=6))
        # a graph is a forest iff m = n - (number of components)
        assert g.m == g.n - connected_components(g).k

    def test_two_vertices_attached(self):
        g = generate(GenSpec(kind="forest", n=2, seed=0))
        assert g.pairs == [(0, 1)]

    def test_single_vertex(self):
        g = generate(GenSpec(kind="forest", n=1, seed=0))
        assert g.n == 1 and g.m == 0

    def test_isolation_happens(self):
        g = generate(GenSpec(kind="forest", n=500, seed=1))
        degree = [0] * g.n
        for u, v in g.pairs:
            degree[u] += 1
            degree[v] += 1
        assert any(d == 0 for d in degree[1:])

    def test_m_rejected(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="forest", n=5, m=2, seed=0))


class TestGenerateDispatch:
    def test_unknown_kind(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="smallworld", n=5, seed=0))

    def test_bad_seed_rejected(self):
        with pytest.raises(InputError):
            generate(GenSpec(kind="forest", n=5, seed=-1))
        with pytest.raises(InputError):
            generate(GenSpec(kind="forest", n=5, seed=1 << 64))


# a valid spec of each kind, and the fields each kind takes
VALID = {
    "random": dict(n=6, m=4, allow_loops=True, allow_multi=True),
    "planted_bipartite": dict(n_left=3, n_right=3, m=4),
    "planted_odd_cycle": dict(n_left=2, n_right=2, m=2, cycle_len=3),
    "forest": dict(n=6),
}
TAKES = {
    "random": {"n", "m", "p", "allow_loops", "allow_multi"},
    "planted_bipartite": {"n_left", "n_right", "m", "p"},
    "planted_odd_cycle": {"n_left", "n_right", "cycle_len", "m", "p"},
    "forest": {"n"},
}
REQUIRED = {
    "random": ("n",),
    "planted_bipartite": ("n_left", "n_right"),
    "planted_odd_cycle": ("n_left", "n_right", "cycle_len"),
    "forest": ("n",),
}
# a non-default value for every field a spec may set
FOREIGN = dict(n=4, n_left=2, n_right=2, m=2, p=0.5, cycle_len=3,
               allow_loops=True, allow_multi=True)


class TestSpecValidation:
    def test_foreign_values_cover_every_field(self):
        assert set(FOREIGN) == {f.name for f in fields(GenSpec)} - {"kind", "seed"}

    @pytest.mark.parametrize("kind, sizes, message", [
        ("random", dict(m=None), "random kind requires exactly one of m, p"),
        ("random", dict(n=1, allow_loops=False), "no legal edges exist for n=1 with these flags"),
        ("random", dict(m=22, allow_multi=False), "m=22 exceeds the 21 distinct pairs available"),
        ("planted_bipartite", dict(m=None), "planted_bipartite requires exactly one of m, p"),
        ("planted_bipartite", dict(n_left=0), "cross edges need both sides non-empty"),
        ("planted_odd_cycle", dict(cycle_len=4), "cycle_len must be an odd integer >= 3, got 4"),
        ("planted_odd_cycle", dict(n_right=0), "cross edges need both sides non-empty"),
    ])
    def test_check_spec_refuses_before_any_draw(self, kind, sizes, message, monkeypatch):
        spec = GenSpec(kind=kind, **{**VALID[kind], **sizes})
        monkeypatch.setattr(generators_module, "SplitMix64", None)  # no stream can be made
        for refuse in generators_module.check_spec, generate:
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                refuse(spec)

    @pytest.mark.parametrize("kind, name", [
        (kind, name) for kind in sorted(TAKES) for name in FOREIGN
        if name not in TAKES[kind]
    ])
    def test_field_the_kind_does_not_take(self, kind, name):
        spec = GenSpec(kind=kind, **{**VALID[kind], name: FOREIGN[name]})
        with pytest.raises(InputError, match=f"field '{name}' does not apply"):
            generate(spec)

    @pytest.mark.parametrize("kind, name, value", [
        (kind, name, value) for kind in sorted(REQUIRED)
        for name in REQUIRED[kind] for value in (None, -1)
    ])
    def test_required_field_missing_or_negative(self, kind, name, value):
        with pytest.raises(InputError, match=f"requires {name} >= 0"):
            generate(GenSpec(kind=kind, **{**VALID[kind], name: value}))

    @pytest.mark.parametrize("kind, sizes", [
        ("random", dict(n=MAX_VERTICES + 1)),
        ("forest", dict(n=4_000_000_000)),
        ("planted_bipartite", dict(n_left=MAX_VERTICES, n_right=1)),
        ("planted_odd_cycle", dict(n_left=MAX_VERTICES - 2, n_right=0, cycle_len=3)),
    ])
    def test_vertex_cap(self, kind, sizes):
        # refused before a single vertex is drawn
        with pytest.raises(InputError, match="exceeds the limit"):
            generate(GenSpec(kind=kind, **{**VALID[kind], **sizes}))

    @pytest.mark.parametrize("kind, sizes, most", [
        ("random", dict(n=2, m=MAX_EDGES + 1), MAX_EDGES + 1),
        ("random", dict(n=MAX_VERTICES, m=None, p=0.0, allow_loops=False),
         MAX_VERTICES * (MAX_VERTICES - 1) // 2),
        ("planted_bipartite", dict(m=10**10), 10**10),
        ("planted_bipartite", dict(n_left=40_000, n_right=40_000, m=None, p=0.0), 16 * 10**8),
        ("planted_odd_cycle", dict(m=MAX_EDGES - 3), MAX_EDGES + 1),  # with the cycle's 4
    ])
    def test_edge_cap(self, kind, sizes, most):
        # refused before a single pair is drawn or enumerated
        with pytest.raises(InputError, match=(
                f"^{kind} may make {most} edges, more than the limit of {MAX_EDGES}$")):
            generate(GenSpec(kind=kind, **{**VALID[kind], **sizes}))

    @pytest.mark.parametrize("kind, sizes", [
        ("random", dict(n=6, m=10)),
        ("random", dict(n=5, m=None, p=1.0, allow_loops=False)),
        ("random", dict(n=4, m=None, p=1.0)),  # loops allowed
        ("planted_bipartite", dict(n_left=2, n_right=5, m=None, p=1.0)),
        ("planted_odd_cycle", dict(m=6)),
        ("planted_odd_cycle", dict(n_left=2, n_right=3, m=None, p=1.0)),
    ])
    def test_edge_cap_boundary(self, kind, sizes, monkeypatch):
        # each spec makes 10 edges at most, and 10 at p = 1
        spec = GenSpec(kind=kind, **{**VALID[kind], **sizes})
        monkeypatch.setattr(generators_module, "MAX_EDGES", 10)
        assert generate(spec).m == 10
        monkeypatch.setattr(generators_module, "MAX_EDGES", 9)
        with pytest.raises(InputError, match=f"^{kind} may make 10 edges, more than the limit of 9$"):
            generate(spec)
