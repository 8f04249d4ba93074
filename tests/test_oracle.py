"""Exhaustive oracle: enumeration order, counts, and size guards."""

from __future__ import annotations

import pytest

from bicert import (
    InputError,
    build_graph,
    brute_force_bipartite,
    connected_components,
    count_proper_2colorings,
    find_odd_cycle_exhaustive,
    verify_bipartition,
    verify_odd_cycle,
)
from conftest import four_cycle, petersen, triangle


class TestBruteForce:
    def test_four_cycle_first_lexicographic(self):
        bp = brute_force_bipartite(four_cycle())
        assert bp is not None
        assert verify_bipartition(four_cycle(), bp)
        # masks 0..4 all clash on some edge; 0b0101 is the first survivor
        assert bp.side == bytes([0, 1, 0, 1])

    def test_triangle_is_none(self):
        assert brute_force_bipartite(triangle()) is None

    def test_loop_is_none(self):
        assert brute_force_bipartite(build_graph(1, [(0, 0)])) is None

    def test_empty_graph(self):
        bp = brute_force_bipartite(build_graph(0, []))
        assert bp is not None and bp.side == bytes([])

    def test_isolated_vertices_all_side_zero(self):
        bp = brute_force_bipartite(build_graph(3, []))
        assert bp.side == bytes([0, 0, 0])

    def test_size_guard(self):
        with pytest.raises(InputError):
            brute_force_bipartite(build_graph(21, []))


class TestColoringCount:
    def test_triangle_zero(self):
        assert count_proper_2colorings(triangle()) == 0

    def test_single_edge(self):
        assert count_proper_2colorings(build_graph(2, [(0, 1)])) == 2

    def test_forest_with_two_components(self):
        # 6 vertices, 2 components, nobody isolated: 2^2 colorings
        g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert connected_components(g).k == 2
        assert count_proper_2colorings(g) == 4

    def test_empty_graph_counts_one(self):
        assert count_proper_2colorings(build_graph(0, [])) == 1

    def test_size_guard(self):
        with pytest.raises(InputError):
            count_proper_2colorings(build_graph(21, []))


class TestCycleEnumeration:
    def test_triangle_canonical_first(self):
        cyc = find_odd_cycle_exhaustive(triangle())
        assert cyc.vertices == [0, 1, 2]
        assert cyc.edge_ids == [0, 1, 2]

    def test_four_cycle_none(self):
        assert find_odd_cycle_exhaustive(four_cycle()) is None

    def test_chorded_cycle_first_in_order(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        cyc = find_odd_cycle_exhaustive(g)
        # [0,1] extends before [0,2...]; closing edge is the chord
        assert cyc.vertices == [0, 1, 2]
        assert cyc.edge_ids == [0, 1, 4]
        assert verify_odd_cycle(g, cyc)

    def test_loop_is_length_one(self):
        g = build_graph(3, [(0, 1), (2, 2), (1, 2)])
        cyc = find_odd_cycle_exhaustive(g)
        assert cyc.vertices == [2] and cyc.edge_ids == [1]

    def test_loop_found_before_larger_start_vertices(self):
        # loop at 0 precedes the triangle on {1,2,3}
        g = build_graph(4, [(1, 2), (2, 3), (3, 1), (0, 0)])
        cyc = find_odd_cycle_exhaustive(g)
        assert cyc.vertices == [0]

    def test_parallel_pair_is_not_a_cycle(self):
        assert find_odd_cycle_exhaustive(build_graph(2, [(0, 1), (0, 1)])) is None

    def test_petersen_first_odd_is_length_five(self):
        assert find_odd_cycle_exhaustive(petersen()).length == 5

    def test_size_guard(self):
        with pytest.raises(InputError):
            find_odd_cycle_exhaustive(build_graph(13, []))

