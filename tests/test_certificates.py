"""Certificate verifiers and the side-assignment algebra."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bicert import (
    Bipartition,
    CheckOutcome,
    InputError,
    OddCycle,
    Path,
    build_graph,
    canonicalize_bipartition,
    check_path_parity,
    connected_components,
    flip_component,
    verify_bipartition,
    verify_odd_cycle,
    verify_outcome,
)
from conftest import four_cycle, graphs, triangle


class TestVerifyBipartition:
    def test_proper_assignment(self):
        assert verify_bipartition(four_cycle(), Bipartition([0, 1, 0, 1]))

    def test_clashing_edge(self):
        assert not verify_bipartition(four_cycle(), Bipartition([0, 0, 1, 1]))

    def test_loop_always_fails(self):
        g = build_graph(2, [(0, 0), (0, 1)])
        assert not verify_bipartition(g, Bipartition([0, 1]))
        assert not verify_bipartition(g, Bipartition([1, 0]))

    def test_partial_assignment_is_an_error(self):
        with pytest.raises(InputError):
            verify_bipartition(triangle(), Bipartition([0, 1]))

    def test_non_binary_side_is_an_error(self):
        with pytest.raises(InputError):
            verify_bipartition(triangle(), Bipartition([0, 1, 2]))

    def test_empty_graph(self):
        assert verify_bipartition(build_graph(0, []), Bipartition([]))


class TestVerifyOutcome:
    @pytest.mark.parametrize("side", [[0, 1], [0, 1, 2]], ids=["partial", "non-binary"])
    def test_malformed_assignment_is_false(self, side):
        # verify_bipartition raises for these; the outcome verifier rejects them
        assert verify_outcome(triangle(), CheckOutcome(bipartition=Bipartition(side))) is False

    def test_a_side_that_is_not_a_sequence_is_false(self):
        # verify_bipartition raises InputError, which the outcome verifier reads as False
        bp = Bipartition(None)
        with pytest.raises(InputError, match="^assignment must be a sequence, got NoneType$"):
            verify_bipartition(triangle(), bp)
        assert verify_outcome(triangle(), CheckOutcome(bipartition=bp)) is False

    @pytest.mark.parametrize("cycle", [
        OddCycle([[0], [1], [2]], [0, 1, 2]),
        OddCycle(None, [0, 1, 2]),
        OddCycle([0, 1, 2], None),
    ], ids=["unhashable-vertices", "no-vertices", "no-edge-ids"])
    def test_a_cycle_that_is_not_sequences_of_ints_is_false(self, cycle):
        assert verify_odd_cycle(triangle(), cycle) is False
        assert verify_outcome(triangle(), CheckOutcome(odd_cycle=cycle)) is False


class TestExactIds:
    """An id or a side value is an ``int`` exactly, as a checker makes it:
    a float or a bool that compares equal to one is refused, and an int
    past 2**31 is no vertex, edge id or side of a small graph."""

    @pytest.mark.parametrize("side, named", [
        ([0.0, 1.0], "0.0"), ([False, True], "False"), ([0, True], "True"),
        ([0, 2**31], "2147483648"), (bytes([0, 2]), "2"), (bytearray([1, 255]), "255"),
    ], ids=["floats", "bools", "a-bool", "past-2**31", "bytes", "bytearray"])
    def test_a_side_value_that_is_not_the_int_0_or_1_is_refused(self, side, named):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(InputError, match=f"^side values must be 0 or 1, got {named}$"):
            verify_bipartition(g, Bipartition(side))
        assert verify_outcome(g, CheckOutcome(bipartition=Bipartition(side))) is False

    @pytest.mark.parametrize("side", [[0, 1], bytes([0, 1]), bytearray([1, 0])])
    def test_int_sides_of_every_kind_verify(self, side):
        g = build_graph(2, [(0, 1)])
        assert verify_bipartition(g, Bipartition(side))
        assert verify_outcome(g, CheckOutcome(bipartition=Bipartition(side)))

    @pytest.mark.parametrize("cycle", [
        OddCycle([0.0, 1.0, 2.0], [0, 1, 2]),
        OddCycle([0, 1, 2], [0.0, 1.0, 2.0]),
        OddCycle([False, True, 2], [0, 1, 2]),
        OddCycle([0, 1, 2], [False, True, 2]),
        OddCycle([0, 1, 2 + 2**31], [0, 1, 2]),
        OddCycle([0, 1, 2], [0, 1, 2 + 2**31]),
        OddCycle([0, 1, 2], [0, 1, 2 - 2**32]),
    ], ids=["float-vertices", "float-edge-ids", "bool-vertices", "bool-edge-ids",
            "vertex-past-2**31", "edge-id-past-2**31", "edge-id-below-0"])
    def test_a_cycle_id_that_is_not_an_id_of_the_graph_is_false(self, cycle):
        assert verify_odd_cycle(triangle(), cycle) is False
        assert verify_outcome(triangle(), CheckOutcome(odd_cycle=cycle)) is False


class TestVerifyOddCycle:
    def test_triangle(self):
        assert verify_odd_cycle(triangle(), OddCycle([0, 1, 2], [0, 1, 2]))

    def test_loop_certificate(self):
        g = build_graph(2, [(0, 1), (1, 1)])
        assert verify_odd_cycle(g, OddCycle([1], [1]))
        assert not verify_odd_cycle(g, OddCycle([1], [0]))

    def test_even_length_rejected(self):
        assert not verify_odd_cycle(four_cycle(), OddCycle([0, 1, 2, 3], [0, 1, 2, 3]))

    def test_repeated_vertex_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0), (0, 1)])
        assert not verify_odd_cycle(g, OddCycle([0, 1, 0], [0, 3, 0]))

    def test_edge_id_out_of_range_rejected(self):
        assert not verify_odd_cycle(triangle(), OddCycle([0, 1, 2], [0, 1, 9]))

    def test_edge_joining_wrong_pair_rejected(self):
        assert not verify_odd_cycle(triangle(), OddCycle([0, 1, 2], [0, 0, 2]))

    def test_empty_sequence_rejected(self):
        assert not verify_odd_cycle(triangle(), OddCycle([], []))

    def test_length_mismatch_rejected(self):
        assert not verify_odd_cycle(triangle(), OddCycle([0, 1, 2], [0, 1]))

    def test_malformed_never_raises(self):
        # a sampling of garbage; the verifier must answer False quietly
        g = triangle()
        for cyc in [
            OddCycle([7, 8, 9], [0, 1, 2]),
            OddCycle([0], [0]),
            OddCycle([0, 0, 0], [0, 0, 0]),
        ]:
            assert verify_odd_cycle(g, cyc) is False


class TestFlipComponent:
    def test_flip_whole_component_preserves(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        bp = Bipartition([0, 1, 0, 1])
        flipped = flip_component(bp, [2, 3])
        assert flipped.side == bytes([0, 1, 1, 0])
        assert verify_bipartition(g, flipped)

    def test_involution(self):
        bp = Bipartition(bytes([0, 1, 0, 1]))
        assert flip_component(flip_component(bp, [0, 1]), [0, 1]) == bp

    def test_is_pure(self):
        bp = Bipartition([0, 0])
        flip_component(bp, [0])
        assert bp.side == [0, 0]

    def test_partial_component_can_break(self):
        g = build_graph(2, [(0, 1)])
        bp = Bipartition([0, 1])
        assert not verify_bipartition(g, flip_component(bp, [0]))

    def test_out_of_range_vertex(self):
        with pytest.raises(InputError):
            flip_component(Bipartition([0]), [3])

    @given(graphs(max_n=6), st.data())
    def test_flip_on_component_unions_preserves_verification(self, g, data):
        bp = Bipartition([0] * g.n)
        lab = connected_components(g)
        chosen = data.draw(
            st.lists(st.integers(0, max(lab.k - 1, 0)), unique=True)
            if lab.k else st.just([])
        )
        union = [v for v in range(g.n) if lab.component_of[v] in set(chosen)]
        ok_before = verify_bipartition(g, bp)
        ok_after = verify_bipartition(g, flip_component(bp, union))
        assert ok_before == ok_after


class TestCheckPathParity:
    def test_alternating(self):
        bp = Bipartition([0, 1, 0])
        assert check_path_parity(bp, Path([0, 1, 2], [0, 1]))

    def test_non_alternating(self):
        bp = Bipartition([0, 1, 1])
        assert not check_path_parity(bp, Path([0, 1, 2], [0, 1]))

    def test_zero_length(self):
        assert check_path_parity(Bipartition([0]), Path([0], []))

    def test_vertex_outside_assignment(self):
        with pytest.raises(InputError):
            check_path_parity(Bipartition([0]), Path([0, 4], [0]))

    def test_endpoints_share_side_iff_even_length(self):
        bp = Bipartition([0, 1, 0, 1])
        even = Path([0, 1, 2], [0, 1])
        odd = Path([0, 1], [0])
        assert check_path_parity(bp, even)
        assert bp.side[even.vertices[0]] == bp.side[even.vertices[-1]]
        assert check_path_parity(bp, odd)
        assert bp.side[odd.vertices[0]] != bp.side[odd.vertices[-1]]


class TestCanonicalize:
    def test_smallest_vertex_lands_on_side_zero(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        lab = connected_components(g)
        canon = canonicalize_bipartition(lab, Bipartition([1, 0, 0, 1]))
        assert canon.side == bytes([0, 1, 0, 1])

    def test_already_canonical_is_fixed_point(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        lab = connected_components(g)
        bp = Bipartition(bytes([0, 1, 0, 1]))
        assert canonicalize_bipartition(lab, bp) == bp

    def test_size_mismatch(self):
        lab = connected_components(build_graph(2, []))
        with pytest.raises(InputError):
            canonicalize_bipartition(lab, Bipartition([0]))


class TestCheckOutcome:
    def test_exactly_one_certificate(self):
        with pytest.raises(InputError):
            CheckOutcome()
        with pytest.raises(InputError):
            CheckOutcome(
                bipartition=Bipartition([]), odd_cycle=OddCycle([0], [0])
            )

    def test_branch_names(self):
        assert CheckOutcome(bipartition=Bipartition([])).branch == "bipartite"
        assert CheckOutcome(odd_cycle=OddCycle([0], [0])).branch == "odd_cycle"
