"""Tests for graph specs, the edge predicate, and enumeration.

The frozen edge lists below were derived from the brute-force group
action first: every list is re-checked in-test against orbital
reconstruction (soundness and completeness both exact at these small
bounds), so the expected values never depend on the predicate under
test.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import suborbital.graphs as graphs_module
from suborbital.errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidSpec,
    InvariantViolation,
    NotMappable,
)
from suborbital.graphs import (
    DirectedEdge,
    GraphSpec,
    edge_check,
    enumerate_graph,
    is_self_paired,
    paired_partner,
    transitivity_witness,
    vertex_map_matrix,
)
from suborbital.group import UnimodularMatrix, block_equivalent, gamma0_pair
from suborbital.oracle import compare_edges_vs_orbital, enumerate_group, verify_self_paired
from suborbital.rational import INFINITY, ZERO, ProjectiveRational

F12 = GraphSpec(family="finf", u=1, modulus=2)
F32 = GraphSpec(family="fzero", u=2, modulus=3)

F12_AT_4_VERTICES = [
    "-3/2", "-3/4", "-1/2", "-1/4", "1/0", "1/2", "1/4", "3/2", "3/4",
]
F12_AT_4_EDGES = [
    "-3/2 -> 1/0 [-]",
    "-3/4 -> -1/2 [-]",
    "-1/2 -> -3/4 [+]",
    "-1/2 -> -1/4 [-]",
    "-1/2 -> 1/0 [-]",
    "-1/4 -> -1/2 [+]",
    "1/0 -> -3/2 [+]",
    "1/0 -> -1/2 [+]",
    "1/0 -> 1/2 [+]",
    "1/0 -> 3/2 [+]",
    "1/2 -> 1/0 [-]",
    "1/2 -> 1/4 [+]",
    "1/2 -> 3/4 [-]",
    "1/4 -> 1/2 [-]",
    "3/2 -> 1/0 [-]",
    "3/4 -> 1/2 [+]",
]
F32_AT_4_VERTICES = ["-3/1", "-3/2", "-3/4", "0/1", "3/1", "3/2", "3/4"]
F32_AT_4_EDGES = [
    "-3/1 -> -3/2 [-]",
    "-3/2 -> 0/1 [-]",
    "0/1 -> -3/1 [+]",
    "0/1 -> -3/4 [+]",
    "0/1 -> 3/2 [-]",
    "3/1 -> 0/1 [+]",
    "3/2 -> 3/1 [-]",
    "3/4 -> 0/1 [+]",
]


class TestGraphSpec:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            GraphSpec(family="nope", u=1, modulus=2)
        with pytest.raises(InvalidSpec):
            GraphSpec(family="finf", u=0, modulus=2)
        with pytest.raises(InvalidSpec):
            GraphSpec(family="finf", u=3, modulus=2)
        with pytest.raises(InvalidSpec):
            GraphSpec(family="finf", u=2, modulus=4)
        with pytest.raises(InvalidSpec):
            GraphSpec(family="finf", u=1, modulus=0)
        with pytest.raises(InvalidSpec):
            GraphSpec(family="finf", u=1, modulus=2, reversed=True)

    def test_base_pairs(self):
        assert F12.base_pair() == (INFINITY, ProjectiveRational(1, 2))
        assert F32.base_pair() == (ZERO, ProjectiveRational(3, 2))
        partner = paired_partner(F32)
        assert partner.base_pair() == (ProjectiveRational(3, 2), ZERO)

    def test_labels(self):
        assert F12.label() == "F[1, 2]"
        assert F32.label() == "F[3, 2]"
        assert paired_partner(F32).label() == "F[-3, 2]"

    def test_block_membership(self):
        assert F12.block_contains(INFINITY)
        assert F12.block_contains(ProjectiveRational(5, 6))
        assert not F12.block_contains(ProjectiveRational(1, 3))
        assert F32.block_contains(ZERO)
        assert F32.block_contains(ProjectiveRational(-3, 4))
        assert not F32.block_contains(ProjectiveRational(2, 3))
        assert not F32.block_contains(INFINITY)


class TestDirectedEdge:
    def test_sign_must_match_order(self):
        hi, lo = ProjectiveRational(1, 2), ProjectiveRational(1, 4)
        assert DirectedEdge(hi, lo).sign == 1
        assert DirectedEdge(lo, hi).sign == -1
        assert DirectedEdge(INFINITY, lo).sign == 1
        assert DirectedEdge(lo, INFINITY).sign == -1

    def test_no_loops(self):
        v = ProjectiveRational(1, 2)
        with pytest.raises(InvariantViolation):
            DirectedEdge(v, v)

    def test_str(self):
        e = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        assert str(e) == "1/0 -> 1/2 [+]"


class TestEdgeCheck:
    def test_base_edge_of_infinity_family(self):
        assert edge_check(F12, INFINITY, ProjectiveRational(1, 2)) == 1

    def test_reverse_of_base_edge(self):
        # the group element (1, -1; 2, -1) carries the base pair
        # (1/0, 1/2) onto (1/2, 1/0), so the reversed pair must be an
        # edge by invariance; its sign is negative because 1/2 < 1/0
        g = UnimodularMatrix(1, -1, 2, -1)
        assert gamma0_pair(2, 1).contains(g)
        assert g.apply(INFINITY) == ProjectiveRational(1, 2)
        assert g.apply(ProjectiveRational(1, 2)) == INFINITY
        assert edge_check(F12, ProjectiveRational(1, 2), INFINITY) == -1

    def test_base_edge_of_zero_family(self):
        assert edge_check(F32, ZERO, ProjectiveRational(3, 2)) == -1

    def test_non_edges(self):
        assert edge_check(F12, INFINITY, ProjectiveRational(1, 3)) is None
        assert edge_check(F12, ProjectiveRational(1, 4), ProjectiveRational(3, 4)) is None
        assert edge_check(F32, ZERO, ProjectiveRational(3, 4)) is None
        assert edge_check(F32, ZERO, ProjectiveRational(3, 1)) is None

    def test_edge_direction_is_not_symmetric_for_zero_family(self):
        # 3/4 -> 0/1 is an edge while its reverse is not; only the
        # self-paired graphs contain both orientations
        assert edge_check(F32, ProjectiveRational(3, 4), ZERO) == 1
        assert edge_check(F32, ZERO, ProjectiveRational(-3, 4)) == 1

    def test_loops_absent(self):
        for spec in (F12, F32):
            for v in (INFINITY, ZERO, ProjectiveRational(1, 2)):
                assert edge_check(spec, v, v) is None

    def test_interior_edge(self):
        assert edge_check(F12, ProjectiveRational(1, 2), ProjectiveRational(1, 4)) == 1

    def test_congruence_uses_both_vertex_lifts(self):
        # -1/3 is a Gamma0(3,1) image of the base vertex 1/0 via
        # (1, 0; -3, 1), reachable only when lifts of sign -1 are tried
        spec = GraphSpec(family="finf", u=1, modulus=3)
        g = UnimodularMatrix(1, 0, -3, 1)
        assert gamma0_pair(3, 1).contains(g)
        src, dst = g.apply(INFINITY), g.apply(ProjectiveRational(1, 3))
        assert src == ProjectiveRational(-1, 3)
        assert edge_check(spec, src, dst) is not None


class TestEnumerateGraph:
    def test_infinity_family_frozen(self):
        graph = enumerate_graph(F12, 4)
        assert [str(v) for v in graph.vertices] == F12_AT_4_VERTICES
        assert [str(e) for e in graph.edges] == F12_AT_4_EDGES

    def test_zero_family_frozen(self):
        graph = enumerate_graph(F32, 4)
        assert [str(v) for v in graph.vertices] == F32_AT_4_VERTICES
        assert [str(e) for e in graph.edges] == F32_AT_4_EDGES

    def test_frozen_lists_match_raw_group_action_exactly(self):
        # at these tiny bounds the bounded orbital reaches every edge,
        # so the frozen lists above equal the oracle set outright
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 20, 4)
        assert report.soundness_failures == ()
        assert report.completeness_misses == ()
        report = compare_edges_vs_orbital(F32, gamma0_pair(1, 3), 20, 4)
        assert report.soundness_failures == ()
        assert report.completeness_misses == ()

    @pytest.mark.parametrize("family", ["finf", "fzero"])
    @pytest.mark.parametrize(
        "u, m", [(u, m) for m in (8, 12) for u in range(1, m) if math.gcd(u, m) == 1]
    )
    def test_exact_orbit_where_one_has_more_than_two_square_roots(
        self, family, u, m
    ):
        # mod 8 and mod 12 have four square roots of 1, so a test of
        # r*r == 1 in place of r == 1 or -1 accepts extra edges; only
        # completeness against the orbit shows them
        spec = GraphSpec(family=family, u=u, modulus=m)
        group = gamma0_pair(m, 1) if family == "finf" else gamma0_pair(1, m)
        report = compare_edges_vs_orbital(spec, group, 60, 40)
        assert report.edge_count > 0
        assert report.soundness_failures == ()
        assert report.completeness_misses == ()

    def test_minimal_bound_keeps_only_infinity(self):
        graph = enumerate_graph(F12, 1)
        assert graph.vertices == (INFINITY,)
        assert graph.edges == ()

    def test_bad_bounds(self):
        with pytest.raises(InvalidBound):
            enumerate_graph(F12, 0)
        with pytest.raises(BoundTooLarge):
            enumerate_graph(F12, 10_001)

    def test_force_overrides_ceiling(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "HEIGHT_CEILING", 6)
        with pytest.raises(BoundTooLarge):
            enumerate_graph(F12, 7)
        graph = enumerate_graph(F12, 7, force=True)
        assert len(graph.edges) == 44

    def test_every_edge_satisfies_determinant_condition(self):
        for spec, bound in ((F12, 8), (F32, 8)):
            graph = enumerate_graph(spec, bound)
            for e in graph.edges:
                delta = e.src.num * e.dst.den - e.src.den * e.dst.num
                assert abs(delta) == spec.modulus
                assert e.sign == (1 if e.src > e.dst else -1)
                assert spec.block_contains(e.src)
                assert spec.block_contains(e.dst)

    def test_edges_closed_under_group_images(self):
        graph = enumerate_graph(F12, 6)
        sample = enumerate_group(gamma0_pair(2, 1), 6)
        for g in sample.elements:
            for e in graph.edges:
                v, w = g.apply(e.src), g.apply(e.dst)
                assert edge_check(F12, v, w) is not None

    def test_determinism(self):
        assert enumerate_graph(F12, 6) == enumerate_graph(F12, 6)


class TestSelfPaired:
    def test_examples(self):
        assert is_self_paired(F12) is True
        assert is_self_paired(GraphSpec(family="finf", u=2, modulus=5)) is True
        assert is_self_paired(GraphSpec(family="finf", u=2, modulus=7)) is False

    def test_square_plus_one_rule_matches_witness_search(self):
        # u*u = 1 (mod L) alone is not enough: no determinant-one matrix
        # swaps the base pair unless L divides u*u + 1, which the
        # bounded search confirms configuration by configuration
        f13 = GraphSpec(family="finf", u=1, modulus=3)
        assert is_self_paired(f13) is False
        assert verify_self_paired(f13, 12).agrees
        f23 = GraphSpec(family="finf", u=2, modulus=3)
        assert is_self_paired(f23) is False
        assert verify_self_paired(f23, 12).agrees

    def test_reversal_closure_only_when_witness_is_in_group(self):
        # u = 1 puts the swapping matrix (1, -1; 2, -1) inside the
        # congruence subgroup, so F[1, 2] contains every reversed edge
        graph = enumerate_graph(F12, 10)
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert pairs and all((dst, src) in pairs for src, dst in pairs)
        # F[2, 5] is self-paired through a full-group witness, but that
        # witness has a = 2 (not 1 mod 5) and so falls outside the
        # subgroup; the enumerated edge set is not reversal-closed
        graph = enumerate_graph(GraphSpec(family="finf", u=2, modulus=5), 12)
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert pairs
        assert any((dst, src) not in pairs for src, dst in pairs)


class TestPairedPartner:
    def test_examples(self):
        p = paired_partner(GraphSpec(family="fzero", u=3, modulus=7))
        assert (p.u, p.modulus, p.reversed) == (5, 7, True)
        assert p.label() == "F[-7, 5]"
        p = paired_partner(GraphSpec(family="fzero", u=2, modulus=5))
        assert (p.u, p.label()) == (3, "F[-5, 3]")
        p = paired_partner(GraphSpec(family="fzero", u=1, modulus=6))
        assert (p.u, p.label()) == (1, "F[-6, 1]")

    def test_round_trip(self):
        for u, m in ((3, 7), (2, 5), (3, 8), (1, 4)):
            spec = GraphSpec(family="fzero", u=u, modulus=m)
            assert paired_partner(paired_partner(spec)) == spec

    def test_infinity_family_rejected(self):
        with pytest.raises(InvalidSpec):
            paired_partner(F12)

    def test_edge_sets_are_mutual_reverses(self):
        spec = GraphSpec(family="fzero", u=2, modulus=5)
        graph = enumerate_graph(spec, 10)
        mirror = enumerate_graph(paired_partner(spec), 10)
        assert {(e.dst, e.src) for e in graph.edges} == {
            (e.src, e.dst) for e in mirror.edges
        }
        signs = {(e.src, e.dst): e.sign for e in mirror.edges}
        for e in graph.edges:
            assert signs[(e.dst, e.src)] == -e.sign

    def test_partner_base_edge_present(self):
        spec = GraphSpec(family="fzero", u=2, modulus=5)
        partner = paired_partner(spec)
        src, dst = partner.base_pair()
        assert (src, dst) == (ProjectiveRational(5, 2), ZERO)
        assert edge_check(partner, src, dst) == 1


class TestVertexMap:
    def test_example_matrix(self):
        witness = vertex_map_matrix(2, 4, 5, 3)
        assert witness.matrix == UnimodularMatrix(-1, 3, -2, 5)
        assert witness.matrix.apply(ProjectiveRational(3, 2)) == ProjectiveRational(3, 4)
        assert witness.in_group is False

    def test_modulus_one_always_mappable(self):
        witness = vertex_map_matrix(3, 3, 4, 1)
        assert witness.matrix == UnimodularMatrix(-2, 1, -9, 4)
        assert witness.matrix.apply(ProjectiveRational(1, 3)) == ProjectiveRational(1, 3)

    def test_not_mappable(self):
        with pytest.raises(NotMappable):
            vertex_map_matrix(1, 2, 2, 3)

    def test_invalid_units(self):
        with pytest.raises(InvalidSpec):
            vertex_map_matrix(3, 1, 2, 6)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60)
    def test_determinant_and_image_always_correct(self, u1, u2, m):
        if math.gcd(u1, m) != 1 or math.gcd(u2, m) != 1:
            return
        try:
            witness = vertex_map_matrix(u1, u2, 3, m)
        except NotMappable:
            assert (u2 - u1 * u2 - u1) % m != 0
            return
        assert witness.matrix.apply(ProjectiveRational(m, u1)) == ProjectiveRational(m, u2)


class TestTransitivityWitness:
    def test_identity_for_same_edge(self):
        graph = enumerate_graph(F12, 4)
        e = graph.edges[0]
        g = transitivity_witness(F12, e, e, gamma0_pair(2, 1), 5)
        assert g is not None
        assert g.apply(e.src) == e.src and g.apply(e.dst) == e.dst

    def test_base_edge_to_interior_edge(self):
        e1 = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        e2 = DirectedEdge(ProjectiveRational(1, 2), ProjectiveRational(1, 4))
        g = transitivity_witness(F12, e1, e2, gamma0_pair(2, 1), 10)
        assert g == UnimodularMatrix(1, 0, 2, 1)
        assert g.apply(e1.src) == e2.src
        assert g.apply(e1.dst) == e2.dst
        assert gamma0_pair(2, 1).contains(g)

    def test_no_witness_across_blocks(self):
        e1 = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        outside = DirectedEdge(ProjectiveRational(1, 1), ProjectiveRational(1, 3))
        assert not block_equivalent(e1.src, outside.src, 2)
        assert transitivity_witness(F12, e1, outside, gamma0_pair(2, 1), 10) is None
