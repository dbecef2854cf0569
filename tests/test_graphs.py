"""Tests for graph specs, the edge predicate, and enumeration.

The frozen edge lists below were derived from the brute-force group
action first: every list is re-checked in-test against orbital
reconstruction (soundness and completeness both exact at these small
bounds), so the expected values never depend on the predicate under
test.
"""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import suborbital.graphs as graphs_module
from group_box import box, sign
from suborbital.errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidSpec,
    InvariantViolation,
)
from suborbital.graphs import (
    DirectedEdge,
    GraphSpec,
    edge_check,
    enumerate_graph,
    is_self_paired,
    paired_partner,
)
from suborbital.group import UnimodularMatrix, block_equivalent, gamma0_pair
from suborbital.oracle import (
    compare_edges_vs_orbital,
    transitivity_witness,
    verify_self_paired,
)
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


def record_lookups(monkeypatch, looked_up):
    """Make enumerate_graph's walk append every head it looks up to
    looked_up, in finf coordinates and as the walk spells it: the walk's
    point index is patched in as a dict whose get records each key."""

    class RecordingDict(dict):
        def get(self, key, *default):
            looked_up.append(key)
            return super().get(key, *default)

    monkeypatch.setattr(graphs_module, "dict", RecordingDict, raising=False)


def window_lookups(spec, bound):
    """The heads the walk must look up, tail by tail in vertex order and
    each tail's in step order, derived from _class_steps.  The tail 1/0 is
    admitted when the unit t that tails must match (1, or the forward unit
    for a reversed spec) is 1 or -1 mod m, and then looks up the (k, m)
    with |k| <= bound in the step class c.  An admitted finite tail r/s
    walks the line (x0, y0) + k*(r, s) with r*y0 - s*x0 = m, for every k
    in the range the real _class_steps returns, and looks each point up
    as itself if y > 0 and negated otherwise."""
    m, u = spec.modulus, spec.forward_u()
    t, c = (u, -spec.u) if spec.reversed else (1, u)
    want = []
    vertices = graphs_module._block_vertices(spec, bound)
    for r, s in graphs_module._as_finf(spec, vertices):
        if (r - t) % m and (r + t) % m:
            continue
        if s == 0:
            if m <= bound:
                want += [(k, m) for k in range(-bound, bound + 1) if (k - c) % m == 0]
            continue
        y0 = pow(r, -1, s)
        x0, y0 = m * ((r * y0 - 1) // s), m * y0
        assert r * y0 - s * x0 == m
        for k in graphs_module._class_steps(x0, r, y0, s, bound, c, m):
            x, y = x0 + k * r, y0 + k * s
            want.append((x, y) if y > 0 else (-x, -y))
    return want


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
        assert block_equivalent(INFINITY, INFINITY, 2)
        assert block_equivalent(ProjectiveRational(5, 6), INFINITY, 2)
        assert not block_equivalent(ProjectiveRational(1, 3), INFINITY, 2)
        assert block_equivalent(ZERO, ZERO, 3)
        assert block_equivalent(ProjectiveRational(-3, 4), ZERO, 3)
        assert not block_equivalent(ProjectiveRational(2, 3), ZERO, 3)
        assert not block_equivalent(INFINITY, ZERO, 3)


class TestDirectedEdge:
    def test_sign_must_match_order(self):
        hi, lo = ProjectiveRational(1, 2), ProjectiveRational(1, 4)
        assert str(DirectedEdge(hi, lo)) == "1/2 -> 1/4 [+]"
        assert str(DirectedEdge(lo, hi)) == "1/4 -> 1/2 [-]"
        assert str(DirectedEdge(INFINITY, lo)) == "1/0 -> 1/4 [+]"
        assert str(DirectedEdge(lo, INFINITY)) == "1/4 -> 1/0 [-]"

    def test_no_loops(self):
        v = ProjectiveRational(1, 2)
        with pytest.raises(InvariantViolation):
            DirectedEdge(v, v)

    def test_str(self):
        e = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        assert str(e) == "1/0 -> 1/2 [+]"

    def test_edge_is_its_plain_pair(self):
        e = DirectedEdge(ProjectiveRational(-2, -4), INFINITY)
        assert e == ((1, 2), (1, 0)) and ((1, 2), (1, 0)) == e
        assert hash(e) == hash(((1, 2), (1, 0)))
        assert ((1, 2), (1, 0)) in {e}
        assert (e.src, e.dst) == tuple(e)

    def test_fields_are_read_only(self):
        e = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        for field in ("src", "dst", "sign"):
            with pytest.raises(AttributeError):
                setattr(e, field, ZERO)
        assert e == (INFINITY, (1, 2))
        assert not hasattr(e, "__dict__")


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


class TestClassSteps:
    @pytest.mark.parametrize("dx", range(-3, 4))
    def test_matches_a_filter_of_every_step(self, dx):
        # k from -30 to 30 holds every step within these windows
        for dy, x, y, bound in itertools.product(
            range(1, 4), range(-8, 9), range(-8, 9), range(7)
        ):
            within = [
                k for k in range(-30, 31)
                if abs(x + k * dx) <= bound and abs(y + k * dy) <= bound
            ]
            for mod in range(1, 5):
                for cls in range(-mod, mod):
                    got = graphs_module._class_steps(x, dx, y, dy, bound, cls, mod)
                    want = [k for k in within if (k - cls) % mod == 0]
                    assert list(got) == want, (x, y, dy, bound, cls, mod)


class TestBlockVertices:
    @pytest.mark.parametrize("family", ["finf", "fzero"])
    def test_rows_match_a_gcd_filter_of_the_box(self, family):
        # every coprime (num, den) with |num| <= B and 0 <= den <= B in the
        # block, 1/0 spelled once as (1, 0): den == 0 (mod m) for finf,
        # num == 0 (mod m) for fzero, which holds 1/0 only at m = 1
        for m in range(1, 16):
            spec = GraphSpec(family, 1, m)
            for bound in range(1, 41):
                box = [
                    (num, den)
                    for num in range(-bound, bound + 1)
                    for den in range(bound + 1)
                    if math.gcd(num, den) == 1 and (den or num == 1)
                    and (den if family == "finf" else num) % m == 0
                ]
                got = graphs_module._block_vertices(spec, bound)
                assert [tuple(v) for v in got] == sorted(box), (spec, bound)
                assert ((1, 0) in box) == (family == "finf" or m == 1)


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
        report = compare_edges_vs_orbital(enumerate_graph(F12, 4), gamma0_pair(2, 1), 20)
        assert report.soundness_failures == ()
        assert report.completeness_misses == ()
        report = compare_edges_vs_orbital(enumerate_graph(F32, 4), gamma0_pair(1, 3), 20)
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
        report = compare_edges_vs_orbital(enumerate_graph(spec, 40), group, 60)
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

    def test_lowered_enumeration_ceiling_refuses(self, monkeypatch):
        # the work estimates of F[1, 2] at heights 6 and 7 are 366 and 422
        monkeypatch.setattr(graphs_module, "ENUMERATION_CEILING", 366)
        with pytest.raises(BoundTooLarge):
            enumerate_graph(F12, 7)

    def test_refusal_comes_from_the_estimate(self, monkeypatch):
        # no vertex is generated: the work estimate alone refuses
        monkeypatch.setattr(graphs_module, "_block_vertices", None)
        # 100005002 vertices plus 2400140001 lattice lookups
        with pytest.raises(BoundTooLarge, match="2500145003"):
            enumerate_graph(F12, 10_000)

    def test_enumeration_ceiling_admits_modulus_one_up_to_height_725(self):
        # F[1, 1] at height 725 has 640,192 vertices and 2,560,762 edges
        f11 = GraphSpec(family="finf", u=1, modulus=1)

        def estimate(bound):
            return (graphs_module._vertex_estimate(f11, bound)
                    + graphs_module._candidate_estimate(f11, bound))

        assert estimate(725) <= graphs_module.ENUMERATION_CEILING
        assert estimate(726) > graphs_module.ENUMERATION_CEILING

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_vertex_estimate_bounds_the_block(self, family, reversed_):
        # the vertices the walk generates; the block does not depend on u
        for m in range(1, 9):
            spec = GraphSpec(family=family, u=1, modulus=m, reversed=reversed_)
            for bound in range(1, 41):
                have = len(enumerate_graph(spec, bound).vertices)
                assert graphs_module._vertex_estimate(spec, bound) >= have

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_candidate_estimate_bounds_the_lookups(
        self, family, reversed_, monkeypatch
    ):
        # the lookups enumerate_graph makes: every head its lattice walk
        # hands to find, hit or miss, which depend on u, counted on the
        # vertex index itself.  Besides the estimate, they meet a bound
        # that counts the step class: an admitted finite tail r/s walks two
        # lines, and one class of k mod m meets at most B//(m*s) + 1 of
        # their heights in [0, B]; the tail 1/0 walks one class of x mod m
        # in [-B, B], at most 2B//m + 1 lookups
        lookups = 0

        class Index(dict):
            def get(self, key):
                nonlocal lookups
                lookups += 1
                return dict.get(self, key)

        def class_bound(spec, bound, vertices):
            m = spec.modulus
            t = spec.forward_u() if spec.reversed else 1
            return sum(
                2 * (bound // (m * s) + 1) if s else 2 * bound // m + 1
                for r, s in graphs_module._as_finf(spec, vertices)
                if (r - t) % m == 0 or (r + t) % m == 0
            )

        monkeypatch.setattr(graphs_module, "dict", Index, raising=False)
        tight = 0
        for m in range(1, 9):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=m, reversed=reversed_)
                for bound in range(1, 41):
                    lookups = 0
                    vertices = enumerate_graph(spec, bound).vertices
                    estimate = graphs_module._candidate_estimate(spec, bound)
                    assert estimate >= lookups
                    assert class_bound(spec, bound, vertices) >= lookups, (spec, bound)
                    tight += m >= 2 and bound >= m * m and lookups > 0
        assert tight >= 100

    def test_both_families_refuse_from_the_same_height(self, monkeypatch):
        # every family is priced as the one finf walk, so the first
        # refused height depends on the modulus alone; a sentinel in
        # place of the block generator marks an accepted height
        class Accepted(Exception):
            pass

        def accept(spec, bound):
            raise Accepted

        monkeypatch.setattr(graphs_module, "_block_vertices", accept)

        def first_refused(spec):
            lo, hi = 1, 10_000  # lo accepted, hi refused
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    enumerate_graph(spec, mid)
                except Accepted:
                    lo = mid
                except BoundTooLarge:
                    hi = mid
            return hi

        largest = {}
        for m in range(1, 9):
            heights = {
                first_refused(GraphSpec(family, u, m, reversed_))
                for family, reversed_ in (
                    ("finf", False), ("fzero", False), ("fzero", True)
                )
                for u in range(1, max(m, 2))
                if math.gcd(u, m) == 1
            }
            assert len(heights) == 1, (m, heights)
            largest[m] = heights.pop() - 1
        assert (largest[1], largest[2], largest[3], largest[7]) == (
            725, 1025, 1256, 1919
        )

    def test_zero_family_is_the_reflection_of_the_infinity_family(self):
        # R: x/y -> y/x maps F[u, m] onto F[m, u], and the reversed spec
        # onto the swapped image of F[forward_u, m]; both sides come from
        # finf graphs and are re-sorted as integer tuples here
        def reflect(v):
            return ProjectiveRational(v.den, v.num)

        def arcs(pairs):
            images = ((reflect(a), reflect(b)) for a, b in pairs)
            return sorted(images, key=lambda e: (*e[0], *e[1]))

        for m in range(1, 16):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                zero = GraphSpec(family="fzero", u=u, modulus=m)
                partner = GraphSpec(family="fzero", u=u, modulus=m, reversed=True)
                for bound in (1, 5, 17, 40):
                    finf = enumerate_graph(GraphSpec("finf", u, m), bound)
                    dual = enumerate_graph(
                        GraphSpec("finf", partner.forward_u(), m), bound
                    )
                    graph = enumerate_graph(zero, bound)
                    assert list(graph.vertices) == sorted(
                        (reflect(v) for v in finf.vertices), key=tuple
                    )
                    assert list(graph.edges) == arcs(finf.edges)
                    mirror = enumerate_graph(partner, bound)
                    assert mirror.vertices == graph.vertices
                    assert list(mirror.edges) == arcs((b, a) for a, b in dual.edges)
                    for g in (graph, mirror):
                        assert len(set(g.edges)) == len(g.edges), (g.spec, bound)

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_an_admitted_finite_tail_solves_one_window(
        self, family, reversed_, monkeypatch
    ):
        # the +m line across the symmetric window holds the -m line's heads
        # negated, so each admitted finite tail looks up exactly the points
        # of one _class_steps window, in step order, and the tail 1/0 the
        # (k, m) of its one line
        looked_up = []
        record_lookups(monkeypatch, looked_up)
        for m in range(1, 13):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=m, reversed=reversed_)
                for bound in (1, 2, 7, 30):
                    looked_up.clear()
                    enumerate_graph(spec, bound)
                    assert looked_up == window_lookups(spec, bound), (spec, bound)

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_every_congruence_test_accepts_an_edge(
        self, family, reversed_, monkeypatch
    ):
        # output-sensitive: each tail walks only the heads its congruences
        # allow, and every class-stepped point in the window is a vertex,
        # so every lookup is an edge, with the sign edge_check gives it
        heads = []
        record_lookups(monkeypatch, heads)
        for m in range(1, 13):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=m, reversed=reversed_)
                for bound in (1, 2, 3, 7, 13, 30):
                    heads.clear()
                    graph = enumerate_graph(spec, bound)
                    index = set(graphs_module._as_finf(spec, graph.vertices))
                    assert all(head in index for head in heads), (spec, bound)
                    assert len(heads) == len(graph.edges), (spec, bound)
                    for e in graph.edges:
                        assert edge_check(spec, e.src, e.dst) == sign(e), (spec, e)

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_walk_holds_only_what_the_constructors_would_build(
        self, family, reversed_
    ):
        # the walk builds its points and edges without the checking
        # constructors; each must still be exactly what they would give
        for m in range(1, 13):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=m, reversed=reversed_)
                for bound in range(1, 41):
                    graph = enumerate_graph(spec, bound)
                    for v in graph.vertices:
                        assert type(v) is ProjectiveRational, (spec, bound, v)
                        assert tuple(v) == tuple(ProjectiveRational(*v)), (spec, v)
                    for e in graph.edges:
                        assert type(e) is DirectedEdge, (spec, bound, e)
                        assert e.src != e.dst, (spec, bound, e)
                    assert len(set(graph.edges)) == len(graph.edges), (spec, bound)

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_solver_matches_quadratic_scan(self, family, reversed_):
        # every ordered vertex pair through edge_check; m = 1 puts 1/0 in
        # the fzero block, and bounds below m leave only the base vertices
        for m in range(1, 13):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=m, reversed=reversed_)
                for bound in (1, 2, 3, 7, 13, 30):
                    graph = enumerate_graph(spec, bound)
                    scanned = [
                        DirectedEdge(v, w)
                        for v in graph.vertices
                        for w in graph.vertices
                        if edge_check(spec, v, w) is not None
                    ]
                    in_order = sorted(scanned, key=lambda e: (*e.src, *e.dst))
                    assert graph.edges == tuple(in_order)

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_output_strictly_increases_as_integer_tuples(self, family, reversed_):
        # the canonical order is that of plain ints, never of point values
        for m in range(1, 13):
            for u in range(1, max(m, 2)):
                if math.gcd(u, m) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=m, reversed=reversed_)
                for bound in range(1, 31):
                    graph = enumerate_graph(spec, bound)
                    points = [(v.num, v.den) for v in graph.vertices]
                    assert all(p < q for p, q in zip(points, points[1:]))
                    arcs = [(*e.src, *e.dst) for e in graph.edges]
                    assert all(p < q for p, q in zip(arcs, arcs[1:]))

    def test_every_edge_satisfies_determinant_condition(self):
        for spec, bound, base in ((F12, 8, INFINITY), (F32, 8, ZERO)):
            graph = enumerate_graph(spec, bound)
            for e in graph.edges:
                delta = e.src.num * e.dst.den - e.src.den * e.dst.num
                assert abs(delta) == spec.modulus
                assert sign(e) == (1 if delta > 0 else -1)
                assert block_equivalent(e.src, base, spec.modulus)
                assert block_equivalent(e.dst, base, spec.modulus)

    def test_edges_closed_under_group_images(self):
        graph = enumerate_graph(F12, 6)
        for g in box(gamma0_pair(2, 1), 6):
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
        assert verify_self_paired(f13, 12).ok
        f23 = GraphSpec(family="finf", u=2, modulus=3)
        assert is_self_paired(f23) is False
        assert verify_self_paired(f23, 12).ok

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
        signs = {(e.src, e.dst): sign(e) for e in mirror.edges}
        for e in graph.edges:
            assert signs[(e.dst, e.src)] == -sign(e)

    def test_partner_base_edge_present(self):
        spec = GraphSpec(family="fzero", u=2, modulus=5)
        partner = paired_partner(spec)
        src, dst = partner.base_pair()
        assert (src, dst) == (ProjectiveRational(5, 2), ZERO)
        assert edge_check(partner, src, dst) == 1


def vertex_map(u1, u2, m):
    """The closed-form matrix sending m/u1 to m/u2, or None.

    (1 - u1, m; n, u2 + 1) has determinant 1 exactly when
    n = (u2 - u1*u2 - u1) / m, so it exists only when m divides that
    numerator.
    """
    numerator = u2 - u1 * u2 - u1
    if numerator % m != 0:
        return None
    return UnimodularMatrix(1 - u1, m, numerator // m, u2 + 1)


class TestVertexMap:
    def test_example_matrix(self):
        matrix = vertex_map(2, 4, 3)
        assert matrix == UnimodularMatrix(-1, 3, -2, 5)
        assert matrix.apply(ProjectiveRational(3, 2)) == ProjectiveRational(3, 4)
        assert not gamma0_pair(5, 3).contains(matrix)

    def test_modulus_one_always_mappable(self):
        matrix = vertex_map(3, 3, 1)
        assert matrix == UnimodularMatrix(-2, 1, -9, 4)
        assert matrix.apply(ProjectiveRational(1, 3)) == ProjectiveRational(1, 3)

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60)
    def test_determinant_and_image_always_correct(self, u1, u2, m):
        if math.gcd(u1, m) != 1 or math.gcd(u2, m) != 1:
            return
        matrix = vertex_map(u1, u2, m)
        if matrix is None:
            assert (u2 - u1 * u2 - u1) % m != 0
            return
        assert matrix.apply(ProjectiveRational(m, u1)) == ProjectiveRational(m, u2)


class TestTransitivityWitness:
    def test_identity_for_same_edge(self):
        graph = enumerate_graph(F12, 4)
        e = graph.edges[0]
        g = transitivity_witness(e, e, gamma0_pair(2, 1))
        assert g is not None
        assert g.apply(e.src) == e.src and g.apply(e.dst) == e.dst

    def test_base_edge_to_interior_edge(self):
        e1 = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        e2 = DirectedEdge(ProjectiveRational(1, 2), ProjectiveRational(1, 4))
        g = transitivity_witness(e1, e2, gamma0_pair(2, 1))
        assert g == UnimodularMatrix(1, 0, 2, 1)
        assert g.apply(e1.src) == e2.src
        assert g.apply(e1.dst) == e2.dst
        assert gamma0_pair(2, 1).contains(g)

    def test_no_witness_across_blocks(self):
        e1 = DirectedEdge(INFINITY, ProjectiveRational(1, 2))
        outside = DirectedEdge(ProjectiveRational(1, 1), ProjectiveRational(1, 3))
        assert not block_equivalent(e1.src, outside.src, 2)
        assert transitivity_witness(e1, outside, gamma0_pair(2, 1)) is None
