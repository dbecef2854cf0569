"""Tests for the brute-force ground-truth module."""

import collections
import itertools
import math
import random

import pytest

import suborbital.graphs as graphs_module
import suborbital.oracle as oracle_module
from suborbital.errors import BoundTooLarge, InvalidBound, InvalidModulus, InvalidSpec
from suborbital.cli import main
from suborbital.graphs import DirectedEdge, GraphSpec, edge_check, enumerate_graph
from suborbital.group import (
    IDENTITY,
    SubgroupSpec,
    UnimodularMatrix,
    full_group,
    gamma0,
    gamma0_pair,
    principal,
)
from suborbital.oracle import (
    OrbitalReport,
    compare_edges_vs_orbital,
    count_blocks,
    enumerate_group,
    transitivity_witness,
    verify_lattice_identity,
    verify_self_paired,
)
from suborbital.rational import INFINITY, ZERO, ProjectiveRational, dedekind_psi

F12 = GraphSpec(family="finf", u=1, modulus=2)
F32 = GraphSpec(family="fzero", u=2, modulus=3)

FULL_AT_1 = [
    "[[-1, -1], [1, 0]]",
    "[[-1, 0], [1, -1]]",
    "[[0, -1], [1, -1]]",
    "[[0, -1], [1, 0]]",
    "[[0, -1], [1, 1]]",
    "[[1, -1], [0, 1]]",
    "[[1, -1], [1, 0]]",
    "[[1, 0], [0, 1]]",
    "[[1, 0], [1, 1]]",
    "[[1, 1], [0, 1]]",
]


def naive_scan(bound):
    """Four-nested-loop reference enumeration, deliberately dumb."""
    out = set()
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 1:
                        out.add(UnimodularMatrix(a, b, c, d))
    return out


class TestEnumerateGroup:
    def test_full_at_one_frozen(self):
        sample = enumerate_group(full_group(), 1)
        assert [str(g) for g in sample.elements] == FULL_AT_1
        assert IDENTITY in sample.elements

    def test_matches_naive_scan(self):
        for bound in (1, 2, 3, 4):
            fast = set(enumerate_group(full_group(), bound).elements)
            assert fast == naive_scan(bound)

    def test_every_small_subgroup_matches_naive_scan_and_filter(self):
        # the scan walks only the residue classes the moduli allow, and the
        # conjugate orientation when b_mod > c_mod; the naive reference
        # tests every matrix in the box against contains
        for bound in range(1, 9):
            box = sorted(naive_scan(bound))
            for moduli in itertools.product(range(1, 6), repeat=4):
                group = SubgroupSpec(*moduli, "moduli")
                expected = tuple(g for g in box if group.contains(g))
                assert enumerate_group(group, bound).elements == expected, (
                    moduli, bound)

    def test_member_walk_is_filtered_by_contains(self, monkeypatch):
        # the walk steps only the classes the moduli allow, which still
        # holds non-members: contains decides each candidate row once, on
        # one k of its class, and the oracle's member count depends on it.
        # A contains that accepts everything keeps every candidate.
        visited = collections.Counter()
        contains = SubgroupSpec.contains

        def counted(group, g):
            visited[group.label] += 1
            return contains(group, g)

        monkeypatch.setattr(SubgroupSpec, "contains", counted)
        cases = {(5, 3): (16, 33, 53), (4, 3): (29, 47, 85), (7, 3): (6, 21, 29)}
        for (l, m), (tested, kept, candidates) in cases.items():
            group = gamma0_pair(l, m)
            assert len(list(oracle_module._members(group, 20))) == kept
            assert visited[group.label] == tested
        monkeypatch.setattr(SubgroupSpec, "contains", lambda group, g: True)
        for (l, m), (tested, kept, candidates) in cases.items():
            assert len(list(oracle_module._members(gamma0_pair(l, m), 20))) == candidates

    def test_rows_count_the_sample(self):
        # for every pair group with moduli up to 6, so that both walk
        # orientations occur, and at entry bounds up to 30, the rows' range
        # lengths sum to a three-loop count of the members, and the rows
        # (a, c) and (-a, c) hold equally many members
        rng = range(-30, 31)
        box = []  # (largest entry, entries) of every determinant-one tuple
        for a, b, c in itertools.product(rng, repeat=3):
            if a:
                d, rem = divmod(1 + b * c, a)
                ds = () if rem or abs(d) > 30 else (d,)
            else:
                ds = rng if b * c == -1 else ()
            box.extend((max(abs(a), abs(b), abs(c), abs(d)), (a, b, c, d)) for d in ds)
        for l, m in itertools.product(range(1, 7), repeat=2):
            group = gamma0_pair(l, m)
            heights = collections.Counter(h for h, g in box if group.contains(g))
            for bound in (1, 2, 3, 5, 8, 13, 21, 30):
                held = collections.Counter()
                for a, c, b0, d0, ks in oracle_module._member_rows(group, bound):
                    held[a, c] += len(ks)
                # the box holds both sign lifts of every member
                assert 2 * sum(held.values()) == sum(
                    n for h, n in heights.items() if h <= bound), (l, m, bound)
                for (a, c), count in held.items():
                    assert c == 0 or held[-a, c] == count, (l, m, bound, a, c)

    def test_member_walk_is_the_naive_scan_and_filter(self):
        # plain entry tuples in the walk's own sign lift, each member once
        for bound in range(1, 7):
            box = sorted(naive_scan(bound))
            for moduli in itertools.product(range(1, 5), repeat=4):
                group = SubgroupSpec(*moduli, "moduli")
                walked = list(oracle_module._members(group, bound))
                assert all(type(g) is tuple for g in walked)
                canonical = sorted(UnimodularMatrix(*g) for g in walked)
                assert len(set(canonical)) == len(canonical), (moduli, bound)
                assert canonical == [g for g in box if group.contains(g)], (
                    moduli, bound)
        # on the S-conjugate walk the c == 0 row is (1, 0, -b, 1)
        assert (1, 0, -1, 1) in oracle_module._members(SubgroupSpec(1, 2, 1, 1, "s"), 1)

    def test_pair_subgroup_examples(self):
        sample = enumerate_group(gamma0_pair(2, 3), 3)
        elements = set(sample.elements)
        assert UnimodularMatrix(1, 0, 2, 1) in elements
        assert UnimodularMatrix(1, 3, 2, 7) not in elements

    def test_sample_invariants(self):
        for group in (full_group(), gamma0(3), gamma0_pair(2, 3)):
            sample = enumerate_group(group, 6)
            elements = set(sample.elements)
            assert IDENTITY in elements
            for g in elements:
                a, b, c, d = g
                assert c > 0 or (c == 0 and a > 0)
                assert max(abs(a), abs(b), abs(c), abs(d)) <= 6
                assert group.contains(g)
                assert g.inverse() in elements

    def test_sorted_and_deterministic(self):
        sample = enumerate_group(full_group(), 5)
        keys = [tuple(g) for g in sample.elements]
        assert keys == sorted(keys)
        again = enumerate_group(full_group(), 5)
        assert again.elements == sample.elements

    def test_invalid_bounds(self):
        with pytest.raises(InvalidBound):
            enumerate_group(full_group(), 0)
        with pytest.raises(InvalidBound):
            enumerate_group(full_group(), -2)
        with pytest.raises(BoundTooLarge):
            enumerate_group(full_group(), 61)

    def test_lowered_scan_ceiling_refuses(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "SCAN_CEILING", 10)
        assert len(enumerate_group(full_group(), 10).elements) > 0
        with pytest.raises(BoundTooLarge):
            enumerate_group(full_group(), 11)


def random_edge(rng):
    """An edge between two distinct points of height at most 6."""
    while True:
        x1, x2 = rng.randint(-6, 6), rng.randint(-6, 6)
        y1, y2 = rng.randint(0, 6), rng.randint(0, 6)
        if (x1, y1) == (0, 0) or (x2, y2) == (0, 0):
            continue
        src, dst = ProjectiveRational(x1, y1), ProjectiveRational(x2, y2)
        if src != dst:
            return DirectedEdge(src, dst)


class TestTransitivityWitness:
    def test_matches_first_hit_of_scan_and_filter(self):
        # the witness is solved from the endpoints' columns; the
        # reference applies every scanned member to both endpoints.  Half
        # the targets are images of e1 under a random full-group member,
        # so a witness exists whenever the group holds a bounded one
        rng = random.Random(20261018)
        cases = hits = 0
        for bound in range(1, 9):
            full = enumerate_group(full_group(), bound).elements
            for moduli in itertools.product(range(1, 4), repeat=4):
                group = SubgroupSpec(*moduli, "moduli")
                members = enumerate_group(group, bound).elements
                for reachable in (True, False) * 4:
                    e1 = random_edge(rng)
                    if reachable:
                        g = rng.choice(full)
                        e2 = DirectedEdge(g.apply(e1.src), g.apply(e1.dst))
                    else:
                        e2 = random_edge(rng)
                    first = next(
                        (g for g in members
                         if g.apply(e1.src) == e2.src and g.apply(e1.dst) == e2.dst),
                        None,
                    )
                    assert transitivity_witness(e1, e2, group, bound) == first, (
                        moduli, bound, e1, e2)
                    cases += 1
                    hits += first is not None
        assert cases == 5184
        assert hits >= 500

    def test_makes_no_scan(self, capsys, monkeypatch):
        # criterion 6's edges, with the witnesses composed from scanned
        # carriers as that criterion does, and the scan's refusals
        spec, group = F12, gamma0_pair(2, 1)
        graph = enumerate_graph(spec, 7)
        base_src, base_dst = spec.base_pair()
        carrier = {}
        for g in enumerate_group(group, 40).elements:
            carrier.setdefault((g.apply(base_src), g.apply(base_dst)), g)
        to_base = carrier[(base_src, base_dst)].inverse()
        refusals = []
        for bound in (0, 61):
            with pytest.raises((InvalidBound, BoundTooLarge)) as caught:
                enumerate_group(full_group(), bound)
            refusals.append((bound, caught.type, str(caught.value)))

        def no_scan(*args):
            raise AssertionError("a scan or a line walk was started")

        monkeypatch.setattr(oracle_module, "enumerate_group", no_scan)
        monkeypatch.setattr(oracle_module, "_class_steps", no_scan)
        assert main(["verify", "--suite", "selfpaired"]) == 0
        assert capsys.readouterr().out.count("-- agreement") == 31
        base_edge = DirectedEdge(base_src, base_dst)
        for e2 in graph.edges:
            assert transitivity_witness(base_edge, e2, group, 40) == (
                carrier[(e2.src, e2.dst)] * to_base)
        for bound, kind, message in refusals:
            with pytest.raises(kind) as caught:
                transitivity_witness(base_edge, base_edge, full_group(), bound)
            assert str(caught.value) == message
            with pytest.raises(kind) as caught:
                verify_self_paired(F12, bound)
            assert str(caught.value) == message

    def test_large_entries_hit_exactly_at_their_bound(self):
        # the solve must apply the entry bound to its quotients: each
        # sampled member is found at its own largest entry, not below it
        rng = random.Random(20261019)
        members = enumerate_group(full_group(), 60).elements
        base = DirectedEdge(INFINITY, ZERO)
        for g in rng.sample(members, 200):
            e2 = DirectedEdge(g.apply(base.src), g.apply(base.dst))
            largest = max(abs(entry) for entry in g)
            assert transitivity_witness(base, e2, full_group(), largest) == g
            if largest >= 2:
                assert transitivity_witness(
                    base, e2, full_group(), largest - 1) is None


class TestGroupImages:
    def test_identity_only_sample(self):
        base = (INFINITY, ProjectiveRational(1, 2))
        sample = enumerate_group(principal(2), 1)
        assert sample.elements == (IDENTITY,)
        assert {(g.apply(base[0]), g.apply(base[1])) for g in sample.elements} == {base}

    def test_diagonal_base_stays_diagonal(self):
        v = ProjectiveRational(1, 2)
        sample = enumerate_group(full_group(), 4)
        images = [(g.apply(v), g.apply(v)) for g in sample.elements]
        assert len(set(images)) > 1
        for a, b in images:
            assert a == b


def full_replay(spec, group, entry_bound, height_bound):
    """The comparison replayed on every member, filtered to the window
    only after the images are built and sorted."""
    graph = enumerate_graph(spec, height_bound)
    sample = enumerate_group(group, entry_bound)
    alpha, beta = spec.base_pair()
    pairs = sorted(
        {(g.apply(alpha), g.apply(beta)) for g in sample.elements},
        key=lambda pair: (*pair[0], *pair[1]),
    )
    in_bound = [
        pair for pair in pairs
        if pair[0].height <= height_bound and pair[1].height <= height_bound
    ]
    reached = set(pairs)
    assert len(pairs) == len(sample.elements)  # the orbital pair count
    return OrbitalReport(
        spec=spec,
        group=group,
        entry_bound=entry_bound,
        height_bound=height_bound,
        member_count=len(sample.elements),
        orbital_in_bound=len(in_bound),
        edge_count=len(graph.edges),
        soundness_failures=tuple(
            pair for pair in in_bound if edge_check(spec, *pair) is None
        ),
        completeness_misses=tuple(e for e in graph.edges if e not in reached),
    )


def omit_edges(monkeypatch, dropped):
    """Make the oracle read a graph without the heads of the edges
    dropped(edge) picks."""
    def enumerated(spec, height_bound):
        graph = enumerate_graph(spec, height_bound)
        v = graph.vertices
        heads = [(i, tuple(j for j in found if not dropped(DirectedEdge(v[i], v[j]))))
                 for i, found in graph.heads]
        return graph._replace(heads=tuple(heads))

    monkeypatch.setattr(oracle_module, "enumerate_graph", enumerated)


class TestCompareEdgesVsOrbital:
    def test_infinity_family_soundness(self):
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 10, 10)
        assert report.ok
        assert report.soundness_failures == ()
        assert report.orbital_in_bound > 0

    def test_zero_family_soundness(self):
        report = compare_edges_vs_orbital(F32, gamma0_pair(1, 3), 10, 10)
        assert report.ok
        assert report.soundness_failures == ()

    def test_tiny_bound_misses_edges(self):
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 1, 10)
        assert report.completeness_misses != ()
        assert report.smallest_miss == report.completeness_misses[0]
        # misses are real edges, just unreached by the tiny sample
        for edge in report.completeness_misses:
            assert edge_check(F12, edge.src, edge.dst) == edge.sign

    def test_group_must_match_spec(self):
        with pytest.raises(InvalidSpec):
            compare_edges_vs_orbital(F12, gamma0_pair(3, 1), 5, 5)
        with pytest.raises(InvalidSpec):
            compare_edges_vs_orbital(F32, gamma0_pair(1, 2), 5, 5)
        with pytest.raises(InvalidSpec):
            compare_edges_vs_orbital(F12, gamma0(2), 5, 5)

    def test_base_pair_is_reached(self):
        f11 = GraphSpec(family="finf", u=1, modulus=1)
        f13 = GraphSpec(family="finf", u=1, modulus=3)
        for spec, group in ((f11, gamma0_pair(1, 1)), (f13, gamma0_pair(3, 1)),
                            (f13, gamma0_pair(3, 2)), (F32, gamma0_pair(1, 3))):
            report = compare_edges_vs_orbital(spec, group, 4, 10)
            base = DirectedEdge(*spec.base_pair())
            assert base in enumerate_graph(spec, 10).edges
            assert base not in report.completeness_misses

    def test_translated_pair_is_reached(self):
        # [[1, 0], [2, 1]] carries 1/0 -> 1/2 onto 1/2 -> 1/4
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 5, 10)
        edge = DirectedEdge(ProjectiveRational(1, 2), ProjectiveRational(1, 4))
        assert edge in enumerate_graph(F12, 10).edges
        assert edge not in report.completeness_misses

    @pytest.mark.parametrize("family", ["finf", "fzero"])
    def test_window_replay_matches_full_replay(self, family):
        # every unit, l and m up to 5, and height bounds below the base
        # pair's height, so that it falls outside the window.  Reversed
        # fzero specs have the cusp 0/1 as their second base point.  Where
        # the walk's orientation moves the cusp's image along each row
        # (finf with m > l, fzero with l >= m), the rows are expanded: those
        # cases come with entry bounds both below and above the height bound
        seen = collections.Counter()
        for modulus, other in itertools.product(range(1, 6), repeat=2):
            l, m = (modulus, other) if family == "finf" else (other, modulus)
            moving = m > l if family == "finf" else l >= m
            flags = (False, True) if family == "fzero" else (False,)
            for u, reversed_ in itertools.product(range(1, max(modulus, 2)), flags):
                if math.gcd(u, modulus) != 1:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=modulus,
                                 reversed=reversed_)
                base_height = max(v.height for v in spec.base_pair())
                for bounds in itertools.product((1, 7, 20), (1, 5, 30)):
                    report = compare_edges_vs_orbital(spec, gamma0_pair(l, m), *bounds)
                    reference = full_replay(spec, gamma0_pair(l, m), *bounds)
                    assert report.to_dict() == reference.to_dict(), (spec, l, m, bounds)
                    assert report.text_lines() == reference.text_lines()
                    seen["outside"] += base_height > bounds[1]
                    seen[moving, bounds[0] < bounds[1]] += 1
        assert seen["outside"] >= 20
        assert min(seen[key] for key in itertools.product((False, True), repeat=2)) >= 20

    def test_images_are_built_only_in_the_window(self, monkeypatch):
        # window pairs are held as canonical integer columns: points are
        # built only for soundness failures, two per failing pair, and no
        # matrix is built at all
        calls = []

        def counted(num, den):
            calls.append((num, den))
            return ProjectiveRational(num, den)

        monkeypatch.setattr(oracle_module, "ProjectiveRational", counted)
        monkeypatch.setattr(oracle_module, "UnimodularMatrix", None)  # no matrix
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 20, 10)
        assert 0 < report.orbital_in_bound < report.member_count
        assert report.to_dict()["orbital_pairs"] == report.member_count
        assert report.soundness_failures == () and calls == []
        # a graph that omits every edge leaving 1/0 fails those pairs
        omit_edges(monkeypatch, lambda edge: edge.src == INFINITY)
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 20, 10)
        failures = report.soundness_failures
        assert 0 < len(failures) < report.orbital_in_bound
        assert all(src == INFINITY for src, dst in failures)
        assert all(type(v) is ProjectiveRational for pair in failures for v in pair)
        assert len(calls) == 2 * len(failures)

    def test_omitted_orbit_edge_fails_soundness(self, monkeypatch):
        # the base edge is an orbit pair in the window: a graph without it
        # is unsound, whatever the edge predicate says of the pair
        base = (INFINITY, ProjectiveRational(1, 2))
        omit_edges(monkeypatch, lambda edge: edge == base)
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 10, 10)
        assert not report.ok
        assert report.soundness_failures == (base,)

    @pytest.mark.parametrize("family", ["finf", "fzero"])
    def test_never_reads_the_edge_predicate(self, monkeypatch, family):
        # the window replay's reports again, with the congruence test
        # raising while the oracle runs and only then
        def raising(*args):
            raise AssertionError("the edge predicate was read")

        def guarded(*args):
            with monkeypatch.context() as patch:
                patch.setattr(graphs_module, "_congruences_hold", raising)
                with pytest.raises(AssertionError, match="predicate"):
                    edge_check(F12, INFINITY, ProjectiveRational(1, 2))
                return oracle_module.compare_edges_vs_orbital(*args)

        assert not hasattr(oracle_module, "edge_check")
        monkeypatch.setitem(globals(), "compare_edges_vs_orbital", guarded)
        self.test_window_replay_matches_full_replay(family)

    def test_makes_no_matrix_scan(self, monkeypatch):
        # the oracle walks the group's entry tuples itself; the sorted
        # matrix scan is not started and the report is unchanged
        configs = [(F12, gamma0_pair(2, 1), 20, 10), (F12, gamma0_pair(2, 2), 12, 8),
                   (F32, gamma0_pair(2, 3), 15, 12), (F32, gamma0_pair(1, 3), 30, 5)]
        references = [full_replay(*config) for config in configs]

        def no_scan(*args):
            raise AssertionError("the matrix scan was started")

        monkeypatch.setattr(oracle_module, "enumerate_group", no_scan)
        for config, reference in zip(configs, references):
            assert compare_edges_vs_orbital(*config) == reference, config

    def test_report_serializes(self):
        report = compare_edges_vs_orbital(F12, gamma0_pair(2, 1), 5, 5)
        data = report.to_dict()
        assert data["ok"] is True
        assert data["soundness_failures"] == []
        assert isinstance(report.text_lines(), list)


class TestCountBlocks:
    def test_examples(self):
        assert count_blocks(1) == 1
        assert count_blocks(2) == 3
        assert count_blocks(6) == 12

    def test_matches_formula(self):
        for n in range(1, 16):
            assert count_blocks(n) == dedekind_psi(n)

    def test_invalid(self):
        with pytest.raises(InvalidModulus):
            count_blocks(0)


class TestLatticeIdentity:
    def test_example(self):
        report = verify_lattice_identity(2, 3, 10)
        assert report.ok
        assert report.intersection_violations == ()
        assert report.product_violations == ()
        assert report.scanned > 0
        assert report.products_checked > 0
        assert "reverse inclusion" in report.unchecked

    def test_equal_moduli_trivial(self):
        assert verify_lattice_identity(4, 4, 6).ok

    def test_shared_factor(self):
        assert verify_lattice_identity(2, 4, 10).ok

    def test_products_against_membership_oracle(self):
        # independent re-derivation of the product check for one config
        left = enumerate_group(principal(2), 6).elements
        right = enumerate_group(gamma0(4), 6).elements
        join = gamma0(2)
        for p in left[:20]:
            for q in right[:20]:
                assert join.contains(p * q)

    @staticmethod
    def classes(group, bound, n):
        """The residue classes mod n of group's members within bound."""
        return {tuple(x % n for x in g) for g in enumerate_group(group, bound).elements}

    @pytest.mark.parametrize("left, right, join, entry_bound, violations", [
        (principal(2), gamma0(4), principal(3), 5, True),
        (principal(2), gamma0(4), gamma0(8), 5, True),
        (principal(3), gamma0(2), gamma0_pair(3, 4), 4, True),
        (principal(2), gamma0(4), gamma0(2), 5, False),
    ])
    def test_class_decision_matches_every_product(
        self, monkeypatch, left, right, join, entry_bound, violations
    ):
        # the suite's factors are principal(n1) and gamma0(n2); only the
        # join, gamma0(gcd), is replaced, and gcd differs from n2 here
        n1, n2 = left.a_mod, right.c_mod
        gcd = math.gcd(n1, n2)
        assert (left, right) == (principal(n1), gamma0(n2)) and gcd != n2
        monkeypatch.setattr(
            oracle_module, "gamma0", lambda n: join if n == gcd else gamma0(n)
        )
        report = verify_lattice_identity(n1, n2, entry_bound)
        monkeypatch.undo()
        naive = {
            p * q
            for p in enumerate_group(left, entry_bound).elements
            for q in enumerate_group(right, entry_bound).elements
            if not join.contains(p * q)
        }
        assert bool(naive) == violations
        assert report.intersection_violations == ()
        assert report.ok == (not naive)
        listed = report.product_violations
        assert list(listed) == sorted(listed)
        assert set(listed) <= naive

    def test_products_are_formed_once_per_class_pair(self, monkeypatch):
        n1, n2, bound = 4, 8, 20
        # the join is gamma0(4), whose classes are the entries mod 4
        pairs = len(self.classes(principal(n1), bound, 4)) * len(
            self.classes(gamma0(n2), bound, 4))
        products = len(enumerate_group(principal(n1), bound).elements) * len(
            enumerate_group(gamma0(n2), bound).elements)
        scanned = len(enumerate_group(full_group(), bound).elements)
        rows = sum(1 for _ in oracle_module._member_rows(full_group(), bound))
        counts = {"contains": 0, "mul": 0}

        def counted(name, method):
            def wrapper(*args):
                counts[name] += 1
                return method(*args)
            return wrapper

        monkeypatch.setattr(
            SubgroupSpec, "contains", counted("contains", SubgroupSpec.contains)
        )
        monkeypatch.setattr(
            UnimodularMatrix, "__mul__", counted("mul", UnimodularMatrix.__mul__)
        )
        report = verify_lattice_identity(n1, n2, bound)
        assert report.ok
        assert report.products_checked == products > 3 * scanned + pairs
        assert counts["mul"] <= pairs
        # the walk tests its rows once each and each member at most four
        # times, and each product once against the join
        assert counts["contains"] <= rows + 4 * scanned + pairs

    @pytest.mark.parametrize("n1, n2, bound", [(3, 4, 28), (2, 3, 12), (4, 8, 20)])
    def test_meet_builds_matrices_only_for_violations(
        self, monkeypatch, n1, n2, bound
    ):
        # the suite walks the full group as entry tuples: the only matrices
        # built are the intersection's listed violations, one representative
        # per residue class of each product factor, and the products, and
        # the full group's sample is not cached
        counts = collections.Counter()
        new, mul = UnimodularMatrix.__new__, UnimodularMatrix.__mul__

        def counted_new(cls, *entries):
            counts["new"] += 1
            return new(cls, *entries)

        def counted_mul(p, q):
            counts["mul"] += 1
            return mul(p, q)

        monkeypatch.setattr(UnimodularMatrix, "__new__", counted_new)
        monkeypatch.setattr(UnimodularMatrix, "__mul__", counted_mul)
        report = verify_lattice_identity(n1, n2, bound)
        monkeypatch.undo()
        assert not [v for v in vars(oracle_module).values() if hasattr(v, "cache_info")]
        n = math.gcd(n1, n2)
        reps = len(self.classes(principal(n1), bound, n)) + len(
            self.classes(gamma0(n2), bound, n))
        violations = len(report.intersection_violations)
        assert counts["new"] == violations + reps + counts["mul"]
        assert counts["new"] < report.scanned
        assert (violations > 0) == ((n1, n2) == (3, 4))

    def test_walks_the_full_group_once(self, monkeypatch):
        walked = []
        members = oracle_module._members

        def recorded(group, bound):
            walked.append(group)
            return members(group, bound)

        def no_scan(*args):
            raise AssertionError("the lattice suite calls no enumerate_group")

        monkeypatch.setattr(oracle_module, "_members", recorded)
        monkeypatch.setattr(oracle_module, "enumerate_group", no_scan)
        assert verify_lattice_identity(4, 6, 12).products_checked > 0
        assert walked == [full_group()]

    def test_invalid_arguments(self):
        with pytest.raises(InvalidModulus):
            verify_lattice_identity(0, 3, 5)
        with pytest.raises(InvalidBound):
            verify_lattice_identity(2, 3, 0)


class TestVerifySelfPaired:
    def test_witness_found_and_verified(self):
        spec = GraphSpec(family="finf", u=2, modulus=5)
        report = verify_self_paired(spec, 10)
        assert report.found and report.predicted and report.ok
        alpha, beta = spec.base_pair()
        assert report.witness.apply(alpha) == beta
        assert report.witness.apply(beta) == alpha
        assert max(abs(x) for x in report.witness) <= 10

    def test_trivial_unit(self):
        report = verify_self_paired(F12, 5)
        assert report.found and report.ok

    def test_refutation(self):
        spec = GraphSpec(family="finf", u=2, modulus=7)
        report = verify_self_paired(spec, 12)
        assert not report.found and not report.predicted and report.ok
        assert "not self-paired, no witness" in report.text_lines()[0]

    def test_zero_family_uses_its_own_base_pair(self):
        report = verify_self_paired(F32, 12)
        # u*u + 1 = 5 is not divisible by 3, and no bounded matrix swaps
        # the pair (0/1, 3/2)
        assert not report.predicted and not report.found and report.ok

    @pytest.mark.parametrize(
        "family, reversed_", [("finf", False), ("fzero", False), ("fzero", True)]
    )
    def test_witness_needs_exactly_its_largest_entry(self, family, reversed_):
        # [[u, -(u*u + 1)/m], [m, -u]] up to order and sign, with the
        # forward unit; one below its largest entry is refused
        for modulus in range(1, 13):
            for u in range(1, max(modulus, 2)):
                if (u * u + 1) % modulus:
                    continue
                spec = GraphSpec(family=family, u=u, modulus=modulus,
                                 reversed=reversed_)
                w = spec.forward_u()
                needed = max(w, modulus, (w * w + 1) // modulus)
                report = verify_self_paired(spec, needed)
                assert report.found and report.ok
                assert max(abs(x) for x in report.witness) == needed
                with pytest.raises(InvalidBound, match=f"needs entry bound {needed}"):
                    verify_self_paired(spec, needed - 1)

    def test_witness_is_the_first_exchanging_matrix_of_the_scan(self):
        for modulus in range(1, 13):
            for u in range(1, max(modulus, 2)):
                if (u * u + 1) % modulus:
                    continue
                spec = GraphSpec(family="fzero", u=u, modulus=modulus)
                alpha, beta = spec.base_pair()
                bound = max(u, modulus, (u * u + 1) // modulus) + 2
                first = next(
                    g for g in enumerate_group(full_group(), bound).elements
                    if g.apply(alpha) == beta and g.apply(beta) == alpha
                )
                assert verify_self_paired(spec, bound).witness == first

    def test_sweep_small_moduli(self):
        for modulus in range(2, 9):
            for u in range(1, modulus):
                if math.gcd(u, modulus) != 1:
                    continue
                spec = GraphSpec(family="finf", u=u, modulus=modulus)
                assert verify_self_paired(spec, 4 * modulus).ok
