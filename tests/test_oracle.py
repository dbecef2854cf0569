"""Tests for the brute-force ground-truth module."""

import math

import pytest

from suborbital.errors import BoundTooLarge, InvalidBound, InvalidModulus, InvalidSpec
from suborbital.graphs import GraphSpec, edge_check
from suborbital.group import (
    IDENTITY,
    UnimodularMatrix,
    full_group,
    gamma0,
    gamma0_pair,
    principal,
)
from suborbital.oracle import (
    BoundedGroupSample,
    compare_edges_vs_orbital,
    count_blocks,
    enumerate_group,
    orbital_pairs,
    verify_lattice_identity,
    verify_self_paired,
)
from suborbital.rational import INFINITY, ProjectiveRational, dedekind_psi

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
                a, b, c, d = g.entries
                assert c > 0 or (c == 0 and a > 0)
                assert max(abs(a), abs(b), abs(c), abs(d)) <= 6
                assert group.contains(g)
                assert g.inverse() in elements

    def test_sorted_and_deterministic(self):
        sample = enumerate_group(full_group(), 5)
        keys = [g.entries for g in sample.elements]
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

    def test_env_var_moves_ceiling(self, monkeypatch):
        monkeypatch.setenv("SUBORBITAL_SCAN_CEILING", "10")
        assert len(enumerate_group(full_group(), 10).elements) > 0
        with pytest.raises(BoundTooLarge):
            enumerate_group(full_group(), 11)
        monkeypatch.setenv("SUBORBITAL_SCAN_CEILING", "oops")
        with pytest.raises(InvalidBound):
            enumerate_group(full_group(), 5)


class TestOrbitalPairs:
    def test_identity_only_sample(self):
        base = (INFINITY, ProjectiveRational(1, 2))
        sample = BoundedGroupSample(full_group(), 1, (IDENTITY,))
        orbital = orbital_pairs(sample, base)
        assert orbital.pairs == (base,)

    def test_contains_translated_pair(self):
        sample = enumerate_group(gamma0_pair(2, 1), 5)
        orbital = orbital_pairs(sample, (INFINITY, ProjectiveRational(1, 2)))
        assert (ProjectiveRational(1, 2), ProjectiveRational(1, 4)) in orbital.pair_set()

    def test_base_always_present(self):
        for group in (full_group(), gamma0_pair(3, 2)):
            sample = enumerate_group(group, 4)
            base = (INFINITY, ProjectiveRational(1, 3))
            assert base in orbital_pairs(sample, base).pair_set()

    def test_diagonal_base_stays_diagonal(self):
        sample = enumerate_group(full_group(), 4)
        v = ProjectiveRational(1, 2)
        for a, b in orbital_pairs(sample, (v, v)).pairs:
            assert a == b


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

    def test_invalid_arguments(self):
        with pytest.raises(InvalidModulus):
            verify_lattice_identity(0, 3, 5)
        with pytest.raises(InvalidBound):
            verify_lattice_identity(2, 3, 0)


class TestVerifySelfPaired:
    def test_witness_found_and_verified(self):
        spec = GraphSpec(family="finf", u=2, modulus=5)
        report = verify_self_paired(spec, 10)
        assert report.found and report.predicted and report.agrees
        alpha, beta = spec.base_pair()
        assert report.witness.apply(alpha) == beta
        assert report.witness.apply(beta) == alpha
        assert max(abs(x) for x in report.witness.entries) <= 10

    def test_trivial_unit(self):
        report = verify_self_paired(F12, 5)
        assert report.found and report.agrees

    def test_refutation(self):
        spec = GraphSpec(family="finf", u=2, modulus=7)
        report = verify_self_paired(spec, 12)
        assert not report.found and not report.predicted and report.agrees
        assert "not self-paired, no witness" in report.text_line()

    def test_zero_family_uses_its_own_base_pair(self):
        report = verify_self_paired(F32, 12)
        # u*u + 1 = 5 is not divisible by 3, and no bounded matrix swaps
        # the pair (0/1, 3/2)
        assert not report.predicted and not report.found and report.agrees

    def test_sweep_small_moduli(self):
        for modulus in range(2, 9):
            for u in range(1, modulus):
                if math.gcd(u, modulus) != 1:
                    continue
                spec = GraphSpec(family="finf", u=u, modulus=modulus)
                assert verify_self_paired(spec, 4 * modulus).agrees
