"""Tests for matrices modulo sign and congruence subgroup membership."""

import math
import operator

import pytest
from hypothesis import given, strategies as st

from suborbital.errors import InvalidModulus
from suborbital.graphs import GraphSpec, enumerate_graph
from suborbital.group import (
    IDENTITY,
    SubgroupSpec,
    UnimodularMatrix,
    block_equivalent,
    full_group,
    gamma0,
    gamma0_pair,
    gamma00_pair,
    principal,
)
from suborbital.oracle import enumerate_group
from suborbital.rational import INFINITY, ZERO, ProjectiveRational

S = UnimodularMatrix(0, -1, 1, 0)
T = UnimodularMatrix(1, 1, 0, 1)


def matrix_from_word(word):
    """Products of the two standard generators give arbitrary elements."""
    g = IDENTITY
    for letter in word:
        g = g * (S if letter == "S" else T)
    return g


words = st.lists(st.sampled_from("ST"), max_size=12).map(matrix_from_word)
vertices = st.tuples(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
).filter(lambda p: p != (0, 0)).map(lambda p: ProjectiveRational(*p))


class TestMatrixArithmetic:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, 2)
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 2, 1, 2)
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, -1)

    def test_sign_canonicalization(self):
        assert UnimodularMatrix(-1, 0, 0, -1) == IDENTITY
        assert UnimodularMatrix(0, 1, -1, 0) == UnimodularMatrix(0, -1, 1, 0)
        assert UnimodularMatrix(-2, -1, -1, -1) == (2, 1, 1, 1)
        assert UnimodularMatrix(-1, 2, 0, -1) == (1, -2, 0, 1)

    def test_matrix_is_its_entry_tuple(self):
        g = UnimodularMatrix(-1, 2, 0, -1)
        assert g == (1, -2, 0, 1) and (1, -2, 0, 1) == g
        assert hash(g) == hash((1, -2, 0, 1))
        assert (1, -2, 0, 1) in {g}
        assert (g.a, g.b, g.c, g.d) == tuple(g)

    def test_only_the_matrix_product_is_defined(self):
        g = UnimodularMatrix(1, 1, 0, 1)
        assert g * g == (1, 2, 0, 1)
        for op, x, y in ((operator.mul, 3, g), (operator.mul, g, 3),
                         (operator.add, g, g)):
            with pytest.raises(TypeError):
                op(x, y)

    def test_fields_are_read_only(self):
        g = UnimodularMatrix(2, 1, 1, 1)
        for field in ("a", "b", "c", "d"):
            with pytest.raises(AttributeError):
                setattr(g, field, 0)
        assert g == (2, 1, 1, 1)
        assert not hasattr(g, "__dict__")

    def test_compose_example(self):
        assert T * UnimodularMatrix(1, 0, 1, 1) == UnimodularMatrix(2, 1, 1, 1)
        assert T * T.inverse() == IDENTITY

    def test_inverse_is_adjugate(self):
        g = UnimodularMatrix(2, 1, 1, 1)
        assert g.inverse() == UnimodularMatrix(1, -1, -1, 2)
        assert g * g.inverse() == IDENTITY
        assert g.inverse() * g == IDENTITY

    @given(words, words)
    def test_group_laws(self, g, h):
        assert (g * h).inverse() == h.inverse() * g.inverse()
        assert g * IDENTITY == g
        assert g * g.inverse() == IDENTITY

    def test_str(self):
        assert str(UnimodularMatrix(2, 1, 1, 1)) == "[[2, 1], [1, 1]]"


class TestMobiusAction:
    def test_translation(self):
        assert T.apply(INFINITY) == INFINITY
        assert T.apply(ZERO) == ProjectiveRational(1, 1)
        assert T.apply(ProjectiveRational(1, 2)) == ProjectiveRational(3, 2)

    def test_lower_triangular(self):
        L = UnimodularMatrix(1, 0, 1, 1)
        assert L.apply(INFINITY) == ProjectiveRational(1, 1)
        assert L.apply(ZERO) == ZERO
        assert L.apply(ProjectiveRational(1, 2)) == ProjectiveRational(1, 3)

    def test_pole_maps_to_infinity(self):
        assert S.apply(ZERO) == INFINITY
        assert S.apply(INFINITY) == ZERO
        assert UnimodularMatrix(2, 1, 1, 1).apply(
            ProjectiveRational(1, 2)) == ProjectiveRational(4, 3)

    @given(words, words, vertices)
    def test_action_respects_composition(self, g, h, v):
        assert g.apply(h.apply(v)) == (g * h).apply(v)

    @given(words, vertices)
    def test_action_invertible(self, g, v):
        assert g.inverse().apply(g.apply(v)) == v

    @given(words, vertices)
    def test_image_stays_reduced(self, g, v):
        w = g.apply(v)
        assert math.gcd(w.num, w.den) == 1


def kept_factories():
    """(group, its defining congruences on one lift) for n, l, m <= 6.

    The congruences are written out here rather than read from the
    record, so a wrong mapping of a factory onto the four moduli shows.
    """
    yield full_group(), lambda a, b, c, d: True
    for n in range(1, 7):
        yield principal(n), lambda a, b, c, d, n=n: (
            (a - 1) % n == 0 and b % n == 0 and c % n == 0 and (d - 1) % n == 0
        )
        yield gamma0(n), lambda a, b, c, d, n=n: c % n == 0
    for l in range(1, 7):
        for m in range(1, 7):
            yield gamma0_pair(l, m), lambda a, b, c, d, l=l, m=m: (
                (a - 1) % l == 0 and c % l == 0 and b % m == 0 and (d - 1) % m == 0
            )
            yield gamma00_pair(l, m), lambda a, b, c, d, l=l, m=m: (
                c % l == 0 and b % m == 0
            )


class TestSubgroupSpecs:
    def test_factories_match_their_congruences(self):
        sample = enumerate_group(full_group(), 8).elements
        checked = 0
        for group, lift_ok in kept_factories():
            for g in sample:
                a, b, c, d = g
                either = lift_ok(a, b, c, d) or lift_ok(-a, -b, -c, -d)
                assert group.contains(g) == either, (group.label, g)
                checked += either
        assert checked > len(sample)

    def test_modulus_positive(self):
        with pytest.raises(InvalidModulus):
            gamma0(0)
        with pytest.raises(InvalidModulus):
            gamma0_pair(2, -1)

    def test_membership_examples(self):
        assert gamma0_pair(2, 3).contains(UnimodularMatrix(1, 3, 2, 7))
        assert not gamma0_pair(2, 3).contains(T)
        assert gamma0(2).contains(T)
        assert not gamma0(2).contains(UnimodularMatrix(1, 0, 1, 1))
        assert principal(2).contains(UnimodularMatrix(1, 2, 2, 5))
        assert not principal(2).contains(UnimodularMatrix(1, 0, 1, 1))
        assert SubgroupSpec(1, 3, 1, 1, "gamma_upper0(3)").contains(
            UnimodularMatrix(1, 0, 1, 1))
        assert SubgroupSpec(1, 2, 2, 1, "gamma00(2)").contains(
            UnimodularMatrix(3, 2, 4, 3))

    def test_membership_uses_both_sign_lifts(self):
        # the canonical lift (-1, 0, 3, -1) fails a = 1 mod 3, but the
        # negated lift (1, 0, -3, 1) satisfies every congruence
        h = UnimodularMatrix(-1, 0, 3, -1)
        assert principal(3).contains(h)
        assert gamma0(7).contains(UnimodularMatrix(-3, 1, -7, 2))

    def test_full_group_contains_everything(self):
        for g in (S, T, UnimodularMatrix(5, 2, 2, 1)):
            assert full_group().contains(g)

    def test_gamma1_matches_principal_membership(self):
        # gamma1(n) is spelled as the record principal(n) is, under another
        # label: the specs differ, their members do not
        gamma1_4 = SubgroupSpec(4, 4, 4, 4, "gamma1(4)")
        assert gamma1_4 != principal(4)
        sample = enumerate_group(full_group(), 8)
        for g in sample.elements:
            assert gamma1_4.contains(g) == principal(4).contains(g)
        assert principal(4).contains(UnimodularMatrix(1, 4, 4, 17))

    def test_labels(self):
        assert gamma0_pair(2, 3).label == "gamma0_pair(2,3)"
        assert full_group().label == "full"

    def test_pair_group_nests_in_single_modulus_groups(self):
        sample = enumerate_group(full_group(), 8)
        inner = gamma0_pair(2, 3)
        for g in sample.elements:
            if inner.contains(g):
                assert gamma0(2).contains(g)
                assert SubgroupSpec(1, 3, 1, 1, "gamma_upper0(3)").contains(g)
                assert gamma00_pair(2, 3).contains(g)

    def test_principal_nests(self):
        sample = enumerate_group(full_group(), 8)
        for g in sample.elements:
            if principal(6).contains(g):
                assert principal(2).contains(g)
                assert principal(3).contains(g)
                assert SubgroupSpec(1, 6, 6, 1, "gamma00(6)").contains(g)

    def test_closure_under_product_and_inverse(self):
        sample = enumerate_group(gamma0_pair(2, 3), 5)
        members = list(sample.elements)
        for g in members:
            assert gamma0_pair(2, 3).contains(g.inverse())
        for g in members[:12]:
            for h in members[:12]:
                assert gamma0_pair(2, 3).contains(g * h)


class TestStabilizers:
    def test_generators(self):
        # within the bounded sample, the stabilizer of 1/0 is exactly the
        # upper translations and that of 0/1 exactly the lower ones
        lower = UnimodularMatrix(1, 0, 1, 1)
        sample = enumerate_group(full_group(), 8)
        for g in sample.elements:
            assert (g.apply(INFINITY) == INFINITY) == (g.c == 0)
            assert (g.apply(ZERO) == ZERO) == (g.b == 0)
        assert T in sample.elements and lower in sample.elements
        assert T.apply(ProjectiveRational(1, 2)) != ProjectiveRational(1, 2)
        assert lower.apply(ProjectiveRational(1, 2)) != ProjectiveRational(1, 2)

    def test_generator_fixes_point(self):
        for point, g in ((INFINITY, T), (ZERO, UnimodularMatrix(1, 0, 1, 1))):
            power = g
            for _ in range(5):
                assert power.apply(point) == point
                power = power * g


class TestBlockEquivalence:
    def test_examples(self):
        assert block_equivalent(INFINITY, ProjectiveRational(1, 2), 2)
        assert not block_equivalent(INFINITY, ProjectiveRational(1, 1), 2)
        assert block_equivalent(ProjectiveRational(1, 2), ProjectiveRational(1, 4), 2)
        assert block_equivalent(ZERO, ProjectiveRational(3, 2), 3)

    def test_modulus_one_is_universal(self):
        assert block_equivalent(INFINITY, ProjectiveRational(5, 7), 1)

    def test_is_equivalence_relation(self):
        points = [
            ProjectiveRational(a, b)
            for a in range(-6, 7)
            for b in range(0, 7)
            if (a, b) != (0, 0)
        ]
        points = sorted(set(points))
        for n in (2, 3, 4, 6):
            for v in points:
                assert block_equivalent(v, v, n)
            for v in points:
                for w in points:
                    assert block_equivalent(v, w, n) == block_equivalent(w, v, n)
            # partition check: equivalence to a class representative is
            # consistent, which fails if transitivity fails
            reps = []
            assigned = {}
            for v in points:
                homes = [r for r in reps if block_equivalent(v, r, n)]
                if not homes:
                    reps.append(v)
                    assigned[v] = v
                else:
                    assert len(homes) == 1
                    assigned[v] = homes[0]
            for v in points:
                for w in points:
                    assert block_equivalent(v, w, n) == (
                        assigned[v] == assigned[w]
                    )

    @given(words, st.integers(min_value=1, max_value=8))
    def test_invariant_under_group_action(self, g, n):
        pairs = [
            (INFINITY, ProjectiveRational(1, n)),
            (ProjectiveRational(1, 2), ProjectiveRational(3, 4)),
            (ZERO, ProjectiveRational(n, 1)),
            (ProjectiveRational(2, 3), ProjectiveRational(-1, 5)),
        ]
        for v, w in pairs:
            assert block_equivalent(v, w, n) == block_equivalent(
                g.apply(v), g.apply(w), n
            )

    def test_graph_vertices_fill_one_block(self):
        spec = GraphSpec(family="finf", u=1, modulus=4)
        graph = enumerate_graph(spec, 12)
        for v in graph.vertices:
            assert block_equivalent(v, INFINITY, 4)
