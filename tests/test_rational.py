"""Tests for the exact projective-rational layer.

Reference values are computed by independent oracles defined at the top
of this file (subtraction gcd, extended gcd, squarefree-divisor sum)
before being compared with the library's fast paths.
"""

import math
import operator

import pytest
from hypothesis import given, strategies as st

from suborbital.errors import BoundTooLarge, InvalidModulus, NotInvertible, ZeroOverZero
from suborbital.rational import (
    INFINITY,
    ZERO,
    ProjectiveRational,
    dedekind_psi,
    factorize,
    mod_inverse,
    phi_pair,
)


def gcd_by_subtraction(a, b):
    """Slow gcd used as an oracle; no library calls."""
    a, b = abs(a), abs(b)
    while a and b:
        if a >= b:
            a -= b
        else:
            b -= a
    return a + b


def inverse_by_extended_gcd(u, m):
    """Extended Euclid oracle for modular inverses, or None."""
    old_r, r = u % m, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        return None
    return old_s % m


def psi_by_divisor_sum(n):
    """Sum of n/d over squarefree divisors d; an independent route."""
    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        squarefree = all(d % (p * p) for p in range(2, d + 1))
        if squarefree:
            total += n // d
    return total


nonzero = st.integers(min_value=-200, max_value=200).filter(lambda k: k != 0)
numerators = st.integers(min_value=-200, max_value=200)


class TestCanonicalForm:
    def test_reduces_and_normalizes_sign(self):
        assert ProjectiveRational(-4, -6) == ProjectiveRational(2, 3)
        assert str(ProjectiveRational(-4, -6)) == "2/3"
        assert str(ProjectiveRational(3, -6)) == "-1/2"

    def test_zero_and_infinity_are_unique(self):
        assert str(ProjectiveRational(0, -5)) == "0/1"
        assert str(ProjectiveRational(7, 0)) == "1/0"
        assert ProjectiveRational(-3, 0) == INFINITY
        assert ProjectiveRational(0, 9) == ZERO

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ZeroOverZero):
            ProjectiveRational(0, 0)

    def test_immutable(self):
        v = ProjectiveRational(1, 2)
        with pytest.raises(AttributeError):
            v.num = 5

    @given(numerators, st.integers(min_value=-200, max_value=200))
    def test_invariants_hold(self, a, b):
        if a == 0 and b == 0:
            return
        v = ProjectiveRational(a, b)
        assert gcd_by_subtraction(v.num, v.den) == 1
        assert v.den >= 0
        if v.den == 0:
            assert v.num == 1
        if v.num == 0:
            assert v.den == 1

    @given(numerators, st.integers(min_value=-200, max_value=200), nonzero)
    def test_scaling_invariance(self, a, b, k):
        if a == 0 and b == 0:
            return
        assert ProjectiveRational(k * a, k * b) == ProjectiveRational(a, b)

    def test_point_is_its_plain_pair(self):
        v = ProjectiveRational(-6, 8)
        assert v == (-3, 4) and (-3, 4) == v
        assert hash(v) == hash((-3, 4))
        assert {(-3, 4): "found"}[v] == "found"
        index = {w: w for w in (INFINITY, ZERO, v)}
        assert index[(1, 0)] is INFINITY and index[(-3, 4)] is v
        assert tuple(v) == (v.num, v.den) == (-3, 4)

    def test_tuple_arithmetic_is_refused(self):
        v = ProjectiveRational(1, 2)
        for op, x, y in ((operator.add, INFINITY, ZERO), (operator.add, v, v),
                         (operator.mul, 2, v), (operator.mul, v, 2)):
            with pytest.raises(TypeError):
                op(x, y)

    def test_height(self):
        assert INFINITY.height == 1
        assert ZERO.height == 1
        assert ProjectiveRational(-7, 3).height == 7
        assert ProjectiveRational(3, 10).height == 10


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(1, 5) == 1
        assert mod_inverse(1, 1) == 0

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            mod_inverse(2, 4)
        with pytest.raises(NotInvertible):
            mod_inverse(0, 5)

    def test_invalid_modulus(self):
        with pytest.raises(InvalidModulus):
            mod_inverse(1, 0)
        with pytest.raises(InvalidModulus):
            mod_inverse(1, -3)

    def test_sweep_against_extended_gcd(self):
        for m in range(1, 200):
            for u in range(0, m + 3):
                expected = inverse_by_extended_gcd(u, m)
                if expected is None:
                    with pytest.raises(NotInvertible):
                        mod_inverse(u, m)
                else:
                    got = mod_inverse(u, m)
                    assert got == expected
                    assert 0 <= got < m
                    assert (u * got) % m == 1 % m

    @given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=2000))
    def test_inverse_property(self, m, u):
        if math.gcd(u, m) != 1:
            return
        inv = mod_inverse(u, m)
        assert 0 <= inv < m
        assert (u * inv) % m == 1 % m


class TestFactorizationAndPsi:
    def test_factorize_examples(self):
        assert factorize(1) == ()
        assert factorize(12) == ((2, 2), (3, 1))
        assert factorize(97) == ((97, 1),)
        assert factorize(360) == ((2, 3), (3, 2), (5, 1))

    def test_factorize_rebuilds(self):
        for n in range(1, 500):
            product = 1
            for p, k in factorize(n):
                product *= p**k
            assert product == n

    def test_trial_division_ceiling(self):
        # refused from isqrt(n) alone, before any division
        with pytest.raises(BoundTooLarge, match="100000000000000000000,"):
            factorize(10**40)
        with pytest.raises(BoundTooLarge):
            dedekind_psi((10**7 + 1) ** 2)
        assert factorize(10**14) == ((2, 14), (5, 14))

    def test_psi_examples(self):
        assert dedekind_psi(1) == 1
        assert dedekind_psi(2) == 3
        assert dedekind_psi(4) == 6
        assert dedekind_psi(6) == 12
        assert dedekind_psi(12) == 24
        assert dedekind_psi(30) == 72
        for p in (2, 3, 5, 7, 11, 13):
            assert dedekind_psi(p) == p + 1

    def test_psi_against_divisor_sum_oracle(self):
        for n in range(1, 120):
            assert dedekind_psi(n) == psi_by_divisor_sum(n)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=400))
    def test_psi_multiplicative(self, a, b):
        if math.gcd(a, b) != 1:
            return
        assert dedekind_psi(a * b) == dedekind_psi(a) * dedekind_psi(b)

    def test_psi_rejects_nonpositive(self):
        with pytest.raises(InvalidModulus):
            dedekind_psi(0)
        with pytest.raises(InvalidModulus):
            dedekind_psi(-6)

    def test_psi_refuses_non_ints_after_caching_equal_ints(self):
        # 4.0 and True equal and hash as 4 and 1, whose values are cached
        # by now; the argument check still comes first
        assert (dedekind_psi(4), dedekind_psi(1)) == (6, 1)
        for n in (4.0, True):
            with pytest.raises(InvalidModulus):
                dedekind_psi(n)
            with pytest.raises(InvalidModulus):
                phi_pair(n, 2)

    def test_phi_pair(self):
        assert phi_pair(2, 3) == 7
        assert phi_pair(1, 1) == 2
        assert phi_pair(5, 5) == 12
        for l in range(1, 15):
            for m in range(1, 15):
                assert phi_pair(l, m) == dedekind_psi(l) + dedekind_psi(m)
