"""Determinant-one integer matrices acting on the extended rationals.

Matrices are stored as a canonical representative of the pair {M, -M}:
the lift with c > 0, or with c == 0 and a > 0.  Subgroup membership is a
congruence test on the entries and accepts a matrix when either lift
satisfies the conditions, since both lifts act identically.  Matrices
and subgroup specs are tuples, which they equal and hash as.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .errors import InvalidModulus, plain_int
from .rational import ProjectiveRational

__all__ = [
    "UnimodularMatrix",
    "IDENTITY",
    "SubgroupSpec",
    "full_group",
    "principal",
    "gamma0",
    "gamma0_pair",
    "gamma00_pair",
    "block_equivalent",
]


class UnimodularMatrix(tuple):
    """2x2 integer matrix [[a, b], [c, d]] with a*d - b*c == 1, held as
    its entry tuple (a, b, c, d) and ordered as that tuple.

    The constructor rejects any other determinant and replaces the input
    by its canonical sign lift, so two constructions that differ only by
    an overall sign compare equal.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "UnimodularMatrix":
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        return tuple.__new__(cls, (a, b, c, d))

    a = property(itemgetter(0))
    b = property(itemgetter(1))
    c = property(itemgetter(2))
    d = property(itemgetter(3))

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        a, b, c, d = self
        e, f, g, h = other
        return UnimodularMatrix(
            a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        )

    # * is the matrix product only: tuple concatenation and repetition
    # are refused, so + and int * matrix raise TypeError
    def __add__(self, other: object):
        return NotImplemented

    __radd__ = __rmul__ = __add__

    def inverse(self) -> "UnimodularMatrix":
        a, b, c, d = self
        return UnimodularMatrix(d, -b, -c, a)

    def apply(self, v: ProjectiveRational) -> ProjectiveRational:
        """Fractional linear image (a*x + b*y) / (c*x + d*y) of v = x/y.

        The raw image of a reduced pair is already reduced; construction
        canonicalizes defensively anyway.
        """
        a, b, c, d = self
        x, y = v
        return ProjectiveRational(a * x + b * y, c * x + d * y)

    def __str__(self) -> str:
        a, b, c, d = self
        return f"[[{a}, {b}], [{c}, {d}]]"

    def __repr__(self) -> str:
        return f"UnimodularMatrix{tuple.__repr__(self)}"


IDENTITY = UnimodularMatrix(1, 0, 0, 1)


class SubgroupSpec(namedtuple("SubgroupSpec", "a_mod b_mod c_mod d_mod label")):
    """A congruence subgroup given by four moduli and its label: the
    tuple (a_mod, b_mod, c_mod, d_mod, label), which it equals and hashes as.
    Each modulus is an integer, not a bool, and at least 1.

    A matrix is a member when one of its sign lifts has
    a == 1 (mod a_mod), b == 0 (mod b_mod), c == 0 (mod c_mod) and
    d == 1 (mod d_mod).  The label takes part in equality: full_group()
    and gamma0_pair(1, 1) have the same members but are different specs.

    factory              (a_mod, b_mod, c_mod, d_mod)
    -------              ----------------------------
    full_group()         (1, 1, 1, 1)
    principal(n)         (n, n, n, n)
    gamma0(n)            (1, 1, n, 1)
    gamma0_pair(l, m)    (l, m, l, m)
    gamma00_pair(l, m)   (1, m, l, 1)
    """

    __slots__ = ()

    def __new__(cls, a_mod: int, b_mod: int, c_mod: int, d_mod: int, label: str):
        for n in (a_mod, b_mod, c_mod, d_mod):
            if not plain_int(n):
                raise InvalidModulus(f"subgroup modulus must be an integer, got {n!r}")
            if n < 1:
                raise InvalidModulus(f"subgroup modulus must be >= 1, got {n}")
        return tuple.__new__(cls, (a_mod, b_mod, c_mod, d_mod, label))

    # _replace builds through _make, so both construct through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def contains(self, g: UnimodularMatrix) -> bool:
        """True when either sign lift of g satisfies the congruences.

        The b and c conditions do not depend on the lift; negating the
        lift turns a == 1 and d == 1 into a == -1 and d == -1.
        """
        a, b, c, d = g
        return (
            b % self.b_mod == 0
            and c % self.c_mod == 0
            and (
                ((a - 1) % self.a_mod == 0 and (d - 1) % self.d_mod == 0)
                or ((a + 1) % self.a_mod == 0 and (d + 1) % self.d_mod == 0)
            )
        )


def full_group() -> SubgroupSpec:
    return SubgroupSpec(1, 1, 1, 1, "full")


def principal(n: int) -> SubgroupSpec:
    return SubgroupSpec(n, n, n, n, f"principal({n})")


def gamma0(n: int) -> SubgroupSpec:
    return SubgroupSpec(1, 1, n, 1, f"gamma0({n})")


def gamma0_pair(l: int, m: int) -> SubgroupSpec:
    return SubgroupSpec(l, m, l, m, f"gamma0_pair({l},{m})")


def gamma00_pair(l: int, m: int) -> SubgroupSpec:
    return SubgroupSpec(1, m, l, 1, f"gamma00_pair({l},{m})")


def block_equivalent(v: ProjectiveRational, w: ProjectiveRational, n: int) -> bool:
    """Whether r/s and x/y satisfy r*y - s*x == 0 (mod n).

    This is the invariant relation of the mod-n block system; it is
    insensitive to the sign lift chosen for either point.
    """
    if n < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {n}")
    return (v.num * w.den - v.den * w.num) % n == 0
