"""Determinant-one integer matrices acting on the extended rationals.

Matrices are stored as a canonical representative of the pair {M, -M}:
the lift with c > 0, or with c == 0 and a > 0.  Subgroup membership is a
congruence test on the entries and accepts a matrix when either lift
satisfies the conditions, since both lifts act identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidModulus, InvalidSpec
from .rational import INFINITY, ZERO, ProjectiveRational

__all__ = [
    "UnimodularMatrix",
    "IDENTITY",
    "SubgroupSpec",
    "full_group",
    "principal",
    "gamma1",
    "gamma0",
    "gamma_upper0",
    "gamma00",
    "gamma0_pair",
    "gamma00_pair",
    "stabilizer_generator",
    "block_equivalent",
]


class UnimodularMatrix:
    """2x2 integer matrix [[a, b], [c, d]] with a*d - b*c == 1.

    The constructor rejects any other determinant and replaces the input
    by its canonical sign lift, so two constructions that differ only by
    an overall sign compare equal.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1, got {a * d - b * c}")
        if c < 0 or (c == 0 and a < 0):
            a, b, c, d = -a, -b, -c, -d
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UnimodularMatrix is immutable")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "UnimodularMatrix":
        return UnimodularMatrix(self.d, -self.b, -self.c, self.a)

    def apply(self, v: ProjectiveRational) -> ProjectiveRational:
        """Fractional linear image (a*x + b*y) / (c*x + d*y) of v = x/y.

        The raw image of a reduced pair is already reduced; construction
        canonicalizes defensively anyway.
        """
        return ProjectiveRational(
            self.a * v.num + self.b * v.den,
            self.c * v.num + self.d * v.den,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __lt__(self, other: "UnimodularMatrix") -> bool:
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return self.entries < other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"

    def __repr__(self) -> str:
        return f"UnimodularMatrix{self.entries}"


IDENTITY = UnimodularMatrix(1, 0, 0, 1)

FULL = "full"
PRINCIPAL = "principal"
GAMMA1 = "gamma1"
GAMMA0 = "gamma0"
GAMMA_UPPER0 = "gamma_upper0"
GAMMA00 = "gamma00"
GAMMA0_PAIR = "gamma0_pair"
GAMMA00_PAIR = "gamma00_pair"

_ONE_PARAM = {PRINCIPAL, GAMMA1, GAMMA0, GAMMA_UPPER0, GAMMA00}
_TWO_PARAM = {GAMMA0_PAIR, GAMMA00_PAIR}


@dataclass(frozen=True)
class SubgroupSpec:
    """Names a congruence-defined family of unimodular matrices.

    family          entry conditions on one lift
    ------          ----------------------------
    full            none
    principal(n)    a == d == 1 and b == c == 0  (mod n)
    gamma1(n)       same conditions as principal(n)
    gamma0(n)       c == 0                        (mod n)
    gamma_upper0(n) b == 0                        (mod n)
    gamma00(n)      b == c == 0                   (mod n)
    gamma0_pair(l, m)   a == 1 (mod l), d == 1 (mod m),
                        c == 0 (mod l), b == 0 (mod m)
    gamma00_pair(l, m)  c == 0 (mod l), b == 0 (mod m)
    """

    family: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.family == FULL:
            want = 0
        elif self.family in _ONE_PARAM:
            want = 1
        elif self.family in _TWO_PARAM:
            want = 2
        else:
            raise InvalidSpec(f"unknown subgroup family {self.family!r}")
        if len(self.params) != want:
            raise InvalidSpec(
                f"{self.family} takes {want} parameter(s), got {self.params}"
            )
        for n in self.params:
            if n < 1:
                raise InvalidModulus(f"subgroup modulus must be >= 1, got {n}")

    def _lift_ok(self, a: int, b: int, c: int, d: int) -> bool:
        fam = self.family
        if fam == FULL:
            return True
        if fam in (PRINCIPAL, GAMMA1):
            n = self.params[0]
            return (a - 1) % n == 0 and (d - 1) % n == 0 and b % n == 0 and c % n == 0
        if fam == GAMMA0:
            return c % self.params[0] == 0
        if fam == GAMMA_UPPER0:
            return b % self.params[0] == 0
        if fam == GAMMA00:
            n = self.params[0]
            return b % n == 0 and c % n == 0
        l, m = self.params
        if fam == GAMMA0_PAIR:
            return (
                (a - 1) % l == 0
                and (d - 1) % m == 0
                and c % l == 0
                and b % m == 0
            )
        return c % l == 0 and b % m == 0  # gamma00_pair

    def contains(self, g: UnimodularMatrix) -> bool:
        """True when either sign lift of g satisfies the congruences."""
        a, b, c, d = g.entries
        return self._lift_ok(a, b, c, d) or self._lift_ok(-a, -b, -c, -d)

    def label(self) -> str:
        if self.family == FULL:
            return "full"
        inner = ",".join(str(n) for n in self.params)
        return f"{self.family}({inner})"


def full_group() -> SubgroupSpec:
    return SubgroupSpec(FULL)


def principal(n: int) -> SubgroupSpec:
    return SubgroupSpec(PRINCIPAL, (n,))


def gamma1(n: int) -> SubgroupSpec:
    return SubgroupSpec(GAMMA1, (n,))


def gamma0(n: int) -> SubgroupSpec:
    return SubgroupSpec(GAMMA0, (n,))


def gamma_upper0(n: int) -> SubgroupSpec:
    return SubgroupSpec(GAMMA_UPPER0, (n,))


def gamma00(n: int) -> SubgroupSpec:
    return SubgroupSpec(GAMMA00, (n,))


def gamma0_pair(l: int, m: int) -> SubgroupSpec:
    return SubgroupSpec(GAMMA0_PAIR, (l, m))


def gamma00_pair(l: int, m: int) -> SubgroupSpec:
    return SubgroupSpec(GAMMA00_PAIR, (l, m))


def stabilizer_generator(point: ProjectiveRational) -> UnimodularMatrix:
    """Generator of the stabilizer of 1/0 or 0/1 inside the full group.

    Only those two points have the distinguished translation generators
    [[1, 1], [0, 1]] and [[1, 0], [1, 1]]; anything else is an error.
    """
    if point == INFINITY:
        return UnimodularMatrix(1, 1, 0, 1)
    if point == ZERO:
        return UnimodularMatrix(1, 0, 1, 1)
    raise InvalidSpec(f"no distinguished stabilizer generator for {point}")


def block_equivalent(v: ProjectiveRational, w: ProjectiveRational, n: int) -> bool:
    """Whether r/s and x/y satisfy r*y - s*x == 0 (mod n).

    This is the invariant relation of the mod-n block system; it is
    insensitive to the sign lift chosen for either point.
    """
    if n < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {n}")
    return (v.num * w.den - v.den * w.num) % n == 0
