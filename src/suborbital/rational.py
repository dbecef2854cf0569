"""Exact arithmetic on the extended rationals and small number theory helpers.

The central type is ProjectiveRational: a reduced fraction num/den together
with a single point at infinity written 1/0.  Values are normalized once at
construction so that equality, hashing and ordering are plain tuple work.
Everything here is integer arithmetic; nothing ever rounds.
"""

from __future__ import annotations

import math
from functools import total_ordering

from .errors import InvalidModulus, NotInvertible, ZeroOverZero

__all__ = [
    "ProjectiveRational",
    "INFINITY",
    "ZERO",
    "mod_inverse",
    "factorize",
    "dedekind_psi",
    "phi_pair",
]


@total_ordering
class ProjectiveRational:
    """A point of the extended rational line in canonical reduced form.

    Invariants enforced by the constructor:

    * gcd(|num|, den) == 1, with gcd(x, 0) taken as |x|
    * den == 0 implies num == 1, so 1/0 is the unique point at infinity
    * num == 0 implies den == 1, so 0/1 is the unique zero
    * den >= 0; the sign always lives on the numerator

    The point at infinity compares strictly greater than every finite
    value; finite values are ordered by value.  Comparison works by cross
    multiplication, which is valid for 1/0 as well because denominators
    are never negative.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        if num == 0 and den == 0:
            raise ZeroOverZero("0/0 does not name a point")
        if den == 0:
            num = 1
        elif num == 0:
            den = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(abs(num), den)
            num //= g
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ProjectiveRational is immutable")

    @classmethod
    def from_string(cls, text: str) -> "ProjectiveRational":
        """Parse the "num/den" form emitted by str()."""
        head, sep, tail = text.partition("/")
        if not sep:
            raise ValueError(f"expected 'num/den', got {text!r}")
        return cls(int(head), int(tail))

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def height(self) -> int:
        """max(|num|, den); the point at infinity has height 1."""
        return max(abs(self.num), self.den)

    def key(self) -> tuple[int, int]:
        """Deterministic sort key: the (num, den) pair itself."""
        return (self.num, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectiveRational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other: "ProjectiveRational") -> bool:
        if not isinstance(other, ProjectiveRational):
            return NotImplemented
        return self.num * other.den < other.num * self.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __repr__(self) -> str:
        return f"ProjectiveRational({self.num}, {self.den})"


INFINITY = ProjectiveRational(1, 0)
ZERO = ProjectiveRational(0, 1)


def mod_inverse(u: int, m: int) -> int:
    """The residue v in [0, m) with u*v == 1 (mod m).

    For m == 1 the answer is 0, the only residue there is.  Raises
    NotInvertible when gcd(u, m) != 1 and InvalidModulus when m < 1.
    """
    if m < 1:
        raise InvalidModulus(f"modulus must be >= 1, got {m}")
    try:
        return pow(u, -1, m)
    except ValueError:
        raise NotInvertible(f"{u} has no inverse mod {m}") from None


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, k), ...) with strictly increasing p.

    factorize(1) is the empty tuple.  Plain trial division; inputs here
    are desk scale.
    """
    if n < 1:
        raise InvalidModulus(f"factorize needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def dedekind_psi(n: int) -> int:
    """Multiplicative function with psi(p^k) = p^(k-1) * (p + 1), psi(1) = 1.

    Counts the blocks of the mod-n equivalence on the extended rationals;
    the oracle module recounts the same number by direct orbit scanning.
    """
    if n < 1:
        raise InvalidModulus(f"dedekind_psi needs n >= 1, got {n}")
    value = 1
    for p, k in factorize(n):
        value *= p ** (k - 1) * (p + 1)
    return value


def phi_pair(l: int, m: int) -> int:
    """Block count for the two-parameter subgroup: psi(l) + psi(m).

    The squarefull part of each argument enters through the p^(k-1)
    factors of psi, so no separate radical computation is needed.
    """
    if l < 1 or m < 1:
        raise InvalidModulus(f"both arguments must be >= 1, got ({l}, {m})")
    return dedekind_psi(l) + dedekind_psi(m)
