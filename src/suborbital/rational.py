"""Exact arithmetic on the extended rationals and small number theory helpers.

The central type is ProjectiveRational: a reduced fraction num/den together
with a single point at infinity written 1/0, held as its (num, den) tuple
and normalized once at construction.  Points, matrices and edges derive
from one private base, _Value, which holds their value contract once.
Everything here is integer arithmetic; nothing ever rounds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import itemgetter

from .errors import InvalidModulus, NotInvertible, ZeroOverZero, plain_int, refuse_above

__all__ = [
    "ProjectiveRational",
    "INFINITY",
    "ZERO",
    "mod_inverse",
    "factorize",
    "dedekind_psi",
    "phi_pair",
]


# the text of a point: "num/den", formatted from the pair itself
POINT_TEXT = "%d/%d"


class _Value(tuple):
    """The contract of a tuple value: a point, a matrix, an edge.

    A value equals, hashes and orders as its plain tuple, but is no
    sequence: + and * raise TypeError from either side, () + v included,
    and its repr is its type's name followed by the tuple's repr.
    """

    __slots__ = ()

    # raising, not returning NotImplemented, keeps a plain tuple on the
    # left from concatenating through its own +
    def __add__(self, other: object):
        raise TypeError(f"{type(self).__name__} is a value, not a sequence: "
                        "tuple + and * are refused")

    __radd__ = __mul__ = __rmul__ = __add__

    def __repr__(self) -> str:
        return type(self).__name__ + tuple.__repr__(self)


class ProjectiveRational(_Value):
    """A point of the extended rational line: the reduced pair (num, den).

    Invariants enforced by the constructor:

    * gcd(|num|, den) == 1, with gcd(x, 0) taken as |x|
    * den == 0 implies num == 1, so 1/0 is the unique point at infinity
    * num == 0 implies den == 1, so 0/1 is the unique zero
    * den >= 0; the sign always lives on the numerator

    A point equals, hashes and compares as its plain pair, so plain
    (num, den) tuples find it in sets and dicts, and points sort in
    canonical output order, the order of those integer pairs.
    """

    __slots__ = ()

    def __new__(cls, num: int, den: int) -> "ProjectiveRational":
        if num == 0 and den == 0:
            raise ZeroOverZero("0/0 does not name a point")
        if den == 0:
            num = 1
        elif num == 0:
            den = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = math.gcd(num, den)
            num, den = num // g, den // g
        return tuple.__new__(cls, (num, den))

    num = property(itemgetter(0))
    den = property(itemgetter(1))

    def __str__(self) -> str:
        return POINT_TEXT % self


INFINITY = ProjectiveRational(1, 0)
ZERO = ProjectiveRational(0, 1)


def mod_inverse(u: int, m: int) -> int:
    """The residue v in [0, m) with u*v == 1 (mod m).

    For m == 1 the answer is 0, the only residue there is.  Raises
    NotInvertible when gcd(u, m) != 1, and InvalidModulus unless u and m
    are plain ints with m >= 1.
    """
    if not (plain_int(u) and plain_int(m)) or m < 1:
        raise InvalidModulus(f"mod_inverse needs integers, m >= 1, got ({u!r}, {m!r})")
    try:
        return pow(u, -1, m)
    except ValueError:
        raise NotInvertible(f"{u} has no inverse mod {m}") from None


# factorize tries divisors up to isqrt(n); larger square roots are refused
TRIAL_DIVISION_CEILING = 10**7


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, k), ...) with strictly increasing p.

    factorize(1) is the empty tuple.  Plain trial division, so BoundTooLarge
    refuses n whose isqrt exceeds TRIAL_DIVISION_CEILING.
    """
    if not plain_int(n) or n < 1:
        raise InvalidModulus(f"factorize needs an integer n >= 1, got {n!r}")
    refuse_above("the trial division bound isqrt(n)", math.isqrt(n),
                 TRIAL_DIVISION_CEILING)
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
    if not plain_int(n) or n < 1:
        raise InvalidModulus(f"dedekind_psi needs an integer n >= 1, got {n!r}")
    return _psi(n)


# keyed only by validated ints, so 4.0 and True never share 4's and 1's
# entries; bounded, so a long-lived caller's distinct moduli cannot grow it
@lru_cache(maxsize=1024)
def _psi(n: int) -> int:
    value = 1
    for p, k in factorize(n):
        value *= p ** (k - 1) * (p + 1)
    return value


def phi_pair(l: int, m: int) -> int:
    """psi(l) + psi(m), the sum of the two moduli's block counts.

    The squarefull part of each argument enters through the p^(k-1)
    factors of psi, so no separate radical computation is needed.
    """
    if not (plain_int(l) and plain_int(m)) or l < 1 or m < 1:
        raise InvalidModulus(f"both arguments must be integers >= 1, got ({l!r}, {m!r})")
    return _psi(l) + _psi(m)
