"""Directed graphs induced on one block of the extended rationals.

A graph spec names a family, a unit parameter u and a modulus.  The
"finf" family lives on the block of 1/0 and couples the edge determinant
r*y - s*x to +modulus; the "fzero" family lives on the block of 0/1 and
couples it to -modulus.  The reversed flag realizes the partner graph
whose edges are exactly the originals written backwards.

Edge acceptance is a closed form on the canonical fractions.  The
canonical fraction of a vertex may carry either sign lift of the matrix
column that produced it, so the residue that a lift pins to 1 is tested
against 1 and -1, and the sign of the edge determinant fixes the sign
that relates the second vertex to the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidSpec,
    InvariantViolation,
    NotMappable,
)
from .group import SubgroupSpec, UnimodularMatrix, gamma0_pair
from .rational import INFINITY, ZERO, ProjectiveRational, mod_inverse

__all__ = [
    "FAMILY_INFINITY",
    "FAMILY_ZERO",
    "GraphSpec",
    "DirectedEdge",
    "SuborbitalGraph",
    "edge_check",
    "enumerate_graph",
    "is_self_paired",
    "paired_partner",
    "VertexMapWitness",
    "vertex_map_matrix",
    "transitivity_witness",
    "HEIGHT_CEILING",
]

FAMILY_INFINITY = "finf"
FAMILY_ZERO = "fzero"

# enumerate_graph refuses larger height bounds unless explicitly forced
HEIGHT_CEILING = 10_000


@dataclass(frozen=True)
class GraphSpec:
    """Parameters (family, u, modulus, reversed) of one graph.

    u must be a unit for the modulus, strictly below it once the modulus
    exceeds 1, and never 0.  The reversed flag is only meaningful for the
    fzero family, where it encodes the partner graph.
    """

    family: str
    u: int
    modulus: int
    reversed: bool = False

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_INFINITY, FAMILY_ZERO):
            raise InvalidSpec(f"unknown graph family {self.family!r}")
        if self.modulus < 1:
            raise InvalidSpec(f"modulus must be >= 1, got {self.modulus}")
        if self.u < 1:
            raise InvalidSpec(f"u must be >= 1, got {self.u}")
        if self.modulus > 1 and self.u >= self.modulus:
            raise InvalidSpec(f"u must satisfy 1 <= u < {self.modulus}, got {self.u}")
        if math.gcd(self.u, self.modulus) != 1:
            raise InvalidSpec(
                f"u and modulus must be coprime, got ({self.u}, {self.modulus})"
            )
        if self.reversed and self.family != FAMILY_ZERO:
            raise InvalidSpec("only fzero graphs have a reversed form")

    @property
    def base_point(self) -> ProjectiveRational:
        return INFINITY if self.family == FAMILY_INFINITY else ZERO

    def forward_u(self) -> int:
        """The unit the edge congruences actually use.

        A reversed spec stores the inverse unit; testing its edges swaps
        the endpoints back and therefore needs the original u again.
        """
        if not self.reversed:
            return self.u
        return mod_inverse(self.u, self.modulus) if self.modulus > 1 else 1

    def base_pair(self) -> tuple[ProjectiveRational, ProjectiveRational]:
        """The rooted vertex pair every edge is a group image of."""
        if self.family == FAMILY_INFINITY:
            return (INFINITY, ProjectiveRational(self.u, self.modulus))
        target = ProjectiveRational(self.modulus, self.forward_u())
        if self.reversed:
            return (target, ZERO)
        return (ZERO, target)

    def block_contains(self, v: ProjectiveRational) -> bool:
        """Whether v is block-equivalent to the family's base point."""
        if self.family == FAMILY_INFINITY:
            return v.den % self.modulus == 0
        return v.num % self.modulus == 0

    def label(self) -> str:
        if self.family == FAMILY_INFINITY:
            return f"F[{self.u}, {self.modulus}]"
        head = -self.modulus if self.reversed else self.modulus
        return f"F[{head}, {self.u}]"


@dataclass(frozen=True)
class DirectedEdge:
    """An ordered pair of distinct vertices."""

    src: ProjectiveRational
    dst: ProjectiveRational

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise InvariantViolation(f"loop edge at {self.src}")

    @property
    def sign(self) -> int:
        """+1 exactly when the source is the greater vertex, else -1."""
        return 1 if self.dst < self.src else -1

    def key(self) -> tuple[int, int, int, int]:
        return self.src.key() + self.dst.key()

    def __str__(self) -> str:
        mark = "+" if self.sign > 0 else "-"
        return f"{self.src} -> {self.dst} [{mark}]"


def _congruences_hold(
    family: str,
    u: int,
    m: int,
    reversed_: bool,
    src: ProjectiveRational,
    dst: ProjectiveRational,
    delta: int,
) -> bool:
    """Test the residue conditions of the pair src -> dst.

    delta is r*y - s*x on the canonical fractions and is already known to
    be +m or -m.  A reversed spec tests the forward conditions on the
    swapped pair, whose delta is negated; u is the forward unit.  With
    eps = delta / m, the tail r/s and head x/y of a forward edge satisfy

    * finf:  s == y == 0, r == 1 or -1, and x == eps*u*r   (mod m)
    * fzero: r == x == 0, s == 1 or -1, and y == -eps*u*s  (mod m)

    The choice of 1 or -1 is the sign lift of the tail; the sign lift of
    the head flips x, y and eps together and so cancels.
    """
    if reversed_:
        src, dst, delta = dst, src, -delta
    r, s, x, y = src.num, src.den, dst.num, dst.den
    eps = delta // m
    if family == FAMILY_INFINITY:
        return (
            s % m == 0
            and y % m == 0
            and ((r - 1) % m == 0 or (r + 1) % m == 0)
            and (x - eps * u * r) % m == 0
        )
    return (
        r % m == 0
        and x % m == 0
        and ((s - 1) % m == 0 or (s + 1) % m == 0)
        and (y + eps * u * s) % m == 0
    )


def edge_check(
    spec: GraphSpec, src: ProjectiveRational, dst: ProjectiveRational
) -> int | None:
    """Sign of the edge src -> dst, or None when the pair is not an edge.

    The returned sign follows the order convention of DirectedEdge: +1
    when the source is the greater endpoint.
    """
    m = spec.modulus
    delta = src.num * dst.den - src.den * dst.num
    if delta != m and delta != -m:
        return None
    if not _congruences_hold(
        spec.family, spec.forward_u(), m, spec.reversed, src, dst, delta
    ):
        return None
    return 1 if delta > 0 else -1


def _block_vertices(spec: GraphSpec, bound: int) -> list[ProjectiveRational]:
    m = spec.modulus
    out: list[ProjectiveRational] = []
    if spec.family == FAMILY_INFINITY:
        out.append(INFINITY)  # den 0 is divisible by every modulus
        for den in range(m, bound + 1, m):
            for num in range(-bound, bound + 1):
                if math.gcd(abs(num), den) == 1:
                    out.append(ProjectiveRational(num, den))
    else:
        out.append(ZERO)
        if m == 1:
            out.append(INFINITY)
        for num in range(m, bound + 1, m):
            for den in range(1, bound + 1):
                if math.gcd(num, den) == 1:
                    out.append(ProjectiveRational(num, den))
                    out.append(ProjectiveRational(-num, den))
    out.sort(key=ProjectiveRational.key)
    return out


def enumerate_graph(
    spec: GraphSpec, height_bound: int, force: bool = False
) -> "SuborbitalGraph":
    """All vertices of the base vertex's block up to the height bound, and
    every ordered pair among them that edge_check accepts.

    Output ordering is deterministic: vertices and edges are sorted by
    their (num, den) keys.  Bounds above HEIGHT_CEILING need force=True.
    """
    if height_bound < 1:
        raise InvalidBound(f"height bound must be >= 1, got {height_bound}")
    if height_bound > HEIGHT_CEILING and not force:
        raise BoundTooLarge(
            f"height bound {height_bound} exceeds ceiling {HEIGHT_CEILING}"
        )
    vertices = _block_vertices(spec, height_bound)
    m = spec.modulus
    u = spec.forward_u()
    family = spec.family
    flip = spec.reversed
    edges: list[DirectedEdge] = []
    for v in vertices:
        vn, vd = v.num, v.den
        for w in vertices:
            delta = vn * w.den - vd * w.num
            if delta != m and delta != -m:
                continue
            if _congruences_hold(family, u, m, flip, v, w, delta):
                edges.append(DirectedEdge(v, w))
    edges.sort(key=DirectedEdge.key)
    return SuborbitalGraph(spec, height_bound, tuple(vertices), tuple(edges))


@dataclass(frozen=True)
class SuborbitalGraph:
    """One enumerated graph: spec, height bound, sorted vertices, sorted edges."""

    spec: GraphSpec
    height_bound: int
    vertices: tuple[ProjectiveRational, ...]
    edges: tuple[DirectedEdge, ...]


def is_self_paired(spec: GraphSpec) -> bool:
    """Whether the graph contains the reverse of each of its edges.

    Equivalent to u*u == -1 (mod modulus): a determinant-one matrix that
    exchanges the two base vertices has its first column forced by the
    first vertex and its determinant then forces the -1 residue, so no
    other unit admits an exchanging element at any entry size.  The
    oracle's bounded witness search is the cross-check.
    """
    return (spec.u * spec.u + 1) % spec.modulus == 0


def paired_partner(spec: GraphSpec) -> GraphSpec:
    """The graph holding the same edges written backwards.

    The unit is replaced by its inverse for the modulus and the reversed
    flag toggles, so applying this twice returns the original spec.
    """
    if spec.family != FAMILY_ZERO:
        raise InvalidSpec("only fzero graphs have a paired partner")
    m = spec.modulus
    partner_u = mod_inverse(spec.u, m) if m > 1 else 1
    return GraphSpec(FAMILY_ZERO, partner_u, m, not spec.reversed)


@dataclass(frozen=True)
class VertexMapWitness:
    """Result of vertex_map_matrix: the matrix plus a membership report."""

    matrix: UnimodularMatrix
    in_group: bool


def vertex_map_matrix(u1: int, u2: int, l: int, m: int) -> VertexMapWitness:
    """The explicit matrix sending m/u1 to m/u2, when one exists.

    The construction needs m to divide u2 - u1*u2 - u1; otherwise the
    candidate has a fractional entry and NotMappable is raised.  The
    returned matrix always has determinant 1 and the stated image, but
    membership in gamma0_pair(l, m) is only reported, never assumed.
    """
    if l < 1 or m < 1:
        raise InvalidSpec(f"moduli must be >= 1, got ({l}, {m})")
    if math.gcd(u1, m) != 1 or math.gcd(u2, m) != 1:
        raise InvalidSpec(f"u1 and u2 must be units mod {m}")
    numerator = u2 - u1 * u2 - u1
    if numerator % m != 0:
        raise NotMappable(
            f"{m} does not divide {numerator}; no matrix maps "
            f"{m}/{u1} to {m}/{u2} by this construction"
        )
    matrix = UnimodularMatrix(1 - u1, m, numerator // m, u2 + 1)
    return VertexMapWitness(matrix, gamma0_pair(l, m).contains(matrix))


def transitivity_witness(
    spec: GraphSpec,
    e1: DirectedEdge,
    e2: DirectedEdge,
    group: SubgroupSpec,
    entry_bound: int,
) -> UnimodularMatrix | None:
    """First bounded group element carrying edge e1 onto edge e2.

    The candidates come from the oracle's exhaustive scan in its
    deterministic order; each hit is accepted only if both vertex images
    match exactly.  Returns None when no candidate within the entry
    bound works, which is also what happens for endpoints in different
    blocks.
    """
    from .oracle import enumerate_group  # deferred: oracle imports this module

    sample = enumerate_group(group, entry_bound)
    for g in sample.elements:
        if g.apply(e1.src) == e2.src and g.apply(e1.dst) == e2.dst:
            return g
    return None
