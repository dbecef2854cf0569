"""Brute-force ground truth for the graph predicates.

Everything here works from first principles: exhaustive scans over
bounded integer matrices, direct orbit marking over residue pairs, and
raw group action.  The graph module's edge conditions are never used to
build an oracle set, only compared against afterwards, so agreement is
evidence rather than circularity.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundTooLarge, InvalidBound, InvalidModulus, InvalidSpec
from .graphs import (
    FAMILY_INFINITY,
    DirectedEdge,
    GraphSpec,
    edge_check,
    enumerate_graph,
    is_self_paired,
)
from .group import (
    GAMMA0_PAIR,
    SubgroupSpec,
    UnimodularMatrix,
    full_group,
    gamma0,
    principal,
)
from .rational import ProjectiveRational

__all__ = [
    "DEFAULT_SCAN_CEILING",
    "SCAN_CEILING_VAR",
    "BoundedGroupSample",
    "OrbitalSample",
    "enumerate_group",
    "orbital_pairs",
    "OrbitalReport",
    "compare_edges_vs_orbital",
    "count_blocks",
    "LatticeReport",
    "verify_lattice_identity",
    "SelfPairedReport",
    "verify_self_paired",
]

DEFAULT_SCAN_CEILING = 60
SCAN_CEILING_VAR = "SUBORBITAL_SCAN_CEILING"


def scan_ceiling() -> int:
    """Active entry-bound ceiling; the environment variable overrides."""
    raw = os.environ.get(SCAN_CEILING_VAR)
    if raw is None:
        return DEFAULT_SCAN_CEILING
    try:
        return int(raw)
    except ValueError:
        raise InvalidBound(
            f"{SCAN_CEILING_VAR} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class BoundedGroupSample:
    """Every canonical member matrix with all entries inside the bound."""

    group: SubgroupSpec
    entry_bound: int
    elements: tuple[UnimodularMatrix, ...]


@dataclass(frozen=True)
class OrbitalSample:
    """Images of one rooted vertex pair under a bounded group sample."""

    base: tuple[ProjectiveRational, ProjectiveRational]
    pairs: tuple[tuple[ProjectiveRational, ProjectiveRational], ...]

    def pair_set(self) -> frozenset[tuple[ProjectiveRational, ProjectiveRational]]:
        return frozenset(self.pairs)


@lru_cache(maxsize=8)
def _canonical_scan(bound: int) -> tuple[UnimodularMatrix, ...]:
    # Canonical lifts have c > 0, or c == 0 with a == d == 1.  For fixed
    # (a, c) the determinant equation pins d to one residue class mod c,
    # so the scan solves for d and b instead of testing every 4-tuple;
    # the result set is identical to the naive det filter.
    found: list[UnimodularMatrix] = []
    for b in range(-bound, bound + 1):
        found.append(UnimodularMatrix(1, b, 0, 1))
    for c in range(1, bound + 1):
        for a in range(-bound, bound + 1):
            if math.gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, c) if c > 1 else 0
            first = d0 - ((d0 + bound) // c) * c
            for d in range(first, bound + 1, c):
                b, rem = divmod(a * d - 1, c)
                if rem == 0 and -bound <= b <= bound:
                    found.append(UnimodularMatrix(a, b, c, d))
    found.sort(key=lambda g: g.entries)
    return tuple(found)


@lru_cache(maxsize=64)
def _member_scan(group: SubgroupSpec, bound: int) -> tuple[UnimodularMatrix, ...]:
    return tuple(g for g in _canonical_scan(bound) if group.contains(g))


def enumerate_group(group: SubgroupSpec, entry_bound: int) -> BoundedGroupSample:
    """Exactly the canonical member matrices with |entries| <= entry_bound.

    Deterministically ordered by entry tuple.  Raises InvalidBound for
    bounds below 1 and BoundTooLarge above the scan ceiling.
    """
    if entry_bound < 1:
        raise InvalidBound(f"entry bound must be >= 1, got {entry_bound}")
    ceiling = scan_ceiling()
    if entry_bound > ceiling:
        raise BoundTooLarge(
            f"entry bound {entry_bound} exceeds scan ceiling {ceiling}"
        )
    return BoundedGroupSample(group, entry_bound, _member_scan(group, entry_bound))


def orbital_pairs(
    sample: BoundedGroupSample,
    base: tuple[ProjectiveRational, ProjectiveRational],
) -> OrbitalSample:
    """All images (g(base[0]), g(base[1])) over the sample, sorted."""
    seen = {(g.apply(base[0]), g.apply(base[1])) for g in sample.elements}
    ordered = sorted(seen, key=lambda p: p[0].key() + p[1].key())
    return OrbitalSample(base, tuple(ordered))


def _group_modulus_for(spec: GraphSpec, group: SubgroupSpec) -> int:
    if group.family != GAMMA0_PAIR:
        raise InvalidSpec("orbital comparison expects a gamma0_pair group")
    l, m = group.params
    return l if spec.family == FAMILY_INFINITY else m


@dataclass(frozen=True)
class OrbitalReport:
    """Outcome of one oracle-versus-predicate comparison.

    soundness_failures lists orbital pairs inside the height window that
    the edge predicate rejected; a correct build keeps it empty.
    completeness_misses lists predicate edges the bounded orbital never
    reached; they are reported, not failed.  The predicate ignores the
    group's other modulus, so where that exceeds 1 the edges whose
    carrier is not a member stay missed at every entry bound: for F[1, 2]
    against gamma0_pair(2, 2) at height 30 the misses level off at 372
    from entry bound 30 on.
    """

    spec: GraphSpec
    group: SubgroupSpec
    entry_bound: int
    height_bound: int
    member_count: int
    orbital_count: int
    orbital_in_bound: int
    edge_count: int
    soundness_failures: tuple[tuple[ProjectiveRational, ProjectiveRational], ...]
    completeness_misses: tuple[DirectedEdge, ...]

    @property
    def ok(self) -> bool:
        return not self.soundness_failures

    @property
    def smallest_miss(self) -> DirectedEdge | None:
        return self.completeness_misses[0] if self.completeness_misses else None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.label(),
            "group": self.group.label(),
            "entry_bound": self.entry_bound,
            "height_bound": self.height_bound,
            "members": self.member_count,
            "orbital_pairs": self.orbital_count,
            "orbital_in_bound": self.orbital_in_bound,
            "edges": self.edge_count,
            "soundness_failures": [
                [str(a), str(b)] for a, b in self.soundness_failures
            ],
            "completeness_misses": [str(e) for e in self.completeness_misses],
            "ok": self.ok,
        }

    def text_lines(self) -> list[str]:
        head = (
            f"{self.spec.label()} vs {self.group.label()} "
            f"(entries <= {self.entry_bound}, heights <= {self.height_bound}): "
            f"{self.orbital_in_bound} orbital pairs in window, "
            f"{self.edge_count} edges"
        )
        lines = [head]
        if self.soundness_failures:
            lines.append(
                f"  soundness FAILED on {len(self.soundness_failures)} pair(s), "
                f"first {self.soundness_failures[0][0]} -> {self.soundness_failures[0][1]}"
            )
        else:
            lines.append("  soundness ok: every orbital pair is an accepted edge")
        if self.completeness_misses:
            lines.append(
                f"  completeness: {len(self.completeness_misses)} edge(s) not reached "
                f"at this entry bound, smallest {self.smallest_miss}"
            )
        else:
            lines.append("  completeness: every edge was reached by the orbital")
        return lines


def compare_edges_vs_orbital(
    spec: GraphSpec,
    group: SubgroupSpec,
    entry_bound: int,
    height_bound: int,
) -> OrbitalReport:
    """Compare the enumerated edge set against raw group images of the base pair."""
    if _group_modulus_for(spec, group) != spec.modulus:
        raise InvalidSpec(
            f"group {group.label()} does not match graph modulus {spec.modulus}"
        )
    sample = enumerate_group(group, entry_bound)
    orbital = orbital_pairs(sample, spec.base_pair())
    graph = enumerate_graph(spec, height_bound)

    in_bound = [
        pair
        for pair in orbital.pairs
        if pair[0].height <= height_bound and pair[1].height <= height_bound
    ]
    soundness = tuple(
        pair for pair in in_bound if edge_check(spec, pair[0], pair[1]) is None
    )
    reached = orbital.pair_set()
    misses = tuple(
        edge for edge in graph.edges if (edge.src, edge.dst) not in reached
    )
    return OrbitalReport(
        spec=spec,
        group=group,
        entry_bound=entry_bound,
        height_bound=height_bound,
        member_count=len(sample.elements),
        orbital_count=len(orbital.pairs),
        orbital_in_bound=len(in_bound),
        edge_count=len(graph.edges),
        soundness_failures=soundness,
        completeness_misses=misses,
    )


def count_blocks(n: int) -> int:
    """Number of unit-scaling orbits of primitive residue pairs mod n.

    Direct orbit marking over all pairs (x, y) in (Z/n)^2 with
    gcd(x, y, n) == 1.  Independent of the multiplicative formula in the
    rational module, which it exists to corroborate.
    """
    if n < 1:
        raise InvalidModulus(f"count_blocks needs n >= 1, got {n}")
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    seen: set[tuple[int, int]] = set()
    blocks = 0
    for x in range(n):
        for y in range(n):
            if (x, y) in seen or math.gcd(math.gcd(x, y), n) != 1:
                continue
            blocks += 1
            for u in units:
                seen.add((u * x % n, u * y % n))
    return blocks


@dataclass(frozen=True)
class LatticeReport:
    """Scan evidence for the two subgroup lattice identities.

    The intersection identity is checked as an equivalence matrix by
    matrix.  The product identity is checked in the containment
    direction only; the reverse inclusion needs unbounded factors and is
    recorded as unchecked.
    """

    n1: int
    n2: int
    entry_bound: int
    scanned: int
    intersection_violations: tuple[UnimodularMatrix, ...]
    products_checked: int
    product_violations: tuple[UnimodularMatrix, ...]
    unchecked: str = "product identity reverse inclusion"

    @property
    def ok(self) -> bool:
        return not self.intersection_violations and not self.product_violations

    def to_dict(self) -> dict:
        return {
            "n1": self.n1,
            "n2": self.n2,
            "entry_bound": self.entry_bound,
            "scanned": self.scanned,
            "intersection_violations": [
                str(g) for g in self.intersection_violations
            ],
            "products_checked": self.products_checked,
            "product_violations": [str(g) for g in self.product_violations],
            "unchecked": self.unchecked,
            "ok": self.ok,
        }

    def text_lines(self) -> list[str]:
        lcm = self.n1 * self.n2 // math.gcd(self.n1, self.n2)
        gcd = math.gcd(self.n1, self.n2)
        lines = [
            f"lattice({self.n1}, {self.n2}) at entries <= {self.entry_bound}:",
            f"  principal({self.n1}) & principal({self.n2}) == principal({lcm}) "
            f"on {self.scanned} matrices: "
            + ("ok" if not self.intersection_violations else
               f"{len(self.intersection_violations)} violation(s)"),
            f"  principal({self.n1}) * gamma0({self.n2}) inside gamma0({gcd}) "
            f"on {self.products_checked} products: "
            + ("ok" if not self.product_violations else
               f"{len(self.product_violations)} violation(s)"),
            f"  unchecked: {self.unchecked}",
        ]
        return lines


def verify_lattice_identity(n1: int, n2: int, entry_bound: int) -> LatticeReport:
    """Scan-check the intersection and product lattice identities."""
    if n1 < 1 or n2 < 1:
        raise InvalidModulus(f"moduli must be >= 1, got ({n1}, {n2})")
    everything = enumerate_group(full_group(), entry_bound)
    lcm = n1 * n2 // math.gcd(n1, n2)
    meet_a = principal(n1)
    meet_b = principal(n2)
    meet = principal(lcm)
    bad_meet = tuple(
        g
        for g in everything.elements
        if (meet_a.contains(g) and meet_b.contains(g)) != meet.contains(g)
    )

    join = gamma0(math.gcd(n1, n2))
    left = enumerate_group(principal(n1), entry_bound)
    right = enumerate_group(gamma0(n2), entry_bound)
    bad_product: list[UnimodularMatrix] = []
    checked = 0
    for p in left.elements:
        for q in right.elements:
            checked += 1
            product = p * q
            if not join.contains(product):
                bad_product.append(product)
    return LatticeReport(
        n1=n1,
        n2=n2,
        entry_bound=entry_bound,
        scanned=len(everything.elements),
        intersection_violations=bad_meet,
        products_checked=checked,
        product_violations=tuple(bad_product),
    )


@dataclass(frozen=True)
class SelfPairedReport:
    """Bounded witness search for an element exchanging the base pair."""

    spec: GraphSpec
    entry_bound: int
    predicted: bool
    witness: UnimodularMatrix | None

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def agrees(self) -> bool:
        return self.found == self.predicted

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.label(),
            "entry_bound": self.entry_bound,
            "predicted": self.predicted,
            "witness": str(self.witness) if self.witness else None,
            "agrees": self.agrees,
        }

    def text_line(self) -> str:
        if self.found:
            status = f"self-paired, witness {self.witness}"
        else:
            status = "not self-paired, no witness"
        verdict = "agreement" if self.agrees else "DISAGREEMENT"
        return (
            f"{self.spec.label()} (entries <= {self.entry_bound}): "
            f"{status} -- {verdict}"
        )


def verify_self_paired(spec: GraphSpec, entry_bound: int) -> SelfPairedReport:
    """Search bounded determinant-one matrices for a base pair exchange.

    The search runs over the full group: an exchanging element exists
    independently of congruence restrictions or not at all, and the
    predicate under test quantifies over plain determinant-one matrices.
    """
    alpha, beta = spec.base_pair()
    witness = None
    for g in enumerate_group(full_group(), entry_bound).elements:
        if g.apply(alpha) == beta and g.apply(beta) == alpha:
            witness = g
            break
    return SelfPairedReport(spec, entry_bound, is_self_paired(spec), witness)
