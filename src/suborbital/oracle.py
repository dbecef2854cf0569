"""Brute-force ground truth for the graph predicates.

Everything here works from first principles: walks of bounded integer
matrices, exhaustive over the residue classes of a, b and c a subgroup's
moduli allow, in rows of one first column each filtered once by its
membership test, built as matrices only for a sorted scan, a listed
violation or a class representative; the one matrix carrying an edge onto another, solved from the
endpoints' columns and filtered the same way; direct orbit marking over
residue pairs; and raw group action on the base pair's columns, counted
and solved for the height window row by row, then set against the
enumerated edges, with points built only for soundness failures.  The
graph module's edge predicate is never read, so agreement is evidence
rather than circularity.  Samples and reports are tuple records that
equal and hash as their field tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import filterfalse

from .errors import InvalidBound, InvalidModulus, InvalidSpec, plain_int, refuse_above
from .graphs import (
    FAMILY_INFINITY,
    DirectedEdge,
    GraphSpec,
    _class_steps,
    enumerate_graph,
    is_self_paired,
)
from .group import (
    SubgroupSpec,
    UnimodularMatrix,
    full_group,
    gamma0,
    gamma0_pair,
    principal,
)
from .rational import INFINITY, ZERO, ProjectiveRational

__all__ = [
    "SCAN_CEILING",
    "BoundedGroupSample",
    "enumerate_group",
    "transitivity_witness",
    "OrbitalReport",
    "compare_edges_vs_orbital",
    "count_blocks",
    "LatticeReport",
    "verify_lattice_identity",
    "SelfPairedReport",
    "verify_self_paired",
]

class BoundedGroupSample(namedtuple("BoundedGroupSample", "group entry_bound elements")):
    """Every canonical member matrix with all entries inside the bound."""

    __slots__ = ()


# larger entry bounds are refused; a scan grows with the bound's square,
# to 17,626 matrices for the full group at 60 and a fraction of that for
# a subgroup, whose scan visits only the classes its moduli allow
SCAN_CEILING = 60


def _conjugated(group: SubgroupSpec) -> bool:
    """Whether _member_rows walks the S-conjugate, which steps c by b_mod
    and so has fewer rows when b_mod > c_mod."""
    return group.b_mod > group.c_mod


def _member_rows(
    group: SubgroupSpec, bound: int
) -> Iterator[tuple[int, int, int, int, range]]:
    """Every member with |entries| <= bound once, in rows (a, c, b0, d0, ks)
    holding the walked tuples (a, b0 + k*a, c, d0 + k*c) for k in ks.

    Where _conjugated(group), the walk runs on the conjugate by
    S = [[0, -1], [1, 0]]: (a, b, c, d) -> (d, -c, -b, a) has moduli
    (d_mod, c_mod, b_mod, a_mod) and the same entry bound, and is its own
    inverse, so a walked tuple stands for the member (d, -c, -b, a).
    Canonical lifts have c > 0, or c == 0 with a == d == 1, a row that
    steps b by b_mod and holds members only.  A member has c == 0
    (mod c_mod) and a == +-1 (mod a_mod), so only those (a, c) are walked;
    the determinant pins d to the class of a^-1 mod c and b to
    (a*d - 1)/c.  A factor a shares with b_mod would divide a*d - b*c = 1
    wherever b == 0 (mod b_mod), so a row is walked only for a a unit mod
    b_mod, and then b == 0 (mod b_mod) holds for one class of k mod b_mod:
    ks is that class within the entry bound.  Along it only d moves the
    membership test, by b_mod*c per class step.  Where d_mod divides
    that, group.contains is tested once per row, on its first k; on every
    factory of the group module the walked d_mod divides b_mod itself, so
    every row is.  Any other spec is tested k by k, and each k kept is a
    row of its own.  The mirror (a, b, c, d) -> (-a, b, c, -d) keeps the
    determinant, the entry box and membership, so each row with a > 0 is
    solved once and followed by its mirror (-a, c, b0, -d0, -ks), which
    holds equally many members.
    """
    flip = _conjugated(group)
    a_mod, b_mod, c_mod, d_mod = ((group.d_mod, group.c_mod, group.b_mod, group.a_mod)
                                  if flip else group[:4])

    def kept(a, c, b0, d0, k):
        b, d = b0 + k * a, d0 + k * c
        return group.contains((d, -c, -b, a) if flip else (a, b, c, d))

    yield 1, 0, 0, 1, range(-(bound // b_mod) * b_mod, bound + 1, b_mod)
    tops = [a for a in range(bound + 1) if math.gcd(a, b_mod) == 1
            and ((a - 1) % a_mod == 0 or (a + 1) % a_mod == 0)]
    for c in range(c_mod, bound + 1, c_mod):
        for a in tops:
            if math.gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, c) if c > 1 else 0
            b0 = (a * d0 - 1) // c
            first = -b0 * pow(a, -1, b_mod)
            # b = b0 + k*a and d = d0 + k*c, both within the bound
            ks = _class_steps(b0, a, d0, c, bound, first, b_mod)
            if b_mod * c % d_mod == 0:
                rows = [ks] if ks and kept(a, c, b0, d0, first) else []
            else:
                rows = [range(k, k + 1) for k in ks if kept(a, c, b0, d0, k)]
            for ks in rows:
                yield a, c, b0, d0, ks
                if a:
                    yield -a, c, b0, -d0, range(-ks[-1], 1 - ks[0], ks.step)


def _members(group: SubgroupSpec, bound: int) -> Iterator[tuple[int, int, int, int]]:
    """Every member with |entries| <= bound once, as the entry tuple
    (a, b, c, d) of the sign lift the walk reaches: the rows of
    _member_rows expanded k by k and mapped back from the S-conjugate
    where that was walked.  The walk yields the naive scan-and-filter
    set; matrices are built only for listed violations, class
    representatives and the sorted scan.
    """
    flip = _conjugated(group)
    for a, c, b0, d0, ks in _member_rows(group, bound):
        for k in ks:
            b, d = b0 + k * a, d0 + k * c
            yield (d, -c, -b, a) if flip else (a, b, c, d)


def _check_entry_bound(entry_bound: int) -> None:
    if not plain_int(entry_bound) or entry_bound < 1:
        raise InvalidBound(f"entry bound must be an integer >= 1, got {entry_bound!r}")
    refuse_above("the entry bound", entry_bound, SCAN_CEILING)


def enumerate_group(group: SubgroupSpec, entry_bound: int) -> BoundedGroupSample:
    """Exactly the canonical member matrices with |entries| <= entry_bound.

    The walk over the residue classes the group's moduli allow, with every
    candidate kept only if group.contains accepts it, so the sample equals
    a naive scan of the whole box filtered by contains, ordered by entry
    tuple.  Raises InvalidBound for a bound that is no integer (bools
    included) or is below 1, and BoundTooLarge above the scan ceiling.
    """
    _check_entry_bound(entry_bound)
    elements = sorted(UnimodularMatrix(*g) for g in _members(group, entry_bound))
    return BoundedGroupSample(group, entry_bound, tuple(elements))


def transitivity_witness(
    e1: DirectedEdge,
    e2: DirectedEdge,
    group: SubgroupSpec,
    entry_bound: int,
) -> UnimodularMatrix | None:
    """The bounded group element carrying edge e1 onto edge e2, if any.

    A determinant-one matrix sends a primitive column onto plus or minus
    a primitive column.  So with M1, M2 the matrices whose columns are
    the (num, den) pairs of e1's and e2's endpoints, the only candidate
    is g = M2 * diag(1, t) * M1**-1 for t = det M1 / det M2: integral
    exactly when |det M1| == |det M2| and det M1 divides every entry of
    M2 * diag(1, t) * adj(M1).  Two distinct points have a trivial joint
    stabilizer, so g is unique up to sign, and returning it only if its
    entries are within the bound, the group contains it and both vertex
    images match exactly gives the only hit of enumerate_group's scan
    under that filter.  Otherwise None, as for endpoints in different
    blocks.  Raises InvalidBound and BoundTooLarge as enumerate_group does.
    """
    _check_entry_bound(entry_bound)
    (a1, c1), (b1, d1) = e1
    (a2, c2), (b2, d2) = e2
    det = a1 * d1 - b1 * c1
    det2 = a2 * d2 - b2 * c2
    if det2 == -det:
        b2, d2 = -b2, -d2
    elif det2 != det:
        return None
    entries = []
    for n in (a2 * d1 - b2 * c1, b2 * a1 - a2 * b1,
              c2 * d1 - d2 * c1, d2 * a1 - c2 * b1):
        q, rem = divmod(n, det)
        if rem or abs(q) > entry_bound:
            return None
        entries.append(q)
    g = UnimodularMatrix(*entries)
    if group.contains(g) and g.apply(e1.src) == e2.src and g.apply(e1.dst) == e2.dst:
        return g
    return None


class OrbitalReport(namedtuple("OrbitalReport", (
    "spec group entry_bound height_bound member_count "
    "orbital_in_bound edge_count soundness_failures completeness_misses"
))):
    """Outcome of one oracle-versus-predicate comparison.

    Distinct members give distinct image pairs of the base pair, so the
    orbital pair count is derived, not stored: to_dict writes
    member_count as orbital_pairs.  member_count sums the range lengths
    of the member rows, a row and its mirror (-a, c) alike, and no member
    is visited to be counted.  orbital_in_bound counts the pairs inside
    the height window, solved per row where the cusp's image is fixed
    along the row and taken k by k where the walk's orientation moves it.
    soundness_failures lists, sorted, the orbital pairs inside the height
    window that are not enumerated edges, the only pairs built as points;
    a correct build keeps it empty.
    completeness_misses lists enumerated edges the bounded orbital never
    reached; they are reported, not failed.  The enumeration ignores the
    group's other modulus, so where that exceeds 1 the edges whose
    carrier is not a member stay missed at every entry bound: for F[1, 2]
    against gamma0_pair(2, 2) at height 30 the misses level off at 372
    from entry bound 30 on.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.soundness_failures

    @property
    def smallest_miss(self) -> DirectedEdge | None:
        return self.completeness_misses[0] if self.completeness_misses else None

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.label(),
            "group": self.group.label,
            "entry_bound": self.entry_bound,
            "height_bound": self.height_bound,
            "members": self.member_count,
            "orbital_pairs": self.member_count,
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
            f"{self.spec.label()} vs {self.group.label} "
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
    """Compare the enumerated edge set against raw group images of the base pair.

    The group sample is walked once by rows (_member_rows), and each row
    is counted as its range length.  Two distinct points have a trivial
    joint stabilizer, so distinct members carry the base pair to distinct
    image pairs and the orbital count is the member count.  The walk
    keeps the orientation with fewer rows, the S-conjugate when m > l.
    Where that fixes the image of the family's cusp along each row, 1/0
    maps to (a, c) on the group itself for finf, and 0/1 to (-c, a) on
    the S-conjugate for fzero.  A row whose cusp image lies outside the
    height window is then only counted, as is its mirror row (-a, c),
    which the walk derives without a solve.  On every other row the other
    base point's image is linear in k, and one _class_steps call solves
    the k that keep it inside the window, intersected with the row's
    range.  Where the orientation moves the cusp's image along each row
    (finf with m > l, fzero with l >= m), the row's k are expanded and
    both images tested, with no membership test per k.  A determinant-one
    image of a primitive column is primitive, so a window image is held
    as its column with the sign fixed, which equals and hashes as the
    point.  Soundness is the window pairs that are not edges, the misses
    the edges that are not window pairs, and points are built only for
    soundness failures.  The entry bound is checked first."""
    l, m = group.a_mod, group.b_mod
    if group != gamma0_pair(l, m):
        raise InvalidSpec("orbital comparison expects a gamma0_pair group")
    finf = spec.family == FAMILY_INFINITY
    if (l if finf else m) != spec.modulus:
        raise InvalidSpec(f"group {group.label} does not match graph "
                          f"modulus {spec.modulus}")
    _check_entry_bound(entry_bound)
    edges = enumerate_graph(spec, height_bound).edges
    alpha, beta = spec.base_pair()
    cusp_first = alpha == (INFINITY if finf else ZERO)
    flip = _conjugated(group)  # m > l
    # the other base point as a walked column: S^-1 of it on the conjugate,
    # up to sign, with a positive second entry either way
    x, y = beta if cusp_first else alpha
    if flip:
        x, y = -y, x
    h = height_bound

    def point(p, q):
        # the canonical column of the group image of a walked image column
        if flip:
            p, q = -q, p
        return (p, q) if q > 0 else (-p, -q) if q else (1, 0)

    members, window = 0, set()
    add = window.add
    rows = _member_rows(group, entry_bound)
    if flip != finf:  # the cusp is walked as 1/0, with the image (a, c)
        for a, c, b0, d0, ks in rows:
            members += len(ks)
            if c > h or a > h or a < -h:
                continue
            cusp = point(a, c)
            # the other image (t0 + k*dt, s0 + k*ds) inside the window
            t0, dt, s0, ds = a * x + b0 * y, a * y, c * x + d0 * y, c * y
            if c:
                steps = _class_steps(t0, dt, s0, ds, h, ks.start, ks.step)
            else:  # the row (1, k, 0, 1) moves the first entry alone
                steps = _class_steps(s0, 0, t0, dt, h, ks.start, ks.step)
            lo = steps.start if steps.start > ks.start else ks.start
            hi = steps.stop if steps.stop < ks.stop else ks.stop
            for k in range(lo, hi, ks.step):
                other = point(t0 + k * dt, s0 + k * ds)
                add((cusp, other) if cusp_first else (other, cusp))
    else:  # the cusp is walked as 0/1, with the image (b, d); these rows
        # are short, and expanding them beats both a second window solve
        # and the other orientation's walk, which has more rows
        for a, c, b0, d0, ks in rows:
            members += len(ks)
            for k in ks:
                b, d = b0 + k * a, d0 + k * c
                p, q = a * x + b * y, c * x + d * y
                if -h <= b <= h and -h <= d <= h and -h <= p <= h and -h <= q <= h:
                    cusp, other = point(b, d), point(p, q)
                    add((cusp, other) if cusp_first else (other, cusp))
    soundness = tuple(
        (ProjectiveRational(*src), ProjectiveRational(*dst))
        for src, dst in sorted(window.difference(edges))
    )
    misses = tuple(filterfalse(window.__contains__, edges))
    return OrbitalReport(
        spec=spec,
        group=group,
        entry_bound=entry_bound,
        height_bound=height_bound,
        member_count=members,
        orbital_in_bound=len(window),
        edge_count=len(edges),
        soundness_failures=soundness,
        completeness_misses=misses,
    )


def count_blocks(n: int) -> int:
    """Number of unit-scaling orbits of primitive residue pairs mod n.

    Direct orbit marking over all pairs (x, y) in (Z/n)^2 with
    gcd(x, y, n) == 1.  Independent of the multiplicative formula in the
    rational module, which it exists to corroborate.
    """
    if not plain_int(n) or n < 1:
        raise InvalidModulus(f"count_blocks needs an integer n >= 1, got {n!r}")
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


class LatticeReport(namedtuple("LatticeReport", (
    "n1 n2 entry_bound scanned intersection_violations products_checked "
    "product_violations"
))):
    """Scan evidence for the two subgroup lattice identities.

    The intersection identity is checked as an equivalence matrix by
    matrix.  The product identity is checked in the containment
    direction only; the reverse inclusion needs unbounded factors and is
    recorded as unchecked.  Every one of the products_checked products
    is decided exactly, through the pair of residue classes of its
    factors, and product_violations lists one product for each pair
    that fails, sorted.  unchecked, the same on every report, is a class
    attribute and not a field.
    """

    __slots__ = ()
    unchecked = "product identity reverse inclusion"

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
        lcm, gcd = math.lcm(self.n1, self.n2), math.gcd(self.n1, self.n2)
        return [
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


def verify_lattice_identity(n1: int, n2: int, entry_bound: int) -> LatticeReport:
    """Scan-check the intersection and product lattice identities.

    One walk of the full group's sample, as entry tuples, decides both
    halves.  The intersection half builds a matrix only for a violation.
    The product half counts the members of principal(n1) and gamma0(n2)
    among the walked ones, and keeps the first member of each residue
    class mod n, the lcm of the join's moduli.  join.contains reads b and
    c mod their moduli and a and d on both sign lifts, so it depends only
    on the entries mod n up to an overall sign.  Reduction mod n is a
    ring homomorphism, so the factors' classes fix the product's entries
    mod n, and the canonical lift of p * q only negates all four: one
    product of representatives decides its whole pair of classes.
    products_checked counts every product those decisions cover, and
    product_violations lists the representative products the join
    rejects, sorted, one per failing pair.
    """
    if not (plain_int(n1) and plain_int(n2)) or n1 < 1 or n2 < 1:
        raise InvalidModulus(f"moduli must be integers >= 1, got ({n1!r}, {n2!r})")
    _check_entry_bound(entry_bound)
    left, right, join = principal(n1), gamma0(n2), gamma0(math.gcd(n1, n2))
    meet_b, meet = principal(n2), principal(math.lcm(n1, n2))
    n = math.lcm(*join[:4])
    scanned, bad_meet = 0, []
    left_count = right_count = 0
    left_reps, right_reps = {}, {}
    for g in _members(full_group(), entry_bound):
        scanned += 1
        in_left, in_right = left.contains(g), right.contains(g)
        if (in_left and meet_b.contains(g)) != meet.contains(g):
            bad_meet.append(UnimodularMatrix(*g))
        if in_left or in_right:
            a, b, c, d = g
            key = (a % n, b % n, c % n, d % n)
            if in_left:
                left_count += 1
                left_reps.setdefault(key, g)
            if in_right:
                right_count += 1
                right_reps.setdefault(key, g)

    lefts = [UnimodularMatrix(*g) for g in left_reps.values()]
    rights = [UnimodularMatrix(*g) for g in right_reps.values()]
    return LatticeReport(
        n1=n1, n2=n2, entry_bound=entry_bound, scanned=scanned,
        intersection_violations=tuple(sorted(bad_meet)),
        products_checked=left_count * right_count,
        product_violations=tuple(sorted(
            pq for pq in (p * q for p in lefts for q in rights)
            if not join.contains(pq)
        )),
    )


class SelfPairedReport(namedtuple("SelfPairedReport", "spec entry_bound witness")):
    """Bounded witness search for an element exchanging the base pair.

    predicted, the closed-form answer is_self_paired(spec), is derived
    from the spec and not stored.
    """

    __slots__ = ()

    @property
    def predicted(self) -> bool:
        return is_self_paired(self.spec)

    @property
    def found(self) -> bool:
        return self.witness is not None

    @property
    def ok(self) -> bool:
        return self.found == self.predicted

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.label(),
            "entry_bound": self.entry_bound,
            "predicted": self.predicted,
            "witness": str(self.witness) if self.witness else None,
            "agrees": self.ok,
        }

    def text_lines(self) -> list[str]:
        if self.found:
            status = f"self-paired, witness {self.witness}"
        else:
            status = "not self-paired, no witness"
        verdict = "agreement" if self.ok else "DISAGREEMENT"
        return [
            f"{self.spec.label()} (entries <= {self.entry_bound}): "
            f"{status} -- {verdict}"
        ]


def verify_self_paired(spec: GraphSpec, entry_bound: int) -> SelfPairedReport:
    """Search bounded determinant-one matrices for a base pair exchange.

    The search is transitivity_witness from the base edge onto its
    reverse over the full group: an exchanging element exists
    independently of congruence restrictions or not at all, and the
    predicate under test quantifies over plain determinant-one matrices.
    The witness is solved in constant time from the base vertices'
    columns and is still the unique bounded hit of the scan; neither the
    scan nor the predicate's formula below is used to find it.

    When one exists it is unique up to sign; for the finf pair (1/0, u/m)
    it is [[u, -(u*u + 1)/m], [m, -u]], and an fzero pair uses its
    R-conjugate.  An entry bound below its largest entry cannot decide
    the question and raises InvalidBound.
    """
    _check_entry_bound(entry_bound)
    predicted = is_self_paired(spec)
    u, m = spec.forward_u(), spec.modulus
    needed = max(u, m, (u * u + 1) // m)
    if predicted and entry_bound < needed:
        raise InvalidBound(
            f"entry bound {entry_bound} cannot reach the element exchanging "
            f"the base pair of {spec.label()}; it needs entry bound {needed}"
        )
    alpha, beta = spec.base_pair()
    witness = transitivity_witness(
        DirectedEdge(alpha, beta), DirectedEdge(beta, alpha), full_group(), entry_bound
    )
    return SelfPairedReport(spec, entry_bound, witness)
