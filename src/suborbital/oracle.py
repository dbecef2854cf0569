"""Brute-force ground truth for the graph predicates.

Everything here works from first principles: walks of bounded integer
matrices, exhaustive over the residue classes of a, b and c a subgroup's
moduli allow, in rows of one first column each filtered once by its
membership test, built as matrices only for a listed violation or a
class representative; the one matrix carrying an edge onto another,
solved exactly from the endpoints' columns with no entry bound; direct
orbit marking over residue pairs; and raw group action on the base
pair's columns, an fzero pair's reflected onto the block of 1/0,
counted and solved for the height window row by row,
then set against a walked graph's vertex pairs, with points built only
for soundness failures and edges only for misses.  The graph module's
edge predicate is never read, so agreement is evidence rather than
circularity.  Reports are tuple records that equal and hash as their
field tuples.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import filterfalse

from .errors import InvalidBound, InvalidModulus, InvalidSpec, plain_int, refuse_above
from .graphs import (
    FAMILY_INFINITY,
    DirectedEdge,
    GraphSpec,
    SuborbitalGraph,
    _class_steps,
    is_self_paired,
)
from .group import (
    SubgroupSpec,
    UnimodularMatrix,
    full_group,
    gamma0,
    gamma0_pair,
)
from .rational import INFINITY, ZERO, ProjectiveRational

__all__ = [
    "SCAN_CEILING",
    "check_entry_bound",
    "transitivity_witness",
    "OrbitalReport",
    "compare_edges_vs_orbital",
    "BLOCKS_WORK_CEILING",
    "count_blocks",
    "LatticeReport",
    "verify_lattice_identity",
    "SelfPairedReport",
    "verify_self_paired",
]

# larger entry bounds are refused; a member walk grows with the bound's
# square, to 17,626 members of the full group at 60 and a fraction of
# that for a subgroup, whose walk visits only the classes its moduli allow
SCAN_CEILING = 60


def _member_rows(
    group: SubgroupSpec, bound: int, reach: float = math.inf,
    counted: list[int] | None = None,
) -> Iterator[tuple[int, int, int, int, range]]:
    """Every member with |entries| <= bound once, in rows (a, c, b0, d0, ks)
    holding the walked tuples (a, b0 + k*a, c, d0 + k*c) for k in ks.

    Canonical lifts have c > 0, or c == 0 with a == d == 1, a row that
    steps b by b_mod and holds members only.  A member has c == 0
    (mod c_mod) and a == +-1 (mod a_mod), so only those (a, c) are walked;
    the determinant pins d to the class of a^-1 mod c and b to
    (a*d - 1)/c.  A factor a shares with b_mod would divide a*d - b*c = 1
    wherever b == 0 (mod b_mod), so a row is walked only for a a unit mod
    b_mod, and then b == 0 (mod b_mod) holds for one class of k mod b_mod:
    ks is that class within the entry bound.  Along it only d moves the
    membership test, by b_mod*c per class step, so group.contains decides
    a whole row on its first k.  That needs d_mod to divide b_mod, which
    every factory of the group module meets, and so every group the
    oracle walks: gamma0_pair and the full group.  The mirror
    (a, b, c, d) -> (-a, b, c, -d) keeps the determinant, the entry box
    and membership, so each row with a > 0 is solved once and followed by
    its mirror (-a, c, b0, -d0, -ks), which holds equally many members.

    Given a reach, a row whose first column has c > reach or |a| > reach
    is counted and not walked: the members it and its mirror hold are
    added to counted[0], from the k and hi its class steps were solved
    to, with no range built and nothing yielded.  With no reach given,
    every row is yielded.
    """
    a_mod, b_mod, c_mod = group[:3]
    yield 1, 0, 0, 1, range(-(bound // b_mod) * b_mod, bound + 1, b_mod)
    tops = [(a, pow(a, -1, b_mod)) for a in range(bound + 1) if math.gcd(a, b_mod) == 1
            and ((a - 1) % a_mod == 0 or (a + 1) % a_mod == 0)]
    for c in range(c_mod, bound + 1, c_mod):
        far = c > reach
        for a, a_inv in tops:
            if math.gcd(a, c) != 1:
                continue
            d0 = pow(a, -1, c) if c > 1 else 0
            b0 = (a * d0 - 1) // c
            # the k == -b0 * a^-1 (mod b_mod), from k to hi, that keep
            # b = b0 + k*a and d = d0 + k*c within the bound (a == 0 only at
            # c == 1, where b0 == -1), kept inline: a _class_steps call per
            # row makes compare_edges_vs_orbital 5.5 % slower
            lo, hi = -((d0 + bound) // c), (bound - d0) // c
            if a:
                lo_a, hi_a = -((b0 + bound) // a), (bound - b0) // a
                lo, hi = (lo if lo > lo_a else lo_a), (hi if hi < hi_a else hi_a)
            k = lo + (-b0 * a_inv - lo) % b_mod
            if k > hi:
                continue
            if not group.contains((a, b0 + k * a, c, d0 + k * c)):
                continue
            if far or a > reach:
                counted[0] += ((hi - k) // b_mod + 1) * (2 if a else 1)
                continue
            ks = range(k, hi + 1, b_mod)
            yield a, c, b0, d0, ks
            if a:
                yield -a, c, b0, -d0, range(-ks[-1], 1 - ks[0], b_mod)


def check_entry_bound(entry_bound: int) -> None:
    """Refuse an entry bound that is no integer (bools included) or is below
    1 (InvalidBound), or is above SCAN_CEILING."""
    if not plain_int(entry_bound) or entry_bound < 1:
        raise InvalidBound(f"entry bound must be an integer >= 1, got {entry_bound!r}")
    refuse_above("the entry bound", entry_bound, SCAN_CEILING)


def transitivity_witness(
    e1: DirectedEdge, e2: DirectedEdge, group: SubgroupSpec
) -> UnimodularMatrix | None:
    """The group element carrying edge e1 onto edge e2, if any.

    A determinant-one matrix sends a primitive column onto plus or minus
    a primitive column.  So with M1, M2 the matrices whose columns are
    the (num, den) pairs of e1's and e2's endpoints, the only candidate
    is g = M2 * diag(1, t) * M1**-1 for t = det M1 / det M2: integral
    exactly when |det M1| == |det M2| and det M1 divides every entry of
    M2 * diag(1, t) * adj(M1).  Two distinct points have a trivial joint
    stabilizer, so g is unique up to sign: it is returned, however large
    its entries, if the group contains it and both vertex images match
    exactly, and no other member carries e1 onto e2.  Otherwise None, as
    for endpoints in different blocks.
    """
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
        if rem:
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
    is visited to be counted; a row beyond the height window's reach is
    counted by the walk and never walked.  orbital_in_bound counts the
    pairs inside the height window, solved per row.
    soundness_failures lists, sorted, the orbital pairs inside the height
    window that are not enumerated edges, the only pairs built as points;
    a correct build keeps it empty.
    completeness_misses lists the enumerated edges the bounded orbital
    never reached, the only edges built as DirectedEdge values; they are
    reported, not failed.  The enumeration ignores the group's other
    modulus, so where that exceeds 1 the edges whose carrier is not a
    member stay missed at every entry bound: for F[1, 2] against
    gamma0_pair(2, 2) at height 30 the misses level off at 372 from entry
    bound 30 on.
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


def compare_edges_vs_orbital(graph: SuborbitalGraph, group: SubgroupSpec,
                             entry_bound: int) -> OrbitalReport:
    """Compare a walked graph's edges with group images of its base pair.

    The group's members within the entry bound are walked once by rows
    (_member_rows), and each row is counted as its range length.  Two
    distinct points have a trivial joint stabilizer, so distinct members
    carry the base pair to distinct image pairs and the orbital count is
    the member count.  A finf pair is walked on the group itself, and an
    fzero pair as its image under R: x/y -> y/x, on gamma0_pair(m, l):
    R*[[a, b], [c, d]]*R = [[d, c], [b, a]] maps gamma0_pair(l, m) onto
    it, keeps the entry box and every height, and takes 0/1 to 1/0, as
    graphs._as_finf walks fzero.  So the cusp's image is each row's first
    column (a, c), and a row holds a window pair only if c and |a| are
    within the height bound h: the walk is given h as its reach, and every
    other row, with its mirror (-a, c), is counted by the walk, never
    yielded nor solved.  On each row walked the other base point's image
    is linear in k, and one _class_steps call solves the k that keep it
    inside the window, intersected with the row's range; each image column
    is reflected back by R for fzero.  A determinant-one image of a
    primitive column is primitive, so a window image is held as its column
    with the sign fixed, which equals and hashes as the point, and the
    edges are read from the heads as (src, dst) vertex pairs.  The misses,
    each built as a DirectedEdge, are the edges that are not window pairs.
    Edges are distinct, so window pairs that are not edges, the soundness
    failures and the only pairs built as points, exist only if fewer edges
    than window pairs lie in the window."""
    spec, h = graph.spec, graph.height_bound
    l, m = group.a_mod, group.b_mod
    if group != gamma0_pair(l, m):
        raise InvalidSpec("orbital comparison expects a gamma0_pair group")
    finf = spec.family == FAMILY_INFINITY
    if (l if finf else m) != spec.modulus:
        raise InvalidSpec(f"group {group.label} does not match graph "
                          f"modulus {spec.modulus}")
    check_entry_bound(entry_bound)
    alpha, beta = spec.base_pair()
    cusp_first = alpha == (INFINITY if finf else ZERO)
    # the other base point as a walked column, reflected by R for fzero
    x, y = beta if cusp_first else alpha
    if not finf:
        x, y = y, x

    def point(p, q):
        # the canonical column of the group image of a walked image column
        if not finf:
            p, q = q, p
        return (p, q) if q > 0 else (-p, -q) if q else (1, 0)

    members, counted, window = 0, [0], set()
    add = window.add
    walk = group if finf else gamma0_pair(m, l)
    # a window pair needs the cusp's image (a, c) within the height bound
    for a, c, b0, d0, ks in _member_rows(walk, entry_bound, h, counted):
        members += len(ks)
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
    vertices = graph.vertices
    pairs = [(vertices[i], vertices[j]) for i, found in graph.heads for j in found]
    misses = tuple(map(partial(tuple.__new__, DirectedEdge),
                       filterfalse(window.__contains__, pairs)))
    soundness = () if len(window) == len(pairs) - len(misses) else tuple(
        (ProjectiveRational(*src), ProjectiveRational(*dst))
        for src, dst in sorted(window.difference(pairs))
    )
    return OrbitalReport(
        spec=spec, group=group, entry_bound=entry_bound, height_bound=h,
        member_count=members + counted[0], orbital_in_bound=len(window),
        edge_count=len(pairs),
        soundness_failures=soundness, completeness_misses=misses,
    )


# residue pairs marked: n*n by count_blocks(n), their sum by the blocks suite
BLOCKS_WORK_CEILING = 1_000_000


def count_blocks(n: int) -> int:
    """Number of unit-scaling orbits of primitive residue pairs mod n.

    Direct orbit marking over all pairs (x, y) in (Z/n)^2 with
    gcd(x, y, n) == 1, in a flat table indexed x*n + y, with gcd(x, n)
    taken once per row.  Independent of the multiplicative formula in the
    rational module, which it exists to corroborate.  Raises
    BoundTooLarge where n*n exceeds BLOCKS_WORK_CEILING.
    """
    if not plain_int(n) or n < 1:
        raise InvalidModulus(f"count_blocks needs an integer n >= 1, got {n!r}")
    refuse_above(f"the residue pairs for count_blocks({n})", n * n, BLOCKS_WORK_CEILING)
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    seen = bytearray(n * n)
    blocks = 0
    for x in range(n):
        gx, row = math.gcd(x, n), x * n
        for y in range(n):
            if seen[row + y] or math.gcd(gx, y) != 1:
                continue
            blocks += 1
            for u in units:
                seen[u * x % n * n + u * y % n] = 1
    return blocks


class LatticeReport(namedtuple("LatticeReport", (
    "n1 n2 entry_bound scanned intersection_violations products_checked "
    "product_violations"
))):
    """Scan evidence for the two subgroup lattice identities.

    The intersection identity is checked on every scanned matrix, and
    intersection_violations lists, sorted, the members of principal(n1)
    and principal(n2) outside principal(lcm): the sign lifts with a == +-1
    modulo n1 and n2 but not modulo lcm.  The product identity is checked
    in the containment direction only; the reverse inclusion needs
    unbounded factors and is recorded as unchecked.  Every one of the
    products_checked products is decided exactly, through the pair of
    residue classes of its factors, and product_violations lists one
    product for each pair that fails, sorted.  unchecked, the same on
    every report, is a class attribute and not a field.
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


def _b_class(ks: range, a: int, b0: int, n: int) -> range:
    """The k of a row's range (step one) whose member has b = b0 + k*a
    == 0 (mod n), for a with a*a == 1 (mod n): a is then its own inverse
    mod n, so they are the one class k == -b0*a (mod n)."""
    return ks[(-b0 * a - ks.start) % n::n]


def verify_lattice_identity(n1: int, n2: int, entry_bound: int) -> LatticeReport:
    """Scan-check the intersection and product lattice identities.

    One walk of the full group's members by rows (_member_rows) decides
    both halves, and each row adds its range length to scanned.  Along a
    row a and c are fixed and only b and d move, so membership is decided
    per row: gamma0(n2) is c == 0 mod n2 and holds or misses the whole
    row.  With c == 0 mod n, a*d - b*c = 1 forces d == a^-1, so a row
    meets principal(n) only where a == +-1 (mod n), and then on the one
    class of k with b == 0 (mod n) (_b_class), counted by its length.  The
    intersection violations, the only matrices its half builds, are that
    class mod lcm on rows with c == 0 (mod lcm) and a == +-1 modulo n1
    and n2 but not modulo lcm.  The product half counts the members of
    principal(n1) and gamma0(n2) and keeps the first of each residue class
    mod n, the lcm of the join's moduli: b and d mod n repeat after n
    steps of k, and after n/gcd(n, n1) steps, one for the join
    gamma0(gcd), along the principal(n1) class.  join.contains reads b and
    c mod their moduli and a and d on both sign lifts, so it depends only
    on the entries mod n up to an overall sign.  Reduction mod n is a ring
    homomorphism, so the factors' classes fix the product's entries mod
    n, and the canonical lift of p * q only negates all four: one product
    of representatives decides its whole pair of classes.
    products_checked counts every product those decisions cover, and
    product_violations lists the representative products the join
    rejects, sorted, one per failing pair.
    """
    if not (plain_int(n1) and plain_int(n2)) or n1 < 1 or n2 < 1:
        raise InvalidModulus(f"moduli must be integers >= 1, got ({n1!r}, {n2!r})")
    check_entry_bound(entry_bound)
    right, join = gamma0(n2), gamma0(math.gcd(n1, n2))
    lcm = math.lcm(n1, n2)
    n = math.lcm(*join[:4])
    period = n // math.gcd(n, n1)
    scanned, bad_meet = 0, []
    left_count = right_count = 0
    left_reps, right_reps = {}, {}
    for a, c, b0, d0, ks in _member_rows(full_group(), entry_bound):
        scanned += len(ks)
        if c % right.c_mod == 0:  # gamma0(n2) tests c alone: the whole row
            right_count += len(ks)
            for k in ks[:n]:
                b, d = b0 + k * a, d0 + k * c
                right_reps.setdefault((a % n, b % n, c % n, d % n), (a, b, c, d))
        if c % n1 or a % n1 not in (1, n1 - 1):
            continue  # no member of principal(n1), nor of the intersection
        left = _b_class(ks, a, b0, n1)
        left_count += len(left)
        for k in left[:period]:
            b, d = b0 + k * a, d0 + k * c
            left_reps.setdefault((a % n, b % n, c % n, d % n), (a, b, c, d))
        if c % lcm == 0 and a % n2 in (1, n2 - 1) and a % lcm not in (1, lcm - 1):
            # a*a == 1 modulo n1 and n2, so modulo lcm
            bad_meet += [UnimodularMatrix(a, b0 + k * a, c, d0 + k * c)
                         for k in _b_class(ks, a, b0, lcm)]

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
    """Solved witness for an element exchanging the base pair.

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
    """Solve for a determinant-one matrix exchanging the base pair.

    The witness is transitivity_witness from the base edge onto its
    reverse over the full group: an exchanging element exists
    independently of congruence restrictions or not at all, and the
    predicate under test quantifies over plain determinant-one matrices.
    It is solved exactly in constant time from the base vertices'
    columns with no entry bound; neither a scan nor the predicate's
    formula below is used to find it.

    When one exists it is unique up to sign; for the finf pair (1/0, u/m)
    it is [[u, -(u*u + 1)/m], [m, -u]], and an fzero pair uses its
    R-conjugate.  The entry bound only frames the report: one below that
    element's largest entry raises InvalidBound before any solve, so a
    reported witness lies within it.
    """
    check_entry_bound(entry_bound)
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
        DirectedEdge(alpha, beta), DirectedEdge(beta, alpha), full_group()
    )
    return SelfPairedReport(spec, entry_bound, witness)
