"""Directed graphs induced on one block of the extended rationals.

A graph spec names a family, a unit parameter u and a modulus m.  The
"finf" family F[u, m] lives on the block of 1/0 and couples the edge
determinant r*y - s*x to +m or -m by one set of congruences.  The
"fzero" family F[m, u] lives on the block of 0/1 and is the image of
F[u, m] under the reflection R: x/y -> y/x, which swaps 1/0 and 0/1.
The reversed flag realizes the partner graph whose edges are exactly
the originals written backwards.  Specs and graphs are tuple records,
as points and edges are tuple values.

Only the finf rule is written out: an fzero pair is tested as its
R-image, swapped for a reversed spec.  The canonical fraction of a
vertex may carry either sign lift of the matrix column that produced
it, so the residue that a lift pins to 1 is tested against 1 and -1,
and the sign of the edge determinant fixes the sign that relates the
second vertex to the first.

Enumeration is output-sensitive: the congruences admit a tail by one
residue up to sign and put its heads in one class of steps along the
line r*y - s*x = +m, whose points with y <= 0 are the -m line's heads
negated, so every point walked is an edge.  The walk is the graph: a
SuborbitalGraph holds the vertex list and each tail's sorted head
positions, which the writers and the parser read as they are, and it
builds DirectedEdge values only when its edges are asked for.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import partial
from itertools import repeat
from operator import itemgetter

from .errors import (
    InvalidBound,
    InvalidSpec,
    InvariantViolation,
    plain_int,
    refuse_above,
)
from .rational import INFINITY, POINT_TEXT, ZERO, ProjectiveRational, mod_inverse

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
    "ENUMERATION_CEILING",
]

FAMILY_INFINITY = "finf"
FAMILY_ZERO = "fzero"
_EDGE_TEXT = f"{POINT_TEXT} -> {POINT_TEXT} [%s]"  # str() of an edge


class GraphSpec(namedtuple("GraphSpec", "family u modulus reversed")):
    """Parameters (family, u, modulus, reversed) of one graph: the tuple
    it equals and hashes as.

    u and the modulus are integers, not bools, and the reversed flag is a
    bool, as a JSON document holds them.  u must be a unit for the
    modulus, strictly below it once the modulus exceeds 1, and 1 at
    modulus 1.  The reversed flag is only meaningful for the fzero
    family, where it encodes the partner graph.
    """

    __slots__ = ()

    def __new__(cls, family: str, u: int, modulus: int, reversed: bool = False):
        if family not in (FAMILY_INFINITY, FAMILY_ZERO):
            raise InvalidSpec(f"unknown graph family {family!r}")
        if not (plain_int(u) and plain_int(modulus)):
            raise InvalidSpec(f"u and modulus must be integers, got ({u!r}, {modulus!r})")
        if not isinstance(reversed, bool):
            raise InvalidSpec(f"reversed must be a boolean, got {reversed!r}")
        if modulus < 1:
            raise InvalidSpec(f"modulus must be >= 1, got {modulus}")
        if u < 1:
            raise InvalidSpec(f"u must be >= 1, got {u}")
        if u >= max(modulus, 2):
            need = "be 1 at modulus 1" if modulus == 1 else (
                f"satisfy 1 <= u < {modulus}")
            raise InvalidSpec(f"u must {need}, got {u}")
        if math.gcd(u, modulus) != 1:
            raise InvalidSpec(f"u and modulus must be coprime, got ({u}, {modulus})")
        if reversed and family != FAMILY_ZERO:
            raise InvalidSpec("only fzero graphs have a reversed form")
        return tuple.__new__(cls, (family, u, modulus, reversed))

    # _replace builds through _make, so both construct through the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

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

    def label(self) -> str:
        if self.family == FAMILY_INFINITY:
            return f"F[{self.u}, {self.modulus}]"
        head = -self.modulus if self.reversed else self.modulus
        return f"F[{head}, {self.u}]"


class DirectedEdge(tuple):
    """An ordered pair of distinct vertices, stored as the tuple (src, dst)."""

    __slots__ = ()

    def __new__(cls, src: ProjectiveRational, dst: ProjectiveRational):
        if src == dst:
            raise InvariantViolation(f"loop edge at {src}")
        return tuple.__new__(cls, (src, dst))

    src = property(itemgetter(0))
    dst = property(itemgetter(1))

    @property
    def sign(self) -> int:
        """The sign of r*y - s*x for the edge r/s -> x/y, as edge_check
        returns it: +1 exactly when r*y > s*x, else -1."""
        (r, s), (x, y) = self
        return 1 if r * y > s * x else -1

    # an edge is a value, not a sequence: tuple concatenation and
    # repetition are refused, so + and * raise TypeError
    def __add__(self, other: object):
        return NotImplemented

    __radd__ = __mul__ = __rmul__ = __add__

    def __str__(self) -> str:
        (r, s), (x, y) = self
        return _EDGE_TEXT % (r, s, x, y, "+" if r * y > s * x else "-")


def _congruences_hold(
    u: int, m: int, src: ProjectiveRational, dst: ProjectiveRational
) -> bool:
    """Test the finf residue conditions of the pair src -> dst.

    r*y - s*x on the canonical fractions is already known to be +m or -m.
    With eps = (r*y - s*x) / m, the tail r/s and head x/y of an edge of
    F[u, m] satisfy s == y == 0, r == 1 or -1, and x == eps*u*r (mod m).
    The choice of 1 or -1 is the sign lift of the tail; the sign lift of
    the head flips x, y and eps together and so cancels.
    """
    (r, s), (x, y) = src, dst
    eps = (r * y - s * x) // m
    return (
        s % m == 0
        and y % m == 0
        and ((r - 1) % m == 0 or (r + 1) % m == 0)
        and (x - eps * u * r) % m == 0
    )


def _as_finf(
    spec: GraphSpec, points: Sequence[ProjectiveRational]
) -> Sequence[tuple[int, int]]:
    """Canonical points in the coordinates of the finf rule: unchanged for
    finf, and for fzero their reflections R(x/y) = y/x as canonical
    pairs, which map the block of 0/1 onto the block of 1/0 and keep
    every height."""
    if spec.family == FAMILY_INFINITY:
        return points
    return [(y, x) if x > 0 else (-y, -x) if x else (1, 0) for x, y in points]


def edge_check(
    spec: GraphSpec, src: ProjectiveRational, dst: ProjectiveRational
) -> int | None:
    """Sign of the edge src -> dst, or None when the pair is not an edge.

    The pair must have r*y - s*x = +m or -m, and its finf image must pass
    the congruences with the forward unit: (R src, R dst) for fzero, and
    (R dst, R src) for a reversed spec.  The returned sign is that of
    r*y - s*x for the pair as given: +1 exactly when r*y > s*x.
    """
    m = spec.modulus
    (r, s), (x, y) = src, dst
    delta = r * y - s * x
    if delta != m and delta != -m:
        return None
    tail, head = _as_finf(spec, (src, dst))
    if spec.reversed:
        tail, head = head, tail
    if not _congruences_hold(spec.forward_u(), m, tail, head):
        return None
    return 1 if delta > 0 else -1


def _block_vertices(spec: GraphSpec, bound: int) -> list[ProjectiveRational]:
    """The block's points up to the height bound, generated in (num, den)
    order: den == 0 (mod m) for finf, num == 0 (mod m) for fzero.  Each
    row's coprime denominators are solved once for num and -num, and its
    pairs are held without the normalising constructor."""
    m = spec.modulus
    finf = spec.family == FAMILY_INFINITY
    dens = range(m, bound + 1, m) if finf else range(1, bound + 1)
    rows = [[den for den in dens if math.gcd(num, den) == 1]
            if finf or num % m == 0 else () for num in range(bound + 1)]
    # gcd(num, den) == 1 with den > 0 is already a canonical point
    point = partial(tuple.__new__, ProjectiveRational)
    out: list[ProjectiveRational] = []
    for num in range(-bound, bound + 1):
        if num == 1 and (finf or m == 1):
            out.append(INFINITY)
        out += map(point, zip(repeat(num), rows[abs(num)]))
    return out


def _vertex_estimate(spec: GraphSpec, bound: int) -> int:
    """O(1) upper bound on len(_block_vertices(spec, bound))."""
    return (2 * bound + 1) * (bound // spec.modulus) + 2


def _candidate_estimate(spec: GraphSpec, bound: int) -> int:
    """O(1) upper bound on the lattice points enumerate_graph looks up.

    Every family walks the block of 1/0 up to the height bound (fzero
    through R).  1/0 looks up 2B+1 points, and a vertex with denominator
    s at most 2B//s + 1 on its one line, priced as 2*(B//s + 1); there
    are at most 2B+1 vertices with each denominator m*j, j <= n = B//m.
    A sum of k//j + 1 over j <= k is at most k*(2 + ln k) < k*(2 + 0.7*bitlen(k)).
    """
    n = bound // spec.modulus
    walked = 2 * n * (2 + -(-7 * n.bit_length() // 10))
    return (2 * bound + 1) * (1 + walked)


# enumerate_graph's vertices plus lattice lookups; more are refused.  This
# admits F[1, 1] up to height 725, which `edges` walks and writes as JSON
# in 5.2 to 5.7 s at 356 MB peak memory (Python 3.11.7, one Xeon core).
ENUMERATION_CEILING = 2 * 10**7


def _class_steps(
    x: int, dx: int, y: int, dy: int, bound: int, cls: int, mod: int
) -> range:
    """The k == cls (mod mod) with |x + k*dx| <= bound and |y + k*dy| <= bound,
    for dy > 0; a negative dx is walked as -x, -dx.  The two ranges of k meet
    by comparisons: max and min would cost two calls on every line walked."""
    lo, hi = -((y + bound) // dy), (bound - y) // dy
    if dx:
        if dx < 0:
            x, dx = -x, -dx
        lo_x, hi_x = -((x + bound) // dx), (bound - x) // dx
        lo, hi = (lo if lo > lo_x else lo_x), (hi if hi < hi_x else hi_x)
    elif abs(x) > bound:
        return range(0)
    return range(lo + (cls - lo) % mod, hi + 1, mod)


def enumerate_graph(spec: GraphSpec, height_bound: int) -> "SuborbitalGraph":
    """The graph as its walk: the block's vertices up to the height bound
    in (num, den) order, so positions sort as the points do, and each tail
    that has heads as (its position, its sorted head positions).
    The walk runs in finf coordinates: an fzero vertex is walked as its
    reflection R(v), and each head found is looked up by its reflection,
    so fzero is the R-image of finf and a reversed spec is its swapped
    partner.  The tail r/s of an edge fixes its head x/y up to the two
    lattice lines r*y - s*x = delta = +m and -m.  A forward tail needs
    r == +-1 (mod m) and walks the steps k == (delta/m)*u on each line;
    a reversed spec walks the heads of forward edges, r == +-u (mod m)
    for the forward unit u, back to their tails with k == -(delta/m)*u'
    for the stored unit u'.  Every block vertex has s == 0 (mod m) in
    finf coordinates, so this walk is the whole rule: every point walked
    is a vertex and an edge, and the work is the vertices plus the edges.
    For s > 0 the lines are (x, y) = delta*(x0, y0) + k*(r, s) with
    r*y0 - s*x0 = 1; k -> -k maps the -m line's class onto the +m line's,
    so one window, solved in place with the arithmetic of _class_steps,
    walks the +m line across |y| <= bound: from its first point in the
    window by steps of (m*r, m*s), its points with y <= 0 negated onto
    the -m line ((-1, 0) onto 1/0).  A tail with one head keeps its
    position with no list and no sort.  For 1/0, delta is y itself and
    the one line in the window is (k, m).
    Raises InvalidBound for a bound that is no integer (bools included) or
    is below 1, and BoundTooLarge when the estimated vertices plus lattice
    lookups exceed ENUMERATION_CEILING.
    """
    if not plain_int(height_bound):
        raise InvalidBound(f"height bound must be an integer, got {height_bound!r}")
    if height_bound < 1:
        raise InvalidBound(f"height bound must be >= 1, got {height_bound}")
    refuse_above(
        f"estimated vertices and lattice lookups to height {height_bound}",
        _vertex_estimate(spec, height_bound)
        + _candidate_estimate(spec, height_bound),
        ENUMERATION_CEILING,
    )
    vertices = tuple(_block_vertices(spec, height_bound))
    tails = _as_finf(spec, vertices)
    find = dict(zip(tails, range(len(tails)))).get
    bound = height_bound
    m = spec.modulus
    u = spec.forward_u()
    t, c = (u, -spec.u) if spec.reversed else (1, u)
    admitted = {t % m, -t % m}
    heads: list[tuple[int, tuple[int, ...]]] = []
    for i, (r, s) in enumerate(tails):
        if r % m not in admitted:
            continue
        if s == 0:  # 1/0: delta is y itself, and the line is (k, m)
            if m <= bound:
                heads.append((i, tuple(sorted([
                    find((x, m)) for x in range(-bound + (c + bound) % m, bound + 1, m)]))))
            continue
        # the +m line (x0, y0) + k*(r, s), its k-window solved as
        # _class_steps(x0, r, y0, s, bound, c, m) solves it
        y0 = pow(r, -1, s)
        x0, y0 = m * ((r * y0 - 1) // s), m * y0
        lo, hi = -((y0 + bound) // s), (bound - y0) // s
        if r > 0:
            lo_x, hi_x = -((x0 + bound) // r), (bound - x0) // r
        elif r:
            lo_x, hi_x = -((bound - x0) // -r), (x0 + bound) // -r
        else:  # 0/1 at m = 1, whose line x = x0 = -1 lies in the window
            lo_x, hi_x = lo, hi
        if lo < lo_x:
            lo = lo_x
        if hi > hi_x:
            hi = hi_x
        k = lo + (c - lo) % m
        if k > hi:
            continue
        # the first point in the window, then steps of (m*r, m*s); points
        # with y <= 0 negate to the -m line
        x, y = x0 + k * r, y0 + k * s
        if k + m > hi:  # one head: no list, no sort
            heads.append((i, (find((x, y) if y > 0 else (-x, -y)),)))
            continue
        dx, dy = m * r, m * s
        found = []
        for _ in range((hi - k) // m + 1):
            found.append(find((x, y) if y > 0 else (-x, -y)))
            x += dx
            y += dy
        found.sort()  # the line runs in step order, not in vertex order
        heads.append((i, tuple(found)))
    return SuborbitalGraph(spec, height_bound, vertices, tuple(heads))


class SuborbitalGraph(namedtuple("SuborbitalGraph", "spec height_bound vertices heads")):
    """One enumerated graph, held as its walk by vertex position.

    vertices is the tuple of the block's points up to the height bound in
    (num, den) order; heads holds, for each tail that has heads and in
    tail order, the pair (tail position, sorted tuple of head positions).
    Read tail by tail, the heads give the edges in sorted order.
    """

    __slots__ = ()

    @property
    def edges(self) -> tuple[DirectedEdge, ...]:
        """The sorted DirectedEdge tuple, built from the heads on every
        read: O(edges) time and memory.  An edge joins vertices with
        r*y - s*x = +-m, never a loop, so DirectedEdge's check is skipped."""
        vertices = self.vertices
        edge = partial(tuple.__new__, DirectedEdge)
        return tuple([edge((vertices[i], vertices[j]))
                      for i, found in self.heads for j in found])


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
    flag toggles, so applying this twice returns the original spec.  A
    finf spec has no reversed form, and GraphSpec refuses it.
    """
    m = spec.modulus
    partner_u = mod_inverse(spec.u, m) if m > 1 else 1
    return GraphSpec(spec.family, partner_u, m, not spec.reversed)
