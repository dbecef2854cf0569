"""Integer reference computations that the benchmark checks the program against.

Nothing here imports the package under test.  A point of the extended
rational line is a (num, den) pair in canonical form: den >= 0, the sign
on the numerator, gcd(|num|, den) == 1, and 1/0 the only point with
den == 0.  A matrix is an (a, b, c, d) tuple.

The reading of a graph encoded here: the graph of a spec is the orbit of
its base pair under gamma0_pair(modulus, 1) for the finf family and under
gamma0_pair(1, modulus) for the fzero family, restricted to the vertices
of the base point's block within the height bound.  The base pair has a
trivial stabilizer, so each edge has exactly one carrier up to sign: the
matrix that takes the base pair onto the edge.
"""

from __future__ import annotations

import math
from functools import lru_cache

INF = (1, 0)
ZERO = (0, 1)


def point(num: int, den: int) -> tuple[int, int]:
    """Canonical form of num/den."""
    if num == 0 and den == 0:
        raise ValueError("0/0 names no point")
    if den == 0:
        return INF
    if num == 0:
        return ZERO
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return (num // g, den // g)


def text(p: tuple[int, int]) -> str:
    return f"{p[0]}/{p[1]}"


def parse_point(s: str) -> tuple[int, int]:
    """Read "num/den"; raises ValueError unless it is already canonical."""
    head, sep, tail = s.partition("/")
    if not sep:
        raise ValueError(f"not a fraction: {s!r}")
    p = (int(head), int(tail))
    if point(*p) != p:
        raise ValueError(f"not in canonical form: {s!r}")
    return p


def greater(v: tuple[int, int], w: tuple[int, int]) -> bool:
    """Value order with 1/0 above every finite point (dens are never negative)."""
    return v[0] * w[1] > w[0] * v[1]


def sign_mark(src: tuple[int, int], dst: tuple[int, int]) -> str:
    return "+" if greater(src, dst) else "-"


def edge_text(src: tuple[int, int], dst: tuple[int, int]) -> str:
    return f"{text(src)} -> {text(dst)} [{sign_mark(src, dst)}]"


def height(p: tuple[int, int]) -> int:
    return max(abs(p[0]), p[1])


def forward_u(family: str, u: int, modulus: int, reversed_: bool) -> int:
    if not reversed_:
        return u
    return pow(u, -1, modulus) if modulus > 1 else 1


def label(family: str, u: int, modulus: int, reversed_: bool = False) -> str:
    if family == "finf":
        return f"F[{u}, {modulus}]"
    return f"F[{-modulus if reversed_ else modulus}, {u}]"


def base_pair(family: str, u: int, modulus: int, reversed_: bool = False):
    if family == "finf":
        return (INF, point(u, modulus))
    target = point(modulus, forward_u(family, u, modulus, reversed_))
    return (target, ZERO) if reversed_ else (ZERO, target)


def orbit_group(family: str, modulus: int) -> tuple[int, int]:
    """(l, m) of the gamma0_pair group whose orbit the graph is taken to be."""
    return (modulus, 1) if family == "finf" else (1, modulus)


def in_block(family: str, modulus: int, p: tuple[int, int]) -> bool:
    return (p[1] if family == "finf" else p[0]) % modulus == 0


def block_vertices(family: str, modulus: int, bound: int) -> list[tuple[int, int]]:
    """Every canonical point of height <= bound in the base point's block, sorted."""
    out = [INF] if in_block(family, modulus, INF) else []
    for den in range(1, bound + 1):
        for num in range(-bound, bound + 1):
            if math.gcd(num, den) == 1 and in_block(family, modulus, (num, den)):
                out.append((num, den))
    out.sort()
    return out


@lru_cache(maxsize=None)
def vertex_counts(family: str, modulus: int, max_bound: int) -> tuple[int, ...]:
    """counts[b] is the number of block vertices of height <= b."""
    per_height = [0] * (max_bound + 1)
    if in_block(family, modulus, INF):
        per_height[1] += 1
    for den in range(1, max_bound + 1):
        for num in range(-max_bound, max_bound + 1):
            if math.gcd(num, den) == 1 and in_block(family, modulus, (num, den)):
                per_height[max(abs(num), den)] += 1
    counts, total = [], 0
    for n in per_height:
        total += n
        counts.append(total)
    return tuple(counts)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y == g and |g| == gcd(a, b)."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def carrier(base, src, dst) -> tuple[int, int, int, int] | None:
    """The matrix taking base[0] to src and base[1] to dst, or None.

    Columns: g * [base lifts] == [src lift, e * dst lift] with e = +-1
    fixed by the determinants; None when no sign makes it integral.
    """
    (p1, q1), (p2, q2) = base
    (r, s), (x, y) = src, dst
    det_b = p1 * q2 - p2 * q1
    det_e = r * y - s * x
    if det_e != det_b and det_e != -det_b:
        return None
    e = det_b // det_e
    x, y = e * x, e * y
    a, b = r * q2 - x * q1, x * p1 - r * p2
    c, d = s * q2 - y * q1, y * p1 - s * p2
    if a % det_b or b % det_b or c % det_b or d % det_b:
        return None
    return (a // det_b, b // det_b, c // det_b, d // det_b)


def det(g) -> int:
    a, b, c, d = g
    return a * d - b * c


def in_gamma0_pair(g, l: int, m: int) -> bool:
    """Either sign lift has a == 1, c == 0 (mod l) and d == 1, b == 0 (mod m)."""
    for s in (1, -1):
        a, b, c, d = (s * e for e in g)
        if (a - 1) % l == 0 and c % l == 0 and (d - 1) % m == 0 and b % m == 0:
            return True
    return False


def in_principal(g, n: int) -> bool:
    for s in (1, -1):
        a, b, c, d = (s * e for e in g)
        if (a - 1) % n == 0 and (d - 1) % n == 0 and b % n == 0 and c % n == 0:
            return True
    return False


def in_gamma0(g, n: int) -> bool:
    return g[2] % n == 0


def mobius(g, p: tuple[int, int]) -> tuple[int, int]:
    a, b, c, d = g
    return point(a * p[0] + b * p[1], c * p[0] + d * p[1])


def neighbours(v: tuple[int, int], m: int, bound: int) -> list[tuple[int, int]]:
    """Canonical points w of height <= bound with r*y - s*x == +-m.

    The solutions lie on two lattice lines: (x, y) = t*(x0, y0) + k*(r, s)
    with t = +-m and (x0, y0) a Bezout solution of r*y0 - s*x0 == 1.
    """
    r, s = v
    out: list[tuple[int, int]] = []
    if s == 0:  # v = 1/0, the determinant is y itself
        if m <= bound:
            out.extend((x, m) for x in range(-bound, bound + 1) if math.gcd(x, m) == 1)
        return out
    g, a, b = egcd(r, s)
    y0, x0 = a * g, -b * g
    for t in (m, -m):
        big_x, big_y = t * x0, t * y0
        for k in range(-(big_y // s), (bound - big_y) // s + 1):
            x, y = big_x + k * r, big_y + k * s
            if y == 0:
                if x == 1:
                    out.append(INF)
            elif abs(x) <= bound and math.gcd(x, y) == 1:
                out.append((x, y))
    return out


class Graph:
    """Reference enumeration of one graph by lattice solving and carriers."""

    def __init__(self, family: str, u: int, modulus: int, reversed_: bool, bound: int):
        self.family, self.u, self.modulus = family, u, modulus
        self.reversed, self.bound = reversed_, bound
        self.base = base_pair(family, u, modulus, reversed_)
        self.group = orbit_group(family, modulus)
        self.vertices = block_vertices(family, modulus, bound)
        vset = set(self.vertices)
        l, m = self.group
        edges = []
        for v in self.vertices:
            for w in neighbours(v, modulus, bound):
                if w in vset:
                    g = carrier(self.base, v, w)
                    if g is not None and in_gamma0_pair(g, l, m):
                        edges.append((v, w))
        edges.sort(key=lambda e: e[0] + e[1])
        self.edges = edges

    def label(self) -> str:
        return label(self.family, self.u, self.modulus, self.reversed)

    def document(self) -> dict:
        """The canonical JSON document of this graph, as a plain dict."""
        return {
            "format_version": "1",
            "family": self.family,
            "u": self.u,
            "modulus": self.modulus,
            "reversed": self.reversed,
            "height_bound": self.bound,
            "vertices": [text(v) for v in self.vertices],
            "edges": [
                {"src": text(a), "dst": text(b), "sign": sign_mark(a, b)}
                for a, b in self.edges
            ],
        }


@lru_cache(maxsize=None)
def graph(family: str, u: int, modulus: int, reversed_: bool, bound: int) -> Graph:
    return Graph(family, u, modulus, reversed_, bound)


@lru_cache(maxsize=None)
def canonical_matrices(bound: int) -> tuple[tuple[int, int, int, int], ...]:
    """Canonical determinant-1 matrices with |entries| <= bound.

    Canonical: c > 0, or c == 0 and a > 0.  Enumerated by bottom row
    (c, d): a*d - b*c == 1 gives (a, b) = (a0, b0) + k*(c, d).
    """
    out = [(1, b, 0, 1) for b in range(-bound, bound + 1)]
    for c in range(1, bound + 1):
        for d in range(-bound, bound + 1):
            if math.gcd(c, d) != 1:
                continue
            g, p, q = egcd(d, c)  # d*p + c*q == g == +-1
            a0, b0 = p * g, -q * g  # a0*d - b0*c == 1
            for k in range(-((bound + a0) // c), (bound - a0) // c + 1):
                a, b = a0 + k * c, b0 + k * d
                if abs(b) <= bound:
                    out.append((a, b, c, d))
    out.sort()
    return tuple(out)


@lru_cache(maxsize=None)
def member_count(kind: str, params: tuple[int, ...], bound: int) -> int:
    test = {"gamma0_pair": in_gamma0_pair, "principal": in_principal,
            "gamma0": in_gamma0, "full": lambda g: True}[kind]
    return sum(1 for g in canonical_matrices(bound) if test(g, *params))


@lru_cache(maxsize=None)
def orbit_in_window(family: str, u: int, modulus: int, l: int, m: int,
                    entry: int, height_bound: int) -> int:
    """Members of gamma0_pair(l, m) within the entry bound that take the
    base pair into the height window."""
    alpha, beta = base_pair(family, u, modulus)
    n = 0
    for g in canonical_matrices(entry):
        if in_gamma0_pair(g, l, m):
            if height(mobius(g, alpha)) <= height_bound and height(mobius(g, beta)) <= height_bound:
                n += 1
    return n


def psi(n: int) -> int:
    """Dedekind psi by trial division: n * prod(1 + 1/p)."""
    value, k, p = n, n, 2
    while p * p <= k:
        if k % p == 0:
            value = value // p * (p + 1)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        value = value // k * (k + 1)
    return value


@lru_cache(maxsize=None)
def count_blocks(n: int) -> int:
    """Points of the projective line over Z/n: primitive pairs up to units."""
    units = sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)
    primitive = sum(
        1 for x in range(n) for y in range(n) if math.gcd(math.gcd(x, y), n) == 1
    )
    return primitive // units
