"""Test references that share no code with the oracle's member walk.

box(group, bound) is every member of group with all entries in
[-bound, bound], each once as its canonical matrix (c > 0, or c == 0 and
a > 0) and sorted by entry tuple.  Three loops run over a, b and c >= 0,
the determinant solves d, and group.contains filters the result, so the
box needs no residue class, no conjugation and no row.  The rest restate
single lines of matrix and point arithmetic that the library does not
export.
"""

import functools

from suborbital.group import UnimodularMatrix

IDENTITY = UnimodularMatrix(1, 0, 0, 1)


@functools.lru_cache(maxsize=None)
def _full_box(bound):
    rng = range(-bound, bound + 1)
    out = []
    for a in rng:
        for c in range(bound + 1):
            if not a:  # -b*c == 1: the one column (0, 1), with d free
                if c == 1:
                    out.extend(UnimodularMatrix(0, -1, 1, d) for d in rng)
                continue
            for b in rng:
                d, rem = divmod(1 + b * c, a)
                if not rem and -bound <= d <= bound and (c or a > 0):
                    out.append(UnimodularMatrix(a, b, c, d))
    return tuple(sorted(out))


def box(group, bound):
    """The members of group with |entries| <= bound, sorted."""
    return tuple(g for g in _full_box(bound) if group.contains(g))


def inverse(g):
    """The inverse of a determinant-one matrix: its adjugate."""
    a, b, c, d = g
    return UnimodularMatrix(d, -b, -c, a)


def sign(edge):
    """+1 exactly when r*y > s*x for the edge r/s -> x/y, else -1."""
    (r, s), (x, y) = edge
    return 1 if r * y > s * x else -1


def height(point):
    """max(|num|, den); the point at infinity 1/0 has height 1."""
    num, den = point
    return max(abs(num), den)
