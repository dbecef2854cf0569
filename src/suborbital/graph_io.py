"""Deterministic text formats for suborbital graphs.

Three emitters share one rule: the same graph always produces the same
bytes.  JSON is the canonical interchange format and the only one that
parses back; DOT is for graph tooling; SVG draws the edges as
upper-half-plane geodesics (semicircles between finite vertices,
vertical rays toward infinity).  The parser checks a document's items
in bulk passes and walks them one by one only to name a malformed one.

A graph is its walk by vertex position, and the writers and the parser
read it as it is held: each vertex is spelled once, as a list by
position, and each edge is read off a tail's head positions.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterator
from itertools import islice
from operator import itemgetter

from .errors import (
    InvalidBound,
    InvalidSpec,
    InvariantViolation,
    MalformedDocument,
    VersionMismatch,
    plain_int,
    refuse_above,
)
from .graphs import GraphSpec, SuborbitalGraph, enumerate_graph
from .rational import POINT_TEXT

__all__ = [
    "FORMAT_VERSION",
    "emit_json",
    "parse_json",
    "emit_dot",
    "emit_svg",
    "check_svg_width",
]

FORMAT_VERSION = "1"

_DOC_KEYS = (
    "format_version",
    "family",
    "u",
    "modulus",
    "reversed",
    "height_bound",
    "vertices",
    "edges",
)
_EDGE_KEYS = frozenset({"src", "dst", "sign"})
_EDGE_ROW = itemgetter("src", "dst", "sign")
_SIGNS = ("+", "-")
# every point str() writes: 1/0, 0/1, or a nonzero numerator over a positive
# denominator, ASCII digits without leading zeros
_POINT = re.compile(r"1/0|0/1|-?[1-9][0-9]*/[1-9][0-9]*")

# a document edge as text (src, dst, sign)
_Edge = tuple[str, str, str]


def _spelling(graph: SuborbitalGraph) -> tuple[list[str], Iterator[_Edge]]:
    """Each vertex's str() once, as a list by position, and each edge as
    (src, dst, sign) texts read from it, the sign by the rule of
    DirectedEdge.sign: + exactly when r*y > s*x."""
    vertices, heads = graph.vertices, graph.heads
    texts = list(map(POINT_TEXT.__mod__, vertices))
    def rows() -> Iterator[_Edge]:
        for i, found in heads:
            (r, s), src = vertices[i], texts[i]
            for j in found:
                x, y = vertices[j]
                yield src, texts[j], "+" if r * y > s * x else "-"
    return texts, rows()


def emit_json(graph: SuborbitalGraph) -> str:
    """Canonical JSON: fixed key order, compact separators, version "1".

    Only the header goes through json.dumps, and the rows are joined 4096
    at a time until a chunk comes back empty, so no string per edge is
    held.  The texts, and the graph unless the caller holds it, are freed
    before the final join, which holds the document twice."""
    # the header keys name the version, the spec's fields and the bound
    header = dict(zip(_DOC_KEYS, (FORMAT_VERSION, *graph.spec, graph.height_bound)))
    head = json.dumps(header, separators=(",", ":"))[:-1]
    texts, rows = _spelling(graph)
    del graph
    vertices = ",".join([f'"{t}"' for t in texts])
    row = '{"src":"%s","dst":"%s","sign":"%s"}'.__mod__
    edges = ",".join(iter(lambda: ",".join(map(row, islice(rows, 4096))), ""))
    del texts, rows
    return f'{head},"vertices":[{vertices}],"edges":[{edges}]}}'


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedDocument(message)


def _point(text: object, where: str) -> None:
    _require(isinstance(text, str), f"{where} must be a string, got {text!r}")
    _require(_POINT.fullmatch(text) is not None,
             f"{where} is not a num/den fraction: {text!r}")


def parse_json(text: str) -> SuborbitalGraph:
    """Parse and fully re-validate a canonical JSON document.

    Each point must be spelled exactly as emitted: lowest terms, sign on
    the numerator, ASCII digits, no leading zeros and no spaces.  Text
    that is no such fraction, like other structural problems, raises
    MalformedDocument; a foreign version string raises VersionMismatch;
    lists that differ, as text, from the rows of one fresh walk raise
    InvariantViolation naming the first offending item, so an unreduced
    -6/8 is an unknown vertex; the walked graph the document matched is
    returned.  A height bound that enumerate_graph refuses as too large
    raises BoundTooLarge.

    Before the graph is walked, bulk passes decide whether every item
    is well formed: each edge an object with exactly the keys src, dst and
    sign, each sign + or -, and each distinct point text in the grammar.
    Only if one fails does _name_first_malformed walk the items to name
    the first malformed one.
    """
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, huge ints, deep nesting
        raise MalformedDocument(f"not valid JSON: {exc}") from None
    _require(isinstance(document, dict), "top level must be an object")
    _require("format_version" in document, "missing key format_version")
    version = document["format_version"]
    if version != FORMAT_VERSION:
        raise VersionMismatch(
            f"unsupported format_version {version!r}, expected {FORMAT_VERSION!r}"
        )
    for key in _DOC_KEYS:
        _require(key in document, f"missing key {key}")
    _require(
        set(document) == set(_DOC_KEYS),
        f"unexpected keys {sorted(set(document) - set(_DOC_KEYS))}",
    )
    _require(isinstance(document["family"], str), "family must be a string")
    for key in ("u", "modulus", "height_bound"):
        _require(plain_int(document[key]), f"{key} must be an integer")
    _require(isinstance(document["reversed"], bool), "reversed must be a boolean")
    _require(isinstance(document["vertices"], list), "vertices must be a list")
    _require(isinstance(document["edges"], list), "edges must be a list")

    try:
        spec = GraphSpec(
            family=document["family"],
            u=document["u"],
            modulus=document["modulus"],
            reversed=document["reversed"],
        )
    except InvalidSpec as exc:
        raise InvariantViolation(f"graph parameters invalid: {exc}") from None

    vertices, edges = document["vertices"], document["edges"]
    try:  # a non-object edge or a missing key raises
        rows: tuple[_Edge, ...] = tuple(map(_EDGE_ROW, edges))
        well_formed = (
            sum(map(len, edges)) == 3 * len(rows)
            and set(map(itemgetter(2), rows)).issubset(_SIGNS)
            and all(map(_POINT.fullmatch, set(vertices).union(
                map(itemgetter(0), rows), map(itemgetter(1), rows))))
        )
    except (TypeError, KeyError):  # also unhashable or non-string texts
        well_formed = False
    if not well_formed:
        _name_first_malformed(vertices, edges)

    height_bound = document["height_bound"]
    try:
        graph = enumerate_graph(spec, height_bound)
    except InvalidBound as exc:
        raise InvariantViolation(f"height bound invalid: {exc}") from None

    texts, want = _spelling(graph)
    _check_list("vertex", "vertices", tuple(vertices), tuple(texts),
                str, _unknown_vertex)
    _check_list("edge", "edges", rows, tuple(want),
                "%s -> %s [%s]".__mod__, _unknown_edge)
    return graph


def _name_first_malformed(vertices: list, edges: list) -> None:
    """Raise MalformedDocument naming the first malformed item: the
    vertices and then the edges in document order, within an edge its
    shape, then src, dst and sign."""
    point = _POINT.fullmatch
    for i, v in enumerate(vertices):
        if not (isinstance(v, str) and point(v)):
            _point(v, f"vertices[{i}]")
    for i, e in enumerate(edges):
        if not (isinstance(e, dict) and e.keys() == _EDGE_KEYS):
            _require(isinstance(e, dict), f"edges[{i}] must be an object")
            raise MalformedDocument(
                f"edges[{i}] must have exactly keys src, dst, sign")
        src, dst, sign = e["src"], e["dst"], e["sign"]
        if not (isinstance(src, str) and point(src)
                and isinstance(dst, str) and point(dst) and sign in _SIGNS):
            _point(src, f"edges[{i}].src")
            _point(dst, f"edges[{i}].dst")
            raise MalformedDocument(
                f"edges[{i}].sign must be '+' or '-', got {sign!r}")


def _unknown_vertex(vertex: str, want: tuple[str, ...]) -> str | None:
    if vertex in set(want):
        return None
    return f"vertex {vertex} does not belong to this graph's vertex set"


def _unknown_edge(edge: _Edge, want: tuple[_Edge, ...]) -> str | None:
    src, dst, sign = edge
    known = {(s, d): g for s, d, g in want}.get((src, dst))
    if known is None:
        return f"edge {src} -> {dst} fails the edge conditions for this graph"
    if known != sign:
        return f"edge {src} -> {dst} has sign {sign}, expected {known}"
    return None


def _check_list(noun: str, field: str, have: tuple, want: tuple,
                show: Callable[..., str], unknown: Callable[..., str | None]) -> None:
    """Compare one document list with the walk's in one pass.  At the
    first index where they differ, the message names the document's item
    if the walk lacks it (unknown gives that message), else the expected
    item if the document lacks it, else both, which are then out of order.
    """
    if have == want:
        return
    i = next(
        (i for i, (a, b) in enumerate(zip(have, want)) if a != b),
        min(len(have), len(want)),
    )
    message = unknown(have[i], want) if i < len(have) else None
    if message is None and i < len(want) and want[i] not in have[i:]:
        message = f"{noun} {show(want[i])} missing from document"
    if message is None:
        found = show(have[i]) if i < len(have) else "the end of the list"
        wanted = show(want[i]) if i < len(want) else "the end of the list"
        message = (
            f"{noun} list is not in canonical sorted order: "
            f"{field}[{i}] is {found}, expected {wanted}"
        )
    raise InvariantViolation(message)


def emit_dot(graph: SuborbitalGraph) -> str:
    """Directed-graph text: one node line per vertex, one arc per edge,
    the arcs joined in chunks as in emit_json."""
    texts, rows = _spelling(graph)
    lines = [f'digraph "{graph.spec.label()}" {{']
    del graph
    lines.extend([f'  "{t}";' for t in texts])
    arc = '  "%s" -> "%s" [label="%s"];'.__mod__
    lines.extend(iter(lambda: "\n".join(map(arc, islice(rows, 4096))), ""))
    lines.append("}\n")
    del texts, rows
    return "\n".join(lines)


_STROKE = ("#a03030", "#205080")  # indexed by whether the sign is +
# wider drawings are refused, far below where float coordinates overflow
WIDTH_CEILING = 100_000


def check_svg_width(width_px: int) -> None:
    """Refuse a width that is no integer or is below 64 px (InvalidBound),
    or is above WIDTH_CEILING."""
    if not plain_int(width_px) or width_px < 64:
        raise InvalidBound(f"width must be an integer >= 64 px, got {width_px!r}")
    refuse_above("the svg width in px", width_px, WIDTH_CEILING)


def emit_svg(graph: SuborbitalGraph, width_px: int) -> str:
    """Static SVG 1.1 drawing of the graph as half-plane geodesics.

    Finite vertices sit on a horizontal axis; an edge between finite
    vertices is the semicircle over the segment joining them, and an
    edge meeting 1/0 is a vertical ray clipped at the top border.  Every
    edge is one path element with an arrowhead marker; nothing else in
    the document is a path.  Widths run from 64 px to WIDTH_CEILING.
    """
    check_svg_width(width_px)
    height = width_px // 2 + 48
    pad = 16.0
    axis_y = float(height - 32)
    top_y = 16.0

    vertices, heads = graph.vertices, graph.heads
    values = [num / den for num, den in vertices if den]
    if values:
        lo, hi = min(values), max(values)
        margin = max((hi - lo) / 10.0, 0.5)
        lo, hi = lo - margin, hi + margin
    else:
        lo, hi = -1.0, 1.0
    span = hi - lo

    # each finite vertex's x pixel and its text, by position, computed once
    vx = [pad + (num / den - lo) / span * (width_px - 2.0 * pad) if den else None
          for num, den in vertices]
    px = [None if x is None else f"{x:.2f}" for x in vx]
    axis, top, ray_end = f"{axis_y:.2f}", f"{top_y:.2f}", f"{axis_y - 4.0:.2f}"
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height}" viewBox="0 0 {width_px} {height}">',
        f"  <title>{graph.spec.label()} at height {graph.height_bound}</title>",
        "  <defs>",
        '    <marker id="arrow" markerWidth="6" markerHeight="6" refX="5" refY="2"'
        ' orient="auto" markerUnits="strokeWidth">',
        '      <polygon points="0 0, 6 2, 0 4" fill="#303030"/>',
        "    </marker>",
        "  </defs>",
        f'  <line x1="{pad:.2f}" y1="{axis_y:.2f}" x2="{width_px - pad:.2f}"'
        f' y2="{axis_y:.2f}" stroke="#303030" stroke-width="1"/>',
    ]
    for i, found in heads:  # each tail's paths joined as they come
        r, s = vertices[i]
        paths = []
        for j in found:
            x, y = vertices[j]
            stroke = _STROKE[r * y > s * x]  # the rule of DirectedEdge.sign
            if s == 0:  # 1/0 is the only point with denominator 0
                d = f"M {px[j]} {top} L {px[j]} {ray_end}"
            elif y == 0:
                d = f"M {px[i]} {axis} L {px[i]} {top}"
            else:
                x1, x2 = vx[i], vx[j]
                radius = f"{abs(x2 - x1) / 2.0:.2f}"
                d = (
                    f"M {px[i]} {axis} "
                    f"A {radius} {radius} 0 0 {1 if x2 > x1 else 0} {px[j]} {axis}"
                )
            paths.append(
                f'  <path d="{d}" fill="none" stroke="{stroke}"'
                ' stroke-width="1.5" marker-end="url(#arrow)"/>'
            )
        out.append("\n".join(paths))
    for x, text in zip(px, _spelling(graph)[0]):
        if x is not None:
            out.append(
                f'  <circle cx="{x}" cy="{axis}" r="2.5" fill="#303030"/>\n'
                f'  <text x="{x}" y="{axis_y + 14.0:.2f}" font-size="9"'
                f' text-anchor="middle" font-family="monospace">{text}</text>'
            )
    if len(values) < len(vertices):
        out.append(
            f'  <text x="{pad:.2f}" y="{top_y - 4.0:.2f}" font-size="9"'
            ' font-family="monospace">1/0</text>'
        )
    out.append("</svg>\n")
    del graph, vertices, heads, values, vx, px  # before the final join
    return "\n".join(out)
