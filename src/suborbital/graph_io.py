"""Deterministic text formats for suborbital graphs.

Three emitters share one rule: the same graph always produces the same
bytes.  JSON is the canonical interchange format and the only one that
parses back; DOT is for graph tooling; SVG draws the edges as
upper-half-plane geodesics (semicircles between finite vertices,
vertical rays toward infinity).
"""

from __future__ import annotations

import json
from collections.abc import Callable

from .errors import (
    InvalidBound,
    InvalidSpec,
    InvariantViolation,
    MalformedDocument,
    VersionMismatch,
)
from .graphs import GraphSpec, SuborbitalGraph, enumerate_graph
from .rational import ProjectiveRational

__all__ = [
    "FORMAT_VERSION",
    "emit_json",
    "parse_json",
    "emit_dot",
    "emit_svg",
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
_EDGE_KEYS = ("src", "dst", "sign")
_SIGN_TEXT = {1: "+", -1: "-"}
_TEXT_SIGN = {"+": 1, "-": -1}

# a document edge as parsed: (src, dst, sign)
_Edge = tuple[ProjectiveRational, ProjectiveRational, int]


def emit_json(graph: SuborbitalGraph) -> str:
    """Canonical JSON: fixed key order, compact separators, version "1"."""
    document = {
        "format_version": FORMAT_VERSION,
        "family": graph.spec.family,
        "u": graph.spec.u,
        "modulus": graph.spec.modulus,
        "reversed": graph.spec.reversed,
        "height_bound": graph.height_bound,
        "vertices": [str(v) for v in graph.vertices],
        "edges": [
            {"src": str(e.src), "dst": str(e.dst), "sign": _SIGN_TEXT[e.sign]}
            for e in graph.edges
        ],
    }
    return json.dumps(document, separators=(",", ":"))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedDocument(message)


def _plain_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_vertex(text: object, where: str) -> ProjectiveRational:
    _require(isinstance(text, str), f"{where} must be a string, got {text!r}")
    try:
        return ProjectiveRational.from_string(text)
    except Exception:
        raise MalformedDocument(f"{where} is not a num/den fraction: {text!r}") from None


def parse_json(text: str) -> SuborbitalGraph:
    """Parse and fully re-validate a canonical JSON document.

    Structural problems raise MalformedDocument, a foreign version
    string raises VersionMismatch, and a document whose vertex or edge
    lists disagree with a fresh enumeration raises InvariantViolation
    naming the first offending item.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
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
        _require(_plain_int(document[key]), f"{key} must be an integer")
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

    doc_vertices = tuple(
        _parse_vertex(item, f"vertices[{i}]")
        for i, item in enumerate(document["vertices"])
    )
    doc_edges: list[_Edge] = []
    for i, item in enumerate(document["edges"]):
        _require(isinstance(item, dict), f"edges[{i}] must be an object")
        _require(
            set(item) == set(_EDGE_KEYS),
            f"edges[{i}] must have exactly keys src, dst, sign",
        )
        src = _parse_vertex(item["src"], f"edges[{i}].src")
        dst = _parse_vertex(item["dst"], f"edges[{i}].dst")
        _require(
            item["sign"] in _TEXT_SIGN,
            f"edges[{i}].sign must be '+' or '-', got {item['sign']!r}",
        )
        doc_edges.append((src, dst, _TEXT_SIGN[item["sign"]]))

    try:
        expected = enumerate_graph(spec, document["height_bound"])
    except InvalidBound as exc:
        raise InvariantViolation(f"height bound invalid: {exc}") from None

    _check_list("vertex", "vertices", doc_vertices, expected.vertices,
                str, _unknown_vertex)
    _check_list("edge", "edges", tuple(doc_edges),
                tuple((e.src, e.dst, e.sign) for e in expected.edges),
                _edge_text, _unknown_edge)
    return expected


def _edge_text(edge: _Edge) -> str:
    src, dst, sign = edge
    return f"{src} -> {dst} [{_SIGN_TEXT[sign]}]"


def _unknown_vertex(
    vertex: ProjectiveRational, want: tuple[ProjectiveRational, ...]
) -> str | None:
    if vertex in set(want):
        return None
    return f"vertex {vertex} does not belong to this graph's vertex set"


def _unknown_edge(edge: _Edge, want: tuple[_Edge, ...]) -> str | None:
    src, dst, sign = edge
    known = {(s, d): g for s, d, g in want}.get((src, dst))
    if known is None:
        return f"edge {src} -> {dst} fails the edge conditions for this graph"
    if known != sign:
        return (
            f"edge {src} -> {dst} has sign {_SIGN_TEXT[sign]}, "
            f"expected {_SIGN_TEXT[known]}"
        )
    return None


def _check_list(
    noun: str,
    field: str,
    have: tuple,
    want: tuple,
    show: Callable[..., str],
    unknown: Callable[..., str | None],
) -> None:
    """Compare one document list with the fresh enumeration in one pass.

    At the first index where the lists differ, the message names the
    document's item if the enumeration lacks it (unknown gives that
    message), else the expected item if the document lacks it, else both
    items, which are then out of order.
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
    """Directed-graph text: one node line per vertex, one arc per edge."""
    lines = [f'digraph "{graph.spec.label()}" {{']
    for vertex in graph.vertices:
        lines.append(f'  "{vertex}";')
    for edge in graph.edges:
        lines.append(
            f'  "{edge.src}" -> "{edge.dst}" [label="{_SIGN_TEXT[edge.sign]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


_STROKE = {1: "#205080", -1: "#a03030"}


def emit_svg(graph: SuborbitalGraph, width_px: int) -> str:
    """Static SVG 1.1 drawing of the graph as half-plane geodesics.

    Finite vertices sit on a horizontal axis; an edge between finite
    vertices is the semicircle over the segment joining them, and an
    edge meeting 1/0 is a vertical ray clipped at the top border.  Every
    edge is one path element with an arrowhead marker; nothing else in
    the document is a path.
    """
    if width_px < 64:
        raise InvalidBound(f"width must be at least 64 px, got {width_px}")
    width = width_px
    height = width // 2 + 48
    pad = 16.0
    axis_y = float(height - 32)
    top_y = 16.0

    finite = [v for v in graph.vertices if not v.is_infinite]
    values = sorted(v.num / v.den for v in finite)
    if values:
        lo, hi = values[0], values[-1]
        margin = max((hi - lo) / 10.0, 0.5)
        lo, hi = lo - margin, hi + margin
    else:
        lo, hi = -1.0, 1.0
    span = hi - lo

    def x_px(value: float) -> float:
        return pad + (value - lo) / span * (width - 2.0 * pad)

    def vx(vertex: ProjectiveRational) -> float:
        return x_px(vertex.num / vertex.den)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"  <title>{graph.spec.label()} at height {graph.height_bound}</title>",
        "  <defs>",
        '    <marker id="arrow" markerWidth="6" markerHeight="6" refX="5" refY="2"'
        ' orient="auto" markerUnits="strokeWidth">',
        '      <polygon points="0 0, 6 2, 0 4" fill="#303030"/>',
        "    </marker>",
        "  </defs>",
        f'  <line x1="{pad:.2f}" y1="{axis_y:.2f}" x2="{width - pad:.2f}"'
        f' y2="{axis_y:.2f}" stroke="#303030" stroke-width="1"/>',
    ]
    for edge in graph.edges:
        stroke = _STROKE[edge.sign]
        if edge.src.is_infinite or edge.dst.is_infinite:
            foot = edge.dst if edge.src.is_infinite else edge.src
            x = vx(foot)
            if edge.src.is_infinite:
                d = f"M {x:.2f} {top_y:.2f} L {x:.2f} {axis_y - 4.0:.2f}"
            else:
                d = f"M {x:.2f} {axis_y:.2f} L {x:.2f} {top_y:.2f}"
        else:
            x1, x2 = vx(edge.src), vx(edge.dst)
            r = abs(x2 - x1) / 2.0
            sweep = 1 if x2 > x1 else 0
            d = (
                f"M {x1:.2f} {axis_y:.2f} "
                f"A {r:.2f} {r:.2f} 0 0 {sweep} {x2:.2f} {axis_y:.2f}"
            )
        out.append(
            f'  <path d="{d}" fill="none" stroke="{stroke}"'
            ' stroke-width="1.5" marker-end="url(#arrow)"/>'
        )
    for vertex in finite:
        x = vx(vertex)
        out.append(
            f'  <circle cx="{x:.2f}" cy="{axis_y:.2f}" r="2.5" fill="#303030"/>'
        )
        out.append(
            f'  <text x="{x:.2f}" y="{axis_y + 14.0:.2f}" font-size="9"'
            f' text-anchor="middle" font-family="monospace">{vertex}</text>'
        )
    if any(v.is_infinite for v in graph.vertices):
        out.append(
            f'  <text x="{pad:.2f}" y="{top_y - 4.0:.2f}" font-size="9"'
            ' font-family="monospace">1/0</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
