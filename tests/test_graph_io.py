"""Tests for JSON, DOT, and SVG emission."""

import json
import re

import pytest

from suborbital.errors import (
    InvalidBound,
    InvariantViolation,
    MalformedDocument,
    VersionMismatch,
)
from suborbital.graph_io import emit_dot, emit_json, emit_svg, parse_json
from suborbital.graphs import (
    GraphSpec,
    SuborbitalGraph,
    enumerate_graph,
    paired_partner,
)

F12 = GraphSpec(family="finf", u=1, modulus=2)
F32 = GraphSpec(family="fzero", u=2, modulus=3)
EMPTY = SuborbitalGraph(spec=F12, height_bound=1, vertices=(), edges=())

TEST_GRAPHS = [
    enumerate_graph(F12, 4),
    enumerate_graph(F12, 1),
    enumerate_graph(F32, 6),
    enumerate_graph(GraphSpec(family="finf", u=3, modulus=5), 10),
    enumerate_graph(paired_partner(GraphSpec(family="fzero", u=2, modulus=5)), 8),
]


def rebuild(doc_text, **changes):
    data = json.loads(doc_text)
    data.update(changes)
    return json.dumps(data, separators=(",", ":"))


class TestJson:
    def test_key_order_and_version(self):
        doc = emit_json(TEST_GRAPHS[0])
        assert doc.startswith(
            '{"format_version":"1","family":"finf","u":1,"modulus":2,'
            '"reversed":false,"height_bound":4,"vertices":['
        )

    def test_contains_base_edge(self):
        doc = emit_json(TEST_GRAPHS[0])
        assert '{"src":"1/0","dst":"1/2","sign":"+"}' in doc

    def test_empty_graph_document(self):
        doc = json.loads(emit_json(enumerate_graph(F12, 1)))
        assert doc["vertices"] == ["1/0"]
        assert doc["edges"] == []

    def test_round_trip_all(self):
        for graph in TEST_GRAPHS:
            text = emit_json(graph)
            back = parse_json(text)
            assert back == graph
            assert emit_json(back) == text

    def test_deterministic(self):
        for graph in TEST_GRAPHS:
            assert emit_json(graph) == emit_json(graph)

    def test_reversed_flag_round_trips(self):
        partner_graph = TEST_GRAPHS[4]
        doc = json.loads(emit_json(partner_graph))
        assert doc["reversed"] is True
        assert parse_json(emit_json(partner_graph)).spec.reversed is True


class TestParseErrors:
    def setup_method(self):
        self.doc = emit_json(TEST_GRAPHS[0])

    def test_truncated(self):
        with pytest.raises(MalformedDocument):
            parse_json(self.doc[: len(self.doc) // 2])

    def test_not_an_object(self):
        with pytest.raises(MalformedDocument):
            parse_json("[1, 2, 3]")

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            parse_json(rebuild(self.doc, format_version="2"))

    def test_missing_and_unknown_keys(self):
        data = json.loads(self.doc)
        del data["vertices"]
        with pytest.raises(MalformedDocument):
            parse_json(json.dumps(data))
        with pytest.raises(MalformedDocument):
            parse_json(rebuild(self.doc, extra=1))

    def test_wrong_types(self):
        with pytest.raises(MalformedDocument):
            parse_json(rebuild(self.doc, u="1"))
        with pytest.raises(MalformedDocument):
            parse_json(rebuild(self.doc, u=True))
        with pytest.raises(MalformedDocument):
            parse_json(rebuild(self.doc, reversed="no"))
        with pytest.raises(MalformedDocument):
            parse_json(rebuild(self.doc, vertices="1/0"))

    def test_unparseable_fraction(self):
        data = json.loads(self.doc)
        data["vertices"][0] = "one half"
        with pytest.raises(MalformedDocument):
            parse_json(json.dumps(data))

    def test_bad_edge_shape_and_sign(self):
        data = json.loads(self.doc)
        data["edges"][0] = {"src": "1/0", "dst": "1/2"}
        with pytest.raises(MalformedDocument):
            parse_json(json.dumps(data))
        data = json.loads(self.doc)
        data["edges"][0]["sign"] = "positive"
        with pytest.raises(MalformedDocument):
            parse_json(json.dumps(data))

    def test_corrupt_edge_fails_determinant(self):
        # 1/0 -> 1/4 has determinant 4, not the modulus 2
        bad = self.doc.replace(
            '{"src":"1/0","dst":"1/2","sign":"+"}',
            '{"src":"1/0","dst":"1/4","sign":"+"}',
        )
        with pytest.raises(InvariantViolation) as err:
            parse_json(bad)
        assert "1/0 -> 1/4" in str(err.value)

    def test_flipped_sign_detected(self):
        bad = self.doc.replace(
            '{"src":"1/0","dst":"1/2","sign":"+"}',
            '{"src":"1/0","dst":"1/2","sign":"-"}',
        )
        with pytest.raises(InvariantViolation):
            parse_json(bad)

    def test_missing_edge_detected(self):
        data = json.loads(self.doc)
        del data["edges"][0]
        with pytest.raises(InvariantViolation) as err:
            parse_json(json.dumps(data))
        assert "missing" in str(err.value)

    def test_extra_vertex_detected(self):
        data = json.loads(self.doc)
        data["vertices"].append("1/3")
        with pytest.raises(InvariantViolation) as err:
            parse_json(json.dumps(data))
        assert "1/3" in str(err.value)

    def test_unsorted_vertices_detected(self):
        data = json.loads(self.doc)
        data["vertices"].reverse()
        with pytest.raises(InvariantViolation) as err:
            parse_json(json.dumps(data))
        first, expected = data["vertices"][0], data["vertices"][-1]
        assert f"vertices[0] is {first}, expected {expected}" in str(err.value)

    def test_swapped_edges_detected(self):
        data = json.loads(self.doc)
        edges = data["edges"]
        edges[3], edges[4] = edges[4], edges[3]
        with pytest.raises(InvariantViolation) as err:
            parse_json(json.dumps(data))
        found, expected = (f"{e['src']} -> {e['dst']} [{e['sign']}]" for e in edges[3:5])
        assert f"edges[3] is {found}, expected {expected}" in str(err.value)

    def test_invalid_parameters_detected(self):
        with pytest.raises(InvariantViolation):
            parse_json(rebuild(self.doc, u=2, modulus=4, vertices=[], edges=[]))
        with pytest.raises(InvariantViolation):
            parse_json(rebuild(self.doc, height_bound=0))


class TestDot:
    def test_structure(self):
        graph = TEST_GRAPHS[0]
        dot = emit_dot(graph)
        lines = dot.strip().splitlines()
        assert lines[0] == 'digraph "F[1, 2]" {'
        assert lines[-1] == "}"
        assert dot.count("->") == len(graph.edges)
        node_lines = [l for l in lines if l.endswith(";") and "->" not in l]
        assert len(node_lines) == len(graph.vertices)

    def test_single_arc_has_both_labels(self):
        dot = emit_dot(TEST_GRAPHS[0])
        assert '"1/0" -> "1/2" [label="+"];' in dot

    def test_infinity_label(self):
        assert '"1/0";' in emit_dot(TEST_GRAPHS[0])

    def test_empty_graph_is_header_and_footer_only(self):
        assert emit_dot(EMPTY) == 'digraph "F[1, 2]" {\n}\n'

    def test_minimal_enumeration_keeps_base_vertex(self):
        graph = enumerate_graph(GraphSpec(family="fzero", u=3, modulus=7), 1)
        assert [str(v) for v in graph.vertices] == ["0/1"]
        assert graph.edges == ()

    def test_deterministic(self):
        for graph in TEST_GRAPHS:
            assert emit_dot(graph) == emit_dot(graph)


def svg_parts(svg):
    paths = re.findall(r'<path d="([^"]+)"', svg)
    circles = {
        label: float(cx)
        for cx, label in re.findall(
            r'<circle cx="([0-9.+-]+)"[^/]*/>\s*\n\s*<text x="[0-9.+-]+" '
            r'y="[0-9.+-]+" font-size="9" text-anchor="middle" '
            r'font-family="monospace">([^<]+)</text>',
            svg,
        )
    }
    return paths, circles


class TestSvg:
    def test_path_count_equals_edge_count(self):
        for graph in TEST_GRAPHS:
            svg = emit_svg(graph, 640)
            assert svg.count("<path ") == len(graph.edges)

    def test_arrowhead_is_polygon_marker(self):
        svg = emit_svg(TEST_GRAPHS[0], 640)
        assert svg.count("<marker ") == 1
        assert svg.count("<polygon ") == 1
        assert svg.count('marker-end="url(#arrow)"') == len(TEST_GRAPHS[0].edges)

    def test_dimensions(self):
        svg = emit_svg(TEST_GRAPHS[0], 640)
        assert 'width="640" height="368"' in svg
        assert 'version="1.1"' in svg

    def test_minimum_width_enforced(self):
        with pytest.raises(InvalidBound):
            emit_svg(TEST_GRAPHS[0], 63)
        assert emit_svg(TEST_GRAPHS[0], 64)

    def test_geometry(self):
        graph = TEST_GRAPHS[0]
        svg = emit_svg(graph, 640)
        paths, circles = svg_parts(svg)
        assert len(paths) == len(graph.edges)
        for path, edge in zip(paths, graph.edges):
            numbers = [float(t) for t in re.findall(r"-?\d+\.\d+", path)]
            if edge.src.is_infinite or edge.dst.is_infinite:
                foot = edge.dst if edge.src.is_infinite else edge.src
                assert "L" in path and "A" not in path
                x_start, _, x_end, _ = numbers
                assert x_start == x_end == circles[str(foot)]
            else:
                assert "A" in path
                x1, _, r1, r2, x2, _ = (
                    numbers[0], numbers[1], numbers[2], numbers[3],
                    numbers[-2], numbers[-1],
                )
                assert x1 == circles[str(edge.src)]
                assert x2 == circles[str(edge.dst)]
                assert r1 == r2
                assert abs(r1 - abs(x2 - x1) / 2) < 0.02
                sweep = path.split()[-3]
                assert sweep == ("1" if x2 > x1 else "0")

    def test_vertical_ray_clipped_at_top(self):
        svg = emit_svg(TEST_GRAPHS[0], 640)
        paths, _ = svg_parts(svg)
        vertical = [p for p in paths if "L" in p]
        assert vertical
        for p in vertical:
            ys = [float(t) for t in re.findall(r"-?\d+\.\d+", p)][1::2]
            assert min(ys) == 16.0

    def test_no_infinity_graph_renders(self):
        graph = enumerate_graph(F32, 6)
        svg = emit_svg(graph, 640)
        assert all("L" not in p for p in svg_parts(svg)[0])
        assert "1/0" not in svg

    def test_empty_graph_has_axis_only(self):
        svg = emit_svg(EMPTY, 200)
        assert svg.count("<path ") == 0
        assert svg.count("<line ") == 1
        assert svg.count("<circle ") == 0

    def test_empty_json_document(self):
        doc = json.loads(emit_json(EMPTY))
        assert doc["vertices"] == [] and doc["edges"] == []

    def test_deterministic(self):
        for graph in TEST_GRAPHS:
            assert emit_svg(graph, 320) == emit_svg(graph, 320)
