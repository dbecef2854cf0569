"""Tests for JSON, DOT, and SVG emission."""

import copy
import hashlib
import json
import math
import random
import re

import pytest

import suborbital.graph_io as graph_io_module
import suborbital.graphs as graphs_module
from suborbital.cli import main
from suborbital.errors import (
    BoundTooLarge,
    InvalidBound,
    InvariantViolation,
    MalformedDocument,
    VersionMismatch,
)
from suborbital.graph_io import (
    _name_first_malformed,
    emit_dot,
    emit_json,
    emit_svg,
    parse_json,
)
from suborbital.graphs import (
    GraphSpec,
    SuborbitalGraph,
    enumerate_graph,
    paired_partner,
)

F12 = GraphSpec(family="finf", u=1, modulus=2)
F32 = GraphSpec(family="fzero", u=2, modulus=3)
EMPTY = SuborbitalGraph(spec=F12, height_bound=1, vertices=(), heads=())

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

    def test_a_round_trip_builds_no_edge_object(self, monkeypatch):
        # parse and every writer read the graph by position alone
        want = [(emit_json(g), emit_dot(g), emit_svg(g, 640)) for g in TEST_GRAPHS]

        def built(graph):
            raise AssertionError("an edge object was built")

        monkeypatch.setattr(SuborbitalGraph, "edges", property(built))
        for document, dot, svg in want:
            graph = parse_json(document)
            assert (emit_json(graph), emit_dot(graph), emit_svg(graph, 640)) == (
                document, dot, svg)

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

    @pytest.mark.parametrize("sign", [[], {}, ["+"]])
    def test_sign_must_be_the_string_plus_or_minus(self, sign):
        data = json.loads(self.doc)
        data["edges"][0]["sign"] = sign
        with pytest.raises(MalformedDocument, match=r"edges\[0\]\.sign must be '\+' or '-'"):
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

    def test_unreadable_sizes_are_malformed(self):
        text = emit_json(TEST_GRAPHS[0])
        assert '"height_bound":4,' in text
        too_long = text.replace('"height_bound":4,', '"height_bound":' + "1" * 5000 + ",")
        for doc in (too_long, "[" * 200_000):
            with pytest.raises(MalformedDocument, match="not valid JSON"):
                parse_json(doc)

    def test_huge_height_bound_refused_from_the_estimate(self, monkeypatch):
        # no vertex is generated: the work estimate alone refuses
        monkeypatch.setattr(graphs_module, "_block_vertices", None)
        text = rebuild(emit_json(TEST_GRAPHS[0]), height_bound=10_000)
        # 100005002 vertices plus 2400140001 lattice lookups for F[1, 2]
        with pytest.raises(BoundTooLarge, match="2500145003"):
            parse_json(text)

    def test_invalid_parameters_detected(self):
        with pytest.raises(InvariantViolation):
            parse_json(rebuild(self.doc, u=2, modulus=4, vertices=[], edges=[]))
        with pytest.raises(InvariantViolation):
            parse_json(rebuild(self.doc, height_bound=0))


    def test_unit_above_one_at_modulus_one_is_invalid(self):
        # F[5, 1] would have the same edges as F[1, 1] under a second label
        doc = emit_json(enumerate_graph(GraphSpec(family="finf", u=1, modulus=1), 3))
        for family in ("finf", "fzero"):
            with pytest.raises(InvariantViolation, match="graph parameters invalid"):
                parse_json(rebuild(doc, family=family, u=5))


# each canonical point of F[1, 1] at height 4 with spellings that name the
# same value but are not what str() writes
RESPELLINGS = [
    ("-3/4", "-6/8"),
    ("-3/4", "3/-4"),
    ("-3/4", " -3/4"),
    ("-3/4", "-3/4 "),
    ("-3/4", "-03/4"),
    ("-3/4", "-3_0/40"),
    ("-3/4", "-\u0663/4"),  # an Arabic-Indic digit three
    ("1/2", "+1/2"),
]


class TestCanonicalSpelling:
    """A document point is read only in the spelling str() writes."""

    doc = emit_json(enumerate_graph(GraphSpec(family="finf", u=1, modulus=1), 4))

    def placements(self, canonical, respelled):
        """The document with the point respelled in the vertex list, in
        one edge's src, and in one edge's dst."""
        data = json.loads(self.doc)
        i = data["vertices"].index(canonical)
        data["vertices"][i] = respelled
        yield data
        for end in ("src", "dst"):
            data = json.loads(self.doc)
            edge = next(e for e in data["edges"] if e[end] == canonical)
            edge[end] = respelled
            yield data

    @pytest.mark.parametrize("canonical, respelled", RESPELLINGS)
    def test_respelling_refused(self, canonical, respelled):
        # a well-formed but unreduced fraction is an unknown item; any
        # other spelling is not a fraction at all
        error = InvariantViolation if respelled == "-6/8" else MalformedDocument
        shown = respelled if error is InvariantViolation else repr(respelled)
        for data in self.placements(canonical, respelled):
            with pytest.raises(error) as err:
                parse_json(json.dumps(data))
            assert shown in str(err.value)


# one malformed item of each kind: (list, how to spoil the item, the
# message with {i} for its index); each spoiler takes the item's parsed
# JSON value and returns the malformed one
MALFORMED_ITEMS = [
    pytest.param("vertices", lambda v: 5, "vertices[{i}] must be a string, got 5",
                 id="non-string vertex"),
    pytest.param("vertices", lambda v: "-03/4",
                 "vertices[{i}] is not a num/den fraction: '-03/4'",
                 id="off-grammar vertex"),
    pytest.param("edges", lambda e: [e["src"], e["dst"], e["sign"]],
                 "edges[{i}] must be an object", id="edge not an object"),
    pytest.param("edges", lambda e: {"src": e["src"], "dst": e["dst"]},
                 "edges[{i}] must have exactly keys src, dst, sign", id="missing key"),
    pytest.param("edges", lambda e: {**e, "weight": 1},
                 "edges[{i}] must have exactly keys src, dst, sign", id="extra key"),
    pytest.param("edges", lambda e: {**e, "src": 5},
                 "edges[{i}].src must be a string, got 5", id="non-string src"),
    pytest.param("edges", lambda e: {**e, "src": "-03/4"},
                 "edges[{i}].src is not a num/den fraction: '-03/4'",
                 id="off-grammar src"),
    pytest.param("edges", lambda e: {**e, "dst": None},
                 "edges[{i}].dst must be a string, got None", id="non-string dst"),
    pytest.param("edges", lambda e: {**e, "dst": "3/-4"},
                 "edges[{i}].dst is not a num/den fraction: '3/-4'",
                 id="off-grammar dst"),
    pytest.param("edges", lambda e: {**e, "sign": []},
                 "edges[{i}].sign must be '+' or '-', got []", id="sign []"),
    pytest.param("edges", lambda e: {**e, "sign": {}},
                 "edges[{i}].sign must be '+' or '-', got {{}}", id="sign {}"),
    pytest.param("edges", lambda e: {**e, "sign": "positive"},
                 "edges[{i}].sign must be '+' or '-', got 'positive'",
                 id="sign positive"),
]


# values put in place of a whole item or of one edge key
SPOILERS = [None, 5, True, 1.5, "x", "03/4", "+", "positive", [], {}]


def spoiled_documents(seed, count):
    """Documents of TEST_GRAPHS with one to three changes to their items:
    a spoiler in place of an item or of an edge key, an edge key dropped
    or added, an item deleted, or a spoiler or a copy of an item inserted."""
    rng = random.Random(seed)
    for _ in range(count):
        data = json.loads(emit_json(rng.choice(TEST_GRAPHS)))
        for _ in range(rng.randint(1, 3)):
            items = data[rng.choice(("vertices", "edges"))]
            i = rng.randrange(len(items) + 1)
            value = copy.deepcopy(rng.choice(SPOILERS + items[:1] + items[-1:]))
            how = rng.choice(("insert", "delete", "replace", "set key", "drop key"))
            if how == "insert" or i == len(items):
                items.insert(i, value)
            elif how == "delete":
                del items[i]
            elif how == "replace" or not isinstance(items[i], dict):
                items[i] = value
            elif how == "set key":
                items[i][rng.choice(("src", "dst", "sign", "weight"))] = value
            else:
                items[i].pop(rng.choice(("src", "dst", "sign")), None)
        yield data


class TestMalformedItems:
    """A malformed item is named by the same message wherever it stands,
    and of several the first in document order is named."""

    doc = emit_json(TEST_GRAPHS[0])

    def refused(self, data):
        with pytest.raises(MalformedDocument) as err:
            parse_json(json.dumps(data))
        return str(err.value)

    @pytest.mark.parametrize("field, spoil, message", MALFORMED_ITEMS)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_each_kind_at_each_position(self, field, spoil, message, where):
        data = json.loads(self.doc)
        items = data[field]
        i = {"first": 0, "middle": len(items) // 2, "last": len(items) - 1}[where]
        items[i] = spoil(items[i])
        assert self.refused(data) == message.format(i=i)

    def test_a_vertex_is_named_before_any_edge(self):
        data = json.loads(self.doc)
        data["vertices"][-1] = "-03/4"
        data["edges"][0] = "1/0 -> 1/2"
        assert self.refused(data) == (
            f"vertices[{len(data['vertices']) - 1}] is not a num/den fraction: '-03/4'"
        )

    def test_an_earlier_edge_is_named_before_a_later_one(self):
        data = json.loads(self.doc)
        data["edges"][2]["sign"] = "positive"
        data["edges"][5] = None
        assert self.refused(data) == "edges[2].sign must be '+' or '-', got 'positive'"

    @pytest.mark.parametrize("changes, message", [
        ({"weight": 1, "src": 5}, "edges[3] must have exactly keys src, dst, sign"),
        ({"src": 5, "dst": 5}, "edges[3].src must be a string, got 5"),
        ({"dst": "3/-4", "sign": []},
         "edges[3].dst is not a num/den fraction: '3/-4'"),
    ])
    def test_within_an_edge_shape_then_src_dst_sign(self, changes, message):
        data = json.loads(self.doc)
        data["edges"][3].update(changes)
        assert self.refused(data) == message

    def test_refused_before_the_graph_is_enumerated(self, monkeypatch):
        def enumerated(*args):
            raise AssertionError("a malformed document was enumerated")

        monkeypatch.setattr(graphs_module, "_block_vertices", enumerated)
        data = json.loads(self.doc)
        data["edges"][-1]["sign"] = "positive"
        with pytest.raises(MalformedDocument):
            parse_json(json.dumps(data))

    def test_the_bulk_decision_agrees_with_the_naming_walk(self):
        # parse_json refuses a document's items as malformed exactly when
        # the item-by-item walk names one, and with the walk's message
        named_or_not = {True: 0, False: 0}
        for data in spoiled_documents(20261019, 600):
            try:
                _name_first_malformed(data["vertices"], data["edges"])
                named = None
            except MalformedDocument as exc:
                named = str(exc)
            try:
                parse_json(json.dumps(data))
                refused = None
            except MalformedDocument as exc:
                refused = str(exc)
            except InvariantViolation:
                refused = None
            assert refused == named, data
            named_or_not[named is None] += 1
        assert min(named_or_not.values()) >= 50, named_or_not


class TestNonCanonicalText:
    """Text that is not the canonical bytes may still name the graph."""

    def test_whitespace_and_key_order_parse_to_the_same_graph(self):
        graph = TEST_GRAPHS[0]
        doc = emit_json(graph)
        data = json.loads(doc)
        indented = json.dumps(data, indent=2)
        header_reordered = json.dumps(dict(reversed(list(data.items()))))
        edge_keys_reordered = json.dumps(
            {**data, "edges": [dict(reversed(list(e.items()))) for e in data["edges"]]}
        )
        for text in (indented, header_reordered, edge_keys_reordered):
            assert text != doc
            assert parse_json(text) == graph
            assert emit_json(parse_json(text)) == doc

    def test_a_duplicated_header_key_keeps_its_last_value(self):
        graph = TEST_GRAPHS[0]
        doc = emit_json(graph)
        text = doc.replace('"u":1,', '"u":7,"u":1,')
        assert text != doc
        assert parse_json(text) == graph


# str() of a point: 1/0, 0/1, or a nonzero numerator over a positive
# denominator in ASCII digits without leading zeros
CANONICAL_POINT = re.compile(r"1/0|0/1|-?[1-9][0-9]*/[1-9][0-9]*")

# sha256 of the concatenated outputs over SWEEP, as first written
SWEEP_SHA256 = {
    "json": "9e303edb86328965d92c49c55047e41925162a7eed8464007655e2bfaf709f6c",
    "dot": "cf50e51cd84e284a7a3226c634d608d41f49b933720b7dad24a1675f7e71a6ad",
    "svg": "2e73744dc10a5544ed946e0b4afce4dfbdfbd6d06351149febc081ef44ea8f4a",
}
# the same over the tall sweep, where the lattice lines are long, as
# written before enumeration walked one step class per line
TALL_SWEEP_SHA256 = {
    "json": "7d5054ced8ec9ef4fb21340d7d25ece1520dcde2edf3bee2e8b26b10209a4b18",
    "dot": "6c67a76740feaf096697731d81bccbf9d9a6ee46f7fc19b33ad01cd13f29014e",
    "svg": "fc0365dde0f249e66521040bbaafb29321118ac72400cc7a5580ea78b6dbb556",
}


def every_graph(height, max_modulus):
    """Every graph at the height with modulus m <= max_modulus, in the
    order m, then each unit u (u = 1 at m = 1), then finf, fzero,
    reversed fzero."""
    return [
        enumerate_graph(GraphSpec(family, u, m, reversed_), height)
        for m in range(1, max_modulus + 1)
        for u in range(1, max(m, 2))
        if math.gcd(u, m) == 1
        for family, reversed_ in (("finf", False), ("fzero", False), ("fzero", True))
    ]


def digests(graphs):
    """sha256 of each format's outputs over the graphs, concatenated."""
    emit = {
        "json": emit_json,
        "dot": emit_dot,
        "svg": lambda graph: emit_svg(graph, 640),
    }
    out = {}
    for fmt, write in emit.items():
        h = hashlib.sha256()
        for graph in graphs:
            h.update(write(graph).encode())
        out[fmt] = h.hexdigest()
    return out


@pytest.fixture(scope="module")
def sweep():
    return every_graph(24, 24)


class TestSweep:
    def test_outputs_are_byte_identical(self, sweep):
        assert len(sweep) == 540
        assert digests(sweep) == SWEEP_SHA256

    def test_tall_outputs_are_byte_identical(self):
        tall = every_graph(60, 8)
        assert (len(tall), sum(len(g.edges) for g in tall)) == (66, 83538)
        assert digests(tall) == TALL_SWEEP_SHA256

    def test_every_point_is_written_in_the_parsed_grammar(self, sweep):
        for graph in sweep:
            for vertex in graph.vertices:
                assert CANONICAL_POINT.fullmatch(str(vertex)), vertex

    def test_every_document_parses_to_its_graph(self, sweep):
        for graph in sweep:
            assert parse_json(emit_json(graph)) == graph

    def test_the_command_line_writes_the_same_bytes(self, sweep, capsys):
        # edges writes the walk by position and emit_* a graph by its
        # vertex map: the hashes pin both producers of positions
        for fmt, digest in SWEEP_SHA256.items():
            h = hashlib.sha256()
            for graph in sweep:
                family, u, m, reversed_ = graph.spec
                argv = ["edges", "--family", family, "--u", str(u), "--mod", str(m),
                        "--bound", str(graph.height_bound), "--format", fmt]
                assert main(argv + ["--reversed"] * reversed_) == 0
                out = capsys.readouterr().out
                h.update((out[:-1] if fmt == "json" else out).encode())
            assert h.hexdigest() == digest, fmt

    def test_parse_walks_each_document_once(self, sweep, monkeypatch):
        walks = []
        walk = graphs_module.enumerate_graph

        def counted(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(graphs_module, "enumerate_graph", counted)
        monkeypatch.setattr(graph_io_module, "enumerate_graph", counted)
        documents = [emit_json(graph) for graph in sweep[::9]]
        assert walks == []
        for document, graph in zip(documents, sweep[::9]):
            assert parse_json(document) == graph
        assert walks == [(graph.spec, graph.height_bound) for graph in sweep[::9]]


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

    def test_width_ceiling(self):
        with pytest.raises(BoundTooLarge, match="100001, above the ceiling 100000"):
            emit_svg(TEST_GRAPHS[0], 100_001)
        with pytest.raises(BoundTooLarge):
            emit_svg(TEST_GRAPHS[0], 10**400)
        assert 'width="100000"' in emit_svg(TEST_GRAPHS[0], 100_000)

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
