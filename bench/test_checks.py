"""Each reference check fires on a corrupted output, so none is vacuous.

Run with:  python3 -m pytest bench
The correct outputs here come from reference.py alone; each test then
corrupts one item and expects the matching check to report it.
"""

from __future__ import annotations

import copy
import json
import random

import checks
import reference as ref
import workloads


def graph_doc(family="finf", u=1, modulus=2, reversed_=False, bound=12):
    graph = ref.graph(family, u, modulus, reversed_, bound)
    return graph, graph.document()


def all_problems(doc, graph):
    return checks.check_json_graph(json.dumps(doc, separators=(",", ":")) + "\n", graph)


def test_correct_graph_documents_pass():
    for spec in (("finf", 1, 1, False, 9), ("finf", 2, 5, False, 20),
                 ("fzero", 3, 7, False, 25), ("fzero", 3, 7, True, 25)):
        graph, doc = graph_doc(*spec)
        assert graph.edges
        assert all_problems(doc, graph) == []


def test_edge_dropped_fires():
    graph, doc = graph_doc()
    del doc["edges"][3]
    assert checks.check_complete(doc, graph)
    assert all_problems(doc, graph)


def test_edge_added_fires():
    graph, doc = graph_doc()
    present = set(graph.edges)
    v, w = next((v, w) for v in graph.vertices for w in graph.vertices
                if v != w and (v, w) not in present)
    doc["edges"].append({"src": ref.text(v), "dst": ref.text(w), "sign": ref.sign_mark(v, w)})
    assert checks.check_complete(doc, graph)
    assert checks.check_carriers(doc, graph)


def test_sign_flipped_fires():
    graph, doc = graph_doc()
    edge = doc["edges"][0]
    edge["sign"] = "-" if edge["sign"] == "+" else "+"
    assert checks.check_signs(doc)
    assert checks.check_carriers(doc, graph) == []


def test_vertex_missing_fires():
    graph, doc = graph_doc()
    del doc["vertices"][5]
    assert checks.check_vertices(doc, graph)


def test_carrier_outside_the_group_fires():
    # F[1, 2]'s edges are orbit images under gamma0_pair(2, 1); read against
    # the graph of another unit, some carriers leave the group.
    graph, doc = graph_doc("finf", 1, 5, False, 20)
    other = ref.graph("finf", 2, 5, False, 20)
    assert checks.check_carriers(doc, other)


def test_dot_and_svg_counts_fire():
    graph = ref.graph("finf", 1, 2, False, 8)
    lines = [f'digraph "{graph.label()}" {{']
    lines += [f'  "{ref.text(v)}";' for v in graph.vertices]
    lines += [f'  "{ref.text(a)}" -> "{ref.text(b)}" [label="{ref.sign_mark(a, b)}"];'
              for a, b in graph.edges]
    dot = "\n".join(lines + ["}"]) + "\n"
    assert checks.check_dot(dot, graph) == []
    assert checks.check_dot(dot.replace(lines[-1] + "\n", ""), graph)

    ns = 'xmlns="http://www.w3.org/2000/svg"'
    body = "".join('<path d="M 0 0"/>' for _ in graph.edges)
    body += "".join('<circle r="1"/>' for v in graph.vertices if v[1])
    svg = f"<svg {ns}><title>{graph.label()} at height 8</title>{body}</svg>"
    assert checks.check_svg(svg, graph) == []
    assert checks.check_svg(svg.replace('<path d="M 0 0"/>', "", 1), graph)


def oracle_report(family, u, l, m, entry, height):
    """The report the reference says is right for one oracle configuration."""
    modulus = l if family == "finf" else m
    graph = ref.graph(family, u, modulus, False, height)
    members = ref.member_count("gamma0_pair", (l, m), entry)
    misses = [ref.edge_text(a, b) for a, b in graph.edges
              if not ref.in_gamma0_pair(g := ref.carrier(graph.base, a, b), l, m)
              or max(map(abs, g)) > entry]
    return {"spec": graph.label(), "group": f"gamma0_pair({l},{m})", "entry_bound": entry,
            "height_bound": height, "members": members, "orbital_pairs": members,
            "orbital_in_bound": ref.orbit_in_window(family, u, modulus, l, m, entry, height),
            "edges": len(graph.edges), "soundness_failures": [],
            "completeness_misses": misses, "ok": True}


def test_completeness_miss_count_off_by_one_fires():
    report = oracle_report("finf", 1, 2, 2, 20, 30)
    assert len(report["completeness_misses"]) == 500  # 372 carriers outside the group
    assert checks.check_oracle_report(report, "finf", 1, 2, 2) == []
    short = copy.deepcopy(report)
    short["completeness_misses"].pop()
    assert checks.check_oracle_report(short, "finf", 1, 2, 2)
    long = copy.deepcopy(report)
    long["completeness_misses"].append(long["completeness_misses"][0])
    assert checks.check_oracle_report(long, "finf", 1, 2, 2)


def test_oracle_member_and_edge_counts_fire():
    report = oracle_report("fzero", 2, 1, 3, 20, 30)
    assert checks.check_oracle_report(report, "fzero", 2, 1, 3) == []
    for key in ("members", "edges", "orbital_in_bound"):
        bad = dict(report, **{key: report[key] + 1})
        assert checks.check_oracle_report(bad, "fzero", 2, 1, 3)


def test_selfpaired_witness_that_does_not_swap_fires():
    base = (ref.INF, ref.point(2, 5))
    witness = next(g for g in ref.canonical_matrices(20)
                   if ref.mobius(g, base[0]) == base[1] and ref.mobius(g, base[1]) == base[0])
    a, b, c, d = witness
    report = {"spec": "F[2, 5]", "entry_bound": 20, "predicted": True,
              "witness": f"[[{a}, {b}], [{c}, {d}]]", "agrees": True}
    assert checks.check_selfpaired_report(report) == []
    # takes 1/0 to 2/5 but does not bring 2/5 back
    report["witness"] = "[[2, 1], [5, 3]]"
    assert checks.check_selfpaired_report(report)


def test_lattice_and_blocks_counts_fire():
    report = {"n1": 2, "n2": 3, "entry_bound": 8, "scanned": ref.member_count("full", (), 8),
              "products_checked": ref.member_count("principal", (2,), 8)
              * ref.member_count("gamma0", (3,), 8),
              "intersection_violations": [], "product_violations": [], "ok": True}
    assert checks.check_lattice_report(report) == []
    assert checks.check_lattice_report(dict(report, products_checked=report["products_checked"] - 1))
    blocks = {"max": 12, "formula_mismatches": [], "pair_mismatches": [], "ok": True}
    assert checks.check_blocks_report(blocks) == []
    assert checks.check_blocks_report(dict(blocks, formula_mismatches=[7]))


def test_refusal_must_name_the_tampered_item():
    rng = random.Random(5)
    graph = ref.graph("finf", 1, 2, False, 12)
    op = workloads.doc_op(graph, "small", "vertex_dropped", rng)
    item = op["names"][0]
    good = {"error": "InvariantViolation", "message": f"vertex {item} missing from document",
            "domain": True}
    assert checks.check_doc_op(op, good) == []
    assert checks.check_doc_op(op, dict(good, message="vertex list is not in canonical sorted order"))
    assert checks.check_doc_op(op, dict(good, error="MalformedDocument"))
    assert checks.check_doc_op(op, {"emitted": op["doc"]})


def test_valid_document_must_re_emit_to_the_same_bytes():
    op = workloads.doc_op(ref.graph("fzero", 1, 2, True, 10), "small", None, None)
    assert checks.check_doc_op(op, {"emitted": op["doc"]}) == []
    assert checks.check_doc_op(op, {"emitted": op["doc"].replace('"+"', '"-"', 1)})


def test_names_matches_whole_fractions_only():
    assert checks.names("vertex 1/2 missing", "1/2")
    assert not checks.names("vertex -1/2 missing", "1/2")
    assert not checks.names("vertex 11/2 missing", "1/2")
    assert not checks.names("vertex 1/23 missing", "1/2")
    assert checks.names("edge -1/2 -> 1/0 fails", "-1/2 -> 1/0")


def test_operation_lists_are_seeded_and_known_faults_are_fixed():
    for name in workloads.WORKLOADS:
        assert workloads.make(name, 3) == workloads.make(name, 3)
        assert workloads.make(name, 3) != workloads.make(name, 4)
    for name, count in (("build", 0), ("verify", 1), ("roundtrip", 2)):
        faults = [sorted(json.dumps(op, sort_keys=True) for op in workloads.make(name, seed)[0]
                         if op.get("known_fault")) for seed in (1, 2)]
        assert len(faults[0]) == count
        assert faults[0] == faults[1]
    assert {len(workloads.make(name, seed)[0]) for name in workloads.WORKLOADS
            for seed in (1, 2)} == {41, 50, 40}


def test_lattice_intersection_violations_fire():
    report = {"n1": 4, "n2": 6, "entry_bound": 28, "scanned": 3866,
              "intersection_violations": ["[[-17, 12], [24, -17]]"],
              "products_checked": 49455, "product_violations": [], "ok": False}
    problems = checks.check_lattice_report(report)
    assert any("violations reported" in p for p in problems)
