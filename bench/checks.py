"""Output checks: every program output against reference.py, never against
a stored copy of earlier output.

Each check returns a list of problems; an empty list means the output
passed.  The checks read the program's outputs with the stdlib only.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

import reference as ref

SVG_NS = "{http://www.w3.org/2000/svg}"
SUITES = ("blocks", "oracle", "selfpaired", "pairing", "lattice")


def names(message: str, item: str) -> bool:
    """Whether the message mentions the item as a whole token."""
    return re.search(rf"(?<![\w/.-]){re.escape(item)}(?![\w/.])", message) is not None


def _first_difference(have: list, want: list) -> str:
    for i, (a, b) in enumerate(zip(have, want)):
        if a != b:
            return f"at {i}: {a!r} instead of {b!r}"
    return f"length {len(have)} instead of {len(want)}"


# --- build: graph documents ---------------------------------------------------

def check_header(doc: dict, graph: ref.Graph) -> list[str]:
    want = {"format_version": "1", "family": graph.family, "u": graph.u,
            "modulus": graph.modulus, "reversed": graph.reversed,
            "height_bound": graph.bound}
    keys = ["format_version", "family", "u", "modulus", "reversed", "height_bound",
            "vertices", "edges"]
    problems = [] if list(doc) == keys else [f"document keys {list(doc)}"]
    problems += [f"{k} is {doc.get(k)!r}, expected {v!r}" for k, v in want.items() if doc.get(k) != v]
    return problems


def check_vertices(doc: dict, graph: ref.Graph) -> list[str]:
    want = [ref.text(v) for v in graph.vertices]
    if doc["vertices"] == want:
        return []
    return ["vertex list differs from the reduced fractions of the block, "
            + _first_difference(doc["vertices"], want)]


def _edge_points(doc: dict):
    for e in doc["edges"]:
        yield ref.parse_point(e["src"]), ref.parse_point(e["dst"]), e["sign"]


def check_carriers(doc: dict, graph: ref.Graph) -> list[str]:
    """Every edge's carrier is integral, has determinant 1 and is a member."""
    l, m = graph.group
    problems = []
    for src, dst, _ in _edge_points(doc):
        g = ref.carrier(graph.base, src, dst)
        shown = f"{ref.text(src)} -> {ref.text(dst)}"
        if g is None:
            problems.append(f"edge {shown} has no integral carrier")
        elif ref.det(g) != 1:
            problems.append(f"carrier {g} of edge {shown} has determinant {ref.det(g)}")
        elif not ref.in_gamma0_pair(g, l, m):
            problems.append(f"carrier {g} of edge {shown} is not in gamma0_pair({l},{m})")
    return problems


def check_complete(doc: dict, graph: ref.Graph) -> list[str]:
    """The emitted pairs are exactly the solver's edges, in canonical order."""
    have = [(src, dst) for src, dst, _ in _edge_points(doc)]
    problems = []
    missing = set(graph.edges) - set(have)
    extra = set(have) - set(graph.edges)
    if missing:
        problems.append(f"{len(missing)} edge(s) missing, first {ref.edge_text(*min(missing))}")
    if extra:
        problems.append(f"{len(extra)} edge(s) not in the orbit, first {ref.edge_text(*min(extra))}")
    if not missing and not extra and have != graph.edges:
        problems.append("edge list is duplicated or out of canonical order")
    return problems


def check_signs(doc: dict) -> list[str]:
    return [f"edge {ref.text(s)} -> {ref.text(d)} has sign {mark!r}"
            for s, d, mark in _edge_points(doc) if mark != ref.sign_mark(s, d)]


def check_json_graph(stdout: str, graph: ref.Graph) -> list[str]:
    if not stdout.endswith("\n"):
        return ["JSON output does not end with a newline"]
    try:
        doc = json.loads(stdout)
        problems = check_header(doc, graph)
        if problems:
            return problems
        return (check_vertices(doc, graph) + check_carriers(doc, graph)
                + check_complete(doc, graph) + check_signs(doc))
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable JSON graph: {exc!r}"]


_NODE = re.compile(r'  "([^"]+)";')
_ARC = re.compile(r'  "([^"]+)" -> "([^"]+)" \[label="([+-])"\];')


def check_dot(text: str, graph: ref.Graph) -> list[str]:
    lines = text.split("\n")
    if lines[0] != f'digraph "{graph.label()}" {{' or lines[-2:] != ["}", ""]:
        return ["DOT header or footer is wrong"]
    nodes, arcs, other = [], [], []
    for line in lines[1:-2]:
        if (hit := _NODE.fullmatch(line)):
            nodes.append(hit.group(1))
        elif (hit := _ARC.fullmatch(line)):
            arcs.append(hit.groups())
        else:
            other.append(line)
    want_arcs = [(ref.text(a), ref.text(b), ref.sign_mark(a, b)) for a, b in graph.edges]
    problems = [f"unexpected DOT line {other[0]!r}"] if other else []
    if nodes != [ref.text(v) for v in graph.vertices]:
        problems.append(f"{len(nodes)} DOT nodes, reference has {len(graph.vertices)} vertices")
    if arcs != want_arcs:
        problems.append(f"{len(arcs)} DOT arcs differ from the {len(want_arcs)} reference edges")
    return problems


def check_svg(text: str, graph: ref.Graph) -> list[str]:
    try:
        root = ET.fromstring(text.encode())
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    paths = len(root.findall(f".//{SVG_NS}path"))
    circles = len(root.findall(f".//{SVG_NS}circle"))
    finite = sum(1 for v in graph.vertices if v[1] != 0)
    title = root.find(f"{SVG_NS}title")
    problems = []
    if paths != len(graph.edges):
        problems.append(f"{paths} SVG paths, reference has {len(graph.edges)} edges")
    if circles != finite:
        problems.append(f"{circles} SVG circles, reference has {finite} finite vertices")
    if title is None or graph.label() not in (title.text or ""):
        problems.append("SVG title does not name the graph")
    return problems


def check_edges_op(op: dict, record: dict) -> list[str]:
    if record.get("rc") != 0 or record.get("stderr"):
        return [f"exit code {record.get('rc')}, stderr {record.get('stderr', '')[:200]!r}"]
    graph = ref.graph(op["family"], op["u"], op["modulus"], op["reversed"], op["bound"])
    check = {"json": check_json_graph, "dot": check_dot, "svg": check_svg}[op["format"]]
    return check(record["stdout"], graph)


# --- verify: reports ------------------------------------------------------------

_LABEL = re.compile(r"F\[(-?\d+), (\d+)\]")
_GROUP = re.compile(r"gamma0_pair\((\d+),(\d+)\)")
_MATRIX = re.compile(r"\[\[(-?\d+), (-?\d+)\], \[(-?\d+), (-?\d+)\]\]")


def _canonical_unit(u: int, m: int) -> bool:
    return u == 1 if m == 1 else 1 <= u < m


def oracle_reading(report: dict) -> list[tuple[str, int, int, int]]:
    """(family, u, l, m) readings of a report's spec and group labels."""
    spec, group = _LABEL.fullmatch(report["spec"]), _GROUP.fullmatch(report["group"])
    if not spec or not group:
        return []
    a, b = int(spec.group(1)), int(spec.group(2))
    l, m = int(group.group(1)), int(group.group(2))
    out = []
    if b == l and _canonical_unit(a, l):
        out.append(("finf", a, l, m))
    if a == m and _canonical_unit(b, m):
        out.append(("fzero", b, l, m))
    return out


def check_oracle_report(report: dict, family: str, u: int, l: int, m: int) -> list[str]:
    modulus = l if family == "finf" else m
    entry, height = report["entry_bound"], report["height_bound"]
    graph = ref.graph(family, u, modulus, False, height)
    members = ref.member_count("gamma0_pair", (l, m), entry)
    misses = []
    for a, b in graph.edges:
        g = ref.carrier(graph.base, a, b)
        if not ref.in_gamma0_pair(g, l, m) or max(map(abs, g)) > entry:
            misses.append(ref.edge_text(a, b))
    where = f"{report['spec']} vs {report['group']}"
    problems = []
    if report["members"] != members:
        problems.append(f"{where}: {report['members']} members, reference counts {members}")
    if report["orbital_pairs"] != members:
        problems.append(f"{where}: {report['orbital_pairs']} orbital pairs from {members} members")
    in_window = ref.orbit_in_window(family, u, modulus, l, m, entry, height)
    if report["orbital_in_bound"] != in_window:
        problems.append(f"{where}: {report['orbital_in_bound']} pairs in window, reference {in_window}")
    if report["edges"] != len(graph.edges):
        problems.append(f"{where}: {report['edges']} edges, reference {len(graph.edges)}")
    if len(report["completeness_misses"]) != len(misses):
        problems.append(f"{where}: {len(report['completeness_misses'])} completeness misses, "
                        f"reference {len(misses)}")
    elif sorted(report["completeness_misses"]) != sorted(misses):
        problems.append(f"{where}: completeness misses name other edges than the reference")
    if report["soundness_failures"] or report["ok"] is not True:
        problems.append(f"{where}: soundness failures {report['soundness_failures'][:3]}")
    return problems


def check_selfpaired_report(report: dict) -> list[str]:
    hit = _LABEL.fullmatch(report["spec"])
    if not hit:
        return [f"unreadable spec {report['spec']!r}"]
    u, mod = int(hit.group(1)), int(hit.group(2))
    predicted = (u * u + 1) % mod == 0
    problems = []
    if report["predicted"] is not predicted:
        problems.append(f"{report['spec']}: predicted {report['predicted']}, u^2+1 test says {predicted}")
    witness = report["witness"]
    if witness is None:
        if predicted:
            problems.append(f"{report['spec']}: no witness for a self-paired graph")
    else:
        hit = _MATRIX.fullmatch(witness)
        g = tuple(map(int, hit.groups())) if hit else None
        alpha, beta = ref.INF, ref.point(u, mod)
        if g is None or ref.det(g) != 1:
            problems.append(f"{report['spec']}: witness {witness} is not a determinant-1 matrix")
        elif max(map(abs, g)) > report["entry_bound"]:
            problems.append(f"{report['spec']}: witness {witness} exceeds the entry bound")
        elif ref.mobius(g, alpha) != beta or ref.mobius(g, beta) != alpha:
            problems.append(f"{report['spec']}: witness {witness} does not swap the base pair")
    if report["agrees"] is not True:
        problems.append(f"{report['spec']}: report disagrees with its prediction")
    return problems


def check_pairing_report(report: dict) -> list[str]:
    hit = _LABEL.fullmatch(report["spec"])
    if not hit:
        return [f"unreadable spec {report['spec']!r}"]
    mod, u = int(hit.group(1)), int(hit.group(2))
    partner_u = pow(u, -1, mod) if mod > 1 else 1
    height = report["height_bound"]
    edges = len(ref.graph("fzero", u, mod, False, height).edges)
    partner = len(ref.graph("fzero", partner_u, mod, True, height).edges)
    problems = []
    if report["partner"] != ref.label("fzero", partner_u, mod, True):
        problems.append(f"{report['spec']}: partner {report['partner']}")
    if report["edges"] != edges or report["partner_edges"] != partner:
        problems.append(f"{report['spec']}: {report['edges']}/{report['partner_edges']} edges, "
                        f"reference {edges}/{partner}")
    if report["ok"] is not True:
        problems.append(f"{report['spec']}: reversal bijection failed")
    return problems


def check_lattice_report(report: dict) -> list[str]:
    n1, n2, entry = report["n1"], report["n2"], report["entry_bound"]
    scanned = ref.member_count("full", (), entry)
    products = (ref.member_count("principal", (n1,), entry)
                * ref.member_count("gamma0", (n2,), entry))
    problems = []
    if report["scanned"] != scanned:
        problems.append(f"lattice({n1},{n2}): scanned {report['scanned']}, reference {scanned}")
    if report["products_checked"] != products:
        problems.append(f"lattice({n1},{n2}): {report['products_checked']} products, "
                        f"reference {products}")
    if report["intersection_violations"] or report["product_violations"] or report["ok"] is not True:
        problems.append(f"lattice({n1},{n2}): violations reported")
    return problems


def check_blocks_report(data: dict) -> list[str]:
    top = data["max"]
    formula = [n for n in range(1, top + 1) if ref.count_blocks(n) != ref.psi(n)]
    pair_top = min(top, 20)
    pairs = [[l, m] for l in range(1, pair_top + 1) for m in range(1, pair_top + 1)
             if ref.psi(l) + ref.psi(m) != ref.count_blocks(l) + ref.count_blocks(m)]
    problems = []
    if data["formula_mismatches"] != formula or data["pair_mismatches"] != pairs:
        problems.append(f"blocks up to {top}: mismatches {data['formula_mismatches'][:3]}, "
                        f"{data['pair_mismatches'][:3]} where the reference psi has "
                        f"{formula[:3]}, {pairs[:3]}")
    if data["ok"] is not True:
        problems.append(f"blocks up to {top}: not ok")
    return problems


def check_suite(data: dict) -> list[str]:
    suite = data["suite"]
    if suite == "blocks":
        return check_blocks_report(data)
    problems = [] if data["reports"] else [f"suite {suite} has no reports"]
    for report in data["reports"]:
        if suite == "oracle":
            readings = oracle_reading(report)
            results = [check_oracle_report(report, *r) for r in readings]
            if not results:
                problems.append(f"unreadable oracle labels {report['spec']}, {report['group']}")
            elif all(results):
                problems.extend(results[0])
        elif suite == "selfpaired":
            problems.extend(check_selfpaired_report(report))
        elif suite == "pairing":
            problems.extend(check_pairing_report(report))
        else:
            problems.extend(check_lattice_report(report))
    if data["ok"] is not True:
        problems.append(f"suite {suite} is not ok")
    return problems


def _matches(op: dict, data: dict) -> list[str]:
    """The single report answers the configuration the operation asked for."""
    suite = op["suite"]
    if suite == "blocks":
        return [] if data["max"] == op["max"] else [f"blocks max {data['max']}"]
    if len(data["reports"]) != 1:
        return [f"{len(data['reports'])} reports for one {suite} configuration"]
    report = data["reports"][0]
    if suite == "oracle":
        modulus = op["l"] if op["family"] == "finf" else op["m"]
        want = (ref.label(op["family"], op["u"], modulus), f"gamma0_pair({op['l']},{op['m']})",
                op["entry"], op["height"])
        have = (report["spec"], report["group"], report["entry_bound"], report["height_bound"])
    elif suite == "selfpaired":
        want, have = ref.label("finf", op["u"], op["mod"]), report["spec"]
    elif suite == "pairing":
        want = (ref.label("fzero", op["u"], op["mod"]), op["height"])
        have = (report["spec"], report["height_bound"])
    else:
        want = (op["n1"], op["n2"], op["entry"])
        have = (report["n1"], report["n2"], report["entry_bound"])
    return [] if want == have else [f"report answers {have}, asked {want}"]


def check_verify_op(op: dict, record: dict) -> list[str]:
    exit_problems = []
    if record.get("rc") != 0 or record.get("stderr"):
        exit_problems = [f"exit code {record.get('rc')}, stderr {record.get('stderr', '')[:200]!r}"]
    try:
        suites = json.loads(record["stdout"])
        expected = list(SUITES) if op["suite"] == "all" else [op["suite"]]
        if sorted(d["suite"] for d in suites) != sorted(expected):
            return [f"suites {[d['suite'] for d in suites]}, expected {expected}"] + exit_problems
        problems = [] if op["suite"] == "all" else _matches(op, suites[0])
        for data in suites:
            problems.extend(check_suite(data))
        return problems + exit_problems
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return exit_problems + [f"unreadable verify report: {exc!r}"]


# --- roundtrip ------------------------------------------------------------------

def check_doc_op(op: dict, record: dict) -> list[str]:
    if op["tamper"] is None:
        if "emitted" not in record:
            return [f"valid {op['label']} document refused: {record.get('error')}: "
                    f"{record.get('message', '')[:200]}"]
        if record["emitted"] != op["doc"]:
            return [f"{op['label']} re-emits to other bytes"]
        return []
    if "error" not in record:
        return [f"{op['tamper']} {op['label']} document accepted"]
    if record["error"] != op["expect"] or not record["domain"]:
        return [f"{op['tamper']}: raised {record['error']}, expected {op['expect']}"]
    if not any(names(record["message"], item) for item in op["names"]):
        return [f"{op['tamper']}: {record['message']!r} names none of {op['names']}"]
    return []


CHECKS = {"edges": check_edges_op, "verify": check_verify_op, "doc": check_doc_op}


def check(op: dict, record: dict) -> list[str]:
    return CHECKS[op["kind"]](op, record)
