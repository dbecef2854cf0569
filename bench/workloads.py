"""Seeded operation lists for the three workloads.

Each workload is one pass: a fixed multiset of cost tiers.  Within a tier
the multisets of moduli and family kinds are fixed; the seed pairs them up
and picks units, formats, tamper kinds and positions, and the order.  Every
size knob is matched to the tier's target by the reference vertex or
product count, so the cost profile of a pass is nearly the same for every
seed.  The median and the tail both fall inside a tier rather than at a
tier boundary, so neither jumps when the seed reshuffles the mix.
"""

from __future__ import annotations

import json
import math
import random

import reference as ref

FAMILY_KINDS = (("finf", False), ("fzero", False), ("fzero", True))
MAX_BOUND = 200


def units(m: int) -> list[int]:
    return [1] if m == 1 else [u for u in range(1, m) if math.gcd(u, m) == 1]


def matched_bound(family: str, modulus: int, target: int, lo: int = 1, hi: int = MAX_BOUND) -> int:
    """Height bound in [lo, hi] whose block vertex count is nearest the target."""
    counts = ref.vertex_counts(family, modulus, MAX_BOUND)
    return min(range(lo, hi + 1), key=lambda b: (abs(counts[b] - target), b))


def spread(rng: random.Random, values, n: int) -> list:
    """n values cycling through all of `values`, each cycle in seeded order."""
    out: list = []
    while len(out) < n:
        out.extend(rng.sample(list(values), len(values)))
    return out[:n]


# --- build ------------------------------------------------------------------

# (tier, target vertex count, family kinds, moduli), one kind and one
# modulus per operation.  Each tier's multisets are the same for every seed;
# the seed pairs them up and picks the unit, the format and the order.
BUILD_TIERS = (
    ("small", 250, FAMILY_KINDS * 5 + (("fzero", False),), tuple(range(1, 9)) * 2),
    ("medium", 600, FAMILY_KINDS * 5 + (("fzero", True),), tuple(range(1, 9)) * 2),
    ("large", 900, FAMILY_KINDS * 5 + (("finf", False),), tuple(range(1, 9)) * 2),
    ("huge", 2000, (("finf", False), ("fzero", True)), (1, 2)),
)
BUILD_FORMATS = {"dot": 0.15, "svg": 0.15}  # the rest json


def edges_argv(family, u, modulus, reversed_, bound, fmt) -> list[str]:
    argv = ["edges", "--family", family, "--u", str(u), "--mod", str(modulus),
            "--bound", str(bound), "--format", fmt]
    return argv + ["--reversed"] if reversed_ else argv


def build_ops(rng: random.Random) -> list[dict]:
    ops = []
    for tier, target, kinds, moduli in BUILD_TIERS:
        n = len(moduli)
        kinds = rng.sample(kinds, n)
        counts = {fmt: round(share * n) for fmt, share in BUILD_FORMATS.items()}
        formats = sum(([fmt] * k for fmt, k in counts.items()), [])
        formats = rng.sample(formats + ["json"] * (n - len(formats)), n)
        for (family, reversed_), m, fmt in zip(kinds, moduli, formats):
            u = rng.choice(units(m))
            bound = matched_bound(family, m, target)
            ops.append({
                "kind": "edges", "tier": tier, "family": family, "u": u,
                "modulus": m, "reversed": reversed_, "bound": bound, "format": fmt,
                "argv": edges_argv(family, u, m, reversed_, bound, fmt),
            })
    rng.shuffle(ops)
    return ops


def build_warmup() -> dict:
    return {"kind": "edges", "argv": edges_argv("finf", 1, 2, False, 8, "json")}


# --- verify -----------------------------------------------------------------

SELFPAIRED_TRUE = ((1, 2), (2, 5), (3, 5))
SELFPAIRED_FALSE_MODULI = (6, 7, 8)
PAIRING_MODULI = (5, 7, 8)
# Pairs with a 2 or with gcd > 2 only: for the others (3, 4), (3, 5) and
# (4, 6) the suite reports intersection violations once the entry bound
# is large enough, so whether a seeded operation fails would depend on the
# seed.  That fault is kept in the mix by one seed-independent operation,
# (4, 6) at entry bound 28 (49,455 products), which fails every run.
LATTICE_PAIRS = ((2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 6), (3, 9), (4, 8))
LATTICE_FAULT = (4, 6, 28)
# Oracle slots (family, graph modulus, the group's other modulus): finf
# graphs against gamma0_pair(modulus, other), fzero graphs against
# gamma0_pair(other, modulus).  The seed picks the unit.
ORACLE_MEDIUM = (("finf", 2, 1), ("finf", 3, 3), ("finf", 4, 1), ("finf", 5, 2),
                 ("finf", 2, 2), ("fzero", 2, 2), ("fzero", 3, 1), ("fzero", 4, 2),
                 ("fzero", 5, 1), ("fzero", 3, 3))
ORACLE_LARGE = ORACLE_MEDIUM + (("finf", 3, 1), ("fzero", 2, 1), ("fzero", 4, 1))


def oracle_op(rng, tier, entry, target, family, modulus, other) -> dict:
    u = rng.choice(units(modulus))
    l, m = (modulus, other) if family == "finf" else (other, modulus)
    height = matched_bound(family, modulus, target, 20, 40)
    argv = ["verify", "--suite", "oracle", "--family", family, "--u", str(u),
            "--l", str(l), "--m", str(m), "--entry-bound", str(entry),
            "--height-bound", str(height), "--json"]
    return {"kind": "verify", "suite": "oracle", "tier": tier, "family": family,
            "u": u, "l": l, "m": m, "entry": entry, "height": height, "argv": argv}


def lattice_op(rng, tier, target_products) -> dict:
    """A lattice check whose entry bound puts its product count near the target."""
    def products(n1, n2, e):
        return (ref.member_count("principal", (n1,), e)
                * ref.member_count("gamma0", (n2,), e))

    while True:
        n1, n2 = rng.choice(LATTICE_PAIRS)
        entry = min(range(6, 31), key=lambda e: abs(products(n1, n2, e) - target_products))
        if abs(products(n1, n2, entry) - target_products) <= 0.08 * target_products:
            break
    argv = ["verify", "--suite", "lattice", "--n1", str(n1), "--n2", str(n2),
            "--entry-bound", str(entry), "--json"]
    return {"kind": "verify", "suite": "lattice", "tier": tier, "n1": n1,
            "n2": n2, "entry": entry, "argv": argv}


def lattice_fault_op() -> dict:
    n1, n2, entry = LATTICE_FAULT
    argv = ["verify", "--suite", "lattice", "--n1", str(n1), "--n2", str(n2),
            "--entry-bound", str(entry), "--json"]
    return {"kind": "verify", "suite": "lattice", "tier": "large", "n1": n1,
            "n2": n2, "entry": entry, "argv": argv, "known_fault": True}


def verify_ops(rng: random.Random) -> list[dict]:
    ops = [{"kind": "verify", "suite": "all", "tier": "all",
            "argv": ["verify", "--suite", "all", "--json"]}]
    # small tier, about 5-25 ms each: selfpaired, pairing, blocks
    false_pairs = [(rng.choice([u for u in units(m) if (u * u + 1) % m]), m)
                   for m in SELFPAIRED_FALSE_MODULI]
    for u, m in SELFPAIRED_TRUE + tuple(false_pairs):
        ops.append({"kind": "verify", "suite": "selfpaired", "tier": "small", "u": u,
                    "mod": m, "argv": ["verify", "--suite", "selfpaired", "--mod",
                                       str(m), "--u", str(u), "--json"]})
    for m in PAIRING_MODULI:
        u = rng.choice(units(m))
        height = matched_bound("fzero", m, 150, 10, 40)
        ops.append({"kind": "verify", "suite": "pairing", "tier": "small", "u": u,
                    "mod": m, "height": height,
                    "argv": ["verify", "--suite", "pairing", "--mod", str(m), "--u",
                             str(u), "--height-bound", str(height), "--json"]})
    for _ in range(3):
        top = rng.randrange(25, 36)
        ops.append({"kind": "verify", "suite": "blocks", "tier": "small", "max": top,
                    "argv": ["verify", "--suite", "blocks", "--max", str(top), "--json"]})
    # medium tier, about 40-70 ms each; large tier, about 100-200 ms each
    ops.extend(oracle_op(rng, "medium", 40, 250, *slot) for slot in ORACLE_MEDIUM)
    ops.extend(lattice_op(rng, "medium", 18000) for _ in range(3))
    ops.extend(oracle_op(rng, "large", 60, 350, *slot) for slot in ORACLE_LARGE)
    ops.append(lattice_op(rng, "large", 50000))
    ops.append(lattice_fault_op())
    rng.shuffle(ops)
    return ops


def verify_warmup() -> dict:
    return {"kind": "verify", "argv": ["verify", "--suite", "oracle", "--family", "finf",
                                       "--u", "1", "--l", "2", "--m", "1",
                                       "--entry-bound", "8", "--height-bound", "8", "--json"]}


# --- roundtrip --------------------------------------------------------------

CONTENT_TAMPERS = ("vertex_dropped", "edge_dropped", "extra_edge", "sign_flipped")
# (tier, target vertex count, moduli, moduli of the content-tampered
# documents); the other documents of a tier are valid.  Family kinds cycle
# over the tier; the seed picks which tamper each tampered document gets.
ROUNDTRIP_TIERS = (
    ("small", 100, (1, 2, 3, 4, 5, 6), (2, 5)),
    ("medium", 300, (1, 2, 3, 4) * 3, (1, 2, 3, 4)),
    ("large", 600, (1, 2) * 7, (1, 2)),
)
STRUCTURAL = 3  # each of unknown_key and foreign_version per pass
# Seed-independent documents with two adjacent entries swapped: parse_json
# refuses them without naming an entry, so they fail every run.
SWAPPED = (
    ("finf", 1, 3, False, 16, "vertices", 5),
    ("fzero", 2, 3, False, 16, "edges", 3),
)


def dumps(document: dict) -> str:
    return json.dumps(document, separators=(",", ":"))


def doc_op(graph: ref.Graph, tier: str, tamper: str | None, rng: random.Random | None) -> dict:
    document = graph.document()
    expect, names = None, []
    if tamper == "vertex_dropped":
        names = [document["vertices"].pop(rng.randrange(len(document["vertices"])))]
        expect = "InvariantViolation"
    elif tamper == "edge_dropped":
        e = document["edges"].pop(rng.randrange(len(document["edges"])))
        names, expect = [f"{e['src']} -> {e['dst']}"], "InvariantViolation"
    elif tamper == "sign_flipped":
        e = document["edges"][rng.randrange(len(document["edges"]))]
        e["sign"] = "-" if e["sign"] == "+" else "+"
        names, expect = [f"{e['src']} -> {e['dst']}"], "InvariantViolation"
    elif tamper == "extra_edge":
        present = set(graph.edges)
        while True:
            v, w = rng.sample(graph.vertices, 2)
            if (v, w) not in present:
                break
        pairs = sorted(graph.edges + [(v, w)], key=lambda e: e[0] + e[1])
        document["edges"] = [
            {"src": ref.text(a), "dst": ref.text(b), "sign": ref.sign_mark(a, b)}
            for a, b in pairs
        ]
        names, expect = [f"{ref.text(v)} -> {ref.text(w)}"], "InvariantViolation"
    elif tamper == "unknown_key":
        key = rng.choice(("comment", "weight", "labels", "origin"))
        document[key] = "x"
        names, expect = [key], "MalformedDocument"
    elif tamper == "foreign_version":
        version = rng.choice(("0", "2", "1.1"))
        document["format_version"] = version
        names, expect = [version], "VersionMismatch"
    return {"kind": "doc", "tier": tier, "label": graph.label(), "bound": graph.bound,
            "tamper": tamper, "expect": expect, "names": names, "doc": dumps(document)}


def swapped_op(family, u, modulus, reversed_, bound, field, i) -> dict:
    graph = ref.graph(family, u, modulus, reversed_, bound)
    document = graph.document()
    items = document[field]
    items[i], items[i + 1] = items[i + 1], items[i]
    shown = [x if isinstance(x, str) else f"{x['src']} -> {x['dst']}" for x in items[i:i + 2]]
    return {"kind": "doc", "tier": "small", "label": graph.label(), "bound": bound,
            "tamper": "entries_swapped", "expect": "InvariantViolation", "names": shown,
            "known_fault": True, "doc": dumps(document)}


def roundtrip_ops(rng: random.Random) -> list[dict]:
    ops = [swapped_op(*spec) for spec in SWAPPED]
    content = spread(rng, CONTENT_TAMPERS, sum(len(t[3]) for t in ROUNDTRIP_TIERS))
    structural = ["unknown_key", "foreign_version"] * STRUCTURAL
    for tier, target, moduli, tampered in ROUNDTRIP_TIERS:
        tampered = list(tampered)
        kinds = spread(rng, FAMILY_KINDS, len(moduli))
        for m, (family, reversed_) in zip(moduli, kinds):
            tamper = None
            if m in tampered:
                tampered.remove(m)
                tamper = content.pop()
            bound = matched_bound(family, m, target, 10, 40)
            graph = ref.graph(family, rng.choice(units(m)), m, reversed_, bound)
            ops.append(doc_op(graph, tier, tamper, rng))
    for tamper in structural:
        family, reversed_ = rng.choice(FAMILY_KINDS)
        m = rng.randrange(1, 7)
        graph = ref.graph(family, rng.choice(units(m)), m, reversed_,
                          matched_bound(family, m, 100, 10, 40))
        ops.append(doc_op(graph, "tiny", tamper, rng))
    rng.shuffle(ops)
    return ops


def roundtrip_warmup() -> dict:
    return {"kind": "doc", "doc": dumps(ref.graph("finf", 1, 2, False, 6).document())}


WORKLOADS = {
    "build": (build_ops, build_warmup),
    "verify": (verify_ops, verify_warmup),
    "roundtrip": (roundtrip_ops, roundtrip_warmup),
}


def make(workload: str, seed: int) -> tuple[list[dict], dict]:
    """The seeded operation list of one pass and the fixed warm-up operation."""
    ops_fn, warmup_fn = WORKLOADS[workload]
    return ops_fn(random.Random(f"{workload}:{seed}")), warmup_fn()
