"""Acceptance gate: nine numbered checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every assertion is exact integer or structural equality; the only
tolerances are the per-check wall clock budgets.
"""

import math
import random
import time
from contextlib import contextmanager

from group_box import box, inverse, sign
from suborbital import (
    FAMILY_INFINITY,
    FAMILY_ZERO,
    GraphSpec,
    ProjectiveRational,
    compare_edges_vs_orbital,
    count_blocks,
    dedekind_psi,
    emit_json,
    enumerate_graph,
    full_group,
    gamma0_pair,
    paired_partner,
    parse_json,
    phi_pair,
    transitivity_witness,
    verify_lattice_identity,
    verify_self_paired,
)

INFINITY_CONFIGS = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 5)]
ZERO_CONFIGS = [(1, 2), (2, 3), (2, 5), (3, 7)]
PAIRING_CONFIGS = [(5, 2), (7, 3), (8, 3)]
LATTICE_CONFIGS = [(2, 3), (2, 4), (4, 6)]


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"took {elapsed:.2f}s, budget {budget_seconds}s"
        )
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    print(f"[criterion {number}] PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_block_counts():
    with criterion(1, "block counts match the multiplicative formula", 5):
        for n in range(1, 31):
            assert count_blocks(n) == dedekind_psi(n)
        for l in range(1, 21):
            for m in range(1, 21):
                expected = dedekind_psi(l) + dedekind_psi(m)
                assert phi_pair(l, m) == expected
                assert count_blocks(l) + count_blocks(m) == expected


def test_criterion_2_infinity_family_soundness():
    with criterion(2, "orbit pairs of the infinity family graphs all pass "
                      "the edge test", 60):
        for u, l in INFINITY_CONFIGS:
            for m in sorted({1, 2, l}):
                spec = GraphSpec(family=FAMILY_INFINITY, u=u, modulus=l)
                report = compare_edges_vs_orbital(
                    enumerate_graph(spec, 30), gamma0_pair(l, m), entry_bound=20,
                )
                assert report.soundness_failures == ()
                if report.completeness_misses:
                    print(
                        f"  note: {spec.label()} under gamma0_pair({l}, {m}): "
                        f"{len(report.completeness_misses)} edge(s) beyond the "
                        f"entry bound, first {report.smallest_miss}"
                    )


def test_criterion_3_zero_family_soundness():
    with criterion(3, "orbit pairs of the zero family graphs all pass "
                      "the edge test", 60):
        for u, m in ZERO_CONFIGS:
            for l in (1, 2):
                spec = GraphSpec(family=FAMILY_ZERO, u=u, modulus=m)
                report = compare_edges_vs_orbital(
                    enumerate_graph(spec, 30), gamma0_pair(l, m), entry_bound=20,
                )
                assert report.soundness_failures == ()
                if report.completeness_misses:
                    print(
                        f"  note: {spec.label()} under gamma0_pair({l}, {m}): "
                        f"{len(report.completeness_misses)} edge(s) beyond the "
                        f"entry bound, first {report.smallest_miss}"
                    )


def test_criterion_4_self_paired_agreement():
    with criterion(4, "self-paired predicate agrees with bounded witness "
                      "search", 30):
        checked = 0
        for l in range(2, 11):
            for u in range(1, l):
                if math.gcd(u, l) != 1:
                    continue
                spec = GraphSpec(family=FAMILY_INFINITY, u=u, modulus=l)
                assert verify_self_paired(spec, entry_bound=4 * l).ok
                checked += 1
        assert checked == 31


def test_criterion_5_pairing_bijection():
    with criterion(5, "edge reversal is a bijection onto the paired partner "
                      "graph", 10):
        for m, u in PAIRING_CONFIGS:
            spec = GraphSpec(family=FAMILY_ZERO, u=u, modulus=m)
            partner = paired_partner(spec)
            graph = enumerate_graph(spec, 30)
            mirror = enumerate_graph(partner, 30)
            assert len(graph.edges) > 0
            signs = {(e.src, e.dst): sign(e) for e in mirror.edges}
            assert {(e.dst, e.src) for e in graph.edges} == set(signs)
            for e in graph.edges:
                assert signs[(e.dst, e.src)] == -sign(e)


def test_criterion_6_transitivity_witnesses():
    with criterion(6, "edges in a block are carried onto each other by "
                      "verified group elements", 60):
        spec = GraphSpec(family=FAMILY_INFINITY, u=1, modulus=2)
        group = gamma0_pair(2, 1)
        graph = enumerate_graph(spec, 7)
        assert len(graph.edges) == 44
        base_src, base_dst = spec.base_pair()

        carrier = {}
        for g in box(group, 40):
            carrier.setdefault((g.apply(base_src), g.apply(base_dst)), g)
        for e in graph.edges:
            assert (e.src, e.dst) in carrier

        for e1 in graph.edges:
            to_base = inverse(carrier[(e1.src, e1.dst)])
            for e2 in graph.edges:
                witness = carrier[(e2.src, e2.dst)] * to_base
                assert group.contains(witness)
                assert max(abs(x) for x in witness) <= 40
                assert witness.apply(e1.src) == e2.src
                assert witness.apply(e1.dst) == e2.dst

        base_edge = next(
            e for e in graph.edges if (e.src, e.dst) == (base_src, base_dst)
        )
        to_base = inverse(carrier[(base_src, base_dst)])
        for e2 in graph.edges:
            found = transitivity_witness(base_edge, e2, group)
            assert found == carrier[(e2.src, e2.dst)] * to_base


def test_criterion_7_lattice_identities():
    with criterion(7, "subgroup intersection and product identities hold on "
                      "scanned matrices", 30):
        for n1, n2 in LATTICE_CONFIGS:
            report = verify_lattice_identity(n1, n2, entry_bound=12)
            assert report.ok
            assert report.scanned > 0
            assert report.products_checked > 0


def test_criterion_8_action_laws():
    with criterion(8, "Mobius action respects composition and keeps "
                      "fractions reduced", 1):
        rng = random.Random(20260814)
        elements = box(full_group(), 50)
        assert len(elements) == 12378
        for i in range(1000):
            g = rng.choice(elements)
            h = rng.choice(elements)
            if i % 25 == 0:
                v = ProjectiveRational(1, 0)
            else:
                v = ProjectiveRational(rng.randint(-30, 30), rng.randint(1, 30))
            image = g.apply(h.apply(v))
            assert image == (g * h).apply(v)
            a, b, c, d = g
            assert math.gcd(a * v.num + b * v.den, c * v.num + d * v.den) == 1


def test_criterion_9_serialization_round_trip():
    with criterion(9, "serialized graphs round trip byte for byte", 5):
        specs = []
        for u, l in INFINITY_CONFIGS:
            specs.append(GraphSpec(family=FAMILY_INFINITY, u=u, modulus=l))
        for u, m in ZERO_CONFIGS:
            specs.append(GraphSpec(family=FAMILY_ZERO, u=u, modulus=m))
        for m, u in PAIRING_CONFIGS:
            base = GraphSpec(family=FAMILY_ZERO, u=u, modulus=m)
            specs.append(base)
            specs.append(paired_partner(base))
        for spec in specs:
            graph = enumerate_graph(spec, 30)
            text = emit_json(graph)
            parsed = parse_json(text)
            assert parsed == graph
            assert emit_json(parsed) == text
