"""Command line front end.

Commands: edges (emit a graph as json/dot/svg), verify (run the
brute-force check suites), psi, phi-pair, partner, selfpaired.

Exit codes: 0 success, 1 a checked mathematical property failed,
2 invalid arguments, 3 resource limit exceeded.  Payloads go to
standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import BoundTooLarge, InvalidSpec, SuborbitalError
from .graph_io import emit_dot, emit_json, emit_svg
from .graphs import (
    FAMILY_INFINITY,
    FAMILY_ZERO,
    GraphSpec,
    enumerate_graph,
    is_self_paired,
    paired_partner,
)
from .oracle import (
    compare_edges_vs_orbital,
    count_blocks,
    verify_lattice_identity,
    verify_self_paired,
)
from .group import gamma0_pair
from .rational import dedekind_psi, phi_pair

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_RESOURCE = 3

ORACLE_INFINITY_CONFIGS = ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5))
ORACLE_ZERO_CONFIGS = ((1, 2), (2, 3), (2, 5), (3, 7))
PAIRING_CONFIGS = ((5, 2), (7, 3), (8, 3))
LATTICE_CONFIGS = ((2, 3), (2, 4), (4, 6))

# the blocks suite marks about n*n residue pairs for each modulus n <= --max;
# larger estimated totals are refused
BLOCKS_WORK_CEILING = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suborbital",
        description=(
            "Construct and verify the suborbital graphs of the"
            " two-parameter congruence subgroups of the modular group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_edges = sub.add_parser(
        "edges", help="enumerate one graph and emit it as json, dot, or svg"
    )
    p_edges.add_argument(
        "--family", required=True, choices=(FAMILY_INFINITY, FAMILY_ZERO)
    )
    p_edges.add_argument("--u", type=int, required=True)
    p_edges.add_argument("--mod", type=int, required=True)
    p_edges.add_argument("--bound", type=int, required=True,
                         help="height bound for vertex enumeration")
    p_edges.add_argument("--format", choices=("json", "dot", "svg"),
                         default="json")
    p_edges.add_argument("--reversed", action="store_true",
                         help="emit the reversed-orientation partner family")
    p_edges.add_argument("--width", type=int, default=640,
                         help="svg width in pixels (minimum 64)")
    p_edges.add_argument("--force", action="store_true",
                         help="allow height bounds above the safety ceiling")
    p_edges.set_defaults(handler=cmd_edges)

    p_verify = sub.add_parser(
        "verify", help="run a brute-force verification suite"
    )
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=("oracle", "blocks", "selfpaired", "pairing", "lattice", "all"),
    )
    p_verify.add_argument("--max", type=int, default=None,
                          help="blocks suite: largest modulus to test")
    p_verify.add_argument("--family",
                          choices=(FAMILY_INFINITY, FAMILY_ZERO),
                          default=None,
                          help="oracle suite: restrict to one configuration")
    p_verify.add_argument("--u", type=int, default=None)
    p_verify.add_argument("--mod", type=int, default=None)
    p_verify.add_argument("--l", type=int, default=None,
                          help="oracle suite: first group modulus")
    p_verify.add_argument("--m", type=int, default=None,
                          help="oracle suite: second group modulus")
    p_verify.add_argument("--n1", type=int, default=None,
                          help="lattice suite: first modulus")
    p_verify.add_argument("--n2", type=int, default=None,
                          help="lattice suite: second modulus")
    p_verify.add_argument("--entry-bound", type=int, default=None)
    p_verify.add_argument("--height-bound", type=int, default=None)
    p_verify.add_argument("--json", action="store_true",
                          help="emit the report as JSON instead of text")
    p_verify.set_defaults(handler=cmd_verify)

    p_psi = sub.add_parser("psi", help="multiplicative block-count formula")
    p_psi.add_argument("n", type=int)
    p_psi.set_defaults(handler=cmd_psi)

    p_phi = sub.add_parser(
        "phi-pair", help="invariant-relation count for a modulus pair"
    )
    p_phi.add_argument("l", type=int)
    p_phi.add_argument("m", type=int)
    p_phi.set_defaults(handler=cmd_phi_pair)

    p_partner = sub.add_parser(
        "partner", help="label of the edge-reversal partner graph"
    )
    p_partner.add_argument("--u", type=int, required=True)
    p_partner.add_argument("--mod", type=int, required=True)
    p_partner.set_defaults(handler=cmd_partner)

    p_self = sub.add_parser(
        "selfpaired", help="whether the graph contains its own reversed edges"
    )
    p_self.add_argument("--u", type=int, required=True)
    p_self.add_argument("--mod", type=int, required=True)
    p_self.set_defaults(handler=cmd_selfpaired)

    return parser


def cmd_edges(args: argparse.Namespace) -> int:
    spec = GraphSpec(
        family=args.family, u=args.u, modulus=args.mod, reversed=args.reversed
    )
    graph = enumerate_graph(spec, args.bound, force=args.force)
    if args.format == "json":
        print(emit_json(graph))
    elif args.format == "dot":
        sys.stdout.write(emit_dot(graph))
    else:
        sys.stdout.write(emit_svg(graph, args.width))
    return EXIT_OK


def _suite_blocks(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    limit = args.max if args.max is not None else 30
    work = limit * (limit + 1) * (2 * limit + 1) // 6
    if work > BLOCKS_WORK_CEILING:
        raise BoundTooLarge(
            f"blocks up to --max {limit} would mark about {work} residue pairs, "
            f"above the ceiling {BLOCKS_WORK_CEILING}"
        )
    pair_limit = min(limit, 20)
    table = {n: count_blocks(n) for n in range(1, limit + 1)}
    formula_bad = [n for n in range(1, limit + 1) if table[n] != dedekind_psi(n)]
    pair_bad = [
        (l, m)
        for l in range(1, pair_limit + 1)
        for m in range(1, pair_limit + 1)
        if phi_pair(l, m) != table[l] + table[m]
    ]
    ok = not formula_bad and not pair_bad
    lines = [
        f"blocks: count_blocks vs multiplicative formula for n <= {limit}: "
        + ("ok" if not formula_bad else f"MISMATCH at n = {formula_bad[0]}"),
        f"blocks: pair counts vs sum of block counts for l, m <= {pair_limit}: "
        + ("ok" if not pair_bad else f"MISMATCH at {pair_bad[0]}"),
    ]
    data = {
        "suite": "blocks",
        "max": limit,
        "formula_mismatches": formula_bad,
        "pair_mismatches": [list(p) for p in pair_bad],
        "ok": ok,
    }
    return ok, lines, data


def _oracle_configs(
    args: argparse.Namespace,
) -> list[tuple[GraphSpec, int, int, int, int]]:
    entry = args.entry_bound if args.entry_bound is not None else 20
    height = args.height_bound if args.height_bound is not None else 30
    if args.u is not None or args.family is not None:
        if args.family is None or args.u is None or args.l is None or args.m is None:
            raise InvalidSpec(
                "a single oracle configuration needs --family, --u, --l, --m"
            )
        modulus = args.l if args.family == FAMILY_INFINITY else args.m
        spec = GraphSpec(family=args.family, u=args.u, modulus=modulus)
        return [(spec, args.l, args.m, entry, height)]
    configs = []
    for u, l in ORACLE_INFINITY_CONFIGS:
        for m in sorted({1, 2, l}):
            spec = GraphSpec(family=FAMILY_INFINITY, u=u, modulus=l)
            configs.append((spec, l, m, entry, height))
    for u, m in ORACLE_ZERO_CONFIGS:
        for l in (1, 2):
            spec = GraphSpec(family=FAMILY_ZERO, u=u, modulus=m)
            configs.append((spec, l, m, entry, height))
    return configs


def _suite_oracle(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    ok = True
    lines: list[str] = []
    reports = []
    for spec, l, m, entry, height in _oracle_configs(args):
        report = compare_edges_vs_orbital(spec, gamma0_pair(l, m), entry, height)
        ok = ok and report.ok
        lines.extend(report.text_lines())
        reports.append(report.to_dict())
    return ok, lines, {"suite": "oracle", "reports": reports, "ok": ok}


def _suite_selfpaired(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    if args.u is not None or args.mod is not None:
        if args.u is None or args.mod is None:
            raise InvalidSpec("a single selfpaired check needs both --u and --mod")
        configs = [(args.u, args.mod)]
    else:
        configs = [
            (u, l)
            for l in range(2, 11)
            for u in range(1, l)
            if math.gcd(u, l) == 1
        ]
    ok = True
    lines = []
    reports = []
    for u, modulus in configs:
        spec = GraphSpec(family=FAMILY_INFINITY, u=u, modulus=modulus)
        entry = args.entry_bound if args.entry_bound is not None else 4 * modulus
        report = verify_self_paired(spec, entry)
        ok = ok and report.agrees
        lines.append(report.text_line())
        reports.append(report.to_dict())
    return ok, lines, {"suite": "selfpaired", "reports": reports, "ok": ok}


def _suite_pairing(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    height = args.height_bound if args.height_bound is not None else 30
    if args.u is not None or args.mod is not None:
        if args.u is None or args.mod is None:
            raise InvalidSpec("a single pairing check needs both --u and --mod")
        configs = [(args.mod, args.u)]
    else:
        configs = list(PAIRING_CONFIGS)
    ok = True
    lines = []
    reports = []
    for modulus, u in configs:
        spec = GraphSpec(family=FAMILY_ZERO, u=u, modulus=modulus)
        partner = paired_partner(spec)
        graph = enumerate_graph(spec, height)
        mirror = enumerate_graph(partner, height)
        flipped = {(e.dst, e.src) for e in graph.edges}
        partner_pairs = {(e.src, e.dst) for e in mirror.edges}
        good = flipped == partner_pairs
        ok = ok and good
        lines.append(
            f"pairing {spec.label()} <-> {partner.label()} at height {height}: "
            f"{len(graph.edges)} edges, reversal bijection "
            + ("ok" if good else "FAILED")
        )
        reports.append({
            "spec": spec.label(),
            "partner": partner.label(),
            "height_bound": height,
            "edges": len(graph.edges),
            "partner_edges": len(mirror.edges),
            "ok": good,
        })
    return ok, lines, {"suite": "pairing", "reports": reports, "ok": ok}


def _suite_lattice(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    entry = args.entry_bound if args.entry_bound is not None else 12
    if args.n1 is not None or args.n2 is not None:
        if args.n1 is None or args.n2 is None:
            raise InvalidSpec("a single lattice check needs both --n1 and --n2")
        configs = [(args.n1, args.n2)]
    else:
        configs = list(LATTICE_CONFIGS)
    ok = True
    lines = []
    reports = []
    for n1, n2 in configs:
        report = verify_lattice_identity(n1, n2, entry)
        ok = ok and report.ok
        lines.extend(report.text_lines())
        reports.append(report.to_dict())
    return ok, lines, {"suite": "lattice", "reports": reports, "ok": ok}


_SUITES = {
    "blocks": _suite_blocks,
    "oracle": _suite_oracle,
    "selfpaired": _suite_selfpaired,
    "pairing": _suite_pairing,
    "lattice": _suite_lattice,
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    lines: list[str] = []
    data = []
    for name in names:
        ok, suite_lines, suite_data = _SUITES[name](args)
        all_ok = all_ok and ok
        lines.extend(suite_lines)
        data.append(suite_data)
    if args.json:
        print(json.dumps(data, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
        print("result: " + ("ok" if all_ok else "FAILED"))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAILED


def cmd_psi(args: argparse.Namespace) -> int:
    print(dedekind_psi(args.n))
    return EXIT_OK


def cmd_phi_pair(args: argparse.Namespace) -> int:
    print(phi_pair(args.l, args.m))
    return EXIT_OK


def cmd_partner(args: argparse.Namespace) -> int:
    spec = GraphSpec(family=FAMILY_ZERO, u=args.u, modulus=args.mod)
    print(paired_partner(spec).label())
    return EXIT_OK


def cmd_selfpaired(args: argparse.Namespace) -> int:
    spec = GraphSpec(family=FAMILY_INFINITY, u=args.u, modulus=args.mod)
    print("true" if is_self_paired(spec) else "false")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BoundTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except SuborbitalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
