"""Command line front end.

Commands: edges (emit a graph as json/dot/svg), verify (run the
brute-force check suites), psi, phi-pair, partner, selfpaired.  Each
command and each of its flags is declared once, in one table that also
names the verify suites reading each flag.  A run that names a command
builds that command's subparser only; help, a missing command or an
unknown one builds every command.

Exit codes: 0 success, 1 a checked mathematical property failed,
2 invalid arguments, 3 resource limit exceeded.  Payloads go to
standard output, diagnostics to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from .errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidSpec,
    SuborbitalError,
    refuse_above,
)
from .graph_io import check_svg_width, emit_dot, emit_json, emit_svg
from .graphs import (
    FAMILY_INFINITY,
    FAMILY_ZERO,
    GraphSpec,
    enumerate_graph,
    is_self_paired,
    paired_partner,
)
from .oracle import (
    BLOCKS_WORK_CEILING,
    SCAN_CEILING,
    check_entry_bound,
    compare_edges_vs_orbital,
    count_blocks,
    verify_lattice_identity,
    verify_self_paired,
)
from .group import SubgroupSpec, gamma0_pair
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


def cmd_edges(args: argparse.Namespace) -> int:
    spec = GraphSpec(args.family, args.u, args.mod, args.reversed)
    if args.format == "svg":
        check_svg_width(args.width)  # before the graph is walked
    # the graph goes straight to the writer, which frees it before its
    # final join; no edge object is built
    if args.format == "json":
        print(emit_json(enumerate_graph(spec, args.bound)))
    elif args.format == "dot":
        sys.stdout.write(emit_dot(enumerate_graph(spec, args.bound)))
    else:
        sys.stdout.write(emit_svg(enumerate_graph(spec, args.bound), args.width))
    return EXIT_OK


def _suite_blocks(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    limit = args.max if args.max is not None else 30
    if limit < 1:
        raise InvalidBound(f"--max must be >= 1, got {limit}")
    refuse_above(f"estimated residue pairs for --max {limit}",
                 limit * (limit + 1) * (2 * limit + 1) // 6, BLOCKS_WORK_CEILING)
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


def _single_config(args: argparse.Namespace, what: str) -> bool:
    """Whether any of the suite's single-configuration flags is set; once
    one is, InvalidSpec names all of them unless all are set."""
    flags = [flag for flag, suites in _VERIFY_FLAGS.items()
             if args.suite in suites and "all" not in suites]
    given = [getattr(args, flag) is not None for flag in flags]
    if any(given) and not all(given):
        names = [f"--{flag}" for flag in flags]
        need = ", ".join(names) if len(names) > 2 else "both " + " and ".join(names)
        raise InvalidSpec(f"a single {what} needs {need}")
    return any(given)


def _collect(suite: str, reports: list) -> tuple[bool, list[str], dict]:
    """(ok, text lines, JSON data) of one suite's reports."""
    ok = all(report.ok for report in reports)
    lines = [line for report in reports for line in report.text_lines()]
    data = [report.to_dict() for report in reports]
    return ok, lines, {"suite": suite, "reports": data, "ok": ok}


def _oracle_configs(args: argparse.Namespace) -> list[tuple[GraphSpec, SubgroupSpec]]:
    """(spec, group) of each oracle configuration, those of one spec
    consecutive."""
    if _single_config(args, "oracle configuration"):
        modulus = args.l if args.family == FAMILY_INFINITY else args.m
        spec = GraphSpec(family=args.family, u=args.u, modulus=modulus)
        return [(spec, gamma0_pair(args.l, args.m))]
    finf = [(GraphSpec(FAMILY_INFINITY, u, l), gamma0_pair(l, m))
            for u, l in ORACLE_INFINITY_CONFIGS for m in sorted({1, 2, l})]
    fzero = [(GraphSpec(FAMILY_ZERO, u, m), gamma0_pair(l, m))
             for u, m in ORACLE_ZERO_CONFIGS for l in (1, 2)]
    return finf + fzero


def _suite_oracle(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    configs = _oracle_configs(args)
    entry = args.entry_bound if args.entry_bound is not None else 20
    height = args.height_bound if args.height_bound is not None else 30
    check_entry_bound(entry)  # before any graph is walked
    reports, graph = [], None
    for spec, group in configs:
        if graph is None or graph.spec != spec:  # one walk per spec
            graph = enumerate_graph(spec, height)
        reports.append(compare_edges_vs_orbital(graph, group, entry))
    return _collect("oracle", reports)


def _suite_selfpaired(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    if _single_config(args, "selfpaired check"):
        configs = [(args.u, args.mod)]
    else:
        configs = [
            (u, l)
            for l in range(2, 11)
            for u in range(1, l)
            if math.gcd(u, l) == 1
        ]
    return _collect("selfpaired", [
        verify_self_paired(
            GraphSpec(family=FAMILY_INFINITY, u=u, modulus=modulus),
            args.entry_bound if args.entry_bound is not None
            else min(4 * modulus, SCAN_CEILING),
        )
        for u, modulus in configs
    ])


def _suite_pairing(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    height = args.height_bound if args.height_bound is not None else 30
    if _single_config(args, "pairing check"):
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
        # a spec and its partner walk the same vertex list, so an edge is
        # its position pair and reversal swaps the pair
        edges = {(i, j) for i, found in graph.heads for j in found}
        flipped = {(j, i) for i, found in mirror.heads for j in found}
        good = edges == flipped
        ok = ok and good
        lines.append(
            f"pairing {spec.label()} <-> {partner.label()} at height {height}: "
            f"{len(edges)} edges, reversal bijection "
            + ("ok" if good else "FAILED")
        )
        reports.append({
            "spec": spec.label(),
            "partner": partner.label(),
            "height_bound": height,
            "edges": len(edges),
            "partner_edges": len(flipped),
            "ok": good,
        })
    return ok, lines, {"suite": "pairing", "reports": reports, "ok": ok}


def _suite_lattice(args: argparse.Namespace) -> tuple[bool, list[str], dict]:
    entry = args.entry_bound if args.entry_bound is not None else 12
    if _single_config(args, "lattice check"):
        configs = [(args.n1, args.n2)]
    else:
        configs = list(LATTICE_CONFIGS)
    return _collect("lattice", [
        verify_lattice_identity(n1, n2, entry) for n1, n2 in configs
    ])


_SUITES = {
    "blocks": _suite_blocks,
    "oracle": _suite_oracle,
    "selfpaired": _suite_selfpaired,
    "pairing": _suite_pairing,
    "lattice": _suite_lattice,
}


def cmd_verify(args: argparse.Namespace) -> int:
    foreign = ", ".join("--" + flag.replace("_", "-")
                        for flag, suites in _VERIFY_FLAGS.items()
                        if getattr(args, flag) is not None and args.suite not in suites)
    if foreign and args.suite == "all":
        raise InvalidSpec("--suite all runs the built-in sweeps and takes no "
                          f"single-configuration flags, got {foreign}")
    if foreign:
        raise InvalidSpec(f"--suite {args.suite} does not read {foreign}")
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


# each command: (help, handler, arguments), and each argument in help
# order: (flag, argparse options, the verify suites that read it); a suite
# refuses the others, and --suite all reads only the bounds, which it
# passes to each suite that reads them
_COMMANDS = {
    "edges": ("enumerate one graph and emit it as json, dot, or svg", cmd_edges, (
        ("--family", dict(required=True, choices=(FAMILY_INFINITY, FAMILY_ZERO)), ()),
        ("--u", dict(type=int, required=True), ()),
        ("--mod", dict(type=int, required=True), ()),
        ("--bound", dict(type=int, required=True,
                         help="height bound for vertex enumeration"), ()),
        ("--format", dict(choices=("json", "dot", "svg"), default="json"), ()),
        ("--reversed", dict(action="store_true",
                            help="emit the reversed-orientation partner family"), ()),
        ("--width", dict(type=int, default=640,
                         help="svg width in pixels (64 to 100000)"), ()),
    )),
    "verify": ("run a brute-force verification suite", cmd_verify, (
        ("--suite", dict(required=True, choices=(*_SUITES, "all")), ()),
        ("--max", dict(type=int, help="blocks suite: largest modulus to test"),
         ("all", "blocks")),
        ("--family", dict(choices=(FAMILY_INFINITY, FAMILY_ZERO),
                          help="oracle suite: restrict to one configuration"),
         ("oracle",)),
        ("--u", dict(type=int), ("oracle", "selfpaired", "pairing")),
        ("--mod", dict(type=int), ("selfpaired", "pairing")),
        ("--l", dict(type=int, help="oracle suite: first group modulus"), ("oracle",)),
        ("--m", dict(type=int, help="oracle suite: second group modulus"), ("oracle",)),
        ("--n1", dict(type=int, help="lattice suite: first modulus"), ("lattice",)),
        ("--n2", dict(type=int, help="lattice suite: second modulus"), ("lattice",)),
        ("--entry-bound", dict(type=int), ("all", "oracle", "selfpaired", "lattice")),
        ("--height-bound", dict(type=int), ("all", "oracle", "pairing")),
        ("--json", dict(action="store_true",
                        help="emit the report as JSON instead of text"), ()),
    )),
    "psi": ("multiplicative block-count formula", cmd_psi, (
        ("n", dict(type=int), ()),
    )),
    "phi-pair": ("invariant-relation count for a modulus pair", cmd_phi_pair, (
        ("l", dict(type=int), ()),
        ("m", dict(type=int), ()),
    )),
    "partner": ("label of the edge-reversal partner graph", cmd_partner, (
        ("--u", dict(type=int, required=True), ()),
        ("--mod", dict(type=int, required=True), ()),
    )),
    "selfpaired": ("whether the graph contains its own reversed edges", cmd_selfpaired, (
        ("--u", dict(type=int, required=True), ()),
        ("--mod", dict(type=int, required=True), ()),
    )),
}

# verify's suite-scoped flags by dest, in the order messages name them:
# the single-configuration flags, then the bounds
_VERIFY_FLAGS = {
    flag.lstrip("-").replace("-", "_"): suites
    for flag, _, suites in sorted(_COMMANDS["verify"][2], key=lambda row: "all" in row[2])
    if suites
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser of the command argv[0] names, or of every command when
    it names none.

    A named run adds that one subparser, and its metavar lists every
    command, so the top-level usage line that "unrecognized arguments"
    prints is the whole tree's.  Without a named command the metavar stays
    unset: the errors for a missing or unknown command name the argument
    by its dest.
    """
    parser = argparse.ArgumentParser(
        prog="suborbital",
        description=(
            "Construct and verify the suborbital graphs of the"
            " two-parameter congruence subgroups of the modular group."
        ),
    )
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    metavar = "{" + ",".join(_COMMANDS) + "}" if named else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in (named,) if named else _COMMANDS:
        help_text, handler, arguments = _COMMANDS[name]
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(handler=handler)
        for flag, options, _ in arguments:
            command.add_argument(flag, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
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
