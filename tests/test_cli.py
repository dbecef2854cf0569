"""Tests for the command line interface.

Commands run in-process through main(argv); one test drives the
installed console script end to end.
"""

import argparse
import collections
import hashlib
import itertools
import json
import subprocess
import sys

import pytest

import suborbital.cli as cli_module
import suborbital.graph_io as graph_io_module
import suborbital.graphs as graphs_module
import suborbital.oracle as oracle_module
from suborbital.cli import build_parser, main
from suborbital.group import UnimodularMatrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEdgesCommand:
    def test_dot_output(self, capsys):
        code, out, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "4", "--format", "dot",
        )
        assert code == 0
        assert out.startswith('digraph "F[1, 2]" {')
        assert out.count("->") == 16
        assert err == ""

    def test_json_output_contains_base_edge(self, capsys):
        code, out, _ = run(
            capsys, "edges", "--family", "fzero", "--u", "2", "--mod", "3",
            "--bound", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert {"src": "0/1", "dst": "3/2", "sign": "-"} in doc["edges"]

    def test_svg_output(self, capsys):
        code, out, _ = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "4", "--format", "svg", "--width", "320",
        )
        assert code == 0
        assert out.startswith("<?xml")
        assert out.count("<path ") == 16

    def test_non_coprime_is_invalid_arguments(self, capsys):
        code, out, err = run(
            capsys, "edges", "--family", "finf", "--u", "2", "--mod", "4",
            "--bound", "4",
        )
        assert code == 2
        assert out == ""
        assert "coprime" in err

    def test_u_too_large_is_invalid_arguments(self, capsys):
        code, _, _ = run(
            capsys, "edges", "--family", "finf", "--u", "5", "--mod", "3",
            "--bound", "4",
        )
        assert code == 2

    @pytest.mark.parametrize("family", ["finf", "fzero"])
    def test_unit_above_one_at_modulus_one_is_invalid_arguments(self, capsys, family):
        code, out, err = run(
            capsys, "edges", "--family", family, "--u", "5", "--mod", "1",
            "--bound", "4",
        )
        assert (code, out) == (2, "")
        assert "u must be 1 at modulus 1, got 5" in err

    def test_narrow_svg_is_invalid_arguments(self, capsys):
        code, _, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "4", "--format", "svg", "--width", "32",
        )
        assert code == 2
        assert "64" in err

    def test_huge_bound_is_resource_limit(self, capsys):
        code, _, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "20000",
        )
        assert code == 3
        assert "ceiling" in err

    def test_huge_bound_refused_from_the_estimate(self, capsys, monkeypatch):
        # no vertex is generated: the work estimate alone refuses
        monkeypatch.setattr(graphs_module, "_block_vertices", None)
        code, out, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "10000",
        )
        assert code == 3
        assert out == ""
        # 100005002 vertices plus 2400140001 lattice lookups
        assert "2500145003" in err

    def test_estimate_too_long_to_print_is_refused(self, capsys):
        code, out, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "1",
            "--bound", str(10**2000),
        )
        assert code == 3
        assert out == ""
        assert "more than 2**" in err

    def test_huge_svg_width_is_resource_limit(self, capsys):
        code, out, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "4", "--format", "svg", "--width", str(10**400),
        )
        assert code == 3
        assert out == ""
        assert "ceiling 100000" in err

    @pytest.mark.parametrize("width, code", [("10", 2), ("200000", 3)])
    def test_svg_width_refused_before_enumerating(
        self, capsys, monkeypatch, width, code
    ):
        monkeypatch.setattr(graphs_module, "_block_vertices", None)
        got, out, err = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "4", "--format", "svg", "--width", width,
        )
        assert (got, out) == (code, "")
        assert "width" in err

    def test_reversed_only_for_zero_family(self, capsys):
        code, _, _ = run(
            capsys, "edges", "--family", "finf", "--u", "1", "--mod", "2",
            "--bound", "4", "--reversed",
        )
        assert code == 2
        code, out, _ = run(
            capsys, "edges", "--family", "fzero", "--u", "3", "--mod", "5",
            "--bound", "4", "--format", "dot", "--reversed",
        )
        assert code == 0
        assert out.startswith('digraph "F[-5, 3]" {')

    @pytest.mark.parametrize("fmt", ["json", "dot", "svg"])
    @pytest.mark.parametrize("family, u, mod, reversed_", [
        ("finf", 2, 5, False), ("fzero", 3, 7, False), ("fzero", 3, 7, True),
    ])
    def test_edges_never_materializes_a_graph(
        self, capsys, monkeypatch, family, u, mod, reversed_, fmt
    ):
        graph = graphs_module.enumerate_graph(
            graphs_module.GraphSpec(family, u, mod, reversed_), 14)
        want = {
            "json": lambda: graph_io_module.emit_json(graph) + "\n",
            "dot": lambda: graph_io_module.emit_dot(graph),
            "svg": lambda: graph_io_module.emit_svg(graph, 640),
        }[fmt]()

        def materialized(graph):
            raise AssertionError("edges built the graph's edge objects")

        monkeypatch.setattr(graphs_module.SuborbitalGraph, "edges", property(materialized))
        argv = ["edges", "--family", family, "--u", str(u), "--mod", str(mod),
                "--bound", "14", "--format", fmt]
        assert run(capsys, *argv + ["--reversed"] * reversed_) == (0, want, "")

    def test_byte_identical_reruns(self, capsys):
        argv = ("edges", "--family", "finf", "--u", "2", "--mod", "5",
                "--bound", "8", "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestVerifyCommand:
    def test_blocks_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "blocks", "--max", "20")
        assert code == 0
        assert "ok" in out

    def test_blocks_max_has_work_ceiling(self, capsys, monkeypatch):
        # the refusal comes from the estimate alone: no block is counted
        monkeypatch.setattr(cli_module, "count_blocks", None)
        for argv in (("--suite", "blocks"), ("--suite", "all")):
            code, out, err = run(capsys, "verify", *argv, "--max", "1000000")
            assert code == 3
            assert out == ""
            # sum of n*n over n <= 10**6
            assert "333333833333500000" in err
        monkeypatch.undo()
        for limit in ("30", "35"):
            assert run(capsys, "verify", "--suite", "blocks", "--max", limit)[0] == 0

    def test_blocks_max_below_one_is_refused_before_any_work(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli_module, "count_blocks", None)
        monkeypatch.setattr(cli_module, "compare_edges_vs_orbital", None)
        for argv in (
            ("--suite", "blocks", "--max", "0"),
            ("--suite", "blocks", "--max", "-7"),
            ("--suite", "all", "--max", "-1"),
            ("--suite", "blocks", "--max", "0", "--json"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert (code, out) == (2, "")
            assert "--max must be >= 1" in err
        monkeypatch.undo()
        assert run(capsys, "verify", "--suite", "blocks", "--max", "1")[0] == 0

    @staticmethod
    def count_products(monkeypatch):
        formed = [0]
        multiply = UnimodularMatrix.__mul__

        def counted(p, q):
            formed[0] += 1
            return multiply(p, q)

        monkeypatch.setattr(UnimodularMatrix, "__mul__", counted)
        return formed

    def test_lattice_has_work_ceiling(self, capsys, monkeypatch):
        # a passing check lists nothing, so only its scans are priced: the
        # products of 17626 scanned members on each side are decided by
        # the one product of the single pair of residue classes mod 1
        formed = self.count_products(monkeypatch)
        code, out, err = run(
            capsys, "verify", "--suite", "lattice", "--n1", "1", "--n2", "1",
            "--entry-bound", "60",
        )
        assert (code, err) == (0, "")
        assert "inside gamma0(1) on 310675876 products: ok" in out
        assert formed == [1]

    def test_lattice_listing_of_failing_pairs_has_work_ceiling(
        self, capsys, monkeypatch
    ):
        # with gamma0(3) as the join, the full group's products with
        # gamma0(3) fail; each failing pair of classes mod 3 is listed by
        # one product, and no more products are formed than there are pairs
        real_gamma0 = oracle_module.gamma0
        monkeypatch.setattr(oracle_module, "gamma0", lambda n: real_gamma0(3))
        formed = self.count_products(monkeypatch)
        code, out, err = run(
            capsys, "verify", "--suite", "lattice", "--n1", "1", "--n2", "1",
            "--entry-bound", "6",
        )
        assert (code, err) == (1, "")
        # 186 members times gamma0(3)'s 47; a pair fails exactly when its
        # full-group class lies outside gamma0(3), on 18 of the 24 classes
        assert "on 8742 products: 108 violation(s)" in out
        # the 24 classes of the full group's scan times the 6 of gamma0(3)'s
        assert formed[0] <= 24 * 6

    def test_selfpaired_single(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "7", "--u", "2",
        )
        assert code == 0
        assert "not self-paired, no witness" in out

    def test_selfpaired_bound_below_the_witness_is_refused(self, capsys):
        # the only exchanging element of (1/0, 1/1) is [[1, -2], [1, -1]]
        code, out, err = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "1", "--u", "1",
            "--entry-bound", "1",
        )
        assert (code, out) == (2, "")
        assert "needs entry bound 2" in err
        code, out, _ = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "1", "--u", "1",
            "--entry-bound", "2",
        )
        assert code == 0
        assert "witness [[1, -2], [1, -1]] -- agreement" in out

    def test_selfpaired_missed_witness_is_a_failure(self, capsys, monkeypatch):
        # the bound reaches the witness, but the search is made to miss it
        monkeypatch.setattr(
            oracle_module, "transitivity_witness", lambda *args: None
        )
        code, out, _ = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "1", "--u", "1",
            "--entry-bound", "2",
        )
        assert code == 1
        assert "DISAGREEMENT" in out

    def test_selfpaired_default_bound_stops_at_the_scan_ceiling(self, capsys):
        # an unset bound is 4 * mod capped at SCAN_CEILING = 60, so it is
        # never refused; a bound the user gives above the ceiling still is
        single = ("verify", "--suite", "selfpaired", "--u")
        assert run(capsys, *single, "4", "--mod", "17") == (0, (
            "F[4, 17] (entries <= 60): self-paired, witness [[4, -1], [17, -4]]"
            " -- agreement\nresult: ok\n"), "")
        assert run(capsys, *single, "1", "--mod", "16") == (0, (
            "F[1, 16] (entries <= 60): not self-paired, no witness"
            " -- agreement\nresult: ok\n"), "")
        assert run(capsys, *single, "4", "--mod", "17", "--entry-bound", "61") == (
            3, "", "error: the entry bound is 61, above the ceiling 60\n")

    def test_lattice_zero_bound_is_invalid_arguments(self, capsys):
        code, _, _ = run(
            capsys, "verify", "--suite", "lattice", "--n1", "2", "--n2", "3",
            "--entry-bound", "0",
        )
        assert code == 2

    def test_lattice_single(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "lattice", "--n1", "2", "--n2", "3",
            "--entry-bound", "8",
        )
        assert code == 0
        assert "principal(6)" in out

    def test_oracle_single_config(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "oracle", "--family", "finf",
            "--u", "1", "--l", "2", "--m", "1",
            "--entry-bound", "10", "--height-bound", "10",
        )
        assert code == 0
        assert "soundness ok" in out

    def test_oracle_partial_flags_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "oracle", "--family", "finf")
        assert code == 2
        assert "--family" in err

    @pytest.mark.parametrize("flags", [
        ("--l", "2", "--m", "2"),
        ("--m", "1"),
        ("--u", "1", "--l", "2", "--m", "1"),
    ])
    def test_oracle_partial_flags_without_family_rejected(self, capsys, flags):
        code, out, err = run(capsys, "verify", "--suite", "oracle", *flags)
        assert code == 2
        assert out == ""
        assert "needs --family, --u, --l, --m" in err

    @pytest.mark.parametrize("flags, named", [
        (("--family", "finf", "--u", "1", "--l", "2", "--m", "1"),
         "--family, --u, --l, --m"),
        (("--u", "1", "--mod", "2"), "--u, --mod"),
        (("--n1", "2", "--n2", "3"), "--n1, --n2"),
        (("--family", "finf", "--u", "1", "--l", "2", "--m", "1", "--mod", "2",
          "--n1", "2", "--n2", "3"), "--family, --u, --mod, --l, --m, --n1, --n2"),
    ])
    def test_all_takes_no_single_configuration_flags(
        self, capsys, monkeypatch, flags, named
    ):
        # refused before any suite runs
        monkeypatch.setattr(cli_module, "_SUITES", {})
        code, out, err = run(capsys, "verify", "--suite", "all", *flags)
        assert (code, out) == (2, "")
        assert f"takes no single-configuration flags, got {named}" in err

    @pytest.mark.parametrize("suite, flags, named", [
        ("blocks", ("--max", "3", "--u", "3", "--n1", "4"), "--u, --n1"),
        ("oracle", ("--family", "finf", "--u", "1", "--l", "2", "--m", "1",
                    "--mod", "2"), "--mod"),
        ("oracle", ("--family", "finf", "--u", "1", "--l", "2", "--m", "1",
                    "--max", "3", "--mod", "2"), "--mod, --max"),
        ("selfpaired", ("--u", "1", "--mod", "2", "--l", "5"), "--l"),
        ("pairing", ("--mod", "5", "--u", "2", "--n2", "3"), "--n2"),
        ("lattice", ("--n1", "2", "--n2", "3", "--family", "finf"), "--family"),
    ])
    def test_single_suite_refuses_flags_it_does_not_read(
        self, capsys, monkeypatch, suite, flags, named
    ):
        # refused before the suite runs, naming only the foreign flags
        monkeypatch.setattr(cli_module, "_SUITES", {})
        code, out, err = run(capsys, "verify", "--suite", suite, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: --suite {suite} does not read {named}\n"

    @pytest.mark.parametrize("suite, flags, named", [
        ("blocks", ("--max", "2", "--entry-bound", "7", "--height-bound", "3"),
         "--entry-bound, --height-bound"),
        ("oracle", ("--max", "3", "--entry-bound", "8"), "--max"),
        ("selfpaired", ("--mod", "5", "--u", "2", "--height-bound", "4"),
         "--height-bound"),
        ("pairing", ("--height-bound", "8", "--entry-bound", "4", "--max", "2"),
         "--max, --entry-bound"),
        ("lattice", ("--entry-bound", "8", "--height-bound", "5"), "--height-bound"),
    ])
    def test_single_suite_refuses_bounds_it_does_not_read(
        self, capsys, monkeypatch, suite, flags, named
    ):
        # a bound the suite would ignore is refused before the suite runs;
        # the bounds it does read are accepted alongside
        monkeypatch.setattr(cli_module, "_SUITES", {})
        code, out, err = run(capsys, "verify", "--suite", suite, *flags)
        assert (code, out) == (2, "")
        assert err == f"error: --suite {suite} does not read {named}\n"

    def test_all_runs_the_five_sweeps(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "all", "--json",
            "--entry-bound", "12", "--height-bound", "10", "--max", "5",
        )
        assert code == 0
        data = json.loads(out)
        assert [d["suite"] for d in data] == [
            "blocks", "oracle", "selfpaired", "pairing", "lattice"
        ]
        assert all(d["ok"] for d in data)
        assert data[0]["max"] == 5
        oracle = data[1]["reports"]
        assert len(oracle) == 22
        assert {(r["entry_bound"], r["height_bound"]) for r in oracle} == {(12, 10)}

    def test_pairing_single(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "pairing", "--mod", "5", "--u", "2",
            "--height-bound", "12",
        )
        assert code == 0
        assert "F[-5, 3]" in out and "bijection ok" in out

    @pytest.mark.parametrize("dropped_from", ["spec", "partner"])
    def test_pairing_fails_on_a_dropped_head(self, capsys, monkeypatch, dropped_from):
        enumerate_graph = cli_module.enumerate_graph

        def dropping(spec, height_bound):
            graph = enumerate_graph(spec, height_bound)
            if spec.reversed != (dropped_from == "partner"):
                return graph
            (i, found), *rest = graph.heads
            return graph._replace(heads=((i, found[1:]), *rest))

        monkeypatch.setattr(cli_module, "enumerate_graph", dropping)
        argv = ("verify", "--suite", "pairing", "--mod", "5", "--u", "2",
                "--height-bound", "12")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "reversal bijection FAILED" in out
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        assert json.loads(out)[0]["ok"] is False

    def test_selfpaired_sweep_default(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "selfpaired")
        assert code == 0
        assert out.count("agreement") >= 30

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "blocks", "--max", "10", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data[0]["suite"] == "blocks"
        assert data[0]["ok"] is True

    def test_lowered_scan_ceiling_gives_resource_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle_module, "SCAN_CEILING", 10)
        code, _, err = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "7", "--u", "2",
            "--entry-bound", "60",
        )
        assert code == 3
        assert "ceiling" in err

    def test_oracle_height_refused_before_the_group_scan(
        self, capsys, monkeypatch
    ):
        def no_scan(*args):
            raise AssertionError("the group was scanned")

        monkeypatch.setattr(oracle_module, "enumerate_group", no_scan)
        monkeypatch.setattr(oracle_module, "_members", no_scan)
        monkeypatch.setattr(oracle_module, "_member_rows", no_scan)
        flags = ("verify", "--suite", "oracle", "--family", "finf", "--u", "1",
                 "--l", "2", "--m", "1", "--height-bound", "100000")
        code, out, err = run(capsys, *flags, "--entry-bound", "60")
        assert (code, out) == (3, "")
        assert "lattice lookups to height 100000" in err
        # the entry bound is still checked first
        code, out, err = run(capsys, *flags, "--entry-bound", "61")
        assert (code, out) == (3, "")
        assert "the entry bound is 61" in err

    def test_byte_identical_reruns(self, capsys):
        argv = ("verify", "--suite", "pairing", "--height-bound", "10")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestSmallCommands:
    def test_psi(self, capsys):
        assert run(capsys, "psi", "12") == (0, "24\n", "")
        code, _, _ = run(capsys, "psi", "0")
        assert code == 2

    def test_phi_pair(self, capsys):
        assert run(capsys, "phi-pair", "2", "3") == (0, "7\n", "")

    def test_trial_division_ceiling(self, capsys):
        for argv in (("psi", str(10**40)), ("phi-pair", "1", str(10**40))):
            code, out, err = run(capsys, *argv)
            assert code == 3
            assert out == ""
            # isqrt(10**40)
            assert "100000000000000000000," in err

    def test_partner(self, capsys):
        assert run(capsys, "partner", "--u", "3", "--mod", "7") == (0, "F[-7, 5]\n", "")
        code, _, _ = run(capsys, "partner", "--u", "2", "--mod", "4")
        assert code == 2

    def test_selfpaired(self, capsys):
        assert run(capsys, "selfpaired", "--u", "1", "--mod", "2") == (0, "true\n", "")
        assert run(capsys, "selfpaired", "--u", "2", "--mod", "7") == (0, "false\n", "")

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "suborbital.cli", "phi-pair", "2", "3"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "7\n"


def _contract_cases():
    """(argv, option) for every int option of every subcommand at +-10**400.

    The other int options get their default, or 1 when they have none,
    and every combination of the choice options is run.
    """
    commands = next(
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    for name, sub in commands.choices.items():
        actions = [a for a in sub._actions if a.dest != "help"]
        ints = [a for a in actions if a.type is int]
        picks = [a for a in actions if a.choices]
        small = {a: a.default if isinstance(a.default, int) else 1 for a in ints}
        for chosen in itertools.product(*(a.choices for a in picks)):
            for target, extreme in itertools.product(ints, (10**400, -(10**400))):
                values = {**dict(zip(picks, chosen)), **small, target: extreme}
                argv = [name]
                for action, value in values.items():
                    argv += action.option_strings[:1] + [str(value)]
                yield argv, "/".join(target.option_strings) or target.dest


# per command: a valid run, the run without a required argument, a bad
# choice (None when the command has no choices) and a non-integer
SCOPED_RUNS = {
    "edges": (("--family", "finf", "--u", "1", "--mod", "2", "--bound", "4"),
              ("--family", "finf", "--u", "1", "--mod", "2"),
              ("--family", "finf", "--u", "1", "--mod", "2", "--bound", "4",
               "--format", "png"),
              ("--family", "finf", "--u", "one", "--mod", "2", "--bound", "4")),
    "verify": (("--suite", "blocks", "--max", "3"), ("--max", "3"),
               ("--suite", "every"), ("--suite", "blocks", "--max", "3.5")),
    "psi": (("12",), (), None, ("twelve",)),
    "phi-pair": (("2", "3"), ("2",), None, ("2", "x")),
    "partner": (("--u", "3", "--mod", "7"), ("--u", "3"), None,
                ("--u", "3", "--mod", "0x7")),
    "selfpaired": (("--u", "1", "--mod", "2"), ("--mod", "2"), None,
                   ("--u", "", "--mod", "2")),
}


def _scoped_argvs():
    for name, (valid, missing, choice, non_int) in SCOPED_RUNS.items():
        for args in (valid, missing, choice, non_int, ("-h",),
                     (*valid, "--bogus", "1"), (*valid, "7")):
            if args is not None:
                yield [name, *args]
    # the last two print the top-level usage, which lists every command
    yield from ([], ["-h"], ["-h", "edges"], ["--", "psi", "3"], ["bogus"],
                ["psi", "3", "4"], ["edges", *SCOPED_RUNS["edges"][0], "edges"])


class TestArgvScopedParser:
    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_runs_as_the_whole_tree(self, capsys, monkeypatch):
        argvs = list(_scoped_argvs())
        scoped = [self.outcome(capsys, argv) for argv in argvs]
        whole = build_parser
        monkeypatch.setattr(cli_module, "build_parser", lambda argv=(): whole())
        for argv, got in zip(argvs, scoped):
            assert got == self.outcome(capsys, argv), argv
        assert {code for code, _, _ in scoped} == {0, 2}

    def test_a_named_command_builds_its_subparser_alone(self):
        for name, (help_text, _, arguments) in cli_module._COMMANDS.items():
            parser = build_parser([name, *SCOPED_RUNS[name][0]])
            commands = next(
                a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
            )
            assert list(commands.choices) == [name]
            assert [a.help for a in commands._choices_actions] == [help_text]
            held = [a.option_strings or [a.dest] for a in commands.choices[name]._actions]
            assert held == [["-h", "--help"], *([flag] for flag, _, _ in arguments)]


class TestExitCodeContract:
    def test_extreme_int_options_keep_the_exit_codes(self, capsys):
        failures = []
        cases = list(_contract_cases())
        for argv, option in cases:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = f"uncaught {type(exc).__name__}"
            err = capsys.readouterr().err
            if code not in (0, 1, 2, 3) or "Traceback" in err:
                failures.append((argv[0], option, code))
        assert len(cases) > 100
        assert failures == []


# sha256 over (exit code, stdout, stderr) of `verify --suite lattice` for
# every n1, n2 <= 9 at each entry bound in LATTICE_BOUNDS, text then
# --json, and of `verify --suite all --json`.  Every configuration that
# ran when every product was formed and tested one by one prints what it
# printed then; the 14 that a ceiling on len(left) * len(right) refused
# then all have gcd(n1, n2) = 1, so their join is the full group and
# they pass.
LATTICE_BOUNDS = (1, 5, 12, 20, 28)
LATTICE_SHA256 = {
    "text": "a330db3743f47ada02c62c2e49591a9e650226102ae00e885d4703f5b785ddb7",
    "json": "2679747087fdc9dccc2bec3b67d8080f0c3b308ea684a656a23e2b9a5633607d",
    "all": "b4a9bca4d0dea87d146d415dcfbd8db6fcdfcb8c70b2ddfe0bc5930eb5ac42dc",
}


# sha256 over (exit code, stdout, stderr) at the largest bounds the verify
# benchmark reaches: the 22 default oracle configurations at entry bound
# 60 and height bound 40, and lattice(4, 6) at entry bound 28, which fails
# on its intersection violations.  Written when the oracle still scanned
# its sample as sorted matrices.
BENCH_BOUNDS_SHA256 = [
    (("verify", "--suite", "oracle", "--json", "--entry-bound", "60",
      "--height-bound", "40"),
     0, "bc58e6a02eac2b2ccd37901e67fffe03aace336c25bb6ac2efb32f172ee613ab"),
    (("verify", "--suite", "lattice", "--n1", "4", "--n2", "6",
      "--entry-bound", "28", "--json"),
     1, "c3cb2702f90b456fcb99e994824449ddd30a25b3b98cd10fb477e89f5e8c6299"),
]


class TestLatticeOutputs:
    @staticmethod
    def digest(capsys, *argvs):
        h = hashlib.sha256()
        codes = collections.Counter()
        for argv in argvs:
            code, out, err = run(capsys, *argv)
            codes[code] += 1
            h.update(f"{code}\n{out}{err}".encode())
        return h.hexdigest(), codes

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_lattice_sweep_is_byte_identical(self, capsys, fmt):
        flags = ["--json"] if fmt == "json" else []
        digest, codes = self.digest(capsys, *(
            ["verify", "--suite", "lattice", "--n1", str(n1), "--n2", str(n2),
             "--entry-bound", str(bound), *flags]
            for bound in LATTICE_BOUNDS
            for n1 in range(1, 10)
            for n2 in range(1, 10)
        ))
        # (3, 4), (4, 6) and their swaps at 28 reach the extra
        # intersection coset; no product listing reaches the ceiling
        assert codes == {0: 401, 1: 4}
        assert digest == LATTICE_SHA256[fmt]

    @pytest.mark.parametrize("argv, code, sha", BENCH_BOUNDS_SHA256)
    def test_benchmark_bounds_are_byte_identical(self, capsys, argv, code, sha):
        assert self.digest(capsys, argv) == (sha, {code: 1})

    def test_all_suites_json_is_byte_identical(self, capsys):
        digest, codes = self.digest(capsys, ["verify", "--suite", "all", "--json"])
        assert codes == {0: 1}
        assert digest == LATTICE_SHA256["all"]
