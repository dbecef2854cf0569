"""Tests for the command line interface.

Commands run in-process through main(argv); one test drives the
installed console script end to end.
"""

import json
import subprocess
import sys

import pytest

import suborbital.cli as cli_module
from suborbital.cli import main


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

    def test_selfpaired_single(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "7", "--u", "2",
        )
        assert code == 0
        assert "not self-paired, no witness" in out

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

    def test_pairing_single(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "pairing", "--mod", "5", "--u", "2",
            "--height-bound", "12",
        )
        assert code == 0
        assert "F[-5, 3]" in out and "bijection ok" in out

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

    def test_env_ceiling_gives_resource_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("SUBORBITAL_SCAN_CEILING", "10")
        code, _, err = run(
            capsys, "verify", "--suite", "selfpaired", "--mod", "7", "--u", "2",
            "--entry-bound", "60",
        )
        assert code == 3
        assert "ceiling" in err

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
