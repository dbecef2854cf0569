"""A gallery of source mutants, each of which a command must catch.

Each entry names a module of the package, exact old -> new replacements
that each occur once in it, a command line and the exit code the command
must give on the mutated copy.  The package is copied to a temporary
directory, mutated there and run in a subprocess.  A mutant that today's
checks cannot catch goes in BLIND, with the ROADMAP item that will catch
it: its test requires the command to still exit 0 on the mutated copy, so
the day a check catches it that test fails, and the entry must move to
MUTANTS.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import suborbital

PACKAGE = pathlib.Path(suborbital.__file__).parent
ALL = ("verify", "--suite", "all")
# the oracle configuration F[1, 5] against gamma0_pair(5, 3), whose walk
# rejects rows by their membership test
F15_ON_53 = ("verify", "--suite", "oracle", "--family", "finf", "--u", "1", "--l", "5",
             "--m", "3", "--entry-bound", "20", "--height-bound", "20")


MUTANTS = [
    pytest.param(
        "graphs.py",
        [("        for _ in range((hi - k) // m + 1):",
          "        for _ in range((hi - k) // m):")],
        ALL, 1, id="drop-the-last-head-of-each-multi-head-tail"),
    pytest.param(
        "graphs.py",
        [("        k = lo + (c - lo) % m\n",
          "        k = lo + ((-c if (r + 1) % m == 0 else c) - lo) % m\n")],
        ALL, 1, id="class-minus-c-on-tails-with-r-minus-one"),
    # fzero pairs reflected by R but walked on gamma0_pair(l, m) itself:
    # soundness fails, first on F[2, 1] against gamma0_pair(1, 2)
    pytest.param(
        "oracle.py",
        [("    walk = group if finf else gamma0_pair(m, l)\n", "    walk = group\n")],
        ("verify", "--suite", "oracle"), 1, id="fzero-walked-against-the-unreflected-group"),
    # F[3, 5] and F[7, 10] disagree with their solved witnesses
    pytest.param(
        "graphs.py",
        [("    return (spec.u * spec.u + 1) % spec.modulus == 0\n",
          "    return (spec.u * spec.u + 1) % spec.modulus == 0 and 2 * spec.u <= spec.modulus\n")],
        ("verify", "--suite", "selfpaired"), 1, id="self-paired-keeps-only-the-smaller-root"),
    # F[5, 2] and F[7, 3] fail the reversal bijection
    pytest.param(
        "graphs.py",
        [("    partner_u = mod_inverse(spec.u, m) if m > 1 else 1\n",
          "    partner_u = spec.u\n")],
        ("verify", "--suite", "pairing"), 1, id="partner-keeps-u-instead-of-its-inverse"),
]

# the lattice suite's principal(n1) rows taking the +I lift alone
PLUS_ONE_LIFT = ("oracle.py", [("        if c % n1 or a % n1 not in (1, n1 - 1):\n",
                                "        if c % n1 or a % n1 != 1 % n1:\n")])

# SubgroupSpec.contains accepting the +I lift alone
CONTAINS_WITHOUT_MINUS_I = ("group.py", [
    ("or ((a + 1) % self.a_mod == 0 and (d + 1) % self.d_mod == 0)", "or False")])

# Mutants no command catches yet, each with the ROADMAP item that will; the
# exit code is the one the command gives today.
BLIND = [
    # ROADMAP items 1 and 2: a completeness miss is a report line, so foreign
    # edges (165 instead of 79 at height 30) pass.
    pytest.param(
        "graphs.py",
        [("    return SuborbitalGraph(spec, height_bound, vertices, tuple(heads))\n",
          "    if spec == (FAMILY_INFINITY, 2, 5, False):\n"
          "        merged = dict(enumerate_graph(spec._replace(u=1), height_bound).heads)\n"
          "        for i, found in heads:\n"
          "            merged[i] = tuple(sorted({*merged.get(i, ()), *found}))\n"
          "        heads = sorted(merged.items())\n"
          "    return SuborbitalGraph(spec, height_bound, vertices, tuple(heads))\n")],
        ALL, 0, id="merge-f15-edges-into-f25"),
    # ROADMAP item 14: no command checks the edge rule at every height, and
    # item 2 makes this rule the intended one.
    pytest.param(
        "graphs.py",
        [("        if r % m not in admitted:\n            continue\n", ""),
         ("        and ((r - 1) % m == 0 or (r + 1) % m == 0)\n", "")],
        ALL, 0, id="delete-the-admitted-filter-and-the-r-plus-minus-one-clause"),
    # ROADMAP item 1: the extra non-member images are still edges, so the
    # completeness misses only shrink (28 to 26).
    pytest.param(
        "oracle.py",
        [("            if not group.contains((a, b0 + k * a, c, d0 + k * c)):\n"
          "                continue\n", "")],
        F15_ON_53, 0, id="delete-the-row-membership-test"),
    # ROADMAP item 8: the suite fails only on a violation it finds, and the
    # lost -I rows only shrink the products checked (2,211 to 1,340 for
    # principal(4) * gamma0(6)), a count that no check reads.
    pytest.param(*PLUS_ONE_LIFT, ("verify", "--suite", "lattice"), 0,
                 id="lattice-principal-rows-take-only-plus-one"),
    pytest.param(*PLUS_ONE_LIFT, ALL, 0,
                 id="lattice-principal-rows-take-only-plus-one-under-all"),
    # ROADMAP items 1 and 14: a group without its -I lift loses the member
    # rows with a == -1 (F[2, 5] against gamma0_pair(5, 1): 197 members to
    # 125), so the oracle's completeness misses, a report line, only grow
    # (22 to 43); the lattice suite tests membership only in gamma0 and the
    # full group, where a and d are free, so it prints the same text.
    *(pytest.param(*CONTAINS_WITHOUT_MINUS_I, argv, 0,
                   id=f"contains-drops-the-minus-one-lift-{name}")
      for name, argv in (("all", ALL), ("oracle", ("verify", "--suite", "oracle")),
                         ("lattice", ("verify", "--suite", "lattice")),
                         ("f15-on-53", F15_ON_53))),
]


def run(root, argv):
    env = dict(os.environ, PYTHONPATH=str(root), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "suborbital.cli", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv", sorted({mutant.values[2] for mutant in MUTANTS + BLIND}))
def test_each_command_passes_on_the_package_itself(argv):
    done = run(PACKAGE.parent, argv)
    assert (done.returncode, done.stderr) == (0, "")


def run_mutant(tmp_path, module, edits, argv):
    shutil.copytree(PACKAGE, tmp_path / "suborbital",
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "suborbital" / module
    text = path.read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    path.write_text(text)
    done = run(tmp_path, argv)
    assert "Traceback" not in done.stderr, done.stderr
    return done


@pytest.mark.parametrize("module, edits, argv, code", MUTANTS)
def test_each_mutant_fails_its_command(tmp_path, module, edits, argv, code):
    done = run_mutant(tmp_path, module, edits, argv)
    assert done.returncode == code, done.stdout[-200:]


@pytest.mark.parametrize("module, edits, argv, code", BLIND)
def test_each_blind_mutant_still_passes_its_command(tmp_path, module, edits, argv, code):
    done = run_mutant(tmp_path, module, edits, argv)
    assert done.returncode == code, "caught now: move it to MUTANTS"
