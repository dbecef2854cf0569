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
]

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
        [("            b, d = b0 + k * a, d0 + k * c\n"
          "            if not group.contains((d, -c, -b, a) if flip else (a, b, c, d)):\n"
          "                continue\n", "")],
        ("verify", "--suite", "oracle", "--family", "finf", "--u", "1", "--l", "5",
         "--m", "3", "--entry-bound", "20", "--height-bound", "20"),
        0, id="delete-the-row-membership-test"),
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
