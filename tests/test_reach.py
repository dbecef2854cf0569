"""Every function and method of the package is reached by a command.

A fixed set of commands, formats and parses runs under sys.setprofile,
and each function and method defined in src/ must be called by it or be
listed in UNREACHED with the reason it stays.  The README lists the same
names.
"""

import ast
import contextlib
import io
import json
import pathlib
import sys

import suborbital
from suborbital import cli, graph_io
from suborbital.errors import InvariantViolation, MalformedDocument

PACKAGE = pathlib.Path(suborbital.__file__).parent
README = PACKAGE.parent.parent / "README.md"

# qualified name -> why no command reaches it
UNREACHED = {
    "graphs.edge_check": "the pair-by-pair edge predicate, certified by ROADMAP item 14",
    "graphs._congruences_hold": "edge_check's congruences, certified by ROADMAP item 14",
    "group.gamma00_pair": "waits for ROADMAP item 2",
    "group.block_equivalent": "waits for ROADMAP item 11",
    "group.principal": "waits for ROADMAP item 8",
    "graphs.SuborbitalGraph.edges": "read by bench/tracing.py",
    "rational._Value.__add__": "refuses tuple concatenation and repetition",
    "rational._Value.__repr__": "a repr, which no output writes",
    "rational.ProjectiveRational.__str__": "writes soundness failures, which only a faulty build has",
}

SPECS = (
    ["--family", "finf", "--u", "1", "--mod", "2"],
    ["--family", "fzero", "--u", "2", "--mod", "3"],
    ["--family", "fzero", "--u", "2", "--mod", "5", "--reversed"],
)
COMMANDS = [
    ["verify", "--suite", "all"],
    ["verify", "--suite", "all", "--json"],
    *(["edges", *spec, "--bound", "6", "--format", fmt]
      for spec in SPECS for fmt in ("json", "dot", "svg")),
    ["psi", "12"],
    ["phi-pair", "2", "3"],
    ["partner", "--u", "3", "--mod", "7"],
    ["selfpaired", "--u", "1", "--mod", "2"],
]

# F[1, 2] at height 2 as emit_json writes it
CANONICAL = (
    '{"format_version":"1","family":"finf","u":1,"modulus":2,"reversed":false,'
    '"height_bound":2,"vertices":["-1/2","1/0","1/2"],"edges":['
    '{"src":"-1/2","dst":"1/0","sign":"-"},{"src":"1/0","dst":"-1/2","sign":"+"},'
    '{"src":"1/0","dst":"1/2","sign":"+"},{"src":"1/2","dst":"1/0","sign":"-"}]}'
)


def tampered(change):
    data = json.loads(CANONICAL)
    change(data)
    return json.dumps(data, separators=(",", ":"))


TAMPERED = [
    tampered(lambda data: data["edges"].pop(2)),  # an edge missing
    tampered(lambda data: data["vertices"].__setitem__(0, "1/-2")),  # a malformed point
    tampered(lambda data: data["vertices"].insert(0, "-3/2")),  # a foreign vertex
]


def defined():
    """(file, first line) -> qualified name of every def in the package;
    a decorated def's code starts at its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[str(path), line] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def run_everything():
    """Run the fixed command set; return the (file, first line) of every
    Python function called."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("suborbital"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):  # a warm cache skips its function
                    value.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    out, err = io.StringIO(), io.StringIO()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [cli.main(argv) for argv in COMMANDS]
        canonical = graph_io.emit_json(graph_io.parse_json(CANONICAL))
        indented = graph_io.parse_json(json.dumps(json.loads(CANONICAL), indent=1))
        refusals = []
        for text in TAMPERED:
            try:
                graph_io.parse_json(text)
            except (InvariantViolation, MalformedDocument) as exc:
                refusals.append(type(exc).__name__)
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(COMMANDS), err.getvalue()
    assert canonical == CANONICAL
    assert graph_io.emit_json(indented) == CANONICAL
    assert refusals == ["InvariantViolation", "MalformedDocument", "InvariantViolation"]
    return called


def test_every_definition_is_called_or_listed():
    names = defined()
    assert set(UNREACHED) <= set(names.values())
    called = run_everything()
    unreached = {name for key, name in names.items() if key not in called}
    assert unreached == set(UNREACHED)


def test_the_readme_lists_the_unreached_names():
    text = README.read_text()
    for name in UNREACHED:
        assert f"`{name.split('.', 1)[1]}`" in text, name
