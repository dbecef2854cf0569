"""The public surface: what the package exports, and that it all resolves."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import suborbital
from suborbital import errors, graph_io, graphs, group, oracle, rational

MODULES = ("rational", "group", "graphs", "oracle", "graph_io", "cli")

PUBLIC = {
    "__version__",
    # errors
    "SuborbitalError", "ZeroOverZero", "NotInvertible", "InvalidModulus",
    "InvalidSpec", "InvalidBound", "BoundTooLarge", "MalformedDocument",
    "VersionMismatch", "InvariantViolation",
    # rational
    "ProjectiveRational", "INFINITY", "ZERO", "mod_inverse", "factorize",
    "dedekind_psi", "phi_pair",
    # group
    "UnimodularMatrix", "IDENTITY", "SubgroupSpec", "full_group", "principal",
    "gamma0", "gamma0_pair", "gamma00_pair", "block_equivalent",
    # graphs
    "GraphSpec", "DirectedEdge", "SuborbitalGraph", "FAMILY_INFINITY",
    "FAMILY_ZERO", "edge_check", "enumerate_graph", "is_self_paired",
    "paired_partner", "ENUMERATION_CEILING",
    # oracle
    "BoundedGroupSample", "enumerate_group", "transitivity_witness",
    "compare_edges_vs_orbital", "BLOCKS_WORK_CEILING", "count_blocks",
    "verify_lattice_identity",
    "verify_self_paired", "SCAN_CEILING", "check_entry_bound", "OrbitalReport",
    "LatticeReport", "SelfPairedReport",
    # graph_io
    "emit_json", "parse_json", "emit_dot", "emit_svg", "FORMAT_VERSION",
    "check_svg_width",
}

F12 = graphs.GraphSpec("finf", 1, 2)
FULL = group.full_group()
GRAPH = graphs.enumerate_graph(F12, 4)


def test_package_exports_the_public_names():
    assert sorted(suborbital.__all__) == sorted(PUBLIC)


def test_the_root_re_exports_each_module_list_once():
    # a module's __all__ is the only list of its public names
    library = (errors, rational, group, graphs, oracle, graph_io)
    assert suborbital.__all__ == ["__version__", *(n for m in library for n in m.__all__)]
    assert len(set(suborbital.__all__)) == len(suborbital.__all__)
    for module in library:
        for name in module.__all__:
            assert getattr(suborbital, name) is getattr(module, name), name
    tree = ast.parse(pathlib.Path(suborbital.__file__).read_text())
    spelled = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            spelled.add(node.value)
        elif isinstance(node, ast.Name):
            spelled.add(node.id)
        elif isinstance(node, ast.Attribute):
            spelled.add(node.attr)
        elif isinstance(node, ast.alias):
            spelled.update({node.name, node.asname})
    assert spelled & set(suborbital.__all__) == {"__version__"}


def test_every_exported_name_resolves():
    for name in suborbital.__all__:
        assert hasattr(suborbital, name), name
    for short in MODULES:
        module = importlib.import_module(f"suborbital.{short}")
        for name in module.__all__:
            assert hasattr(module, name), f"{short}.{name}"


def test_sources_parse_under_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10; this pins the grammar
    # only, not the library calls
    package = pathlib.Path(suborbital.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) == len(MODULES) + 2  # with __init__ and errors
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cold_cli_import_loads_no_introspection_modules():
    # python -S skips site, so sys.modules holds only what the package
    # and its stdlib imports load; records are named tuples, not
    # dataclasses, which would pull in inspect, ast, dis and tokenize
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    root = str(pathlib.Path(suborbital.__file__).parent.parent)
    probe = (f"import sys; sys.path.insert(0, {root!r}); import suborbital.cli; "
             f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# every bound and modulus parameter takes a plain int only, as the JSON
# fields do: floats and bools are refused by class, not by a raw
# TypeError or AttributeError, nor accepted
@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: oracle.enumerate_group(FULL, 1e3), errors.InvalidBound,
                 id="enumerate_group-1e3"),
    pytest.param(lambda: oracle.enumerate_group(FULL, True), errors.InvalidBound,
                 id="enumerate_group-True"),
    pytest.param(lambda: oracle.compare_edges_vs_orbital(
        GRAPH, group.gamma0_pair(2, 1), 20.0), errors.InvalidBound,
        id="compare_edges_vs_orbital-20.0"),
    pytest.param(lambda: oracle.verify_lattice_identity(2, 3, 5.0), errors.InvalidBound,
                 id="verify_lattice_identity-5.0"),
    pytest.param(lambda: oracle.verify_lattice_identity(None, 2, 5), errors.InvalidModulus,
                 id="verify_lattice_identity-None"),
    pytest.param(lambda: oracle.verify_lattice_identity("3", 2, 5), errors.InvalidModulus,
                 id="verify_lattice_identity-str"),
    pytest.param(lambda: rational.phi_pair(None, 2), errors.InvalidModulus,
                 id="phi_pair-None"),
    pytest.param(lambda: rational.phi_pair("3", 2), errors.InvalidModulus,
                 id="phi_pair-str"),
    pytest.param(lambda: oracle.verify_self_paired(F12, 8.0), errors.InvalidBound,
                 id="verify_self_paired-8.0"),
    pytest.param(lambda: graph_io.emit_svg(GRAPH, 1e6), errors.InvalidBound,
                 id="emit_svg-1e6"),
    pytest.param(lambda: graph_io.emit_svg(GRAPH, 640.0), errors.InvalidBound,
                 id="emit_svg-640.0"),
    pytest.param(lambda: graph_io.check_svg_width(True), errors.InvalidBound,
                 id="check_svg_width-True"),
    pytest.param(lambda: oracle.check_entry_bound(True), errors.InvalidBound,
                 id="check_entry_bound-True"),
    pytest.param(lambda: rational.dedekind_psi(4.0), errors.InvalidModulus,
                 id="dedekind_psi-4.0"),
    pytest.param(lambda: rational.factorize(4.0), errors.InvalidModulus,
                 id="factorize-4.0"),
    pytest.param(lambda: rational.factorize(True), errors.InvalidModulus,
                 id="factorize-True"),
    pytest.param(lambda: oracle.count_blocks(4.0), errors.InvalidModulus,
                 id="count_blocks-4.0"),
    pytest.param(lambda: rational.mod_inverse(3, 7.0), errors.InvalidModulus,
                 id="mod_inverse-7.0"),
    pytest.param(lambda: rational.mod_inverse(3.0, 7), errors.InvalidModulus,
                 id="mod_inverse-3.0"),
    pytest.param(lambda: group.block_equivalent(
        rational.ProjectiveRational(1, 2), rational.ProjectiveRational(3, 2), 2.0),
        errors.InvalidModulus, id="block_equivalent-2.0"),
    pytest.param(lambda: group.block_equivalent(
        rational.ProjectiveRational(1, 2), rational.ProjectiveRational(3, 2), True),
        errors.InvalidModulus, id="block_equivalent-True"),
])
def test_bounds_that_are_not_plain_ints_are_refused(call, error):
    with pytest.raises(error, match="integer"):
        call()
