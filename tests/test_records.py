"""Specs, graphs and reports are tuple records.

Each keeps its field names, its defaults and its pinned repr, equals and hashes as its plain field tuple, refuses
attribute assignment, and the two specs with checks refuse bad values on
every construction path.  An edge is a value, not a record, but its
repr is pinned here too.
"""

import itertools
import re

import pytest

from suborbital.errors import InvalidBound, InvalidModulus, InvalidSpec
from suborbital.graph_io import emit_json, parse_json
from suborbital.graphs import DirectedEdge, GraphSpec, SuborbitalGraph, enumerate_graph
from suborbital.group import SubgroupSpec, gamma0_pair
from suborbital.oracle import (
    LatticeReport,
    OrbitalReport,
    SelfPairedReport,
    compare_edges_vs_orbital,
    verify_lattice_identity,
    verify_self_paired,
)
from suborbital.rational import INFINITY, ProjectiveRational

F12 = GraphSpec("finf", 1, 2)

# (record, its repr, pinned as a literal)
REPRS = [
    (GraphSpec("fzero", 2, 5, True),
     "GraphSpec(family='fzero', u=2, modulus=5, reversed=True)"),
    (F12, "GraphSpec(family='finf', u=1, modulus=2, reversed=False)"),
    (gamma0_pair(2, 3),
     "SubgroupSpec(a_mod=2, b_mod=3, c_mod=2, d_mod=3, label='gamma0_pair(2,3)')"),
    (enumerate_graph(F12, 2),
     "SuborbitalGraph(spec=GraphSpec(family='finf', u=1, modulus=2, reversed=False),"
     " height_bound=2, vertices=(ProjectiveRational(-1, 2), ProjectiveRational(1, 0),"
     " ProjectiveRational(1, 2)), heads=((0, (1,)), (1, (0, 2)), (2, (1,))))"),
    (compare_edges_vs_orbital(enumerate_graph(F12, 3), gamma0_pair(2, 1), 3),
     "OrbitalReport(spec=GraphSpec(family='finf', u=1, modulus=2, reversed=False),"
     " group=SubgroupSpec(a_mod=2, b_mod=1, c_mod=2, d_mod=1, label='gamma0_pair(2,1)'),"
     " entry_bound=3, height_bound=3, member_count=19,"
     " orbital_in_bound=8, edge_count=8, soundness_failures=(), completeness_misses=())"),
    (verify_lattice_identity(2, 3, 2),
     "LatticeReport(n1=2, n2=3, entry_bound=2, scanned=26, intersection_violations=(),"
     " products_checked=25, product_violations=())"),
    (verify_self_paired(GraphSpec("finf", 2, 5), 10),
     "SelfPairedReport(spec=GraphSpec(family='finf', u=2, modulus=5, reversed=False),"
     " entry_bound=10, witness=UnimodularMatrix(2, -1, 5, -2))"),
    (verify_self_paired(GraphSpec("finf", 1, 3), 4),
     "SelfPairedReport(spec=GraphSpec(family='finf', u=1, modulus=3, reversed=False),"
     " entry_bound=4, witness=None)"),
]
RECORDS = [record for record, _ in REPRS]
IDS = [type(record).__name__ for record in RECORDS]
# an edge is a value, not a record: its repr is the constructor call
EDGE_REPR = (DirectedEdge(INFINITY, ProjectiveRational(1, 2)),
             "DirectedEdge(ProjectiveRational(1, 0), ProjectiveRational(1, 2))")


@pytest.mark.parametrize(("record", "text"), REPRS + [EDGE_REPR], ids=IDS + ["DirectedEdge"])
def test_repr_is_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equals_and_hashes_as_its_field_tuple(record):
    fields = tuple(record)
    assert record == fields and hash(record) == hash(fields)
    assert fields == tuple(getattr(record, name) for name in record._fields)
    assert record == type(record)(*fields) == type(record)(**record._asdict())


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_refuses_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_field_names_and_defaults():
    assert GraphSpec._fields == ("family", "u", "modulus", "reversed")
    assert GraphSpec(family="fzero", u=2, modulus=5) == ("fzero", 2, 5, False)
    assert SubgroupSpec._fields == ("a_mod", "b_mod", "c_mod", "d_mod", "label")
    assert SuborbitalGraph._fields == ("spec", "height_bound", "vertices", "heads")
    assert OrbitalReport._fields == (
        "spec", "group", "entry_bound", "height_bound", "member_count",
        "orbital_in_bound", "edge_count", "soundness_failures",
        "completeness_misses")
    assert SelfPairedReport._fields == ("spec", "entry_bound", "witness")
    assert LatticeReport._fields == (
        "n1", "n2", "entry_bound", "scanned", "intersection_violations",
        "products_checked", "product_violations")
    report = LatticeReport(2, 3, 1, 0, (), 0, ())
    assert report.unchecked == "product identity reverse inclusion"
    assert report.ok


GOOD_GRAPH = ("fzero", 2, 5, False)
BAD_GRAPHS = [
    ({"family": "fone"}, "unknown graph family 'fone'"),
    ({"modulus": 0, "u": 1}, "modulus must be >= 1, got 0"),
    ({"u": 0}, "u must be >= 1, got 0"),
    ({"u": 5}, "u must satisfy 1 <= u < 5, got 5"),
    ({"modulus": 1, "u": 2}, "u must be 1 at modulus 1, got 2"),
    ({"modulus": 6, "u": 2}, "u and modulus must be coprime, got (2, 6)"),
    ({"family": "finf", "reversed": True}, "only fzero graphs have a reversed form"),
]


def construction_paths(cls, good, change):
    """The same bad fields through the constructor, _make and _replace."""
    fields = dict(zip(cls._fields, good), **change)
    return [
        lambda: cls(**fields),
        lambda: cls(*fields.values()),
        lambda: cls._make(fields.values()),
        lambda: cls(*good)._replace(**change),
    ]


@pytest.mark.parametrize(("change", "message"), BAD_GRAPHS)
def test_graph_spec_refuses_bad_values_on_every_path(change, message):
    for build in construction_paths(GraphSpec, GOOD_GRAPH, change):
        with pytest.raises(InvalidSpec, match=f"^{re.escape(message)}$"):
            build()


@pytest.mark.parametrize("field", ["a_mod", "b_mod", "c_mod", "d_mod"])
def test_subgroup_spec_refuses_bad_moduli_on_every_path(field):
    good = tuple(gamma0_pair(2, 3))
    for build in construction_paths(SubgroupSpec, good, {field: 0}):
        with pytest.raises(InvalidModulus, match="^subgroup modulus must be >= 1, got 0$"):
            build()


def test_checked_paths_build_the_same_record():
    spec = GraphSpec._make(GOOD_GRAPH)
    assert type(spec) is GraphSpec and spec == GraphSpec(*GOOD_GRAPH)
    assert spec._replace(u=3) == GraphSpec("fzero", 3, 5)
    assert type(gamma0_pair(2, 3)._replace(label="x")) is SubgroupSpec
    with pytest.raises(TypeError):
        GraphSpec._make(("finf", 1))
    with pytest.raises(ValueError):
        F12._replace(modulo=3)


# values a caller may pass for an integer field or for reversed; a JSON
# document holds only the plain ints among them, and bools for reversed
LOOSE = (1, 2, 3, True, False, 1.0, 2.0, "1", None)


def test_specs_accept_exactly_what_a_document_holds():
    accepted = []
    for family, u, modulus, reversed_ in itertools.product(
        ("finf", "fzero"), LOOSE, LOOSE, LOOSE
    ):
        try:
            spec = GraphSpec(family, u, modulus, reversed_)
        except InvalidSpec:
            continue
        for bound in LOOSE:
            try:
                graph = enumerate_graph(spec, bound)
            except InvalidBound:
                continue
            assert parse_json(emit_json(graph)) == graph
            accepted.append((u, modulus, reversed_, bound))
    # finf (u, m) in (1, 1), (1, 2), (1, 3), (2, 3); fzero twice, reversed
    # or not; each at the bounds 1, 2 and 3
    assert len(accepted) == 36
    for u, modulus, reversed_, bound in accepted:
        assert {type(u), type(modulus), type(bound)} == {int}
        assert type(reversed_) is bool
    for n in LOOSE:
        try:
            group = SubgroupSpec(n, 1, 1, 1, "s")
        except InvalidModulus:
            continue
        assert type(group.a_mod) is int
