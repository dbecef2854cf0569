"""Exact arithmetic for suborbital graphs of the modular group.

The package builds the directed graphs induced by two-parameter
congruence subgroups acting on the extended rationals, and checks every
construction against a brute-force group-action oracle.
"""

from .errors import (
    BoundTooLarge,
    InvalidBound,
    InvalidModulus,
    InvalidSpec,
    InvariantViolation,
    MalformedDocument,
    NotInvertible,
    SuborbitalError,
    VersionMismatch,
    ZeroOverZero,
)
from .rational import (
    INFINITY,
    ZERO,
    ProjectiveRational,
    dedekind_psi,
    factorize,
    mod_inverse,
    phi_pair,
)
from .group import (
    IDENTITY,
    SubgroupSpec,
    UnimodularMatrix,
    block_equivalent,
    full_group,
    gamma0,
    gamma0_pair,
    gamma00_pair,
    principal,
)
from .graphs import (
    FAMILY_INFINITY,
    FAMILY_ZERO,
    DirectedEdge,
    GraphSpec,
    SuborbitalGraph,
    edge_check,
    enumerate_graph,
    is_self_paired,
    paired_partner,
)
from .oracle import (
    BoundedGroupSample,
    compare_edges_vs_orbital,
    count_blocks,
    enumerate_group,
    transitivity_witness,
    verify_lattice_identity,
    verify_self_paired,
)
from .graph_io import emit_dot, emit_json, emit_svg, parse_json

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SuborbitalError",
    "ZeroOverZero",
    "NotInvertible",
    "InvalidModulus",
    "InvalidSpec",
    "InvalidBound",
    "BoundTooLarge",
    "MalformedDocument",
    "VersionMismatch",
    "InvariantViolation",
    "ProjectiveRational",
    "INFINITY",
    "ZERO",
    "mod_inverse",
    "factorize",
    "dedekind_psi",
    "phi_pair",
    "UnimodularMatrix",
    "IDENTITY",
    "SubgroupSpec",
    "full_group",
    "principal",
    "gamma0",
    "gamma0_pair",
    "gamma00_pair",
    "block_equivalent",
    "GraphSpec",
    "DirectedEdge",
    "SuborbitalGraph",
    "FAMILY_INFINITY",
    "FAMILY_ZERO",
    "edge_check",
    "enumerate_graph",
    "is_self_paired",
    "paired_partner",
    "BoundedGroupSample",
    "enumerate_group",
    "transitivity_witness",
    "compare_edges_vs_orbital",
    "count_blocks",
    "verify_lattice_identity",
    "verify_self_paired",
    "emit_json",
    "parse_json",
    "emit_dot",
    "emit_svg",
]
