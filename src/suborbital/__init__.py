"""Exact arithmetic for suborbital graphs of the modular group.

The package builds the directed graphs induced by two-parameter
congruence subgroups acting on the extended rationals, and checks every
construction against a brute-force group-action oracle.

The root re-exports the public names of each library module, and only
those: a module's __all__ is the one list of its public names, so a name
becomes importable from here by being listed there.  The command-line
module cli stays out of the root.
"""

from . import errors, rational, group, graphs, oracle, graph_io
from .errors import *
from .rational import *
from .group import *
from .graphs import *
from .oracle import *
from .graph_io import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *rational.__all__,
    *group.__all__,
    *graphs.__all__,
    *oracle.__all__,
    *graph_io.__all__,
]
