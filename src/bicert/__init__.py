"""Certifying bipartiteness checks.

Four independent algorithms each answer with a verifiable artifact: a proper
two-sided assignment or an odd cycle.  An exhaustive oracle, seeded
generators, and file formats round out the toolkit; the ``bicert`` command
exposes check, gen, and bench.
"""

from .certificates import (
    Bipartition,
    CheckOutcome,
    OddCycle,
    canonicalize_bipartition,
    check_path_parity,
    flip_component,
    verify_bipartition,
    verify_odd_cycle,
    verify_outcome,
)
from .checkers import (
    ALGORITHM_NAMES,
    check,
    run_instrumented,
)
from .errors import (
    InputError,
    InternalInvariantError,
    ParseError,
)
from .formats import (
    parse_dimacs,
    parse_edge_list,
    write_dimacs,
    write_dot,
    write_edge_list,
)
from .generators import (
    GenSpec,
    SplitMix64,
    generate,
)
from .graph import (
    ComponentLabeling,
    Graph,
    Path,
    build_graph,
    connected_components,
    find_path,
    simplify,
)
from .oracle import (
    brute_force_bipartite,
    count_proper_2colorings,
    find_odd_cycle_exhaustive,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_NAMES",
    "Bipartition",
    "CheckOutcome",
    "ComponentLabeling",
    "GenSpec",
    "Graph",
    "InputError",
    "InternalInvariantError",
    "OddCycle",
    "ParseError",
    "Path",
    "SplitMix64",
    "brute_force_bipartite",
    "build_graph",
    "canonicalize_bipartition",
    "check",
    "check_path_parity",
    "connected_components",
    "count_proper_2colorings",
    "find_odd_cycle_exhaustive",
    "find_path",
    "flip_component",
    "generate",
    "parse_dimacs",
    "parse_edge_list",
    "run_instrumented",
    "simplify",
    "verify_bipartition",
    "verify_odd_cycle",
    "verify_outcome",
    "write_dimacs",
    "write_dot",
    "write_edge_list",
]
