"""qext: verification workbench for extremal Q-index (signless Laplacian) bounds.

The package builds the named extremal graph families, computes Q-indices
with certified residual intervals, checks the edge/eigenvalue statements
behind the forbidden-cycle threshold on exhaustively enumerated small
graphs, and probes the extremal conjecture with a seeded random
search.  See the CLI (``qext --help`` or ``python -m qext``) for the
command surface.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundValue,
    closed_form_snk,
    das_bound,
    edge_degree_bound,
    merris_bound,
    prop1_sandwich,
)
from .enumeration import (
    canonical_code,
    enumerate_nonisomorphic,
    parse_graph6,
    read_graph6_lines,
    write_graph6,
)
from .families import (
    build_construction,
    complete,
    corollary1_graph,
    cycle,
    edgeless,
    kite_pendant,
    lemma2_exception,
    path,
    s_nk,
    s_nk_plus,
    star,
    windmill,
)
from .graph import (
    Graph,
    blocks,
    build_graph,
    components,
    disjoint_union,
    is_connected,
    join,
)
from .report import RunReport, exit_code_for, parse_report, write_csv
from .search import SearchResult, is_feasible, maximize_q_forbidden_cycles
from .spectral import (
    Comparison,
    ConvergenceError,
    SpectralResult,
    certified_compare,
    q_index,
    signless_laplacian,
)
from .subgraphs import (
    SearchBudgetExceeded,
    find_constrained_path,
    find_cycle_of_length,
    find_cycle_through_edge,
)
from .verify import (
    CheckOutcome,
    SuiteReport,
    check_statement,
    prop1_sandwich_check,
    run_suite,
    theorem1_construction_probe,
)

__all__ = [
    "__version__",
    "BoundValue",
    "CheckOutcome",
    "Comparison",
    "ConvergenceError",
    "Graph",
    "RunReport",
    "SearchBudgetExceeded",
    "SearchResult",
    "SpectralResult",
    "SuiteReport",
    "blocks",
    "build_construction",
    "build_graph",
    "canonical_code",
    "certified_compare",
    "check_statement",
    "closed_form_snk",
    "complete",
    "components",
    "corollary1_graph",
    "cycle",
    "das_bound",
    "disjoint_union",
    "edge_degree_bound",
    "edgeless",
    "enumerate_nonisomorphic",
    "exit_code_for",
    "find_constrained_path",
    "find_cycle_of_length",
    "find_cycle_through_edge",
    "is_connected",
    "is_feasible",
    "join",
    "kite_pendant",
    "lemma2_exception",
    "maximize_q_forbidden_cycles",
    "merris_bound",
    "parse_graph6",
    "parse_report",
    "path",
    "prop1_sandwich",
    "prop1_sandwich_check",
    "q_index",
    "read_graph6_lines",
    "run_suite",
    "s_nk",
    "s_nk_plus",
    "signless_laplacian",
    "star",
    "theorem1_construction_probe",
    "windmill",
    "write_csv",
    "write_graph6",
]
