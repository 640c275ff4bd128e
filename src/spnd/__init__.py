"""Solvers for budget-constrained max flow and single-pair capacitated

network design on undirected series-parallel multigraphs, with exact
purchase costs (all-or-nothing edges), an approximation scheme for the
budgeted problem, a lattice-capacity fast path, and edge-upgrade gadgets.
"""

from .decompose import (
    DecompNode,
    DecompTree,
    decompose,
    recompose,
    tree_text,
)
from .dp import (
    DPTable,
    ResidueDomain,
    ResidueTuple,
    all_case_labels,
    build_table,
    feasible,
    feasible_detailed,
    solve_bcmfp,
    solve_capndp,
    upper_bound_flow,
)
from .errors import InfeasibleError, NotSeriesParallelError, ParseError
from .extensions import (
    GadgetMap,
    LatticeSpec,
    UpgradePlan,
    expand_upgrades,
    lattice_residues,
    map_back,
    solve_lattice,
    solve_lattice_detailed,
    solve_with_upgrades,
    validate_lattice,
)
from .flow import (
    CheckResult,
    VerificationReport,
    circulation_feasible,
    max_flow,
    solution_from_edges,
    verify_solution,
)
from .fptas import (
    FptasOutcome,
    ScaleParams,
    as_fraction,
    fptas_bcmfp,
    fptas_bcmfp_detailed,
    scale_capacities,
)
from .instance import (
    EdgeRecord,
    MultiGraph,
    ProblemInstance,
    Solution,
    UpgradeRecord,
    format_instance,
    infinity_sentinel,
    parse_instance,
    purchased_edges,
)
from .oracle import (
    ORACLE_EDGE_LIMIT,
    generate_sp,
    oracle_bcmfp,
    oracle_capndp,
    subset_profiles,
)

__version__ = "0.1.0"

__all__ = [
    "DecompNode",
    "DecompTree",
    "decompose",
    "recompose",
    "tree_text",
    "DPTable",
    "ResidueDomain",
    "ResidueTuple",
    "all_case_labels",
    "build_table",
    "feasible",
    "feasible_detailed",
    "solve_bcmfp",
    "solve_capndp",
    "upper_bound_flow",
    "GadgetMap",
    "LatticeSpec",
    "UpgradePlan",
    "expand_upgrades",
    "lattice_residues",
    "map_back",
    "solve_lattice",
    "solve_lattice_detailed",
    "solve_with_upgrades",
    "validate_lattice",
    "CheckResult",
    "VerificationReport",
    "circulation_feasible",
    "max_flow",
    "solution_from_edges",
    "verify_solution",
    "FptasOutcome",
    "ScaleParams",
    "as_fraction",
    "fptas_bcmfp",
    "fptas_bcmfp_detailed",
    "scale_capacities",
    "EdgeRecord",
    "MultiGraph",
    "ProblemInstance",
    "Solution",
    "UpgradeRecord",
    "format_instance",
    "infinity_sentinel",
    "parse_instance",
    "purchased_edges",
    "ORACLE_EDGE_LIMIT",
    "generate_sp",
    "oracle_bcmfp",
    "oracle_capndp",
    "subset_profiles",
    "InfeasibleError",
    "NotSeriesParallelError",
    "ParseError",
]
