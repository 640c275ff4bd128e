"""Solvers for budget-constrained max flow and single-pair capacitated

network design on undirected series-parallel multigraphs, with exact
purchase costs (all-or-nothing edges), an approximation scheme for the
budgeted problem, a lattice-capacity fast path, and edge-upgrade gadgets.

The package exports the documented entry points, the types needed to build
an instance and the errors a caller catches; everything else is imported
from its module (``spnd.dp``, ``spnd.flow``, ...).
"""

from .decompose import decompose, recompose
from .dp import (
    build_table,
    feasible,
    solve_bcmfp,
    solve_capndp,
    upper_bound_flow,
)
from .errors import InfeasibleError, NotSeriesParallelError, ParseError
from .extensions import (
    LatticeSpec,
    expand_upgrades,
    map_back,
    solve_lattice,
    solve_lattice_detailed,
    solve_with_upgrades,
)
from .flow import max_flow, solution_from_edges
from .fptas import fptas_bcmfp, fptas_bcmfp_detailed
from .instance import (
    EdgeRecord,
    MultiGraph,
    ProblemInstance,
    Solution,
    UpgradeRecord,
    format_instance,
    parse_instance,
)
from .oracle import generate_sp, oracle_bcmfp, oracle_capndp, subset_profiles

__version__ = "0.1.0"

__all__ = [
    "decompose",
    "recompose",
    "build_table",
    "feasible",
    "solve_bcmfp",
    "solve_capndp",
    "upper_bound_flow",
    "LatticeSpec",
    "expand_upgrades",
    "map_back",
    "solve_lattice",
    "solve_lattice_detailed",
    "solve_with_upgrades",
    "max_flow",
    "solution_from_edges",
    "fptas_bcmfp",
    "fptas_bcmfp_detailed",
    "EdgeRecord",
    "MultiGraph",
    "ProblemInstance",
    "Solution",
    "UpgradeRecord",
    "format_instance",
    "parse_instance",
    "generate_sp",
    "oracle_bcmfp",
    "oracle_capndp",
    "subset_profiles",
    "InfeasibleError",
    "NotSeriesParallelError",
    "ParseError",
]
