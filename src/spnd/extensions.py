"""Polynomial fast path for lattice-structured capacities, and the gadget

expansion that reduces per-edge upgrade menus to plain instances.

Lattice capacities: when every capacity is an integer combination of a
small basis d_1..d_k with coefficients bounded by K, a max flow of any
purchased subgraph decomposes into paths that each saturate some edge, so
every flow value (and hence every residue the DP can need, including the
parallel split variable) lies in { sum a_i*d_i : |a_i| <= m^2*K }. The DP
then ranges over that set instead of all integers in [-F, F], and the exact
solvers answer from the lattice values in [0, F] of that table: the
cheapest subset meeting a demand D has a max flow in the set, so the least
lattice value >= D answers it, and a binary search over the lattice values
finds the largest affordable flow.

Upgrade gadget: an edge with menu (c1,u1)..(ck,uk), capacities sorted
non-decreasing, becomes a series-parallel gadget of k + 2(k-1) edges and 2k
vertices. The two cheapest.. smallest-capacity choices sit innermost in
parallel between free guard edges of capacity u2; each further choice j
wraps the previous gadget in parallel, with free capacity-u_j guards in
series on both sides. The guards make buying several choices pointless:
whatever is purchased, the gadget's throughput equals the largest capacity
among the paid choices bought, at the sum of their costs, so an optimal
solution pays for at most one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .decompose import DecompTree, decompose
from .dp import DPTable, build_table, check_demand, solve_bcmfp, solve_capndp, upper_bound_flow
from .flow import max_flow
from .flow import solution_from_edges  # unused here; bench/tracer.py wraps it at this site
from .instance import EdgeRecord, MultiGraph, ProblemInstance, Solution

STATE_BUDGET = 10**7  # lattice combinations past which lattice_residues warns


# -- lattice capacities ----------------------------------------------------


@dataclass(frozen=True)
class LatticeSpec:
    """Capacity lattice: values sum a_i*d_i with |a_i| <= bound."""

    basis: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if not self.basis:
            raise ValueError("lattice basis cannot be empty")
        if any(d < 0 for d in self.basis):
            raise ValueError("lattice basis values must be nonnegative")
        if self.bound < 1:
            raise ValueError("lattice coefficient bound must be positive")


def _combinations(basis: tuple[int, ...], alpha_bound: int) -> np.ndarray:
    """Sorted unique values of sum a_i*d_i over |a_i| <= alpha_bound."""
    values = np.zeros(1, dtype=np.int64)
    alphas = np.arange(-alpha_bound, alpha_bound + 1, dtype=np.int64)
    for d in basis:
        values = np.unique(values[:, None] + d * alphas[None, :])
    return values


def lattice_residues(spec: LatticeSpec, m: int, f_bound: int) -> np.ndarray:
    """The residue values the DP must consider: lattice points within the

    flow bound, with coefficients up to m^2 * K."""
    alpha_bound = m * m * spec.bound
    raw_size = (2 * alpha_bound + 1) ** len(spec.basis)
    if raw_size > STATE_BUDGET:
        warnings.warn(
            f"lattice residue enumeration visits {raw_size} combinations, "
            f"over the advisory budget of {STATE_BUDGET}",
            RuntimeWarning,
            stacklevel=2,
        )
    values = _combinations(spec.basis, alpha_bound)
    return values[(values >= -f_bound) & (values <= f_bound)]


def validate_lattice(graph: MultiGraph, spec: LatticeSpec) -> None:
    """Every capacity must be representable with coefficients up to K."""
    members = set(_combinations(spec.basis, spec.bound).tolist())
    bad = [e for e in graph.edges if e.capacity not in members]
    if bad:
        listing = ", ".join(f"{e.id}={e.capacity}" for e in bad[:5])
        raise ValueError(
            f"capacities not representable in the declared lattice: {listing}"
        )


@dataclass(frozen=True)
class LatticeOutcome:
    solution: Solution
    table: DPTable


def solve_lattice_detailed(
    instance: ProblemInstance, spec: LatticeSpec, *, tree: DecompTree | None = None
) -> LatticeOutcome:
    """Build the table over the lattice residues, then answer from it with

    the exact solver of the instance's problem."""
    graph = instance.graph
    validate_lattice(graph, spec)
    if tree is None:
        tree = decompose(graph)
    f_bound = upper_bound_flow(instance)
    if instance.demand is not None:
        check_demand(instance.demand, f_bound)
    residues = lattice_residues(spec, graph.edge_count, f_bound)
    table = build_table(tree, f_bound, residue_values=residues.tolist())
    solve = solve_bcmfp if instance.problem == "bcmfp" else solve_capndp
    return LatticeOutcome(solve(instance, tree=tree, table=table), table)


def solve_lattice(
    instance: ProblemInstance, spec: LatticeSpec, *, tree: DecompTree | None = None
) -> Solution:
    """Same answers as the unrestricted solvers, via the lattice domain."""
    return solve_lattice_detailed(instance, spec, tree=tree).solution


# -- edge upgrades ---------------------------------------------------------


@dataclass(frozen=True)
class GadgetInfo:
    upgrade_id: str
    endpoints: tuple[int, int]
    choices: tuple[tuple[int, int], ...]  # (cost, capacity), capacity ascending
    choice_edge_ids: tuple[str, ...]  # parallel to choices
    guard_edge_ids: tuple[str, ...]


@dataclass(frozen=True)
class GadgetMap:
    original: ProblemInstance
    expanded: ProblemInstance
    gadgets: tuple[GadgetInfo, ...]

    def gadget(self, upgrade_id: str) -> GadgetInfo:
        for g in self.gadgets:
            if g.upgrade_id == upgrade_id:
                return g
        raise KeyError(upgrade_id)


def normalize_menu(upgrade_id: str, choices) -> tuple[tuple[int, int], ...]:
    """Sort by capacity (cost breaking ties); drop equal-capacity losers."""
    ordered = sorted(choices, key=lambda cu: (cu[1], cu[0]))
    kept: list[tuple[int, int]] = []
    for cost, cap in ordered:
        if kept and kept[-1][1] == cap:
            warnings.warn(
                f"upgrade {upgrade_id}: dropping choice ({cost},{cap}); "
                f"({kept[-1][0]},{cap}) has the same capacity at lower cost",
                RuntimeWarning,
                stacklevel=3,
            )
            continue
        kept.append((cost, cap))
    return tuple(kept)


def expand_upgrades(instance: ProblemInstance) -> tuple[ProblemInstance, GadgetMap]:
    """Replace every upgrade menu by its gadget; plain edges pass through."""
    graph = instance.graph
    edges: list[EdgeRecord] = list(graph.edges)
    next_vertex = graph.vertex_count
    gadgets: list[GadgetInfo] = []
    for up in instance.upgrades:
        menu = normalize_menu(up.id, up.choices)
        k = len(menu)
        choice_ids = tuple(f"{up.id}:c{i}" for i in range(1, k + 1))
        guard_ids: list[str] = []
        if k == 1:
            cost, cap = menu[0]
            edges.append(EdgeRecord(choice_ids[0], up.u, up.v, cost, cap))
        else:
            inner_a, inner_b = next_vertex, next_vertex + 1
            next_vertex += 2
            # Innermost level: the two smallest-capacity choices in
            # parallel, between capacity-u2 guards.
            edges.append(EdgeRecord(choice_ids[0], inner_a, inner_b, menu[0][0], menu[0][1]))
            edges.append(EdgeRecord(choice_ids[1], inner_a, inner_b, menu[1][0], menu[1][1]))
            x, y = inner_a, inner_b
            for j in range(2, k + 1):
                cap_j = menu[j - 1][1]
                if j == k:
                    outer_x, outer_y = up.u, up.v
                else:
                    outer_x, outer_y = next_vertex, next_vertex + 1
                    next_vertex += 2
                if j > 2:
                    edges.append(EdgeRecord(f"{up.id}:c{j}", x, y, menu[j - 1][0], cap_j))
                ga, gb = f"{up.id}:g{j}a", f"{up.id}:g{j}b"
                edges.append(EdgeRecord(ga, outer_x, x, 0, cap_j))
                edges.append(EdgeRecord(gb, y, outer_y, 0, cap_j))
                guard_ids += [ga, gb]
                x, y = outer_x, outer_y
        gadgets.append(
            GadgetInfo(up.id, (up.u, up.v), menu, choice_ids, tuple(guard_ids))
        )
    expanded_graph = MultiGraph(
        vertex_count=next_vertex,
        edges=tuple(edges),
        source=graph.source,
        sink=graph.sink,
        declared_terminals=graph.declared_terminals,
    )
    expanded = ProblemInstance(
        graph=expanded_graph,
        budget=instance.budget,
        demand=instance.demand,
        upgrades=(),
    )
    gmap = GadgetMap(original=instance, expanded=expanded, gadgets=tuple(gadgets))
    return expanded, gmap


@dataclass(frozen=True)
class UpgradePlan:
    """map_back result: one chosen menu index per gadget (0 = no upgrade),

    the guard-completed purchase set, and the interpreted re-evaluation."""

    choices: dict[str, int]  # upgrade id -> 1-based choice index, 0 for none
    normalized_purchased: frozenset[str]
    interpreted_cost: int
    interpreted_flow: int


def map_back(solution: Solution, gmap: GadgetMap) -> UpgradePlan:
    """Read a per-gadget choice out of an expanded solution.

    The chosen upgrade is the highest-capacity paid choice edge purchased.
    Purchases missing their guard edges are normalized by adding the guards
    (they cost nothing). The interpreted instance, with each gadget replaced
    by just its chosen edge, is re-evaluated and must do at least as well.
    """
    purchased = set(solution.purchased)
    choices: dict[str, int] = {}
    for g in gmap.gadgets:
        paid = [i for i, eid in enumerate(g.choice_edge_ids, start=1) if eid in purchased]
        if not paid:
            choices[g.upgrade_id] = 0
            continue
        choices[g.upgrade_id] = max(paid, key=lambda i: g.choices[i - 1][1])
        missing = [eid for eid in g.guard_edge_ids if eid not in purchased]
        purchased.update(missing)

    original = gmap.original
    interp_edges: list[EdgeRecord] = list(original.graph.edges)
    original_ids = original.graph.edge_map()
    interp_purchased = {eid for eid in solution.purchased if eid in original_ids}
    for g in gmap.gadgets:
        idx = choices[g.upgrade_id]
        if idx == 0:
            continue
        cost, cap = g.choices[idx - 1]
        eid = g.choice_edge_ids[idx - 1]
        interp_edges.append(EdgeRecord(eid, g.endpoints[0], g.endpoints[1], cost, cap))
        interp_purchased.add(eid)
    interp_graph = MultiGraph(
        vertex_count=original.graph.vertex_count,
        edges=tuple(interp_edges),
        source=original.graph.source,
        sink=original.graph.sink,
        declared_terminals=original.graph.declared_terminals,
    )
    flow, _ = max_flow(interp_graph, interp_purchased)
    interp_ids = interp_graph.edge_map()
    cost = sum(interp_ids[eid].cost for eid in interp_purchased)
    if cost > solution.total_cost or flow < solution.achieved_flow:
        raise RuntimeError("gadget interpretation lost value; the purchase set is inconsistent")
    return UpgradePlan(
        choices=choices,
        normalized_purchased=frozenset(purchased),
        interpreted_cost=cost,
        interpreted_flow=flow,
    )


def solve_with_upgrades(
    instance: ProblemInstance,
) -> tuple[Solution, UpgradePlan, GadgetMap]:
    """Expand, solve the expanded instance exactly, and map the choice back."""
    expanded, gmap = expand_upgrades(instance)
    if expanded.problem == "bcmfp":
        solution = solve_bcmfp(expanded)
    else:
        solution = solve_capndp(expanded)
    plan = map_back(solution, gmap)
    return solution, plan, gmap
