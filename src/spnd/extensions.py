"""Polynomial fast path for lattice-structured capacities, and the gadget

expansion that reduces per-edge upgrade menus to plain instances.

Lattice capacities: when every capacity is an integer combination of a
small basis d_1..d_k with coefficients bounded by K, a max flow of any
purchased subgraph decomposes into paths that each saturate some edge, so
every flow value (and hence every residue the DP can need, including the
parallel split variable) lies in { sum a_i*d_i : |a_i| <= m^2*K }. The DP
then ranges over that set instead of all integers in [-F, F]: the exact
solvers' own search runs with the lattice values in [0, F] as its flow
values, each build pinned to one of them, all on one builder over the set.
The cheapest subset meeting a demand D has a max flow in the set, so one
build at the least lattice value >= D answers it, and a binary search over
the lattice values, one build a probe, finds the largest affordable flow.

The set is found without enumerating the (2m^2K+1)^k coefficient
combinations. The basis values are added one at a time, largest first,
keeping only partial sums that the values still to come can bring back
into [-F, F]. Adding d with coefficients up to A turns each kept value into
a run of 2A+1 values of its residue class mod d, and overlapping runs of a
class merge. So a step sorts its input and writes each output value once,
never 2A+1 values per kept one, and memory is linear in both.
``validate_lattice`` checks capacities with the same routine at A = K.

Upgrade gadget: an edge with menu (c1,u1)..(ck,uk), capacities sorted
non-decreasing, becomes a series-parallel gadget of k + 2(k-1) edges and 2k
vertices. The two smallest-capacity choices sit innermost in parallel
between free guard edges of capacity u2; each further choice j wraps the
previous gadget in parallel, with free capacity-u_j guards in series on
both sides. The guards make buying several choices pointless:
whatever is purchased, the gadget's throughput equals the largest capacity
among the paid choices bought, at the sum of their costs, so an optimal
solution pays for at most one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .decompose import DecompTree, decompose
from .dp import DPTable, ResidueDomain, _solve, check_demand, solve_bcmfp, solve_capndp, upper_bound_flow
from .dp import build_table  # unused here; bench/tracer.py wraps it at this site
from .flow import max_flow
from .flow import solution_from_edges  # unused here; bench/tracer.py wraps it at this site
from .instance import EdgeRecord, MultiGraph, ProblemInstance, Solution, _reject_upgrades


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


def _lattice_points(basis: tuple[int, ...], coeff_bound: int, radius: int) -> np.ndarray:
    """Sorted values of sum a_i*d_i over |a_i| <= coeff_bound in [-radius, radius].

    Adds the nonzero basis values one at a time, largest first, keeping only
    the partial sums that the values still to come can bring back into
    range. With A = coeff_bound, each kept value y = q*d + r spreads to the
    run r + d*[q-A, q+A]; runs of one residue class whose q's are at most
    2A+1 apart merge, so the runs are disjoint and every output value is
    written once. A step sorts its input and costs its output."""
    values = sorted((d for d in basis if d), reverse=True)
    a = coeff_bound
    rest = sum(values)
    points = np.zeros(1, dtype=np.int64)
    for d in values:
        rest -= d
        half = radius + a * rest  # the values still to come move a sum by at most a*rest
        q, r = np.divmod(points, d)
        order = np.lexsort((q, r))
        q, r = q[order], r[order]
        new_run = np.ones(len(q), dtype=bool)
        new_run[1:] = (r[1:] != r[:-1]) | (q[1:] - q[:-1] > 2 * a + 1)
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], len(q)) - 1
        # Run r + d*[lo, hi], clipped to [-half, half].
        r = r[starts]
        lo = np.maximum(q[starts] - a, -((half + r) // d))
        hi = np.minimum(q[ends] + a, (half - r) // d)
        keep = hi >= lo
        r, lo, hi = r[keep], lo[keep], hi[keep]
        counts = hi - lo + 1
        offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        points = np.sort(np.repeat(r + d * lo, counts) + d * offsets)
    return points[np.abs(points) <= radius]  # no step clipped when every value is 0


def lattice_residues(spec: LatticeSpec, m: int, f_bound: int) -> np.ndarray:
    """The residue values the DP must consider: lattice points within the

    flow bound, with coefficients up to m^2 * K."""
    return _lattice_points(spec.basis, m * m * spec.bound, f_bound)


def validate_lattice(graph: MultiGraph, spec: LatticeSpec) -> None:
    """Every capacity must be representable with coefficients up to K."""
    capacities = np.array([e.capacity for e in graph.edges], dtype=np.int64)
    radius = int(capacities.max()) if len(capacities) else 0
    members = np.isin(capacities, _lattice_points(spec.basis, spec.bound, radius))
    bad = [e for e, ok in zip(graph.edges, members) if not ok]
    if bad:
        listing = ", ".join(f"{e.id}={e.capacity}" for e in bad[:5])
        raise ValueError(
            f"capacities not representable in the declared lattice: {listing}"
        )


@dataclass(frozen=True)
class LatticeOutcome:
    """A lattice solve's answer, and the table that answered it: the build

    over the lattice residues pinned to the answer's flow value."""

    solution: Solution
    table: DPTable


def solve_lattice_detailed(
    instance: ProblemInstance, spec: LatticeSpec, *, tree: DecompTree | None = None
) -> LatticeOutcome:
    """The exact solvers' search over the lattice residues: every build is

    pinned to one lattice flow value, all on one builder over that set."""
    _reject_upgrades(instance)
    graph = instance.graph
    validate_lattice(graph, spec)
    if tree is None:
        tree = decompose(graph)
    f_bound = upper_bound_flow(instance)
    if instance.demand is not None:
        check_demand(instance.demand, f_bound)
    residues = ResidueDomain.explicit(lattice_residues(spec, graph.edge_count, f_bound))
    return LatticeOutcome(*_solve(instance, tree, None, f_bound, residues))


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
