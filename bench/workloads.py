"""The benchmark's workloads: inputs made from a seed, one operation per
input, and a check of every answer that shares no code with the solvers
beyond the max-flow primitive.

An *op* takes one instance from its text to its answer: it parses the text
with ``spnd.parse_instance`` and calls the public solvers. The generated
instance object itself is kept beside the text for the checker only. A
workload makes its inputs once, enough for a tail percentile with ten
inputs beyond it; a run makes passes over them.

Inputs are drawn in fixed cycles of *slots* (a slot fixes a size class:
edge count, flow bound band, problem kind, and so on). The solver's work
depends mostly on the graph itself (one graph can cost ten times another of
the same size), so the i-th graph of a cycle, with its capacities, source
and sink, comes from a stream fixed per cycle, and the seed draws every
edge cost and the budget or demand. Runs with different seeds therefore
measure the same amount of work on different purchase problems.

There are two workloads. ``exact-mix`` interleaves three cycles of exact
solves (``tradeoff-sweep``, ``exact-wide``, ``large-sparse``, below) in
one working set of 202 inputs, spread evenly so that any stretch of a pass
holds each in proportion; ``fptas-ladder`` runs the approximation scheme.
The exact cycles share one workload rather than having one each: on a
2-vCPU VM shared with other tenants the same work ran up to twice as slow
for minutes at a time, so any workload's ten runs could spread past its
bound; two workloads with longer runs leave fewer sets of runs to drift,
and every layer still runs.

Cycles (generator parameters, what each stresses and what it bypasses):

``tradeoff-sweep``
    ``generate_sp(edge_budget=10, cap_max=6, cost_max=10)`` (gate 1); one
    slot in five is a gate-6-style instance (``edge_budget=6``, two edges
    replaced by upgrade menus of 1-3 choices, capacities <= 8). An op builds
    one table, then solves every demand 0..F with ``solve_capndp`` and every
    budget 0..C with ``solve_bcmfp`` on that table; upgrade instances are
    expanded first and every answer is mapped back. Stresses dp.query,
    dp.reconstruct, flow.recheck and extensions.expand/map_back with small
    builds; bypasses fptas and the lattice path. Checked against
    ``subset_profiles`` (menus enumerated per choice).

``fptas-ladder``
    ``generate_sp(edge_budget=8, cap_max=10**6, cost_max=10)`` (gate 3),
    ``fptas_bcmfp_detailed`` at eps = 1/2. Slots fix the edge count at
    5, 6, 7, 8 with a budget that buys an s-t path (so the probe ladder
    runs), plus one slot whose budget buys none (settled exactly). Stresses
    fptas.probe, i.e. pinned 1-D builds and their split scan; bypasses
    full builds, queries on large tables and the extensions. Checked:
    cost <= B and flow * (1 + eps) >= OPT, OPT from ``oracle_bcmfp``.

``exact-wide``
    ``generate_sp(edge_budget=12, cap_max=40, cost_max=10)`` with source
    and sink both strictly inside the root pair and the flow bound F in
    [14, 20]; one exact solve per op, alternating demand and budget. Two
    slots in six re-draw the capacities on a lattice with gcd 2 (bases (2,)
    and (2, 6)) and solve through ``solve_lattice_detailed``. Stresses
    dp.build (full three-axis tables and explicit residue domains) and
    extensions.lattice_residues; bypasses fptas and upgrades. Checked with
    the oracle when m <= 10, otherwise by recomputing cost and flow and a
    pinned budget-feasibility cross-check (no cheaper purchase meets the
    demand; no affordable purchase carries one more unit).

``large-sparse``
    ``generate_sp(edge_budget=400, cap_max=2, cost_max=10)`` with m in
    [190, 210], one slot in four without declared terminals, and one slot
    in four an SP graph on 16 vertices with a K4 glued on at one vertex
    (19 vertices, no declared terminals), which must be rejected. Stresses
    decompose (and its terminal-pair search on rejection); F <= 4, so
    builds stay small; bypasses fptas and the extensions. Checked like
    exact-wide's large instances; K4 inputs must raise
    ``NotSeriesParallelError``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

import spnd


class CheckFailure(Exception):
    """An op's answer is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


@dataclass(frozen=True)
class Item:
    """One op's input: the instance text (all the op sees) and, for the

    checker, the generated instance and the slot it was drawn for."""

    text: str
    instance: spnd.ProblemInstance
    slot: str
    spec: spnd.LatticeSpec | None = None
    cycle: str = ""  # the exact-mix cycle that drew it


@dataclass(frozen=True)
class Rejected:
    """An op's answer when the graph is not series-parallel."""

    tried_pairs: int


def _item(instance, slot, spec=None) -> Item:
    return Item(spnd.format_instance(instance), instance, slot, spec)


def _predicted_edge_count(seed: int, edge_budget: int) -> int:
    """The edge count ``generate_sp`` draws first, without building the graph."""
    return random.Random(seed).randint(max(1, edge_budget // 2), edge_budget)


def _with_edge_values(instance, field: str, draw):
    """The instance with ``field`` of every edge replaced by ``draw()``."""
    edges = tuple(replace(e, **{field: draw()}) for e in instance.graph.edges)
    return replace(instance, graph=replace(instance.graph, edges=edges))


# -- shared checks ----------------------------------------------------------------


def _recomputed(graph, purchased) -> tuple[int, int]:
    """Exact cost and max flow of a purchase, recomputed from the graph."""
    by_id = {e.id: e for e in graph.edges}
    unknown = set(purchased) - set(by_id)
    _require(not unknown, f"unknown edge ids {sorted(unknown)}")
    flow, _ = spnd.max_flow(graph, purchased)
    return sum(by_id[eid].cost for eid in purchased), flow


def _check_solution(instance, sol) -> None:
    """The stated cost and flow are exact and the objective's constraint holds."""
    cost, flow = _recomputed(instance.graph, sol.purchased)
    _require(cost == sol.total_cost, f"stated cost {sol.total_cost}, recomputed {cost}")
    _require(flow == sol.achieved_flow, f"stated flow {sol.achieved_flow}, recomputed {flow}")
    if instance.budget is not None:
        _require(cost <= instance.budget, f"cost {cost} over budget {instance.budget}")
    else:
        _require(flow >= instance.demand, f"flow {flow} under demand {instance.demand}")


def _check_optimal(instance, sol, oracle_edge_limit: int) -> None:
    """Optimality by the oracle on small graphs, otherwise by pinned probes."""
    if instance.graph.edge_count <= oracle_edge_limit:
        if instance.budget is not None:
            best = spnd.oracle_bcmfp(instance).achieved_flow
            _require(sol.achieved_flow == best, f"flow {sol.achieved_flow}, optimum {best}")
        else:
            best = spnd.oracle_capndp(instance).total_cost
            _require(sol.total_cost == best, f"cost {sol.total_cost}, optimum {best}")
        return
    if instance.budget is not None:
        if sol.achieved_flow < spnd.upper_bound_flow(instance):
            more, _ = spnd.feasible(instance, instance.budget, sol.achieved_flow + 1)
            _require(not more, f"budget {instance.budget} affords flow {sol.achieved_flow + 1}")
    elif sol.total_cost > 0:
        cheaper, _ = spnd.feasible(instance, sol.total_cost - 1, instance.demand)
        _require(not cheaper, f"demand {instance.demand} met below cost {sol.total_cost}")


# -- tradeoff-sweep ---------------------------------------------------------------


def _upgrade_instance(structure_seed: int, rng):
    """Gate-6 style: two edges of a small SP graph become upgrade menus of

    1-3 choices with distinct capacities (in the order the gadget uses);
    the choices' costs come from ``rng``."""
    base = spnd.generate_sp(structure_seed, edge_budget=6, cap_max=6)
    shape = random.Random(structure_seed)
    edges = list(base.graph.edges)
    shape.shuffle(edges)
    upgrades = tuple(
        spnd.UpgradeRecord(f"u{j}", e.u, e.v, tuple(
            (rng.randint(0, 10), u) for u in sorted(shape.sample(range(1, 9), shape.randint(1, 3)))
        ))
        for j, e in enumerate(edges[:2])
    )
    graph = replace(base.graph, edges=tuple(e for e in base.graph.edges if e not in edges[:2]))
    return spnd.ProblemInstance(graph, budget=0, upgrades=upgrades)


class _MenuOracle:
    """Exhaustive (cost, flow) of every purchase of an instance with menus:

    each menu contributes none or one of its choices as a plain edge."""

    def __init__(self, instance):
        g = instance.graph
        self.plain = g.edges
        self.menus = [
            [spnd.EdgeRecord(f"{up.id}#{j}", up.u, up.v, c, u) for j, (c, u) in enumerate(up.choices, 1)]
            for up in instance.upgrades
        ]
        self.flat = {}
        self.best_cost: dict[int, int] = {}  # flow -> least cost reaching it
        self.best_flow: dict[int, int] = {}  # cost -> most flow at that cost
        for picks in product(*[range(len(m) + 1) for m in self.menus]):
            extra = [m[p - 1] for m, p in zip(self.menus, picks) if p]
            graph = spnd.MultiGraph(g.vertex_count, g.edges + tuple(extra), g.source, g.sink)
            profiles = spnd.subset_profiles(graph)
            self.flat[picks] = (graph, profiles)
            required = ((1 << len(extra)) - 1) << len(self.plain)
            for mask, (cost, flow) in enumerate(profiles):
                if mask & required == required:
                    self.best_cost[flow] = min(cost, self.best_cost.get(flow, cost))
                    self.best_flow[cost] = max(flow, self.best_flow.get(cost, flow))
        self.max_flow = max(self.best_cost)
        self.total_cost = g.total_cost() + sum(c for up in instance.upgrades for c, _ in up.choices)

    def cost_for(self, demand: int) -> int:
        return min(c for f, c in self.best_cost.items() if f >= demand)

    def flow_for(self, budget: int) -> int:
        return max(f for c, f in self.best_flow.items() if c <= budget)

    def measure(self, picks: tuple[int, ...], purchased) -> tuple[int, int]:
        """(cost, flow) of plain edges ``purchased`` plus the picked choices."""
        graph, profiles = self.flat[picks]
        index = {e.id: i for i, e in enumerate(graph.edges)}
        plain_ids = {e.id for e in self.plain}
        mask = sum(1 << index[eid] for eid in purchased if eid in plain_ids)
        mask |= ((1 << (len(graph.edges) - len(self.plain))) - 1) << len(self.plain)
        return profiles[mask]


class TradeoffSweep:
    name = "tradeoff-sweep"
    working_set = 100

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        structures = random.Random(self.name)
        items = []
        for i in range(self.working_set):
            s = structures.randrange(2**31)
            if i % 5 == 4:
                inst, slot = _upgrade_instance(s, rng), "upgrades"
            else:
                inst, slot = spnd.generate_sp(s, edge_budget=10, cap_max=6), "plain"
            inst = _with_edge_values(inst, "cost", lambda: rng.randint(0, 10))
            items.append(_item(inst.with_budget(rng.randint(0, inst.graph.total_cost())), slot))
        return items

    def op(self, item: Item):
        inst = spnd.parse_instance(item.text)
        gmap = None
        if inst.upgrades:
            inst, gmap = spnd.expand_upgrades(inst)
        tree = spnd.decompose(inst.graph)
        table = spnd.build_table(tree, spnd.upper_bound_flow(inst))
        answers = {"demand": [], "budget": []}
        for d in range(table.f_bound + 1):
            sol = spnd.solve_capndp(inst.with_demand(d), tree=tree, table=table)
            answers["demand"].append((sol, gmap and spnd.map_back(sol, gmap)))
        for b in range(inst.graph.total_cost() + 1):
            sol = spnd.solve_bcmfp(inst.with_budget(b), tree=tree, table=table)
            answers["budget"].append((sol, gmap and spnd.map_back(sol, gmap)))
        return answers

    def check(self, item: Item, answers) -> None:
        oracle = _MenuOracle(item.instance)
        _require(len(answers["demand"]) == oracle.max_flow + 1, "not every demand 0..F answered")
        _require(len(answers["budget"]) == oracle.total_cost + 1, "not every budget 0..C answered")
        for d, (sol, plan) in enumerate(answers["demand"]):
            best = oracle.cost_for(d)
            _require(sol.total_cost == best, f"demand {d}: cost {sol.total_cost}, optimum {best}")
            cost, flow = self._bought(oracle, sol, plan)
            _require(cost == best and flow >= d, f"demand {d}: purchase has cost {cost}, flow {flow}")
        for b, (sol, plan) in enumerate(answers["budget"]):
            best = oracle.flow_for(b)
            _require(sol.achieved_flow == best, f"budget {b}: flow {sol.achieved_flow}, optimum {best}")
            cost, flow = self._bought(oracle, sol, plan)
            _require(cost <= b and flow == best, f"budget {b}: purchase has cost {cost}, flow {flow}")

    @staticmethod
    def _bought(oracle: _MenuOracle, sol, plan) -> tuple[int, int]:
        """Recomputed (cost, flow) of what the answer buys; with menus, of the

        mapped-back choices, which must also agree with the plan's figures."""
        if plan is None:
            cost, flow = oracle.measure((), sol.purchased)
            _require((cost, flow) == (sol.total_cost, sol.achieved_flow),
                     f"stated ({sol.total_cost}, {sol.achieved_flow}), recomputed ({cost}, {flow})")
            return cost, flow
        picks = tuple(plan.choices[f"u{j}"] for j in range(len(oracle.menus)))
        cost, flow = oracle.measure(picks, sol.purchased)
        _require((cost, flow) == (plan.interpreted_cost, plan.interpreted_flow),
                 f"plan states ({plan.interpreted_cost}, {plan.interpreted_flow}), "
                 f"recomputed ({cost}, {flow})")
        return cost, flow


# -- fptas-ladder -----------------------------------------------------------------


def _cheapest_path_cost(graph) -> int:
    """Least total cost of an s-t path (Dijkstra); generated graphs are connected."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in graph.edges:
        adj.setdefault(e.u, []).append((e.v, e.cost))
        adj.setdefault(e.v, []).append((e.u, e.cost))
    dist = {graph.source: 0}
    heap = [(0, graph.source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == graph.sink:
            return d
        if d > dist[u]:
            continue
        for v, c in adj.get(u, ()):
            if d + c < dist.get(v, d + c + 1):
                dist[v] = d + c
                heapq.heappush(heap, (d + c, v))
    raise ValueError("sink unreachable from source")


class FptasLadder:
    name = "fptas-ladder"
    working_set = 50
    epsilon = Fraction(1, 2)
    slots = ((5, True), (6, True), (7, True), (8, True), (None, False))  # (m, budget buys a path)

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        structures = random.Random(self.name)
        items = []
        while len(items) < self.working_set:
            m, ladder = self.slots[len(items) % len(self.slots)]
            s = structures.randrange(2**31)
            if m is not None and _predicted_edge_count(s, 8) != m:
                continue
            inst = spnd.generate_sp(s, edge_budget=8, cap_max=10**6, cost_max=10, problem="bcmfp")
            if m is not None and inst.graph.edge_count != m:
                continue
            while True:
                inst = _with_edge_values(inst, "cost", lambda: rng.randint(0, 10))
                path = _cheapest_path_cost(inst.graph)
                if ladder or path > 0:
                    break
            budget = rng.randint(path, inst.graph.total_cost()) if ladder else rng.randint(0, path - 1)
            items.append(_item(inst.with_budget(budget), "ladder" if ladder else "no-path"))
        return items

    def op(self, item: Item):
        return spnd.fptas_bcmfp_detailed(spnd.parse_instance(item.text), self.epsilon)

    def check(self, item: Item, outcome) -> None:
        inst = item.instance
        sol = outcome.solution
        _check_solution(inst, sol)
        best = spnd.oracle_bcmfp(inst).achieved_flow
        _require(sol.achieved_flow * (1 + self.epsilon) >= best,
                 f"flow {sol.achieved_flow} misses the (1+eps) bound of optimum {best}")
        if outcome.exact:
            _require(sol.achieved_flow == best, f"exact run: flow {sol.achieved_flow}, optimum {best}")


# -- exact-wide -------------------------------------------------------------------


class ExactWide:
    name = "exact-wide"
    working_set = 78
    flow_band = (14, 20)
    oracle_edge_limit = 10
    # (problem, lattice basis, coefficient bound); None basis: plain exact solve.
    slots = (
        ("capndp", None, 0),
        ("bcmfp", None, 0),
        ("capndp", None, 0),
        ("bcmfp", None, 0),
        ("capndp", (2,), 20),
        ("bcmfp", (2, 6), 3),
    )

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        structures = random.Random(self.name)
        items = []
        while len(items) < self.working_set:
            problem, basis, bound = self.slots[len(items) % len(self.slots)]
            inst = spnd.generate_sp(structures.randrange(2**31), edge_budget=12, cap_max=40)
            g = inst.graph
            if {g.source, g.sink} & set(g.declared_terminals):
                continue
            spec = None
            if basis is not None:
                spec = spnd.LatticeSpec(basis, bound)
                coeffs = product(range(-bound, bound + 1), repeat=len(basis))
                values = sorted({sum(a * d for a, d in zip(c, basis)) for c in coeffs} & set(range(1, 41)))
                inst = _with_edge_values(inst, "capacity", lambda: structures.choice(values))
            f = spnd.upper_bound_flow(inst)
            if not self.flow_band[0] <= f <= self.flow_band[1]:
                continue
            inst = _with_edge_values(inst, "cost", lambda: rng.randint(0, 10))
            if problem == "capndp":
                inst = inst.with_demand(rng.randint(1, f))
            else:
                inst = inst.with_budget(rng.randint(0, inst.graph.total_cost()))
            items.append(_item(inst, "lattice" if spec else problem, spec))
        return items

    def op(self, item: Item):
        inst = spnd.parse_instance(item.text)
        if item.spec is not None:
            return spnd.solve_lattice_detailed(inst, item.spec).solution
        if inst.demand is not None:
            return spnd.solve_capndp(inst)
        return spnd.solve_bcmfp(inst)

    def check(self, item: Item, sol) -> None:
        _check_solution(item.instance, sol)
        _check_optimal(item.instance, sol, self.oracle_edge_limit)


# -- large-sparse -----------------------------------------------------------------


def _k4_glued(seed: int, sp_vertices: int):
    """An SP graph on ``sp_vertices`` vertices with a K4 sharing one vertex."""
    rng = random.Random(seed)
    while True:
        base = spnd.generate_sp(rng.randrange(2**31), edge_budget=40, cap_max=2)
        if base.graph.vertex_count == sp_vertices:
            break
    g = base.graph
    quad = [rng.randrange(sp_vertices), sp_vertices, sp_vertices + 1, sp_vertices + 2]
    k4 = tuple(
        spnd.EdgeRecord(f"k{i}", u, v, 0, rng.randint(1, 2))
        for i, (u, v) in enumerate(((a, b) for j, a in enumerate(quad) for b in quad[j + 1 :]), 1)
    )
    graph = spnd.MultiGraph(sp_vertices + 3, g.edges + k4, g.source, g.sink)
    return replace(base, graph=graph)


class LargeSparse:
    name = "large-sparse"
    working_set = 24
    edge_band = (190, 210)
    k4_base_vertices = 16
    oracle_edge_limit = 0
    slots = ("sp", "sp-undeclared", "sp", "k4")

    def inputs(self, seed: int) -> list[Item]:
        rng = random.Random(seed)
        structures = random.Random(self.name)
        items = []
        while len(items) < self.working_set:
            slot = self.slots[len(items) % len(self.slots)]
            s = structures.randrange(2**31)
            if slot == "k4":
                inst = _k4_glued(s, self.k4_base_vertices)
            else:
                lo, hi = self.edge_band
                if not lo <= _predicted_edge_count(s, 400) <= hi:
                    continue
                inst = spnd.generate_sp(s, edge_budget=400, cap_max=2)
                if slot == "sp-undeclared":
                    inst = replace(inst, graph=replace(inst.graph, declared_terminals=None))
            inst = _with_edge_values(inst, "cost", lambda: rng.randint(0, 10))
            if len(items) % 8 < 4:
                inst = inst.with_demand(rng.randint(1, spnd.upper_bound_flow(inst)))
            else:
                inst = inst.with_budget(rng.randint(0, inst.graph.total_cost()))
            items.append(_item(inst, slot))
        return items

    def op(self, item: Item):
        inst = spnd.parse_instance(item.text)
        try:
            if inst.demand is not None:
                return spnd.solve_capndp(inst)
            return spnd.solve_bcmfp(inst)
        except spnd.NotSeriesParallelError as exc:
            return Rejected(len(exc.tried_pairs))

    def check(self, item: Item, answer) -> None:
        if item.slot == "k4":
            _require(isinstance(answer, Rejected), "a graph with a K4 minor was not rejected")
            return
        _require(not isinstance(answer, Rejected), "a series-parallel graph was rejected")
        _check_solution(item.instance, answer)
        _check_optimal(item.instance, answer, self.oracle_edge_limit)


# -- exact-mix --------------------------------------------------------------------


class ExactMix:
    name = "exact-mix"
    cycles = {c.name: c for c in (TradeoffSweep(), ExactWide(), LargeSparse())}

    def inputs(self, seed: int) -> list[Item]:
        """Every cycle's inputs, the j-th of n placed at (j + 1/2) / n."""
        placed = []
        for k, cycle in enumerate(self.cycles.values()):
            items = cycle.inputs(seed)
            placed += [((j + 0.5) / len(items), k, replace(item, cycle=cycle.name))
                       for j, item in enumerate(items)]
        return [item for _, _, item in sorted(placed, key=lambda p: p[:2])]

    def op(self, item: Item):
        return self.cycles[item.cycle].op(item)

    def check(self, item: Item, answer) -> None:
        self.cycles[item.cycle].check(item, answer)


WORKLOADS = {w.name: w for w in (ExactMix(), FptasLadder())}
