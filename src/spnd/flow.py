"""Exact integral flow primitives on purchased subgraphs.

Undirected edges are handled with the antiparallel-arc reduction: each edge
contributes a forward and a backward arc of the full capacity that share
residual capacity, so the net flow across the edge never exceeds its
capacity in either direction. All arithmetic is plain Python integers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .instance import MultiGraph, ProblemInstance, Solution, purchased_edges


def _relabel(vertices: Iterable[int]) -> dict[int, int]:
    """Ids 0..k-1 for the k distinct vertices a network touches, so that its

    size follows the purchased edges, not the declared vertex count."""
    return {v: i for i, v in enumerate(dict.fromkeys(vertices))}


class _FlowNet:
    """Adjacency-list residual network (Edmonds-Karp)."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        # arcs[i] = [head, residual]; arcs[i ^ 1] is the paired reverse arc.
        self.arcs: list[list[int]] = []

    def add_pair(self, u: int, v: int, cap_uv: int, cap_vu: int) -> int:
        """Add an arc pair u->v / v->u with the given capacities.

        Returns the index of the forward arc."""
        i = len(self.arcs)
        self.arcs.append([v, cap_uv])
        self.arcs.append([u, cap_vu])
        self.adj[u].append(i)
        self.adj[v].append(i + 1)
        return i

    def max_flow(self, s: int, t: int) -> int:
        arcs = self.arcs
        adj = self.adj
        total = 0
        while True:
            parent_arc = [-1] * self.n
            parent_arc[s] = -2
            queue = deque([s])
            while queue:
                u = queue.popleft()
                if u == t:
                    break
                for ai in adj[u]:
                    head, residual = arcs[ai]
                    if residual > 0 and parent_arc[head] == -1:
                        parent_arc[head] = ai
                        queue.append(head)
            if parent_arc[t] == -1:
                return total
            # Find the bottleneck along the BFS path, then apply it.
            bottleneck = None
            v = t
            while v != s:
                ai = parent_arc[v]
                residual = arcs[ai][1]
                if bottleneck is None or residual < bottleneck:
                    bottleneck = residual
                v = arcs[ai ^ 1][0]
            v = t
            while v != s:
                ai = parent_arc[v]
                arcs[ai][1] -= bottleneck
                arcs[ai ^ 1][1] += bottleneck
                v = arcs[ai ^ 1][0]
            total += bottleneck


def max_flow(
    graph: MultiGraph,
    purchased: Iterable[str] | None = None,
) -> tuple[int, dict[str, tuple[int, int, int]]]:
    """Exact max source-sink flow of the purchased subgraph.

    ``purchased`` defaults to every edge. Returns the flow value and a
    per-edge directed assignment ``id -> (tail, head, amount)`` with only
    nonzero amounts listed.
    """
    s, t = graph.source, graph.sink
    if purchased is None:
        edges = list(graph.edges)
    else:
        edges = purchased_edges(graph, purchased)
    ids = _relabel([s, t, *(x for e in edges for x in (e.u, e.v))])
    net = _FlowNet(len(ids))
    fwd_index = {}
    for e in edges:
        fwd_index[e.id] = net.add_pair(ids[e.u], ids[e.v], e.capacity, e.capacity)
    value = net.max_flow(ids[s], ids[t])
    assignment: dict[str, tuple[int, int, int]] = {}
    for e in edges:
        ai = fwd_index[e.id]
        net_uv = e.capacity - net.arcs[ai][1]
        if net_uv > 0:
            assignment[e.id] = (e.u, e.v, net_uv)
        elif net_uv < 0:
            assignment[e.id] = (e.v, e.u, -net_uv)
    return value, assignment


def circulation_feasible(
    graph: MultiGraph,
    purchased: Iterable[str],
    residues: Mapping[int, int],
) -> bool:
    """Can the purchased subgraph route the given vertex residues?

    ``residues[v]`` is inflow minus outflow demanded at v (missing vertices
    demand 0); the values must sum to zero. Checked with a super-source
    feeding negative-residue vertices and a super-sink draining positive
    ones: feasible iff that auxiliary flow saturates.
    """
    total = 0
    for v, r in residues.items():
        if not (0 <= v < graph.vertex_count):
            raise ValueError(f"residue on unknown vertex {v}")
        total += r
    if total != 0:
        raise ValueError("residues must sum to zero")
    edges = purchased_edges(graph, purchased)
    ids = _relabel([*(x for e in edges for x in (e.u, e.v)), *residues])
    n = len(ids)
    net = _FlowNet(n + 2)
    super_source, super_sink = n, n + 1
    for e in edges:
        net.add_pair(ids[e.u], ids[e.v], e.capacity, e.capacity)
    need = 0
    for v, r in residues.items():
        if r < 0:
            net.add_pair(super_source, ids[v], -r, 0)
            need += -r
        elif r > 0:
            net.add_pair(ids[v], super_sink, r, 0)
    return net.max_flow(super_source, super_sink) == need


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    recomputed_cost: int
    recomputed_flow: int

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_solution(instance: ProblemInstance, solution: Solution) -> VerificationReport:
    """Independently recompute cost and flow and check the objective.

    Raises KeyError for unknown edge ids; all other problems are reported
    as failed checks, not exceptions.
    """
    edges = purchased_edges(instance.graph, solution.purchased)
    cost = sum(e.cost for e in edges)
    flow, _ = max_flow(instance.graph, solution.purchased)
    checks = [
        CheckResult(
            "cost-consistent",
            cost == solution.total_cost,
            f"recomputed {cost}, stated {solution.total_cost}",
        ),
        CheckResult(
            "flow-consistent",
            flow == solution.achieved_flow,
            f"recomputed {flow}, stated {solution.achieved_flow}",
        ),
    ]
    if instance.budget is not None:
        checks.append(
            CheckResult(
                "within-budget",
                cost <= instance.budget,
                f"cost {cost} vs budget {instance.budget}",
            )
        )
    else:
        checks.append(
            CheckResult(
                "meets-demand",
                flow >= instance.demand,
                f"flow {flow} vs demand {instance.demand}",
            )
        )
    return VerificationReport(tuple(checks), cost, flow)


def solution_from_edges(instance: ProblemInstance, edge_ids: Iterable[str]) -> Solution:
    """Build a Solution with exact recomputed cost and flow."""
    ids = frozenset(edge_ids)
    edges = purchased_edges(instance.graph, ids)
    cost = sum(e.cost for e in edges)
    flow, _ = max_flow(instance.graph, ids)
    return Solution(purchased=ids, total_cost=cost, achieved_flow=flow)
