"""Brute-force ground truth and a seeded instance generator.

The oracle enumerates every edge subset (guarded to 20 edges), so it shares
nothing with the dynamic program beyond the max-flow primitive. Subsets are
visited in Gray-code order so the running cost is maintained incrementally;
max flow is recomputed from scratch per subset.
"""

from __future__ import annotations

import random

from .errors import InfeasibleError
from .flow import max_flow
from .instance import EdgeRecord, MultiGraph, ProblemInstance, Solution, _reject_upgrades

ORACLE_EDGE_LIMIT = 20


def _guard(graph: MultiGraph) -> None:
    if graph.edge_count > ORACLE_EDGE_LIMIT:
        raise ValueError(
            f"oracle enumerates 2^m subsets; {graph.edge_count} edges exceeds "
            f"the limit of {ORACLE_EDGE_LIMIT}"
        )


def _gray_subsets(graph: MultiGraph):
    """Yield (mask, purchased ids, cost) over all subsets, one flip at a time."""
    edges = graph.edges
    purchased: set[str] = set()
    cost = 0
    yield 0, purchased, 0
    prev = 0
    for i in range(1, 1 << len(edges)):
        gray = i ^ (i >> 1)
        bit = gray ^ prev
        idx = bit.bit_length() - 1
        edge = edges[idx]
        if gray & bit:
            purchased.add(edge.id)
            cost += edge.cost
        else:
            purchased.remove(edge.id)
            cost -= edge.cost
        prev = gray
        yield gray, purchased, cost


def subset_profiles(graph: MultiGraph) -> list[tuple[int, int]]:
    """(cost, max flow) for every subset, indexed by edge bitmask."""
    _guard(graph)
    out: list[tuple[int, int]] = [(0, 0)] * (1 << graph.edge_count)
    for mask, purchased, cost in _gray_subsets(graph):
        flow, _ = max_flow(graph, purchased)
        out[mask] = (cost, flow)
    return out


def _ids_of(graph: MultiGraph, mask: int) -> tuple[str, ...]:
    return tuple(sorted(graph.edges[i].id for i in range(graph.edge_count) if mask >> i & 1))


def _solution(instance: ProblemInstance, mask: int, cost: int, flow: int) -> Solution:
    ids = _ids_of(instance.graph, mask)
    return Solution(purchased=frozenset(ids), total_cost=cost, achieved_flow=flow)


def oracle_capndp(instance: ProblemInstance) -> Solution:
    """Minimum-cost subset with max flow >= demand, by exhaustive search.

    Ties prefer fewer edges, then the lexicographically smallest sorted id
    tuple, so the answer is deterministic.
    """
    if instance.demand is None:
        raise ValueError("instance has no demand")
    _reject_upgrades(instance)
    graph = instance.graph
    _guard(graph)
    demand = instance.demand
    best: tuple[int, int, int] | None = None  # (cost, popcount, mask)
    for mask, purchased, cost in _gray_subsets(graph):
        flow, _ = max_flow(graph, purchased)
        if flow < demand:
            continue
        count = len(purchased)
        if best is None or (cost, count) < best[:2]:
            best = (cost, count, mask)
        elif (cost, count) == best[:2] and _ids_of(graph, mask) < _ids_of(graph, best[2]):
            best = (cost, count, mask)
    if best is None:
        raise InfeasibleError(f"no edge subset reaches flow {demand}")
    cost, _, mask = best
    flow, _ = max_flow(graph, _ids_of(graph, mask))
    return _solution(instance, mask, cost, flow)


def oracle_bcmfp(instance: ProblemInstance) -> Solution:
    """Max-flow subset within budget, by exhaustive search.

    Ties prefer lower cost, then fewer edges, then lexicographic ids.
    """
    if instance.budget is None:
        raise ValueError("instance has no budget")
    _reject_upgrades(instance)
    graph = instance.graph
    _guard(graph)
    budget = instance.budget
    best: tuple[int, int, int, int] | None = None  # (-flow, cost, popcount, mask)
    for mask, purchased, cost in _gray_subsets(graph):
        if cost > budget:
            continue
        flow, _ = max_flow(graph, purchased)
        key = (-flow, cost, len(purchased))
        if best is None or key < best[:3]:
            best = (*key, mask)
        elif key == best[:3] and _ids_of(graph, mask) < _ids_of(graph, best[3]):
            best = (*key, mask)
    if best is None:  # the empty subset qualifies at any budget >= 0
        raise ValueError(f"no purchase fits budget {budget}")
    neg_flow, cost, _, mask = best
    return _solution(instance, mask, cost, -neg_flow)


def generate_sp(
    seed: int,
    edge_budget: int = 8,
    cap_max: int = 6,
    cost_max: int = 10,
    problem: str = "bcmfp",
) -> ProblemInstance:
    """Random series-parallel instance, deterministic per seed.

    Draws an edge count in [edge_budget//2, edge_budget] (at least 1),
    composes that many single edges with a random binary series/parallel
    tree (so the output is SP by construction, terminals 0 and 1), assigns
    uniform costs in [0, cost_max] and capacities in [1, cap_max], places
    source and sink uniformly among all distinct vertex pairs (interior
    placements included on purpose), and attaches a uniform budget in
    [0, total cost] or demand in [0, F]. The series bias and size floor are
    tuned so that a 500-seed sweep at edge_budget=10 exercises every
    structural combination case of the solver at least once.
    """
    if edge_budget < 1:
        raise ValueError("edge budget must be at least 1")
    if cap_max < 1:
        raise ValueError(f"cap_max must be at least 1, got {cap_max}")
    if cost_max < 0:
        raise ValueError(f"cost_max cannot be negative, got {cost_max}")
    if problem not in ("bcmfp", "capndp"):
        raise ValueError(f"unknown problem {problem!r}")
    rng = random.Random(seed)
    m = rng.randint(max(1, edge_budget // 2), edge_budget)

    def compose(count: int):
        if count == 1:
            return None
        k = rng.randint(1, count - 1)
        kind = "series" if rng.random() < 0.55 else "parallel"
        return (kind, compose(k), compose(count - k))

    shape = compose(m)
    endpoints: list[tuple[int, int]] = []
    next_vertex = 2

    def materialize(node, a: int, b: int) -> None:
        nonlocal next_vertex
        if node is None:
            endpoints.append((a, b))
            return
        kind, left, right = node
        if kind == "series":
            c = next_vertex
            next_vertex += 1
            materialize(left, a, c)
            materialize(right, c, b)
        else:
            materialize(left, a, b)
            materialize(right, a, b)

    materialize(shape, 0, 1)
    edges = tuple(
        EdgeRecord(
            id=f"e{i + 1}",
            u=u,
            v=v,
            cost=rng.randint(0, cost_max),
            capacity=rng.randint(1, cap_max),
        )
        for i, (u, v) in enumerate(endpoints)
    )
    n = next_vertex
    s = rng.randrange(n)
    t = rng.randrange(n - 1)
    if t >= s:
        t += 1
    graph = MultiGraph(
        vertex_count=n,
        edges=edges,
        source=s,
        sink=t,
        declared_terminals=(0, 1),
    )
    if problem == "bcmfp":
        return ProblemInstance(graph, budget=rng.randint(0, graph.total_cost()))
    f_bound, _ = max_flow(graph)
    return ProblemInstance(graph, demand=rng.randint(0, f_bound))
