"""Approximation scheme for the budget-constrained max flow problem.

The exact solver's work grows with the flow bound F, which is exponential
in the bit length of the capacities. The scheme here keeps runs polynomial:
with accuracy eps, set eps' = min(1, eps/3) and R = ceil(m/eps'). For a
scale level M, copy the instance with each capacity u_e replaced by
floor(m*u_e/(M*eps')) and ask whether some subset within budget supports a
flow of R in that copy; that probe is the exact solver's pinned build, on
the scaled copy with the instance's tree rebound to it (the decomposition
reads no capacity), and its work depends on R, not F. The answer is
monotone along the geometric ladder M = (1+eps')^j: YES is guaranteed
whenever M <= OPT/(1+eps'), and a YES certifies a true flow of at least M.
So the largest YES level M' has a witness whose true max flow is at least
M' >= OPT/(1+eps')^2 >= OPT/(1+eps).

The ladder is bracketed before any probe. LB, the largest bottleneck
capacity of a source-sink path costing at most B, satisfies
LB <= OPT <= m*LB: buying that path carries LB, and an optimal flow splits
into at most m paths inside the purchase, each within budget and so
carrying at most LB. Every rung with M <= LB/(1+eps') is therefore YES and
every rung above min(F, m*LB) is NO, which leaves about
log_{1+eps'}(m*(1+eps')) rungs to search whatever the size of the
capacities. Three regimes follow:

- F <= R: the pseudopolynomial search is already polynomial, so the
  exact solvers' own budget search answers, with no ladder probe: the
  answer is :func:`~spnd.dp.solve_bcmfp`'s.
- LB < 1+eps': LB = 0 settles OPT = 0 without a probe. Otherwise the
  ladder starts with a probe at M = 1; a NO there certifies
  OPT < 1+eps' <= 2, so the exact solvers' search under the flow bound 1
  (one build pinned at 1) settles the optimum.
- LB >= 1+eps': a binary search over the rungs above the last one known to
  be YES. If it settles on that rung without probing it, one probe there
  yields its witness, so M' always carries the witness of its own probe.

Everything is computed in exact rational arithmetic: eps enters as a
Fraction, ladder levels are Fraction powers, and the scaled capacities are
exact integer floors, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from heapq import heappop, heappush

from .decompose import DecompTree, decompose
from .dp import _check_inputs, _rechecked, _solve, feasible_detailed, last_accepted, upper_bound_flow
from .flow import solution_from_edges
from .instance import EdgeRecord, MultiGraph, ProblemInstance, Solution


@dataclass(frozen=True)
class ScaleParams:
    """Derived accuracy parameters shared by every probe of one run."""

    epsilon: Fraction
    epsilon_prime: Fraction
    target_r: int  # probe flow target, ceil(m/epsilon_prime)

    @staticmethod
    def for_instance(m: int, epsilon) -> "ScaleParams":
        eps = as_fraction(epsilon)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        eps_prime = min(Fraction(1), eps / 3)
        target_r = -((-m * eps_prime.denominator) // eps_prime.numerator)
        return ScaleParams(eps, eps_prime, target_r)


def as_fraction(value) -> Fraction:
    """Exact rational from int, Fraction, decimal string, or 'p/q' string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has a zero denominator") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scale_capacities(graph: MultiGraph, m_level, epsilon_prime) -> dict[str, int]:
    """Scaled capacity floor(m * u_e / (M * eps')) per edge, exactly."""
    m_level = as_fraction(m_level)
    epsilon_prime = as_fraction(epsilon_prime)
    if m_level < 1:
        raise ValueError("scale level M must be at least 1")
    m, d = graph.edge_count, m_level * epsilon_prime
    return {edge.id: m * edge.capacity * d.denominator // d.numerator for edge in graph.edges}


@dataclass(frozen=True)
class ProbeRecord:
    """One ladder rung's feasibility query: its level, answer, and the

    number of admissible DP states the pinned build used."""

    level: Fraction
    flow_target: int
    yes: bool
    states: int


@dataclass(frozen=True)
class FptasOutcome:
    solution: Solution
    params: ScaleParams
    f_bound: int
    exact: bool  # answer is provably optimal, not just (1+eps)-approximate
    m_prime: Fraction | None  # chosen ladder level, None on exact paths
    probes: tuple[ProbeRecord, ...]

    @property
    def guarantee_bound(self) -> Fraction:
        """Certified upper bound on OPT: flow * (1 + eps)."""
        return Fraction(self.solution.achieved_flow) * (1 + self.params.epsilon)


def _ladder_top(ratio: Fraction, f_bound: int) -> int:
    """Largest j with ratio**j <= f_bound (ratio > 1, f_bound >= 1)."""
    guess = max(0, int(math.log(f_bound) / math.log(float(ratio))))
    while ratio**guess <= f_bound:
        guess += 1
    while guess > 0 and ratio**guess > f_bound:
        guess -= 1
    return guess


def widest_path_within_budget(graph: MultiGraph, budget: int) -> int:
    """The largest bottleneck capacity of a source-sink path that costs at

    most ``budget``, or 0 if no such path carries flow. A binary search over
    the distinct positive capacities asks, for each candidate c, whether a
    cheapest path (Dijkstra) over the edges of capacity >= c reaches the
    sink within budget: O(m log^2 m) in all."""
    adj: defaultdict[int, list[tuple[int, int, int]]] = defaultdict(list)
    for e in graph.edges:
        adj[e.u].append((e.v, e.cost, e.capacity))
        adj[e.v].append((e.u, e.cost, e.capacity))

    def affordable(floor: int) -> bool:
        dist = {graph.source: 0}
        heap = [(0, graph.source)]
        while heap:
            d, u = heappop(heap)
            if u == graph.sink:
                return True
            if d > dist[u]:
                continue
            for v, cost, capacity in adj[u]:
                nd = d + cost
                if capacity >= floor and nd <= budget and nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        return False

    capacities = sorted({e.capacity for e in graph.edges if e.capacity > 0})
    k, _ = last_accepted(len(capacities), lambda k: (affordable(capacities[k - 1]), None))
    return capacities[k - 1] if k else 0


def fptas_bcmfp_detailed(
    instance: ProblemInstance, epsilon, *, tree: DecompTree | None = None
) -> FptasOutcome:
    if instance.budget is None:
        raise ValueError("instance has no budget")
    _check_inputs(instance, tree)
    graph = instance.graph
    params = ScaleParams.for_instance(graph.edge_count, epsilon)
    if tree is None:
        tree = decompose(graph)
    budget = instance.budget
    f_bound = upper_bound_flow(instance)
    probes: list[ProbeRecord] = []
    ratio = 1 + params.epsilon_prime

    def rung(j: int):
        """The probe at ladder level M = ratio**j, on a copy of the instance

        with the scaled capacities: its answer, and on YES the witness with
        its table cost."""
        level = ratio**j
        caps = scale_capacities(graph, level, params.epsilon_prime)
        edges = tuple(EdgeRecord(e.id, e.u, e.v, e.cost, caps[e.id]) for e in graph.edges)
        scaled = replace(graph, edges=edges)
        ok, witness, stats = feasible_detailed(
            replace(instance, graph=scaled), budget, params.target_r, tree=replace(tree, graph=scaled)
        )
        probes.append(ProbeRecord(level, params.target_r, ok, stats["states"]))
        return ok, (witness, stats["cost"])

    def ladder_search(low: int, top: int, accepted) -> tuple[Fraction, Solution]:
        """The largest YES level in [ratio**low, ratio**top] and its witness,

        given that rung ``low`` is YES; ``accepted`` is its witness when it
        has been probed already."""
        k, found = last_accepted(top - low, lambda k: rung(low + k))
        found = found or accepted
        if found is None:
            ok, found = rung(low)
            if not ok:
                raise RuntimeError(f"ladder level {ratio**low} <= LB/(1+eps') answered NO")
        m_prime = ratio ** (low + k)
        # A YES at level M certifies a true flow of at least M.
        edges, cost = found
        return m_prime, _rechecked(instance, cost, edges, m_prime)

    m_prime: Fraction | None = None  # stays None on the exact paths
    if f_bound <= params.target_r:
        solution = _solve(instance, tree, None, f_bound)[0]
    else:
        lb = widest_path_within_budget(graph, budget)
        if lb == 0:
            # No affordable path carries flow, so OPT = 0.
            solution = _rechecked(instance, 0, frozenset(), 0)
        else:
            # OPT <= m*LB, so every rung above min(F, m*LB) answers NO.
            top = _ladder_top(ratio, min(f_bound, graph.edge_count * lb))
            if lb >= ratio:
                # Every rung with M <= LB/(1+eps') answers YES; the last of
                # them is one below the top rung under LB.
                m_prime, solution = ladder_search(_ladder_top(ratio, lb) - 1, top, None)
            else:
                ok0, accepted = rung(0)
                if ok0:
                    m_prime, solution = ladder_search(0, top, accepted)
                else:
                    # NO at M=1 certifies OPT < 1+eps' <= 2, so the exact
                    # search under the flow bound 1 decides between 0 and 1.
                    solution = _solve(instance, tree, None, 1)[0]

    # Buying everything is the best possible answer whenever it is
    # affordable; prefer it if the scheme's witness fell short of it.
    if graph.total_cost() <= budget:
        everything = solution_from_edges(instance, frozenset(e.id for e in graph.edges))
        if everything.achieved_flow > solution.achieved_flow:
            solution = everything

    return FptasOutcome(
        solution=solution,
        params=params,
        f_bound=f_bound,
        exact=m_prime is None,
        m_prime=m_prime,
        probes=tuple(probes),
    )


def fptas_bcmfp(
    instance: ProblemInstance, epsilon, *, tree: DecompTree | None = None
) -> Solution:
    """Budget-feasible purchase with flow * (1 + eps) >= OPT guaranteed."""
    return fptas_bcmfp_detailed(instance, epsilon, tree=tree).solution
