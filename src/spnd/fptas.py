"""Approximation scheme for the budget-constrained max flow problem.

The exact solver's work grows with the flow bound F, which is exponential
in the bit length of the capacities. The scheme here keeps runs polynomial:
with accuracy eps, set eps' = min(1, eps/3) and R = ceil(m/eps'). For a
scale level M, replace each capacity u_e by floor(m*u_e/(M*eps')) and ask
whether some subset within budget supports a flow of R under the scaled
capacities; that probe is a pinned single-query build whose work depends on
R, not F. The answer is monotone along the geometric ladder M = (1+eps')^j,
and YES is guaranteed whenever M <= OPT/(1+eps'), so a binary search for
the largest YES level M' yields a witness whose true max flow is at least
M' >= OPT/(1+eps')^2 >= OPT/(1+eps).

Everything is computed in exact rational arithmetic: eps enters as a
Fraction, ladder levels are Fraction powers, and the scaled capacities are
exact integer floors, so runs are bit-for-bit reproducible.

Two small regimes bypass the ladder with exact answers: when F <= R the
pseudopolynomial search is already polynomial and runs directly, and when
even ladder level M = 1 answers NO then OPT < 1 + eps' <= 2, so a single
exact probe at flow value 1 settles the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .decompose import DecompTree, decompose
from .dp import _rechecked, feasible_detailed, last_accepted, upper_bound_flow
from .flow import solution_from_edges
from .instance import MultiGraph, ProblemInstance, Solution


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
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scale_capacities(graph: MultiGraph, m_level, epsilon_prime) -> dict[str, int]:
    """Scaled capacity floor(m * u_e / (M * eps')) per edge, exactly."""
    m_level = as_fraction(m_level)
    epsilon_prime = as_fraction(epsilon_prime)
    if m_level < 1:
        raise ValueError("scale level M must be at least 1")
    m = graph.edge_count
    denom = m_level * epsilon_prime
    out = {}
    for edge in graph.edges:
        value = Fraction(m * edge.capacity) / denom
        out[edge.id] = value.numerator // value.denominator
    return out


@dataclass(frozen=True)
class ProbeRecord:
    """One feasibility query: ladder level (None for exact probes), answer,

    and the number of admissible DP states the pinned build used."""

    level: Fraction | None
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


def fptas_bcmfp_detailed(
    instance: ProblemInstance, epsilon, *, tree: DecompTree | None = None
) -> FptasOutcome:
    if instance.budget is None:
        raise ValueError("instance has no budget")
    graph = instance.graph
    params = ScaleParams.for_instance(graph.edge_count, epsilon)
    if tree is None:
        tree = decompose(graph)
    budget = instance.budget
    f_bound = upper_bound_flow(instance)
    probes: list[ProbeRecord] = []
    ratio = 1 + params.epsilon_prime

    def probe(flow_target: int, caps: Mapping[str, int] | None, level):
        """The answer, and on YES the witness with its table cost."""
        ok, edges, stats = feasible_detailed(
            instance, budget, flow_target, caps, tree=tree
        )
        probes.append(ProbeRecord(level, flow_target, ok, stats["states"]))
        return ok, (edges, stats["cost"])

    def exact_flow_search(hi: int) -> Solution:
        v, found = last_accepted(hi, lambda v: probe(v, None, None))
        edges, cost = found or (frozenset(), 0)
        return _rechecked(instance, cost, edges, v)

    def rung(j: int):
        """The probe at ladder level M = ratio**j."""
        level = ratio**j
        caps = scale_capacities(graph, level, params.epsilon_prime)
        return probe(params.target_r, caps, level)

    exact = False
    m_prime: Fraction | None = None
    if f_bound <= params.target_r:
        solution = exact_flow_search(f_bound)
        exact = True
    else:
        ok0, accepted = rung(0)
        if not ok0:
            # NO at M=1 certifies OPT < 1+eps' <= 2, so one exact probe at
            # flow value 1 decides between 0 and 1.
            solution = exact_flow_search(1)
            exact = True
        else:
            j, found = last_accepted(_ladder_top(ratio, f_bound), rung)
            m_prime = ratio**j
            # A YES at level M certifies a true flow of at least M.
            edges, cost = found or accepted
            solution = _rechecked(instance, cost, edges, m_prime)

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
        exact=exact,
        m_prime=m_prime,
        probes=tuple(probes),
    )


def fptas_bcmfp(
    instance: ProblemInstance, epsilon, *, tree: DecompTree | None = None
) -> Solution:
    """Budget-feasible purchase with flow * (1 + eps) >= OPT guaranteed."""
    return fptas_bcmfp_detailed(instance, epsilon, tree=tree).solution
