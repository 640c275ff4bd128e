"""Capacity-scaling approximation scheme for the budgeted problem."""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from spnd import (
    EdgeRecord,
    MultiGraph,
    ProblemInstance,
    decompose,
    feasible,
    fptas_bcmfp,
    fptas_bcmfp_detailed,
    generate_sp,
    oracle_bcmfp,
    solve_bcmfp,
    upper_bound_flow,
)
from spnd.flow import verify_solution
from spnd.fptas import ScaleParams, _ladder_top, as_fraction, scale_capacities, widest_path_within_budget

from sp_strategies import FixedDraws, paths_apart, tiny_instances, with_capacities


def _instance(edge_specs, budget, vertex_count=None):
    edges = tuple(EdgeRecord(eid, u, v, c, cap) for eid, u, v, c, cap in edge_specs)
    n = vertex_count
    if n is None:
        n = max(max(e.u, e.v) for e in edges) + 1
    graph = MultiGraph(vertex_count=n, edges=edges, source=0, sink=n - 1)
    return ProblemInstance(graph=graph, budget=budget, demand=None, upgrades=())


# -- parameters and scaling -------------------------------------------------


def test_scale_params():
    p = ScaleParams.for_instance(3, 1)
    assert p.epsilon == 1
    assert p.epsilon_prime == Fraction(1, 3)
    assert p.target_r == 9

    assert ScaleParams.for_instance(3, 3).epsilon_prime == 1
    assert ScaleParams.for_instance(3, 3).target_r == 3
    assert ScaleParams.for_instance(10, "0.1").target_r == 300
    # Ceiling must round up: 2 / (4/15) = 7.5 -> 8.
    assert ScaleParams.for_instance(2, Fraction(4, 5)).target_r == 8

    with pytest.raises(ValueError):
        ScaleParams.for_instance(3, 0)
    with pytest.raises(ValueError):
        ScaleParams.for_instance(3, -1)


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 10**15))
def test_ladder_top_is_the_last_rung_within_the_bound(step, q, f_bound):
    ratio = Fraction(q + step, q)
    j = _ladder_top(ratio, f_bound)
    assert ratio**j <= f_bound < ratio ** (j + 1)


def test_as_fraction_forms():
    assert as_fraction(2) == Fraction(2)
    assert as_fraction(0.5) == Fraction(1, 2)
    # Floats go through their decimal rendering, not their binary expansion.
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction("0.25") == Fraction(1, 4)
    assert as_fraction(Fraction(7, 5)) == Fraction(7, 5)


@pytest.mark.parametrize("text", ["1/0", "0/0"])
def test_as_fraction_refuses_a_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction(text)


def test_scale_capacities_examples():
    three = _instance(
        [("e1", 0, 1, 1, 9), ("e2", 1, 2, 1, 4), ("e3", 0, 2, 1, 2)], budget=3
    )
    scaled = scale_capacities(three.graph, 3, 1)
    assert scaled["e1"] == 9  # floor(3*9 / (3*1))
    scaled2 = scale_capacities(three.graph, 2, Fraction(1, 2))
    assert scaled2["e1"] == 27  # floor(3*9 / (2*(1/2)))

    four = _instance(
        [
            ("e1", 0, 1, 1, 10**6),
            ("e2", 1, 2, 1, 10**6),
            ("e3", 2, 3, 1, 10**6),
            ("e4", 0, 3, 1, 10**6),
        ],
        budget=4,
    )
    scaled3 = scale_capacities(four.graph, 5 * 10**5, Fraction(1, 3))
    assert scaled3["e1"] == 24  # floor(4*10^6 / (5*10^5 / 3))


def test_scale_capacities_floors_exactly():
    inst = _instance(
        [("e1", 0, 1, 1, 7), ("e2", 0, 1, 1, 7), ("e3", 0, 1, 1, 7)], budget=3
    )
    scaled = scale_capacities(inst.graph, 2, Fraction(2, 3))
    assert scaled["e1"] == 15  # 3*7 / (2*2/3) = 15.75


# -- small exact-path cases -------------------------------------------------


def test_small_instances_take_the_exact_path(diamond):
    # With tiny capacities the flow bound is at most the query target, so
    # the scheme answers exactly without any scaled probes.
    outcome = fptas_bcmfp_detailed(diamond.with_budget(5), 1)
    assert outcome.exact and outcome.m_prime is None
    assert outcome.solution.achieved_flow == 3
    assert outcome.solution.total_cost == 5

    outcome2 = fptas_bcmfp_detailed(diamond.with_budget(2), 0.5)
    assert outcome2.exact
    assert outcome2.solution.achieved_flow == 2


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), 1])
def test_exact_regime_is_the_exact_solvers_answer(epsilon):
    # With F <= R the scheme's exact answer is solve_bcmfp's own search, so
    # it is the same purchase, ties included, and makes no ladder probe.
    # Seed 53 has two optima at flow 0: the empty purchase and {e2, e3}.
    checked = 0
    for seed in range(1, 101):
        inst = generate_sp(seed, edge_budget=8, cap_max=6, cost_max=10, problem="bcmfp")
        if upper_bound_flow(inst) > ScaleParams.for_instance(inst.graph.edge_count, epsilon).target_r:
            continue
        outcome = fptas_bcmfp_detailed(inst, epsilon)
        assert outcome.exact, seed
        assert outcome.solution == solve_bcmfp(inst), seed
        assert outcome.probes == (), seed
        checked += seed == 53
    assert checked == 1


def test_rejects_bad_inputs(diamond):
    with pytest.raises(ValueError):
        fptas_bcmfp(diamond, 0.5)  # demand instance
    with pytest.raises(ValueError):
        fptas_bcmfp(diamond.with_budget(2), 0)


def test_flow_one_decision_after_failed_first_level():
    # Free two-edge path of capacity 1 next to an unaffordable fat edge:
    # the first scaled probe says NO, which certifies the optimum is 0 or 1,
    # and one exact probe at flow value 1 settles it.
    inst = _instance(
        [("e1", 0, 1, 0, 1), ("e2", 1, 2, 0, 1), ("e3", 0, 2, 100, 100)],
        budget=0,
    )
    outcome = fptas_bcmfp_detailed(inst, Fraction(4, 5))
    assert outcome.params.epsilon_prime == Fraction(4, 15)
    assert outcome.params.target_r == 12
    assert outcome.f_bound == 101
    first = outcome.probes[0]
    assert first.level == 1 and not first.yes
    assert outcome.exact and outcome.m_prime is None
    assert outcome.solution.achieved_flow == 1
    assert outcome.solution.purchased == frozenset({"e1", "e2"})
    assert oracle_bcmfp(inst).achieved_flow == 1


# -- ladder behavior ---------------------------------------------------------


LADDER_INSTANCE = [("e1", 0, 1, 5, 100), ("e2", 0, 1, 1, 30)]


def test_ladder_probe_levels_are_consistent():
    inst = _instance(LADDER_INSTANCE, budget=5)
    outcome = fptas_bcmfp_detailed(inst, 1)
    assert not outcome.exact and outcome.m_prime is not None
    yes_levels = [p.level for p in outcome.probes if p.yes and p.level is not None]
    no_levels = [p.level for p in outcome.probes if not p.yes and p.level is not None]
    assert max(yes_levels) == outcome.m_prime
    assert all(y < n for y in yes_levels for n in no_levels)
    assert outcome.solution.achieved_flow >= outcome.m_prime


def test_ladder_answers_are_monotone():
    # Recompute the whole YES/NO ladder by hand: a YES can never follow a NO.
    inst = _instance(LADDER_INSTANCE, budget=5)
    params = ScaleParams.for_instance(2, as_fraction(1))
    ratio = 1 + params.epsilon_prime
    f = upper_bound_flow(inst)
    tree = decompose(inst.graph)
    answers = []
    level = Fraction(1)
    while level <= f:
        caps = scale_capacities(inst.graph, level, params.epsilon_prime)
        scaled, scaled_tree = with_capacities(inst, caps), with_capacities(tree, caps)
        ok, _ = feasible(scaled, inst.budget, params.target_r, tree=scaled_tree)
        answers.append(ok)
        level *= ratio
    assert answers[0] is True
    assert answers == sorted(answers, reverse=True), "YES prefix then NO suffix"
    # The scheme's chosen level is the last YES rung of that ladder.
    outcome = fptas_bcmfp_detailed(inst, 1)
    last_yes = max(i for i, ok in enumerate(answers) if ok)
    assert outcome.m_prime == ratio**last_yes


def test_guarantee_on_ladder_instance():
    inst = _instance(
        [("e1", 0, 1, 5, 10**6), ("e2", 0, 1, 1, 300)], budget=5
    )
    outcome = fptas_bcmfp_detailed(inst, 1)
    sol = outcome.solution
    assert sol.total_cost <= 5
    assert sol.achieved_flow * 2 >= 10**6
    assert outcome.guarantee_bound >= 10**6


def test_buying_everything_when_affordable():
    for seed in range(1, 31):
        inst = generate_sp(seed, edge_budget=8, cap_max=10**5)
        inst = inst.with_budget(inst.graph.total_cost())
        sol = fptas_bcmfp(inst, 0.5)
        assert sol.achieved_flow == upper_bound_flow(inst), f"seed {seed}"


@pytest.mark.parametrize("epsilon", ["0.1", "1"])
def test_guarantee_sweep(epsilon):
    eps = as_fraction(epsilon)
    for seed in range(1, 41):
        inst = generate_sp(seed, edge_budget=8, cap_max=10**4)
        sol = fptas_bcmfp(inst, eps)
        report = verify_solution(inst, sol)
        assert report.ok, f"seed {seed}: {report}"
        opt = oracle_bcmfp(inst).achieved_flow
        assert sol.achieved_flow * (1 + eps) >= opt, (
            f"seed {seed}: flow {sol.achieved_flow} too far below {opt}"
        )


def _all_cuts(graph):
    others = [v for v in range(graph.vertex_count) if v not in (graph.source, graph.sink)]
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            yield {graph.source, *extra}


@pytest.mark.parametrize("seed", range(1, 21))
def test_scaled_cuts_cover_target_below_opt(seed):
    # Any level at or below OPT/(1+eps') must scale the optimal edge set so
    # that every cut still carries the probe target: that is what makes the
    # ladder's YES answers trustworthy. Checked by exhaustive cut enumeration.
    inst = generate_sp(seed, edge_budget=6, cap_max=6)
    params = ScaleParams.for_instance(inst.graph.edge_count, as_fraction("0.5"))
    best = oracle_bcmfp(inst)
    opt = best.achieved_flow
    threshold = Fraction(opt, 1) / (1 + params.epsilon_prime)
    if threshold < 1:
        pytest.skip("optimum too small for any scaled level")
    ratio = 1 + params.epsilon_prime
    level = Fraction(1)
    while level * ratio <= threshold:
        level *= ratio
    scaled = scale_capacities(inst.graph, level, params.epsilon_prime)
    for side in _all_cuts(inst.graph):
        crossing = sum(
            scaled[eid]
            for eid in best.purchased
            if (inst.graph.edge_by_id(eid).u in side)
            != (inst.graph.edge_by_id(eid).v in side)
        )
        assert crossing >= params.target_r, f"seed {seed}, cut {side}"


def test_wrapper_matches_detailed(diamond):
    inst = diamond.with_budget(5)
    assert fptas_bcmfp(inst, 1) == fptas_bcmfp_detailed(inst, 1).solution


# -- the widest-path bracket -------------------------------------------------


def test_widest_path_within_budget_examples():
    # Zero-cost edges: the free path 0-1-2 (bottleneck 3) is all budget 0 buys.
    free = _instance([("e1", 0, 1, 0, 5), ("e2", 1, 2, 0, 3), ("e3", 0, 2, 4, 9)], budget=0)
    assert widest_path_within_budget(free.graph, 0) == 3
    assert widest_path_within_budget(free.graph, 3) == 3
    assert widest_path_within_budget(free.graph, 4) == 9
    # Parallel edges: the widest affordable copy counts, not the cheapest.
    par = _instance([("a", 0, 1, 1, 2), ("b", 0, 1, 3, 7), ("c", 0, 1, 6, 50)], budget=0)
    assert [widest_path_within_budget(par.graph, b) for b in (0, 1, 2, 3, 5, 6)] == [0, 2, 2, 7, 7, 50]
    # A wide edge costs the budget twice over along a path: the narrower
    # but cheaper route wins.
    two = _instance(
        [("e1", 0, 1, 2, 100), ("e2", 1, 3, 2, 100), ("e3", 0, 2, 1, 4), ("e4", 2, 3, 1, 6)], budget=0
    )
    assert widest_path_within_budget(two.graph, 3) == 4
    assert widest_path_within_budget(two.graph, 4) == 100
    # Budget 0 with only priced edges, a zero-capacity path, and a sink
    # no edge reaches: nothing carries flow.
    assert widest_path_within_budget(par.graph, 0) == 0
    zero = _instance([("e1", 0, 1, 0, 0)], budget=0)
    assert widest_path_within_budget(zero.graph, 0) == 0
    apart = _instance([("e1", 0, 1, 0, 5)], budget=3, vertex_count=3)
    assert widest_path_within_budget(apart.graph, 3) == 0


def _wide_diamond(diamond, budget):
    """The diamond with every capacity times 100: F = 300 puts eps = 1/2

    past the exact regime (F <= R = 18)."""
    edges = tuple(replace(e, capacity=100 * e.capacity) for e in diamond.graph.edges)
    return replace(diamond, graph=replace(diamond.graph, edges=edges)).with_budget(budget)


def test_budget_that_buys_no_path_answers_without_probes(diamond):
    inst = _wide_diamond(diamond, 1)
    outcome = fptas_bcmfp_detailed(inst, "1/2")
    assert outcome.f_bound > outcome.params.target_r
    assert outcome.exact and outcome.m_prime is None
    assert outcome.probes == ()
    assert outcome.solution.purchased == frozenset()
    assert outcome.solution.achieved_flow == 0
    assert oracle_bcmfp(inst).achieved_flow == 0


def test_bracket_skips_the_lower_ladder(diamond):
    # LB = 200 (the path e1-e2 at cost 2), so every rung up to 200/(1+eps')
    # is known YES: no probe runs at those levels, and the chosen level has
    # a YES probe of its own.
    inst = _wide_diamond(diamond, 2)
    outcome = fptas_bcmfp_detailed(inst, "1/2")
    ratio = 1 + outcome.params.epsilon_prime
    assert not outcome.exact
    assert all(p.level > 200 / ratio**2 for p in outcome.probes)
    assert any(p.yes and p.level == outcome.m_prime for p in outcome.probes)
    assert outcome.solution.achieved_flow == 200


def _probe_bound(outcome, m: int) -> int:
    """Most probes a run can make, from m and eps' alone: a binary search

    over the exact flow values 0..R, or one rung-0 or known-YES probe plus a
    binary search over at most log_{1+eps'}(m(1+eps')) + 1 rungs."""
    params = outcome.params
    if outcome.f_bound <= params.target_r:
        return params.target_r.bit_length()
    ratio = 1 + params.epsilon_prime
    return 1 + (_ladder_top(ratio, m * ratio) + 1).bit_length()


def test_probe_count_does_not_grow_with_capacity_magnitude():
    most = {}
    for cap_max in (10**3, 10**12):
        counts = []
        for seed in range(1, 101):
            inst = generate_sp(seed, edge_budget=8, cap_max=cap_max, cost_max=10, problem="bcmfp")
            outcome = fptas_bcmfp_detailed(inst, Fraction(1, 2))
            assert len(outcome.probes) <= _probe_bound(outcome, inst.graph.edge_count), (cap_max, seed)
            counts.append(len(outcome.probes))
        most[cap_max] = max(counts)
    assert most[10**3] == most[10**12], most


_EPSILONS = st.sampled_from((Fraction(1, 10), Fraction(1, 2), Fraction(1), Fraction(3)))


@example(paths_apart(2, 3, budget=3))  # parallel:sL+tR
@example(paths_apart(3, 2, budget=3))  # parallel:sR+tL
@given(tiny_instances())
def test_widest_path_brackets_the_optimum(inst):
    lb = widest_path_within_budget(inst.graph, inst.budget)
    opt = oracle_bcmfp(inst).achieved_flow
    assert lb <= opt <= inst.graph.edge_count * lb


@example(paths_apart(2, 3, budget=3), Fraction(1, 10), FixedDraws(0))  # parallel:sL+tR
@example(paths_apart(3, 2, budget=3), Fraction(1, 10), FixedDraws(0))  # parallel:sR+tL
@given(tiny_instances(), _EPSILONS, st.data())
def test_rungs_below_the_bracket_answer_yes(inst, epsilon, data):
    params = ScaleParams.for_instance(inst.graph.edge_count, epsilon)
    ratio = 1 + params.epsilon_prime
    lb = widest_path_within_budget(inst.graph, inst.budget)
    if lb < ratio:
        return  # no rung lies at or below LB/(1+eps')
    low = _ladder_top(ratio, lb) - 1
    assert ratio**low <= lb / ratio < ratio ** (low + 1)
    for j in {low, data.draw(st.integers(0, low))}:
        caps = scale_capacities(inst.graph, ratio**j, params.epsilon_prime)
        ok, _ = feasible(with_capacities(inst, caps), inst.budget, params.target_r)
        assert ok, j


@example(paths_apart(2, 3, budget=3), Fraction(1, 2))  # parallel:sL+tR
@example(paths_apart(3, 2, budget=3), Fraction(1, 2))  # parallel:sR+tL
@given(tiny_instances(), _EPSILONS)
def test_fptas_meets_its_guarantee_on_tiny_graphs(inst, epsilon):
    sol = fptas_bcmfp(inst, epsilon)
    assert sol.total_cost <= inst.budget
    assert sol.achieved_flow * (1 + epsilon) >= oracle_bcmfp(inst).achieved_flow
