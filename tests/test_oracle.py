"""Brute-force oracle and instance generator.

The oracle is the ground truth every solver test leans on, so its own
expectations come only from hand enumeration of subsets on tiny graphs,
never from the solver.
"""

import pytest

from spnd import (
    InfeasibleError,
    MultiGraph,
    EdgeRecord,
    ProblemInstance,
    decompose,
    format_instance,
    generate_sp,
    oracle_bcmfp,
    oracle_capndp,
    subset_profiles,
)
from spnd.flow import verify_solution
from spnd.oracle import ORACLE_EDGE_LIMIT


def test_diamond_subset_profiles(diamond):
    # All 8 subsets by hand; mask bit i = i-th edge of the graph.
    # {} -, {e1} dead end, {e2} dead end, {e1,e2} 2-unit path,
    # {e3} direct unit, {e1,e3} 1, {e2,e3} 1, all three 3.
    assert subset_profiles(diamond.graph) == [
        (0, 0),
        (1, 0),
        (1, 0),
        (2, 2),
        (3, 1),
        (4, 1),
        (4, 1),
        (5, 3),
    ]


def test_capndp_single_edge(single_edge):
    sol = oracle_capndp(single_edge.with_demand(7))
    assert sol.total_cost == 5
    assert sol.purchased == frozenset({"e1"})
    assert sol.achieved_flow == 7


def test_capndp_single_edge_infeasible(single_edge):
    with pytest.raises(InfeasibleError):
        oracle_capndp(single_edge.with_demand(8))


def test_capndp_diamond(diamond):
    sol = oracle_capndp(diamond.with_demand(1))
    assert sol.total_cost == 2
    assert sol.purchased == frozenset({"e1", "e2"})
    sol3 = oracle_capndp(diamond.with_demand(3))
    assert sol3.total_cost == 5
    assert sol3.purchased == frozenset({"e1", "e2", "e3"})
    sol0 = oracle_capndp(diamond.with_demand(0))
    assert sol0.total_cost == 0
    assert sol0.purchased == frozenset()


def test_bcmfp_diamond(diamond):
    sol = oracle_bcmfp(diamond.with_budget(2))
    assert (sol.achieved_flow, sol.total_cost) == (2, 2)
    sol0 = oracle_bcmfp(diamond.with_budget(0))
    assert (sol0.achieved_flow, sol0.purchased) == (0, frozenset())
    sol5 = oracle_bcmfp(diamond.with_budget(5))
    assert sol5.achieved_flow == 3


def test_bcmfp_ring(ring):
    sol = oracle_bcmfp(ring.with_budget(4))
    assert sol.achieved_flow == 3
    assert sol.purchased == frozenset({"e1", "e2", "e3", "e4"})


def test_edge_limit_guard():
    m = ORACLE_EDGE_LIMIT + 1
    edges = tuple(EdgeRecord(f"e{i}", 0, 1, 1, 1) for i in range(m))
    graph = MultiGraph(vertex_count=2, edges=edges, source=0, sink=1)
    inst = ProblemInstance(graph=graph, budget=3, demand=None, upgrades=())
    with pytest.raises(ValueError):
        oracle_bcmfp(inst)
    with pytest.raises(ValueError):
        oracle_capndp(inst.with_demand(1))


def _two_vertex_instance(edge_specs, budget=None, demand=None):
    edges = tuple(EdgeRecord(eid, 0, 1, c, u) for eid, c, u in edge_specs)
    graph = MultiGraph(vertex_count=2, edges=edges, source=0, sink=1)
    return ProblemInstance(graph=graph, budget=budget, demand=demand, upgrades=())


def test_tie_break_prefers_lexicographically_smaller_ids():
    # Two identical parallel edges: either one alone is optimal.
    inst = _two_vertex_instance([("a2", 2, 1), ("a1", 2, 1)], demand=1)
    assert oracle_capndp(inst).purchased == frozenset({"a1"})
    inst_b = _two_vertex_instance([("a2", 2, 1), ("a1", 2, 1)], budget=2)
    assert oracle_bcmfp(inst_b).purchased == frozenset({"a1"})


def test_tie_break_prefers_fewer_edges():
    # One fat edge vs two thin ones at the same total cost and flow.
    inst = _two_vertex_instance(
        [("big", 2, 2), ("p1", 1, 1), ("p2", 1, 1)], demand=2
    )
    assert oracle_capndp(inst).purchased == frozenset({"big"})


@pytest.mark.parametrize("problem", ["bcmfp", "capndp"])
def test_oracle_solutions_pass_verification(problem):
    for seed in range(1, 31):
        inst = generate_sp(seed, edge_budget=6, problem=problem)
        if problem == "bcmfp":
            sol = oracle_bcmfp(inst)
        else:
            sol = oracle_capndp(inst)
        report = verify_solution(inst, sol)
        assert report.ok, f"seed {seed}: {report}"


def test_generator_determinism():
    for seed in range(1, 51):
        a = format_instance(generate_sp(seed, edge_budget=8))
        b = format_instance(generate_sp(seed, edge_budget=8))
        assert a == b, f"seed {seed} not reproducible"


def test_generator_output_is_series_parallel():
    for seed in range(1, 101):
        inst = generate_sp(seed, edge_budget=8)
        tree = decompose(inst.graph)
        assert tree.leaf_count() == inst.graph.edge_count


def test_generator_single_edge_base():
    for seed in range(1, 11):
        inst = generate_sp(seed, edge_budget=1)
        assert inst.graph.edge_count == 1


def test_generator_covers_interior_source_and_sink():
    # The generator's terminals are always (0, 1); source/sink land anywhere,
    # so a modest sweep must include instances with both strictly interior.
    both_interior = 0
    for seed in range(1, 101):
        inst = generate_sp(seed, edge_budget=8)
        g = inst.graph
        if g.source not in (0, 1) and g.sink not in (0, 1):
            both_interior += 1
    assert both_interior >= 1


def test_generator_fields_in_range():
    for seed in range(1, 61):
        inst = generate_sp(seed, edge_budget=7, cap_max=5, cost_max=9)
        g = inst.graph
        assert 1 <= g.edge_count <= 7
        for e in g.edges:
            assert 0 <= e.cost <= 9
            assert 1 <= e.capacity <= 5
        assert g.declared_terminals == (0, 1)
        assert g.source != g.sink
        assert inst.budget is not None
        assert 0 <= inst.budget <= g.total_cost()


def test_generator_demand_mode_and_validation():
    inst = generate_sp(5, edge_budget=6, problem="capndp")
    assert inst.demand is not None and inst.budget is None
    with pytest.raises(ValueError):
        generate_sp(1, edge_budget=0)
    with pytest.raises(ValueError):
        generate_sp(1, problem="maxcut")


@pytest.mark.parametrize(
    "kwargs,fragment",
    [({"cap_max": 0}, "cap_max"), ({"cap_max": -3}, "cap_max"), ({"cost_max": -2}, "cost_max")],
)
def test_generator_refuses_empty_value_ranges(kwargs, fragment):
    # No capacity in [1, cap_max] or cost in [0, cost_max] to draw from.
    with pytest.raises(ValueError, match=fragment):
        generate_sp(1, **kwargs)


def test_generator_draws_at_the_range_ends():
    for seed in range(1, 21):
        g = generate_sp(seed, edge_budget=6, cap_max=1, cost_max=0).graph
        assert {(e.cost, e.capacity) for e in g.edges} == {(0, 1)}
