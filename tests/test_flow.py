"""Max flow, circulation feasibility, and solution verification."""

from itertools import combinations

import pytest

from spnd import (
    generate_sp,
    max_flow,
    parse_instance,
    solution_from_edges,
)
from spnd.flow import circulation_feasible, verify_solution
from spnd.instance import Solution

from conftest import HUGE_VERTEX_COUNT_TEXT


def test_max_flow_single_edge(single_edge):
    value, flows = max_flow(single_edge.graph, {"e1"})
    assert value == 7
    assert flows == {"e1": (0, 1, 7)}


def test_max_flow_diamond(diamond):
    assert max_flow(diamond.graph)[0] == 3
    assert max_flow(diamond.graph, {"e3"})[0] == 1
    assert max_flow(diamond.graph, {"e1"})[0] == 0
    assert max_flow(diamond.graph, set())[0] == 0


def test_max_flow_sizes_network_by_touched_vertices(small_flow_networks):
    graph = parse_instance(HUGE_VERTEX_COUNT_TEXT).graph
    assert max_flow(graph) == (1, {"e1": (0, 1, 1)})
    assert max_flow(graph, set()) == (0, {})
    assert circulation_feasible(graph, {"e1"}, {0: -1, 1: 1})
    assert not circulation_feasible(graph, {"e1"}, {0: -1, 999_999_999_999: 1})


def test_max_flow_assignment_is_consistent(diamond):
    g = diamond.graph
    value, flows = max_flow(g)
    caps = {e.id: e.capacity for e in g.edges}
    net = [0] * g.vertex_count
    for eid, (tail, head, amount) in flows.items():
        assert 0 < amount <= caps[eid]
        net[tail] -= amount
        net[head] += amount
    assert net[g.source] == -value
    assert net[g.sink] == value
    assert all(net[v] == 0 for v in range(g.vertex_count) if v not in (g.source, g.sink))


def _exhaustive_min_cut(graph):
    others = [v for v in range(graph.vertex_count) if v not in (graph.source, graph.sink)]
    best = None
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            side = {graph.source, *extra}
            crossing = sum(
                e.capacity for e in graph.edges if (e.u in side) != (e.v in side)
            )
            best = crossing if best is None else min(best, crossing)
    return best


@pytest.mark.parametrize("seed", range(1, 41))
def test_max_flow_equals_exhaustive_min_cut(seed):
    graph = generate_sp(seed, edge_budget=8).graph
    value, _ = max_flow(graph)
    assert value == _exhaustive_min_cut(graph)


def test_circulation_feasible_examples(single_edge, diamond):
    g1 = single_edge.graph
    assert circulation_feasible(g1, {"e1"}, {0: -7, 1: 7})
    assert not circulation_feasible(g1, {"e1"}, {0: -8, 1: 8})
    assert circulation_feasible(diamond.graph, {"e1", "e2"}, {0: -2, 2: 2})
    assert not circulation_feasible(diamond.graph, {"e1", "e2"}, {0: -3, 2: 3})
    assert circulation_feasible(diamond.graph, set(), {})


def test_circulation_rejects_bad_residues(diamond):
    with pytest.raises(ValueError):
        circulation_feasible(diamond.graph, {"e1"}, {0: -1, 2: 2})
    with pytest.raises(ValueError):
        circulation_feasible(diamond.graph, {"e1"}, {9: 0})


@pytest.mark.parametrize("seed", range(1, 21))
def test_circulation_matches_max_flow(seed):
    graph = generate_sp(seed, edge_budget=6).graph
    value, _ = max_flow(graph)
    s, t = graph.source, graph.sink
    for v in range(sum(e.capacity for e in graph.edges) + 1):
        expected = v <= value
        got = circulation_feasible(graph, [e.id for e in graph.edges], {s: -v, t: v})
        assert got == expected, f"seed {seed}, v={v}"


def test_verify_solution_passes(single_edge, diamond):
    report = verify_solution(single_edge, solution_from_edges(single_edge, {"e1"}))
    assert report.ok
    assert report.recomputed_flow == 7
    names = [c.name for c in report.checks]
    assert names == ["cost-consistent", "flow-consistent", "within-budget"]

    report2 = verify_solution(
        diamond.with_demand(3), solution_from_edges(diamond, {"e1", "e2", "e3"})
    )
    assert report2.ok
    assert report2.recomputed_cost == 5
    assert report2.recomputed_flow == 3
    assert [c.name for c in report2.checks][-1] == "meets-demand"


def test_verify_solution_flags_budget_overrun(single_edge):
    over = single_edge.with_budget(4)
    report = verify_solution(over, solution_from_edges(over, {"e1"}))
    assert not report.ok
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == ["within-budget"]


def test_verify_solution_flags_demand_shortfall(diamond):
    instance = diamond.with_demand(2)
    report = verify_solution(instance, solution_from_edges(instance, {"e3"}))
    assert not report.ok
    failing = [c.name for c in report.checks if not c.passed]
    assert failing == ["meets-demand"]


def test_verify_solution_flags_misstated_fields(diamond):
    lying = Solution(purchased=frozenset({"e3"}), total_cost=1, achieved_flow=2)
    report = verify_solution(diamond, lying)
    failing = {c.name for c in report.checks if not c.passed}
    assert "cost-consistent" in failing
    assert "flow-consistent" in failing


def test_verify_solution_unknown_edge(diamond):
    bogus = Solution(purchased=frozenset({"zz"}), total_cost=0, achieved_flow=0)
    with pytest.raises(KeyError):
        verify_solution(diamond, bogus)


def test_solution_from_edges(diamond):
    sol = solution_from_edges(diamond, {"e1", "e2"})
    assert sol.total_cost == 2
    assert sol.achieved_flow == 2
    assert sol.purchased == frozenset({"e1", "e2"})
