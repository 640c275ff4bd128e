"""Instance file parsing, serialization, and the core data model."""

import pytest

from spnd import (
    EdgeRecord,
    ParseError,
    Solution,
    UpgradeRecord,
    format_instance,
    generate_sp,
    infinity_sentinel,
    parse_instance,
    purchased_edges,
)
from conftest import DIAMOND_TEXT, SINGLE_EDGE_TEXT


def test_parse_single_edge(single_edge):
    g = single_edge.graph
    assert g.vertex_count == 2
    assert (g.source, g.sink) == (0, 1)
    assert g.edges == (EdgeRecord("e1", 0, 1, 5, 7),)
    assert single_edge.budget == 5
    assert single_edge.demand is None
    assert single_edge.problem == "bcmfp"


def test_parse_diamond(diamond):
    g = diamond.graph
    assert g.vertex_count == 3
    assert g.declared_terminals == (0, 2)
    assert [e.id for e in g.edges] == ["e1", "e2", "e3"]
    assert diamond.demand == 1
    assert diamond.problem == "capndp"


def test_parse_comments_and_blank_lines():
    text = (
        "# instance with comments\n"
        "graph 2\n"
        "\n"
        "source 0  # the source\n"
        "sink 1\n"
        "edge e1 0 1 5 7\n"
        "budget 5\n"
    )
    inst = parse_instance(text)
    assert inst.graph.edges[0].capacity == 7


def test_format_round_trip_fixtures():
    for text in (SINGLE_EDGE_TEXT, DIAMOND_TEXT):
        first = parse_instance(text)
        again = parse_instance(format_instance(first))
        assert again == first


def test_format_round_trip_generated():
    for seed in range(1, 26):
        inst = generate_sp(seed, edge_budget=8)
        assert parse_instance(format_instance(inst)) == inst


def test_upedge_parsing():
    text = (
        "graph 2\nsource 0\nsink 1\n"
        "upedge g1 0 1 2 4 10 7 20\n"
        "budget 7\n"
    )
    inst = parse_instance(text)
    assert inst.upgrades == (UpgradeRecord("g1", 0, 1, ((4, 10), (7, 20))),)
    assert parse_instance(format_instance(inst)) == inst


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("edge e1 0 0 5 7", "self-loop"),
        ("edge e1 0 1 5", "edge takes"),
        ("edge e1 0 1 -5 7", "cost"),
        ("edge bad!id 0 1 5 7", "invalid edge id"),
        ("edge e1 0 9 5 7", "out of range"),
        ("upedge g1 0 1 2 4 10", "needs 4 cost/capacity values"),
        ("upedge g1 0 1 0", "at least one choice"),
        ("flow 3", "unknown directive"),
    ],
)
def test_parse_errors_carry_line_numbers(line, fragment):
    text = f"graph 2\nsource 0\nsink 1\n{line}\nbudget 5\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "line 4" in str(err.value)
    assert fragment in str(err.value)


def test_parse_duplicate_edge_id():
    text = "graph 2\nsource 0\nsink 1\nedge e1 0 1 5 7\nedge e1 0 1 1 1\nbudget 5\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "duplicate edge id" in str(err.value)
    assert "line 5" in str(err.value)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("source 0\nsink 1\nedge e1 0 1 5 7\nbudget 5\n", "missing graph"),
        ("graph 2\nsink 1\nedge e1 0 1 5 7\nbudget 5\n", "missing source"),
        ("graph 2\nsource 0\nedge e1 0 1 5 7\nbudget 5\n", "missing sink"),
        ("graph 2\nsource 0\nsink 1\nedge e1 0 1 5 7\n", "missing budget or demand"),
        ("graph 2\nsource 0\nsink 1\nedge e1 0 1 5 7\nbudget 5\ndemand 1\n", "only one"),
        ("graph 2\nsource 0\nsink 0\nedge e1 0 1 5 7\nbudget 5\n", "distinct"),
        ("graph 2\nterminals 1 1\nsource 0\nsink 1\nedge e1 0 1 5 7\nbudget 5\n", "distinct"),
        ("graph 2\ngraph 2\nsource 0\nsink 1\nedge e1 0 1 5 7\nbudget 5\n", "duplicate graph"),
    ],
)
def test_structural_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert fragment in str(err.value)


def test_graph_accessors(diamond):
    g = diamond.graph
    assert g.edge_count == 3
    assert g.edge_by_id("e3").cost == 3
    with pytest.raises(KeyError):
        g.edge_by_id("nope")
    assert g.total_cost() == 5
    assert infinity_sentinel(g) == 6
    assert [e.id for e in purchased_edges(g, ["e3", "e1"])] == ["e3", "e1"]
    with pytest.raises(KeyError):
        purchased_edges(g, {"zz"})


def test_objective_switch(diamond):
    as_budget = diamond.with_budget(4)
    assert as_budget.problem == "bcmfp"
    assert as_budget.budget == 4 and as_budget.demand is None
    back = as_budget.with_demand(2)
    assert back.problem == "capndp"
    assert back.demand == 2 and back.budget is None


def test_solution_is_frozen():
    sol = Solution(purchased=frozenset({"e1"}), total_cost=5, achieved_flow=7)
    with pytest.raises(AttributeError):
        sol.total_cost = 9
