"""Instance file parsing, serialization, and the core data model."""

import string
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from spnd import (
    EdgeRecord,
    MultiGraph,
    ParseError,
    ProblemInstance,
    Solution,
    UpgradeRecord,
    format_instance,
    generate_sp,
    parse_instance,
)
from spnd.instance import infinity_sentinel, purchased_edges
from conftest import DIAMOND_TEXT, SINGLE_EDGE_TEXT


def test_parse_single_edge(single_edge):
    g = single_edge.graph
    assert g.vertex_count == 2
    assert (g.source, g.sink) == (0, 1)
    assert g.edges == (EdgeRecord("e1", 0, 1, 5, 7),)
    assert single_edge.budget == 5
    assert single_edge.demand is None
    assert single_edge.problem == "bcmfp"


def test_with_capacities_checks_only_the_capacities(diamond):
    g = diamond.graph
    copy = g.with_capacities({"e1": 0, "e2": 5, "e3": 9})
    edges = tuple(replace(e, capacity=c) for e, c in zip(g.edges, (0, 5, 9)))
    assert copy == replace(g, edges=edges)
    assert [e.capacity for e in g.edges] != [0, 5, 9]
    for bad in (-1, 1.5, "2", None):
        with pytest.raises(ValueError, match="e2"):
            g.with_capacities({"e1": 0, "e2": bad, "e3": 9})


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


# Every character an edge id may hold.
_IDS = st.text(string.ascii_letters + string.digits + "_.:-", min_size=1, max_size=6)
_NUMBERS = st.integers(0, 9) | st.integers(0, 10**15)


@st.composite
def _any_instances(draw):
    """Any valid instance: a small or huge vertex count, parallel edges,

    upgrade menus of one to four choices, terminals declared or not, and a
    budget or a demand."""
    n = draw(st.integers(2, 6) | st.integers(2, 10**12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda p: (p[0], (p[0] + p[1]) % n))
    ids = draw(st.lists(_IDS, max_size=10, unique=True))
    plain = draw(st.integers(0, len(ids)))
    edges = tuple(EdgeRecord(i, *draw(pairs), draw(_NUMBERS), draw(_NUMBERS)) for i in ids[:plain])
    menus = st.lists(st.tuples(_NUMBERS, _NUMBERS), min_size=1, max_size=4).map(tuple)
    upgrades = tuple(UpgradeRecord(i, *draw(pairs), draw(menus)) for i in ids[plain:])
    graph = MultiGraph(n, edges, *draw(pairs), declared_terminals=draw(st.none() | pairs))
    objective = draw(st.sampled_from(("budget", "demand")))
    return ProblemInstance(graph, upgrades=upgrades, **{objective: draw(_NUMBERS)})


@given(_any_instances())
def test_format_round_trips_any_instance(inst):
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
        # int() takes these; the format does not.
        ("edge e1 0 1 1_0 5", "cost: expected an integer, got '1_0'"),
        ("edge e1 0 1 5 +5", "capacity: expected an integer, got '+5'"),
        ("edge e1 0 \u0661 5 7", "endpoint: expected an integer"),
        ("budget \u0663", "budget: expected an integer"),
        ("edge e1 0 1 5 -", "capacity: expected an integer, got '-'"),
        ("edge e1 0 1 5 --7", "capacity: expected an integer, got '--7'"),
        ("edge e1 0 1 5 -7", "capacity: negative numbers are not allowed (-7)"),
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


@pytest.mark.parametrize(
    "text,message",
    [
        ("graph 2\nsource 5\nsink 1\n", "line 2: source 5 out of range [0, 2) (graph line 1)"),
        ("sink 7\ngraph 2\nsource 0\n", "line 1: sink 7 out of range [0, 2) (graph line 2)"),
        ("graph 2\nsource 0\nsink 1\nterminals 0 4\n", "line 4: terminal 4 out of range [0, 2) (graph line 1)"),
        ("graph 2\nsource 1\nsink 1\n", "line 3: source and sink must be distinct"),
    ],
    ids=["source", "sink", "terminal", "source-is-sink"],
)
def test_special_vertex_errors_name_their_line(text, message):
    with pytest.raises(ParseError) as err:
        parse_instance(text + "edge e1 0 1 5 7\nbudget 5\n")
    assert str(err.value) == message


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


def test_sentinel_refuses_costs_past_int64_sums():
    graph = MultiGraph(2, (EdgeRecord("e1", 0, 1, 2**62 - 2, 1),), 0, 1)
    assert infinity_sentinel(graph) == 2**62 - 1
    with pytest.raises(ValueError, match=r"total edge cost 4611686018427387903 is above 4611686018427387902"):
        infinity_sentinel(replace(graph, edges=(EdgeRecord("e1", 0, 1, 2**62 - 1, 1),)))


def test_objective_switch(diamond):
    as_budget = diamond.with_budget(4)
    assert as_budget.problem == "bcmfp"
    assert as_budget.budget == 4 and as_budget.demand is None
    back = as_budget.with_demand(2)
    assert back.problem == "capndp"
    assert back.demand == 2 and back.budget is None


def test_negative_objective_rejected(diamond):
    # The parser refuses negative numbers; the model refuses them too, so a
    # solver never sees a budget no purchase can meet.
    with pytest.raises(ValueError, match="budget cannot be negative"):
        diamond.with_budget(-1)
    with pytest.raises(ValueError, match="demand cannot be negative"):
        diamond.with_demand(-1)
    with pytest.raises(ValueError, match="budget cannot be negative"):
        ProblemInstance(diamond.graph, budget=-5)
    assert diamond.with_budget(0).budget == 0 and diamond.with_demand(0).demand == 0


def test_solution_is_frozen():
    sol = Solution(purchased=frozenset({"e1"}), total_cost=5, achieved_flow=7)
    with pytest.raises(AttributeError):
        sol.total_cost = 9


@pytest.mark.parametrize(
    "graph_changes,edge_changes,fragment",
    [
        ({}, {"cost": -5}, "negative cost"),
        ({}, {"capacity": -1}, "negative capacity"),
        ({}, {"v": 0}, "self-loop"),
        ({}, {"v": 3}, "endpoint out of range"),
        ({}, {"u": -1}, "endpoint out of range"),
        ({"vertex_count": 4, "source": 9}, {}, "source 9 out of range"),
        ({"sink": 3}, {}, "sink 3 out of range"),
        ({"declared_terminals": (0, 5)}, {}, "terminal 5 out of range"),
    ],
    ids=["negative-cost", "negative-capacity", "self-loop", "endpoint-high",
         "endpoint-negative", "source", "sink", "terminal"],
)
def test_graph_model_rejects_invalid_fields(diamond, graph_changes, edge_changes, fragment):
    # The parser refuses these inputs with a line number; a graph built
    # through the API must refuse them too, before any solver sees them.
    g = diamond.graph
    edges = (replace(g.edges[0], **edge_changes),) + g.edges[1:]
    with pytest.raises(ValueError, match=fragment):
        replace(g, edges=edges, **graph_changes)


@pytest.mark.parametrize(
    "graph_changes,fragment",
    [
        ({"sink": 0}, "source and sink must be distinct"),
        ({"declared_terminals": (1, 1)}, "terminals must be distinct"),
    ],
    ids=["source-is-sink", "equal-terminals"],
)
def test_graph_model_rejects_equal_specials(diamond, graph_changes, fragment):
    # The parser refuses both; without the check a solver fails deep inside
    # (max flow with s = t) or reports the graph as not series-parallel.
    with pytest.raises(ValueError, match=fragment):
        replace(diamond.graph, **graph_changes)


@pytest.mark.parametrize(
    "changes,fragment",
    [
        ({"v": 0}, "self-loop on vertex 0"),
        ({"choices": ()}, "at least one choice"),
        ({"choices": ((4, 10), (-1, 20))}, "negative choice cost -1"),
        ({"choices": ((4, -10),)}, "negative choice capacity -10"),
    ],
    ids=["self-loop", "empty-menu", "negative-cost", "negative-capacity"],
)
def test_upgrade_model_rejects_invalid_menus(changes, fragment):
    with pytest.raises(ValueError, match=fragment):
        replace(UpgradeRecord("g1", 0, 1, ((4, 10), (7, 20))), **changes)


@pytest.mark.parametrize("ends", [(0, 4), (3, 1), (-1, 2)], ids=["high", "equal-to-n", "negative"])
def test_instance_rejects_upgrade_endpoints_out_of_range(diamond, ends):
    # The parser checks upedge endpoints against the graph line; a menu
    # built through the API would otherwise be wired into gadget vertices.
    upgrade = UpgradeRecord("g1", *ends, ((4, 10),))
    with pytest.raises(ValueError, match=r"upgrade 'g1' endpoint out of range \[0, 3\)"):
        ProblemInstance(diamond.graph, budget=5, upgrades=(upgrade,))


@pytest.mark.parametrize(
    "ids,duplicate",
    [(("e1",), "e1"), (("e3", "g"), "e3"), (("g", "g"), "g"), (("g", "h", "g"), "g")],
    ids=["upgrade-named-like-edge", "second-upgrade-named-like-edge", "two-upgrades", "first-and-third"],
)
def test_instance_rejects_duplicate_upgrade_ids(diamond, ids, duplicate):
    # The parser refuses a repeated id across edge and upedge lines. Without
    # the check an upgrade named like a plain edge solves, and two upgrades
    # of one name fail inside the gadget expansion on an id nobody wrote.
    upgrades = tuple(UpgradeRecord(i, 0, 2, ((4, 10),)) for i in ids)
    with pytest.raises(ValueError, match=f"^duplicate edge id '{duplicate}'$"):
        ProblemInstance(diamond.graph, budget=5, upgrades=upgrades)


def test_objective_switch_keeps_distinct_upgrade_ids(diamond):
    upgrades = (UpgradeRecord("g", 0, 2, ((4, 10),)), UpgradeRecord("h", 0, 1, ((1, 3),)))
    inst = ProblemInstance(diamond.graph, budget=5, upgrades=upgrades)
    assert inst.with_demand(2).upgrades == upgrades


def test_graph_model_validation_allocates_nothing_per_vertex():
    n = 10**12
    graph = MultiGraph(n, (EdgeRecord("e1", 0, n - 1, 1, 1),), 0, n - 1)
    assert graph.edge_count == 1
