"""The worklist reduction in ``spnd.decompose`` against the quadratic reference.

Both must build the same tree node by node on series-parallel inputs
(declared and inferred terminals), on hub shapes where per-vertex work
would turn quadratic again, on paths listed from the middle outward, and on
random compositions drawn by hypothesis. A graph no terminal pair reduces
(K4 glued to an SP graph, wheels) is rejected after its first candidate
pair alone, with the reference's outcome for that pair declared; on random
multigraphs the one unprotected reduction must succeed exactly when some
pair does. A graph its first pair does not reduce takes at most two
reductions and gets the unprotected pass's tree, which must equal the
reference's with the pass's terminals declared and solve as the oracle
does. ``tree_text`` must render what the reference renderer does.
"""

import importlib
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from spnd import (
    EdgeRecord,
    MultiGraph,
    NotSeriesParallelError,
    ProblemInstance,
    decompose,
    generate_sp,
    oracle_bcmfp,
    oracle_capndp,
    recompose,
    solve_bcmfp,
    solve_capndp,
    upper_bound_flow,
)
from spnd.decompose import _Builder, tree_text
from conftest import k4_glued, path_graph, terminals_last
from decompose_reference import (
    ReferenceBuilder,
    _candidate_pairs,
    reference_decompose,
    reference_tree_text,
)

# The package re-exports the function under the module's name.
decompose_module = importlib.import_module("spnd.decompose")


def _outcome(decomposer, graph):
    """Everything a caller can observe of one decomposition attempt."""
    try:
        tree = decomposer(graph)
    except NotSeriesParallelError as exc:
        return ("rejected", str(exc), exc.witness, tuple(exc.tried_pairs))
    nodes = [
        (n.id, n.kind, n.terminals, n.edge_id, n.join, n.left, n.right, n.interior_specials)
        for n in tree.nodes
    ]
    return ("tree", tree.root, tree.terminals, tree_text(tree), nodes)


def _assert_matches_reference(graph):
    outcome = _outcome(decompose, graph)
    assert outcome == _outcome(reference_decompose, graph)
    return outcome


def _edge_signature(graph):
    return sorted((e.id, frozenset((e.u, e.v)), e.cost, e.capacity) for e in graph.edges)


def _assert_round_trip(graph):
    assert _edge_signature(recompose(decompose(graph))) == _edge_signature(graph)


def _undeclared(graph):
    return replace(graph, declared_terminals=None)


def _count_builders(monkeypatch):
    """Record the protected pair of every ``_Builder`` that ``decompose`` constructs."""
    built = []

    class Counted(_Builder):
        def __init__(self, graph, protected):
            built.append(protected)
            super().__init__(graph, protected)

    monkeypatch.setattr(decompose_module, "_Builder", Counted)
    return built


def _declare_found_terminals(graph, outcome):
    return replace(graph, declared_terminals=outcome[2])


@pytest.mark.parametrize("block", range(10))
def test_gate_one_seeds_match_reference(block):
    for s in range(1 + 50 * block, 51 + 50 * block):
        graph = generate_sp(s, edge_budget=10, cap_max=6, cost_max=10).graph
        assert _assert_matches_reference(graph)[0] == "tree"
        assert _assert_matches_reference(_undeclared(graph))[0] == "tree"


@pytest.mark.parametrize("edge_budget", [25, 50, 100, 200, 400])
def test_large_sp_graphs_match_reference(edge_budget):
    for s in (1, 2):
        graph = generate_sp(s, edge_budget=edge_budget).graph
        assert _assert_matches_reference(graph)[0] == "tree"
        assert _assert_matches_reference(_undeclared(graph))[0] == "tree"


def _assert_rejection_matches_reference(graph):
    """An undeclared graph that no pair reduces is rejected as the reference

    rejects it with its first candidate pair declared."""
    outcome = _outcome(decompose, graph)
    first = next(_candidate_pairs(graph))
    assert outcome == _outcome(reference_decompose, replace(graph, declared_terminals=first))
    return outcome


@pytest.mark.parametrize("s", range(1, 6))
def test_k4_glued_rejections_match_reference(s):
    outcome = _assert_rejection_matches_reference(k4_glued(s).graph)
    assert outcome[0] == "rejected"
    assert len(outcome[3]) == 1


def _wheel(rim):
    edges = [EdgeRecord(f"r{i}", 1 + i, 1 + (i + 1) % rim, 1, 1) for i in range(rim)]
    edges += [EdgeRecord(f"s{i}", 0, 1 + i, 1, 1) for i in range(rim)]
    return MultiGraph(rim + 1, tuple(edges), 0, 1)


@pytest.mark.parametrize("rim", range(3, 9))
def test_wheel_rejections_match_reference(rim):
    outcome = _assert_rejection_matches_reference(_wheel(rim))
    assert outcome[0] == "rejected"
    assert len(outcome[3]) == 1


@pytest.mark.parametrize(
    "graph",
    [k4_glued(1, edge_budget=400).graph, k4_glued(2, edge_budget=150).graph, _wheel(50)],
    ids=["k4-sp400", "k4-n46", "wheel-50"],
)
def test_large_rejections_try_one_pair(graph):
    # All C(n, 2) attempts would be 9,316, 1,035 and 1,275 pairs.
    with pytest.raises(NotSeriesParallelError) as exc:
        decompose(graph)
    assert len(exc.value.tried_pairs) == 1


@st.composite
def _connected_multigraphs(draw):
    """A connected multigraph on 2-7 vertices with at most 12 edges and no

    declared terminals: a random spanning tree plus extra edges between any
    two distinct vertices (parallel edges allowed), relabelled and shuffled."""
    n = draw(st.integers(2, 7))
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    for _ in range(draw(st.integers(0, 13 - n))):
        u = draw(st.integers(0, n - 1))
        ends.append((u, (u + draw(st.integers(1, n - 1))) % n))
    label = draw(st.permutations(range(n)))
    ends = draw(st.permutations(ends))
    edges = tuple(EdgeRecord(f"e{i}", label[u], label[v], 1, 1) for i, (u, v) in enumerate(ends))
    return MultiGraph(n, edges, 0, 1)


@seed(20240607)
@given(_connected_multigraphs())
def test_one_unprotected_pass_decides_every_pair(graph):
    some_pair = any(
        ReferenceBuilder(graph, pair).run()[0] for pair in combinations(range(graph.vertex_count), 2)
    )
    assert _Builder(graph, ()).run()[0] == some_pair
    with pytest.MonkeyPatch.context() as monkeypatch:
        built = _count_builders(monkeypatch)
        outcome = _outcome(decompose, graph)
    assert len(built) <= 2
    assert (outcome[0] == "tree") == some_pair
    if some_pair:
        # A graph the first pair does not reduce keeps the unprotected
        # pass's tree: the reference's, with the pass's terminals declared.
        if ReferenceBuilder(graph, next(_candidate_pairs(graph))).run()[0]:
            assert outcome == _outcome(reference_decompose, graph)
        else:
            assert outcome == _outcome(reference_decompose, _declare_found_terminals(graph, outcome))
    else:
        _assert_rejection_matches_reference(graph)


@pytest.mark.parametrize("edge_budget", [150, 400], ids=["n50", "n134"])
def test_terminals_past_the_first_pair_take_two_reductions(monkeypatch, edge_budget):
    # A walk over terminal pairs (the reference's) takes 43 and 130 reductions here.
    graph = terminals_last(1, edge_budget=edge_budget).graph
    built = _count_builders(monkeypatch)
    outcome = _outcome(decompose, graph)
    assert built == [(0, 1), ()]
    assert outcome[0] == "tree"
    assert outcome == _outcome(reference_decompose, _declare_found_terminals(graph, outcome))
    _assert_round_trip(graph)


def test_declared_terminals_are_never_replaced(monkeypatch):
    # The n = 50 graph above, its failing pair declared, is rejected after one
    # reduction, though the unprotected pass would reduce it.
    graph = replace(terminals_last(1, edge_budget=150).graph, declared_terminals=(0, 1))
    built = _count_builders(monkeypatch)
    outcome = _outcome(decompose, graph)
    assert built == [(0, 1)]
    assert outcome[0] == "rejected"
    assert outcome == _outcome(reference_decompose, graph)


HUB_SIZE = 500


def test_k2n_hub():
    # Both hubs touch every other vertex: each contraction updates a hub.
    edges = []
    for i in range(HUB_SIZE):
        edges.append(EdgeRecord(f"a{i}", 0, 2 + i, 1, 1))
        edges.append(EdgeRecord(f"b{i}", 2 + i, 1, 1, 1))
    graph = MultiGraph(HUB_SIZE + 2, tuple(edges), 0, 1, declared_terminals=(0, 1))
    _assert_round_trip(graph)
    assert _assert_matches_reference(graph)[0] == "tree"


def test_parallel_bundle_hub():
    edges = tuple(EdgeRecord(f"p{i}", i % 2, 1 - i % 2, 1, 1) for i in range(HUB_SIZE))
    graph = MultiGraph(2, edges, 0, 1)
    _assert_round_trip(graph)
    assert _assert_matches_reference(graph)[0] == "tree"


@st.composite
def _sp_compositions(draw, max_edges=40):
    """A random series/parallel composition between vertices 0 and 1, its

    vertices relabelled, its edges shuffled and each edge's endpoints drawn
    in either order; the declared pair is where 0 and 1 went."""
    m = draw(st.integers(1, max_edges))
    spans = [(0, 1, m)]
    vertex_count = 2
    ends = []
    while spans:
        a, b, count = spans.pop()
        if count == 1:
            ends.append((a, b))
            continue
        k = draw(st.integers(1, count - 1))
        if draw(st.booleans()):
            c = vertex_count
            vertex_count += 1
            spans += [(a, c, k), (c, b, count - k)]
        else:
            spans += [(a, b, k), (a, b, count - k)]
    label = draw(st.permutations(range(vertex_count)))
    ends = draw(st.permutations(ends))
    edges = []
    for i, (u, v) in enumerate(ends):
        if draw(st.booleans()):
            u, v = v, u
        edges.append(EdgeRecord(f"e{i}", label[u], label[v], 1, 1))
    pair = (label[0], label[1])
    return MultiGraph(vertex_count, tuple(edges), pair[0], pair[1], declared_terminals=pair)


@seed(20240607)
@given(_sp_compositions())
def test_random_compositions_match_reference(graph):
    outcome = _assert_matches_reference(graph)
    assert outcome[0] == "tree"
    assert frozenset(outcome[2]) == frozenset(graph.declared_terminals)
    _assert_round_trip(graph)


@st.composite
def _rescued_instances(draw):
    """A series/parallel composition of at most 12 edges, relabelled so that

    the first candidate pair (0, 1) does not reduce it, with terminals
    undeclared, source and sink anywhere, costs 0-4, capacities 0-5 and a
    budget in [0, total cost]."""
    composed = draw(_sp_compositions(max_edges=12))
    n = composed.vertex_count
    degree = [0] * n
    for e in composed.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    # Two degree-1 vertices are the first pair whatever the labels, and
    # reduce the graph if any pair does.
    assume(degree.count(1) < 2)
    failing = [p for p in combinations(range(n), 2) if not ReferenceBuilder(composed, p).run()[0]]
    assume(failing)
    a, b = draw(st.sampled_from(failing))
    rest = draw(st.permutations([v for v in range(n) if v not in (a, b)]))
    label = {v: i for i, v in enumerate([a, b, *rest])}
    edges = tuple(
        EdgeRecord(e.id, label[e.u], label[e.v], draw(st.integers(0, 4)), draw(st.integers(0, 5)))
        for e in composed.edges
    )
    source, sink = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    graph = MultiGraph(n, edges, source, sink)
    return ProblemInstance(graph=graph, budget=draw(st.integers(0, graph.total_cost())))


@settings(max_examples=100)
@seed(20240607)
@given(_rescued_instances(), st.data())
def test_terminals_past_the_first_pair_solve_as_the_oracle(instance, data):
    assert not ReferenceBuilder(instance.graph, (0, 1)).run()[0]
    by_budget = solve_bcmfp(instance)
    assert by_budget.total_cost <= instance.budget
    assert by_budget.achieved_flow == oracle_bcmfp(instance).achieved_flow
    case = instance.with_demand(data.draw(st.integers(0, upper_bound_flow(instance))))
    by_demand = solve_capndp(case)
    assert by_demand.achieved_flow >= case.demand
    assert by_demand.total_cost == oracle_capndp(case).total_cost


# Every size to 40, then a spread to 300; the reference is quadratic.
CHAIN_SIZES = [*range(2, 41), *range(41, 300, 26), 300]


@pytest.mark.parametrize("m", CHAIN_SIZES)
def test_center_out_chains_match_reference(m):
    # Each merge joins a chain to the side it was not grown from, so the
    # eager builder turned a subtree at every step: the walk that orients
    # the finished tree must reach the same nodes.
    for backward in (False, True):
        for declared in (False, True):
            graph = path_graph(m, center_out=True, backward=backward, declared=declared)
            outcome = _assert_matches_reference(graph)
            assert outcome[0] == "tree"
            assert reference_tree_text(reference_decompose(graph)) == outcome[3]
            _assert_round_trip(graph)


@pytest.mark.parametrize("block", range(10))
def test_tree_text_matches_reference_renderer_gate_one(block):
    for s in range(1 + 50 * block, 51 + 50 * block):
        graph = generate_sp(s, edge_budget=10, cap_max=6, cost_max=10).graph
        for g in (graph, _undeclared(graph)):
            tree = decompose(g)
            assert tree_text(tree) == reference_tree_text(tree)
