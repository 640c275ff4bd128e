"""The worklist reduction in ``spnd.decompose`` against the quadratic reference.

Both must build the same tree node by node, or reject with the same witness
after the same terminal pairs, on series-parallel inputs (declared and
inferred terminals), on rejected inputs (K4 glued to an SP graph, wheels),
on hub shapes where per-vertex work would turn quadratic again, on paths
listed from the middle outward, and on random compositions drawn by
hypothesis. ``tree_text`` must render what the reference renderer does.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, seed, strategies as st

from spnd import EdgeRecord, MultiGraph, NotSeriesParallelError, decompose, generate_sp, recompose
from spnd.decompose import tree_text
from conftest import path_graph
from decompose_reference import reference_decompose, reference_tree_text


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


def _k4_glued(s):
    """An SP graph with a K4 sharing one of its vertices."""
    rng = random.Random(s)
    g = generate_sp(s, edge_budget=12).graph
    n = g.vertex_count
    quad = [rng.randrange(n), n, n + 1, n + 2]
    pairs = [(a, b) for i, a in enumerate(quad) for b in quad[i + 1 :]]
    k4 = tuple(EdgeRecord(f"k{i}", u, v, 1, 1) for i, (u, v) in enumerate(pairs))
    return MultiGraph(n + 3, g.edges + k4, g.source, g.sink)


@pytest.mark.parametrize("s", range(1, 6))
def test_k4_glued_rejections_match_reference(s):
    graph = _k4_glued(s)
    outcome = _assert_matches_reference(graph)
    assert outcome[0] == "rejected"
    assert len(outcome[3]) == graph.vertex_count * (graph.vertex_count - 1) // 2


def _wheel(rim):
    edges = [EdgeRecord(f"r{i}", 1 + i, 1 + (i + 1) % rim, 1, 1) for i in range(rim)]
    edges += [EdgeRecord(f"s{i}", 0, 1 + i, 1, 1) for i in range(rim)]
    return MultiGraph(rim + 1, tuple(edges), 0, 1)


@pytest.mark.parametrize("rim", range(3, 9))
def test_wheel_rejections_match_reference(rim):
    outcome = _assert_matches_reference(_wheel(rim))
    assert outcome[0] == "rejected"


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
def _sp_compositions(draw):
    """A random series/parallel composition between vertices 0 and 1, its

    vertices relabelled, its edges shuffled and each edge's endpoints drawn
    in either order; the declared pair is where 0 and 1 went."""
    m = draw(st.integers(1, 40))
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
