"""Series-parallel recognition, parse trees, and recomposition."""

import importlib
import time

import pytest

from spnd import (
    NotSeriesParallelError,
    decompose,
    generate_sp,
    parse_instance,
    recompose,
    tree_text,
)
from conftest import HUGE_VERTEX_COUNT_TEXT, K4_TEXT, WHEEL4_TEXT

# The package re-exports the function under the module's name.
decompose_module = importlib.import_module("spnd.decompose")


def test_single_edge_tree(single_edge):
    tree = decompose(single_edge.graph)
    assert tree_text(tree) == "L(e1)"
    root = tree.node(tree.root)
    assert root.kind == "leaf"
    assert root.terminals == (0, 1)
    assert tree.terminals == (0, 1)
    assert tree.leaf_count() == 1


def test_diamond_tree_with_declared_terminals(diamond):
    tree = decompose(diamond.graph)
    assert tree_text(tree) == "P(S(L(e1),L(e2))@1,L(e3))"
    root = tree.node(tree.root)
    assert root.kind == "parallel"
    assert root.terminals == (0, 2)
    assert root.interior_specials == frozenset()
    series = tree.node(root.left)
    assert series.kind == "series"
    assert series.join == 1
    assert series.terminals == (0, 2)


def test_diamond_tree_inferred_terminals(diamond_undeclared):
    # No degree-1 vertices here, so inference falls back to scanning vertex
    # pairs and keeps the first pair that reduces completely.
    tree = decompose(diamond_undeclared.graph)
    assert tree.terminals == (0, 1)
    assert tree_text(tree) == "P(L(e1),S(L(e3),L(e2))@2)"


def test_degree_one_vertices_tried_first():
    inst = parse_instance(
        "graph 3\nsource 0\nsink 2\n"
        "edge e1 0 1 1 1\nedge e2 1 2 1 1\nbudget 2\n"
    )
    tree = decompose(inst.graph)
    assert tree.terminals == (0, 2)


def test_ring_tree_and_interior_specials(ring):
    tree = decompose(ring.graph)
    assert tree_text(tree) == "P(S(S(L(e1),L(e2))@1,L(e3))@2,L(e4))"
    root = tree.node(tree.root)
    assert root.interior_specials == frozenset({"s", "t"})
    outer = tree.node(root.left)
    assert outer.kind == "series" and outer.join == 2
    assert outer.interior_specials == frozenset({"s", "t"})
    inner = tree.node(outer.left)
    assert inner.kind == "series" and inner.join == 1
    assert inner.terminals == (0, 2)
    assert inner.interior_specials == frozenset({"s"})


def test_postorder_diamond(diamond):
    tree = decompose(diamond.graph)
    nodes = [tree.node(i) for i in tree.postorder_ids()]
    assert [n.kind for n in nodes] == ["leaf", "leaf", "series", "leaf", "parallel"]
    assert [n.edge_id for n in nodes] == ["e1", "e2", None, "e3", None]
    assert len(nodes) == 2 * diamond.graph.edge_count - 1


@pytest.mark.parametrize("seed", range(1, 41))
def test_postorder_children_precede_parents(seed):
    tree = decompose(generate_sp(seed, edge_budget=9).graph)
    seen = set()
    order = tree.postorder_ids()
    for nid in order:
        node = tree.node(nid)
        if node.kind != "leaf":
            assert node.left in seen and node.right in seen
        seen.add(nid)
    assert len(order) == 2 * tree.leaf_count() - 1
    assert order[-1] == tree.root


def test_subtree_edge_ids(diamond):
    tree = decompose(diamond.graph)
    root = tree.node(tree.root)
    assert tree.subtree_edge_ids(tree.root) == ("e1", "e2", "e3")
    assert tree.subtree_edge_ids(root.left) == ("e1", "e2")


def test_rejections():
    k4 = parse_instance(K4_TEXT)
    with pytest.raises(NotSeriesParallelError) as err:
        decompose(k4.graph)
    assert err.value.witness is not None
    assert err.value.tried_pairs

    wheel = parse_instance(WHEEL4_TEXT)
    with pytest.raises(NotSeriesParallelError):
        decompose(wheel.graph)


def test_rejection_with_declared_terminals():
    text = K4_TEXT.replace("graph 4\n", "graph 4\nterminals 0 1\n")
    inst = parse_instance(text)
    with pytest.raises(NotSeriesParallelError) as err:
        decompose(inst.graph)
    assert err.value.tried_pairs == ((0, 1),)


def test_rejects_disconnected_and_edgeless():
    disconnected = parse_instance(
        "graph 4\nsource 0\nsink 1\n"
        "edge e1 0 1 1 1\nedge e2 2 3 1 1\nbudget 2\n"
    )
    with pytest.raises(NotSeriesParallelError):
        decompose(disconnected.graph)
    edgeless = parse_instance("graph 2\nsource 0\nsink 1\nbudget 0\n")
    with pytest.raises(NotSeriesParallelError):
        decompose(edgeless.graph)


def test_rejects_huge_vertex_count_before_per_vertex_work(monkeypatch):
    # More vertices than edges + 1 cannot be connected; the rejection must
    # come before anything sized by the vertex count.
    def per_vertex(graph):
        raise AssertionError("per-vertex connectivity scan reached")

    monkeypatch.setattr(decompose_module, "_connected", per_vertex)
    graph = parse_instance(HUGE_VERTEX_COUNT_TEXT).graph
    start = time.perf_counter()
    with pytest.raises(NotSeriesParallelError, match="disconnected"):
        decompose(graph)
    assert time.perf_counter() - start < 1.0


def test_decompose_is_deterministic(diamond):
    a = tree_text(decompose(diamond.graph))
    b = tree_text(decompose(diamond.graph))
    assert a == b


def _edge_signature(graph):
    return sorted(
        (e.id, frozenset((e.u, e.v)), e.cost, e.capacity) for e in graph.edges
    )


@pytest.mark.parametrize("seed", range(1, 151))
def test_recompose_round_trip(seed):
    graph = generate_sp(seed, edge_budget=10).graph
    tree = decompose(graph)
    rebuilt = recompose(tree)
    assert rebuilt.vertex_count == graph.vertex_count
    assert (rebuilt.source, rebuilt.sink) == (graph.source, graph.sink)
    assert _edge_signature(rebuilt) == _edge_signature(graph)


def test_recompose_fixtures(single_edge, diamond, ring):
    for inst in (single_edge, diamond, ring):
        rebuilt = recompose(decompose(inst.graph))
        assert _edge_signature(rebuilt) == _edge_signature(inst.graph)


def _subtree_vertices(tree, nid):
    out = set()
    for eid in tree.subtree_edge_ids(nid):
        e = tree.graph.edge_by_id(eid)
        out.update((e.u, e.v))
    return out


@pytest.mark.parametrize("seed", range(1, 81))
def test_interior_special_flags_match_direct_derivation(seed):
    # A special is interior to a node iff it is a vertex of the node's
    # subgraph and differs from both terminals; the stored flags must agree
    # with that definition recomputed from scratch.
    tree = decompose(generate_sp(seed, edge_budget=9).graph)
    special_vertex = {"s": tree.source, "t": tree.sink}
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        vertices = _subtree_vertices(tree, nid)
        expected = frozenset(
            lab
            for lab, v in special_vertex.items()
            if v in vertices and v not in node.terminals
        )
        assert node.interior_specials == expected, f"seed {seed}, node {nid}"


@pytest.mark.parametrize("seed", range(1, 41))
def test_series_terminal_wiring(seed):
    tree = decompose(generate_sp(seed, edge_budget=9).graph)
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        if node.kind == "series":
            a, b = node.terminals
            left, right = tree.node(node.left), tree.node(node.right)
            assert left.terminals == (a, node.join)
            assert right.terminals == (node.join, b)
        elif node.kind == "parallel":
            left, right = tree.node(node.left), tree.node(node.right)
            assert left.terminals == node.terminals
            assert right.terminals == node.terminals
        else:
            edge = tree.graph.edge_by_id(node.edge_id)
            assert frozenset(node.terminals) == frozenset((edge.u, edge.v))
