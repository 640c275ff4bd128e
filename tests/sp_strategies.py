"""Hypothesis strategies for tiny series-parallel instances, shared by the

property tests of the exact and the approximate solvers, with explicit
inputs those strategies draw only rarely, and the helper that copies an
instance or a tree over other capacities."""

from dataclasses import replace

from hypothesis import strategies as st

from spnd import EdgeRecord, MultiGraph, ProblemInstance

# Capacities small, large or 0: the approximation scheme's scaling regimes.
ANY_CAPACITY = st.integers(1, 9) | st.integers(1, 10**6) | st.just(0)


@st.composite
def tiny_instances(draw, capacity=ANY_CAPACITY):
    """A random series/parallel composition of 1-6 edges between the

    declared terminals 0 and 1, with source and sink anywhere (strictly
    inside included), costs 0-4, capacities drawn from ``capacity``, and a
    budget in [0, total cost]."""
    m = draw(st.integers(1, 6))
    spans, ends, vertex_count = [(0, 1, m)], [], 2
    while spans:
        a, b, count = spans.pop()
        if count == 1:
            ends.append((a, b))
            continue
        k = draw(st.integers(1, count - 1))
        if draw(st.booleans()):
            spans += [(a, vertex_count, k), (vertex_count, b, count - k)]
            vertex_count += 1
        else:
            spans += [(a, b, k), (a, b, count - k)]
    edges = tuple(
        EdgeRecord(f"e{i}", u, v, draw(st.integers(0, 4)), draw(capacity)) for i, (u, v) in enumerate(ends)
    )
    source, sink = draw(st.lists(st.integers(0, vertex_count - 1), min_size=2, max_size=2, unique=True))
    graph = MultiGraph(vertex_count, edges, source, sink, declared_terminals=(0, 1))
    budget = draw(st.integers(0, graph.total_cost()))
    return ProblemInstance(graph=graph, budget=budget, demand=None, upgrades=())


def paths_apart(source: int, sink: int, budget: int = 0) -> ProblemInstance:
    """Two two-edge paths, through 2 and through 3, and an edge between

    terminals 0 and 1: with the source and sink at 2 and 3 the root is a
    parallel node with one in each child, a case ``tiny_instances`` seldom
    draws. Equal costs and capacities give ties on every cell."""
    ends = [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)]
    edges = tuple(EdgeRecord(f"e{i}", u, v, 1, 2) for i, (u, v) in enumerate(ends))
    return ProblemInstance(MultiGraph(4, edges, source, sink, declared_terminals=(0, 1)), budget=budget)


class FixedDraws:
    """Stands in for ``st.data()`` in an explicit example: each ``draw``

    returns the next of the given values, which must be ones the strategy
    drawn from could give."""

    def __init__(self, *values):
        self.values = list(values)

    def draw(self, strategy):
        return self.values.pop(0)


def with_capacities(owner, capacities):
    """``owner``, an instance or a decomposition tree, over a copy of its

    graph in which each edge named in ``capacities`` takes that capacity;
    the others keep theirs. A tree stays valid, since the decomposition
    reads no capacity."""
    graph = owner.graph
    edges = tuple(replace(e, capacity=capacities.get(e.id, e.capacity)) for e in graph.edges)
    return replace(owner, graph=replace(graph, edges=edges))
