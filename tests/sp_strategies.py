"""Hypothesis strategies for tiny series-parallel instances, shared by the

property tests of the exact and the approximate solvers."""

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
