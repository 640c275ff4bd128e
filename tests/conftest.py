"""Shared fixtures: tiny hand-checkable instances used across the suite.

Every expected number attached to these graphs was worked out by hand or by
exhaustive enumeration over all edge subsets, so they are safe anchors for
testing the solver itself.
"""

import importlib
import random
from dataclasses import replace

import pytest
from hypothesis import settings

from spnd import EdgeRecord, MultiGraph, generate_sp, parse_instance

# Property tests draw the same examples on every run, untimed, with no
# example database carried between runs.
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=200)
settings.load_profile("derandomized")

# One edge, cost 5, capacity 7.
SINGLE_EDGE_TEXT = """\
graph 2
source 0
sink 1
edge e1 0 1 5 7
budget 5
"""

# Diamond: the two-edge path 0-1-2 in parallel with the direct edge 0-2.
# Path edges cost 1 each (capacity 2); the direct edge costs 3 (capacity 1).
DIAMOND_TEXT = """\
graph 3
terminals 0 2
source 0
sink 2
edge e1 0 1 1 2
edge e2 1 2 1 2
edge e3 0 2 3 1
demand 1
"""

DIAMOND_TEXT_UNDECLARED = """\
graph 3
source 0
sink 2
edge e1 0 1 1 2
edge e2 1 2 1 2
edge e3 0 2 3 1
demand 1
"""

# Ring: path 0-1-2-3 closed by the direct edge 0-3. Source and sink sit
# strictly inside the declared terminal pair, so solver states carry the
# extra residue slots. All costs 1; capacities 1,2,1,1.
RING_TEXT = """\
graph 4
terminals 0 3
source 1
sink 2
edge e1 0 1 1 1
edge e2 1 2 1 2
edge e3 2 3 1 1
edge e4 0 3 1 1
budget 4
"""

# One edge on a declared trillion vertices: work or memory per declared
# vertex would never finish.
HUGE_VERTEX_COUNT_TEXT = "graph 1000000000000\nsource 0\nsink 1\nedge e1 0 1 1 1\nbudget 1\n"


def costly_text(big, direct, objective="demand 1"):
    """Two paths and a direct edge from 0 to 3 whose costs reach int64's

    range: e1 and e5 cost ``big``, the direct edge e4 costs ``direct``, and
    the total cost is 2 * big + direct + 4."""
    return (
        f"graph 4\nsource 0\nsink 3\nedge e1 0 1 {big} 2\nedge e2 1 3 1 2\nedge e3 0 2 3 1\n"
        f"edge e5 2 3 {big} 1\nedge e4 0 3 {direct} 1\n{objective}\n"
    )


# Total cost 7.5e18, below 2**63 but past what the DP's int64 sums can add:
# unguarded, its table held negative cells and every demand failed.
OVERFLOW_TEXT = costly_text(3 * 10**18, 15 * 10**17)


# Complete graph on 4 vertices: the canonical non-series-parallel input.
K4_TEXT = """\
graph 4
source 0
sink 1
edge e1 0 1 1 1
edge e2 0 2 1 1
edge e3 0 3 1 1
edge e4 1 2 1 1
edge e5 1 3 1 1
edge e6 2 3 1 1
budget 6
"""

# Wheel on 4 rim vertices plus a hub: also not series-parallel.
WHEEL4_TEXT = """\
graph 5
source 0
sink 1
edge r1 1 2 1 1
edge r2 2 3 1 1
edge r3 3 4 1 1
edge r4 4 1 1 1
edge s1 0 1 1 1
edge s2 0 2 1 1
edge s3 0 3 1 1
edge s4 0 4 1 1
budget 8
"""


def path_graph(m, *, center_out=False, backward=False, declared=True):
    """The path 0-1-...-m, edge ``e{i}`` joining i and i + 1.

    ``center_out`` lists the edges from the middle outward, alternating
    sides; ``backward`` writes each edge as (i + 1, i); ``declared`` pins
    the terminal pair (0, m)."""
    order = list(range(m))
    if center_out:
        order.sort(key=lambda i: (abs(2 * i + 1 - m), i))
    edges = tuple(
        EdgeRecord(f"e{i}", *((i + 1, i) if backward else (i, i + 1)), 1, 1) for i in order
    )
    return MultiGraph(m + 1, edges, 0, m, declared_terminals=(0, m) if declared else None)


def k4_glued(s, edge_budget=12):
    """``generate_sp(s, edge_budget)`` with a K4 sharing one of its vertices,

    terminals undeclared: not series-parallel for any pair."""
    rng = random.Random(s)
    inst = generate_sp(s, edge_budget=edge_budget)
    g = inst.graph
    n = g.vertex_count
    quad = [rng.randrange(n), n, n + 1, n + 2]
    pairs = [(a, b) for i, a in enumerate(quad) for b in quad[i + 1 :]]
    k4 = tuple(EdgeRecord(f"k{i}", u, v, 1, 1) for i, (u, v) in enumerate(pairs))
    return replace(inst, graph=MultiGraph(n + 3, g.edges + k4, g.source, g.sink))


def terminals_last(s, edge_budget=12):
    """``generate_sp(s, edge_budget)`` with each terminal swapped with one of

    the two highest vertex ids, terminals undeclared: series-parallel, but
    not for the first candidate pair (0, 1)."""
    inst = generate_sp(s, edge_budget=edge_budget)
    g = inst.graph
    n = g.vertex_count
    label = list(range(n))
    for v, top in zip(g.declared_terminals, (n - 2, n - 1)):
        w = label.index(top)
        label[v], label[w] = top, label[v]
    edges = tuple(replace(e, u=label[e.u], v=label[e.v]) for e in g.edges)
    return replace(inst, graph=MultiGraph(n, edges, label[g.source], label[g.sink]))


@pytest.fixture
def single_edge():
    return parse_instance(SINGLE_EDGE_TEXT)


@pytest.fixture
def diamond():
    return parse_instance(DIAMOND_TEXT)


@pytest.fixture
def diamond_undeclared():
    return parse_instance(DIAMOND_TEXT_UNDECLARED)


@pytest.fixture
def ring():
    return parse_instance(RING_TEXT)


@pytest.fixture
def small_flow_networks(monkeypatch):
    """Make a flow network of more than eight vertices fail instead of

    allocating, so a network sized by the declared vertex count shows."""
    flow_module = importlib.import_module("spnd.flow")
    real = flow_module._FlowNet

    def bounded(n):
        if n > 8:
            raise AssertionError(f"flow network of {n} vertices")
        return real(n)

    monkeypatch.setattr(flow_module, "_FlowNet", bounded)
