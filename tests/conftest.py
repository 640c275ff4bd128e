"""Shared fixtures: tiny hand-checkable instances used across the suite.

Every expected number attached to these graphs was worked out by hand or by
exhaustive enumeration over all edge subsets, so they are safe anchors for
testing the solver itself.
"""

import importlib

import pytest

from spnd import parse_instance

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
