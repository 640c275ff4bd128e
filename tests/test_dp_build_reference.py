"""The live build against the frozen node-by-node one.

Every node of every table must carry the same domain values, cost and
split bytes and admissible count as ``dp_build_reference.reference_table``,
whether the build is full, pinned, over a lattice or a gapped residue set,
under scaled capacities, or degenerate (F = 0, zero capacities, one edge),
and whatever the split scan's block size."""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from spnd import build_table, decompose, dp, generate_sp, upper_bound_flow
from spnd.extensions import LatticeSpec, lattice_residues
from spnd.fptas import ScaleParams, scale_capacities

from dp_build_reference import assert_same_tables, reference_table
from sp_strategies import paths_apart, tiny_instances, with_capacities

# generate_sp(seed, edge_budget=400, cap_max=2) seeds with 190-210 edges,
# the size of the benchmark's large sparse inputs.
LARGE_SPARSE_SEEDS = (31, 43, 57, 104)


def _check(tree, f_bound, where, residue_values=None, pin=None):
    if residue_values is None:
        got = build_table(tree, f_bound, pin=pin)
    else:
        got = dp._Builder(tree, f_bound, dp.ResidueDomain.explicit(residue_values)).build(pin)
    expected = reference_table(tree, f_bound, residue_values=residue_values, pin=pin)
    assert_same_tables(got, expected, where)


@pytest.mark.parametrize("seed", LARGE_SPARSE_SEEDS)
def test_large_sparse_pinned_builds(seed):
    instance = generate_sp(seed, edge_budget=400, cap_max=2)
    assert 190 <= instance.graph.edge_count <= 210
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    for v in range(f + 1):
        _check(tree, f, f"seed {seed} pin {v}", pin=v)


@pytest.mark.parametrize("seed", range(1, 31))
def test_gate1_full_and_pinned_builds(seed):
    instance = generate_sp(seed, edge_budget=10, cap_max=6, cost_max=10)
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    _check(tree, f, f"seed {seed} full")
    for v in range(f + 1):
        _check(tree, f, f"seed {seed} pin {v}", pin=v)


@pytest.mark.parametrize("seed", range(1, 16))
def test_lattice_residue_sets(seed):
    instance = generate_sp(seed, edge_budget=10, cap_max=12)
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    m = instance.graph.edge_count
    residue_sets = {
        "basis (2, 6)": lattice_residues(LatticeSpec((2, 6), 1), m, f).tolist(),
        "basis (3,)": lattice_residues(LatticeSpec((3,), 1), m, f).tolist(),
        # A large gap, and values past F that the build must clip away.
        "gap": [-3 * f, -f, -1, 0, 1, f, 3 * f],
        "zero only": [0],
    }
    for name, values in residue_sets.items():
        _check(tree, f, f"seed {seed} {name}", residue_values=values)
        _check(tree, f, f"seed {seed} {name} pin {f}", residue_values=values, pin=f)


@pytest.mark.parametrize("seed", range(1, 11))
def test_scaled_capacity_builds(seed):
    # The approximation scheme's probes: capacities scaled down at a level
    # M, the flow bound clipped to the target R, pinned to R.
    instance = generate_sp(seed, edge_budget=8, cap_max=10**6, cost_max=10)
    tree = decompose(instance.graph)
    params = ScaleParams.for_instance(instance.graph.edge_count, "1/2")
    for level in (1, 7, 10**3, 10**5, 10**7):
        scaled = with_capacities(tree, scale_capacities(instance.graph, level, params.epsilon_prime))
        r = params.target_r
        _check(scaled, r, f"seed {seed} level {level}", pin=r)


@pytest.mark.parametrize("seed", range(1, 11))
def test_zero_flow_bound_and_zero_capacities(seed):
    instance = generate_sp(seed, edge_budget=10, cap_max=6)
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    _check(tree, 0, f"seed {seed} F=0")
    _check(tree, 0, f"seed {seed} F=0 pin 0", pin=0)
    # Every other edge closed, then every edge.
    edges = instance.graph.edges
    for zeroed in ({e.id: 0 for e in edges[::2]}, {e.id: 0 for e in edges}):
        closed = with_capacities(tree, zeroed)
        _check(closed, f, f"seed {seed} zeroed {len(zeroed)}")
        _check(closed, f, f"seed {seed} zeroed {len(zeroed)} pin 1", pin=min(1, f))


def test_one_edge_tree(single_edge):
    tree = decompose(single_edge.graph)
    assert tree.node(tree.root).kind == "leaf"
    for f in (0, 3, 7, 9):
        _check(tree, f, f"F={f}")
        _check(tree, f, f"F={f} pin {f}", pin=f)
    _check(with_capacities(tree, {"e1": 0}), 7, "closed")
    _check(tree, 7, "even", residue_values=[-6, -4, -2, 0, 2, 4, 6])


@settings(max_examples=500)
@example(paths_apart(2, 3), 1, 0, 3, {1, 3})  # parallel:sL+tR
@example(paths_apart(3, 2), 7, 1, 2, {2})  # parallel:sR+tL
@given(
    tiny_instances(capacity=st.integers(0, 5)),
    st.sampled_from((1, 7, dp.CELLS)),
    st.integers(0, 2),
    st.integers(0, 30),
    st.sets(st.integers(1, 32)),
)
def test_tiny_instances_under_any_block_size(instance, cells, slack, pin, gapped):
    # Source and sink anywhere: these examples bring up every parallel case
    # label, the source in one child and the sink in the other included.
    # Blocks of one or a few splits put ties on both sides of a block edge.
    # A flow bound past F can give the child that holds a special a shorter
    # special axis than its parent's. Residues past the bound are clipped
    # away by the build.
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    v = pin % (f + 1)
    residues = sorted({0, *gapped, *(-x for x in gapped)})
    with patch.object(dp, "CELLS", cells):
        _check(tree, f + slack, f"full, F + {slack}")
        _check(tree, f, f"pin {v}", pin=v)
        _check(tree, f, f"residues {residues}", residue_values=residues)
