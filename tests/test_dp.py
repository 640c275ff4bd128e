"""The residue dynamic program: tables, combination rules, and solvers.

Ground truth throughout is the subset-enumeration oracle or a direct
circulation-feasibility check; the DP is never allowed to vouch for itself.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from spnd import (
    InfeasibleError,
    ResidueDomain,
    ResidueTuple,
    build_table,
    circulation_feasible,
    decompose,
    feasible,
    feasible_detailed,
    generate_sp,
    parse_instance,
    solve_bcmfp,
    solve_capndp,
    subset_profiles,
    upper_bound_flow,
)
from spnd import dp as dp_module
from spnd.dp import all_case_labels, effective_max_flow
from spnd.instance import EdgeRecord

from dp_reference import combine_parallel, combine_series, leaf_cost, series_children

# Ring with source and sink strictly inside, F = 48: the two inner nodes
# above the sink join hold 97^3 cells.
RING48_TEXT = (
    "graph 4\nterminals 0 3\nsource 1\nsink 2\nedge e1 0 1 1 24\n"
    "edge e2 1 2 1 24\nedge e3 2 3 1 24\nedge e4 0 3 1 24\nbudget 1\n"
)


def _table_for(instance, f_bound=None):
    tree = decompose(instance.graph)
    if f_bound is None:
        f_bound = upper_bound_flow(instance)
    return tree, build_table(tree, f_bound)


def _admissible_tuples(table, nid):
    """Every tuple a table stores an admissible entry for: free coordinates

    range over their axes (the node's domain, or one pinned value on a
    special axis) and the implied terminal residue must lie in the domain."""
    nt = table.tables[nid]
    vals = [int(v) for v in nt.domain.values]
    special_vals = [[int(v) for v in axis.values] for axis in nt.special_axes]
    out = []
    for r_a in vals:
        for combo in itertools.product(*special_vals):
            r_b = -(r_a + sum(combo))
            if nt.domain.pos_of(r_b) is None:
                continue
            kw = {("r_s" if lab == "s" else "r_t"): val for lab, val in zip(nt.specials, combo)}
            out.append(ResidueTuple(r_a=r_a, r_b=r_b, **kw))
    return out


def _residue_map(tree, node, rt):
    res = {node.terminals[0]: rt.r_a, node.terminals[1]: rt.r_b}
    for lab in rt.specials():
        res[tree.source if lab == "s" else tree.sink] = rt.special_value(lab)
    return res


# -- residue domains and tuples -------------------------------------------


def test_residue_domain_range_and_lookup():
    dom = ResidueDomain.range(2)
    assert list(dom.values) == [-2, -1, 0, 1, 2]
    assert dom.pos_of(-2) == 0 and dom.pos_of(2) == 4
    assert dom.pos_of(3) is None
    clipped = dom.clipped(1)
    assert list(clipped.values) == [-1, 0, 1]


def test_residue_domain_explicit_validation():
    dom = ResidueDomain.explicit([5, -5, 0])
    assert list(dom.values) == [-5, 0, 5]
    with pytest.raises(ValueError):
        ResidueDomain.explicit([0, 1, 2])  # not symmetric
    with pytest.raises(ValueError):
        ResidueDomain.explicit([-1, 1])  # zero missing


def test_residue_tuple_validation():
    rt = ResidueTuple(r_a=1, r_b=-3, r_s=2)
    assert rt.entries() == (1, 2, -3)
    assert rt.specials() == ("s",)
    assert rt.special_value("s") == 2
    with pytest.raises(ValueError):
        ResidueTuple(r_a=1, r_b=1)
    with pytest.raises(ValueError):
        ResidueTuple(r_a=0, r_b=1, r_s=2, r_t=-2)


def test_case_label_catalogue():
    labels = all_case_labels()
    assert len(labels) == 24
    assert len(set(labels)) == 24
    assert "series:none" in labels
    assert "parallel:sL+tR" in labels
    assert "series:s@join+t@join" not in labels  # join hosts one vertex only


# -- leaf base case --------------------------------------------------------


def test_leaf_cost_contract():
    edge = EdgeRecord("e1", 0, 1, 5, 7)
    assert leaf_cost(edge, ResidueTuple(0, 0), infinity=99) == 0
    assert leaf_cost(edge, ResidueTuple(7, -7), infinity=99) == 5
    assert leaf_cost(edge, ResidueTuple(-7, 7), infinity=99) == 5
    assert leaf_cost(edge, ResidueTuple(8, -8), infinity=99) == 99
    assert leaf_cost(edge, ResidueTuple(8, -8), infinity=99, capacity=9) == 5
    with pytest.raises(ValueError):
        leaf_cost(edge, ResidueTuple(1, -3, r_s=2), infinity=99)


def test_single_edge_table(single_edge):
    tree, table = _table_for(single_edge)
    assert table.f_bound == 7
    leaf = tree.root
    for r in range(-7, 8):
        expected = 0 if r == 0 else 5
        assert table.cost_of(leaf, ResidueTuple(r, -r)) == expected


# -- hand-checked table entries -------------------------------------------


def test_upper_bound_flow(single_edge, diamond, ring):
    assert upper_bound_flow(single_edge) == 7
    assert upper_bound_flow(diamond) == 3
    assert upper_bound_flow(ring) == 3


def test_diamond_table_entries(diamond):
    tree, table = _table_for(diamond)
    root = tree.root
    assert table.cost_of(root, ResidueTuple(3, -3)) == 5
    assert table.cost_of(root, ResidueTuple(2, -2)) == 2
    assert table.cost_of(root, ResidueTuple(1, -1)) == 2
    assert table.cost_of(root, ResidueTuple(0, 0)) == 0
    series = tree.node(root).left
    assert table.cost_of(series, ResidueTuple(2, -2)) == 2
    # Parallel split choices: 3 units must send 2 via the path, 1 direct.
    assert table.split_of(root, ResidueTuple(3, -3)) == 2


def test_ring_interior_terminal_entries(ring):
    tree, table = _table_for(ring)
    root = tree.root
    assert table.cost_of(root, ResidueTuple(0, 0, r_s=3, r_t=-3)) == 4
    assert table.cost_of(root, ResidueTuple(0, 0, r_s=-3, r_t=3)) == 4
    assert table.cost_of(root, ResidueTuple(0, 0, r_s=0, r_t=0)) == 0
    assert table.cost_of(root, ResidueTuple(0, 0, r_s=2, r_t=-2)) == 1


def test_cost_of_checks_tuple_shape(diamond):
    tree, table = _table_for(diamond)
    with pytest.raises(ValueError):
        table.cost_of(tree.root, ResidueTuple(1, -3, r_s=2))
    assert table.cost_of(tree.root, ResidueTuple(9, -9)) == table.infinity


# -- queries and solvers ---------------------------------------------------


def test_dp_query_diamond(diamond):
    _, table = _table_for(diamond)
    assert table.query(3) == (5, frozenset({"e1", "e2", "e3"}))
    assert table.query(0) == (0, frozenset())
    assert table.query(1) == (2, frozenset({"e1", "e2"}))
    with pytest.raises(ValueError):
        table.query(4)
    with pytest.raises(ValueError):
        table.query(-1)


def test_dp_query_ring(ring):
    _, table = _table_for(ring)
    cost, edges = table.query(3)
    assert cost == 4
    assert edges == frozenset({"e1", "e2", "e3", "e4"})
    assert table.query(2)[0] == 1


def test_solve_capndp_diamond(diamond):
    sol = solve_capndp(diamond.with_demand(1))
    assert (sol.total_cost, sol.achieved_flow) == (2, 2)
    assert sol.purchased == frozenset({"e1", "e2"})
    assert solve_capndp(diamond.with_demand(3)).total_cost == 5
    assert solve_capndp(diamond.with_demand(0)).purchased == frozenset()
    with pytest.raises(InfeasibleError):
        solve_capndp(diamond.with_demand(4))


def test_solve_bcmfp_diamond(diamond):
    sol = solve_bcmfp(diamond.with_budget(2))
    assert (sol.achieved_flow, sol.total_cost) == (2, 2)
    assert solve_bcmfp(diamond.with_budget(5)).achieved_flow == 3
    empty = solve_bcmfp(diamond.with_budget(0))
    assert (empty.achieved_flow, empty.purchased) == (0, frozenset())


def test_solve_bcmfp_single_edge(single_edge):
    assert solve_bcmfp(single_edge).achieved_flow == 7
    assert solve_bcmfp(single_edge.with_budget(4)).achieved_flow == 0


def test_last_accepted_bisects_from_the_top_half():
    calls = []

    def accept(k):
        calls.append(k)
        return k <= 5, f"witness {k}"

    assert dp_module.last_accepted(10, accept) == (5, "witness 5")
    assert calls == [5, 8, 6]
    calls.clear()
    # k = 0 is taken without a call and has no result.
    assert dp_module.last_accepted(3, lambda k: (calls.append(k), False)) == (0, None)
    assert calls == [2, 1]
    assert dp_module.last_accepted(0, accept) == (0, None)


def test_missing_objective_rejected(diamond):
    with pytest.raises(ValueError):
        solve_bcmfp(diamond)  # diamond carries a demand
    with pytest.raises(ValueError):
        solve_capndp(diamond.with_budget(2))


def test_feasible_diamond(diamond):
    ok, edges = feasible(diamond, 2, 2)
    assert ok and edges == frozenset({"e1", "e2"})
    assert feasible(diamond, 1, 1) == (False, None)
    zeroed = {e.id: 0 for e in diamond.graph.edges}
    assert feasible(diamond, 5, 3, zeroed)[0] is False
    assert feasible(diamond, 5, 0, zeroed)[0] is True


def test_feasible_detailed_reports_stats(diamond):
    ok, edges, stats = feasible_detailed(diamond, 5, 3)
    assert ok and edges == frozenset({"e1", "e2", "e3"})
    assert stats["f_bound"] == 3
    assert stats["cost"] == 5
    assert stats["states"] > 0


def test_capacity_override_changes_answers(diamond):
    tree = decompose(diamond.graph)
    table = build_table(tree, 3, capacity_override={"e3": 0})
    assert table.query_cost(3) == table.infinity
    assert table.query(3) == (table.infinity, None)
    assert table.query_cost(2) == 2
    with pytest.raises(KeyError):
        build_table(tree, 3, capacity_override={"zz": 1})
    with pytest.raises(ValueError):
        build_table(tree, 3, capacity_override={"e3": -1})


def test_effective_max_flow(diamond):
    caps = {e.id: e.capacity for e in diamond.graph.edges}
    assert effective_max_flow(diamond.graph, caps) == 3
    caps["e3"] = 0
    assert effective_max_flow(diamond.graph, caps) == 2


def test_pinned_build_rejects_other_queries(diamond):
    tree = decompose(diamond.graph)
    table = build_table(tree, 2, pin=2)
    assert table.query_cost(2) == 2
    with pytest.raises(ValueError):
        table.query_cost(1)
    with pytest.raises(ValueError):
        build_table(tree, 2, pin=5)


# -- combination rules recomputed independently ----------------------------


def _assert_combiners_match(tree, table, where):
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        if node.kind == "leaf":
            continue
        for rt in _admissible_tuples(table, nid):
            if node.kind == "series":
                assert combine_series(table, nid, rt) == table.cost_of(nid, rt), f"{where} node {nid} {rt}"
                continue
            cost, split = combine_parallel(table, nid, rt)
            assert cost == table.cost_of(nid, rt), f"{where} node {nid} {rt}"
            if cost < table.infinity:
                assert split == table.split_of(nid, rt), f"{where} node {nid} {rt}"


def _even_residues(f_bound):
    return [r for r in range(-f_bound, f_bound + 1) if r % 2 == 0]


@pytest.mark.parametrize("seed", range(1, 31))
def test_combiners_match_stored_tables(seed):
    instance = generate_sp(seed, edge_budget=6, cap_max=3)
    tree, table = _table_for(instance)
    _assert_combiners_match(tree, table, f"seed {seed}")
    for v in range(table.f_bound + 1):
        _assert_combiners_match(tree, build_table(tree, v, pin=v), f"seed {seed} pin {v}")
    f = table.f_bound
    even = build_table(tree, f, residue_values=_even_residues(f))
    _assert_combiners_match(tree, even, f"seed {seed} even residues")


def _all_builds(tree, f_bound):
    """The full build, a pinned build at every v and an even-residue build."""
    yield build_table(tree, f_bound)
    for v in range(f_bound + 1):
        yield build_table(tree, v, pin=v)
    yield build_table(tree, f_bound, residue_values=_even_residues(f_bound))


@pytest.mark.parametrize("cells", [1, 2, 7, 60])
def test_split_blocks_do_not_change_tables(cells, monkeypatch):
    # A block of one split is the split-by-split scan; small blocks put
    # ties on both sides of a block boundary, which must still go to the
    # smallest split.
    for seed in range(1, 16):
        instance = generate_sp(seed, edge_budget=8, cap_max=4)
        tree = decompose(instance.graph)
        f = upper_bound_flow(instance)
        expected = list(_all_builds(tree, f))
        with monkeypatch.context() as patch:
            patch.setattr(dp_module, "CELLS", cells)
            blocked = list(_all_builds(tree, f))
        for want, got in zip(expected, blocked):
            assert want.tables.keys() == got.tables.keys()
            for nid, nt in want.tables.items():
                assert np.array_equal(nt.cost, got.tables[nid].cost), (seed, nid)
                if nt.split is None:
                    assert got.tables[nid].split is None
                else:
                    assert np.array_equal(nt.split, got.tables[nid].split), (seed, nid)


def test_split_scan_scratch_memory_is_bounded():
    # The root's parallel combine scans 97 splits over a 97^3 table. Its
    # scratch must stay a few blocks in size; one candidate array for all
    # splits would be 97 tables.
    tree = decompose(parse_instance(RING48_TEXT).graph)
    tracemalloc.start()
    try:
        table = build_table(tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.f_bound == 48
    kept = sum(
        nt.cost.nbytes + (0 if nt.split is None else nt.split.nbytes)
        for nt in table.tables.values()
    )
    largest = max(nt.cost.size for nt in table.tables.values())
    assert largest == 97**3
    assert peak - kept <= 8 * max(dp_module.CELLS, largest) * 8


def test_admissibility_mask_memory_is_bounded(monkeypatch):
    # The mask of admissible cells is one byte a cell; computing it may
    # take one full-size residue array and a few masks, not positions.
    real = dp_module._Builder._admissibility
    peaks = {}

    def measured(self, dom, va, svals, shape):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = real(self, dom, va, svals, shape)
        peaks[shape] = max(peaks.get(shape, 0), tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(dp_module._Builder, "_admissibility", measured)
    tree = decompose(parse_instance(RING48_TEXT).graph)
    tracemalloc.start()
    try:
        build_table(tree)
    finally:
        tracemalloc.stop()
    assert peaks[(97, 97, 97)] <= 16 * 97**3


def test_series_children_sum_to_parent(ring):
    tree, table = _table_for(ring)
    root = tree.node(tree.root)
    outer = tree.node(root.left)
    rt = ResidueTuple(0, 0, r_s=2, r_t=-2)
    left_rt, right_rt = series_children(table, outer, rt)
    # The join hosts the sink here, so the right child absorbs its residue.
    assert sum(left_rt.entries()) == 0 and sum(right_rt.entries()) == 0
    assert table.cost_of(outer.id, rt) == table.cost_of(outer.left, left_rt) + table.cost_of(
        outer.right, right_rt
    )


# -- solver-wide properties ------------------------------------------------


@pytest.mark.parametrize("seed", range(1, 21))
def test_tuple_enumeration_matches_state_count(seed):
    instance = generate_sp(seed, edge_budget=6, cap_max=3)
    tree, table = _table_for(instance)
    per_node = table.per_node_states()
    for nid in tree.postorder_ids():
        assert len(_admissible_tuples(table, nid)) == per_node[nid]


@pytest.mark.parametrize("seed", range(1, 41))
def test_monotone_zero_and_symmetry_properties(seed):
    instance = generate_sp(seed, edge_budget=7, cap_max=4)
    tree, table = _table_for(instance)

    costs = [table.query_cost(v) for v in range(table.f_bound + 1)]
    assert all(a <= b for a, b in zip(costs, costs[1:])), "cost must rise with flow"
    assert costs[0] == 0

    for nid in tree.postorder_ids():
        node = tree.node(nid)
        zero_kw = {("r_s" if lab == "s" else "r_t"): 0 for lab in table.tables[nid].specials}
        zero = ResidueTuple(0, 0, **zero_kw)
        assert table.cost_of(nid, zero) == 0
        assert table.reconstruct(nid, zero) == frozenset()
        if node.kind == "leaf":
            continue
        for rt in _admissible_tuples(table, nid)[::7]:
            mirrored = ResidueTuple(
                -rt.r_a,
                -rt.r_b,
                r_s=None if rt.r_s is None else -rt.r_s,
                r_t=None if rt.r_t is None else -rt.r_t,
            )
            assert table.cost_of(nid, rt) == table.cost_of(nid, mirrored)


@pytest.mark.parametrize("seed", range(1, 41))
def test_state_budget(seed):
    instance = generate_sp(seed, edge_budget=8)
    tree, table = _table_for(instance)
    m = instance.graph.edge_count
    f = table.f_bound
    assert table.state_count <= (2 * m - 1) * (2 * f + 1) ** 3
    for count in table.per_node_states().values():
        assert count <= (2 * f + 1) ** 3


@pytest.mark.parametrize("seed", range(1, 26))
def test_entry_soundness(seed):
    # Every finite entry's reconstruction must actually route the claimed
    # residues at the claimed cost.
    instance = generate_sp(seed, edge_budget=5, cap_max=3)
    tree, table = _table_for(instance)
    graph = instance.graph
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        for rt in _admissible_tuples(table, nid):
            cost = table.cost_of(nid, rt)
            if cost >= table.infinity:
                continue
            edges = table.reconstruct(nid, rt)
            assert sum(graph.edge_by_id(e).cost for e in edges) == cost
            assert set(edges) <= set(tree.subtree_edge_ids(nid))
            assert circulation_feasible(graph, edges, _residue_map(tree, node, rt)), (
                f"seed {seed} node {nid} {rt}"
            )


@pytest.mark.parametrize("seed", range(1, 9))
def test_entry_minimality_by_exhaustion(seed):
    # On very small instances, no subset of a node's subtree edges may beat
    # the stored cost (sampled tuples on the larger nodes to keep this fast).
    instance = generate_sp(seed, edge_budget=4, cap_max=2)
    tree, table = _table_for(instance)
    graph = instance.graph
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        ids = tree.subtree_edge_ids(nid)
        subsets = [
            frozenset(combo)
            for k in range(len(ids) + 1)
            for combo in itertools.combinations(ids, k)
        ]
        tuples = _admissible_tuples(table, nid)
        if len(tuples) > 240:
            tuples = tuples[:: len(tuples) // 240 + 1]
        for rt in tuples:
            residues = _residue_map(tree, node, rt)
            best = None
            for subset in subsets:
                if circulation_feasible(graph, subset, residues):
                    cost = sum(graph.edge_by_id(e).cost for e in subset)
                    best = cost if best is None else min(best, cost)
            stored = table.cost_of(nid, rt)
            if best is None:
                assert stored == table.infinity, f"seed {seed} node {nid} {rt}"
            else:
                assert stored == best, f"seed {seed} node {nid} {rt}"


@pytest.mark.parametrize("seed", range(1, 121))
def test_solvers_match_oracle_everywhere(seed):
    instance = generate_sp(seed, edge_budget=8)
    tree, table = _table_for(instance)
    profiles = subset_profiles(instance.graph)
    f = table.f_bound
    costs = [table.query_cost(v) for v in range(f + 1)]

    for demand in range(f + 1):
        oracle_cost = min(c for c, fl in profiles if fl >= demand)
        assert costs[demand] == oracle_cost, f"seed {seed} demand {demand}"

    total = instance.graph.total_cost()
    for budget in range(total + 1):
        oracle_flow = max(fl for c, fl in profiles if c <= budget)
        dp_flow = solve_bcmfp(
            instance.with_budget(budget), tree=tree, table=table
        ).achieved_flow
        assert dp_flow == oracle_flow, f"seed {seed} budget {budget}"


@pytest.mark.parametrize("seed", range(1, 41))
def test_pinned_queries_equal_full_tables(seed):
    instance = generate_sp(seed, edge_budget=7, cap_max=4)
    tree = decompose(instance.graph)
    full = build_table(tree, upper_bound_flow(instance))
    for v in range(full.f_bound + 1):
        pinned = build_table(tree, v, pin=v)
        assert pinned.query_cost(v) == full.query_cost(v), f"seed {seed} v={v}"
        assert pinned.state_count <= full.state_count


def test_reconstruction_is_deterministic(diamond):
    _, table = _table_for(diamond)
    assert table.query(2) == table.query(2)
    assert table.query(2)[1] == frozenset({"e1", "e2"})
