"""The residue dynamic program: tables, combination rules, and solvers.

Ground truth throughout is the subset-enumeration oracle or a direct
circulation-feasibility check; the DP is never allowed to vouch for itself.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from spnd import (
    InfeasibleError,
    LatticeSpec,
    build_table,
    decompose,
    feasible,
    fptas_bcmfp,
    generate_sp,
    oracle_bcmfp,
    oracle_capndp,
    parse_instance,
    solve_bcmfp,
    solve_capndp,
    solve_lattice_detailed,
    subset_profiles,
    upper_bound_flow,
)
from spnd import dp as dp_module
from spnd.dp import ResidueDomain, all_case_labels, feasible_detailed
from spnd.extensions import lattice_residues
from spnd.flow import circulation_feasible
from spnd.instance import EdgeRecord

from dp_build_reference import assert_same_tables, reference_table
from dp_reference import cell_of, combine_parallel, combine_series, leaf_cost, series_children
from sp_strategies import FixedDraws, paths_apart, tiny_instances, with_capacities

# Ring with source and sink strictly inside, F = 48: the two inner nodes
# above the sink join hold 97^3 cells.
RING48_TEXT = (
    "graph 4\nterminals 0 3\nsource 1\nsink 2\nedge e1 0 1 1 24\n"
    "edge e2 1 2 1 24\nedge e3 2 3 1 24\nedge e4 0 3 1 24\nbudget 1\n"
)


def _gate7_ring(c):
    """The ring of acceptance gate 7 at capacity scale c: F = 6c."""
    return parse_instance(
        "graph 4\nterminals 0 3\nsource 1\nsink 2\n"
        f"edge e1 0 1 1 {2 * c}\nedge e2 1 2 1 {4 * c}\n"
        f"edge e3 2 3 1 {2 * c}\nedge e4 0 3 1 {2 * c}\nbudget 4\n"
    )


def _branches(widths):
    """Source 0 and sink 1 joined by one branch per capacity c in ``widths``:

    two parallel edges of capacity c into a vertex of its own, then one
    edge of capacity c on to the sink. Every node is special-free, and the
    bundles all have height 1."""
    lines = [f"graph {len(widths) + 2}", "terminals 0 1", "source 0", "sink 1"]
    for i, c in enumerate(widths, 2):
        lines += [f"edge a{i} 0 {i} 1 {c}", f"edge b{i} 0 {i} 1 {c}", f"edge c{i} {i} 1 1 {c}"]
    return parse_instance("\n".join(lines) + "\nbudget 1\n")


def _traced_peak(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kept_bytes(table):
    """Bytes of the arrays a table's node tables are, or are views of."""
    owners = {}
    for nt in table.tables.values():
        for arr in (nt.cost, nt.split):
            if arr is not None:
                owner = arr if arr.base is None else arr.base
                owners[id(owner)] = owner.nbytes
    return sum(owners.values())


def _table_for(instance, f_bound=None):
    tree = decompose(instance.graph)
    if f_bound is None:
        f_bound = upper_bound_flow(instance)
    return tree, build_table(tree, f_bound)


def _admissible_cells(table, nid):
    """Every (r_a, r_s, r_t) cell a table stores an admissible entry for:

    free coordinates range over their axes (the node's domain, or one pinned
    value on a special axis), a special that is not interior reads 0, and
    the implied terminal residue must lie in the domain."""
    nt = table.tables[nid]
    vals = [int(v) for v in nt.domain.values]
    special_vals = [[int(v) for v in axis.values] for axis in nt.special_axes.values()]
    out = []
    for r_a in vals:
        for combo in itertools.product(*special_vals):
            r_b = -(r_a + sum(combo))
            if nt.domain.pos_of(r_b) is None:
                continue
            special = dict(zip(nt.special_axes, combo))
            out.append((r_a, special.get("s", 0), special.get("t", 0)))
    return out


def _residue_map(tree, table, nid, cell):
    """Vertex residues of a cell: the a-slot, the interior specials, and the

    b-slot that balances them."""
    r_a, r_s, r_t = cell
    a, b = tree.node(nid).terminals
    res = {a: r_a}
    for lab in table.tables[nid].special_axes:
        res[tree.source if lab == "s" else tree.sink] = r_s if lab == "s" else r_t
    res[b] = -sum(res.values())
    return res


# -- residue domains ---------------------------------------------------------


def test_residue_domain_range_and_lookup():
    dom = ResidueDomain.range(2)
    assert list(dom.values) == [-2, -1, 0, 1, 2]
    assert dom.pos_of(-2) == 0 and dom.pos_of(2) == 4
    assert dom.pos_of(3) is None
    clipped = dom.clipped(1)
    assert list(clipped.values) == [-1, 0, 1]
    # A pinned value, a dense explicit set, sets of one step (read by
    # offset) and gapped ones (read by binary search), the last two spanning
    # a whole number of steps: every lookup must agree with a plain dict
    # over the values.
    for dom, step in (
        (ResidueDomain.single(-3), 1),
        (ResidueDomain.explicit([-1, 0, 1]), 1),
        (ResidueDomain.explicit([-5, 0, 5]), 5),
        (ResidueDomain.explicit([-6, -3, 0, 3, 6]), 3),
        (ResidueDomain.explicit([-5, -2, 0, 2, 5]), None),
        (ResidueDomain.explicit([-6, -4, 0, 4, 6]), None),
        (ResidueDomain.explicit([-4, -3, 0, 3, 4]), None),
    ):
        assert dom.step == step, dom.values
        index = {int(v): i for i, v in enumerate(dom.values)}
        probe = np.arange(-7, 8)
        pos, ok = dom.positions(probe)
        assert ok.tolist() == [int(v) in index for v in probe]
        assert dom.contains(probe).tolist() == ok.tolist()
        assert dom.index(probe).tolist() == [index.get(v, len(dom)) for v in probe.tolist()]
        for v, p, hit in zip(probe.tolist(), pos.tolist(), ok.tolist()):
            assert dom.pos_of(v) == index.get(v)
            if hit:
                assert p == index[v]


def test_residue_domain_explicit_validation():
    dom = ResidueDomain.explicit([5, -5, 0])
    assert list(dom.values) == [-5, 0, 5]
    with pytest.raises(ValueError):
        ResidueDomain.explicit([0, 1, 2])  # not symmetric
    with pytest.raises(ValueError):
        ResidueDomain.explicit([-1, 1])  # zero missing


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
    assert leaf_cost(edge, 0, infinity=99) == 0
    assert leaf_cost(edge, 7, infinity=99) == 5
    assert leaf_cost(edge, -7, infinity=99) == 5
    assert leaf_cost(edge, 8, infinity=99) == 99
    assert leaf_cost(edge, 8, infinity=99, capacity=9) == 5


def test_single_edge_table(single_edge):
    tree, table = _table_for(single_edge)
    assert table.f_bound == 7
    leaf = tree.root
    for r in range(-7, 8):
        expected = 0 if r == 0 else 5
        assert table.cost_of(leaf, r) == expected


# -- hand-checked table entries -------------------------------------------


def test_upper_bound_flow(single_edge, diamond, ring):
    assert upper_bound_flow(single_edge) == 7
    assert upper_bound_flow(diamond) == 3
    assert upper_bound_flow(ring) == 3


def test_diamond_table_entries(diamond):
    tree, table = _table_for(diamond)
    root = tree.root
    assert table.cost_of(root, 3) == 5
    assert table.cost_of(root, 2) == 2
    assert table.cost_of(root, 1) == 2
    assert table.cost_of(root, 0) == 0
    series = tree.node(root).left
    assert table.cost_of(series, 2) == 2
    # Parallel split choices: 3 units must send 2 via the path, 1 direct.
    assert table.split_of(root, 3) == 2


def test_ring_interior_terminal_entries(ring):
    tree, table = _table_for(ring)
    root = tree.root
    assert table.cost_of(root, 0, r_s=3, r_t=-3) == 4
    assert table.cost_of(root, 0, r_s=-3, r_t=3) == 4
    assert table.cost_of(root, 0, r_s=0, r_t=0) == 0
    assert table.cost_of(root, 0, r_s=2, r_t=-2) == 1


def test_cost_of_checks_tuple_shape(diamond):
    tree, table = _table_for(diamond)
    # Source and sink are the diamond's terminals: their residues are ignored.
    assert table.cost_of(tree.root, 3, r_s=2, r_t=-5) == table.cost_of(tree.root, 3) == 5
    assert table.cost_of(tree.root, 9) == table.infinity


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


def test_budget_search_never_affords_the_sentinel():
    # A flow bound past F leaves the sentinel at every flow the graph cannot
    # carry; a budget at or above the sentinel must not buy such a flow.
    inst = parse_instance("graph 3\nsource 0\nsink 2\nedge e1 0 1 1 5\nedge e2 1 2 1 1\nbudget 100\n")
    tree = decompose(inst.graph)
    table = build_table(tree, 6)
    assert inst.budget >= table.infinity
    sol = solve_bcmfp(inst, table=table)
    assert (sol.achieved_flow, sol.total_cost) == (1, 2)
    # Each probe's row is its one flow value's cost, the sentinel past the
    # graph's max flow of 1, and the builder's search stops below it.
    builder = dp_module._Builder(tree, 6, None)
    rows = [builder.build(v)._cost_row.tolist() for v in range(7)]
    assert rows == [[0], [2]] + [[table.infinity]] * 5
    sol = dp_module._solve(inst, tree, None, 6)[0]
    assert (sol.achieved_flow, sol.total_cost) == (1, 2)


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
    zeroed = with_capacities(diamond, {e.id: 0 for e in diamond.graph.edges})
    assert feasible(zeroed, 5, 3)[0] is False
    assert feasible(zeroed, 5, 0)[0] is True


def test_feasible_detailed_reports_stats(diamond):
    ok, edges, stats = feasible_detailed(diamond, 5, 3)
    assert ok and edges == frozenset({"e1", "e2", "e3"})
    assert stats["f_bound"] == 3
    assert stats["cost"] == 5
    assert stats["states"] > 0


def test_table_answers_for_its_graphs_capacities(diamond):
    # The diamond's tree over a copy with e3 closed: flow 3 needs e3.
    table = build_table(with_capacities(decompose(diamond.graph), {"e3": 0}), 3)
    assert table.query_cost(3) == table.infinity
    assert table.query(3) == (table.infinity, None)
    assert table.query_cost(2) == 2


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
        for cell in _admissible_cells(table, nid):
            if node.kind == "series":
                assert combine_series(table, nid, cell) == table.cost_of(nid, *cell), f"{where} node {nid} {cell}"
                continue
            cost, split = combine_parallel(table, nid, cell)
            assert cost == table.cost_of(nid, *cell), f"{where} node {nid} {cell}"
            if cost < table.infinity:
                assert split == table.split_of(nid, *cell), f"{where} node {nid} {cell}"


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
    even = dp_module._Builder(tree, f, ResidueDomain.explicit(_even_residues(f))).build(None)
    _assert_combiners_match(tree, even, f"seed {seed} even residues")


def _all_builds(tree, f_bound):
    """The full build, a pinned build at every v and an even-residue build."""
    yield build_table(tree, f_bound)
    for v in range(f_bound + 1):
        yield build_table(tree, v, pin=v)
    even = ResidueDomain.explicit(_even_residues(f_bound))
    yield dp_module._Builder(tree, f_bound, even).build(None)


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
    instance = parse_instance(RING48_TEXT)
    tree = decompose(instance.graph)
    tracemalloc.start()
    try:
        table = build_table(tree, upper_bound_flow(instance))
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


def test_grouped_build_peaks_no_higher_than_the_node_by_node_build():
    # The gate-7 ring at its largest doubling, F = 48. At F = 144 the
    # node-by-node build alone would take well over a gigabyte: F = 96
    # already peaks at 489 MB traced.
    instance = _gate7_ring(8)
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    assert f == 48
    grouped = _traced_peak(lambda: build_table(tree, f))
    node_by_node = _traced_peak(lambda: reference_table(tree, f))
    assert grouped <= node_by_node, (grouped, node_by_node)


def _bypass(k, c):
    """A chain of k bundles of two unit edges from source 0 to sink k, and

    beside it one edge of capacity c: F = c + 2 over a tree of narrow nodes."""
    lines = [f"graph {k + 1}", f"terminals 0 {k}", "source 0", f"sink {k}", f"edge z 0 {k} 1 {c}"]
    for i in range(k):
        lines += [f"edge a{i} {i} {i + 1} 1 1", f"edge b{i} {i} {i + 1} 1 1"]
    return parse_instance("\n".join(lines) + "\nbudget 1\n")


@pytest.mark.parametrize(
    "instance",
    [_bypass(100, 2000), _branches([1] * 100 + [1000])],
    ids=["bypass", "narrow-and-wide-branches"],
)
def test_narrow_nodes_under_a_large_flow_bound_keep_their_own_size(instance):
    # Hundreds of special-free nodes a few cells wide, under F = 2002 and
    # F = 1100. Rows padded to the flow bound would keep megabytes per
    # hundred nodes; each row at its own width keeps what the node-by-node
    # tables keep, plus the one sentinel cell. Groups padded to their widest
    # member would make the narrow bundles beside the wide one scan and sum
    # its width.
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    assert f > 1000 and not any(node.placements for node in tree.nodes)
    grouped, node_by_node = build_table(tree, f), reference_table(tree, f)
    assert _kept_bytes(grouped) <= _kept_bytes(node_by_node) + 8
    assert_same_tables(grouped, node_by_node)
    del grouped, node_by_node
    peaks = [_traced_peak(lambda: build(tree, f)) for build in (build_table, reference_table)]
    assert peaks[0] <= 1.25 * peaks[1], peaks


def test_spine_rows_keep_no_more_than_the_node_by_node_tables():
    # Spine nodes are rows of the same flat arrays as the special-free ones,
    # and their tables are views: a full and a pinned build keep what the
    # node-by-node tables keep, plus the one sentinel cell.
    checked = 0
    for seed in range(1, 31):
        instance = generate_sp(seed, edge_budget=10, cap_max=6, cost_max=10)
        tree = decompose(instance.graph)
        if not any(node.placements for node in tree.nodes):
            continue
        f = upper_bound_flow(instance)
        for kwargs in ({}, {"pin": f}):
            grouped, node_by_node = build_table(tree, f, **kwargs), reference_table(tree, f, **kwargs)
            assert _kept_bytes(grouped) <= _kept_bytes(node_by_node) + 8, (seed, kwargs)
        checked += 1
    assert checked >= 25


def test_grouped_split_scan_scratch_memory_is_bounded():
    # A path of 160 equal bundles, F = 60: one parallel group of 160 rows,
    # 61 live splits and 121 cells, whose candidates at once would be
    # 9.4 MB, in a scan that holds a few arrays of that size.
    lines = ["graph 161", "terminals 0 160", "source 0", "sink 160"]
    for i in range(160):
        lines += [f"edge a{i} {i} {i + 1} 1 30", f"edge b{i} {i} {i + 1} 1 30"]
    instance = parse_instance("\n".join(lines) + "\nbudget 1\n")
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    assert f == 60 and not any(node.placements for node in tree.nodes)
    tracemalloc.start()
    try:
        table = build_table(tree, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - _kept_bytes(table) <= 8 * dp_module.CELLS * 8
    assert_same_tables(table, reference_table(tree, f))


def test_parallel_groups_scan_in_proportion_to_their_nodes(monkeypatch):
    # Fifty narrow bundles and one wide one share a height. Grouped by
    # height and kind alone, without the width classes, each narrow bundle would scan the wide one's
    # 81 splits over its 161 cells, where 3 splits over 5 cells suffice.
    instance = _branches([1] * 50 + [40])
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    scanned = []
    real = dp_module._split_scan

    def counting(top, left, right, best, split, sentinel):
        live = int((left < sentinel).any(axis=0).sum())
        scanned.append(live * best.size)
        return real(top, left, right, best, split, sentinel)

    monkeypatch.setattr(dp_module, "_split_scan", counting)
    table = build_table(tree, f)
    # Each node's own candidates: its left child's finite cells times its cells.
    needed = sum(
        int((table.tables[node.left].cost < table.infinity).sum()) * len(table.tables[node.id].domain)
        for node in tree.nodes
        if node.kind == "parallel"
    )
    assert sum(scanned) <= 1.5 * needed, (sum(scanned), needed)
    assert_same_tables(table, reference_table(tree, f))


def test_admissibility_mask_memory_is_bounded(monkeypatch):
    # The mask of admissible cells is one byte a cell; computing it may
    # take one full-size residue array and a few masks, not positions.
    real = dp_module._Builder._admissibility
    peaks = {}

    def measured(self, dom, sigma):
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = real(self, dom, sigma)
        cells = len(dom) * len(sigma)
        peaks[cells] = max(peaks.get(cells, 0), tracemalloc.get_traced_memory()[1] - before)
        return out

    monkeypatch.setattr(dp_module._Builder, "_admissibility", measured)
    instance = parse_instance(RING48_TEXT)
    tree = decompose(instance.graph)
    tracemalloc.start()
    try:
        build_table(tree, upper_bound_flow(instance))
    finally:
        tracemalloc.stop()
    assert peaks[97**3] <= 16 * 97**3


def test_series_children_sum_to_parent(ring):
    tree, table = _table_for(ring)
    root = tree.node(tree.root)
    outer = tree.node(root.left)
    cell = (0, 2, -2)
    left, right = series_children(table, outer, cell)
    # The join hosts the sink here, so the right child absorbs its residue.
    assert sum(left.values()) == 0 and sum(right.values()) == 0
    assert table.cost_of(outer.id, *cell) == table.cost_of(outer.left, *cell_of(left)) + table.cost_of(
        outer.right, *cell_of(right)
    )


# -- solver-wide properties ------------------------------------------------


@pytest.mark.parametrize("seed", range(1, 21))
def test_tuple_enumeration_matches_state_count(seed):
    instance = generate_sp(seed, edge_budget=6, cap_max=3)
    tree, table = _table_for(instance)
    per_node = table.per_node_states()
    for nid in tree.postorder_ids():
        assert len(_admissible_cells(table, nid)) == per_node[nid]


@pytest.mark.parametrize("seed", range(1, 41))
def test_monotone_zero_and_symmetry_properties(seed):
    instance = generate_sp(seed, edge_budget=7, cap_max=4)
    tree, table = _table_for(instance)

    costs = [table.query_cost(v) for v in range(table.f_bound + 1)]
    assert all(a <= b for a, b in zip(costs, costs[1:])), "cost must rise with flow"
    assert costs[0] == 0

    for nid in tree.postorder_ids():
        node = tree.node(nid)
        assert table.cost_of(nid, 0, 0, 0) == 0
        assert table.reconstruct(nid, 0, 0, 0) == frozenset()
        if node.kind == "leaf":
            continue
        for cell in _admissible_cells(table, nid)[::7]:
            mirrored = tuple(-r for r in cell)
            assert table.cost_of(nid, *cell) == table.cost_of(nid, *mirrored)


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
        for cell in _admissible_cells(table, nid):
            cost = table.cost_of(nid, *cell)
            if cost >= table.infinity:
                continue
            edges = table.reconstruct(nid, *cell)
            assert sum(graph.edge_by_id(e).cost for e in edges) == cost
            assert set(edges) <= set(tree.subtree_edge_ids(nid))
            assert circulation_feasible(graph, edges, _residue_map(tree, table, nid, cell)), (
                f"seed {seed} node {nid} {cell}"
            )


@pytest.mark.parametrize("seed", range(1, 9))
def test_entry_minimality_by_exhaustion(seed):
    # On very small instances, no subset of a node's subtree edges may beat
    # the stored cost (sampled cells on the larger nodes to keep this fast).
    instance = generate_sp(seed, edge_budget=4, cap_max=2)
    tree, table = _table_for(instance)
    graph = instance.graph
    for nid in tree.postorder_ids():
        ids = tree.subtree_edge_ids(nid)
        subsets = [
            frozenset(combo)
            for k in range(len(ids) + 1)
            for combo in itertools.combinations(ids, k)
        ]
        cells = _admissible_cells(table, nid)
        if len(cells) > 240:
            cells = cells[:: len(cells) // 240 + 1]
        for cell in cells:
            residues = _residue_map(tree, table, nid, cell)
            best = None
            for subset in subsets:
                if circulation_feasible(graph, subset, residues):
                    cost = sum(graph.edge_by_id(e).cost for e in subset)
                    best = cost if best is None else min(best, cost)
            stored = table.cost_of(nid, *cell)
            if best is None:
                assert stored == table.infinity, f"seed {seed} node {nid} {cell}"
            else:
                assert stored == best, f"seed {seed} node {nid} {cell}"


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


@given(st.integers(1, 10**6), st.integers(1, 12), st.integers(1, 8), st.data())
def test_special_free_costs_are_symmetric_and_monotone(seed, edge_budget, cap_max, data):
    # A special-free node routes r from one terminal to the other: the
    # cost is symmetric in r and never falls as |r| grows.
    instance = generate_sp(seed, edge_budget=edge_budget, cap_max=cap_max)
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    ids = [e.id for e in instance.graph.edges]
    closed = data.draw(st.sets(st.sampled_from(ids)))
    closed_tree = with_capacities(tree, dict.fromkeys(closed, 0))
    table = build_table(closed_tree, f, pin=data.draw(st.integers(0, f)))
    for nid, nt in table.tables.items():
        if tree.node(nid).placements:
            continue
        cost = nt.cost
        assert np.array_equal(cost, cost[::-1]), nid
        assert (np.diff(cost[len(cost) // 2 :]) >= 0).all(), nid


@example(paths_apart(2, 3, budget=3), FixedDraws(3))  # parallel:sL+tR
@example(paths_apart(3, 2, budget=3), FixedDraws(3))  # parallel:sR+tL
@given(tiny_instances(capacity=st.integers(0, 5)), st.data())
def test_solvers_match_the_oracle_on_tiny_graphs(instance, data):
    # Source and sink anywhere, strictly inside included; some capacities 0.
    by_budget = solve_bcmfp(instance)
    assert by_budget.total_cost <= instance.budget
    assert by_budget.achieved_flow == oracle_bcmfp(instance).achieved_flow
    case = instance.with_demand(data.draw(st.integers(0, upper_bound_flow(instance))))
    by_demand = solve_capndp(case)
    assert by_demand.achieved_flow >= case.demand
    assert by_demand.total_cost == oracle_capndp(case).total_cost


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


# -- solves without a table: pinned spine builds -------------------------------


def _assert_untabled_solves_match_full_table(instance):
    """Every demand 0..F and every budget 0..C answers the same without a

    table as from the full table: purchase, cost and flow."""
    tree, full = _table_for(instance)
    for demand in range(full.f_bound + 1):
        case = instance.with_demand(demand)
        assert solve_capndp(case, tree=tree) == solve_capndp(case, tree=tree, table=full), demand
    for budget in range(instance.graph.total_cost() + 1):
        case = instance.with_budget(budget)
        assert solve_bcmfp(case, tree=tree) == solve_bcmfp(case, tree=tree, table=full), budget


@pytest.mark.parametrize("seed", range(1, 101))
def test_untabled_solves_match_full_table_gate1(seed):
    _assert_untabled_solves_match_full_table(
        generate_sp(seed, edge_budget=10, cap_max=6, cost_max=10)
    )


@pytest.mark.parametrize("seed", [19, 23, 29, 48, 87, 88])
def test_untabled_solves_match_full_table_interior_specials(seed):
    instance = generate_sp(seed, edge_budget=12, cap_max=40)
    graph = instance.graph
    # Source and sink strictly inside the root pair, F in 14..20.
    assert not {graph.source, graph.sink} & set(graph.declared_terminals)
    assert 14 <= upper_bound_flow(instance) <= 20
    _assert_untabled_solves_match_full_table(instance)


# -- solves from a table: one cost row, one answer per flow value ---------------


def _recorded(monkeypatch, owner, name, record):
    """Patch ``owner.name`` to pass its arguments to ``record`` first."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: record(*args) or real(*args))
    return real


@pytest.mark.parametrize("seed", range(1, 21))
def test_table_sweep_answers_each_flow_value_once(seed, monkeypatch):
    # A sweep of every demand 0..F and every budget 0..C on one table
    # reconstructs and re-checks each flow value at most once, and reads the
    # root's costs in one gather, not a query per flow value.
    instance = generate_sp(seed, edge_budget=10, cap_max=6, cost_max=10)
    tree, table = _table_for(instance)
    flows = dp_module._flow_values(table.tables[tree.root].domain).tolist()
    queried, rebuilt, rechecked = [], [], []
    query_cost = _recorded(monkeypatch, dp_module.DPTable, "query_cost", lambda _, v: queried.append(v))
    # The root cell of flow v has sink residue v.
    _recorded(monkeypatch, dp_module.DPTable, "reconstruct", lambda *args: rebuilt.append(args[4]))
    _recorded(monkeypatch, dp_module, "solution_from_edges", lambda _, edges: rechecked.append(edges))
    for demand in range(table.f_bound + 1):
        solve_capndp(instance.with_demand(demand), tree=tree, table=table)
    for budget in range(instance.graph.total_cost() + 1):
        solve_bcmfp(instance.with_budget(budget), tree=tree, table=table)
    assert len(set(rebuilt)) == len(rebuilt), f"seed {seed}"
    assert set(rebuilt) <= set(flows)
    assert len(rechecked) == len(rebuilt)
    assert len(queried) == len(rebuilt)  # each witness's own query
    assert table._cost_row.tolist() == [query_cost(table, v) for v in flows]


@pytest.mark.parametrize("seed", [19, 23, 29, 48, 87, 88])
def test_cost_row_reads_both_special_axes(seed):
    # Source and sink strictly inside the root: its row is gathered through
    # the a-slot axis and both special axes.
    instance = generate_sp(seed, edge_budget=12, cap_max=40)
    tree, table = _table_for(instance)
    assert set(table.tables[tree.root].special_axes) == {"s", "t"}
    flows = range(table.f_bound + 1)
    assert table._cost_row.tolist() == [table.query_cost(v) for v in flows], f"seed {seed}"


def test_a_falling_cost_row_raises(diamond):
    # The budget's binary search of the row trusts it never to fall: a row
    # that does is refused, not searched.
    assert _table_for(diamond)[1]._cost_row.tolist() == [0, 2, 2, 5]
    tree, table = _table_for(diamond)  # a fresh table: a row is read once
    root = table.tables[tree.root]
    root.cost[dp_module._coords(root, table._root_a(2), -2, 2)] = 1
    for _ in range(2):
        with pytest.raises(RuntimeError, match="root cost falls to 1 at flow value 2, from 2"):
            solve_bcmfp(diamond.with_budget(5), table=table)


def test_a_pinned_table_answers_no_budget(diamond):
    # A pinned table holds one flow value's cell, not the row a budget reads.
    table = build_table(decompose(diamond.graph), 3, pin=2)
    assert solve_capndp(diamond.with_demand(2), table=table).total_cost == 2
    with pytest.raises(ValueError, match="pinned to flow value 2"):
        solve_bcmfp(diamond.with_budget(5), table=table)
    # Nor any demand but its pin, though the least flow value >= 1 it holds is 2.
    for demand in (1, 3):
        with pytest.raises(ValueError, match="pinned to flow value 2"):
            solve_capndp(diamond.with_demand(demand), table=table)


def _recorded_builds(monkeypatch):
    """Every (pin, table) of the solvers' ``_Builder.build`` calls."""
    calls = []
    original = dp_module._Builder.build

    def recording(self, pin):
        table = original(self, pin)
        calls.append((pin, table))
        return table

    monkeypatch.setattr(dp_module._Builder, "build", recording)
    return calls


@pytest.mark.parametrize("objective", ["demand 40", "budget 1", "budget 3"])
def test_untabled_solves_build_no_cube(objective, monkeypatch):
    instance = parse_instance(RING48_TEXT.replace("budget 1", objective))
    tree = decompose(instance.graph)
    calls = _recorded_builds(monkeypatch)
    solve = solve_capndp if instance.demand is not None else solve_bcmfp
    solution = solve(instance, tree=tree)
    expected = {"demand 40": (4, 48), "budget 1": (1, 24), "budget 3": (1, 24)}[objective]
    assert (solution.total_cost, solution.achieved_flow) == expected
    assert calls
    special_free = [n.id for n in tree.nodes if not n.placements]
    for pin, table in calls:
        assert pin is not None
        assert table.f_bound == 48
        for nt in table.tables.values():
            assert nt.cost.size == len(nt.domain)
    # Each special-free table is one object across all of a solve's builds.
    for nid in special_free:
        assert len({id(table.tables[nid]) for _, table in calls}) == 1, nid


@pytest.mark.parametrize("objective", ["demand 40", "budget 1", "budget 3"])
def test_lattice_solves_build_no_cube(objective, monkeypatch):
    # A lattice solve is the exact solvers' search over the lattice flow
    # values: pinned builds on one builder over the lattice residues.
    instance = parse_instance(RING48_TEXT.replace("budget 1", objective))
    spec = LatticeSpec((8,), 3)
    tree = decompose(instance.graph)
    lattice = set(lattice_residues(spec, instance.graph.edge_count, 48).tolist())
    assert len(lattice) < 97
    calls = _recorded_builds(monkeypatch)
    outcome = solve_lattice_detailed(instance, spec, tree=tree)
    expected = {"demand 40": (4, 48), "budget 1": (1, 24), "budget 3": (1, 24)}[objective]
    assert (outcome.solution.total_cost, outcome.solution.achieved_flow) == expected
    assert any(outcome.table is table for _, table in calls)
    special_free = [n.id for n in tree.nodes if not n.placements]
    for pin, table in calls:
        assert pin in lattice
        assert set(table.tables[tree.root].domain.values.tolist()) <= lattice
        for nt in table.tables.values():
            assert nt.cost.size == len(nt.domain)
    for nid in special_free:
        assert len({id(table.tables[nid]) for _, table in calls}) == 1, nid


def _builder(tree, f):
    """A builder of ``tree``'s rows under flow bound ``f``, over its whole residue range."""
    return dp_module._Builder(tree, f, None)


def test_reuse_shares_special_free_tables_and_rebuilds_the_spine(ring):
    # A budget search makes one builder for all its probes: a later build
    # shares the first one's special-free tables and builds only the spine,
    # and leaves the first build's table as it was.
    tree = decompose(ring.graph)
    builder = _builder(tree, 3)
    first, again = builder.build(1), builder.build(2)
    fresh = build_table(tree, 3, pin=2)
    for node in tree.nodes:
        shared = again.tables[node.id] is first.tables[node.id]
        assert shared == (not node.placements), node.id
        np.testing.assert_array_equal(again.tables[node.id].cost, fresh.tables[node.id].cost)
    assert again.query(2) == fresh.query(2)
    assert first.query(1) == build_table(tree, 3, pin=1).query(1)


@pytest.mark.parametrize("seed", range(1, 31))
def test_reuse_across_build_modes_equals_fresh_builds(seed):
    # One builder may build full, then pinned, then full again: the
    # special-free rows are the same in every mode, and each build's spine
    # is built afresh. Each build must equal a fresh one node for node and
    # share the first build's special-free tables.
    instance = generate_sp(seed, edge_budget=10, cap_max=6, cost_max=10)
    tree = decompose(instance.graph)
    f = upper_bound_flow(instance)
    builder, fresh = _builder(tree, f), build_table(tree, f)
    full = builder.build(None)
    special_free = [node.id for node in tree.nodes if not node.placements]
    for v in range(f + 1):
        pinned = builder.build(v)
        assert_same_tables(pinned, build_table(tree, f, pin=v), f"seed {seed} pin {v} after the full build")
        again = builder.build(None)
        assert_same_tables(again, fresh, f"seed {seed} full build after pin {v}")
        for nid in special_free:
            assert pinned.tables[nid] is full.tables[nid] is again.tables[nid], (seed, v, nid)
    assert_same_tables(full, fresh, f"seed {seed} first full build")


def test_solves_refuse_a_tree_or_table_of_another_graph():
    # b is a with e1 and e2 at capacity 1: its tree or table would answer
    # for b, where a carries 5 at cost 2.
    a_text = "graph 3\nsource 0\nsink 2\nedge e1 0 1 1 5\nedge e2 1 2 1 5\nedge e3 0 2 4 1\ndemand 5\n"
    a = parse_instance(a_text)
    b = parse_instance(a_text.replace(" 1 5\n", " 1 1\n"))
    assert b.graph.edges[0].capacity == b.graph.edges[1].capacity == 1
    other = decompose(b.graph)
    solves = [
        lambda: solve_capndp(a, tree=other),
        lambda: solve_capndp(a, table=build_table(other, 5)),
        lambda: solve_bcmfp(a.with_budget(2), tree=other),
        lambda: solve_bcmfp(a.with_budget(2), table=build_table(other, 5)),
        lambda: fptas_bcmfp(a.with_budget(2), "1/2", tree=other),
    ]
    for solve in solves:
        with pytest.raises(ValueError, match="another graph"):
            solve()
    # An equal graph of another object is the same graph.
    same = decompose(parse_instance(a_text).graph)
    assert solve_capndp(a, tree=same).total_cost == solve_capndp(a).total_cost == 2


def _counting_max_flow(monkeypatch) -> list:
    """Record each graph the dp module takes a max flow of."""
    calls, real = [], dp_module.max_flow
    monkeypatch.setattr(dp_module, "max_flow", lambda graph: calls.append(graph) or real(graph))
    return calls


def test_demand_past_a_tables_bound_needs_the_bound_to_reach_f(monkeypatch):
    # F = 6 and cost 2 carries 5: a table bounded at 2 cannot see demand 3.
    a = parse_instance("graph 3\nsource 0\nsink 2\nedge e1 0 1 1 5\nedge e2 1 2 1 5\nedge e3 0 2 4 1\ndemand 3\n")
    tree = decompose(a.graph)
    short, calls = build_table(tree, 2), _counting_max_flow(monkeypatch)
    assert solve_capndp(a.with_demand(2), table=short).total_cost == 2
    assert calls == []  # a demand within the bound needs no F
    for _ in range(2):
        with pytest.raises(ValueError, match="flow bound 2 is below the graph's max flow 6"):
            solve_capndp(a, table=short)
        with pytest.raises(InfeasibleError, match="demand 7 exceeds the best attainable flow 6"):
            solve_capndp(a.with_demand(7), table=short)
    assert len(calls) == 1  # once per table
    assert solve_capndp(a, table=build_table(tree, 6)).total_cost == 2


def test_budget_answer_at_a_tables_top_needs_the_bound_to_reach_f(monkeypatch):
    # e2 carries 10 within budget 3; a table bounded at 2 tops out at e1's flow 2.
    inst = parse_instance("graph 2\nsource 0\nsink 1\nedge e1 0 1 1 2\nedge e2 0 1 3 10\nbudget 3\n")
    tree = decompose(inst.graph)
    short, calls = build_table(tree, 2), _counting_max_flow(monkeypatch)
    assert solve_bcmfp(inst.with_budget(0), table=short).achieved_flow == 0
    assert calls == []  # an answer below the top needs no F
    for _ in range(2):
        with pytest.raises(ValueError, match="flow bound 2 is below the graph's max flow 12"):
            solve_bcmfp(inst, table=short)
    assert len(calls) == 1  # once per table
    full = build_table(tree, 12)
    assert solve_bcmfp(inst, table=full).achieved_flow == 10
    assert solve_bcmfp(inst.with_budget(4), table=full).achieved_flow == 12


def test_feasibility_refuses_menus_and_a_tree_of_another_graph():
    # Buying u1's second choice (cost 2, capacity 6) carries 6, which the
    # graph alone cannot; b's tree would answer for b, whose e1 and e2 carry 1.
    menu = parse_instance("graph 2\nsource 0\nsink 1\nedge e1 0 1 5 1\nupedge u1 0 1 2 1 3 2 6\nbudget 3\n")
    a_text = "graph 3\nsource 0\nsink 2\nedge e1 0 1 1 5\nedge e2 1 2 1 5\nedge e3 0 2 4 1\nbudget 9\n"
    a = parse_instance(a_text)
    other = decompose(parse_instance(a_text.replace(" 1 5\n", " 1 1\n")).graph)
    for check in (feasible, feasible_detailed):
        with pytest.raises(ValueError, match="upgrade menus"):
            check(menu, 10, 2)
        with pytest.raises(ValueError, match="another graph"):
            check(a, 9, 5, tree=other)
    assert feasible(a, 9, 5) == (True, frozenset({"e1", "e2"}))
    assert feasible(a, 9, 5, tree=decompose(parse_instance(a_text).graph))[0] is True


def test_tabled_solves_skip_decompose(ring, monkeypatch):
    # A table answers from its own tree, so a solve given one must not
    # decompose the graph again; a solve without one decomposes once.
    table = build_table(decompose(ring.graph), upper_bound_flow(ring))
    calls = []
    real = dp_module.decompose
    monkeypatch.setattr(dp_module, "decompose", lambda graph: calls.append(graph) or real(graph))
    by_demand = solve_capndp(ring.with_demand(2), table=table)
    by_budget = solve_bcmfp(ring.with_budget(2), table=table)
    assert calls == []
    assert solve_capndp(ring.with_demand(2)) == by_demand
    assert solve_bcmfp(ring.with_budget(2)) == by_budget
    assert len(calls) == 2
