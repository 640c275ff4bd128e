"""The node-by-node build of the special-free nodes, frozen as it stood

before ``spnd.dp`` built them one (height, kind) group at a time.

A special-free node has neither source nor sink strictly inside, so it has
no special axis. :func:`reference_table` mirrors ``build_table`` without
``reuse=``: it walks the tree in postorder, builds each special-free node on
its own with the leaf, series and parallel combines below (the per-node
ones with the special axes dropped), and each spine node with the current
builder's per-node combine, over the children the walk built. The grouped
build must give every node the same domain, cost and split bytes and
admissible count."""

import numpy as np

from spnd import dp
from spnd.dp import NodeTable, ResidueDomain

CELLS = 1 << 16
_NO_SPLIT = np.iinfo(np.int64).max


def _build_leaf(dom: ResidueDomain, cost: int, capacity: int, sentinel: int) -> tuple[np.ndarray, int]:
    vals = dom.values
    arr = np.where(
        vals == 0,
        np.int64(0),
        np.where(np.abs(vals) <= capacity, np.int64(cost), np.int64(sentinel)),
    ).astype(np.int64)
    return arr, len(vals)


def _gather(nt: NodeTable, a_vals):
    pos_a, valid = nt.domain.positions(a_vals)
    return nt.cost[pos_a], valid


def _admissibility(dom: ResidueDomain, va) -> tuple[np.ndarray, int]:
    """Cells whose implied b-slot residue, -r_a, is in the domain."""
    ok = dom.contains(np.negative(va + np.int64(0)))
    return ok, int(ok.sum())


def _build_series(left_nt: NodeTable, right_nt: NodeTable, dom: ResidueDomain, sentinel: int) -> NodeTable:
    va = dom.values
    left_cost, left_ok = _gather(left_nt, va)
    right_cost, right_ok = _gather(right_nt, va)  # the join residue is r_a
    total = np.minimum(left_cost + right_cost, sentinel)
    ok_mask, admissible = _admissibility(dom, va)
    cost = np.where(left_ok & right_ok & ok_mask, total, np.int64(sentinel))
    return NodeTable(dom, {}, np.ascontiguousarray(cost), None, admissible)


def _build_parallel(left_nt: NodeTable, right_nt: NodeTable, dom: ResidueDomain, sentinel: int) -> NodeTable:
    va = dom.values
    shape = va.shape
    ok_mask, admissible = _admissibility(dom, va)
    splits = left_nt.domain.values.reshape(-1, 1)
    left_cost, left_ok = _gather(left_nt, splits)
    np.copyto(left_cost, sentinel, where=~left_ok)
    live = np.flatnonzero((left_cost < sentinel).reshape(len(splits), -1).any(axis=1))
    best = np.full(shape, sentinel, dtype=np.int64)
    split = np.zeros(shape, dtype=np.int64)
    step = max(1, CELLS // best.size)
    block = np.empty((min(step, len(live)), *shape), dtype=np.int64)
    low = np.empty(shape, dtype=np.int64)
    arg = np.empty(shape, dtype=np.int64)
    for lo in range(0, len(live), step):
        rows = live[lo : lo + step]
        r = splits[rows]
        right_cost, right_ok = _gather(right_nt, va - r)
        right_cost = np.where(right_ok, right_cost, sentinel)
        cand = np.add(left_cost[rows], right_cost, out=block[: len(rows)])
        np.min(cand, axis=0, out=low)
        np.min(np.where(cand == low, r, _NO_SPLIT), axis=0, out=arg)
        better = low < best
        np.copyto(best, low, where=better)
        np.copyto(split, arg, where=better)
    np.copyto(best, sentinel, where=~ok_mask)
    return NodeTable(dom, {}, best, split, admissible)


def reference_table(tree, f_bound, *, capacity_override=None, residue_values=None, pin=None) -> dp.DPTable:
    """``build_table(tree, f_bound, ...)`` with every special-free node built on its own."""
    capacities = {e.id: e.capacity for e in tree.graph.edges}
    capacities.update(capacity_override or {})
    base = None if residue_values is None else ResidueDomain.explicit(residue_values)
    builder = dp._Builder(tree, f_bound, capacities, base, pin)
    table, sentinel = builder.table, builder.sentinel
    edges = tree.graph.edge_map()
    total = {}
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        if node.kind == "leaf":
            total[nid] = capacities[node.edge_id]
        else:
            total[nid] = total[node.left] + total[node.right]
        dom = builder.domain_for(min(f_bound, total[nid]))
        if node.kind == "leaf":
            cost, admissible = _build_leaf(dom, edges[node.edge_id].cost, capacities[node.edge_id], sentinel)
            table.tables[nid] = NodeTable(dom, {}, cost, None, admissible)
        elif node.placements:
            table.spine.append(nid)
            table.tables[nid] = builder._combine(node, dom)
        else:
            combine = _build_series if node.kind == "series" else _build_parallel
            table.tables[nid] = combine(table.tables[node.left], table.tables[node.right], dom, sentinel)
    return table


def assert_same_tables(got: dp.DPTable, want: dp.DPTable, where: str = "") -> None:
    """Every node of ``got`` has ``want``'s domain values, special axes,

    cost and split bytes and admissible count, and the spines agree."""
    assert got.tables.keys() == want.tables.keys(), where
    assert got.spine == want.spine, where
    for nid, expected in want.tables.items():
        nt = got.tables[nid]
        at = f"{where} node {nid}"
        np.testing.assert_array_equal(nt.domain.values, expected.domain.values, err_msg=at)
        assert nt.special_axes.keys() == expected.special_axes.keys(), at
        assert (nt.cost.shape, nt.cost.dtype) == (expected.cost.shape, expected.cost.dtype), at
        assert nt.cost.tobytes() == expected.cost.tobytes(), at
        assert (nt.split is None) == (expected.split is None), at
        if nt.split is not None:
            assert nt.split.tobytes() == expected.split.tobytes(), at
        assert nt.admissible == expected.admissible, at
