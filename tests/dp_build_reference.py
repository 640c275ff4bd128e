"""Node-by-node builds frozen as they stood before ``spnd.dp`` changed them.

The special-free nodes, those with neither source nor sink strictly
inside, are built as they were before the grouped forest build, with the
leaf, series and parallel combines below (the per-node ones with the
special axes dropped). The spine parallel nodes are built with the
multi-axis split scan ``_Builder._build_parallel`` had before every
parallel node went through ``_split_scan``, with the ``_gather`` and
``_special_coords`` it used then. :func:`reference_table` mirrors
``build_table`` without ``reuse=``: it walks the tree in postorder and
builds each node on its own over the children the walk built, the spine
series nodes with the current builder's per-node combine. The live build
must give every node the same domain, cost and split bytes and admissible
count."""

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


def _spine_special_coords(nt: NodeTable, svals: dict) -> tuple[list, np.ndarray | bool]:
    positions, valid = [], True
    for lab, axis in nt.special_axes.items():
        pos, ok = axis.positions(svals[lab])
        positions.append(pos)
        valid = valid & ok
    return positions, valid


def _spine_gather(nt: NodeTable, a_vals, positions: list, special_ok):
    pos_a, valid = nt.domain.positions(a_vals)
    if positions:
        valid = valid & special_ok
    return nt.cost[(pos_a, *positions)], valid


def _build_spine_parallel(
    left_nt: NodeTable, right_nt: NodeTable, dom: ResidueDomain, axes: dict, sentinel: int
) -> NodeTable:
    """The multi-axis split scan: every split's left costs gathered at

    once on a leading axis, the right costs gathered block by block."""
    shape, va, svals = dp._grid(dom, axes)
    rb = va + sum(svals.values(), np.int64(0))
    ok_mask = np.broadcast_to(dom.contains(np.negative(rb, out=rb)), shape)
    admissible = int(ok_mask.sum())
    splits = left_nt.domain.values.reshape(-1, *(1,) * len(shape))
    left_cost, left_ok = _spine_gather(left_nt, splits, *_spine_special_coords(left_nt, svals))
    np.copyto(left_cost, sentinel, where=~left_ok)
    live = np.flatnonzero((left_cost < sentinel).reshape(len(splits), -1).any(axis=1))
    right_idx = _spine_special_coords(right_nt, svals)
    best = np.full(shape, sentinel, dtype=np.int64)
    split = np.zeros(shape, dtype=np.int64)
    step = max(1, CELLS // best.size)
    block = np.empty((min(step, len(live)), *shape), dtype=np.int64)
    low = np.empty(shape, dtype=np.int64)
    arg = np.empty(shape, dtype=np.int64)
    for lo in range(0, len(live), step):
        rows = live[lo : lo + step]
        r = splits[rows]
        right_cost, right_ok = _spine_gather(right_nt, va - r, *right_idx)
        right_cost = np.where(right_ok, right_cost, sentinel)
        cand = np.add(left_cost[rows], right_cost, out=block[: len(rows)])
        np.min(cand, axis=0, out=low)
        np.min(np.where(cand == low, r, _NO_SPLIT), axis=0, out=arg)
        better = low < best
        np.copyto(best, low, where=better)
        np.copyto(split, arg, where=better)
    np.copyto(best, sentinel, where=~ok_mask)
    return NodeTable(dom, axes, best, split, admissible)


def reference_table(tree, f_bound, *, capacity_override=None, residue_values=None, pin=None) -> dp.DPTable:
    """``build_table(tree, f_bound, ...)`` built node by node, the special-free

    nodes and the spine parallel nodes with the frozen combines above."""
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
            if node.kind == "series":
                table.tables[nid] = builder._combine(node, dom)
            else:
                left_nt, right_nt = table.tables[node.left], table.tables[node.right]
                axes = builder.special_axes(node, dom)
                table.tables[nid] = _build_spine_parallel(left_nt, right_nt, dom, axes, sentinel)
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
