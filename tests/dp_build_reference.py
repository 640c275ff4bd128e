"""Node-by-node builds frozen as they stood before ``spnd.dp`` changed them.

The special-free nodes, those with neither source nor sink strictly
inside, are built as they were before the grouped forest build, with the
leaf, series and parallel combines below (the per-node ones with the
special axes dropped). The spine nodes, those with an interior special,
are built with the multi-axis combines ``_Builder`` had before every
spine node read its children as rows: the series one gathers each child
on the full (r_a, specials) grid, and the parallel one is the split scan
``_Builder._build_parallel`` had before every parallel node went through
``_split_scan``. Both use their own copies of ``_grid``, the gather and
the admissibility mask as they were then. :func:`reference_table` mirrors
``build_table``: it walks the tree in postorder and builds each node on
its own over the children the walk built. The live build must give every
node the same domain, cost and split bytes and admissible count."""

import numpy as np

from spnd import dp
from spnd.dp import NodeTable, ResidueDomain
from spnd.instance import infinity_sentinel

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


def _grid(dom: ResidueDomain, axes: dict):
    shape = (len(dom), *(len(ax) for ax in axes.values()))
    arrays = []
    for i, ax in enumerate((dom, *axes.values())):
        dims = [1] * len(shape)
        dims[i] = -1
        arrays.append(ax.values.reshape(dims))
    return shape, arrays[0], dict(zip(axes, arrays[1:]))


def _spine_admissibility(dom: ResidueDomain, va, svals: dict, shape) -> tuple[np.ndarray, int]:
    """Cells whose implied b-slot residue, -(r_a + the specials'), is in the domain."""
    rb = va + sum(svals.values(), np.int64(0))
    ok = np.broadcast_to(dom.contains(np.negative(rb, out=rb)), shape)
    return ok, int(ok.sum())


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


def _build_spine_series(
    node, left_nt: NodeTable, right_nt: NodeTable, dom: ResidueDomain, axes: dict, sentinel: int
) -> NodeTable:
    """Each child gathered on the full grid: the left at r_a, the right at

    the join residue, r_a plus the specials at the join or in the left child."""
    shape, va, svals = _grid(dom, axes)
    left_cost, left_ok = _spine_gather(left_nt, va, *_spine_special_coords(left_nt, svals))
    y = va + sum(svals[lab] for lab, where in node.placements.items() if where != "right")
    right_cost, right_ok = _spine_gather(right_nt, y, *_spine_special_coords(right_nt, svals))
    total = np.minimum(left_cost + right_cost, sentinel)
    ok_mask, admissible = _spine_admissibility(dom, va, svals, shape)
    cost = np.where(left_ok & right_ok & ok_mask, total, np.int64(sentinel))
    cost = np.ascontiguousarray(np.broadcast_to(cost, shape))
    return NodeTable(dom, axes, cost, None, admissible)


def _build_spine_parallel(
    left_nt: NodeTable, right_nt: NodeTable, dom: ResidueDomain, axes: dict, sentinel: int
) -> NodeTable:
    """The multi-axis split scan: every split's left costs gathered at

    once on a leading axis, the right costs gathered block by block."""
    shape, va, svals = _grid(dom, axes)
    ok_mask, admissible = _spine_admissibility(dom, va, svals, shape)
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


def reference_table(tree, f_bound, *, residue_values=None, pin=None) -> dp.DPTable:
    """``build_table(tree, f_bound, ...)`` built node by node, with the

    frozen combines above."""
    base = None if residue_values is None else ResidueDomain.explicit(residue_values)
    sentinel = infinity_sentinel(tree.graph)
    table = dp.DPTable(tree, f_bound, sentinel, pin)
    # A pinned build's special axes: one value each, shared by every node.
    pinned = {} if pin is None else {"s": ResidueDomain.single(-pin), "t": ResidueDomain.single(pin)}
    edges = tree.graph.edge_map()
    total = {}
    for nid in tree.postorder_ids():
        node = tree.node(nid)
        if node.kind == "leaf":
            total[nid] = edges[node.edge_id].capacity
        else:
            total[nid] = total[node.left] + total[node.right]
        radius = min(f_bound, total[nid])
        dom = ResidueDomain.range(radius) if base is None else base.clipped(radius)
        if node.kind == "leaf":
            edge = edges[node.edge_id]
            cost, admissible = _build_leaf(dom, edge.cost, edge.capacity, sentinel)
            table.tables[nid] = NodeTable(dom, {}, cost, None, admissible)
        elif node.placements:
            left_nt, right_nt = table.tables[node.left], table.tables[node.right]
            axes = {lab: pinned.get(lab, dom) for lab in node.placements}
            if node.kind == "series":
                table.tables[nid] = _build_spine_series(node, left_nt, right_nt, dom, axes, sentinel)
            else:
                table.tables[nid] = _build_spine_parallel(left_nt, right_nt, dom, axes, sentinel)
        else:
            combine = _build_series if node.kind == "series" else _build_parallel
            table.tables[nid] = combine(table.tables[node.left], table.tables[node.right], dom, sentinel)
    return table


def assert_same_tables(got: dp.DPTable, want: dp.DPTable, where: str = "") -> None:
    """Every node of ``got`` has ``want``'s domain values, special axes,

    cost and split bytes and admissible count."""
    assert got.tables.keys() == want.tables.keys(), where
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
