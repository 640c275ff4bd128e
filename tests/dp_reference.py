"""Scalar reference combinators for the DP: one tuple at a time, in plain

Python, so the vectorized tables in ``spnd.dp`` can be checked entry by
entry against an independent statement of each combination rule."""

from spnd.dp import DPEntry, DPTable, ParallelChoice, ResidueTuple, SeriesChoice
from spnd.instance import EdgeRecord


def leaf_cost(edge: EdgeRecord, rt: ResidueTuple, infinity: int, capacity: int | None = None) -> int:
    """Cost of routing residue (r, -r) across a single purchasable edge."""
    if rt.specials():
        raise ValueError("leaf nodes cannot contain source or sink strictly inside")
    cap = edge.capacity if capacity is None else capacity
    r = rt.r_a
    if r == 0:
        return 0
    return edge.cost if abs(r) <= cap else infinity


def combine_series(table: DPTable, node_id: int, rt: ResidueTuple) -> DPEntry:
    """Recompute a series entry from child tables (single forced combination)."""
    node = table.tree.node(node_id)
    assert node.kind == "series"
    table._check_tuple(node, rt)
    left_rt, right_rt = table.series_children(node, rt)
    if any(abs(e) > table.f_bound for e in left_rt.entries() + right_rt.entries()):
        return DPEntry(table.infinity, None)
    cost = table.cost_of(node.left, left_rt) + table.cost_of(node.right, right_rt)
    if cost >= table.infinity:
        return DPEntry(table.infinity, None)
    return DPEntry(cost, SeriesChoice(left_rt, right_rt))


def combine_parallel(table: DPTable, node_id: int, rt: ResidueTuple) -> DPEntry:
    """Recompute a parallel entry by scanning every admissible a-split.

    Ties prefer the smallest split value, matching the stored tables.
    """
    node = table.tree.node(node_id)
    assert node.kind == "parallel"
    table._check_tuple(node, rt)
    left_dom = table.tables[node.left].domain
    best = DPEntry(table.infinity, None)
    for r in left_dom.values.tolist():
        left_rt, right_rt = table.parallel_children(node, rt, r)
        if any(abs(e) > table.f_bound for e in left_rt.entries() + right_rt.entries()):
            continue
        cost = table.cost_of(node.left, left_rt) + table.cost_of(node.right, right_rt)
        if cost < best.cost:
            best = DPEntry(cost, ParallelChoice(r, left_rt, right_rt))
    return best
