"""Scalar reference combinators for the DP: one tuple at a time, in plain

Python, so the vectorized tables in ``spnd.dp`` can be checked entry by
entry against an independent statement of each combination rule."""

from spnd.decompose import DecompNode
from spnd.dp import DPTable, ResidueTuple
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


def series_children(table: DPTable, node: DecompNode, rt: ResidueTuple) -> tuple[ResidueTuple, ResidueTuple]:
    """The forced child tuples of a series combination."""
    place = table.placements(node)
    sum_left = sum(rt.special_value(lab) for lab, w in place.items() if w == "left")
    r_join = sum(rt.special_value(lab) for lab, w in place.items() if w == "join")
    x = -(rt.r_a + sum_left)
    y = r_join + rt.r_a + sum_left
    left_kw = {}
    right_kw = {}
    for lab, where in place.items():
        if where == "left":
            left_kw[f"r_{lab}"] = rt.special_value(lab)
        elif where == "right":
            right_kw[f"r_{lab}"] = rt.special_value(lab)
    left_rt = ResidueTuple(r_a=rt.r_a, r_b=x, **left_kw)
    right_rt = ResidueTuple(r_a=y, r_b=rt.r_b, **right_kw)
    return left_rt, right_rt


def parallel_children(
    table: DPTable, node: DecompNode, rt: ResidueTuple, split: int
) -> tuple[ResidueTuple, ResidueTuple]:
    """Child tuples of a parallel combination for a given a-split."""
    place = table.placements(node)
    sum_left = sum(rt.special_value(lab) for lab, w in place.items() if w == "left")
    b_left = -(split + sum_left)
    left_kw = {}
    right_kw = {}
    for lab, where in place.items():
        if where == "left":
            left_kw[f"r_{lab}"] = rt.special_value(lab)
        else:
            right_kw[f"r_{lab}"] = rt.special_value(lab)
    left_rt = ResidueTuple(r_a=split, r_b=b_left, **left_kw)
    right_rt = ResidueTuple(r_a=rt.r_a - split, r_b=rt.r_b - b_left, **right_kw)
    return left_rt, right_rt


def combine_series(table: DPTable, node_id: int, rt: ResidueTuple) -> int:
    """Recompute a series entry's cost from child tables (single forced combination)."""
    node = table.tree.node(node_id)
    assert node.kind == "series"
    table._check_tuple(node, rt)
    left_rt, right_rt = series_children(table, node, rt)
    if any(abs(e) > table.f_bound for e in left_rt.entries() + right_rt.entries()):
        return table.infinity
    return min(table.cost_of(node.left, left_rt) + table.cost_of(node.right, right_rt), table.infinity)


def combine_parallel(table: DPTable, node_id: int, rt: ResidueTuple) -> tuple[int, int | None]:
    """Recompute a parallel entry's cost and split by scanning every admissible

    a-split; None for the split when no split is feasible. Ties prefer the
    smallest split value, matching the stored tables.
    """
    node = table.tree.node(node_id)
    assert node.kind == "parallel"
    table._check_tuple(node, rt)
    left_dom = table.tables[node.left].domain
    best, best_split = table.infinity, None
    for r in left_dom.values.tolist():
        left_rt, right_rt = parallel_children(table, node, rt, r)
        if any(abs(e) > table.f_bound for e in left_rt.entries() + right_rt.entries()):
            continue
        cost = table.cost_of(node.left, left_rt) + table.cost_of(node.right, right_rt)
        if cost < best:
            best, best_split = cost, r
    return best, best_split
