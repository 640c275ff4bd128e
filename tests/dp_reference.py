"""Scalar reference combinators for the DP: one cell at a time, in plain

Python, so the vectorized tables in ``spnd.dp`` can be checked cell by cell
against an independent statement of each combination rule.

A cell is the integer triple (r_a, r_s, r_t) that ``DPTable.cost_of`` reads:
the a-slot residue and the source and sink residues, a special's residue
counting only where that special is interior. The rules below write each
child's residues out in full, by role ("a", "b", "s", "t"), with the b-slot
computed by the rule itself, and require them to balance."""

from spnd.decompose import DecompNode
from spnd.dp import DPTable
from spnd.instance import EdgeRecord


def leaf_cost(edge: EdgeRecord, r: int, infinity: int, capacity: int | None = None) -> int:
    """Cost of routing residue (r, -r) across a single purchasable edge."""
    cap = edge.capacity if capacity is None else capacity
    if r == 0:
        return 0
    return edge.cost if abs(r) <= cap else infinity


def cell_of(residues: dict[str, int]) -> tuple[int, int, int]:
    """The (r_a, r_s, r_t) cell of a child's residues; absent specials read 0."""
    return residues["a"], residues.get("s", 0), residues.get("t", 0)


def _parent(table: DPTable, node: DecompNode, cell) -> tuple[dict, dict, int]:
    """Placements of the node's interior specials, their residues, and the

    parent's b-slot residue, which balances the others."""
    r_a, r_s, r_t = cell
    place = node.placements
    special = {lab: (r_s if lab == "s" else r_t) for lab in place}
    return place, special, -(r_a + sum(special.values()))


def series_children(table: DPTable, node: DecompNode, cell) -> tuple[dict, dict]:
    """The forced residues of a series node's two children."""
    r_a = cell[0]
    place, special, r_b = _parent(table, node, cell)
    sum_left = sum(special[lab] for lab, w in place.items() if w == "left")
    r_join = sum(special[lab] for lab, w in place.items() if w == "join")
    x = -(r_a + sum_left)
    y = r_join + r_a + sum_left
    left = {"a": r_a, "b": x, **{lab: special[lab] for lab, w in place.items() if w == "left"}}
    right = {"a": y, "b": r_b, **{lab: special[lab] for lab, w in place.items() if w == "right"}}
    return left, right


def parallel_children(table: DPTable, node: DecompNode, cell, split: int) -> tuple[dict, dict]:
    """Child residues of a parallel combination for a given a-split."""
    r_a = cell[0]
    place, special, r_b = _parent(table, node, cell)
    sum_left = sum(special[lab] for lab, w in place.items() if w == "left")
    b_left = -(split + sum_left)
    left = {"a": split, "b": b_left, **{lab: special[lab] for lab, w in place.items() if w == "left"}}
    right = {
        "a": r_a - split,
        "b": r_b - b_left,
        **{lab: special[lab] for lab, w in place.items() if w != "left"},
    }
    return left, right


def _in_range(table: DPTable, *children: dict) -> bool:
    for residues in children:
        if sum(residues.values()) != 0:
            raise ValueError(f"child residues do not balance: {residues}")
    return all(abs(e) <= table.f_bound for residues in children for e in residues.values())


def _pair_cost(table: DPTable, node: DecompNode, left: dict, right: dict) -> int:
    return table.cost_of(node.left, *cell_of(left)) + table.cost_of(node.right, *cell_of(right))


def combine_series(table: DPTable, node_id: int, cell) -> int:
    """Recompute a series cell's cost from child tables (single forced combination)."""
    node = table.tree.node(node_id)
    assert node.kind == "series"
    left, right = series_children(table, node, cell)
    if not _in_range(table, left, right):
        return table.infinity
    return min(_pair_cost(table, node, left, right), table.infinity)


def combine_parallel(table: DPTable, node_id: int, cell) -> tuple[int, int | None]:
    """Recompute a parallel cell's cost and split by scanning every admissible

    a-split; None for the split when no split is feasible. Ties prefer the
    smallest split value, matching the stored tables.
    """
    node = table.tree.node(node_id)
    assert node.kind == "parallel"
    left_dom = table.tables[node.left].domain
    best, best_split = table.infinity, None
    for r in left_dom.values.tolist():
        left, right = parallel_children(table, node, cell, r)
        if not _in_range(table, left, right):
            continue
        cost = _pair_cost(table, node, left, right)
        if cost < best:
            best, best_split = cost, r
    return best, best_split
