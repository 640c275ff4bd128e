"""Dynamic program over the decomposition tree.

Subproblem: for a tree node spanning subgraph G' with terminals (a, b), and
a residue tuple assigning net inflow-minus-outflow targets to a, b and to
whichever of source/sink lie strictly inside G' (every other vertex gets 0),
the table entry is the minimum purchase cost of an edge subset of G' that
can route those residues. Tuples sum to zero and every entry is bounded by
the flow bound F, so an entry is addressed by its free coordinates: the
a-slot plus one coordinate per interior special, the b-slot being implied.

A flow of value v from source to sink corresponds to the root tuple placing
-v on the source slot and +v on the sink slot; both solvers reduce to such
queries at the flow values the table holds, the root domain's values in
[0, F] (every integer there, or the lattice points of a lattice table). The
cost never falls as the flow rises, so a demand D is answered at the least
such value >= D, and a budget by a binary search for the largest affordable
one. Series nodes combine children in one forced way; parallel nodes
minimize over an integer split of the a-residue between the two children.
That split scan is a blocked (min, +) reduction: the left child's costs for
every split are gathered at once, the split on a leading axis, and the
splits are walked in blocks of about ``CELLS`` candidate cells. Each block's
minimum, with the smallest split reaching it, merges into the running best
by a strict <, so ties go to the smallest split and a cell that stays
infeasible keeps split 0.

Each child sees its parent's source and sink residues unchanged, so only
the a-slot residue differs from node to node (series: :func:`_join_residue`;
parallel: the stored split and the rest). Reconstruction walks (node, a-slot
residue) pairs down from a feasible entry and buys a leaf iff its residue
is nonzero.

Tables are dense numpy arrays, one axis per free coordinate. The a-slot
axis ranges over the node's residue domain: integers in [-Fn, Fn] where
Fn = min(F, total capacity of the subgraph), optionally intersected with an
explicit residue set (see solve_lattice). Each special axis
(``NodeTable.special_axes``) ranges over the same domain, unless the build
is pinned to one query value v: then the source axis holds only -v and the
sink axis only +v, so every special axis has length one and the table
answers that single flow query; the budget-feasibility probe used by the
approximation scheme relies on this.
Infeasible entries hold a cost sentinel larger than the whole graph's cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .decompose import DecompNode, DecompTree, decompose
from .errors import InfeasibleError
from .instance import EdgeRecord, MultiGraph, ProblemInstance, Solution, infinity_sentinel
from .flow import max_flow, solution_from_edges

_SPECIAL_ORDER = ("s", "t")
_SPECIAL_SIGN = {"s": -1, "t": 1}  # residue of each special per unit of flow
CELLS = 1 << 16  # candidate cells one block of the parallel split scan holds
_NO_SPLIT = np.iinfo(np.int64).max


class ResidueDomain:
    """Sorted set of residue values for one table axis.

    Node domains are symmetric under negation; a pinned special axis holds
    a single value."""

    __slots__ = ("values", "radius", "_contiguous", "_index")

    def __init__(self, values: np.ndarray, contiguous: bool):
        self.values = values
        self.radius = int(values[-1]) if len(values) else 0
        self._contiguous = contiguous
        self._index = None

    @staticmethod
    def range(radius: int) -> "ResidueDomain":
        return ResidueDomain(np.arange(-radius, radius + 1, dtype=np.int64), True)

    @staticmethod
    def single(value: int) -> "ResidueDomain":
        return ResidueDomain(np.array([value], dtype=np.int64), False)

    @staticmethod
    def explicit(values: Iterable[int]) -> "ResidueDomain":
        arr = np.unique(np.asarray(list(values), dtype=np.int64))
        if len(arr) == 0 or 0 not in arr or not np.array_equal(arr, -arr[::-1]):
            raise ValueError("residue domain must contain 0 and be symmetric under negation")
        return ResidueDomain(arr, False)

    def clipped(self, radius: int) -> "ResidueDomain":
        if self._contiguous:
            return ResidueDomain.range(min(self.radius, radius))
        lo = np.searchsorted(self.values, -radius, side="left")
        hi = np.searchsorted(self.values, radius, side="right")
        return ResidueDomain(self.values[lo:hi], False)

    def __len__(self) -> int:
        return len(self.values)

    def positions(self, vals):
        """Clipped positions plus a validity mask, for elementwise gathers."""
        vals = np.asarray(vals, dtype=np.int64)
        if not self._contiguous:
            # A value past the last one is clamped onto it and compares unequal.
            pos = np.minimum(np.searchsorted(self.values, vals), len(self.values) - 1)
            return pos, self.values[pos] == vals
        # Clamped with ufuncs: np.clip costs several times more per call here.
        pos = np.minimum(np.maximum(vals + self.radius, 0), len(self.values) - 1)
        return pos, self.contains(vals)

    def contains(self, vals) -> np.ndarray:
        """Membership mask alone; a contiguous axis needs no positions for it."""
        if not self._contiguous:
            return self.positions(vals)[1]
        return (vals >= -self.radius) & (vals <= self.radius)

    def pos_of(self, value: int) -> int | None:
        if self._contiguous:
            return value + self.radius if -self.radius <= value <= self.radius else None
        if self._index is None:
            self._index = {int(v): i for i, v in enumerate(self.values)}
        return self._index.get(int(value))


@dataclass(frozen=True)
class ResidueTuple:
    """Residues at (a, [s], [t], b); present entries sum to zero."""

    r_a: int
    r_b: int
    r_s: int | None = None
    r_t: int | None = None

    def __post_init__(self):
        if sum(self.entries()) != 0:
            raise ValueError(f"residue tuple does not sum to zero: {self}")

    def entries(self) -> tuple[int, ...]:
        return (self.r_a, *self.special_values().values(), self.r_b)

    def specials(self) -> tuple[str, ...]:
        return tuple(self.special_values())

    def special_value(self, label: str) -> int:
        value = self.r_s if label == "s" else self.r_t
        if value is None:
            raise ValueError(f"tuple {self} has no {label!r} residue")
        return value

    def special_values(self) -> dict[str, int]:
        """The present special residues by label, in ("s", "t") order."""
        out = {}
        if self.r_s is not None:
            out["s"] = self.r_s
        if self.r_t is not None:
            out["t"] = self.r_t
        return out


@dataclass
class NodeTable:
    node_id: int
    specials: tuple[str, ...]  # interior specials, in ("s", "t") order
    domain: ResidueDomain  # the a-slot axis
    special_axes: tuple[ResidueDomain, ...]  # one axis per interior special
    cost: np.ndarray
    split: np.ndarray | None
    admissible: int


def all_case_labels() -> list[str]:
    """Every structural combination case the DP can face at an inner node.

    The label records the node kind and where source/sink sit relative to
    the children: at the series join, inside the left child, or inside the
    right child. Mirrored placements get distinct labels.
    """
    labels = ["series:none", "parallel:none"]
    for lab in _SPECIAL_ORDER:
        labels += [
            f"series:{lab}@join",
            f"series:{lab}L",
            f"series:{lab}R",
            f"parallel:{lab}L",
            f"parallel:{lab}R",
        ]
    for sp in ("s@join", "sL", "sR"):
        for tp in ("t@join", "tL", "tR"):
            if sp.endswith("join") and tp.endswith("join"):
                continue
            labels.append(f"series:{sp}+{tp}")
    for sp in ("sL", "sR"):
        for tp in ("tL", "tR"):
            labels.append(f"parallel:{sp}+{tp}")
    return labels


class DPTable:
    """Built tables for every tree node, plus query and reconstruction."""

    def __init__(self, tree: DecompTree, f_bound: int, infinity: int, pin: int | None):
        self.tree = tree
        self.f_bound = f_bound
        self.infinity = infinity
        self.pin = pin  # the single flow value a pinned build answers, or None
        self.tables: dict[int, NodeTable] = {}
        self.case_counts: dict[str, int] = {}

    @property
    def state_count(self) -> int:
        return sum(nt.admissible for nt in self.tables.values())

    def per_node_states(self) -> dict[int, int]:
        return {nid: nt.admissible for nid, nt in self.tables.items()}

    # -- lookups ---------------------------------------------------------

    def _node_specials(self, node: DecompNode) -> tuple[str, ...]:
        return tuple(lab for lab in _SPECIAL_ORDER if lab in node.interior_specials)

    def _check_tuple(self, node: DecompNode, rt: ResidueTuple) -> None:
        want = self._node_specials(node)
        if rt.specials() != want:
            raise ValueError(
                f"tuple specials {rt.specials()} do not match node {node.id} specials {want}"
            )
        if self.pin is not None and any(
            rt.special_value(lab) != _SPECIAL_SIGN[lab] * self.pin for lab in want
        ):
            raise ValueError(f"table was built pinned to flow value {self.pin}, got {rt}")

    def cost_of(self, node_id: int, rt: ResidueTuple) -> int:
        node = self.tree.node(node_id)
        self._check_tuple(node, rt)
        nt = self.tables[node_id]
        coords = _coords(nt, rt.r_a, rt.special_values())
        if coords is None:
            return self.infinity
        return int(nt.cost[coords])

    def split_of(self, node_id: int, rt: ResidueTuple) -> int:
        self._check_tuple(self.tree.node(node_id), rt)
        nt = self.tables[node_id]
        coords = _coords(nt, rt.r_a, rt.special_values())
        if coords is None or nt.split is None:
            raise ValueError(f"node {node_id} stores no split for {rt}")
        return int(nt.split[coords])

    # -- structure helpers ----------------------------------------------

    def placements(self, node: DecompNode) -> dict[str, str]:
        """Where each interior special of ``node`` sits: join/left/right."""
        left = self.tree.node(node.left)
        right = self.tree.node(node.right)
        special_vertex = {"s": self.tree.source, "t": self.tree.sink}
        out: dict[str, str] = {}
        for lab in self._node_specials(node):
            if node.kind == "series" and node.join == special_vertex[lab]:
                out[lab] = "join"
            elif lab in left.interior_specials:
                out[lab] = "left"
            elif lab in right.interior_specials:
                out[lab] = "right"
            else:
                raise RuntimeError(f"special {lab!r} of node {node.id} is in neither child")
        return out

    def case_label(self, node: DecompNode) -> str:
        place = self.placements(node)
        parts = []
        for lab in _SPECIAL_ORDER:
            if lab not in place:
                continue
            where = place[lab]
            parts.append(f"{lab}@join" if where == "join" else f"{lab}{'L' if where == 'left' else 'R'}")
        return f"{node.kind}:{'+'.join(parts) or 'none'}"

    # -- queries ---------------------------------------------------------

    def root_tuple(self, v: int) -> ResidueTuple:
        """Tuple demanding a flow of value v from source to sink."""
        root = self.tree.node(self.tree.root)
        a, b = root.terminals
        s, t = self.tree.source, self.tree.sink
        r_a = (-v if s == a else 0) + (v if t == a else 0)
        r_b = (-v if s == b else 0) + (v if t == b else 0)
        kw = {f"r_{lab}": _SPECIAL_SIGN[lab] * v for lab in root.interior_specials}
        return ResidueTuple(r_a=r_a, r_b=r_b, **kw)

    def query_cost(self, v: int) -> int:
        if v < 0 or v > self.f_bound:
            raise ValueError(f"flow value {v} out of range [0, {self.f_bound}]")
        if self.pin is not None and v != self.pin:
            raise ValueError(f"table was built pinned to flow value {self.pin}, got {v}")
        return self.cost_of(self.tree.root, self.root_tuple(v))

    def query(self, v: int) -> tuple[int, frozenset[str] | None]:
        """Min cost of supporting flow v, with a witness edge set."""
        cost = self.query_cost(v)
        if cost >= self.infinity:
            return self.infinity, None
        return cost, self.reconstruct(self.tree.root, self.root_tuple(v))

    def reconstruct(self, node_id: int, rt: ResidueTuple) -> frozenset[str]:
        """Purchased edge ids behind the entry ``rt`` of a node.

        Walks (node, a-slot residue) pairs; the special residues are the
        same at every node below. Only the starting entry is checked: a
        feasible entry's cost is the sum of its children's, so they are
        feasible too."""
        if self.cost_of(node_id, rt) >= self.infinity:
            raise ValueError(f"node {node_id} has no feasible entry for {rt}")
        special = rt.special_values()
        purchased: list[str] = []
        stack = [(node_id, rt.r_a)]
        while stack:
            nid, r_a = stack.pop()
            node = self.tree.node(nid)
            if node.kind == "leaf":
                if r_a != 0:
                    purchased.append(node.edge_id)
            elif node.kind == "series":
                stack.append((node.left, r_a))
                stack.append((node.right, _join_residue(r_a, self.placements(node), special)))
            else:
                nt = self.tables[nid]
                split = int(nt.split[_coords(nt, r_a, special)])
                stack.append((node.left, split))
                stack.append((node.right, r_a - split))
        return frozenset(purchased)


def _coords(nt: NodeTable, r_a: int, special: Mapping[str, int]) -> tuple[int, ...] | None:
    """The cell of ``nt`` at a-slot residue ``r_a`` and the special residues

    ``special`` (by label), or None when one lies off its axis."""
    coords = [nt.domain.pos_of(r_a)]
    for lab, axis in zip(nt.specials, nt.special_axes):
        coords.append(axis.pos_of(special[lab]))
    return None if None in coords else tuple(coords)


def _join_residue(r_a, place: Mapping[str, str], special: Mapping[str, int]):
    """The series rule: the residue at the join, which is the right child's

    a-slot, is the parent's a-slot plus the residues of its specials at the
    join or in the left child; the left child keeps the parent's a-slot.
    Takes integers or broadcast arrays alike."""
    return r_a + sum(special[lab] for lab, where in place.items() if where != "right")


# -- vectorized build -----------------------------------------------------


def _grid(dom: ResidueDomain, specials: tuple[str, ...], axes: tuple[ResidueDomain, ...]):
    """Table shape, a-slot values and each special's values, every one

    as an array broadcast along its own axis."""
    shape = (len(dom), *(len(ax) for ax in axes))
    arrays = []
    for i, ax in enumerate((dom, *axes)):
        dims = [1] * len(shape)
        dims[i] = -1
        arrays.append(ax.values.reshape(dims))
    return shape, arrays[0], dict(zip(specials, arrays[1:]))


def _build_leaf(
    dom: ResidueDomain, cost: int, capacity: int, sentinel: int
) -> tuple[np.ndarray, int]:
    vals = dom.values
    arr = np.where(
        vals == 0,
        np.int64(0),
        np.where(np.abs(vals) <= capacity, np.int64(cost), np.int64(sentinel)),
    ).astype(np.int64)
    return arr, len(vals)


def _special_coords(nt: NodeTable, svals: dict) -> tuple[list, np.ndarray | bool]:
    """Positions of a parent's special values on a child's special axes,

    with their joint validity; they do not depend on the a-slot."""
    positions, valid = [], True
    for lab, axis in zip(nt.specials, nt.special_axes):
        pos, ok = axis.positions(svals[lab])
        positions.append(pos)
        valid = valid & ok
    return positions, valid


def _gather(nt: NodeTable, a_vals, positions: list, special_ok):
    """Look up a child table at the a-slot values ``a_vals`` and

    at its :func:`_special_coords`. Returns (cost, valid)."""
    pos_a, valid = nt.domain.positions(a_vals)
    if positions:  # children without specials need no extra mask op
        valid = valid & special_ok
    return nt.cost[(pos_a, *positions)], valid


class _Builder:
    def __init__(
        self,
        tree: DecompTree,
        f_bound: int,
        capacities: dict[str, int],
        base_domain: ResidueDomain | None,
        pin: int | None,
    ):
        self.tree = tree
        self.f_bound = f_bound
        self.capacities = capacities
        self.base_domain = base_domain
        self.sentinel = infinity_sentinel(tree.graph)
        self.table = DPTable(tree, f_bound, self.sentinel, pin)

    def domain_for(self, f_node: int) -> ResidueDomain:
        if self.base_domain is None:
            return ResidueDomain.range(f_node)
        return self.base_domain.clipped(f_node)

    def special_axes(
        self, specials: tuple[str, ...], dom: ResidueDomain
    ) -> tuple[ResidueDomain, ...]:
        """Each special's axis: the node domain, or the special's one

        pinned residue when the build answers a single flow query."""
        pin = self.table.pin
        if pin is None:
            return (dom,) * len(specials)
        return tuple(ResidueDomain.single(_SPECIAL_SIGN[lab] * pin) for lab in specials)

    def build(self) -> DPTable:
        table = self.table
        edges = self.tree.graph.edge_map()
        u_total: dict[int, int] = {}
        for node in (self.tree.node(i) for i in self.tree.postorder_ids()):
            if node.kind == "leaf":
                u_total[node.id] = self.capacities[node.edge_id]
            else:
                u_total[node.id] = u_total[node.left] + u_total[node.right]
            dom = self.domain_for(min(self.f_bound, u_total[node.id]))
            if node.kind == "leaf":
                cost, admissible = _build_leaf(
                    dom, edges[node.edge_id].cost, self.capacities[node.edge_id], self.sentinel
                )
                table.tables[node.id] = NodeTable(node.id, (), dom, (), cost, None, admissible)
                continue
            label = table.case_label(node)
            table.case_counts[label] = table.case_counts.get(label, 0) + 1
            specials = table._node_specials(node)
            combine = self._build_series if node.kind == "series" else self._build_parallel
            table.tables[node.id] = combine(node, specials, dom, self.special_axes(specials, dom))
        return table

    def _admissibility(self, dom: ResidueDomain, va, svals: dict, shape) -> tuple[np.ndarray, int]:
        """Mask of the cells whose implied b-slot residue is in the domain, and its count."""
        rb = va + sum(svals.values(), np.int64(0))
        ok = np.broadcast_to(dom.contains(np.negative(rb, out=rb)), shape)
        return ok, int(ok.sum())

    def _build_series(self, node: DecompNode, specials, dom, axes) -> NodeTable:
        table = self.table
        shape, va, svals = _grid(dom, specials, axes)
        left_nt, right_nt = table.tables[node.left], table.tables[node.right]
        left_cost, left_ok = _gather(left_nt, va, *_special_coords(left_nt, svals))
        y = _join_residue(va, table.placements(node), svals)
        right_cost, right_ok = _gather(right_nt, y, *_special_coords(right_nt, svals))
        total = np.minimum(left_cost + right_cost, self.sentinel)
        ok_mask, admissible = self._admissibility(dom, va, svals, shape)
        cost = np.where(left_ok & right_ok & ok_mask, total, np.int64(self.sentinel))
        cost = np.ascontiguousarray(np.broadcast_to(cost, shape))
        return NodeTable(node.id, specials, dom, axes, cost, None, admissible)

    def _build_parallel(self, node: DecompNode, specials, dom, axes) -> NodeTable:
        shape, va, svals = _grid(dom, specials, axes)
        left_nt, right_nt = self.table.tables[node.left], self.table.tables[node.right]
        sentinel = self.sentinel
        # Taken before the scan allocates its buffers, so that the mask's
        # full-size temporaries do not stack on top of them.
        ok_mask, admissible = self._admissibility(dom, va, svals, shape)
        # Every split's left costs at once, the split on a leading axis; a
        # split whose left slab is all sentinel cannot improve any cell.
        splits = left_nt.domain.values.reshape(-1, *(1,) * len(shape))
        left_cost, left_ok = _gather(left_nt, splits, *_special_coords(left_nt, svals))
        np.copyto(left_cost, sentinel, where=~left_ok)
        live = np.flatnonzero((left_cost < sentinel).reshape(len(splits), -1).any(axis=1))
        right_idx = _special_coords(right_nt, svals)
        best = np.full(shape, sentinel, dtype=np.int64)
        split = np.zeros(shape, dtype=np.int64)
        step = max(1, CELLS // best.size)
        # One block's candidates, their minimum and its first split; reused
        # by every block, so the scan's scratch stays a few blocks in size.
        block = np.empty((min(step, len(live)), *shape), dtype=np.int64)
        low = np.empty(shape, dtype=np.int64)
        arg = np.empty(shape, dtype=np.int64)
        for lo in range(0, len(live), step):
            rows = live[lo : lo + step]
            r = splits[rows]
            right_cost, right_ok = _gather(right_nt, va - r, *right_idx)
            right_cost = np.where(right_ok, right_cost, sentinel)
            # Unclamped: a candidate at or above the sentinel never beats best.
            cand = np.add(left_cost[rows], right_cost, out=block[: len(rows)])
            np.min(cand, axis=0, out=low)
            # The smallest split of the block reaching its minimum; the strict
            # merge keeps ties on the earlier blocks' smaller splits.
            np.min(np.where(cand == low, r, _NO_SPLIT), axis=0, out=arg)
            better = low < best
            np.copyto(best, low, where=better)
            np.copyto(split, arg, where=better)
        np.copyto(best, sentinel, where=~ok_mask)
        return NodeTable(node.id, specials, dom, axes, best, split, admissible)


def build_table(
    tree: DecompTree,
    f_bound: int | None = None,
    *,
    capacity_override: Mapping[str, int] | None = None,
    residue_values: Iterable[int] | None = None,
    pin: int | None = None,
) -> DPTable:
    """Build DP tables for every node in postorder.

    ``f_bound`` defaults to the max flow of the fully purchased graph under
    the effective capacities. ``capacity_override`` substitutes capacities
    by edge id without touching costs. ``residue_values`` restricts every
    tuple coordinate and every parallel split to an explicit residue set.
    ``pin`` gives the source axis the one value -pin and the sink axis the
    one value +pin, so each special axis has length one and the tables
    answer only the flow query ``pin``.
    """
    graph = tree.graph
    capacities = {e.id: e.capacity for e in graph.edges}
    if capacity_override is not None:
        for eid, cap in capacity_override.items():
            if eid not in capacities:
                raise KeyError(f"unknown edge id {eid!r} in capacity override")
            if cap < 0:
                raise ValueError("capacities cannot be negative")
            capacities[eid] = cap
    if f_bound is None:
        f_bound = effective_max_flow(graph, capacities)
    if f_bound < 0:
        raise ValueError("flow bound cannot be negative")
    if pin is not None and not (0 <= pin <= f_bound):
        raise ValueError(f"pinned flow value {pin} out of range [0, {f_bound}]")
    base = None
    if residue_values is not None:
        base = ResidueDomain.explicit(residue_values)
    return _Builder(tree, f_bound, capacities, base, pin).build()


def effective_max_flow(graph: MultiGraph, capacities: Mapping[str, int]) -> int:
    """Max source-sink flow with every edge purchased, capacities overridden."""
    edges = tuple(
        EdgeRecord(e.id, e.u, e.v, e.cost, capacities[e.id]) for e in graph.edges
    )
    patched = MultiGraph(
        vertex_count=graph.vertex_count,
        edges=edges,
        source=graph.source,
        sink=graph.sink,
        declared_terminals=graph.declared_terminals,
    )
    value, _ = max_flow(patched)
    return value


def upper_bound_flow(instance: ProblemInstance) -> int:
    """Max flow when everything is purchased: no solution can exceed it."""
    value, _ = max_flow(instance.graph)
    return value


def last_accepted(hi: int, accept) -> tuple[int, object]:
    """Largest k in [0, hi] that ``accept`` takes, by binary search.

    ``accept(k)`` returns (ok, result); it must take every k below one it
    takes, and k = 0 is taken without a call. Returns k and the result of
    the call that took it, None for k = 0."""
    lo, found = 0, None
    while lo < hi:
        mid = (lo + hi + 1) // 2
        ok, result = accept(mid)
        if ok:
            lo, found = mid, result
        else:
            hi = mid - 1
    return lo, found


def _flow_values(table: DPTable) -> np.ndarray:
    """The flow values ``table`` answers: its root domain's values >= 0,

    the upper half of a domain symmetric about 0."""
    values = table.tables[table.tree.root].domain.values
    return values[len(values) // 2 :]


def _rechecked(instance: ProblemInstance, cost: int, edges: frozenset[str], v: int) -> Solution:
    """The purchase re-evaluated from scratch: it must cost what the table

    says and carry flow v."""
    solution = solution_from_edges(instance, edges)
    if solution.total_cost != cost or solution.achieved_flow < v:
        raise RuntimeError(f"re-check failed: {solution} vs table cost {cost}, flow {v}")
    return solution


def solve_capndp(
    instance: ProblemInstance,
    *,
    tree: DecompTree | None = None,
    table: DPTable | None = None,
) -> Solution:
    """Cheapest purchase whose max flow meets the demand D: the table's least

    flow value >= D, since the cost never falls as the flow rises."""
    if instance.demand is None:
        raise ValueError("instance has no demand")
    if tree is None:
        tree = decompose(instance.graph)
    demand = instance.demand
    f_bound = upper_bound_flow(instance) if table is None else table.f_bound
    if demand > f_bound:
        raise InfeasibleError(f"demand {demand} exceeds the best attainable flow {f_bound}")
    if table is None:
        table = build_table(tree, f_bound)
    flows = _flow_values(table)
    at = int(np.searchsorted(flows, demand))
    if at < len(flows):
        v = int(flows[at])
        cost, edges = table.query(v)
        if edges is not None:
            return _rechecked(instance, cost, edges, v)
    raise InfeasibleError(f"demand {demand} is not attainable")


def solve_bcmfp(
    instance: ProblemInstance,
    *,
    tree: DecompTree | None = None,
    table: DPTable | None = None,
) -> Solution:
    """Max attainable flow within the budget: a binary search for the

    table's largest affordable flow value."""
    if instance.budget is None:
        raise ValueError("instance has no budget")
    if tree is None:
        tree = decompose(instance.graph)
    if table is None:
        table = build_table(tree, upper_bound_flow(instance))
    budget = instance.budget
    flows = _flow_values(table)
    at, _ = last_accepted(
        len(flows) - 1, lambda i: (table.query_cost(int(flows[i])) <= budget, None)
    )
    v = int(flows[at])
    cost, edges = table.query(v)
    if edges is None or cost > budget:
        raise RuntimeError(f"flow {v} passed the budget search at cost {cost} > budget {budget}")
    return _rechecked(instance, cost, edges, v)


def feasible(
    instance: ProblemInstance,
    budget: int,
    flow_value: int,
    capacity_override: Mapping[str, int] | None = None,
    *,
    tree: DecompTree | None = None,
) -> tuple[bool, frozenset[str] | None]:
    """Is there a purchase of cost <= budget supporting the given flow value

    under the (possibly overridden) capacities? Returns a witness on YES."""
    ok, edges, _ = feasible_detailed(
        instance, budget, flow_value, capacity_override, tree=tree
    )
    return ok, edges


def feasible_detailed(
    instance: ProblemInstance,
    budget: int,
    flow_value: int,
    capacity_override: Mapping[str, int] | None = None,
    *,
    tree: DecompTree | None = None,
) -> tuple[bool, frozenset[str] | None, dict]:
    """Like :func:`feasible` but also reports per-query statistics."""
    if flow_value < 0:
        raise ValueError("flow value cannot be negative")
    if tree is None:
        tree = decompose(instance.graph)
    table = build_table(
        tree, flow_value, capacity_override=capacity_override, pin=flow_value
    )
    cost = table.query_cost(flow_value)
    stats = {
        "states": table.state_count,
        "f_bound": table.f_bound,
        "cost": None if cost >= table.infinity else cost,
    }
    if cost > budget or cost >= table.infinity:
        return False, None, stats
    _, edges = table.query(flow_value)
    return True, edges, stats
