"""Dynamic program over the decomposition tree.

Subproblem: for a tree node spanning subgraph G' with terminals (a, b), and
residues (net inflow-minus-outflow targets) at a, b and at whichever of
source/sink lie strictly inside G' (every other vertex gets 0), the table
cell is the minimum purchase cost of an edge subset of G' that can route
those residues.

A cell is addressed by integers: the node id, the a-slot residue r_a, and
the source and sink residues r_s and r_t, each ignored at a node where that
special is not interior (:meth:`DPTable.cost_of`). The b-slot residue r_b
is never passed: the residues of a routable cell sum to zero, so r_b is
-(r_a + the interior specials' residues), and the build already stores the
sentinel in every cell whose implied r_b lies off the node's domain. The
free coordinates are thus the table's axes and nothing needs re-checking.

A flow of value v from source to sink is the root cell at (r_s, r_t) =
(-v, +v), whose r_a is -v if the source is the root's a terminal and +v if
the sink is. Both solvers reduce to such queries at the flow values a
table holds, the root domain's values in [0, F] (every integer there, or
the lattice points of a lattice table). The cost never falls as the flow
rises, so a demand D is answered at the least such value >= D, and a
budget by a binary search for the largest affordable one.

Given no table, the solvers never build every (r_s, r_t) pair: each query
value v gets its own build pinned to v with the flow bound F (below), which
answers that query with the full table's cost and witness. A demand takes
one such build; a budget search one per probe. The special-free nodes, those
with no interior special, have no special axis, so their tables do not
depend on v: a solve builds them once and each later probe rebuilds only
the nodes above the source or the sink (``reuse=`` of :func:`build_table`).

Series nodes combine children in one forced way; parallel nodes minimize
over an integer split of the a-residue between the two children, in one
blocked (min, +) scan over rows (:func:`_split_scan`): a row per node of a
special-free group, or per special cell of a spine node. The candidates
for a block of splits are formed at once, the split on the leading axis,
and the splits are walked in blocks of about ``CELLS`` candidate cells.
Each block's minimum, with the smallest split reaching it, merges into the
running best by a strict <, so ties go to the smallest split and a cell
that stays infeasible keeps split 0.

The special-free nodes are built one group at a time, not one node at a
time. A node's height is 0 at a leaf and one more than its taller child
otherwise; nodes of equal height never read each other, so every group of
one height, kind and width class is one numpy pass
(:meth:`_Builder._build_forest`). The width class keeps a group's tables
within a factor of two of each other (a parallel node's left child's too),
so no node is padded, or scans splits, far past its own width. Each node's
costs are one row of a flat array per build, its own cells over the values
of the flow bound's domain (the range [-F, F], or the residue set clipped
to F) within its radius; the splits of the parallel ones are rows of a
second; a last cell holds the sentinel. A group reads its children's rows
padded to its own width, the sentinel past each child's radius: a series
group sums them, clamped at the sentinel, and a parallel group scans them.
Each node's ``NodeTable`` is a view of its row, with the cost and split
bytes and the admissible count a node-by-node build gives, and the arrays
behind them are no larger. The spine nodes, those with an interior
special, are built one by one in postorder after the forest, and a pinned
build that reuses an earlier table rebuilds only them.

A spine node, series or parallel, pinned or full, is one combine over r_a
per special cell (:meth:`_Builder._combine`), since its children see its
source and sink residues unchanged. It reads each child the same way, as
rows over the child's a-slot domain at the node's special cells
(:meth:`_Builder._rows`): a view where the child's special axes are the
node's (every pinned build, every special-free child), and a gather, the
sentinel off the child's axes, where they are shorter (a child of a full
build with a narrower domain). A series node adds its left child at r_a
to its right child at the join residue; a parallel node scans the splits
of the rows. Both then apply one admissibility mask, and the result is
the node's a-first table.

Where each interior special sits (at the series join, or inside the left
or right child) is read from the tree: ``decompose`` records it once per
node as ``DecompNode.placements``, and the build, the case labels
(:func:`case_label`) and reconstruction all read it from there.

Each child sees its parent's source and sink residues unchanged, so only
the a-slot residue differs from node to node (series: :func:`_join_residue`;
parallel: the stored split and the rest). Reconstruction walks (node, a-slot
residue) pairs down from a feasible cell and buys a leaf iff its residue
is nonzero.

Tables are dense numpy arrays, one axis per free coordinate. The a-slot
axis ranges over the node's residue domain: integers in [-Fn, Fn] where
Fn = min(F, total capacity of the subgraph), optionally intersected with an
explicit residue set (see solve_lattice). Each special axis
(``NodeTable.special_axes``, keyed by the special's label in s-then-t
order) ranges over the same domain, unless the build is pinned to one
query value v: then the source axis holds only -v and the sink axis only
+v, so every special axis has length one and the table answers that single
flow query. The exact solvers build such tables with the flow bound F; the
budget-feasibility probe of the approximation scheme clips it to v.
Infeasible cells hold a cost sentinel larger than the whole graph's cost.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .decompose import DecompNode, DecompTree, decompose
from .errors import InfeasibleError
from .instance import ProblemInstance, Solution, infinity_sentinel
from .flow import max_flow, solution_from_edges

_SPECIAL_ORDER = ("s", "t")
_SPECIAL_SIGN = {"s": -1, "t": 1}  # residue of each special per unit of flow
CELLS = 1 << 16  # candidate cells one block of the parallel split scan holds
_NO_SPLIT = np.iinfo(np.int64).max


class ResidueDomain:
    """Sorted set of residue values for one table axis.

    Node domains are symmetric under negation; a pinned special axis holds
    a single value. Consecutive values (a range, a single value, a dense
    lattice set) are looked up by offset from the first; any other set by
    binary search."""

    __slots__ = ("values", "_lo", "_hi", "_dense")

    def __init__(self, values: np.ndarray):
        self.values = values
        self._lo, self._hi = int(values[0]), int(values[-1])
        self._dense = self._hi - self._lo + 1 == len(values)

    @staticmethod
    def range(radius: int) -> "ResidueDomain":
        return ResidueDomain(np.arange(-radius, radius + 1, dtype=np.int64))

    @staticmethod
    def single(value: int) -> "ResidueDomain":
        return ResidueDomain(np.array([value], dtype=np.int64))

    @staticmethod
    def explicit(values: Iterable[int]) -> "ResidueDomain":
        arr = np.unique(np.asarray(list(values), dtype=np.int64))
        if len(arr) == 0 or 0 not in arr or not np.array_equal(arr, -arr[::-1]):
            raise ValueError("residue domain must contain 0 and be symmetric under negation")
        return ResidueDomain(arr)

    def clipped(self, radius: int) -> "ResidueDomain":
        lo = np.searchsorted(self.values, -radius, side="left")
        hi = np.searchsorted(self.values, radius, side="right")
        return ResidueDomain(self.values[lo:hi])

    def __len__(self) -> int:
        return len(self.values)

    def positions(self, vals):
        """Clipped positions plus a validity mask, for elementwise gathers."""
        vals = np.asarray(vals, dtype=np.int64)
        if not self._dense:
            # A value past the last one is clamped onto it and compares unequal.
            pos = np.minimum(np.searchsorted(self.values, vals), len(self.values) - 1)
            return pos, self.values[pos] == vals
        # Clamped with ufuncs: np.clip costs several times more per call here.
        pos = np.minimum(np.maximum(vals - self._lo, 0), len(self.values) - 1)
        return pos, self.contains(vals)

    def contains(self, vals) -> np.ndarray:
        """Membership mask alone; a dense axis needs no positions for it."""
        if not self._dense:
            return self.positions(vals)[1]
        return (vals >= self._lo) & (vals <= self._hi)

    def pos_of(self, value: int) -> int | None:
        if self._dense:
            return value - self._lo if self._lo <= value <= self._hi else None
        pos = int(np.searchsorted(self.values, value))
        return pos if pos < len(self.values) and self.values[pos] == value else None


@dataclass
class NodeTable:
    domain: ResidueDomain  # the a-slot axis
    special_axes: dict[str, ResidueDomain]  # interior special -> its axis, s then t
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


def case_label(node: DecompNode) -> str:
    """The case of :func:`all_case_labels` an inner node falls in, read off

    its placements."""
    parts = [
        f"{lab}@join" if where == "join" else f"{lab}{where[0].upper()}"
        for lab, where in node.placements.items()
    ]
    return f"{node.kind}:{'+'.join(parts) or 'none'}"


class DPTable:
    """Built tables for every tree node, plus query and reconstruction."""

    def __init__(
        self,
        tree: DecompTree,
        f_bound: int,
        infinity: int,
        pin: int | None,
        capacities: dict[str, int],
        base_domain: ResidueDomain | None,
    ):
        self.tree = tree
        self.f_bound = f_bound
        self.infinity = infinity
        self.pin = pin  # the single flow value a pinned build answers, or None
        self.capacities = capacities  # per edge id, after any override
        self.base_domain = base_domain  # the residue set every axis is cut from, or None
        self.tables: dict[int, NodeTable] = {}
        self.spine: list[int] = []  # inner nodes with an interior special, in postorder

    @property
    def state_count(self) -> int:
        return sum(nt.admissible for nt in self.tables.values())

    def per_node_states(self) -> dict[int, int]:
        return {nid: nt.admissible for nid, nt in self.tables.items()}

    @property
    def case_counts(self) -> dict[str, int]:
        """How many inner nodes of the tree fall in each case label."""
        return dict(Counter(case_label(n) for n in self.tree.nodes if n.kind != "leaf"))

    # -- lookups ---------------------------------------------------------

    def cost_of(self, nid: int, r_a: int, r_s: int = 0, r_t: int = 0) -> int:
        """Cost of the cell at a-slot residue ``r_a`` and source and sink

        residues ``r_s``, ``r_t`` (each ignored where that special is not
        interior); the sentinel for a cell off the node's axes."""
        nt = self.tables[nid]
        coords = _coords(nt, r_a, r_s, r_t)
        if coords is None:
            return self.infinity
        return int(nt.cost[coords])

    def split_of(self, nid: int, r_a: int, r_s: int = 0, r_t: int = 0) -> int:
        """The a-slot residue a parallel node's cell sends into its left child."""
        nt = self.tables[nid]
        coords = _coords(nt, r_a, r_s, r_t)
        if coords is None or nt.split is None:
            raise ValueError(f"node {nid} stores no split for r_a={r_a}, r_s={r_s}, r_t={r_t}")
        return int(nt.split[coords])

    # -- queries ---------------------------------------------------------

    def _root_a(self, v: int) -> int:
        """The root's a-slot residue for flow v: -v if the source is that

        terminal, +v if the sink is."""
        a = self.tree.node(self.tree.root).terminals[0]
        return (v if a == self.tree.sink else 0) - (v if a == self.tree.source else 0)

    def query_cost(self, v: int) -> int:
        if v < 0 or v > self.f_bound:
            raise ValueError(f"flow value {v} out of range [0, {self.f_bound}]")
        if self.pin is not None and v != self.pin:
            raise ValueError(f"table was built pinned to flow value {self.pin}, got {v}")
        return self.cost_of(self.tree.root, self._root_a(v), -v, v)

    def query(self, v: int) -> tuple[int, frozenset[str] | None]:
        """Min cost of supporting flow v, with a witness edge set."""
        cost = self.query_cost(v)
        if cost >= self.infinity:
            return self.infinity, None
        return cost, self.reconstruct(self.tree.root, self._root_a(v), -v, v)

    def reconstruct(self, nid: int, r_a: int, r_s: int = 0, r_t: int = 0) -> frozenset[str]:
        """Purchased edge ids behind a node's cell (see :meth:`cost_of`).

        Walks (node, a-slot residue) pairs; the special residues are the
        same at every node below. Only the starting cell is checked: a
        feasible cell's cost is the sum of its children's, so they are
        feasible too."""
        if self.cost_of(nid, r_a, r_s, r_t) >= self.infinity:
            raise ValueError(f"node {nid} has no feasible cell at r_a={r_a}, r_s={r_s}, r_t={r_t}")
        special = {"s": r_s, "t": r_t}
        purchased: list[str] = []
        stack = [(nid, r_a)]
        while stack:
            nid, r_a = stack.pop()
            node = self.tree.node(nid)
            if node.kind == "leaf":
                if r_a != 0:
                    purchased.append(node.edge_id)
            elif node.kind == "series":
                stack.append((node.left, r_a))
                stack.append((node.right, _join_residue(r_a, node.placements, special)))
            else:
                split = self.split_of(nid, r_a, r_s, r_t)
                stack.append((node.left, split))
                stack.append((node.right, r_a - split))
        return frozenset(purchased)


def _coords(nt: NodeTable, r_a: int, r_s: int, r_t: int) -> tuple[int, ...] | None:
    """The cell of ``nt`` at a-slot residue ``r_a`` and source and sink

    residues ``r_s``, ``r_t``, or None when one lies off its axis."""
    coords = [nt.domain.pos_of(r_a)]
    for lab, axis in nt.special_axes.items():
        coords.append(axis.pos_of(r_s if lab == "s" else r_t))
    return None if None in coords else tuple(coords)


def _join_residue(r_a, place: Mapping[str, str], special: Mapping[str, int]):
    """The series rule: the residue at the join, which is the right child's

    a-slot, is the parent's a-slot plus the residues of its specials at the
    join or in the left child; the left child keeps the parent's a-slot.
    Takes integers or broadcast arrays alike."""
    return r_a + sum(special[lab] for lab, where in place.items() if where != "right")


# -- vectorized build -----------------------------------------------------


def _grid(dom: ResidueDomain, axes: dict[str, ResidueDomain]):
    """Table shape, a-slot values and each special's values, every one

    as an array broadcast along its own axis."""
    shape = (len(dom), *(len(ax) for ax in axes.values()))
    arrays = []
    for i, ax in enumerate((dom, *axes.values())):
        dims = [1] * len(shape)
        dims[i] = -1
        arrays.append(ax.values.reshape(dims))
    return shape, arrays[0], dict(zip(axes, arrays[1:]))


def _split_scan(top: ResidueDomain, left: np.ndarray, right: np.ndarray, half: int, sentinel: int):
    """The (min, +) scan over the split of any parallel node's rows.

    ``left`` and ``right`` are the children's rows over the values of
    ``top`` within a window about 0, ``right`` with one more column past
    its window that holds the sentinel. Cell r of a result row, the values
    within ``half`` positions of 0, takes the minimum over splits s of
    left[s] + right[r - s], the right cell read through a (split, r)
    position index that sends a residue off the right window to that
    sentinel column. The splits go in ascending blocks of about ``CELLS``
    candidate cells, on the leading axis; each block's minimum, with the
    first (smallest) split reaching it, merges into the running best by a
    strict <, so ties go to the smallest split and an infeasible cell keeps
    split 0. Returns the cost and split rows, as transposed views."""
    mid = len(top) // 2
    left_half, right_half = left.shape[1] // 2, right.shape[1] // 2 - 1
    window = ResidueDomain(top.values[mid - right_half : mid + right_half + 1])
    vals = top.values[mid - half : mid + half + 1]
    left, right = left.T, right.T  # (cell, row)
    # A split no left child can take cannot improve any cell.
    live = np.flatnonzero((left < sentinel).any(axis=1))
    split_vals = top.values[mid - left_half + live]
    shape = (len(vals), left.shape[1])
    best = np.full(shape, sentinel, dtype=np.int64)
    split = np.zeros(shape, dtype=np.int64)
    step = max(1, CELLS // best.size)
    # One block's candidates, their minimum and its first split; reused by
    # every block, so the scan's scratch stays a few blocks in size.
    block = np.empty((min(step, len(live)), *shape), dtype=np.int64)
    low = np.empty(shape, dtype=np.int64)
    arg = np.empty(shape, dtype=np.int64)
    for lo in range(0, len(live), step):
        s = split_vals[lo : lo + step]
        pos, ok = window.positions(vals - s[:, None])
        at = np.where(ok, pos, len(window))
        # Unclamped: a candidate at or above the sentinel never beats best.
        cand = np.add(left[live[lo : lo + step], None], right[at], out=block[: len(s)])
        np.min(cand, axis=0, out=low)
        # The smallest split of the block reaching its minimum.
        np.min(np.where(cand == low, s[:, None, None], _NO_SPLIT), axis=0, out=arg)
        better = low < best
        np.copyto(best, low, where=better)
        np.copyto(split, arg, where=better)
    return best.T, split.T


def _padded(flat: np.ndarray, centre: np.ndarray, half: np.ndarray, k: int, extra: int = 0):
    """Rows of the flat cost array ``flat`` about the cells ``centre``, at

    offsets -k to k + ``extra``; an offset past a row's own ``half`` reads
    the last cell, which holds the sentinel."""
    j = np.arange(-k, k + 1 + extra)
    at = centre[:, None] + j
    if extra or half.min() < k:
        at = np.where(np.abs(j) <= half[:, None], at, len(flat) - 1)
    return flat[at]


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
        self.table = DPTable(tree, f_bound, self.sentinel, pin, capacities, base_domain)

    def domain_for(self, f_node: int) -> ResidueDomain:
        if self.base_domain is None:
            return ResidueDomain.range(f_node)
        return self.base_domain.clipped(f_node)

    def special_axes(self, node: DecompNode, dom: ResidueDomain) -> dict[str, ResidueDomain]:
        """Each interior special's axis: the node domain, or the special's

        one pinned residue when the build answers a single flow query."""
        pin = self.table.pin
        if pin is None:
            return {lab: dom for lab in node.placements}
        return {lab: ResidueDomain.single(_SPECIAL_SIGN[lab] * pin) for lab in node.placements}

    def build(self) -> DPTable:
        """The special-free forest by groups (:meth:`_build_forest`), then

        the spine node by node in postorder."""
        table = self.table
        nodes, order = self.tree.nodes, self.tree.postorder_ids()
        f_bound, lattice = self.f_bound, self.base_domain is not None
        top = self.domain_for(f_bound)
        values, centre = top.values.tolist(), len(top) // 2
        total = [0] * len(nodes)  # each node's subgraph capacity
        height = [0] * len(nodes)
        half = [0] * len(nodes)  # how many values of each node's domain lie above 0
        # Special-free nodes by height, kind and width class: the node's
        # half-width, and a parallel node's left child's, which sets how
        # many splits it scans. The classes double from 16 up; below that
        # a group costs its numpy calls, not its cells.
        groups: dict[tuple, list[int]] = {}
        for nid in order:
            node = nodes[nid]
            if node.kind == "leaf":
                total[nid] = self.capacities[node.edge_id]
            else:
                total[nid] = total[node.left] + total[node.right]
                height[nid] = 1 + max(height[node.left], height[node.right])
            radius = min(f_bound, total[nid])
            half[nid] = bisect_right(values, radius) - centre - 1 if lattice else radius
            if node.placements:
                table.spine.append(nid)
                continue
            if node.kind == "leaf":
                key = (0, "leaf")
            else:
                lw = (half[node.left] >> 4).bit_length() if node.kind == "parallel" else 0
                key = (height[nid], node.kind, (half[nid] >> 4).bit_length(), lw)
            groups.setdefault(key, []).append(nid)
        half = np.array(half, dtype=np.int64)
        table.tables = self._build_forest(groups, half, top)
        for nid in table.spine:
            table.tables[nid] = self._combine(nodes[nid], self.domain_for(min(f_bound, total[nid])))
        table.tables = {nid: table.tables[nid] for nid in order}  # postorder, as ``spine``
        return table

    def _build_forest(
        self, groups: dict[tuple, list[int]], half: np.ndarray, top: ResidueDomain
    ) -> dict[int, NodeTable]:
        """Tables of the special-free nodes, given by group.

        A group depends only on lower ones, so each is one numpy pass. Each
        node's costs are one row of a flat array, its own 2·``half`` + 1
        cells (the values of ``top`` within ``half`` positions of 0), the
        rows of a group side by side; a last cell holds the sentinel. The
        parallel nodes' splits are rows of a second flat array. A group
        reads its children's rows padded to its own width, the sentinel past
        each child's half (:func:`_padded`): a series group sums them,
        clamped at the sentinel, and a parallel group scans them
        (:func:`_split_scan`). Each node's table is a view of its row."""
        nodes, edges, sentinel = self.tree.nodes, self.tree.graph.edge_map(), self.sentinel
        groups = [(kind, np.array(ids)) for (_, kind, *_), ids in sorted(groups.items())]
        size = 2 * half + 1
        start = np.zeros_like(half)  # each row's first cell
        order = np.concatenate([ids for _, ids in groups])
        start[order] = np.cumsum(size[order]) - size[order]
        costs = np.empty(start[order[-1]] + size[order[-1]] + 1, dtype=np.int64)
        costs[-1] = sentinel
        centre = start + half  # each row's cell at residue 0
        split_start = np.zeros_like(half)
        forks = np.concatenate([order[:0]] + [ids for kind, ids in groups if kind == "parallel"])
        split_start[forks] = np.cumsum(size[forks]) - size[forks]
        splits = np.empty(int(size[forks].sum()), dtype=np.int64)
        for kind, ids in groups:
            lo, hi = start[ids[0]], start[ids[-1]] + size[ids[-1]]
            if kind == "leaf":
                # The edge's cost at every residue within its capacity, 0 at 0.
                cost = np.array([edges[nodes[nid].edge_id].cost for nid in ids.tolist()])
                costs[lo:hi] = np.repeat(cost, size[ids])
                costs[centre[ids]] = 0
                continue
            left = np.array([nodes[nid].left for nid in ids.tolist()])
            right = np.array([nodes[nid].right for nid in ids.tolist()])
            h = int(half[ids].max())
            # Each row's own cells: all of them when every row is h wide.
            own = slice(None)
            if hi - lo != len(ids) * (2 * h + 1):
                own = np.abs(np.arange(-h, h + 1)) <= half[ids][:, None]
            if kind == "series":
                both = _padded(costs, centre[left], half[left], h)
                both += _padded(costs, centre[right], half[right], h)
                costs[lo:hi] = np.minimum(both, sentinel, out=both)[own].ravel()
                continue
            # The column past the right window is the sentinel.
            best, split = _split_scan(
                top,
                _padded(costs, centre[left], half[left], int(half[left].max())),
                _padded(costs, centre[right], half[right], int(half[right].max()), extra=1),
                h,
                sentinel,
            )
            costs[lo:hi] = best[own].ravel()
            first = split_start[ids[0]]
            splits[first : first + hi - lo] = split[own].ravel()

        mid = len(top) // 2
        domains: dict[int, ResidueDomain] = {}
        tables = {}
        halves, starts, split_starts = half.tolist(), start.tolist(), split_start.tolist()
        for kind, ids in groups:
            for nid in ids.tolist():
                h = halves[nid]
                dom = domains.get(h)
                if dom is None:
                    dom = domains[h] = ResidueDomain(top.values[mid - h : mid + h + 1])
                cost = costs[starts[nid] : starts[nid] + 2 * h + 1]
                split = None
                if kind == "parallel":
                    split = splits[split_starts[nid] : split_starts[nid] + 2 * h + 1]
                tables[nid] = NodeTable(dom, {}, cost, split, 2 * h + 1)
        return tables

    def rebuild_spine(self, reuse: DPTable) -> DPTable:
        """Share ``reuse``'s special-free node tables and build only its

        spine, each node over the domain it had there."""
        table = self.table
        table.tables = dict(reuse.tables)
        table.spine = reuse.spine
        for nid in reuse.spine:
            table.tables[nid] = self._combine(self.tree.node(nid), reuse.tables[nid].domain)
        return table

    def _combine(self, node: DecompNode, dom: ResidueDomain) -> NodeTable:
        """A spine node's table: a series node adds its left child at r_a to

        its right child at :func:`_join_residue`, a parallel node scans the
        splits of their rows (:func:`_split_scan`), both over r_a per special
        cell; then cells whose implied b-slot residue is off the domain hold
        the sentinel."""
        axes = self.special_axes(node, dom)
        shape, va, svals = _grid(dom, axes)
        # Taken before the children are read, so that the mask's full-size
        # temporaries do not stack on top of the scan's buffers.
        ok_mask, admissible = self._admissibility(dom, va, svals, shape)
        if node.kind == "series":
            left = self._at(node.left, svals, va)
            right = self._at(node.right, svals, _join_residue(va, node.placements, svals))
            # Every special is at the join or in a child, so the sum spans every axis.
            cost, split = np.minimum(left + right, self.sentinel), None
        else:
            cells, rows = shape[1:], []
            for nid, extra in ((node.left, 0), (node.right, 1)):
                row, labels = self._rows(nid, svals, extra)
                if max(cells) > 1:
                    # The child's axes in its parent's places, repeated along the rest.
                    dims = [k if lab in labels else 1 for lab, k in zip(svals, cells)]
                    row = np.broadcast_to(row.reshape(len(row), *dims), (len(row), *cells))
                rows.append(row.reshape(len(row), -1).T)
            best, split = _split_scan(dom, *rows, len(dom) // 2, self.sentinel)
            # The scan's rows are views of a-first arrays: a reshape is the table.
            cost, split = best.T.reshape(shape), split.T.reshape(shape)
        np.copyto(cost, self.sentinel, where=~ok_mask)
        return NodeTable(dom, axes, cost, split, admissible)

    def _admissibility(self, dom: ResidueDomain, va, svals: dict, shape) -> tuple[np.ndarray, int]:
        """Mask of the cells whose implied b-slot residue is in the domain, and its count."""
        rb = va + sum(svals.values(), np.int64(0))
        ok = np.broadcast_to(dom.contains(np.negative(rb, out=rb)), shape)
        return ok, int(ok.sum())

    def _rows(self, nid: int, svals: dict, extra: int = 0) -> tuple[np.ndarray, tuple[str, ...]]:
        """Node ``nid``'s a-first costs at its parent's special cells

        (``svals``, from :func:`_grid`), one axis per special of the node,
        then ``extra`` sentinel rows; and the labels of those specials. A
        view where each of the node's special axes is as long as the
        parent's; a gather, the sentinel off the node's axes, where not."""
        nt = self.table.tables[nid]
        cost, axes = nt.cost, nt.special_axes
        # A child's special axes are windows of its parent's, so one as long
        # is the same axis.
        if any(len(axis) != svals[lab].size for lab, axis in axes.items()):
            at, ok = [np.arange(len(cost)).reshape(-1, *(1,) * len(svals))], True
            for lab, axis in axes.items():
                pos, valid = axis.positions(svals[lab])
                at.append(pos)
                ok = ok & valid
            cost = np.where(ok, cost[tuple(at)], self.sentinel)
            cost = cost.reshape(len(cost), *(svals[lab].size for lab in axes))
        if extra:
            cost = np.concatenate([cost, np.full((extra, *cost.shape[1:]), self.sentinel)])
        return cost, tuple(axes)

    def _at(self, nid: int, svals: dict, vals) -> np.ndarray:
        """Node ``nid``'s costs at a-slot values ``vals``, broadcast on its

        parent's grid, and at the parent's special cells (:meth:`_rows`); the
        sentinel off its a-slot domain. Only the node's own special axes are
        indexed, and an axis of one cell at 0."""
        rows, labels = self._rows(nid, svals)
        pos, ok = self.table.tables[nid].domain.positions(vals)
        cells = (
            np.arange(v.size).reshape(v.shape) if v.size > 1 else 0 for v in map(svals.get, labels)
        )
        return np.where(ok, rows[(pos, *cells)], self.sentinel)


def build_table(
    tree: DecompTree,
    f_bound: int,
    *,
    capacity_override: Mapping[str, int] | None = None,
    residue_values: Iterable[int] | None = None,
    pin: int | None = None,
    reuse: DPTable | None = None,
) -> DPTable:
    """Build DP tables for every node in postorder.

    ``f_bound`` bounds every residue, usually the all-edges max flow F
    (:func:`upper_bound_flow`). ``capacity_override`` substitutes capacities
    by edge id without touching costs. ``residue_values`` restricts every
    cell coordinate and every parallel split to an explicit residue set.
    ``pin`` gives the source axis the one value -pin and the sink axis the
    one value +pin, so each special axis has length one and the tables
    answer only the flow query ``pin``.

    ``reuse`` is an earlier table of the same tree, flow bound, capacities
    and residue set. Its special-free node tables, which no pin changes,
    are shared by the new table as they are, and only the nodes with an
    interior special are built; any other table raises ``ValueError``.
    """
    capacities = {e.id: e.capacity for e in tree.graph.edges}
    if capacity_override is not None:
        for eid, cap in capacity_override.items():
            if eid not in capacities:
                raise KeyError(f"unknown edge id {eid!r} in capacity override")
            if cap < 0:
                raise ValueError("capacities cannot be negative")
            capacities[eid] = cap
    if f_bound < 0:
        raise ValueError("flow bound cannot be negative")
    if pin is not None and not (0 <= pin <= f_bound):
        raise ValueError(f"pinned flow value {pin} out of range [0, {f_bound}]")
    base = None
    if residue_values is not None:
        base = ResidueDomain.explicit(residue_values)
    builder = _Builder(tree, f_bound, capacities, base, pin)
    if reuse is None:
        return builder.build()
    _check_reusable(reuse, tree, f_bound, capacities, base)
    return builder.rebuild_spine(reuse)


def _check_reusable(
    reuse: DPTable,
    tree: DecompTree,
    f_bound: int,
    capacities: dict[str, int],
    base: ResidueDomain | None,
) -> None:
    """``reuse``'s special-free tables are this build's only if every input

    they were built from is the same."""
    if reuse.tree is not tree:
        raise ValueError("reused table was built over another tree")
    if reuse.f_bound != f_bound:
        raise ValueError(f"reused table has flow bound {reuse.f_bound}, not {f_bound}")
    if reuse.capacities != capacities:
        raise ValueError("reused table was built with other capacities")
    same_base = (reuse.base_domain is None) == (base is None) and (
        base is None or np.array_equal(reuse.base_domain.values, base.values)
    )
    if not same_base:
        raise ValueError("reused table was built over another residue set")


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


def _rechecked(
    instance: ProblemInstance, cost: int, edges: frozenset[str], v: int | Fraction
) -> Solution:
    """The purchase re-evaluated from scratch: it must cost what the table

    says and carry a flow of at least v (a flow value, or an FPTAS ladder
    level)."""
    solution = solution_from_edges(instance, edges)
    if solution.total_cost != cost or solution.achieved_flow < v:
        raise RuntimeError(f"re-check failed: {solution} vs table cost {cost}, flow {v}")
    return solution


def check_demand(demand: int, f_bound: int) -> None:
    """A demand above the all-edges max flow F is infeasible, whatever is bought."""
    if demand > f_bound:
        raise InfeasibleError(f"demand {demand} exceeds the best attainable flow {f_bound}")


def solve_capndp(
    instance: ProblemInstance,
    *,
    tree: DecompTree | None = None,
    table: DPTable | None = None,
) -> Solution:
    """Cheapest purchase whose max flow meets the demand D: the table's least

    flow value >= D, since the cost never falls as the flow rises.

    Without ``table`` it answers from one build pinned to D with the flow
    bound F; a ``table`` (a full or a lattice build) is read as it is."""
    if instance.demand is None:
        raise ValueError("instance has no demand")
    if tree is None and table is None:
        tree = decompose(instance.graph)
    demand = instance.demand
    f_bound = upper_bound_flow(instance) if table is None else table.f_bound
    check_demand(demand, f_bound)
    if table is None:
        table = build_table(tree, f_bound, pin=demand)
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

    table's largest affordable flow value.

    Without ``table`` each probe v of the search is a build pinned to v with
    the flow bound F, and every probe after the first rebuilds only the
    nodes with an interior special; a ``table`` is read as it is."""
    if instance.budget is None:
        raise ValueError("instance has no budget")
    if tree is None and table is None:
        tree = decompose(instance.graph)
    budget = instance.budget
    if table is None:
        v, table = _pinned_budget_search(tree, upper_bound_flow(instance), budget)
    else:
        flows = _flow_values(table)
        at, _ = last_accepted(
            len(flows) - 1, lambda i: (table.query_cost(int(flows[i])) <= budget, None)
        )
        v = int(flows[at])
    cost, edges = table.query(v)
    if edges is None or cost > budget:
        raise RuntimeError(f"flow {v} passed the budget search at cost {cost} > budget {budget}")
    return _rechecked(instance, cost, edges, v)


def _pinned_budget_search(tree: DecompTree, f_bound: int, budget: int) -> tuple[int, DPTable]:
    """The largest flow value in [0, F] affordable within ``budget``, and

    the pinned build that answers it. Each build shares the special-free
    tables of the one before."""
    last = None

    def probe(v: int):
        nonlocal last
        last = build_table(tree, f_bound, pin=v, reuse=last)
        return last.query_cost(v) <= budget, last

    v, table = last_accepted(f_bound, probe)
    if table is None:  # v = 0 is taken without a probe
        table = build_table(tree, f_bound, pin=0, reuse=last)
    return v, table


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
