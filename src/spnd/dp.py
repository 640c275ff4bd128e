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
the sink is. Every table answers at its own flow values: its pin alone,
or the values in [0, F] of its root's residue domain (every integer there,
or the lattice points of a lattice solve, see solve_lattice). Its cost row
(``DPTable._cost_row``) is the root's cost at each of them, and a row that
falls as the flow rises is refused. The cost never falls as the flow
rises, so one function answers every exact solve from a table
(:func:`_answer`): a demand D at the least flow value >= D, a budget at
the largest one its row affords; the sentinel is never affordable. The
answer is the table's one re-checked answer per flow value
(``DPTable._solution``), so a sweep of demands and budgets on one table
reconstructs and re-checks each flow value once.

A solve only chooses the table it reads (:func:`_solve`): a given one, or
builds pinned to one flow value v each with the flow bound F (below),
which answer v with the full table's cost and witness. A solve, plain or
lattice, never builds every (r_s, r_t) pair. A demand takes one such
build; a budget search one per probe, and answers from the last one its
cost row affords. One builder over the solve's residue domain makes them
all. The special-free nodes, those with no interior special, have no
special axis, so their tables do not depend on v: a budget search builds
them once, and each later probe builds only the nodes above the source or
the sink (``_Builder.build``).

Series nodes combine children in one forced way; parallel nodes minimize
over an integer split of the a-residue between the two children, in one
blocked (min, +) scan over a group's rows (:func:`_split_scan`). On a
residue domain of one step (the range, or a lattice set g·ℤ) the right
child's cell for residue r and split s lies at r's position minus s's, so
the right rows, padded with the sentinel to every such position, give each
split's candidates as one strided view; a set with irregular gaps gathers
them through a position index instead. The splits from the first to the
last that a left row can take are walked in ascending blocks of about
``CELLS`` candidate cells, the split on the leading axis. Each block's
minimum, with the first split reaching it (``argmin``), merges into the
running best by a strict <, so ties go to the smallest split and a cell
that stays infeasible keeps split 0.

Every node is rows, built one group at a time, not one node at a time.
Each child sees its parent's source and sink residues unchanged, so a
node's table is a row over r_a per cell of its special axes, in C order
over them: one row for a node with no interior special (the special-free
forest) and for every node of a pinned build, and one per (r_s, r_t) cell
for a node above the source or the sink (the spine) in a full build. A row
holds the node's costs at the values of the flow bound's domain (the range
[-F, F], or the residue set clipped to F) within its radius. It is read
through its left and right child rows (the sentinel row where its special
value lies off a child's shorter axis), the right child's join shift c
(the sum of the specials at the join or in the left child) and σ (the sum
of the node's interior specials). A node's height is 0 at a leaf and one
more than its taller child otherwise; nodes of one height never read each
other, so a group is one numpy pass (:meth:`_Builder._build_group`). An
inner forest group is one height, kind and half-width (and a parallel
node's left child's width class, which bounds the splits it scans), so its
rows are all one width; the leaves, each written at its own width, group
by width class; a spine node, at most two of a height, is a group of its
own. The rows lie side by side in one flat cost array, forest, then
spine, then a sentinel cell; the parallel rows' splits are rows of a
second. So an inner group's rows are one (rows x width) block of each
array, and it is built there, in place. A group reads its children's rows
padded to its own width (a parallel group's right rows, to the positions
its scan reads), the sentinel past each child's radius, and as a view
where they are whole rows side by side: a series group adds the left
rows to the right rows read at r_a + c into its block, clamped at the
sentinel, and a parallel group scans them into its blocks. A row with
σ ≠ 0 then holds the sentinel where r_a + σ is off the node's domain, since
the implied b-slot residue is -(r_a + σ). Each node's ``NodeTable`` is a view of
its rows, a-first on the spine, with the cost and split bytes and the
admissible count a node-by-node build gives, and the arrays behind the
views are no larger. A later build on the same builder keeps the first
one's forest rows and tables and builds only the spine's groups, in
[spine | sentinel] arrays of its own.

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
Fn = min(F, total capacity of the subgraph), intersected with the lattice
residues in a lattice solve. Each special axis (``NodeTable.special_axes``,
keyed by the special's label in s-then-t order) ranges over the same
domain, unless the build is pinned to one query value v: then the source
axis holds only -v and the sink axis only +v, so every special axis has
length one and the table answers that single flow query. The exact
solvers, lattice ones included, build only such tables, with the flow
bound F; the budget-feasibility probe of the approximation scheme clips it
to v.
Infeasible cells hold a cost sentinel larger than the whole graph's cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Mapping

import numpy as np

from .decompose import DecompNode, DecompTree, decompose
from .errors import InfeasibleError
from .instance import ProblemInstance, Solution, _reject_upgrades, infinity_sentinel
from .flow import max_flow, solution_from_edges

_SPECIAL_ORDER = ("s", "t")
_SPECIAL_SIGN = {"s": -1, "t": 1}  # residue of each special per unit of flow
CELLS = 1 << 16  # candidate cells one block of the parallel split scan holds


class ResidueDomain:
    """Sorted set of residue values for one table axis.

    Node domains are symmetric under negation; a pinned special axis holds
    a single value. A set with one constant ``step`` between its values (a
    range, a single value, a lattice set g·ℤ ∩ [-F, F]) is read by offset
    from its first value, and a value is in it iff it lies in [lo, hi] on
    that step; any other set (``step`` None) is read by binary search."""

    __slots__ = ("values", "step", "_lo", "_hi")

    def __init__(self, values: np.ndarray):
        self.values = values
        lo, hi, n = int(values[0]), int(values[-1]), len(values)
        self._lo, self._hi = lo, hi
        step = (hi - lo) // (n - 1) if n > 1 else 1
        # Distinct sorted values that lie on one step and span n - 1 steps
        # are every point of that step.
        if step * (n - 1) != hi - lo or (step > 1 and ((values - lo) % step).any()):
            step = None
        self.step = step

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
        if self.step is None:
            # A value past the last one is clamped onto it and compares unequal.
            pos = np.minimum(np.searchsorted(self.values, vals), len(self.values) - 1)
            return pos, self.values[pos] == vals
        # Clamped with ufuncs: np.clip costs several times more per call here.
        pos = np.minimum(np.maximum((vals - self._lo) // self.step, 0), len(self.values) - 1)
        return pos, self.contains(vals)

    def index(self, vals) -> np.ndarray:
        """Each value's position, or the domain's length where it is absent:

        an index into a row that holds one more cell past the domain."""
        pos, ok = self.positions(vals)
        return np.where(ok, pos, len(self.values))

    def contains(self, vals) -> np.ndarray:
        """Membership mask alone; a domain with one step needs no positions for it."""
        if self.step is None:
            return self.positions(vals)[1]
        ok = (vals >= self._lo) & (vals <= self._hi)
        return ok if self.step == 1 else ok & ((vals - self._lo) % self.step == 0)

    def pos_of(self, value: int) -> int | None:
        if self.step is not None:
            at, off = divmod(value - self._lo, self.step)
            return at if off == 0 and 0 <= at < len(self.values) else None
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
    """Built tables for every tree node, plus query and reconstruction, and

    what every exact solve reads (:func:`_answer`): the table's flow values,
    the root's cost row over them and one re-checked answer per flow value,
    each found once."""

    def __init__(self, tree: DecompTree, f_bound: int, infinity: int, pin: int | None):
        self.tree = tree
        self.f_bound = f_bound
        self.infinity = infinity
        self.pin = pin  # the single flow value a pinned build answers, or None
        self.tables: dict[int, NodeTable] = {}
        self._solutions: dict[int, Solution] = {}  # flow value -> its re-checked answer

    @cached_property
    def _max_flow(self) -> int:
        """The all-edges max flow F of the tree's graph, found at most once

        per table, when a ``table=`` solve needs it (:func:`_check_bound`)."""
        return max_flow(self.tree.graph)[0]

    @cached_property
    def _flows(self) -> list[int]:
        """The flow values the table answers: its pin alone, or its root

        domain's values >= 0 (:func:`_flow_values`)."""
        if self.pin is not None:
            return [self.pin]
        return _flow_values(self.tables[self.tree.root].domain).tolist()

    @cached_property
    def _cost_row(self) -> np.ndarray:
        """The root's cost at each of the table's flow values, each read by

        :meth:`cost_of` the first time a budget needs them: one value for a
        probe of a budget search, every one for a ``table=`` budget. A
        budget is answered by a binary search of this row, which trusts the
        cost never to fall as the flow rises: a row that falls raises."""
        root, flows = self.tree.root, self._flows
        row = [self.cost_of(root, self._root_a(v), -v, v) for v in flows]
        for i in range(1, len(row)):
            if row[i] < row[i - 1]:
                raise RuntimeError(f"root cost falls to {row[i]} at flow value {flows[i]}, from {row[i - 1]}")
        return np.array(row, dtype=np.int64)

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
        return v * (int(a == self.tree.sink) - int(a == self.tree.source))

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

    def _solution(self, instance: ProblemInstance, v: int) -> Solution | None:
        """The purchase that carries flow value v at its least cost, re-checked

        (:func:`_rechecked`), or None if none does. It is kept once found,
        so a table reconstructs and re-checks each flow value at most once:
        the re-check reads only the graph and the witness, a table gives one
        witness per flow value, and a solve's instance has the table's graph
        (:func:`_check_inputs`). A failed re-check raises and keeps nothing."""
        solution = self._solutions.get(v)
        if solution is None:
            cost, edges = self.query(v)
            if edges is None:
                return None
            solution = self._solutions[v] = _rechecked(instance, cost, edges, v)
        return solution

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


def _split_scan(top: ResidueDomain, left, right, best, split, sentinel: int) -> None:
    """The (min, +) scan over the split of any parallel node's rows.

    ``best`` and ``split`` are the group's rows of the flat cost and split
    arrays, one row per node or special cell over the values of ``top``
    within ``h = best.shape[1] // 2`` positions of 0; the scan fills them
    with the sentinel and split 0, then writes into them. ``left`` holds the
    left children's rows over the kl positions about 0 that they span. Cell
    r takes the minimum over splits s of left[s] + right[r - s]; a child
    read alike by every row is one row, broadcast.

    On a domain of one step, r - s lies at the position of r minus that of
    s, so ``right`` holds the right children's rows at positions -(h + kl)
    to h + kl, the sentinel past each child's radius, and every split's
    candidates are one strided view of it. On any other set, ``right`` holds
    the children's window with one more column, the sentinel, and the
    candidates are gathered through a (split, r) position index that sends
    a residue off the window there.

    The splits from the first to the last that some left row can take go in
    ascending blocks of about ``CELLS`` candidate cells. A block is summed
    into one buffer, and its minimum, with the first (smallest) split
    reaching it, merges into the running best by a strict <, so ties go to
    the smallest split and an infeasible cell keeps split 0."""
    mid, half, kl = len(top) // 2, best.shape[1] // 2, left.shape[1] // 2
    split_vals = top.values[mid - kl : mid + kl + 1]
    best.fill(sentinel)
    split.fill(0)
    # A split no left row can take cannot improve any cell.
    live = np.flatnonzero((left < sentinel).any(axis=0))
    if not len(live):
        return
    first, last = int(live[0]), int(live[-1]) + 1
    if top.step is None:
        kr = right.shape[1] // 2 - 1
        window = ResidueDomain(top.values[mid - kr : mid + kr + 1])
        vals = top.values[mid - half : mid + half + 1]
    else:
        # The split at left column j and the cell at column i read the right
        # row at position (i - h) - (j - kl), its column 2 kl + i - j.
        cols, size = right.strides[0], right.itemsize
    step = max(1, CELLS // best.size)
    # One block's candidates (split, row, cell), their minimum and its first
    # split; reused by every block, so the scan's scratch stays a few blocks
    # in size.
    block = np.empty((min(step, last - first), *best.shape), dtype=np.int64)
    low, arg = np.empty((2, *best.shape), dtype=np.int64)
    for lo in range(first, last, step):
        n = min(step, last - lo)
        if top.step is None:
            at = window.index(vals - split_vals[lo : lo + n, None])
            cand = right[:, at].transpose(1, 0, 2)
        else:
            shape = (n, len(right), best.shape[1])
            cand = np.ndarray(shape, np.int64, right, (2 * kl - lo) * size, (-size, cols, size))
        # Unclamped: a candidate at or above the sentinel never beats best.
        cand = np.add(left.T[lo : lo + n, :, None], cand, out=block[:n])
        cand.min(axis=0, out=low)
        cand.argmin(axis=0, out=arg)
        better = low < best
        np.copyto(best, low, where=better)
        np.copyto(split, split_vals[lo:][arg], where=better)


def _padded(flat: np.ndarray, centre: np.ndarray, half: np.ndarray, offsets: np.ndarray):
    """Rows of the flat cost array ``flat``: row i's cells at ``offsets``

    positions from its cell at residue 0, ``centre[i]`` (one row of offsets
    for every row, or one a row). An offset past the row's own ``half``
    reads the last cell, which holds the sentinel, so a row of half -1 is
    the sentinel row. Whole rows that lie one after another in ``flat``
    are read as a view of it, not gathered."""
    k, n, w = len(offsets) // 2, len(centre), len(offsets)
    # Offsets from -k to k that every row holds: rows side by side are a slice.
    if offsets.ndim == 1 and w % 2 and half.min() >= k:
        if centre[-1] - centre[0] == (n - 1) * w and (n == 1 or (np.diff(centre) == w).all()):
            return flat[centre[0] - k :][: n * w].reshape(n, w)
        return flat[centre[:, None] + offsets]
    return flat[np.where(np.abs(offsets) <= half[:, None], centre[:, None] + offsets, -1)]


class _Builder:
    """One tree's rows under one flow bound and residue set, over the

    capacities and costs of the tree's graph.

    The tree walk, the groups and the special-free forest's layout do not
    depend on a pin, so they are made once, here. The first :meth:`build`
    builds the forest's rows and tables, and every later one shares them
    and builds only its own spine.

    Nodes of one height never read each other (a node's height is 0 at a
    leaf and one more than its taller child's). An inner forest group is
    one height, kind and half-width, the number of its domain's values
    above 0, so its rows are one block of the flat arrays; a parallel
    group also has one width class of its left children, which sets how
    many splits it scans. The leaves group by width class alone, since
    each leaf row is written at its own width. The classes double from 16
    up; below that a group costs its numpy calls, not its cells. A spine
    node, at most two of a height, is a group of its own, and those come
    last. The forest's rows lie side by side in one flat cost array, its
    parallel rows' splits in a second. The tree walk also keeps each
    node's children and each leaf's edge cost, for the groups to read."""

    def __init__(self, tree: DecompTree, f_bound: int, base_domain: ResidueDomain | None):
        self.tree, self.f_bound = tree, f_bound
        self.sentinel = infinity_sentinel(tree.graph)
        top = ResidueDomain.range(f_bound) if base_domain is None else base_domain.clipped(f_bound)
        nodes, order = tree.nodes, tree.postorder_ids()
        values, mid, lattice = top.values.tolist(), len(top) // 2, base_domain is not None
        edges, groups = tree.graph.edge_map(), {}
        # total: subgraph capacity; paid: a leaf's edge cost.
        total, height, halves, left, right, paid = ([0] * len(nodes) for _ in range(6))
        for nid in order:
            node = nodes[nid]
            if node.kind == "leaf":
                edge = edges[node.edge_id]
                total[nid], paid[nid] = edge.capacity, edge.cost
            else:
                left[nid], right[nid] = node.left, node.right
                total[nid] = total[node.left] + total[node.right]
                height[nid] = 1 + max(height[node.left], height[node.right])
            radius = min(f_bound, total[nid])
            halves[nid] = bisect_right(values, radius) - mid - 1 if lattice else radius
            if node.placements:
                key = (True, height[nid], node.kind, nid)
            else:
                width = (halves[nid] >> 4).bit_length() if node.kind == "leaf" else halves[nid]
                lw = (halves[node.left] >> 4).bit_length() if node.kind == "parallel" else 0
                key = (False, height[nid], node.kind, width, lw)
            groups.setdefault(key, []).append(nid)
        self.groups = [(on, k, np.array(ids)) for (on, _, k, *_), ids in sorted(groups.items())]
        self.spine = [group for group in self.groups if group[0]]
        self.top, self.halves = top, halves
        self.left, self.right, self.paid = np.array(left), np.array(right), np.array(paid)
        half = self.half = np.array(halves, dtype=np.int64)
        self.domains = {h: ResidueDomain(top.values[mid - h : mid + h + 1]) for h in set(halves)}
        forest = self.groups[: len(self.groups) - len(self.spine)]
        flat = np.concatenate([ids for *_, ids in forest])
        forks = np.concatenate([flat[:0], *(ids for _, k, ids in forest if k == "parallel")])
        size = 2 * half + 1
        start, split_start = np.zeros((2, len(half)), dtype=np.int64)  # first cell, first split
        start[flat] = size[flat].cumsum() - size[flat]
        split_start[forks] = size[forks].cumsum() - size[forks]
        self.centre = start + half  # a forest row's cell at residue 0
        # Each build sets its spine's entries over the last build's.
        self.starts, self.sizes, self.split_at = start.tolist(), size.tolist(), split_start.tolist()
        self.forest_size = int(size[flat].sum()), int(size[forks].sum())  # cells, splits
        self.forest = None  # the first build's flat costs, whose forest rows every build reads
        self.forest_tables = dict.fromkeys(order)  # postorder; the first build's

    def build(self, pin: int | None) -> DPTable:
        """Every node's rows, one group at a time (:meth:`_build_group`).

        ``pin`` gives every source axis the one value -pin and every sink
        axis the one value +pin; None gives each the node's domain. The
        first build lays out its spine after the forest in the forest's
        flat arrays, and a last cell holds the sentinel. A later build keeps
        the first one's forest tables and builds only the spine, in
        [spine | sentinel] arrays of its own. Each node's table is a view of
        its rows, a-first on the spine."""
        table = self.table = DPTable(self.tree, self.f_bound, self.sentinel, pin)
        nodes, halves, sizes, first = self.tree.nodes, self.halves, self.sizes, self.forest is None
        pinned = {}
        if pin is not None:  # one value each, shared by every node
            pinned = {lab: ResidueDomain.single(sign * pin) for lab, sign in _SPECIAL_SIGN.items()}
        axes, (cells, splits) = {}, self.forest_size if first else (0, 0)
        for _, kind, ids in self.spine:  # a group per node
            nid = int(ids[0])
            dom = self.domains[halves[nid]]
            axes[nid] = {lab: pinned.get(lab, dom) for lab in nodes[nid].placements}
            sizes[nid] = len(dom) * prod(map(len, axes[nid].values()))
            self.starts[nid], cells = cells, cells + sizes[nid]
            if kind == "parallel":
                self.split_at[nid], splits = splits, splits + sizes[nid]
        costs = self.costs = np.empty(cells + 1, dtype=np.int64)  # every group writes all its cells
        costs[-1] = self.sentinel
        splits = self.splits = np.empty(splits, dtype=np.int64)
        if first:
            self.forest = costs
        table.tables = tables = self.forest_tables if first else dict(self.forest_tables)
        for on_spine, kind, ids in self.groups if first else self.spine:
            id_list = ids.tolist()
            lo, hi = self.starts[id_list[0]], self.starts[id_list[-1]] + sizes[id_list[-1]]
            count = self._build_group(kind, ids, axes if on_spine else None, lo, hi - lo)
            for nid in id_list:
                h, at, split = halves[nid], self.starts[nid], None
                cost = costs[at : at + sizes[nid]]
                if kind == "parallel":
                    split = splits[self.split_at[nid] : self.split_at[nid] + sizes[nid]]
                if not on_spine:
                    tables[nid] = NodeTable(self.domains[h], {}, cost, split, 2 * h + 1)
                    continue
                # A-first views: each row runs along the a-slot axis.
                lens = tuple(map(len, axes[nid].values()))
                cost = cost.reshape(-1, 2 * h + 1).T.reshape(-1, *lens)
                if split is not None:
                    split = split.reshape(-1, 2 * h + 1).T.reshape(-1, *lens)
                tables[nid] = NodeTable(self.domains[h], axes[nid], cost, split, count)
        return table

    def _build_group(self, kind: str, ids: np.ndarray, axes: dict | None, lo: int, cells: int):
        """One group's rows, the ``cells`` cost cells from ``lo`` on (and as

        many splits for a parallel group); and a spine node's admissible
        count (a special-free node's is its width).

        A group depends only on lower ones, so it is one numpy pass. An
        inner group's rows are all 2h + 1 wide, so they are a (rows x
        (2h + 1)) block of the flat cost array (and of the split array),
        written in place. They read their children's rows padded to that
        width (:func:`_padded`): a series group adds the left child's at
        r_a to the right child's at r_a plus the row's join shift into its
        block, clamped at the sentinel, and a parallel group scans them
        into its blocks (:func:`_split_scan`), the right rows padded as the
        scan reads them on its domain. A spine node's group
        (``axes`` given) then holds the sentinel where r_a + σ is off the
        node's domain (:meth:`_admissibility`)."""
        costs, half, top = self.costs, self.half, self.top
        nodes, sentinel, count, ok = self.tree.nodes, self.sentinel, None, None
        if kind == "leaf":
            # The edge's cost at every residue within its capacity, 0 at 0.
            costs[lo : lo + cells] = self.paid[ids].repeat(2 * half[ids] + 1)
            costs[self.centre[ids]] = 0
            return None
        h = int(half[ids[0]])  # every row of an inner group is 2h + 1 cells wide
        rows = costs[lo : lo + cells].reshape(-1, 2 * h + 1)
        if axes is None:
            left, right = self.left[ids], self.right[ids]
            lf, lc, lh = costs, self.centre[left], half[left]
            rf, rc, rh = costs, self.centre[right], half[right]
        else:
            node, axes = nodes[ids[0]], axes[ids[0]]  # a spine node is a group of its own
            # Its rows, in C order over its special cells: each special's
            # position on its axis, and its residue.
            lens = tuple(map(len, axes.values()))
            index = dict(zip(axes, np.unravel_index(np.arange(prod(lens)), lens)))
            svals = {lab: axes[lab].values[at] for lab, at in index.items()}
            children = (self._child_rows(c, axes, index) for c in (node.left, node.right))
            (lf, lc, lh), (rf, rc, rh) = children
            dom = self.domains[h]
            # Taken before the children are read, so that the mask's
            # full-size temporaries do not stack on the scan's buffers.
            ok, count = self._admissibility(dom, sum(svals.values()))
        at = j = np.arange(-h, h + 1)
        if kind == "series":
            shifted = axes and [lab for lab, where in node.placements.items() if where != "right"]
            if shifted:
                # The shift is in values, so a gapped residue set stays exact.
                # Of one special out of two, it is one row per cell of its axis.
                shift, sel = _join_residue(0, node.placements, svals), slice(None)
                if len(shifted) < len(axes):
                    shift, sel = axes[shifted[0]].values, index[shifted[0]]
                if top.step is None:
                    at = top.index(dom.values + shift[:, None]) - len(top) // 2
                else:
                    # On one step a shift moves positions; one off the step
                    # leaves its whole row off the domain.
                    moved, off = np.divmod(shift, top.step)
                    at = np.where(off == 0, moved, len(top))[:, None] + j
                at = at[sel]
            # A child read alike by every row is one row, broadcast.
            np.add(_padded(lf, lc, lh, j), _padded(rf, rc, rh, at), out=rows)
            np.minimum(rows, sentinel, out=rows)
        else:
            # A child read alike by every row is one row, broadcast.
            kl = int(lh.max())
            left = _padded(lf, lc, lh, np.arange(-kl, kl + 1))
            if top.step is None:  # the right window, then a sentinel column
                kr = int(rh.max())
                right = _padded(rf, rc, rh, np.arange(-kr, kr + 2))
            else:  # every r_a - split, the sentinel past the child's radius
                right = _padded(rf, rc, rh, np.arange(-h - kl, h + kl + 1))
            first = self.split_at[ids[0]]
            split = self.splits[first : first + cells].reshape(rows.shape)
            _split_scan(top, left, right, rows, split, sentinel)
        if ok is not None:
            np.copyto(rows, sentinel, where=~ok)
        return count

    def _child_rows(self, nid: int, axes: dict[str, ResidueDomain], index: dict):
        """Node ``nid``'s row at each of its parent's special cells, or its

        one row for all of them when it has no special axes: the flat cost
        array that holds it (the forest's, or this build's spine's), the
        row's cell at residue 0 and its half-width, or half -1, the sentinel
        row, where a parent's value lies off the node's axes. The parent has
        ``axes``, and ``index`` gives each special's position on its axis. A
        child's special axis is the middle of its parent's (the same one
        value in a pinned build), so a position moves by the difference in
        half-length, and only a shorter axis can miss."""
        h, row, ok = int(self.half[nid]), None, True
        for lab, axis in self.table.tables[nid].special_axes.items():
            at, cut = index[lab], (len(axes[lab]) - len(axis)) // 2
            if cut:
                at = at - cut
                ok = ok & (at >= 0) & (at < len(axis))
            row = at if row is None else row * len(axis) + at
        if row is None:
            return self.forest, np.array([self.starts[nid] + h]), np.array([h])
        half = np.full(len(row), h) if ok is True else np.where(ok, h, -1)
        return self.costs, self.starts[nid] + h + (2 * h + 1) * row, half

    def _admissibility(self, dom: ResidueDomain, sigma: np.ndarray):
        """Mask of a spine node's cells, a row per special cell over r_a in

        its domain ``dom``, whose implied b-slot residue -(r_a + σ) lies in
        ``dom``, or None where every σ is 0 (the domain is symmetric); and
        the count of them."""
        if not sigma.any():
            return None, len(sigma) * len(dom)
        ok = dom.contains(dom.values + sigma[:, None])
        return ok, int(ok.sum())


def build_table(tree: DecompTree, f_bound: int, *, pin: int | None = None) -> DPTable:
    """Build DP tables for every node in postorder, over the capacities and

    costs of ``tree.graph``: a table answers for its tree's graph.

    ``f_bound`` bounds every residue, usually the all-edges max flow F
    (:func:`upper_bound_flow`); a bound below F answers the flow values up
    to it. ``pin`` gives the source axis the one value -pin and the sink
    axis the one value +pin, so each special axis has length one and the
    tables answer only the flow query ``pin``.
    """
    if f_bound < 0:
        raise ValueError("flow bound cannot be negative")
    if pin is not None and not (0 <= pin <= f_bound):
        raise ValueError(f"pinned flow value {pin} out of range [0, {f_bound}]")
    return _Builder(tree, f_bound, None).build(pin)


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


def _flow_values(domain: ResidueDomain) -> np.ndarray:
    """The flow values of a root domain: its values >= 0, the upper half of

    a domain symmetric about 0."""
    return domain.values[len(domain) // 2 :]


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


def _check_inputs(
    instance: ProblemInstance, tree: DecompTree | None, table: DPTable | None = None
) -> None:
    """The instance has no upgrade menu, and a given tree or table is of its

    graph: one of another graph would answer for that graph."""
    _reject_upgrades(instance)
    for name, given in (("tree", tree), ("table", table and table.tree)):
        if given is not None and given.graph is not instance.graph and given.graph != instance.graph:
            raise ValueError(f"{name} was built from another graph than the instance's")


def check_demand(demand: int, f_bound: int) -> None:
    """A demand above the all-edges max flow F is infeasible, whatever is bought."""
    if demand > f_bound:
        raise InfeasibleError(f"demand {demand} exceeds the best attainable flow {f_bound}")


def _check_bound(table: DPTable) -> None:
    """A ``table=`` solve whose answer may lie past the table's flow bound

    (a demand above it, a budget answer at its top flow value) needs that
    bound to be at least F: a table built under F cannot see the flows
    above its bound."""
    if table.f_bound < table._max_flow:
        raise ValueError(
            f"table's flow bound {table.f_bound} is below the graph's max flow {table._max_flow}"
        )


def _answer(instance: ProblemInstance, table: DPTable) -> Solution:
    """The instance's exact answer from ``table``, at the table's flow values.

    The cost never falls as the flow rises, so a demand D is answered at
    the least flow value >= D, and a budget at the largest one its cost row
    affords. A budget at or past the sentinel is read as one below it, so
    the sentinel, which marks a flow the table cannot carry, is never
    affordable, and the budget fits the row's integers. The answer is the
    table's kept one for that flow value (:meth:`DPTable._solution`)."""
    flows, demand, budget = table._flows, instance.demand, instance.budget
    if budget is None:
        at = bisect_left(flows, demand)
    else:
        row = table._cost_row
        at = int(np.searchsorted(row, min(budget, table.infinity - 1), "right")) - 1
    solution = table._solution(instance, flows[at]) if at < len(flows) else None
    if budget is None:
        if solution is None:
            raise InfeasibleError(f"demand {demand} is not attainable")
    elif solution is None or solution.total_cost > budget:
        raise RuntimeError(f"flow {flows[at]} passed the budget search at cost {row[at]} > budget {budget}")
    return solution


def _solve(
    instance: ProblemInstance,
    tree: DecompTree | None,
    table: DPTable | None,
    f_bound: int | None = None,
    base: ResidueDomain | None = None,
) -> tuple[Solution, DPTable]:
    """The instance's exact answer, and the table that answered it.

    This only chooses the table, and :func:`_answer` reads the answer from
    it. A ``table`` is read as it is; a pinned one answers only a demand at
    its pin. Without one, a builder of the tree under the flow bound F
    (``f_bound``, found here if not given; a budget search may be given any
    bound its answer is known not to exceed) over the residue set ``base``
    (every integer if None) makes every build, each pinned to one of its
    flow values, its domain's values in [0, F]. A demand takes the one build
    at the least flow value >= D; a budget, the last build its binary search
    affords, each probe one build whose cost row it reads. Each probe after
    the first builds only the nodes with an interior special."""
    _check_inputs(instance, tree, table)
    demand, budget = instance.demand, instance.budget
    if table is not None:
        if demand is not None and demand > table.f_bound:
            check_demand(demand, table._max_flow)
            _check_bound(table)
        if table.pin is not None and demand != table.pin:
            raise ValueError(f"table was built pinned to flow value {table.pin}; it answers only that demand")
        if budget is not None and table._cost_row[-1] <= min(budget, table.infinity - 1):
            _check_bound(table)  # the answer is the table's top flow value
        return _answer(instance, table), table
    if tree is None:
        tree = decompose(instance.graph)
    if f_bound is None:
        f_bound = upper_bound_flow(instance)
    if demand is not None:
        check_demand(demand, f_bound)
    builder = _Builder(tree, f_bound, base)
    flows, build = _flow_values(builder.top).tolist(), builder.build
    if demand is not None:
        # A demand past the last flow value (only a residue set without F
        # has one) gets the last one's build, which finds it unattainable.
        table = build(flows[min(bisect_left(flows, demand), len(flows) - 1)])
    else:
        cap = min(budget, builder.sentinel - 1)

        def probe(i: int):
            answer = build(flows[i])
            return answer._cost_row[0] <= cap, answer

        _, table = last_accepted(len(flows) - 1, probe)
        if table is None:  # flow value 0 is taken without a probe
            table = build(flows[0])
    return _answer(instance, table), table


def solve_capndp(
    instance: ProblemInstance,
    *,
    tree: DecompTree | None = None,
    table: DPTable | None = None,
) -> Solution:
    """Cheapest purchase whose max flow meets the demand D: the table's least

    flow value >= D, since the cost never falls as the flow rises.

    Without ``table`` it answers from one build pinned to that value with
    the flow bound F; a ``table`` is read as it is, and a pinned one answers
    only a demand at its pin (``ValueError``). A demand above a table's flow
    bound is infeasible if it is above F, and is refused (``ValueError``) if
    the bound is below F."""
    if instance.demand is None:
        raise ValueError("instance has no demand")
    return _solve(instance, tree, table)[0]


def solve_bcmfp(
    instance: ProblemInstance,
    *,
    tree: DecompTree | None = None,
    table: DPTable | None = None,
) -> Solution:
    """Max attainable flow within the budget: the table's largest

    affordable flow value.

    Without ``table`` a binary search finds it, each probe v a build pinned
    to v with the flow bound F whose one-value cost row it reads, and every
    probe after the first rebuilds only the nodes with an interior special.
    A ``table`` is read as it is: one search of its root's cost row, read
    once per table. A pinned table answers no budget (``ValueError``). An
    answer at the table's top flow value is refused (``ValueError``) if the
    table's flow bound is below F, since a larger flow may be affordable."""
    if instance.budget is None:
        raise ValueError("instance has no budget")
    return _solve(instance, tree, table)[0]


def feasible(
    instance: ProblemInstance, budget: int, flow_value: int, *, tree: DecompTree | None = None
) -> tuple[bool, frozenset[str] | None]:
    """Is there a purchase of cost <= budget supporting the given flow value

    under the instance's capacities? Returns a witness on YES."""
    ok, edges, _ = feasible_detailed(instance, budget, flow_value, tree=tree)
    return ok, edges


def feasible_detailed(
    instance: ProblemInstance, budget: int, flow_value: int, *, tree: DecompTree | None = None
) -> tuple[bool, frozenset[str] | None, dict]:
    """Like :func:`feasible` but also reports per-query statistics: the

    pinned build's admissible states, its flow bound (the flow value) and
    the least cost of carrying that value, None if no purchase does."""
    if flow_value < 0:
        raise ValueError("flow value cannot be negative")
    _check_inputs(instance, tree)
    if tree is None:
        tree = decompose(instance.graph)
    table = build_table(tree, flow_value, pin=flow_value)
    cost = table.query_cost(flow_value)
    stats = {
        "states": table.state_count,
        "f_bound": table.f_bound,
        "cost": None if cost >= table.infinity else cost,
    }
    if cost > budget or cost >= table.infinity:
        return False, None, stats
    edges = table.reconstruct(tree.root, table._root_a(flow_value), -flow_value, flow_value)
    return True, edges, stats
