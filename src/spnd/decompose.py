"""Recognition and decomposition of two-terminal series-parallel multigraphs.

A graph is series-parallel between terminals (a, b) iff it reduces to a
single a-b edge under repeated reductions: merging two parallel edges, or
contracting a non-terminal vertex of degree exactly two. The reduction order
is deterministic (parallel before series, ties by smallest edge key), which
makes the resulting binary decomposition tree deterministic as well.

Each attempt keeps its live super-edges indexed by parallel class and by
vertex, with lazy min-heaps of the candidate parallel merges and degree-2
contractions (the worklist of Valdes, Tarjan & Lawler, SIAM J. Comput.
1982). A step touches one class and at most two vertices and orients
nothing, so one terminal pair costs O(m log m) for m edges in any order.

Tree nodes are oriented: a series node with terminals (a, b) and join c has
a left child spanning (a, c) and a right child spanning (c, b); a parallel
node's children both span the node's own terminal pair. The steps leave
each node as they made it; one top-down walk orients the finished tree.

Undeclared terminals need no search over vertex pairs. The first pair is
the first two degree-1 vertices, else (0, 1); when it fails, one reduction
that protects no vertex decides. The reductions are confluent and the
unprotected run may make every step a protected one can, so if it stops
short of a single edge no pair reduces, and the graph is rejected with the
first pair's witness. If it ends on an edge a-b, it never contracted a or
b, so protecting them would have removed only candidates it never picked:
its tree is node for node the tree of the attempt at (a, b), and it is
kept. Any graph costs at most two reductions, O(m log m) in all.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .errors import NotSeriesParallelError
from .instance import EdgeRecord, MultiGraph


@dataclass
class DecompNode:
    """One node of the decomposition tree.

    ``placements`` maps each of the source ('s') and sink ('t') that lies
    strictly inside this node's subgraph (in it but not equal to either
    terminal) to where it sits: "join" (a series node's join vertex),
    "left" or "right" (interior to that child). Keys are in s-then-t order;
    a leaf has none.
    """

    id: int
    kind: str  # "leaf" | "series" | "parallel"
    terminals: tuple[int, int]
    edge_id: str | None = None
    join: int | None = None
    left: int | None = None
    right: int | None = None
    placements: dict[str, str] = field(default_factory=dict)

    @property
    def interior_specials(self) -> frozenset[str]:
        return frozenset(self.placements)


@dataclass(frozen=True)
class ReductionWitness:
    """Irreducible remainder left behind by a failed reduction attempt."""

    terminals: tuple[int, int]
    remainder: tuple[tuple[int, int, tuple[str, ...]], ...]  # (x, y, leaf edge ids)

    def describe(self) -> str:
        parts = ", ".join(
            f"{x}-{y}[{'+'.join(ids)}]" for x, y, ids in self.remainder
        )
        return f"terminals {self.terminals}: stuck with {len(self.remainder)} edges: {parts}"


@dataclass
class DecompTree:
    nodes: list[DecompNode]
    root: int
    graph: MultiGraph
    terminals: tuple[int, int]

    def node(self, nid: int) -> DecompNode:
        return self.nodes[nid]

    @property
    def source(self) -> int:
        return self.graph.source

    @property
    def sink(self) -> int:
        return self.graph.sink

    def postorder_ids(self) -> list[int]:
        order: list[int] = []
        stack: list[tuple[int, bool]] = [(self.root, False)]
        while stack:
            nid, expanded = stack.pop()
            node = self.nodes[nid]
            if expanded or node.kind == "leaf":
                order.append(nid)
                continue
            stack.append((nid, True))
            stack.append((node.right, False))
            stack.append((node.left, False))
        return order

    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "leaf")

    def subtree_edge_ids(self, nid: int) -> tuple[str, ...]:
        """Leaf edge ids under a node, in left-to-right order."""
        return _leaf_edge_ids(self.nodes, nid)


def _leaf_edge_ids(nodes: list[DecompNode], nid: int) -> tuple[str, ...]:
    out: list[str] = []
    stack = [nid]
    while stack:
        node = nodes[stack.pop()]
        if node.kind == "leaf":
            out.append(node.edge_id)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)


def tree_text(tree: DecompTree) -> str:
    """Parenthesized form: L(id), S(left,right)@join, P(left,right), in

    one pass over a stack of node ids and closing tokens."""
    out: list[str] = []
    stack: list[int | str] = [tree.root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif (node := tree.nodes[item]).kind == "leaf":
            out.append(f"L({node.edge_id})")
        else:
            series = node.kind == "series"
            out.append("S(" if series else "P(")
            stack += (f")@{node.join}" if series else ")", node.right, ",", node.left)
    return "".join(out)


def _connected(graph: MultiGraph) -> bool:
    n = graph.vertex_count
    if n == 0:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in graph.edges:
        adj[e.u].append(e.v)
        adj[e.v].append(e.u)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return all(seen)


class _Builder:
    """One reduction attempt for a fixed protected terminal pair, or, with

    ``protected`` empty, for none: then any degree-2 vertex may be
    contracted and whatever single edge remains is accepted.

    Live super-edges are indexed two ways: by unordered endpoint pair (a
    parallel class, kept as a heap of ``(key, node id)``) and by vertex
    (node id -> key). Two lazy heaps hold the reductions that may apply:
    ``(k1, k2, endpoints)`` for a class with two or more members and
    ``(k1, k2, v)`` for an unprotected vertex of degree two, k1 < k2 being
    the two smallest keys involved. A step updates one class and at most
    two vertices, pushes the candidates it creates, and checks a popped
    candidate against the current state, so stale entries are dropped.
    A step orients nothing; ``_orient`` turns the finished tree in one walk.
    """

    def __init__(self, graph: MultiGraph, protected: tuple[int, ...]):
        self.protected = protected
        self.nodes: list[DecompNode] = []
        # live super-edges: node id -> key (smallest original edge index inside)
        self.live: dict[int, int] = {}
        self.classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.incident: dict[int, dict[int, int]] = {}
        for idx, e in enumerate(graph.edges):
            nid = self._new_node("leaf", (e.u, e.v), edge_id=e.id)
            self.live[nid] = idx
            # Appending in key order leaves each class a valid heap.
            self.classes.setdefault(_ends(e.u, e.v), []).append((idx, nid))
            self.incident.setdefault(e.u, {})[nid] = idx
            self.incident.setdefault(e.v, {})[nid] = idx
        self.parallel_heap: list[tuple[int, int, tuple[int, int]]] = []
        self.series_heap: list[tuple[int, int, int]] = []
        for ends in self.classes:
            self._push_parallel(ends)
        for v in self.incident:
            self._push_series(v)

    def _new_node(self, kind: str, terminals: tuple[int, int], **kw) -> int:
        nid = len(self.nodes)
        self.nodes.append(DecompNode(id=nid, kind=kind, terminals=terminals, **kw))
        return nid

    def _parallel_keys(self, ends: tuple[int, int]) -> tuple[int, int] | None:
        """The two smallest keys of a class that can merge, else None."""
        members = self.classes.get(ends)
        if members is None or len(members) < 2:
            return None
        # A heap's second smallest entry is one of its root's children.
        return members[0][0], min(members[1:3])[0]

    def _series_keys(self, v: int) -> tuple[int, int] | None:
        """The two keys at a vertex that can be contracted, else None."""
        edges = self.incident.get(v)
        if edges is None or len(edges) != 2 or v in self.protected:
            return None
        k1, k2 = sorted(edges.values())
        return k1, k2

    def _push_parallel(self, ends: tuple[int, int]) -> None:
        keys = self._parallel_keys(ends)
        if keys is not None:
            heapq.heappush(self.parallel_heap, (*keys, ends))

    def _push_series(self, v: int) -> None:
        keys = self._series_keys(v)
        if keys is not None:
            heapq.heappush(self.series_heap, (*keys, v))

    def _try_parallel(self) -> bool:
        heap = self.parallel_heap
        while heap and self._parallel_keys(heap[0][2]) != heap[0][:2]:
            heapq.heappop(heap)
        if not heap:
            return False
        key1, _key2, ends = heapq.heappop(heap)
        members = self.classes[ends]
        _, nid1 = heapq.heappop(members)
        _, nid2 = heapq.heappop(members)
        new = self._new_node("parallel", self.nodes[nid1].terminals, left=nid1, right=nid2)
        heapq.heappush(members, (key1, new))
        del self.live[nid1]
        del self.live[nid2]
        self.live[new] = key1
        for v in ends:
            edges = self.incident[v]
            del edges[nid1]
            del edges[nid2]
            edges[new] = key1
            self._push_series(v)
        self._push_parallel(ends)
        return True

    def _try_series(self) -> bool:
        heap = self.series_heap
        while heap and self._series_keys(heap[0][2]) != heap[0][:2]:
            heapq.heappop(heap)
        if not heap:
            return False
        key1, _key2, c = heapq.heappop(heap)
        nid1, nid2 = sorted(self.incident.pop(c), key=self.live.get)
        e1, e2 = self.nodes[nid1], self.nodes[nid2]
        p = e1.terminals[0] if e1.terminals[1] == c else e1.terminals[1]
        q = e2.terminals[0] if e2.terminals[1] == c else e2.terminals[1]
        # Series steps run only when no class has two members, so both
        # classes are singletons and p != q.
        del self.classes[_ends(p, c)]
        del self.classes[_ends(c, q)]
        new = self._new_node("series", (p, q), join=c, left=nid1, right=nid2)
        del self.live[nid1]
        del self.live[nid2]
        self.live[new] = key1
        for v, old in ((p, nid1), (q, nid2)):
            edges = self.incident[v]
            del edges[old]
            edges[new] = key1
            self._push_series(v)
        ends = _ends(p, q)
        heapq.heappush(self.classes.setdefault(ends, []), (key1, new))
        self._push_parallel(ends)
        return True

    def run(self) -> tuple[bool, int | None]:
        while len(self.live) > 1:
            if self._try_parallel():
                continue
            if self._try_series():
                continue
            return False, None
        (nid,) = self.live
        if self.protected and frozenset(self.nodes[nid].terminals) != frozenset(self.protected):
            return False, None
        _orient(self.nodes, nid)
        return True, nid

    def witness(self) -> ReductionWitness:
        rows = []
        for nid in sorted(self.live, key=self.live.get):
            x, y = self.nodes[nid].terminals
            rows.append((x, y, tuple(sorted(_leaf_edge_ids(self.nodes, nid)))))
        return ReductionWitness(self.protected, tuple(rows))


def _ends(x: int, y: int) -> tuple[int, int]:
    """The parallel-class key of a super-edge: its endpoints, unordered."""
    return (x, y) if x < y else (y, x)


def _spans(nodes: list[DecompNode], root: int) -> Iterator[tuple[int, tuple[int, int]]]:
    """Each node id with the span its parent fixes, from the root down:

    a series node (a, b) with join c fixes (a, c) left and (c, b) right, a
    parallel node its own span for both. A node's children are read after
    it is yielded, so the caller may turn it first."""
    stack = [(root, nodes[root].terminals)]
    while stack:
        nid, span = stack.pop()
        yield nid, span
        node = nodes[nid]
        if node.kind == "series":
            stack += ((node.right, (node.join, span[1])), (node.left, (span[0], node.join)))
        elif node.kind == "parallel":
            stack += ((node.right, span), (node.left, span))


def _orient(nodes: list[DecompNode], root: int) -> None:
    """Turn each node found reversed to the span its parent fixes; a

    turned series node swaps its children."""
    for nid, span in _spans(nodes, root):
        node = nodes[nid]
        if node.terminals == span:
            continue
        if node.terminals != (span[1], span[0]):
            raise RuntimeError("super-edge endpoints do not match requested orientation")
        node.terminals = span
        if node.kind == "series":
            node.left, node.right = node.right, node.left


def _first_pair(graph: MultiGraph) -> tuple[int, int]:
    """The declared terminals, else the first two degree-1 vertices, else (0, 1)."""
    if graph.declared_terminals is not None:
        return graph.declared_terminals
    degree = [0] * graph.vertex_count
    for e in graph.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    deg1 = [v for v in range(graph.vertex_count) if degree[v] == 1]
    return (deg1[0], deg1[1]) if len(deg1) > 1 else (0, 1)


def _annotate_specials(tree: DecompTree) -> None:
    """Fill every inner node's placements, children first: a special at a

    series join sits there, else in the child it is interior to; one that
    is a terminal of the node is not interior to it."""
    specials = (("s", tree.graph.source), ("t", tree.graph.sink))
    for nid in tree.postorder_ids():
        node = tree.nodes[nid]
        if node.kind == "leaf":
            continue
        left = tree.nodes[node.left].placements
        right = tree.nodes[node.right].placements
        place = {}
        for lab, v in specials:
            if v in node.terminals:
                continue
            if node.kind == "series" and node.join == v:
                place[lab] = "join"
            elif lab in left:
                place[lab] = "left"
            elif lab in right:
                place[lab] = "right"
        node.placements = place


def decompose(graph: MultiGraph) -> DecompTree:
    """Build the decomposition tree, or reject with a witness.

    With declared terminals only that pair is tried. Otherwise the first
    two degree-1 vertices, else (0, 1), are tried, and if that pair fails
    one reduction with no protected vertex decides: if it ends on an edge,
    its tree is kept, with that edge's ends as the terminals. At most two
    reductions run. Raises :class:`NotSeriesParallelError`, carrying the
    first pair's witness, when no pair admits a complete reduction, when
    the graph is disconnected (including when it has more vertices than
    edges plus one), or when it has no edges.
    """
    if graph.edge_count == 0:
        raise NotSeriesParallelError("graph has no edges")
    # A connected graph has at most m + 1 vertices; checking that first
    # keeps a huge declared vertex count from reaching per-vertex lists.
    if graph.vertex_count > graph.edge_count + 1 or not _connected(graph):
        raise NotSeriesParallelError("graph is disconnected")
    first = _first_pair(graph)
    builder = _Builder(graph, first)
    ok, root = builder.run()
    if not ok:
        failed = builder
        if graph.declared_terminals is None:
            # The reductions are confluent and the unprotected pass may make
            # every step a protected attempt can, so it fails only if all
            # do. It never contracts the ends of its last edge, so its tree
            # is the tree of the attempt that protects that pair.
            builder = _Builder(graph, ())
            ok, root = builder.run()
        if not ok:
            witness = failed.witness()
            raise NotSeriesParallelError(
                "graph is not two-terminal series-parallel for any tried terminal pair "
                f"({witness.describe()})",
                witness=witness,
                tried_pairs=(first,),
            )
    tree = DecompTree(
        nodes=builder.nodes,
        root=root,
        graph=graph,
        terminals=builder.nodes[root].terminals,
    )
    _annotate_specials(tree)
    return tree


def recompose(tree: DecompTree) -> MultiGraph:
    """Rebuild the multigraph from the tree structure alone.

    Leaf endpoints are derived by descending terminal assignments from the
    root (not read off the leaves), so this doubles as a structural
    consistency check: stored node terminals must match the derivation.
    """
    derived: dict[str, tuple[int, int]] = {}
    for nid, span in _spans(tree.nodes, tree.root):
        node = tree.nodes[nid]
        if node.terminals != span:
            raise ValueError(f"tree corrupted: node {nid} spans {node.terminals}, derived {span}")
        if node.kind == "leaf":
            derived[node.edge_id] = span
    by_id = tree.graph.edge_map()
    if set(derived) != set(by_id):
        raise ValueError("tree corrupted: leaf edge ids do not match the graph")
    edges = []
    for original in tree.graph.edges:
        u, v = derived[original.id]
        edges.append(EdgeRecord(original.id, u, v, original.cost, original.capacity))
    return MultiGraph(
        vertex_count=tree.graph.vertex_count,
        edges=tuple(edges),
        source=tree.graph.source,
        sink=tree.graph.sink,
        declared_terminals=tree.graph.declared_terminals,
    )
