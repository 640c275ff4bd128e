"""Recognition and decomposition of two-terminal series-parallel multigraphs.

A graph is series-parallel between terminals (a, b) iff it reduces to a
single a-b edge under repeated reductions: merging two parallel edges, or
contracting a non-terminal vertex of degree exactly two. The reduction order
is deterministic (parallel before series, ties by smallest edge key), which
makes the resulting binary decomposition tree deterministic as well.

Tree nodes are oriented: a series node with terminals (a, b) and join c has
a left child spanning (a, c) and a right child spanning (c, b); a parallel
node's children both span the node's own terminal pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .errors import NotSeriesParallelError
from .instance import EdgeRecord, MultiGraph


@dataclass
class DecompNode:
    """One node of the decomposition tree.

    ``interior_specials`` says which of the source ('s') / sink ('t') lie
    strictly inside this node's subgraph, i.e. in it but not equal to either
    terminal.
    """

    id: int
    kind: str  # "leaf" | "series" | "parallel"
    terminals: tuple[int, int]
    edge_id: str | None = None
    join: int | None = None
    left: int | None = None
    right: int | None = None
    interior_specials: frozenset[str] = frozenset()


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

    def node(self, node_id: int) -> DecompNode:
        return self.nodes[node_id]

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

    def subtree_edge_ids(self, node_id: int) -> tuple[str, ...]:
        """Leaf edge ids under a node, in left-to-right order."""
        return _leaf_edge_ids(self.nodes, node_id)


def _leaf_edge_ids(nodes: list[DecompNode], node_id: int) -> tuple[str, ...]:
    out: list[str] = []
    stack = [node_id]
    while stack:
        node = nodes[stack.pop()]
        if node.kind == "leaf":
            out.append(node.edge_id)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return tuple(out)


def tree_text(tree: DecompTree) -> str:
    """Parenthesized form: L(id), S(left,right)@join, P(left,right)."""
    rendered: dict[int, str] = {}
    for nid in tree.postorder_ids():
        node = tree.nodes[nid]
        if node.kind == "leaf":
            rendered[nid] = f"L({node.edge_id})"
        elif node.kind == "series":
            rendered[nid] = f"S({rendered[node.left]},{rendered[node.right]})@{node.join}"
        else:
            rendered[nid] = f"P({rendered[node.left]},{rendered[node.right]})"
    return rendered[tree.root]


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
    """One reduction attempt for a fixed protected terminal pair."""

    def __init__(self, graph: MultiGraph, protected: tuple[int, int]):
        self.graph = graph
        self.protected = protected
        self.nodes: list[DecompNode] = []
        # live super-edges: node id -> key (smallest original edge index inside)
        self.live: dict[int, int] = {}
        for idx, e in enumerate(graph.edges):
            nid = self._new_node("leaf", (e.u, e.v), edge_id=e.id)
            self.live[nid] = idx

    def _new_node(self, kind: str, terminals: tuple[int, int], **kw) -> int:
        nid = len(self.nodes)
        self.nodes.append(DecompNode(id=nid, kind=kind, terminals=terminals, **kw))
        return nid

    def _flip(self, nid: int) -> None:
        stack = [nid]
        while stack:
            node = self.nodes[stack.pop()]
            a, b = node.terminals
            node.terminals = (b, a)
            if node.kind == "series":
                node.left, node.right = node.right, node.left
                stack.append(node.left)
                stack.append(node.right)
            elif node.kind == "parallel":
                stack.append(node.left)
                stack.append(node.right)

    def _oriented(self, nid: int, want: tuple[int, int]) -> int:
        node = self.nodes[nid]
        if node.terminals == want:
            return nid
        if node.terminals == (want[1], want[0]):
            self._flip(nid)
            return nid
        raise RuntimeError("super-edge endpoints do not match requested orientation")

    def _try_parallel(self) -> bool:
        groups: dict[frozenset[int], list[tuple[int, int]]] = {}
        for nid, key in self.live.items():
            ends = frozenset(self.nodes[nid].terminals)
            groups.setdefault(ends, []).append((key, nid))
        best = None
        for members in groups.values():
            if len(members) < 2:
                continue
            members.sort()
            cand = (members[0][0], members[1][0], members[0][1], members[1][1])
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None:
            return False
        key1, key2, nid1, nid2 = best
        left = self.nodes[nid1]
        self._oriented(nid2, left.terminals)
        new = self._new_node("parallel", left.terminals, left=nid1, right=nid2)
        del self.live[nid1]
        del self.live[nid2]
        self.live[new] = key1
        return True

    def _try_series(self) -> bool:
        incident: dict[int, list[tuple[int, int]]] = {}
        for nid, key in self.live.items():
            for v in self.nodes[nid].terminals:
                incident.setdefault(v, []).append((key, nid))
        best = None
        for v, edges in incident.items():
            if v in self.protected or len(edges) != 2:
                continue
            edges.sort()
            cand = (edges[0][0], edges[1][0], v, edges[0][1], edges[1][1])
            if best is None or cand[:3] < best[:3]:
                best = cand
        if best is None:
            return False
        key1, _key2, c, nid1, nid2 = best
        e1, e2 = self.nodes[nid1], self.nodes[nid2]
        p = e1.terminals[0] if e1.terminals[1] == c else e1.terminals[1]
        q = e2.terminals[0] if e2.terminals[1] == c else e2.terminals[1]
        self._oriented(nid1, (p, c))
        self._oriented(nid2, (c, q))
        new = self._new_node("series", (p, q), join=c, left=nid1, right=nid2)
        del self.live[nid1]
        del self.live[nid2]
        self.live[new] = key1
        return True

    def run(self) -> tuple[bool, int | None]:
        while len(self.live) > 1:
            if self._try_parallel():
                continue
            if self._try_series():
                continue
            return False, None
        (nid,) = self.live
        root = self.nodes[nid]
        if frozenset(root.terminals) != frozenset(self.protected):
            return False, None
        return True, nid

    def witness(self) -> ReductionWitness:
        rows = []
        for nid in sorted(self.live, key=self.live.get):
            x, y = self.nodes[nid].terminals
            rows.append((x, y, tuple(sorted(_leaf_edge_ids(self.nodes, nid)))))
        return ReductionWitness(self.protected, tuple(rows))


def _candidate_pairs(graph: MultiGraph) -> Iterator[tuple[int, int]]:
    if graph.declared_terminals is not None:
        yield graph.declared_terminals
        return
    degree = [0] * graph.vertex_count
    for e in graph.edges:
        degree[e.u] += 1
        degree[e.v] += 1
    deg1 = [v for v in range(graph.vertex_count) if degree[v] == 1]
    seen = set()
    for i, a in enumerate(deg1):
        for b in deg1[i + 1 :]:
            seen.add((a, b))
            yield (a, b)
    for a in range(graph.vertex_count):
        for b in range(a + 1, graph.vertex_count):
            if (a, b) not in seen:
                yield (a, b)


def _annotate_specials(tree: DecompTree) -> None:
    s, t = tree.graph.source, tree.graph.sink
    for nid in tree.postorder_ids():
        node = tree.nodes[nid]
        if node.kind == "leaf":
            node.interior_specials = frozenset()
            continue
        left = tree.nodes[node.left]
        right = tree.nodes[node.right]
        labels = set(left.interior_specials) | set(right.interior_specials)
        if node.kind == "series":
            if node.join == s:
                labels.add("s")
            if node.join == t:
                labels.add("t")
        # A special equal to one of this node's own terminals is not interior.
        if s in node.terminals:
            labels.discard("s")
        if t in node.terminals:
            labels.discard("t")
        node.interior_specials = frozenset(labels)


def decompose(graph: MultiGraph) -> DecompTree:
    """Build the decomposition tree, or reject with a witness.

    With declared terminals only that pair is tried; otherwise endpoint
    pairs of degree-1 vertices are tried first, then all vertex pairs.
    Raises :class:`NotSeriesParallelError` when no tried pair admits a
    complete reduction, when the graph is disconnected (including when it
    has more vertices than edges plus one), or when it has no edges.
    """
    if graph.edge_count == 0:
        raise NotSeriesParallelError("graph has no edges")
    # A connected graph has at most m + 1 vertices; checking that first
    # keeps a huge declared vertex count from reaching per-vertex lists.
    if graph.vertex_count > graph.edge_count + 1 or not _connected(graph):
        raise NotSeriesParallelError("graph is disconnected")
    tried = []
    best_witness: ReductionWitness | None = None
    for pair in _candidate_pairs(graph):
        tried.append(pair)
        builder = _Builder(graph, pair)
        ok, root = builder.run()
        if ok:
            tree = DecompTree(
                nodes=builder.nodes,
                root=root,
                graph=graph,
                terminals=builder.nodes[root].terminals,
            )
            _annotate_specials(tree)
            return tree
        witness = builder.witness()
        if best_witness is None or len(witness.remainder) < len(best_witness.remainder):
            best_witness = witness
    raise NotSeriesParallelError(
        "graph is not two-terminal series-parallel for any tried terminal pair "
        f"({best_witness.describe()})",
        witness=best_witness,
        tried_pairs=tried,
    )


def recompose(tree: DecompTree) -> MultiGraph:
    """Rebuild the multigraph from the tree structure alone.

    Leaf endpoints are derived by descending terminal assignments from the
    root (not read off the leaves), so this doubles as a structural
    consistency check: stored node terminals must match the derivation.
    """
    assigned: dict[int, tuple[int, int]] = {tree.root: tree.nodes[tree.root].terminals}
    derived: dict[str, tuple[int, int]] = {}
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        node = tree.nodes[nid]
        span = assigned[nid]
        if node.terminals != span:
            raise ValueError(f"tree corrupted: node {nid} spans {node.terminals}, derived {span}")
        if node.kind == "leaf":
            derived[node.edge_id] = span
            continue
        if node.kind == "series":
            assigned[node.left] = (span[0], node.join)
            assigned[node.right] = (node.join, span[1])
        else:
            assigned[node.left] = span
            assigned[node.right] = span
        stack.append(node.left)
        stack.append(node.right)
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
