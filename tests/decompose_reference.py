"""Quadratic reference for the series-parallel reduction: every step rescans

all live super-edges, rebuilding the parallel classes and vertex degrees
from scratch, then applies the parallel merge with the smallest key pair,
else the degree-2 contraction with the smallest (key pair, vertex). It is
an independent statement of the reduction order that the worklist
``_Builder`` in ``spnd.decompose`` must reproduce node for node.

``reference_decompose`` searches undeclared terminals by walking every
vertex pair (degree-1 endpoint pairs first) and keeping the first that
reduces. ``spnd.decompose`` runs at most two reductions instead: it agrees
with the walk whenever the first pair reduces, and otherwise with the walk
run on the graph with the terminals it found declared."""

from typing import Iterator

from spnd.decompose import (
    DecompNode,
    DecompTree,
    ReductionWitness,
    _annotate_specials,
    _connected,
    _leaf_edge_ids,
)
from spnd.errors import NotSeriesParallelError
from spnd.instance import MultiGraph


class ReferenceBuilder:
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
    """The declared pair alone, else every pair of degree-1 vertices, then

    every other vertex pair, each in lexicographic order."""
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


def reference_decompose(graph: MultiGraph) -> DecompTree:
    """The all-pairs terminal walk with every attempt run by the reference

    and no unprotected pass: an acceptance keeps the first pair that
    reduces, and a rejection tries every pair."""
    if graph.edge_count == 0:
        raise NotSeriesParallelError("graph has no edges")
    if graph.vertex_count > graph.edge_count + 1 or not _connected(graph):
        raise NotSeriesParallelError("graph is disconnected")
    tried = []
    best_witness = None
    for pair in _candidate_pairs(graph):
        tried.append(pair)
        builder = ReferenceBuilder(graph, pair)
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


def reference_tree_text(tree: DecompTree) -> str:
    """The parenthesized form, rendered children first into a dict of every

    subtree's string: an independent statement of ``tree_text``'s output."""
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
