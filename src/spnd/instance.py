"""Problem instance model and the line-oriented instance file format.

An instance file is parsed into a :class:`ProblemInstance`: an undirected
multigraph with per-edge purchase costs and capacities, a source/sink pair,
and exactly one objective (a purchase budget or a flow demand). Upgradable
edges (``upedge`` lines) carry a menu of cost/capacity choices and are
expanded into plain edges by :mod:`spnd.extensions`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import ParseError

# Edge ids must stay free of the separators used by the CLI output and the
# file format itself (commas, whitespace, '#').
_ID_RE = re.compile(r"^[A-Za-z0-9_.:-]+$")


@dataclass(frozen=True)
class EdgeRecord:
    """A purchasable undirected edge: buy all of it or none of it."""

    id: str
    u: int
    v: int
    cost: int
    capacity: int


@dataclass(frozen=True)
class UpgradeRecord:
    """An upgradable edge: at most one of ``choices`` (cost, capacity) applies."""

    id: str
    u: int
    v: int
    choices: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MultiGraph:
    """Undirected multigraph on vertices ``0..vertex_count-1``.

    Parallel edges are allowed, self-loops are not. ``declared_terminals``
    optionally pins the terminal pair used for the series-parallel
    decomposition.
    """

    vertex_count: int
    edges: tuple[EdgeRecord, ...]
    source: int
    sink: int
    declared_terminals: tuple[int, int] | None = None

    def __post_init__(self):
        ids = set()
        for e in self.edges:
            if e.id in ids:
                raise ValueError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def edge_by_id(self, edge_id: str) -> EdgeRecord:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"unknown edge id {edge_id!r}")

    def edge_map(self) -> dict[str, EdgeRecord]:
        return {e.id: e for e in self.edges}

    def total_cost(self) -> int:
        return sum(e.cost for e in self.edges)


@dataclass(frozen=True)
class ProblemInstance:
    """A graph plus exactly one objective: budget (maximize flow) or demand

    (minimize cost). ``upgrades`` holds not-yet-expanded upgradable edges."""

    graph: MultiGraph
    budget: int | None = None
    demand: int | None = None
    upgrades: tuple[UpgradeRecord, ...] = ()

    def __post_init__(self):
        if (self.budget is None) == (self.demand is None):
            raise ValueError("exactly one of budget/demand must be set")

    @property
    def problem(self) -> str:
        return "bcmfp" if self.budget is not None else "capndp"

    def with_budget(self, budget: int) -> "ProblemInstance":
        return replace(self, budget=budget, demand=None)

    def with_demand(self, demand: int) -> "ProblemInstance":
        return replace(self, budget=None, demand=demand)


@dataclass(frozen=True)
class Solution:
    """A purchased edge set with its exact cost and exact max source-sink flow."""

    purchased: frozenset[str]
    total_cost: int
    achieved_flow: int


def infinity_sentinel(graph: MultiGraph) -> int:
    """Cost value standing in for 'infeasible': above any purchasable cost."""
    return graph.total_cost() + 1


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"{what}: expected an integer, got {token!r}") from None
    if value < 0:
        raise ParseError(lineno, f"{what}: negative numbers are not allowed ({value})")
    return value


def parse_instance(text: str) -> ProblemInstance:
    """Parse the line-oriented instance format.

    Directives (one per line, '#' starts a comment):
      graph <n>
      terminals <a> <b>          (optional)
      source <s>
      sink <t>
      edge <id> <u> <v> <cost> <capacity>
      upedge <id> <u> <v> <k> <c1> <u1> ... <ck> <uk>
      budget <B> | demand <D>    (exactly one)
    """
    n = None
    n_line = 0
    terminals = None
    source = None
    sink = None
    budget = None
    demand = None
    edges: list[tuple[int, EdgeRecord]] = []
    upgrades: list[tuple[int, UpgradeRecord]] = []
    seen_ids: dict[str, int] = {}

    def check_id(token: str, lineno: int) -> str:
        if not _ID_RE.match(token):
            raise ParseError(lineno, f"invalid edge id {token!r}")
        if token in seen_ids:
            raise ParseError(lineno, f"duplicate edge id {token!r} (first on line {seen_ids[token]})")
        seen_ids[token] = lineno
        return token

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "graph":
            if n is not None:
                raise ParseError(lineno, "duplicate graph line")
            if len(args) != 1:
                raise ParseError(lineno, "graph takes one argument")
            n = _parse_int(args[0], lineno, "vertex count")
            n_line = lineno
        elif directive == "terminals":
            if terminals is not None:
                raise ParseError(lineno, "duplicate terminals line")
            if len(args) != 2:
                raise ParseError(lineno, "terminals takes two arguments")
            terminals = (
                _parse_int(args[0], lineno, "terminal"),
                _parse_int(args[1], lineno, "terminal"),
            )
            if terminals[0] == terminals[1]:
                raise ParseError(lineno, "terminals must be distinct")
        elif directive == "source":
            if source is not None:
                raise ParseError(lineno, "duplicate source line")
            if len(args) != 1:
                raise ParseError(lineno, "source takes one argument")
            source = _parse_int(args[0], lineno, "source")
        elif directive == "sink":
            if sink is not None:
                raise ParseError(lineno, "duplicate sink line")
            if len(args) != 1:
                raise ParseError(lineno, "sink takes one argument")
            sink = _parse_int(args[0], lineno, "sink")
        elif directive == "edge":
            if len(args) != 5:
                raise ParseError(lineno, "edge takes: id u v cost capacity")
            eid = check_id(args[0], lineno)
            u = _parse_int(args[1], lineno, "endpoint")
            v = _parse_int(args[2], lineno, "endpoint")
            if u == v:
                raise ParseError(lineno, f"self-loop on vertex {u} is not allowed")
            cost = _parse_int(args[3], lineno, "cost")
            cap = _parse_int(args[4], lineno, "capacity")
            edges.append((lineno, EdgeRecord(eid, u, v, cost, cap)))
        elif directive == "upedge":
            if len(args) < 4:
                raise ParseError(lineno, "upedge takes: id u v k c1 u1 ... ck uk")
            eid = check_id(args[0], lineno)
            u = _parse_int(args[1], lineno, "endpoint")
            v = _parse_int(args[2], lineno, "endpoint")
            if u == v:
                raise ParseError(lineno, f"self-loop on vertex {u} is not allowed")
            k = _parse_int(args[3], lineno, "choice count")
            if k < 1:
                raise ParseError(lineno, "upedge needs at least one choice")
            if len(args) != 4 + 2 * k:
                raise ParseError(lineno, f"upedge with k={k} needs {2 * k} cost/capacity values")
            choices = tuple(
                (
                    _parse_int(args[4 + 2 * i], lineno, "choice cost"),
                    _parse_int(args[5 + 2 * i], lineno, "choice capacity"),
                )
                for i in range(k)
            )
            upgrades.append((lineno, UpgradeRecord(eid, u, v, choices)))
        elif directive == "budget":
            if budget is not None or demand is not None:
                raise ParseError(lineno, "only one budget/demand line is allowed")
            if len(args) != 1:
                raise ParseError(lineno, "budget takes one argument")
            budget = _parse_int(args[0], lineno, "budget")
        elif directive == "demand":
            if budget is not None or demand is not None:
                raise ParseError(lineno, "only one budget/demand line is allowed")
            if len(args) != 1:
                raise ParseError(lineno, "demand takes one argument")
            demand = _parse_int(args[0], lineno, "demand")
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")

    if n is None:
        raise ParseError(0, "missing graph line")
    if source is None:
        raise ParseError(0, "missing source line")
    if sink is None:
        raise ParseError(0, "missing sink line")
    if budget is None and demand is None:
        raise ParseError(0, "missing budget or demand line")

    def check_vertex(value: int, lineno: int, what: str) -> None:
        if value >= n:
            raise ParseError(lineno, f"{what} {value} out of range [0, {n}) (graph line {n_line})")

    for lineno, e in edges:
        check_vertex(e.u, lineno, "endpoint")
        check_vertex(e.v, lineno, "endpoint")
    for lineno, up in upgrades:
        check_vertex(up.u, lineno, "endpoint")
        check_vertex(up.v, lineno, "endpoint")
    if terminals is not None:
        check_vertex(terminals[0], 0, "terminal")
        check_vertex(terminals[1], 0, "terminal")
    check_vertex(source, 0, "source")
    check_vertex(sink, 0, "sink")
    if source == sink:
        raise ParseError(0, "source and sink must be distinct")

    graph = MultiGraph(
        vertex_count=n,
        edges=tuple(e for _, e in edges),
        source=source,
        sink=sink,
        declared_terminals=terminals,
    )
    return ProblemInstance(
        graph=graph,
        budget=budget,
        demand=demand,
        upgrades=tuple(up for _, up in upgrades),
    )


def format_instance(instance: ProblemInstance) -> str:
    """Serialize back to the file format. Deterministic, round-trips parse."""
    g = instance.graph
    lines = [f"graph {g.vertex_count}"]
    if g.declared_terminals is not None:
        lines.append(f"terminals {g.declared_terminals[0]} {g.declared_terminals[1]}")
    lines.append(f"source {g.source}")
    lines.append(f"sink {g.sink}")
    for e in g.edges:
        lines.append(f"edge {e.id} {e.u} {e.v} {e.cost} {e.capacity}")
    for up in instance.upgrades:
        menu = " ".join(f"{c} {u}" for c, u in up.choices)
        lines.append(f"upedge {up.id} {up.u} {up.v} {len(up.choices)} {menu}")
    if instance.budget is not None:
        lines.append(f"budget {instance.budget}")
    else:
        lines.append(f"demand {instance.demand}")
    return "\n".join(lines) + "\n"


def purchased_edges(graph: MultiGraph, ids: Iterable[str]) -> list[EdgeRecord]:
    """Resolve edge ids against the graph, rejecting unknown ids."""
    by_id = graph.edge_map()
    out = []
    for eid in ids:
        if eid not in by_id:
            raise KeyError(f"unknown edge id {eid!r}")
        out.append(by_id[eid])
    return out
