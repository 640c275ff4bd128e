"""Spans and counts recorded around the public functions of each spnd module.

Nothing inside the package is changed: a :class:`Tracer` replaces the module
attributes through which the package (and the benchmark) call each layer
with a wrapper that records a span, and puts the originals back on
:meth:`Tracer.uninstall`. A span is ``(name, start, end, parent, op)``;
``parent`` is the index of the enclosing span (-1 for none) and ``op`` the
index of the benchmark operation that caused it. Spans stay in memory until
:meth:`Tracer.write_spans`.

Besides spans the tracer keeps exact counts taken at the same boundaries
(DP states, probe ladder size, rejected decompositions); they repeat
exactly for a given input, so a run can compare them with an earlier one.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# Layer name -> attributes (module path, attribute) the package calls it through.
LAYERS = {
    "instance.parse": [("spnd", "parse_instance")],
    "decompose": [
        ("spnd", "decompose"),
        ("spnd.dp", "decompose"),
        ("spnd.fptas", "decompose"),
        ("spnd.extensions", "decompose"),
    ],
    "flow.max_flow": [
        ("spnd.flow", "max_flow"),
        ("spnd.dp", "max_flow"),
        ("spnd.extensions", "max_flow"),
    ],
    "flow.recheck": [
        ("spnd", "solution_from_edges"),
        ("spnd.dp", "solution_from_edges"),
        ("spnd.fptas", "solution_from_edges"),
        ("spnd.extensions", "solution_from_edges"),
    ],
    "dp.build": [
        ("spnd", "build_table"),
        ("spnd.dp", "build_table"),
        ("spnd.extensions", "build_table"),
    ],
    "dp.query": [("spnd.dp", "DPTable.query_cost")],
    "dp.reconstruct": [("spnd.dp", "DPTable.reconstruct")],
    "fptas.ladder": [("spnd", "fptas_bcmfp_detailed")],
    "fptas.probe": [("spnd.fptas", "feasible_detailed")],
    "extensions.lattice_residues": [("spnd.extensions", "lattice_residues")],
    "extensions.expand": [("spnd", "expand_upgrades")],
    "extensions.map_back": [("spnd", "map_back")],
}

def _resolve(module_path: str, attr: str):
    """The object holding ``attr`` (a module, or a class in it) and its last name."""
    owner = importlib.import_module(module_path)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _table_bytes(table) -> int:
    """Computed bytes of a built table: every node's cost and split arrays."""
    total = 0
    for nt in table.tables.values():
        total += nt.cost.nbytes
        if nt.split is not None:
            total += nt.split.nbytes
    return total


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.build_bytes_max = 0
        self.pinned_build_s = 0.0
        self.op = -1
        self.enabled = True
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- installing wrappers ------------------------------------------------

    def install(self) -> None:
        for layer, sites in LAYERS.items():
            for module_path, dotted in sites:
                owner, attr = _resolve(module_path, dotted)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, fn):
        after = _AFTER.get(layer)

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(index)
                if layer == "decompose":
                    self.counts["decompose.rejected"] += 1
                    self.counts["decompose.pairs_tried"] += len(getattr(exc, "tried_pairs", ()))
                raise
            self.close(index)
            if after is not None:
                after(self, index, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        self.counts[name + ".calls"] += 1
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def layer_times(self) -> dict[str, tuple[float, float]]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the time its direct children
        cover; spans are nested and sequential, so that is a plain sum."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[i]
        return {name: (total[name], self_time[name]) for name in total}

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start, end, parent, op]."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op"]) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


# -- exact counts taken after a layer returns -----------------------------------


def _after_build(tracer: Tracer, index: int, args, kwargs, table) -> None:
    tracer.counts["dp.states"] += table.state_count
    tracer.build_bytes_max = max(tracer.build_bytes_max, _table_bytes(table))
    if kwargs.get("pin") is not None:
        _, start, end, _, _ = tracer.spans[index]
        tracer.pinned_build_s += end - start


def _after_ladder(tracer: Tracer, index: int, args, kwargs, outcome) -> None:
    tracer.counts["fptas.runs"] += 1
    tracer.counts["fptas.exact_runs"] += int(outcome.exact)
    tracer.counts["fptas.probes"] += len(outcome.probes)
    tracer.counts["fptas.probe_states"] += sum(p.states for p in outcome.probes)


def _after_lattice(tracer: Tracer, index: int, args, kwargs, residues) -> None:
    f_bound = args[2]
    tracer.counts["extensions.lattice_residues"] += len(residues)
    tracer.counts["extensions.full_domain"] += 2 * f_bound + 1


_AFTER = {
    "dp.build": _after_build,
    "fptas.ladder": _after_ladder,
    "extensions.lattice_residues": _after_lattice,
}
