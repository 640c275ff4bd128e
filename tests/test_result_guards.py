"""Result re-checks: a solver whose purchase fails its own re-check raises.

The checks are explicit ``raise`` statements, not ``assert``s, so they also
hold under ``python -O``; one case runs in such a subprocess.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import spnd.dp
from spnd import (
    LatticeSpec,
    build_table,
    decompose,
    expand_upgrades,
    map_back,
    parse_instance,
    solution_from_edges,
    solve_bcmfp,
    solve_capndp,
    solve_lattice_detailed,
    upper_bound_flow,
)
from spnd.fptas import fptas_bcmfp_detailed
from conftest import DIAMOND_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"


def _inflated(real):
    """A stand-in for ``solution_from_edges`` that overstates the cost."""

    def fake(instance, edges):
        solution = real(instance, edges)
        return replace(solution, total_cost=solution.total_cost + 1)

    return fake


def _wide(instance):
    """The instance with every capacity times 100: its flow bound F = 300
    on the diamond puts eps = 1/2 past the exact regime (F <= R = 18)."""
    edges = tuple(replace(e, capacity=100 * e.capacity) for e in instance.graph.edges)
    return replace(instance, graph=replace(instance.graph, edges=edges))


def _table(instance):
    """A full table of the instance's graph, of its own: no answer kept by
    another solve's table can stand in for a re-check."""
    return build_table(decompose(instance.graph), upper_bound_flow(instance))


def _fptas(instance, budget, exact):
    outcome = fptas_bcmfp_detailed(_wide(instance).with_budget(budget), "1/2")
    assert outcome.exact == exact
    return outcome


# Every solver, the lattice path and the FPTAS included, re-checks in
# ``spnd.dp``.
CASES = {
    "capndp": lambda inst: solve_capndp(inst),
    "bcmfp": lambda inst: solve_bcmfp(inst.with_budget(5)),
    "capndp-table": lambda inst: solve_capndp(inst, table=_table(inst)),
    "bcmfp-table": lambda inst: solve_bcmfp(inst.with_budget(5), table=_table(inst)),
    "lattice": lambda inst: solve_lattice_detailed(inst, LatticeSpec((1,), 2)),
    "lattice-budget": lambda inst: solve_lattice_detailed(inst.with_budget(5), LatticeSpec((1,), 2)),
    # The ladder's witness, re-checked against the chosen level M'.
    "fptas": lambda inst: _fptas(inst, 5, exact=False),
    # A budget of 1 buys no path: OPT = 0 is settled without a probe.
    "fptas-exact": lambda inst: _fptas(inst, 1, exact=True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_inconsistent_recheck_raises(case, diamond, monkeypatch):
    solve = CASES[case]
    solve(diamond)  # consistent without the patch
    monkeypatch.setattr(spnd.dp, "solution_from_edges", _inflated(spnd.dp.solution_from_edges))
    with pytest.raises(RuntimeError, match="re-check"):
        solve(diamond)


def test_failed_recheck_is_not_kept(diamond, monkeypatch):
    # A table keeps a flow value's answer only once its re-check passes: a
    # failed one raises at every solve that lands there, and the table
    # answers as an untabled solve does once the purchase checks out.
    table, by_demand, by_budget = _table(diamond), diamond.with_demand(2), diamond.with_budget(2)
    monkeypatch.setattr(spnd.dp, "solution_from_edges", _inflated(spnd.dp.solution_from_edges))
    with pytest.raises(RuntimeError, match="re-check"):
        solve_capndp(by_demand, table=table)
    with pytest.raises(RuntimeError, match="re-check"):
        solve_bcmfp(by_budget, table=table)
    monkeypatch.undo()
    answer = solve_capndp(by_demand, table=table)
    assert answer == solve_capndp(by_demand)
    assert answer.achieved_flow == 2  # the flow value both solves land on
    assert solve_bcmfp(by_budget, table=table) == solve_bcmfp(by_budget) == answer


def test_map_back_rejects_overstated_solution():
    inst = parse_instance("graph 2\nsource 0\nsink 1\nupedge g1 0 1 2 4 10 7 20\nbudget 7\n")
    expanded, gmap = expand_upgrades(inst)
    g = gmap.gadget("g1")
    sol = solution_from_edges(expanded, set(g.guard_edge_ids) | {g.choice_edge_ids[1]})
    map_back(sol, gmap)
    with pytest.raises(RuntimeError, match="inconsistent"):
        map_back(replace(sol, achieved_flow=sol.achieved_flow + 1), gmap)


def test_recheck_raises_under_optimize():
    script = f"""
import spnd.dp
from dataclasses import replace
from spnd import parse_instance, solve_capndp
assert False, "asserts are stripped under -O"
real = spnd.dp.solution_from_edges
spnd.dp.solution_from_edges = lambda i, e: replace(real(i, e), total_cost=real(i, e).total_cost + 1)
try:
    solve_capndp(parse_instance({DIAMOND_TEXT!r}))
except RuntimeError as exc:
    print("raised", exc)
"""
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("raised re-check"), done.stdout
