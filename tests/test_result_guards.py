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
    expand_upgrades,
    map_back,
    parse_instance,
    solution_from_edges,
    solve_bcmfp,
    solve_capndp,
    solve_lattice_detailed,
)
from conftest import DIAMOND_TEXT

SRC = Path(__file__).resolve().parent.parent / "src"


def _inflated(real):
    """A stand-in for ``solution_from_edges`` that overstates the cost."""

    def fake(instance, edges):
        solution = real(instance, edges)
        return replace(solution, total_cost=solution.total_cost + 1)

    return fake


# Every solver, the lattice path included, re-checks in ``spnd.dp``.
CASES = {
    "capndp": lambda inst: solve_capndp(inst),
    "bcmfp": lambda inst: solve_bcmfp(inst.with_budget(5)),
    "lattice": lambda inst: solve_lattice_detailed(inst, LatticeSpec((1,), 2)),
    "lattice-budget": lambda inst: solve_lattice_detailed(inst.with_budget(5), LatticeSpec((1,), 2)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_inconsistent_recheck_raises(case, diamond, monkeypatch):
    solve = CASES[case]
    solve(diamond)  # consistent without the patch
    monkeypatch.setattr(spnd.dp, "solution_from_edges", _inflated(spnd.dp.solution_from_edges))
    with pytest.raises(RuntimeError, match="re-check"):
        solve(diamond)


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
