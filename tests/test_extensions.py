"""Lattice-restricted residue domains and edge-upgrade gadgets."""

import random
import tracemalloc
import warnings
from itertools import product

import pytest
from hypothesis import assume, given, strategies as st

from spnd import (
    EdgeRecord,
    InfeasibleError,
    LatticeSpec,
    MultiGraph,
    ProblemInstance,
    UpgradeRecord,
    build_table,
    decompose,
    expand_upgrades,
    fptas_bcmfp,
    generate_sp,
    map_back,
    oracle_bcmfp,
    oracle_capndp,
    parse_instance,
    solution_from_edges,
    solve_bcmfp,
    solve_capndp,
    solve_lattice,
    solve_lattice_detailed,
    solve_with_upgrades,
    subset_profiles,
    upper_bound_flow,
)
from spnd import dp as dp_module, extensions as extensions_module
from spnd.dp import ResidueDomain
from spnd.extensions import lattice_residues, normalize_menu, validate_lattice
from lattice_reference import reference_lattice_residues, reference_unrepresentable
from sp_strategies import with_capacities


# -- lattice residues --------------------------------------------------------


def test_lattice_residue_examples():
    got = lattice_residues(LatticeSpec((5,), 3), m=2, f_bound=100)
    assert got.tolist() == list(range(-60, 61, 5))
    assert len(got) == 25

    assert lattice_residues(LatticeSpec((0,), 4), m=3, f_bound=10).tolist() == [0]

    got2 = lattice_residues(LatticeSpec((2, 3), 1), m=1, f_bound=5)
    assert got2.tolist() == [-5, -3, -2, -1, 0, 1, 2, 3, 5]


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec((), 1)
    with pytest.raises(ValueError):
        LatticeSpec((-2,), 1)
    with pytest.raises(ValueError):
        LatticeSpec((2,), 0)


# Basis values 0-60, plus 1000 and 1001: with small coefficients their
# lattice is sparse, not a multiple of the gcd.
_SPECS = st.builds(
    LatticeSpec,
    st.lists(st.integers(0, 60) | st.sampled_from((1000, 1001)), min_size=1, max_size=3).map(tuple),
    st.integers(1, 3),
)


@given(_SPECS, st.integers(1, 4), st.integers(0, 5000))
def test_lattice_residues_match_enumeration(spec, m, f_bound):
    # The reference enumerates every combination; keep it affordable.
    assume((2 * m * m * spec.bound + 1) ** len(spec.basis) <= 3_000_000)
    got = lattice_residues(spec, m, f_bound)
    want = reference_lattice_residues(spec, m, f_bound)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def _lattice_graphs(draw):
    """A spec and parallel edges whose capacities are drawn near the lattice:

    coefficients one past the bound, or any small integer."""
    spec = draw(_SPECS)
    reach = st.lists(st.integers(-spec.bound - 1, spec.bound + 1), min_size=3, max_size=3)
    near = reach.map(lambda c: abs(sum(a * d for a, d in zip(c, spec.basis))))
    capacities = draw(st.lists(near | st.integers(0, 5000), min_size=1, max_size=6))
    edges = tuple(EdgeRecord(f"e{i}", 0, 1, 1, cap) for i, cap in enumerate(capacities))
    return MultiGraph(2, edges, 0, 1), spec


@given(_lattice_graphs())
def test_validate_lattice_matches_enumeration(case):
    graph, spec = case
    bad = reference_unrepresentable(graph, spec)
    if not bad:
        validate_lattice(graph, spec)
        return
    with pytest.raises(ValueError) as err:
        validate_lattice(graph, spec)
    assert str(err.value).endswith(": " + ", ".join(f"{e.id}={e.capacity}" for e in bad[:5]))


def test_lattice_residues_past_the_enumeration():
    # 20001^2 = 4 * 10^8 combinations at m = 100; the points are found from
    # the 20001 values of the second coefficient alone.
    a = 100 * 100
    want = sorted(
        {
            v
            for b in range(-a, a + 1)
            for c in range(-(1001 * b) // 1000 - 6, -(1001 * b) // 1000 + 7)
            if abs(c) <= a and abs(v := 1000 * c + 1001 * b) <= 5000
        }
    )
    assert lattice_residues(LatticeSpec((1000, 1001), 1), m=100, f_bound=5000).tolist() == want
    got = lattice_residues(LatticeSpec((1, 10**5, 10**5), 1), m=10, f_bound=150)
    assert got.tolist() == list(range(-100, 101))


def test_lattice_residues_memory_is_bounded_by_input_and_output():
    spec = LatticeSpec((3, 5, 7), 2)
    tracemalloc.start()
    try:
        got = lattice_residues(spec, m=12, f_bound=150)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tolist() == list(range(-150, 151))
    assert peak < 1_000_000, peak


def test_validate_lattice(diamond):
    validate_lattice(diamond.graph, LatticeSpec((1,), 2))
    with pytest.raises(ValueError) as err:
        validate_lattice(diamond.graph, LatticeSpec((2,), 1))
    assert "e3=1" in str(err.value)


# -- lattice solving ---------------------------------------------------------


def test_lattice_solve_matches_unrestricted_on_diamond(diamond):
    spec = LatticeSpec((1,), 2)
    inst = diamond.with_demand(3)
    restricted = solve_lattice(inst, spec)
    unrestricted = solve_capndp(inst)
    assert restricted.total_cost == unrestricted.total_cost == 5
    assert restricted.achieved_flow == unrestricted.achieved_flow


def test_lattice_rejects_demand_above_f_before_building(diamond, monkeypatch):
    inst = diamond.with_demand(4)  # F = 3
    with pytest.raises(InfeasibleError) as want:
        solve_capndp(inst)

    def no_build(*args, **kwargs):
        raise AssertionError("built a lattice table for a demand above F")

    # Every lattice build is made by dp._Builder: with that patch alone a
    # feasible demand fails, so the patch sits on the path it guards.
    monkeypatch.setattr(dp_module, "_Builder", no_build)
    with pytest.raises(AssertionError, match="built a lattice table"):
        solve_lattice(diamond.with_demand(3), LatticeSpec((1,), 2))
    monkeypatch.setattr(extensions_module, "lattice_residues", no_build)
    with pytest.raises(InfeasibleError) as got:
        solve_lattice(inst, LatticeSpec((1,), 2))
    assert str(got.value) == str(want.value)


def test_lattice_solve_on_rescaled_capacities(diamond):
    inst = with_capacities(diamond, {"e1": 2, "e2": 2, "e3": 2}).with_demand(2)
    spec = LatticeSpec((2,), 1)
    assert solve_lattice(inst, spec).total_cost == solve_capndp(inst).total_cost


def test_vacuous_lattice_has_identical_states(diamond):
    # Basis (1) with a large enough bound covers every integer in range, so
    # nothing is pruned and the state counts must agree exactly.
    inst = diamond.with_budget(4)
    outcome = solve_lattice_detailed(inst, LatticeSpec((1,), 6))
    tree = decompose(inst.graph)
    full = build_table(tree, upper_bound_flow(inst), pin=outcome.table.pin)
    assert outcome.table.state_count == full.state_count
    assert outcome.solution.achieved_flow == solve_bcmfp(inst).achieved_flow


def test_proper_lattice_prunes_states():
    inst = parse_instance(
        "graph 3\nsource 0\nsink 2\n"
        "edge e1 0 1 1 5\nedge e2 1 2 1 5\nedge e3 0 2 3 5\n"
        "budget 5\n"
    )
    spec = LatticeSpec((5,), 1)
    outcome = solve_lattice_detailed(inst, spec)
    tree = decompose(inst.graph)
    full = build_table(tree, upper_bound_flow(inst), pin=outcome.table.pin)
    assert outcome.table.state_count < full.state_count
    reference = solve_bcmfp(inst)
    assert outcome.solution.achieved_flow == reference.achieved_flow == 10
    assert outcome.solution.total_cost == reference.total_cost


def test_coprime_basis_keeps_its_gaps():
    # Basis (100, 101) has gcd 1, yet few integers within F are its points:
    # a table over every integer in [-F, F] would grow with the capacities,
    # the table over the lattice points does not.
    edges = "".join(f"edge e{i} 0 1 {i} 201\n" for i in (1, 2, 3))
    inst = parse_instance(f"graph 2\nsource 0\nsink 1\n{edges}budget 3\n")
    spec = LatticeSpec((100, 101), 1)
    f = upper_bound_flow(inst)
    points = lattice_residues(spec, inst.graph.edge_count, f)
    assert f == 603 and len(points) <= 361 < 2 * f + 1
    outcome = solve_lattice_detailed(inst, spec)
    table = outcome.table
    assert set(table.tables[table.tree.root].domain.values.tolist()) <= set(points.tolist())
    full = build_table(decompose(inst.graph), f, pin=table.pin)
    assert 3 * table.state_count < full.state_count
    assert outcome.solution == solve_bcmfp(inst)
    for b in range(inst.graph.total_cost() + 1):
        assert solve_lattice(inst.with_budget(b), spec) == solve_bcmfp(inst.with_budget(b)), b
    for d in (0, 1, 201, 202, 402, 403, 603):
        assert solve_lattice(inst.with_demand(d), spec) == solve_capndp(inst.with_demand(d)), d


def test_lattice_with_zero_basis_values(diamond):
    # An all-zero basis holds only capacity 0, so F = 0 and the only
    # answer is to buy nothing.
    closed = parse_instance("graph 2\nsource 0\nsink 1\nedge e1 0 1 3 0\ndemand 0\n")
    for basis in ((0,), (0, 2)):
        for inst in (closed, closed.with_budget(5)):
            sol = solve_lattice(inst, LatticeSpec(basis, 1))
            assert (sol.purchased, sol.total_cost, sol.achieved_flow) == (frozenset(), 0, 0), basis
    # A zero beside 2 adds nothing: every answer is the unrestricted one.
    doubled = with_capacities(diamond, {"e1": 4, "e2": 4, "e3": 2})
    spec = LatticeSpec((0, 2), 2)
    for d in range(upper_bound_flow(doubled) + 1):
        inst = doubled.with_demand(d)
        assert solve_lattice(inst, spec) == solve_capndp(inst), d
    for b in range(doubled.graph.total_cost() + 1):
        inst = doubled.with_budget(b)
        assert solve_lattice(inst, spec) == solve_bcmfp(inst), b


def _lattice_instance(seed):
    """A generated instance whose capacities are redrawn from a small lattice."""
    base = generate_sp(seed, edge_budget=6, cap_max=4)
    rng = random.Random(7000 + seed)
    k = rng.randint(1, 2)
    basis = tuple(sorted(rng.randint(1, 5) for _ in range(k)))
    bound = rng.randint(1, 5)
    spec = LatticeSpec(basis, bound)
    caps = {}
    for e in base.graph.edges:
        for _ in range(40):
            val = sum(rng.randint(-bound, bound) * d for d in basis)
            if 1 <= val <= 12:
                caps[e.id] = val
                break
        else:
            caps[e.id] = basis[0]
    inst = with_capacities(base, caps)
    if seed % 2:
        inst = inst.with_budget(rng.randint(0, inst.graph.total_cost()))
    else:
        inst = inst.with_demand(rng.randint(0, upper_bound_flow(inst)))
    return inst, spec


@pytest.mark.parametrize("seed", range(1, 41))
def test_lattice_solve_equals_unrestricted(seed):
    inst, spec = _lattice_instance(seed)
    validate_lattice(inst.graph, spec)
    outcome = solve_lattice_detailed(inst, spec)
    if inst.problem == "bcmfp":
        reference = solve_bcmfp(inst)
        assert outcome.solution.achieved_flow == reference.achieved_flow, f"seed {seed}"
    else:
        reference = solve_capndp(inst)
        assert outcome.solution.total_cost == reference.total_cost, f"seed {seed}"

    f = upper_bound_flow(inst)
    allowed = lattice_residues(spec, inst.graph.edge_count, f)
    tree = decompose(inst.graph)
    full = build_table(tree, f)
    at_pin = build_table(tree, f, pin=outcome.table.pin)
    if len(allowed) < 2 * f + 1:
        assert outcome.table.state_count < at_pin.state_count, f"seed {seed}"
    else:
        assert outcome.table.state_count == at_pin.state_count, f"seed {seed}"

    # The lattice path answers a demand D from the least lattice value >= D
    # and a budget by binary search, which needs the root cost nondecreasing
    # in the flow value; D need not be a lattice point.
    lattice = dp_module._Builder(tree, f, ResidueDomain.explicit(allowed)).build(None)
    costs = [lattice.query_cost(v) for v in allowed.tolist() if v >= 0]
    assert costs == sorted(costs), f"seed {seed}"
    for d in range(f + 2):
        demand = inst.with_demand(d)
        lattice = _outcome(solve_lattice, demand, spec, tree=tree)
        unrestricted = _outcome(solve_capndp, demand, tree=tree, table=full)
        assert lattice[0] == unrestricted[0], f"seed {seed} demand {d}"
    for b in range(inst.graph.total_cost() + 1):
        budget = inst.with_budget(b)
        lattice = _outcome(solve_lattice, budget, spec, tree=tree)
        unrestricted = _outcome(solve_bcmfp, budget, tree=tree, table=full)
        assert lattice == unrestricted, f"seed {seed} budget {b}"


def _outcome(solve, *args, **kwargs):
    """Cost and flow of a solve, or the type and message of its error."""
    try:
        sol = solve(*args, **kwargs)
    except InfeasibleError as exc:
        return type(exc), str(exc)
    return sol.total_cost, sol.achieved_flow


# -- upgrade menus and gadgets ------------------------------------------------


def test_normalize_menu_sorts_and_deduplicates():
    assert normalize_menu("g", [(7, 20), (4, 10)]) == ((4, 10), (7, 20))
    with pytest.warns(RuntimeWarning):
        kept = normalize_menu("g", [(5, 10), (4, 10)])
    assert kept == ((4, 10),)
    with pytest.warns(RuntimeWarning):
        kept2 = normalize_menu("g", [(4, 10), (5, 10), (7, 20)])
    assert kept2 == ((4, 10), (7, 20))


def _upgrade_only_instance(menu, budget):
    text_choices = " ".join(f"{c} {u}" for c, u in menu)
    return parse_instance(
        f"graph 2\nsource 0\nsink 1\nupedge g1 0 1 {len(menu)} {text_choices}\nbudget {budget}\n"
    )


def test_two_choice_gadget_shape():
    inst = _upgrade_only_instance([(4, 10), (7, 20)], budget=7)
    expanded, gmap = expand_upgrades(inst)
    g = expanded.graph
    assert g.edge_count == 4
    assert g.vertex_count == 4
    guards = [g.edge_by_id(eid) for eid in gmap.gadget("g1").guard_edge_ids]
    assert [(e.cost, e.capacity) for e in guards] == [(0, 20), (0, 20)]
    choices = [g.edge_by_id(eid) for eid in gmap.gadget("g1").choice_edge_ids]
    assert [(e.cost, e.capacity) for e in choices] == [(4, 10), (7, 20)]
    decompose(g)  # must stay series-parallel


def test_single_choice_becomes_plain_edge():
    inst = _upgrade_only_instance([(3, 9)], budget=3)
    expanded, gmap = expand_upgrades(inst)
    assert expanded.graph.edge_count == 1
    assert expanded.graph.vertex_count == 2
    edge = expanded.graph.edges[0]
    assert (edge.cost, edge.capacity) == (3, 9)
    assert gmap.gadget("g1").guard_edge_ids == ()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_gadget_size_formula(k):
    menu = [(i, 2 * i) for i in range(1, k + 1)]
    inst = _upgrade_only_instance(menu, budget=sum(c for c, _ in menu))
    expanded, _ = expand_upgrades(inst)
    assert expanded.graph.edge_count == 3 * k - 2
    assert expanded.graph.vertex_count == 2 * k
    decompose(expanded.graph)


def test_map_back_reads_choices():
    inst = _upgrade_only_instance([(4, 10), (7, 20)], budget=11)
    expanded, gmap = expand_upgrades(inst)
    g = gmap.gadget("g1")

    sol = solution_from_edges(expanded, set(g.guard_edge_ids) | {g.choice_edge_ids[1]})
    plan = map_back(sol, gmap)
    assert plan.choices == {"g1": 2}
    assert plan.interpreted_cost == 7
    assert plan.interpreted_flow == 20

    # Paying for both choices is wasteful but interpretable: the larger one
    # carries the whole 20 units through the guards.
    both = solution_from_edges(
        expanded, set(g.guard_edge_ids) | set(g.choice_edge_ids)
    )
    assert both.achieved_flow == 20
    plan_both = map_back(both, gmap)
    assert plan_both.choices == {"g1": 2}
    assert plan_both.interpreted_cost == 7

    plan_none = map_back(solution_from_edges(expanded, set()), gmap)
    assert plan_none.choices == {"g1": 0}
    assert plan_none.interpreted_flow == 0


def test_map_back_normalizes_missing_guards():
    inst = _upgrade_only_instance([(4, 10), (7, 20)], budget=7)
    expanded, gmap = expand_upgrades(inst)
    g = gmap.gadget("g1")
    orphan = solution_from_edges(expanded, {g.choice_edge_ids[1]})
    assert orphan.achieved_flow == 0
    plan = map_back(orphan, gmap)
    assert plan.choices == {"g1": 2}
    assert set(g.guard_edge_ids) <= set(plan.normalized_purchased)
    assert plan.interpreted_flow == 20


@pytest.mark.parametrize("seed", range(1, 26))
def test_single_gadget_equals_best_affordable_choice(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    menu = [(rng.randint(0, 20), rng.randint(1, 20)) for _ in range(k)]
    total = sum(c for c, _ in menu)
    for budget in range(total + 1):
        inst = _upgrade_only_instance(menu, budget)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol, plan, _ = solve_with_upgrades(inst)
        best = max([u for c, u in menu if c <= budget], default=0)
        assert sol.achieved_flow == best, f"seed {seed} budget {budget}"
        assert plan.interpreted_flow == best
        assert plan.interpreted_cost <= budget


def test_solve_with_upgrades_passthrough(diamond):
    inst = diamond.with_budget(5)
    sol, plan, gmap = solve_with_upgrades(inst)
    assert sol == solve_bcmfp(inst)
    assert plan.choices == {}
    assert gmap.gadgets == ()


def _mixed_upgrade_instance(seed, gadget_count):
    base = generate_sp(seed, edge_budget=5, cap_max=5)
    rng = random.Random(4000 + seed)
    edges = list(base.graph.edges)
    rng.shuffle(edges)
    converted = edges[:gadget_count]
    plain = edges[gadget_count:]
    upgrades = []
    for i, e in enumerate(converted):
        k = rng.randint(1, 3)
        menu = sorted(
            ((rng.randint(0, 8), rng.randint(1, 6)) for _ in range(k)),
            key=lambda cu: (cu[1], cu[0]),
        )
        dedup = {}
        for c, u in menu:
            dedup.setdefault(u, (c, u))
        menu = sorted(dedup.values(), key=lambda cu: (cu[1], cu[0]))
        upgrades.append(UpgradeRecord(f"u{i}", e.u, e.v, tuple(menu)))
    graph = MultiGraph(
        vertex_count=base.graph.vertex_count,
        edges=tuple(plain),
        source=base.graph.source,
        sink=base.graph.sink,
        declared_terminals=base.graph.declared_terminals,
    )
    richest = sum(c for up in upgrades for c, _ in up.choices) + sum(e.cost for e in plain)
    inst = ProblemInstance(
        graph=graph, budget=rng.randint(0, richest), demand=None, upgrades=tuple(upgrades)
    )
    return inst


def _choice_graphs(inst):
    """The graph with each menu replaced by one of its choices, or by

    nothing, in every combination."""
    options = [range(len(up.choices) + 1) for up in inst.upgrades]
    for combo in product(*options):
        edges = list(inst.graph.edges)
        for up, pick in zip(inst.upgrades, combo):
            if pick:
                c, u = up.choices[pick - 1]
                edges.append(EdgeRecord(f"{up.id}#chosen", up.u, up.v, c, u))
        yield MultiGraph(
            vertex_count=inst.graph.vertex_count,
            edges=tuple(edges),
            source=inst.graph.source,
            sink=inst.graph.sink,
        )


def _brute_force_over_choices(inst):
    """Optimal flow over every per-gadget single choice, via the oracle."""
    best = -1
    for graph in _choice_graphs(inst):
        flat = ProblemInstance(graph=graph, budget=inst.budget, demand=None, upgrades=())
        best = max(best, oracle_bcmfp(flat).achieved_flow)
    return best


@pytest.mark.parametrize("seed", range(1, 16))
def test_multi_gadget_end_to_end(seed):
    inst = _mixed_upgrade_instance(seed, gadget_count=2)
    sol, plan, _ = solve_with_upgrades(inst)
    expected = _brute_force_over_choices(inst)
    assert sol.achieved_flow == expected, f"seed {seed}"
    assert plan.interpreted_flow == expected
    assert plan.interpreted_cost <= inst.budget


def test_three_gadget_end_to_end():
    inst = _mixed_upgrade_instance(3, gadget_count=3)
    sol, plan, _ = solve_with_upgrades(inst)
    assert sol.achieved_flow == _brute_force_over_choices(inst)
    assert plan.interpreted_cost <= inst.budget


@pytest.mark.parametrize(
    ("seed", "gadget_count"), [(seed, 2) for seed in range(1, 16)] + [(3, 3)]
)
def test_multi_gadget_demands_match_the_best_menu_choice(seed, gadget_count):
    # Every demand in [0, F] costs what the cheapest purchase over every
    # combination of one choice (or none) per menu costs; F + 1 is infeasible.
    inst = _mixed_upgrade_instance(seed, gadget_count)
    profiles = [p for graph in _choice_graphs(inst) for p in subset_profiles(graph)]
    f = max(flow for _, flow in profiles)
    for demand in range(f + 1):
        sol, plan, _ = solve_with_upgrades(inst.with_demand(demand))
        best = min(cost for cost, flow in profiles if flow >= demand)
        assert (sol.total_cost, plan.interpreted_cost) == (best, best), f"seed {seed} demand {demand}"
        assert plan.interpreted_flow >= demand
    with pytest.raises(InfeasibleError):
        solve_with_upgrades(inst.with_demand(f + 1))


def test_capndp_with_upgrades():
    inst = _upgrade_only_instance([(4, 10), (7, 20)], budget=0).with_demand(15)
    sol, plan, _ = solve_with_upgrades(inst)
    assert plan.choices == {"g1": 2}
    assert sol.total_cost == 7
    with pytest.raises(InfeasibleError):
        solve_with_upgrades(inst.with_demand(21))


MENU_TEXT = "graph 2\nsource 0\nsink 1\nedge e1 0 1 5 1\nupedge u1 0 1 2 1 3 2 6\nbudget 3\n"


@pytest.mark.parametrize(
    "solve",
    [
        solve_bcmfp,
        lambda inst: fptas_bcmfp(inst, "1/2"),
        oracle_bcmfp,
        lambda inst: solve_lattice(inst, LatticeSpec((1,), 1)),
        lambda inst: solve_capndp(inst.with_demand(3)),
        lambda inst: oracle_capndp(inst.with_demand(3)),
    ],
    ids=["solve_bcmfp", "fptas_bcmfp", "oracle_bcmfp", "solve_lattice", "solve_capndp", "oracle_capndp"],
)
def test_solvers_refuse_upgrade_menus(solve):
    # The solvers read the graph alone: given a menu, they answered as if it
    # were absent (flow 0 within budget 3, or demand 3 "above" the flow 1).
    inst = parse_instance(MENU_TEXT)
    with pytest.raises(ValueError, match="solve_with_upgrades"):
        solve(inst)
    sol, plan, _ = solve_with_upgrades(inst)
    assert (sol.achieved_flow, sol.total_cost, plan.choices) == (6, 2, {"u1": 2})
