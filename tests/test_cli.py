"""End-to-end checks of the command line interface."""

import importlib

import pytest

from spnd import cli, format_instance

from conftest import HUGE_VERTEX_COUNT_TEXT, k4_glued, terminals_last

DIAMOND_DEMAND = (
    "graph 3\nterminals 0 2\nsource 0\nsink 2\n"
    "edge e1 0 1 1 2\nedge e2 1 2 1 2\nedge e3 0 2 3 1\ndemand 1\n"
)
DIAMOND_BUDGET = DIAMOND_DEMAND.replace("demand 1\n", "budget 5\n")
K4 = (
    "graph 4\nsource 0\nsink 1\n"
    "edge e1 0 1 1 1\nedge e2 0 2 1 1\nedge e3 0 3 1 1\n"
    "edge e4 1 2 1 1\nedge e5 1 3 1 1\nedge e6 2 3 1 1\nbudget 3\n"
)
WHEEL4 = (
    "graph 5\nsource 0\nsink 2\n"
    "edge r1 0 1 1 1\nedge r2 0 2 1 1\nedge r3 0 3 1 1\nedge r4 0 4 1 1\n"
    "edge s1 1 2 1 1\nedge s2 2 3 1 1\nedge s3 3 4 1 1\nedge s4 4 1 1 1\n"
    "budget 8\n"
)


@pytest.fixture()
def run(tmp_path, capsys):
    def invoke(*args, text=None):
        argv = list(args)
        if text is not None:
            path = tmp_path / "case.sp"
            path.write_text(text)
            argv.append(str(path))
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_decompose_prints_terminals_and_tree(run):
    code, out, _ = run("decompose", text=DIAMOND_DEMAND)
    assert code == 0
    assert out.splitlines() == [
        "TERMINALS 0 2",
        "TREE P(S(L(e1),L(e2))@1,L(e3))",
    ]


def test_solve_demand_instance(run):
    code, out, _ = run("solve", text=DIAMOND_DEMAND)
    assert code == 0
    lines = out.splitlines()
    assert "purchased: e1,e2" in lines
    assert lines[-1] == "RESULT cost=2 flow=2 edges=e1,e2"


def test_solve_budget_instance(run):
    code, out, _ = run("solve", text=DIAMOND_BUDGET)
    assert code == 0
    assert out.splitlines()[-1] == "RESULT cost=5 flow=3 edges=e1,e2,e3"


def test_solve_csv_format(run):
    code, out, _ = run("solve", "--format", "csv", text=DIAMOND_DEMAND)
    assert code == 0
    assert out == "cost,flow,edges\n2,2,e1;e2\n"


def test_problem_flag_overrides_objective(run):
    # The instance carries a demand, but --problem bcmfp needs a budget.
    code, _, err = run("solve", "--problem", "bcmfp", text=DIAMOND_DEMAND)
    assert code == 1
    assert err.startswith("ERROR 1")


def test_not_series_parallel_exits_three(run):
    for text in (K4, WHEEL4):
        code, _, err = run("solve", text=text)
        assert code == 3
        assert err.splitlines()[0] == "ERROR 3 not series-parallel"
    code, _, err = run("decompose", text=K4)
    assert code == 3
    assert err.splitlines()[0] == "ERROR 3 not series-parallel"


def test_terminals_past_the_first_pair_decompose_exits_zero(run):
    # n = 134: the unprotected pass ends on the edge 133-1.
    code, out, _ = run("decompose", text=format_instance(terminals_last(1, edge_budget=400)))
    assert code == 0
    assert out.splitlines()[0] == "TERMINALS 133 1"


def test_large_k4_glued_decompose_exits_three(run):
    # 137 vertices: rejected after one terminal pair, not all 9,316.
    code, _, err = run("decompose", text=format_instance(k4_glued(1, edge_budget=400)))
    assert code == 3
    assert err.splitlines()[0] == "ERROR 3 not series-parallel"


def test_huge_vertex_count_exits_three(run, monkeypatch):
    def per_vertex(graph):
        raise AssertionError("per-vertex connectivity scan reached")

    monkeypatch.setattr(importlib.import_module("spnd.decompose"), "_connected", per_vertex)
    code, _, err = run("solve", text=HUGE_VERTEX_COUNT_TEXT)
    assert code == 3
    assert err.splitlines()[0] == "ERROR 3 not series-parallel"


def test_verify_on_huge_vertex_count_reports(run, small_flow_networks):
    code, out, _ = run("verify", "--edges", "e1", text=HUGE_VERTEX_COUNT_TEXT)
    assert code == 0
    assert out.splitlines()[-1] == "VERIFY ok"


def test_infeasible_demand_exits_two(run):
    code, _, err = run("solve", text=DIAMOND_DEMAND.replace("demand 1", "demand 4"))
    assert code == 2
    assert err.splitlines()[0] == "ERROR 2 demand 4 exceeds the best attainable flow 3"


def test_usage_errors_exit_one(run, tmp_path):
    code, _, err = run("solve", str(tmp_path / "missing.sp"))
    assert code == 1
    assert err.startswith("ERROR 1")

    code, _, err = run("solve", "--nonsense", text=DIAMOND_DEMAND)
    assert code == 1
    assert "unrecognized arguments" in err

    code, _, err = run("solve", "--lattice", "5", text=DIAMOND_BUDGET)
    assert code == 1
    assert "--lattice and --K must be given together" in err


@pytest.mark.parametrize(
    "args,fragment",
    [
        (("gen", "--seed", "1", "--cost-max", "-2"), "cost_max cannot be negative"),
        (("gen", "--seed", "1", "--cap-max", "0"), "cap_max must be at least 1"),
    ],
)
def test_gen_refuses_empty_value_ranges(run, args, fragment):
    code, out, err = run(*args)
    assert (code, out) == (1, "")
    assert err.startswith("ERROR 1") and fragment in err


@pytest.mark.parametrize("token", ["1_0", "+5", "\u0663"])
def test_non_ascii_digit_numbers_exit_one(run, token):
    code, out, err = run("solve", text=DIAMOND_BUDGET.replace("budget 5", f"budget {token}"))
    assert (code, out) == (1, "")
    assert err.startswith("ERROR 1") and "budget: expected an integer" in err

    assert run()[0] == 1


def test_help_exits_zero(run):
    code, out, _ = run("--help")
    assert code == 0
    assert "decompose" in out and "sweep" in out


def test_lattice_flags(run):
    text = (
        "graph 3\nsource 0\nsink 2\n"
        "edge e1 0 1 1 5\nedge e2 1 2 1 5\nedge e3 0 2 3 5\nbudget 5\n"
    )
    code, out, _ = run("solve", "--lattice", "5", "--K", "2", text=text)
    assert code == 0
    assert out.splitlines()[-1] == "RESULT cost=5 flow=10 edges=e1,e2,e3"


def test_fptas_exact_marker(run):
    code, out, _ = run("fptas", "--epsilon", "1", text=DIAMOND_BUDGET)
    assert code == 0
    lines = out.splitlines()
    assert "GUARANTEE flow*(1+eps) >= OPT" in lines
    assert "M_PRIME=exact" in lines
    assert lines[-1] == "RESULT cost=5 flow=3 edges=e1,e2,e3"


@pytest.mark.parametrize("epsilon", ["1/0", "0/0"])
def test_fptas_zero_denominator_epsilon_exits_one(run, epsilon):
    code, out, err = run("fptas", "--epsilon", epsilon, text=DIAMOND_BUDGET)
    assert (code, out) == (1, "")
    assert err.startswith("ERROR 1") and "zero denominator" in err


def test_fptas_ladder_reports_level(run):
    text = (
        "graph 3\nsource 0\nsink 2\n"
        "edge e1 0 1 5 1000000\nedge e2 1 2 1 300\nedge e3 0 2 1 7\nbudget 5\n"
    )
    code, out, _ = run("fptas", "--epsilon", "0.5", text=text)
    assert code == 0
    level_lines = [l for l in out.splitlines() if l.startswith("M_PRIME=")]
    assert level_lines == ["M_PRIME=13841287201/2176782336"]
    assert out.splitlines()[-1] == "RESULT cost=1 flow=7 edges=e3"


def test_oracle_subcommand_agrees_with_solve(run):
    code, out, _ = run("oracle", text=DIAMOND_DEMAND)
    assert code == 0
    assert out.splitlines()[-1] == "RESULT cost=2 flow=2 edges=e1,e2"


def test_gen_is_deterministic_and_frozen(run):
    code, out, _ = run("gen", "--seed", "3", "--edges", "4")
    assert code == 0
    assert out == (
        "graph 3\nterminals 0 1\nsource 0\nsink 1\n"
        "edge e1 0 2 9 4\nedge e2 2 1 10 5\nbudget 15\n"
    )
    again = run("gen", "--seed", "3", "--edges", "4")
    assert again[1] == out
    code, capndp_out, _ = run("gen", "--seed", "3", "--edges", "4", "--problem", "capndp")
    assert capndp_out.splitlines()[-1].startswith("demand ")


def test_gen_output_round_trips_into_solve(run, tmp_path):
    _, out, _ = run("gen", "--seed", "11", "--edges", "6")
    code, solved, _ = run("solve", text=out)
    assert code == 0
    assert solved.splitlines()[-1].startswith("RESULT cost=")


def test_verify_ok(run):
    code, out, _ = run("verify", "--edges", "e1,e2", text=DIAMOND_DEMAND)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "VERIFY ok"
    assert "CHECK meets-demand ok flow 2 vs demand 1" in lines


def test_verify_failure_exits_two(run):
    code, out, _ = run(
        "verify", "--edges", "e3", text=DIAMOND_DEMAND.replace("demand 1", "demand 2")
    )
    assert code == 2
    lines = out.splitlines()
    assert "CHECK meets-demand fail flow 1 vs demand 2" in lines
    assert lines[-1] == "VERIFY fail"


def test_verify_unknown_edge_exits_one_without_quotes(run):
    code, out, err = run("verify", "--edges", "e1,zz", text=DIAMOND_DEMAND)
    assert code == 1 and out == ""
    assert err.splitlines() == ["ERROR 1 unknown edge id 'zz'"]


def test_sweep_refuses_a_reversed_seed_range(run):
    code, out, err = run("sweep", "--seeds", "3..1", "--edges", "4")
    assert code == 1 and out == ""
    assert err.splitlines() == ["ERROR 1 --seeds 3..1: the range is reversed"]


def test_sweep_csv_contract(run):
    code, out, err = run("sweep", "--seeds", "1..5", "--edges", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed,m,F,opt_cost,opt_flow,dp_ms,oracle_ms,match"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert fields[0] == str(i)
        assert fields[-1] == "1"
    assert err.startswith("# sweep: 5 rows, total DP states ")


def test_sweep_text_mode(run):
    code, out, _ = run("sweep", "--seeds", "2", "--format", "text", "--edges", "4")
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("seed=2 ")
    assert " match=1" in line


def test_upgrade_instance_reports_choice(run):
    text = "graph 2\nsource 0\nsink 1\nupedge g1 0 1 2 4 10 7 20\nbudget 7\n"
    code, out, _ = run("solve", text=text)
    assert code == 0
    lines = out.splitlines()
    assert "UPGRADE g1 choice=2" in lines
    assert lines[-1] == "RESULT cost=7 flow=20 edges=g1:c2,g1:g2a,g1:g2b"


def test_fptas_upgrade_instance_reports_choice(run):
    # The same menu solve reports: fptas must map its purchase back too.
    text = "graph 3\nsource 0\nsink 2\nedge e1 0 1 1 10\nupedge g1 1 2 2 2 3 5 8\nbudget 6\n"
    code, out, _ = run("solve", text=text)
    assert code == 0
    assert "UPGRADE g1 choice=2" in out.splitlines()
    code, out, _ = run("fptas", "--epsilon", "1/2", text=text)
    assert code == 0
    lines = out.splitlines()
    assert "UPGRADE g1 choice=2" in lines
    assert "GUARANTEE flow*(1+eps) >= OPT" in lines
    assert lines[-1].startswith("RESULT cost=6 flow=8 ")


def test_fptas_upgrade_instance_on_the_ladder(run):
    # Capacities in the hundred thousands put the expanded menu past the
    # exact regime, so the answer comes from a ladder level.
    text = (
        "graph 3\nsource 0\nsink 2\nedge e1 0 1 1 1000000\nedge e3 0 2 2 40000\n"
        "upedge g1 1 2 3 2 30000 5 80000 9 700000\nbudget 7\n"
    )
    code, out, _ = run("fptas", "--epsilon", "1/2", text=text)
    assert code == 0
    lines = out.splitlines()
    assert lines[-3:] == [
        "M_PRIME=49221735352184872959961855190338177606846542622561400857262407"
        "/638324153542299148846280854514738362441007133779155746816",
        "UPGRADE g1 choice=2",
        "RESULT cost=6 flow=80000 edges=e1,g1:c2,g1:g2a,g1:g2b,g1:g3a,g1:g3b",
    ]


# The gate-7 ring at F = 144: source and sink strictly inside the root pair.
# The full (r_a, r_s, r_t) table over it takes tens of seconds and hundreds
# of MB; a solve reads pinned builds only.
RING144 = (
    "graph 4\nterminals 0 3\nsource 1\nsink 2\n"
    "edge e1 0 1 1 48\nedge e2 1 2 1 96\nedge e3 2 3 1 48\nedge e4 0 3 1 48\n"
)


@pytest.mark.parametrize(
    "objective, result",
    [
        ("demand 144", "RESULT cost=4 flow=144 edges=e1,e2,e3,e4"),
        ("budget 1", "RESULT cost=1 flow=96 edges=e2"),
    ],
    ids=["demand", "budget"],
)
def test_solve_large_flow_bound_ring(run, objective, result):
    code, out, _ = run("solve", text=RING144 + objective + "\n")
    assert code == 0
    assert out.splitlines()[-1] == result
