"""Command-line entry point.

Exit codes: 0 success, 1 usage or parse error, 2 infeasible, 3 input graph
is not series-parallel. Every error also prints a one-line machine tag
``ERROR <code> <message>`` to stderr. Solver commands end their stdout with
``RESULT cost=<int> flow=<int> edges=<comma-list>``.
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

from .decompose import decompose, tree_text
from .dp import build_table, solve_bcmfp, solve_capndp, upper_bound_flow
from .errors import InfeasibleError, NotSeriesParallelError, ParseError
from .extensions import LatticeSpec, expand_upgrades, map_back, solve_lattice
from .fptas import fptas_bcmfp_detailed
from .flow import solution_from_edges, verify_solution
from .instance import ProblemInstance, Solution, format_instance, parse_instance
from .oracle import ORACLE_EDGE_LIMIT, generate_sp, oracle_bcmfp, oracle_capndp

SWEEP_HEADER = "seed,m,F,opt_cost,opt_flow,dp_ms,oracle_ms,match"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_instance(path: str) -> ProblemInstance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _resolve_problem(instance: ProblemInstance, flag: str | None) -> str:
    if flag is not None and flag != instance.problem:
        raise _UsageError(
            f"--problem {flag} contradicts the instance, which declares "
            f"{'a budget' if instance.problem == 'bcmfp' else 'a demand'}"
        )
    return instance.problem


def _edges_field(solution: Solution) -> str:
    return ",".join(sorted(solution.purchased))


def _print_solution(solution: Solution, fmt: str, extra_lines=()) -> None:
    edges = _edges_field(solution)
    if fmt == "csv":
        print("cost,flow,edges")
        print(f"{solution.total_cost},{solution.achieved_flow},{edges.replace(',', ';')}")
        return
    print(f"purchased: {edges or '(none)'}")
    print(f"cost: {solution.total_cost}")
    print(f"flow: {solution.achieved_flow}")
    for line in extra_lines:
        print(line)
    print(f"RESULT cost={solution.total_cost} flow={solution.achieved_flow} edges={edges}")


def _cmd_decompose(args) -> int:
    instance = _load_instance(args.instance)
    tree = decompose(instance.graph)
    a, b = tree.terminals
    print(f"TERMINALS {a} {b}")
    print(f"TREE {tree_text(tree)}")
    return 0


def _solve_and_print(instance: ProblemInstance, solve, fmt: str, extra_lines=()) -> int:
    """Solve, with any upgrade menus expanded first, and print the solution

    with ``extra_lines`` (read once ``solve`` has returned, so it may fill
    them) and each menu's choice on an ``UPGRADE`` line."""
    gmap = None
    if instance.upgrades:
        instance, gmap = expand_upgrades(instance)
    solution = solve(instance)
    lines = list(extra_lines)
    if gmap is not None:
        plan = map_back(solution, gmap)
        lines += [f"UPGRADE {gid} choice={idx}" for gid, idx in sorted(plan.choices.items())]
    _print_solution(solution, fmt, lines)
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    problem = _resolve_problem(instance, args.problem)
    if (args.lattice is None) != (args.K is None):
        raise _UsageError("--lattice and --K must be given together")
    if args.lattice is not None:
        solve = partial(solve_lattice, spec=LatticeSpec(basis=tuple(args.lattice), bound=args.K))
    else:
        solve = solve_bcmfp if problem == "bcmfp" else solve_capndp
    return _solve_and_print(instance, solve, args.format)


def _cmd_fptas(args) -> int:
    instance = _load_instance(args.instance)
    if instance.budget is None:
        raise _UsageError("fptas applies to budget instances only")
    extra: list[str] = []

    def solve(expanded: ProblemInstance) -> Solution:
        outcome = fptas_bcmfp_detailed(expanded, args.epsilon)
        m_prime = "exact" if outcome.m_prime is None else str(outcome.m_prime)
        extra.extend(["GUARANTEE flow*(1+eps) >= OPT", f"M_PRIME={m_prime}"])
        return outcome.solution

    return _solve_and_print(instance, solve, "text", extra)


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    solve = oracle_bcmfp if _resolve_problem(instance, args.problem) == "bcmfp" else oracle_capndp
    return _solve_and_print(instance, solve, args.format)


def _cmd_gen(args) -> int:
    instance = generate_sp(
        args.seed,
        edge_budget=args.edges,
        cap_max=args.cap_max,
        cost_max=args.cost_max,
        problem=args.problem,
    )
    sys.stdout.write(format_instance(instance))
    return 0


def _cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    ids = [token for token in args.edges.split(",") if token] if args.edges else []
    solution = solution_from_edges(instance, ids)
    report = verify_solution(instance, solution)
    for check in report.checks:
        status = "ok" if check.passed else "fail"
        detail = f" {check.detail}" if check.detail else ""
        print(f"CHECK {check.name} {status}{detail}")
    print(f"VERIFY {'ok' if report.ok else 'fail'}")
    return 0 if report.ok else 2


def _parse_seed_range(text: str) -> range:
    if ".." in text:
        lo, hi = map(int, text.split("..", 1))
        if hi < lo:
            raise _UsageError(f"--seeds {text}: the range is reversed")
        return range(lo, hi + 1)
    value = int(text)
    return range(value, value + 1)


def _cmd_sweep(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    rows = []
    total_states = 0
    for seed in seeds:
        instance = generate_sp(
            seed,
            edge_budget=args.edges,
            cap_max=args.cap_max,
            cost_max=args.cost_max,
            problem=args.problem,
        )
        m = instance.graph.edge_count
        t0 = time.perf_counter()
        tree = decompose(instance.graph)
        f_bound = upper_bound_flow(instance)
        table = build_table(tree, f_bound)
        if args.problem == "bcmfp":
            solution = solve_bcmfp(instance, tree=tree, table=table)
        else:
            solution = solve_capndp(instance, tree=tree, table=table)
        dp_ms = (time.perf_counter() - t0) * 1000.0
        total_states += table.state_count
        match = ""
        oracle_ms = ""
        if m <= ORACLE_EDGE_LIMIT:
            t1 = time.perf_counter()
            reference = (
                oracle_bcmfp(instance) if args.problem == "bcmfp" else oracle_capndp(instance)
            )
            oracle_ms = f"{(time.perf_counter() - t1) * 1000.0:.3f}"
            if args.problem == "bcmfp":
                match = str(int(reference.achieved_flow == solution.achieved_flow))
            else:
                match = str(int(reference.total_cost == solution.total_cost))
        rows.append(
            (
                seed,
                m,
                f_bound,
                solution.total_cost,
                solution.achieved_flow,
                f"{dp_ms:.3f}",
                oracle_ms,
                match,
            )
        )
    if args.format == "csv":
        print(SWEEP_HEADER)
        for row in rows:
            print(",".join(str(v) for v in row))
    else:
        names = SWEEP_HEADER.split(",")
        for row in rows:
            print(" ".join(f"{k}={v}" for k, v in zip(names, row)))
    print(f"# sweep: {len(rows)} rows, total DP states {total_states}", file=sys.stderr)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="spnd",
        description=(
            "Budget-constrained max flow and capacitated network design "
            "on undirected series-parallel multigraphs"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="print the series-parallel decomposition tree")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("solve", help="exact solver (demand or budget instances)")
    p.add_argument("--problem", choices=("bcmfp", "capndp"))
    p.add_argument("--lattice", type=_int_list, metavar="d1,d2,...")
    p.add_argument("--K", type=int, help="lattice coefficient bound")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("fptas", help="approximate budget-constrained max flow")
    p.add_argument("--epsilon", required=True, help="accuracy, as p/q or decimal")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_fptas)

    p = sub.add_parser("oracle", help="exhaustive reference solver (m <= 20)")
    p.add_argument("--problem", choices=("bcmfp", "capndp"))
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="write a random series-parallel instance to stdout")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--edges", type=int, default=8)
    p.add_argument("--cap-max", type=int, default=6)
    p.add_argument("--cost-max", type=int, default=10)
    p.add_argument("--problem", choices=("bcmfp", "capndp"), default="bcmfp")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a purchase against an instance")
    p.add_argument("--edges", default="", help="comma-separated edge ids")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="generate, solve, cross-check, and time")
    p.add_argument("--problem", choices=("bcmfp", "capndp"), default="bcmfp")
    p.add_argument("--seeds", required=True, help="range A..B or single seed")
    p.add_argument("--edges", type=int, default=8)
    p.add_argument("--cap-max", type=int, default=6)
    p.add_argument("--cost-max", type=int, default=10)
    p.add_argument("--format", choices=("text", "csv"), default="csv")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"ERROR 1 {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"ERROR 1 {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"ERROR 1 {exc}", file=sys.stderr)
        return 1
    except NotSeriesParallelError as exc:
        print("ERROR 3 not series-parallel", file=sys.stderr)
        if str(exc):
            print(f"# {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"ERROR 2 {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:  # str() of a KeyError quotes its message
        print(f"ERROR 1 {exc.args[0]}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"ERROR 1 {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
