"""Rules on the package source that no run of the code can check."""

import ast
import inspect
from pathlib import Path

import spnd
from spnd import dp

PACKAGE = Path(spnd.__file__).parent


def test_package_has_no_bare_asserts():
    # ``python -O`` strips assert statements, and a check that guards a
    # result must still run there: it raises instead.
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _sites(match, paths=None) -> list[str]:
    """The package function around each syntax node that ``match`` accepts,

    in source order (``file:<module>`` outside any function)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif match(node):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in paths or sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.name}:<module>")
    return found


def _readers(name: str) -> set[str]:
    """The package functions that read the module-level ``name``."""
    return set(
        _sites(lambda node: isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
    )


def test_one_function_scans_splits():
    # Every parallel node, spine or special-free, goes through one blocked
    # (min, +) scan; a second reader of its block size, or a second argmin,
    # which sets its tie rule (the first, smallest split), is a second scan.
    # The tie rule needs no marker for "no split" of its own.
    def argmins(node):
        return isinstance(node, ast.Attribute) and node.attr == "argmin"

    assert _readers("CELLS") == {"_split_scan"}
    assert set(_sites(argmins)) == {"_split_scan"}
    assert not hasattr(dp, "_NO_SPLIT")


def _builds(node) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_Builder"


def test_decompose_builds_at_most_two_reductions():
    # The first terminal pair and one unprotected pass decide every graph:
    # a third construction site would be a walk over terminal pairs.
    assert _sites(_builds, [PACKAGE / "decompose.py"]) == ["decompose", "decompose"]


def test_probes_share_the_forest_through_one_builder():
    # A budget search's probes share the special-free tables by building on
    # one builder, which can only serve the inputs it was made from; a table
    # handed from one build to another would need its inputs checked.
    assert "reuse" not in inspect.signature(dp.build_table).parameters
    assert not hasattr(dp, "_check_reusable")
    assert _sites(_builds, [PACKAGE / "dp.py"]) == ["build_table", "_solve"]


def test_lattice_solves_go_through_the_exact_solvers_search():
    # A lattice solve is the exact solvers' search of pinned builds over the
    # lattice residues: a residue set of build_table's own, or a lattice
    # table answered through ``table=``, would be a second way to solve it.
    assert "residue_values" not in inspect.signature(dp.build_table).parameters

    def calls_build_table(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "build_table"

    def passes_table(node):
        return isinstance(node, ast.keyword) and node.arg == "table"

    assert _sites(calls_build_table, [PACKAGE / "extensions.py"]) == []
    assert _sites(passes_table, [PACKAGE / "extensions.py"]) == []


def test_spine_nodes_read_children_one_way():
    # Every node, special-free or spine, series or parallel, pinned or full,
    # is rows built by one grouped pass, and a child's special axes are read
    # by one helper: a second caller of the scan or a second reader of those
    # axes is a second path.
    def scans(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_split_scan"

    def table_axes(node):
        # ``self.special_axes(...)`` is the builder's method, not a table's axes.
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "special_axes"
            and getattr(node.value, "id", None) != "self"
        )

    assert _sites(scans, [PACKAGE / "dp.py"]) == ["_build_group"]
    assert set(_sites(table_axes)) == {"_coords", "_child_rows"}


def test_split_scan_writes_into_its_rows():
    # The scan fills the group's rows of the flat cost and split arrays
    # where they live; a result it returns would be a second copy of them.
    def returns_value(node):
        return isinstance(node, ast.Return) and node.value is not None

    assert callable(dp._split_scan)
    assert "_split_scan" not in _sites(returns_value, [PACKAGE / "dp.py"])


def test_tables_read_capacities_from_their_graph():
    # A table answers for its tree's graph: no build takes capacities of its
    # own, which could differ from the graph's that the solvers check.
    assert _sites(lambda node: isinstance(node, ast.arg) and node.arg == "capacity_override") == []
    assert list(inspect.signature(dp._Builder.__init__).parameters) == ["self", "tree", "f_bound", "base_domain"]


def test_fptas_has_no_exact_search_of_its_own():
    # The scheme's exact regimes are the exact solvers' own search, called
    # from the entry point; its feasibility probes are ladder rungs alone.
    # A probe at an unscaled flow value would be a second exact search.
    def calls(name):
        return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    fptas = [PACKAGE / "fptas.py"]
    assert set(_sites(calls("feasible_detailed"), fptas)) == {"rung"}
    assert set(_sites(calls("_solve"), fptas)) == {"fptas_bcmfp_detailed"}


def test_table_answers_are_rechecked_once_each():
    # Every exact solve, given a table or building one, answers through one
    # function, and inside dp.py a purchase is re-checked only by the table
    # method that keeps one answer per flow value: a re-check anywhere else
    # would be a second answer path. A budget search's probe reads the
    # probe's cost row like any other table, not a test of its own.
    def calls(name):
        def match(node):
            return isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            )

        return match

    dp_source = [PACKAGE / "dp.py"]
    assert _sites(calls("_rechecked"), dp_source) == ["_solution"]
    assert _sites(calls("_solution"), dp_source) == ["_answer"]
    assert not hasattr(dp, "_affordable")
