"""The package's public surface and the benchmark tracer's view of it."""

import ast
import builtins
import importlib.util
import re
import types
from pathlib import Path

import spnd

ROOT = Path(__file__).resolve().parent.parent


def _library_section() -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index("## Library")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _documented_names() -> set[str]:
    """Names the README's Library section presents as importable from spnd."""
    section = _library_section()
    names = set()
    for line in re.findall(r"from spnd import ([^\n]+)", section):
        names.update(n.strip() for n in line.split(","))
    names.update(re.findall(r"(?<![.\w])([A-Za-z_]\w*)\(", section))
    names.update(re.findall(r"`([A-Za-z_]\w*)`", section))
    return names - set(dir(builtins)) - {"spnd"}


def test_all_lists_no_modules():
    for name in spnd.__all__:
        assert hasattr(spnd, name), name
        assert not isinstance(getattr(spnd, name), types.ModuleType), name
    assert len(set(spnd.__all__)) == len(spnd.__all__)


def test_all_exports_every_documented_name():
    documented = _documented_names()
    assert {"parse_instance", "build_table", "solve_lattice", "LatticeSpec", "generate_sp"} <= documented
    assert sorted(documented - set(spnd.__all__)) == []


def _bench_names() -> set[str]:
    """Names the benchmark reaches on the package: ``spnd.X`` in its code

    and ``("spnd", "X")`` tracer sites."""
    names = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "spnd":
                names.add(node.attr)
            elif (
                isinstance(node, ast.Tuple)
                and len(node.elts) == 2
                and all(isinstance(e, ast.Constant) for e in node.elts)
                and node.elts[0].value == "spnd"
            ):
                names.add(node.elts[1].value)
    return {n for n in names if not n.startswith("_")}


def test_all_is_exactly_the_documented_and_benchmarked_surface():
    bench = _bench_names()
    assert {"parse_instance", "upper_bound_flow", "feasible", "solution_from_edges"} <= bench
    errors = {"InfeasibleError", "NotSeriesParallelError", "ParseError"}
    assert sorted(spnd.__all__) == sorted(_documented_names() | bench | errors)
    public = {
        name
        for name, value in vars(spnd).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(spnd.__all__)) == []


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_assert_statements():
    # Guards must hold under ``python -O``, which strips asserts, and raise
    # a real error type: a raised AssertionError is an assert in all but name.
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted((ROOT / "src" / "spnd").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or _raises_assertion_error(node)
    ]
    assert found == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_and_restores_every_site():
    tracer_module = _load_tracer()
    sites = [
        (module_path, attr)
        for layer_sites in tracer_module.LAYERS.values()
        for module_path, attr in layer_sites
    ]
    assert ("spnd.dp", "DPTable.query_cost") in sites
    assert ("spnd.fptas", "feasible_detailed") in sites
    originals = {site: getattr(*tracer_module._resolve(*site)) for site in sites}
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for site in sites:
            wrapped = getattr(*tracer_module._resolve(*site))
            assert wrapped.__wrapped__ is originals[site], site
    finally:
        tracer.uninstall()
    for site in sites:
        assert getattr(*tracer_module._resolve(*site)) is originals[site], site
