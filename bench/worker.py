"""One benchmark process: import spnd, make the inputs, run one workload.

Started by ``bench/run.py``, never imported by it. The process prints
``READY <json>`` once the package is imported and the inputs exist (the end
of set-up) and, unless ``--setup-only`` is given, ``RESULT <json>`` as its
last line.

The first pass over the workload's inputs is not timed: it checks every
answer, takes the exact counts and warms the interpreter up. The timed loop
that follows is closed: one op at a time, the next after the previous one
is done and compared with the first pass's answer, with the clock stopped.
It makes passes over the inputs until the ops have taken the requested
seconds, stopping inside a pass once one whole pass is timed. The package
keeps no state from one op to the next (each op parses its text afresh),
so a later pass repeats the same work. A traced run makes whole passes,
alternately traced and untraced; the ratio of their median times is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# Layers whose time and self time the traced run reports, in report order.
# What each should move, and where (written before any optimisation). On
# exact-mix the large-sparse cycle holds about half the op time and every
# op beyond p95, the other two cycles a quarter each and the median op:
#   instance.parse              ops_per_s on exact-mix (texts of ~250 lines)
#   decompose                   latency_tail_ms, ops_per_s on exact-mix
#   flow.max_flow, flow.recheck ops_per_s on exact-mix
#   dp.build                    latency_p50_ms, peak_rss_mb on exact-mix;
#                               pinned builds: ops_per_s on fptas-ladder
#   dp.query, dp.reconstruct    ops_per_s, latency_p50_ms on exact-mix
#   fptas.ladder, fptas.probe   ops_per_s, latency_p50_ms on fptas-ladder
#   extensions.*                ops_per_s on exact-mix
#   setup.*                     setup_s on both workloads
TIMED_LAYERS = (
    "instance.parse",
    "decompose",
    "flow.max_flow",
    "flow.recheck",
    "dp.build",
    "dp.query",
    "dp.reconstruct",
    "fptas.ladder",
    "fptas.probe",
    "extensions.lattice_residues",
    "extensions.expand",
    "extensions.map_back",
)

# Count metric -> tracer counter, over the count pass.
CALL_COUNTS = {
    "instance.parse_calls": "instance.parse.calls",
    "decompose.calls": "decompose.calls",
    "decompose.rejected": "decompose.rejected",
    "decompose.pairs_tried": "decompose.pairs_tried",
    "flow.max_flow_calls": "flow.max_flow.calls",
    "flow.recheck_calls": "flow.recheck.calls",
    "dp.builds": "dp.build.calls",
    "dp.states": "dp.states",
    "dp.query_calls": "dp.query.calls",
    "dp.reconstruct_calls": "dp.reconstruct.calls",
    "fptas.probes": "fptas.probes",
    "fptas.probe_states": "fptas.probe_states",
    "extensions.expand_calls": "extensions.expand.calls",
    "extensions.map_back_calls": "extensions.map_back.calls",
}

# Counts that must repeat exactly for a given seed and program.
EXACT_COUNTS = ("dp.states", "fptas.probes", "fptas.probe_states", "decompose.pairs_tried")


def _metric_prefix(layer: str) -> str:
    return layer + ("_" if "." in layer else ".")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in TIMED_LAYERS:
        units[_metric_prefix(layer) + "ms"] = "ms"
        units[_metric_prefix(layer) + "self_ms"] = "ms"
    units["op.self_ms"] = "ms"
    units["dp.pinned_build_share"] = "share"
    for name in CALL_COUNTS:
        units[name] = "count"
    units["dp.table_bytes"] = "B"
    units["fptas.exact_share"] = "share"
    units["extensions.domain_ratio"] = "share"
    units["setup.import_s"] = "s"
    units["setup.inputs_s"] = "s"
    units["trace.overhead"] = "share"
    units["trace.ops_per_s"] = "1/s"
    units["trace.untraced_ops_per_s"] = "1/s"
    return units


def _source_digest() -> str:
    """Digest of the package and benchmark sources: counts are compared

    only between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spnd").glob("*.py")) + sorted(ROOT.joinpath("bench").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_op(workload, item):
    """One op: its answer, or the exception it raised."""
    try:
        return workload.op(item), None
    except Exception as exc:  # an op that raises counts as failed, not fatal
        return None, exc


def check_op(workload, item, answer, error) -> str | None:
    """None if the answer is right, else why it is not."""
    from workloads import CheckFailure

    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        workload.check(item, answer)
    except CheckFailure as exc:
        return str(exc)
    except Exception as exc:  # a malformed answer can break the checker itself
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def check_pass(workload, items):
    """The untimed first pass: each input's answer, error text and verdict,

    the failures, the exact counts and the largest table's computed bytes.
    Counting is off while the checks run, since they call the package too."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    first: list[tuple] = []  # (answer, error text, verdict) per input
    failures: list[str] = []
    try:
        for i, item in enumerate(items):
            tracer.op, tracer.enabled = i, True
            answer, error = run_op(workload, item)
            tracer.enabled = False
            first.append((answer, error and f"{type(error).__name__}: {error}",
                          check_op(workload, item, answer, error)))
            if first[i][2] is not None:
                failures.append(f"first pass input {i} ({item.slot}): {first[i][2]}")
    finally:
        tracer.uninstall()
    return first, failures, dict(tracer.counts), tracer.build_bytes_max


def timed_loop(workload, items, first, seconds: float, tracer=None):
    """Passes over ``items`` until the op time reaches ``seconds``.

    Untraced, the loop may stop inside a pass once one whole pass is timed;
    with a tracer it makes whole passes, at least two, alternately traced
    (tracer installed) and untraced, so that both see the same machine
    conditions. Each answer must equal the first pass's answer for the same
    input and inherits its verdict. Returns the latencies of each pass,
    which passes were traced, and the failures."""
    passes: list[list[float]] = []
    traced: list[bool] = []
    failures: list[str] = []
    elapsed_total = 0.0
    op = 0
    while len(passes) < (2 if tracer else 1) or elapsed_total < seconds:
        tracing = tracer is not None and len(passes) % 2 == 0
        if tracing:
            tracer.install()
        latencies: list[float] = []
        for i, item in enumerate(items):
            if tracer is None and passes and elapsed_total >= seconds:
                break
            if tracing:
                tracer.op, tracer.enabled = op, True
                span = tracer.open("op")
            start = perf_counter()
            answer, error = run_op(workload, item)
            elapsed = perf_counter() - start
            if tracing:
                tracer.close(span)
                tracer.enabled = False
            latencies.append(elapsed)
            elapsed_total += elapsed
            op += 1
            error_text = error and f"{type(error).__name__}: {error}"
            if (answer, error_text) == first[i][:2]:
                problem = first[i][2]
            else:
                problem = "answer differs from the first pass on the same input"
            if problem is not None:
                failures.append(f"pass {len(passes) + 1} input {i} ({item.slot}): {problem}")
        if tracing:
            tracer.uninstall()
        passes.append(latencies)
        traced.append(tracing)
    return passes, traced, failures


def measure(workload, items, seconds: float, tracer=None) -> dict:
    """The check pass, then the timed loop: all a run needs but set-up."""
    first, failures, counts, bytes_max = check_pass(workload, items)
    passes, traced, timed_failures = timed_loop(workload, items, first, seconds, tracer)
    failures += timed_failures
    return {
        "ops": len(items) + sum(map(len, passes)),
        "failures": failures[:20],
        "failed": len(failures),
        "passes": passes,
        "traced": traced,
        "counts": counts,
        "bytes_max": bytes_max,
    }


def compare_counts(name: str, seed: int, counts: dict) -> str | None:
    """Store this run's exact counts; report any difference from an earlier

    run of the same workload, seed and program source."""
    exact = {key: counts.get(key, 0) for key in EXACT_COUNTS}
    path = OUT_DIR / f"counts-{name}-seed{seed}-{_source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != exact:
            return f"exact counts differ from an earlier run: {earlier} vs {exact}"
    else:
        path.write_text(json.dumps(exact, sort_keys=True))
    return None


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def traced_metrics(tracer, per_pass, pass_times, traced, counts, bytes_max) -> dict:
    """Per-layer metrics other than set-up (which the caller adds from every

    set-up probe): times per op from the traced passes, counts from the
    check pass."""
    ops = per_pass * sum(traced)  # ops whose spans were recorded
    times = tracer.layer_times()
    metrics = {}
    for layer in TIMED_LAYERS:
        total, own = times.get(layer, (0.0, 0.0))
        metrics[_metric_prefix(layer) + "ms"] = total * 1000 / ops
        metrics[_metric_prefix(layer) + "self_ms"] = own * 1000 / ops
    metrics["op.self_ms"] = times["op"][1] * 1000 / ops
    build_total = times.get("dp.build", (0.0, 0.0))[0]
    metrics["dp.pinned_build_share"] = _share(tracer.pinned_build_s, build_total)
    for name, key in CALL_COUNTS.items():
        metrics[name] = counts.get(key, 0)
    metrics["dp.table_bytes"] = bytes_max
    metrics["fptas.exact_share"] = _share(counts.get("fptas.exact_runs", 0), counts.get("fptas.runs", 0))
    metrics["extensions.domain_ratio"] = _share(
        counts.get("extensions.lattice_residues", 0), counts.get("extensions.full_domain", 0)
    )
    traced_pass = statistics.median(t for t, on in zip(pass_times, traced) if on)
    untraced_pass = statistics.median(t for t, on in zip(pass_times, traced) if not on)
    metrics["trace.overhead"] = traced_pass / untraced_pass - 1
    metrics["trace.ops_per_s"] = per_pass / traced_pass
    metrics["trace.untraced_ops_per_s"] = per_pass / untraced_pass
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import spnd

    import_s = perf_counter() - start
    if not Path(spnd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"spnd imported from {spnd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    start = perf_counter()
    items = workload.inputs(args.seed)
    setup = {"import_s": import_s, "inputs_s": perf_counter() - start, "inputs": len(items)}
    print("READY " + json.dumps(setup), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    run = measure(workload, items, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    OUT_DIR.mkdir(exist_ok=True)
    counts = run.pop("counts")
    bytes_max = run.pop("bytes_max")
    result = dict(
        run,
        peak_rss_mb=peak_rss_mb,
        counts={key: counts.get(key, 0) for key in EXACT_COUNTS},
        counts_mismatch=compare_counts(workload.name, args.seed, counts),
        setup=setup,
    )
    if tracer is not None:
        stem = f"trace-{workload.name}-seed{args.seed}"
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
        layers = {
            name: {"total_s": total, "self_s": own, "calls": tracer.counts[name + ".calls"]}
            for name, (total, own) in sorted(tracer.layer_times().items())
        }
        (OUT_DIR / f"{stem}.layers.json").write_text(json.dumps(layers, indent=1))
        result["trace_files"] = [f"{OUT_DIR.name}/{stem}.spans.jsonl", f"{OUT_DIR.name}/{stem}.layers.json"]
        pass_times = [sum(p) for p in run["passes"]]
        result["per_layer"] = traced_metrics(tracer, len(items), pass_times, run["traced"], counts, bytes_max)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
