"""Benchmark of the spnd solvers: one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Every process it starts is a fresh, single-threaded interpreter running
``bench/worker.py``, one at a time:

* set-up probes (one warm-up, then ``SETUP_PROBES`` measured) that import
  the package, make the inputs and exit; ``setup_s`` is their median wall
  time from process start to ready;
* the measuring process, which checks every answer in an untimed first
  pass over the workload's inputs, then runs the closed loop for S seconds
  of op time. Each input's latency is the mean of its timed ops; the
  latency metrics are percentiles over inputs, and ``ops_per_s`` is inputs
  over the sum of their latencies.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones from
a traced run. Lines before it give every metric by name and unit, the
failure fraction, the latency percentiles with their sample counts and the
exact counts. Workloads and what they stress are described in
``bench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from worker import per_layer_units

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("exact-mix", "fptas-ladder")
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0

# Fixed tail percentile per workload: the highest with >= 10 of its
# ``working_set`` inputs beyond it; fewer inputs lower it.
TAIL_PCT = {"exact-mix": 95, "fptas-ladder": 80}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


def _worker(args, deadline: float, setup_only: bool):
    """Run one worker process; return (setup wall seconds, READY data, RESULT data)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
    watchdog.start()
    setup_wall = ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY "):
                setup_wall = perf_counter() - start
                ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
            else:
                sys.stderr.write(line)
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker exited with code {proc.returncode} (killed after the time limit if negative)")
    return setup_wall, ready, result


def _nearest_rank(sorted_values, pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def _tail_pct(inputs: int, pct: float) -> float:
    """``pct``, lowered until >= 10 of the ``inputs`` lie beyond it."""
    while pct > 50 and inputs - math.ceil(pct / 100 * inputs) < 10:
        pct = 50 if pct <= 60 else pct - 10
    return pct


def _end_to_end(result, tail_pct: float, setups) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and a note on each.

    Each input's latency is the mean of its timed ops, so every input
    weighs the same whatever pass the loop stopped in. Throughput is inputs
    over the sum of those means: timed ops per second when every input ran
    equally often. The host's speed swings between two levels for seconds
    to minutes at a time; means move in proportion to the share of the run
    spent at each level, where a median per input or the fastest pass jumps
    whole from one level to the other."""
    passes = result["passes"]
    inputs = len(passes[0])
    means = sorted(
        statistics.fmean(p[i] for p in passes if i < len(p)) for i in range(inputs)
    )
    tail_pct = _tail_pct(inputs, tail_pct)
    metrics = {
        "ops_per_s": inputs / sum(means),
        "latency_p50_ms": statistics.median(means) * 1000,
        "latency_tail_ms": _nearest_rank(means, tail_pct) * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    ops = sum(map(len, passes))
    beyond = inputs - math.ceil(tail_pct / 100 * inputs)
    notes = {
        "ops_per_s": f"  ({ops} timed ops of {inputs} inputs in {sum(map(sum, passes)):.3f} s)",
        "latency_p50_ms": f"  (n={inputs} inputs, mean of {ops / inputs:.2f} ops each)",
        "latency_tail_ms": f"  (p{tail_pct:g}, n={inputs}, {beyond} beyond)",
        "setup_s": f"  (median of {len(setups)} fresh interpreters)",
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spnd benchmark (see bench/workloads.py)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spnd" / "__init__.py").is_file():
        print(f"error: no spnd package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = perf_counter() + TIME_LIMIT_S
    try:
        probes = [_worker(args, deadline, setup_only=True) for _ in range(SETUP_PROBES + 1)][1:]
        setup_wall, ready, result = _worker(args, deadline, setup_only=False)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [p[0] for p in probes] + [setup_wall]
    readies = [p[1] for p in probes] + [ready]

    ops, failed = result["ops"], result["failed"]
    passes = result["passes"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"timed passes {len(passes)} of {len(passes[0])} ops (last {len(passes[-1])}), pass seconds "
          + " ".join(f"{sum(p):.3f}" for p in passes))
    if args.trace:
        metrics_values, units = result["per_layer"], per_layer_units()
        metrics_values["setup.import_s"] = statistics.median(r["import_s"] for r in readies)
        metrics_values["setup.inputs_s"] = statistics.median(r["inputs_s"] for r in readies)
        notes = {}
    else:
        metrics_values, notes = _end_to_end(result, TAIL_PCT[args.workload], setups)
        units = END_TO_END_UNITS
    for name, value in metrics_values.items():
        print(f"{name} {value:.6g} {units[name]}{notes.get(name, '')}")
    print(f"fail_frac {failed / ops:.6g} share  ({failed}/{ops})")
    for message in result["failures"]:
        print(f"FAIL {message}")
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    if result["counts_mismatch"]:
        print(f"FLAG {result['counts_mismatch']}")
    if args.trace:
        print("trace files: " + ", ".join(result["trace_files"]))
    correct = failed == 0 and result["counts_mismatch"] is None
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics_values.items()}
    print(json.dumps({"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
