"""Tests of the benchmark's own answer checks and metric declarations.

    python3 -m pytest bench/test_checker.py -q

A wrong answer must be caught: each workload's check rejects an answer with
one purchased edge dropped, and the timed loop counts such answers as
failures, so the run's fail_frac rises above 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, CheckFailure, Rejected  # noqa: E402

# Every checker: fptas-ladder's and each exact-mix cycle's.
CHECKED = {"fptas-ladder": WORKLOADS["fptas-ladder"], **WORKLOADS["exact-mix"].cycles}


def _drop_costliest(sol, instance):
    """The same answer with its most expensive purchased edge removed."""
    by_id = {e.id: e for e in instance.graph.edges}
    victim = max(sorted(sol.purchased), key=lambda eid: by_id[eid].cost)
    assert by_id[victim].cost > 0, "pick an answer that pays for an edge"
    return replace(sol, purchased=sol.purchased - {victim})


def _solution(name, answer):
    """The purchase inside an op's answer (for tradeoff-sweep, at demand F)."""
    if name == "tradeoff-sweep":
        return answer["demand"][-1][0]
    if name == "fptas-ladder":
        return answer.solution
    return answer


def _corrupt(name, item, answer):
    bad = _drop_costliest(_solution(name, answer), item.instance)
    if name == "tradeoff-sweep":
        plan = answer["demand"][-1][1]
        return dict(answer, demand=answer["demand"][:-1] + [(bad, plan)])
    if name == "fptas-ladder":
        return replace(answer, solution=bad)
    return bad


def _pick(name, items):
    """The first input whose right answer buys an edge of positive cost."""
    workload = CHECKED[name]
    for item in items:
        if item.slot in ("k4", "upgrades", "no-path"):
            continue
        answer = workload.op(item)
        edges = {e.id: e for e in item.instance.graph.edges}
        if any(edges[eid].cost > 0 for eid in _solution(name, answer).purchased):
            return item, answer
    raise AssertionError("no input buys a paid edge")


@pytest.fixture(scope="module", params=sorted(CHECKED))
def case(request):
    name = request.param
    items = CHECKED[name].inputs(1)[:12]
    return name, *_pick(name, items)


def test_right_answer_passes(case):
    name, item, answer = case
    CHECKED[name].check(item, answer)


def test_dropped_edge_is_caught(case):
    name, item, answer = case
    with pytest.raises(CheckFailure):
        CHECKED[name].check(item, _corrupt(name, item, answer))


def test_exact_mix_routes_each_input_to_its_cycle():
    mix = WORKLOADS["exact-mix"]
    items = mix.inputs(1)
    assert len(items) == sum(c.working_set for c in mix.cycles.values())
    assert {i.cycle for i in items[:10]} == set(mix.cycles)  # evenly interleaved
    for name in ("tradeoff-sweep", "large-sparse"):
        item, answer = _pick(name, [i for i in items if i.cycle == name][:12])
        mix.check(item, mix.op(item))
        with pytest.raises(CheckFailure):
            mix.check(item, _corrupt(name, item, answer))


def test_k4_must_be_rejected():
    workload = CHECKED["large-sparse"]
    item = next(i for i in workload.inputs(1) if i.slot == "k4")
    answer = workload.op(item)
    assert isinstance(answer, Rejected) and answer.tried_pairs > 0
    workload.check(item, answer)
    sp_item, sp_answer = _pick("large-sparse", workload.inputs(1)[:4])
    with pytest.raises(CheckFailure):
        workload.check(item, sp_answer)
    with pytest.raises(CheckFailure):
        workload.check(sp_item, Rejected(1))


class _Corrupting:
    """A workload whose ops return answers with one purchased edge dropped."""

    def __init__(self, name):
        self.name = name
        self.inner = CHECKED[name]

    def op(self, item):
        return _corrupt(self.name, item, self.inner.op(item))

    def check(self, item, answer):
        self.inner.check(item, answer)


def test_corrupted_answers_raise_fail_frac(case):
    name, item, answer = case
    run = worker.measure(_Corrupting(name), [item], 0.05)
    assert run["failed"] == run["ops"] > 1  # fail_frac = 1, timed passes included
    run = worker.measure(CHECKED[name], [item], 0.05)
    assert run["failed"] == 0 and run["ops"] == 1 + len(run["passes"])


def test_timed_answer_that_differs_from_the_first_pass_fails(case):
    name, item, answer = case
    first = [(answer, None, None)]
    passes, _, failures = worker.timed_loop(_Corrupting(name), [item], first, 0.05)
    assert len(failures) == sum(map(len, passes)) > 0


def test_inputs_repeat_for_a_seed():
    workload = WORKLOADS["exact-mix"]
    first = [i.text for i in workload.inputs(5)[:20]]
    assert first == [i.text for i in workload.inputs(5)[:20]]
    assert first != [i.text for i in workload.inputs(6)[:20]]


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_units()
