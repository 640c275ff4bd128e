"""Fingerprints of the approximation scheme's runs: answers, and probes.

Every ``fptas_bcmfp_detailed`` outcome for the gate-3 instances of seeds
1-20 (edge_budget 8, cap_max 10**6, cost_max 10) at eps 1/2 and 1/10 feeds
two sha256 digests:

- the answer digest covers the solution, whether it is exact, and the chosen
  ladder level. A change to the searches that picks another witness or
  level fails here.
- the probe digest covers every probe in the order it ran (level, flow
  target, answer and states). It moves whenever the probe sequence does,
  even if every answer stays the same.
"""

import hashlib
from fractions import Fraction

import pytest

from spnd import fptas_bcmfp_detailed, generate_sp

ANSWER_GOLDEN = "29ff598c5d26e2d9795bbd093d25f9c8e7e4f34ae02ed16f747f6f94e33031ed"
PROBE_GOLDEN = "59287cfc14984f78eaeb92caf7ca5a229f2c7f926832121ea00559f0d9ad466c"


def outcome_digests(seeds=range(1, 21), epsilons=(Fraction(1, 2), Fraction(1, 10))):
    answers, probes = hashlib.sha256(), hashlib.sha256()
    for eps in epsilons:
        for seed in seeds:
            instance = generate_sp(seed, edge_budget=8, cap_max=10**6, cost_max=10, problem="bcmfp")
            outcome = fptas_bcmfp_detailed(instance, eps)
            sol = outcome.solution
            answer = (sorted(sol.purchased), sol.total_cost, sol.achieved_flow)
            answers.update(repr((eps, seed, answer, outcome.exact, outcome.m_prime)).encode())
            records = [(p.level, p.flow_target, p.yes, p.states) for p in outcome.probes]
            probes.update(repr((eps, seed, records)).encode())
    return answers.hexdigest(), probes.hexdigest()


@pytest.fixture(scope="module")
def digests():
    return outcome_digests()


def test_fptas_outcomes_match_golden_digest(digests):
    assert digests[0] == ANSWER_GOLDEN


def test_fptas_probes_match_golden_digest(digests):
    assert digests[1] == PROBE_GOLDEN
