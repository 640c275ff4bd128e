"""A fingerprint of the approximation scheme's runs, probe by probe.

One sha256 covers every ``fptas_bcmfp_detailed`` outcome for the gate-3
instances of seeds 1-20 (edge_budget 8, cap_max 10**6, cost_max 10) at
eps 1/2 and 1/10: the solution, whether it is exact, the chosen ladder
level, and every probe in the order it ran (level, flow target, answer and
states). A change to the searches that moves one probe, or picks another
witness, fails here rather than only in the guarantee checks.
"""

import hashlib
from fractions import Fraction

from spnd import fptas_bcmfp_detailed, generate_sp

GOLDEN = "67cd31377f62068251aa7b45082cfe49335898a8d1bcc6db56201c1bcff64571"


def outcomes_digest(seeds=range(1, 21), epsilons=(Fraction(1, 2), Fraction(1, 10))) -> str:
    digest = hashlib.sha256()
    for eps in epsilons:
        for seed in seeds:
            instance = generate_sp(seed, edge_budget=8, cap_max=10**6, cost_max=10, problem="bcmfp")
            outcome = fptas_bcmfp_detailed(instance, eps)
            sol = outcome.solution
            probes = [(p.level, p.flow_target, p.yes, p.states) for p in outcome.probes]
            answer = (sorted(sol.purchased), sol.total_cost, sol.achieved_flow)
            record = (eps, seed, answer, outcome.exact, outcome.m_prime, probes)
            digest.update(repr(record).encode())
    return digest.hexdigest()


def test_fptas_outcomes_match_golden_digest():
    assert outcomes_digest() == GOLDEN
