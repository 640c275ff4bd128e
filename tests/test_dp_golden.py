"""A fingerprint of the DP's tables and answers.

One sha256 covers every node's cost and split bytes, and every query
answer, for the gate-1 instances of seeds 1-20 (edge_budget 10, cap_max 6,
cost_max 10): the full build and the pinned build at every flow value. The
digest predates the blocked split scan (``_split_scan``, which every
parallel node goes through), so a speed-up of the DP that moves one cost,
one tie-broken split or one witness fails here rather than in a sampled
comparison.
"""

import hashlib

from spnd import build_table, decompose, generate_sp, upper_bound_flow

GOLDEN = "50d5652e065c6a06d0d107872cf1771791310bf035ce0b3b84d474e88bc5c4c2"


def _feed_tables(digest, table):
    for nid in sorted(table.tables):
        nt = table.tables[nid]
        digest.update(f"{nid} {nt.cost.shape} {nt.cost.dtype}".encode())
        digest.update(nt.cost.tobytes())
        if nt.split is not None:
            digest.update(nt.split.tobytes())


def _feed_answer(digest, table, v):
    cost, edges = table.query(v)
    digest.update(repr((v, cost, None if edges is None else sorted(edges))).encode())


def tables_digest(seeds=range(1, 21)) -> str:
    digest = hashlib.sha256()
    for seed in seeds:
        instance = generate_sp(seed, edge_budget=10, cap_max=6, cost_max=10)
        tree = decompose(instance.graph)
        full = build_table(tree, upper_bound_flow(instance))
        _feed_tables(digest, full)
        for v in range(full.f_bound + 1):
            _feed_answer(digest, full, v)
            pinned = build_table(tree, v, pin=v)
            _feed_tables(digest, pinned)
            _feed_answer(digest, pinned, v)
    return digest.hexdigest()


def test_tables_match_golden_digest():
    assert tables_digest() == GOLDEN
