"""CI smoke: vectorised UCG engine ≡ orientation backtracking, float-exactly.

Runs the batched, orbit-pruned UCG engine (:func:`repro.engine.ucg_alpha_sets`
and :func:`repro.engine.weighted_ucg_t_sets`) over **every** connected
isomorphism class up to ``--max-n`` vertices and asserts the resulting
α-interval sets are endpoint-for-endpoint float-identical to the per-graph
orientation backtracking references
(:func:`repro.core.unilateral.ucg_nash_alpha_set` /
:func:`repro.costmodels.stability.weighted_ucg_nash_t_set`).  Also pins the
degenerate conventions (edgeless → ``[(inf, inf)]``, disconnected with
edges → empty) and the orbit-pruning on/off equivalence.

The backtracking is too slow to cover every class beyond ``n = 6``, so at
``--max-n + 1`` only every 16th class (in ``enumerate_connected_graphs``
order) is checked against it — 54 of the 853 classes at ``n = 7``.  On top
of that, ``--digest N`` pins the engine's whole scalar output at ``n = 7``
and ``n = 8``: the sha256 of ``json.dumps`` of every class's
``[[lo, hi], ...]`` list, in ``enumerate_connected_graphs(N)`` order, must
equal the stored value.

Run::

    PYTHONPATH=src python benchmarks/smoke_ucg_parity.py [--max-n 6] \
        [--digest 7 --digest 8]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis.scenarios import build_scenario
from repro.core.unilateral import ucg_nash_alpha_set
from repro.costmodels.stability import weighted_ucg_nash_t_set
from repro.engine import ucg_alpha_sets, weighted_ucg_t_sets
from repro.graphs import Graph, empty_graph, enumerate_connected_graphs


def endpoints(interval_set):
    return [(iv.lo, iv.hi) for iv in interval_set.intervals]


def fresh(graph):
    """Same topology, new instance — no shared memo between the two paths."""
    return Graph(graph.n, graph.sorted_edges())


#: One class in this many is checked against the backtracking at max-n + 1.
SAMPLE_STRIDE = 16

#: Scalar engine output digests for the sizes the backtracking cannot reach.
PINNED_DIGESTS = {
    7: "6165f4b71390a1c0950319ffd52b5a928f75c795f405404831481ce5c2f2c087",
    8: "81f234dbca6223298cee9261551f378a5cd7e0cdbfad6f7ed3493ad1e4ecd13a",
}


def interval_digest(n):
    """sha256 of every connected class's α-set endpoints at size ``n``."""
    graphs = [fresh(g) for g in enumerate_connected_graphs(n)]
    payload = json.dumps(
        [[list(pair) for pair in endpoints(s)] for s in ucg_alpha_sets(graphs)]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--weighted-n", type=int, default=5)
    parser.add_argument(
        "--digest",
        type=int,
        action="append",
        default=[],
        choices=sorted(PINNED_DIGESTS),
        help="check the pinned scalar output digest at this n (repeatable)",
    )
    args = parser.parse_args(argv)

    total = 0
    start = time.perf_counter()
    for n in range(1, args.max_n + 1):
        graphs = enumerate_connected_graphs(n)
        engine_sets = ucg_alpha_sets([fresh(g) for g in graphs])
        for graph, engine_set in zip(graphs, engine_sets):
            reference = ucg_nash_alpha_set(fresh(graph))
            assert endpoints(engine_set) == endpoints(reference), (
                f"scalar UCG divergence at n={n}: {graph.sorted_edges()} "
                f"engine={endpoints(engine_set)} reference={endpoints(reference)}"
            )
        no_orbits = ucg_alpha_sets([fresh(g) for g in graphs], use_orbits=False)
        forced = ucg_alpha_sets([fresh(g) for g in graphs], use_orbits=True)
        for a, b in zip(no_orbits, forced):
            assert endpoints(a) == endpoints(b), "orbit pruning changed a result"
        total += len(graphs)
        print(f"scalar n={n}: {len(graphs)} classes float-exact")

    n = args.max_n + 1
    graphs = enumerate_connected_graphs(n)
    engine_sets = ucg_alpha_sets([fresh(g) for g in graphs])
    sample = range(0, len(graphs), SAMPLE_STRIDE)
    for index in sample:
        reference = ucg_nash_alpha_set(fresh(graphs[index]))
        assert endpoints(engine_sets[index]) == endpoints(reference), (
            f"scalar UCG divergence at n={n}: {graphs[index].sorted_edges()}"
        )
    total += len(sample)
    print(f"scalar n={n}: {len(sample)} sampled classes float-exact")

    # Degenerate conventions the engine must reproduce, not repair.
    for n in (2, 4):
        (edgeless,) = ucg_alpha_sets([empty_graph(n)])
        assert endpoints(edgeless) == [(float("inf"), float("inf"))]
    (disconnected,) = ucg_alpha_sets([Graph(4, [(0, 1)])])
    assert endpoints(disconnected) == []

    n = args.weighted_n
    graphs = enumerate_connected_graphs(n)
    for name in ("random_weights", "two_tier_isp"):
        model = build_scenario(name, n, seed=2).model
        engine_sets = weighted_ucg_t_sets([fresh(g) for g in graphs], model)
        for graph, engine_set in zip(graphs, engine_sets):
            reference = weighted_ucg_nash_t_set(graph, model)
            assert endpoints(engine_set) == endpoints(reference), (
                f"weighted UCG divergence ({name}, n={n}): {graph.sorted_edges()}"
            )
        total += len(graphs)
        print(f"weighted {name} n={n}: {len(graphs)} classes float-exact")

    for n in args.digest:
        digest = interval_digest(n)
        assert digest == PINNED_DIGESTS[n], (
            f"scalar UCG digest changed at n={n}: {digest} "
            f"!= pinned {PINNED_DIGESTS[n]}"
        )
        print(f"scalar n={n}: digest matches {digest[:12]}…")

    elapsed = time.perf_counter() - start
    print(f"OK: {total} interval sets engine ≡ backtracking in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
