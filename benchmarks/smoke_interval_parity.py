"""CI smoke: interval-answered BCG grids ≡ the per-α CSR scan, served too.

Builds the BCG-only census at ``--n`` (default 8, ~3 s) and checks that

* :meth:`CensusStore.stable_mask` — answered from the per-class exact
  stability intervals of :func:`repro.engine.columnar.bcg_stability_intervals`
  — is bit-identical to the oracle :func:`repro.engine.columnar.bcg_stable_mask`
  on a dense grid, on every interval endpoint ±1 and ±2 ulp, and on
  ``±0``, ``±inf``, ``NaN`` and negative costs;
* ``CensusStore.grid_aggregates`` equals aggregates computed from the
  oracle mask, on that whole grid family;
* ``POST /v1/query/grid`` on a server started with ``start_in_thread``
  returns exactly the bytes of the oracle-path aggregates, for the finite
  part of the family and for seeded random 24-point grids.

Run::

    PYTHONPATH=src python benchmarks/smoke_interval_parity.py [--n 8]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import tempfile
import time
import urllib.request
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.analysis.store import CensusStore, clear_store_cache  # noqa: E402
from repro.core.efficiency import efficient_social_cost  # noqa: E402
from repro.engine.columnar import (  # noqa: E402
    bcg_stability_intervals,
    bcg_stable_mask,
)
from repro.service import ArtifactCatalog, QueryAPI, start_in_thread  # noqa: E402
from repro.service.http import MAX_GRID_POINTS  # noqa: E402

SPECIAL_ALPHAS = [
    0.0, -0.0, math.inf, -math.inf, math.nan,
    1e-300, -1e-300, 5e-324, 1e-12, -1e-12, -1.0, -7.5, 1e308,
]


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def grid_family(A, R, n):
    """Dense grid, every finite endpoint ±0/1/2 ulp, then the specials."""
    ends = np.concatenate([A, R])
    ends = ends[np.isfinite(ends)]
    points = [ends, np.linspace(-2.0, 2.0 * n * n + 4, 1000)]
    for direction in (math.inf, -math.inf):
        step = ends
        for _ in range(2):
            step = np.nextafter(step, direction)
            points.append(step)
    return np.unique(np.concatenate(points)).tolist() + SPECIAL_ALPHAS


def oracle_aggregates(store, alphas):
    """Grid aggregates from the oracle mask, costing every class per α."""
    columns = (store._rem_min_column(), store.add_lo, store.add_hi, store.add_indptr)
    mask = bcg_stable_mask(*columns, alphas)
    edges = store.num_edges.astype(np.float64)
    result = {"counts": [], "average_poa": [], "worst_poa": [], "average_links": []}
    for column, alpha in enumerate(alphas):
        selected = mask[:, column]
        count = int(selected.sum())
        result["counts"].append(count)
        if count == 0:
            for key in ("average_poa", "worst_poa", "average_links"):
                result[key].append(float("nan"))
            continue
        optimum = efficient_social_cost(store.n, float(alpha), "bcg")
        cost = (2.0 * float(alpha)) * edges + store.dist_total
        poa = (np.ones_like(cost) if optimum == 0 else cost / optimum)[selected]
        total = 0
        for value in poa.tolist():
            total = total + value
        result["average_poa"].append(total / count)
        result["worst_poa"].append(float(poa.max()))
        links = int(store.num_edges[selected].sum(dtype=np.int64))
        result["average_links"].append(links / count)
    return mask, result


def served_bytes(port, artifact, alphas):
    body = json.dumps({"artifact": artifact, "alphas": alphas, "game": "bcg"})
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/query/grid",
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        check(response.status == 200, f"grid request answered {response.status}")
        return response.read()


def expected_bytes(aggregates, alphas):
    payload = dict(aggregates, alphas=[float(a) for a in alphas], game="bcg")
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--grids", type=int, default=20, help="random 24-point grids")
    args = parser.parse_args(argv)
    # inf / inf costs at α = ±inf or 1e308 (also on the server's threads)
    warnings.filterwarnings("ignore", category=RuntimeWarning)

    start = time.perf_counter()
    store = CensusStore.build(args.n, include_ucg=False, jobs=args.jobs)
    built = time.perf_counter() - start

    start = time.perf_counter()
    A, R = bcg_stability_intervals(
        store._rem_min_column(), store.add_lo, store.add_hi, store.add_indptr
    )
    derived = time.perf_counter() - start
    family = grid_family(A, R, args.n)
    oracle_mask, oracle = oracle_aggregates(store, family)
    mismatches = int((store.stable_mask(family, "bcg") != oracle_mask).sum())
    check(mismatches == 0, f"{mismatches} mask entries differ from the oracle")
    got = store.grid_aggregates(family, "bcg")
    check(
        json.dumps(got, sort_keys=True) == json.dumps(oracle, sort_keys=True),
        "grid_aggregates differ from the oracle-path aggregates",
    )

    rng = random.Random(12)
    finite = [a for a in family if math.isfinite(a)]
    grids = [
        finite[i:i + MAX_GRID_POINTS] for i in range(0, len(finite), MAX_GRID_POINTS)
    ]
    grids += [
        [math.exp(rng.uniform(math.log(0.3), math.log(2.0 * args.n ** 2)))
         for _ in range(24)]
        for _ in range(args.grids)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-smoke-intervals-") as tmp:
        artifact = f"census{args.n}.npz"
        store.save(os.path.join(tmp, artifact))
        clear_store_cache()
        server, thread = start_in_thread(api=QueryAPI(ArtifactCatalog(root=tmp)))
        try:
            for alphas in grids:
                _mask, reference = oracle_aggregates(store, alphas)
                check(
                    served_bytes(server.port, artifact, alphas)
                    == expected_bytes(reference, alphas),
                    f"served bytes differ on a {len(alphas)}-point grid",
                )
        finally:
            server.shutdown()
            thread.join(timeout=10)
            clear_store_cache()

    print(
        f"OK: n={args.n}, {len(store)} classes built in {built:.1f} s; intervals "
        f"derived in {derived * 1e3:.1f} ms; masks ≡ oracle on {len(family)} "
        f"points; {len(grids)} served grids byte-identical to the oracle path"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
