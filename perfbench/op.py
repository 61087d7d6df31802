"""One cold operation of a benchmark workload, in its own interpreter.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 perfbench/op.py <paper|census_n8|ensemble_n7|serve_build|serve_check> \
        --seed S --work DIR --out RESULT.json [--trace] [--setup-only]

The orchestrator (``run.py``) starts one of these per operation, so no
enumeration, census, oracle or canonical-form cache survives from one
operation to the next.  The result file holds the ``perf_counter`` instants
of set-up end and of the timed phase (the clock is shared by every process
on the machine), CPU seconds of the timed phase including pool workers,
peak RSS, the correctness gates (``attempted``/``failed``) and, with
``--trace``, the per-layer values of the traced timed phase.  Correctness
checks run after the timed phase and are not timed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import Tracer, install  # noqa: E402
from report import TraceView, op_layer_metrics  # noqa: E402

clock = time.perf_counter
JOBS = os.cpu_count() or 1
PAPER_CLAIMS = 93
ENSEMBLE_DRAWS = 1000
ENSEMBLE_CHECKED = 8


def reap_children(timeout: float = 30.0) -> None:
    """Wait until every pool worker has exited, so its CPU time is counted."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def cpu_seconds() -> float:
    reap_children()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Timed:
    """The timed phase: wall instants, CPU, and the optional layer trace."""

    def __init__(self, args, out: dict) -> None:
        self.args = args
        self.out = out
        self.tracer = None
        if args.trace:
            spool = os.path.join(args.work, f"spool-{os.getpid()}")
            os.makedirs(spool, exist_ok=True)
            self.tracer = Tracer(f"{args.kind}-{args.seed}", spool)
            install(self.tracer)

    def __enter__(self):
        self.cpu = cpu_seconds()
        self.out["op_start"] = clock()
        return self

    def __exit__(self, *exc) -> None:
        self.out["op_end"] = clock()
        self.out["cpu_op"] = cpu_seconds() - self.cpu
        if self.tracer is not None and exc[0] is None:
            self.tracer.finish()
            view = TraceView(self.tracer.dump(), owner=os.getpid())
            self.out["layers"] = op_layer_metrics(
                view, self.out["op_start"], self.out["op_end"]
            )


def setup_done(out: dict) -> None:
    out["setup_end"] = clock()


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


def paper(args, out: dict) -> None:
    from repro.experiments import run_all

    setup_done(out)
    if args.setup_only:
        return
    with Timed(args, out):
        results = run_all(seed=args.seed)
    claims = [claim for result in results for claim in result.claims]
    out["attempted"] = PAPER_CLAIMS
    out["failed"] = sum(not c.passed for c in claims) + max(0, PAPER_CLAIMS - len(claims))
    out["work"] = len(claims)
    out["work_s"] = out["op_end"] - out["op_start"]


def census_n8(args, out: dict) -> None:
    from repro.analysis.store import CensusStore
    from repro.graphs import count_connected_graphs

    setup_done(out)
    if args.setup_only:
        return
    path = os.path.join(args.work, f"census_n8-{os.getpid()}")
    with Timed(args, out):
        built = CensusStore.build_streamed(8, include_ucg=True, jobs=JOBS)
        out["work_s"] = clock() - out["op_start"]
        built.save(path, format="dir")
        loaded = CensusStore.load(path, mmap=True)
        verdict = loaded.verify()
    checksum = loaded.content_checksum()
    gates = {
        "verify_ok": bool(verdict["ok"]),
        "checksum_roundtrip": checksum == built.content_checksum(),
        "classes": len(loaded) == count_connected_graphs(8),
        "checksum_stable": checksum == reference_checksum(args.ref, checksum),
    }
    out["gates"] = gates
    out["attempted"] = len(gates)
    out["failed"] = sum(not ok for ok in gates.values())
    out["work"] = len(loaded)
    out["checksum"] = checksum
    out["artifact_bytes"] = sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


def reference_checksum(ref_dir: str, checksum: str) -> str:
    """The census checksum first seen in this checkout (recorded if absent)."""
    path = os.path.join(ref_dir, "census_n8.checksum")
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(checksum)
        os.replace(tmp, path)
    with open(path, encoding="utf-8") as handle:
        return handle.read().strip()


def ensemble_n7(args, out: dict) -> None:
    import numpy as np
    from repro.analysis import ensembles
    from repro.analysis.delta_store import cached_delta_store
    from repro.analysis.scenarios import build_scenario
    from repro.analysis.weighted_store import WeightedStore

    delta = cached_delta_store(n=7, jobs=JOBS)
    setup_done(out)
    if args.setup_only:
        return
    with Timed(args, out):
        result = ensembles.run_ensemble(
            "random_weights", n=7, draws=ENSEMBLE_DRAWS, grid=12,
            seed=args.seed, jobs=JOBS, delta=delta,
        )
    failed = 0 if result.counts.shape == (ENSEMBLE_DRAWS, len(result.ts)) else 1
    for k in random.Random(args.seed).sample(range(ENSEMBLE_DRAWS), ENSEMBLE_CHECKED):
        scenario = build_scenario("random_weights", 7, seed=result.seeds[k])
        single = WeightedStore.from_delta(
            delta, scenario.model, scenario_params=dict(scenario.params)
        )
        if not np.array_equal(result.counts[k], np.asarray(single.stable_counts(result.ts))):
            failed += 1
    out["attempted"] = 1 + ENSEMBLE_CHECKED
    out["failed"] = failed
    out["work"] = result.draws
    out["work_s"] = out["op_end"] - out["op_start"]


def serve_build(args, out: dict) -> None:
    """Set-up of ``serve_n8``: the two served artifacts, built from scratch."""
    from repro.analysis.store import CensusStore

    root = os.path.join(args.work, "artifacts")
    CensusStore.build_streamed(8, include_ucg=False, jobs=JOBS).save(
        os.path.join(root, "census_n8"), format="dir"
    )
    CensusStore.build_streamed(7, include_ucg=True, jobs=JOBS).save(
        os.path.join(root, "census_n7_ucg"), format="dir"
    )
    setup_done(out)


def serve_check(args, out: dict) -> None:
    """Every distinct served response against the in-process QueryAPI answer."""
    from repro.service import ArtifactCatalog, QueryAPI

    api = QueryAPI(ArtifactCatalog(root=os.path.join(args.work, "artifacts"), mmap=True))
    with open(args.cases, encoding="utf-8") as handle:
        cases = json.load(handle)
    mismatched = []
    for index, (path, body, response) in enumerate(cases):
        request = json.loads(body)
        if path == "/v1/query/grid":
            expected = api.grid_aggregates(
                request["artifact"], request["alphas"], request.get("game", "bcg")
            )
        else:
            expected = api.windows(request["artifact"], game=request.get("game", "bcg"))
        if json.dumps(expected, sort_keys=True) != response:
            mismatched.append(index)
    out["checked"] = len(cases)
    out["mismatched"] = mismatched


WORKLOADS = {
    "paper": paper,
    "census_n8": census_n8,
    "ensemble_n7": ensemble_n7,
    "serve_build": serve_build,
    "serve_check": serve_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--ref", help="directory holding cross-run references")
    parser.add_argument("--cases", help="serve_check: requests and responses to check")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out: dict = {"kind": args.kind, "seed": args.seed}
    WORKLOADS[args.kind](args, out)
    out["peak_rss_mb"] = peak_rss_mb()
    try:
        import numpy

        out["numpy"] = numpy.__version__
    except ImportError:
        out["numpy"] = None
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
