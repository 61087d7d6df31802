"""Metric names, units and the arithmetic that turns runs and traces into them.

Stdlib only: the orchestrator imports this without importing the program.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Registered experiment ids of ``repro.experiments.runner.EXPERIMENTS``.
EXPERIMENT_IDS = (
    "ext_dynamics", "ext_stability", "ext_transfers", "figure1", "figure2",
    "figure3", "lemma4", "lemma5", "lemma6", "prop1", "prop2", "prop3",
    "prop4", "prop5",
)

#: End-to-end metrics every workload reports (``--trace 0``).
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics every workload reports (``--trace 1``); a layer that a
#: workload never calls reads 0, which is the bypass prediction made visible.
PER_LAYER = tuple(
    [(f"experiments.{eid}.busy_s", "s") for eid in EXPERIMENT_IDS]
    + [
        ("analysis.improvement.busy_s", "s"),
        ("analysis.improvement.stationary.busy_s", "s"),
        ("analysis.census.build.busy_s", "s"),
        ("engine.oracle.hit_ratio", "ratio"),
        ("engine.oracle.toggle_delta.calls", "count"),
        ("graphs.isomorphism.canonical.busy_s", "s"),
        ("graphs.isomorphism.canonical.calls", "count"),
        ("graphs.enumeration.busy_s", "s"),
        ("graphs.enumeration.graphs", "count"),
        ("engine.batch.busy_s", "s"),
        ("engine.batch.graphs", "count"),
        ("engine.batch.probes", "count"),
        ("engine.ucg.busy_s", "s"),
        ("engine.ucg.graphs", "count"),
        ("analysis.store.columns.self_s", "s"),
        ("analysis.store.merge.busy_s", "s"),
        ("analysis.store.save.busy_s", "s"),
        ("analysis.store.load.busy_s", "s"),
        ("analysis.store.verify.busy_s", "s"),
        ("engine.shardwork.shards", "count"),
        ("engine.shardwork.shard.busy_s", "s"),
        ("engine.shardwork.queue_wait_s", "s"),
        ("engine.shardwork.straggler_ratio", "ratio"),
        ("engine.shardwork.retries", "count"),
        ("analysis.scenarios.draw.busy_s", "s"),
        ("engine.columnar.stack_weights.busy_s", "s"),
        ("engine.columnar.stacked_mask.busy_s", "s"),
        ("engine.columnar.stacked_windows.busy_s", "s"),
        ("engine.columnar.probe_evals", "count"),
        ("engine.columnar.computed_bytes", "B"),
        ("engine.streaming.update.busy_s", "s"),
        ("service.http.server.mean_ms", "ms"),
        ("service.http.encode_write.self_s", "s/req"),
        ("service.http.encode.windows.self_s", "s/req"),
        ("service.http.response_bytes", "B/req"),
        ("service.http.inflight_max", "count"),
        ("service.batching.wait_s", "s/req"),
        ("service.batching.batch_size", "req/batch"),
        ("service.batching.coalesced_ratio", "ratio"),
        ("service.api.grid.busy_s", "s/req"),
        ("service.api.windows.busy_s", "s/req"),
        ("service.api.ucg_grid.busy_s", "s/req"),
        ("service.catalog.get.busy_s", "s/req"),
        ("analysis.store.grid_aggregates.busy_s", "s/req"),
        ("analysis.store.cache_hit_ratio", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)

#: Shard-task layers (one span per ``run_shards`` task, recorded in workers).
SHARD_LAYERS = ("analysis.store.columns", "analysis.ensembles.block")

QUERY_PATHS = ("/v1/query/grid", "/v1/query/windows")


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


#: Milliseconds ``probe_kernel()`` takes at the reference machine speed.
REFERENCE_PROBE_MS = 3.0


def probe_kernel(rounds: int = 2) -> int:
    """All-sources BFS on a fixed 64-vertex circulant graph, in plain Python.

    Shaped like the program's hot loops (dicts, lists, small ints) but
    independent of the program's code, so no change to it moves this.
    """
    n = 64
    adjacency = [((v + 1) % n, (v - 1) % n, (v + 5) % n, (v - 5) % n) for v in range(n)]
    total = 0
    for _ in range(rounds):
        for source in range(n):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                reached = []
                for u in frontier:
                    step = dist[u] + 1
                    for w in adjacency[u]:
                        if w not in dist:
                            dist[w] = step
                            reached.append(w)
                frontier = reached
            total += sum(dist.values())
    return total


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of already sorted samples."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def p99(sorted_values: Sequence[float]) -> Optional[Tuple[float, int]]:
    """``(p99, samples beyond it)``, or ``None`` with fewer than 10 beyond it."""
    rank = max(1, math.ceil(0.99 * len(sorted_values)))
    beyond = len(sorted_values) - rank
    return (float(sorted_values[rank - 1]), beyond) if beyond >= 10 else None


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def max_overlap(intervals: Iterable[Tuple[float, float]]) -> int:
    events = []
    for start, end in intervals:
        events.append((start, 1))
        events.append((end, -1))
    peak = level = 0
    for _time, step in sorted(events, key=lambda e: (e[0], e[1])):
        level += step
        peak = max(peak, level)
    return peak


# --------------------------------------------------------------------------- #
# Per-layer values of one traced operation
# --------------------------------------------------------------------------- #


class TraceView:
    """Read-only queries over a tracer dump (spans, totals, counts)."""

    def __init__(self, dump: dict, owner: Optional[int] = None) -> None:
        self.spans: List[dict] = dump["spans"]
        self.totals: Dict[str, list] = dump["totals"]
        self.counts: Dict[str, float] = dump["counts"]
        self.owner = owner

    def calls(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def own(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def count(self, name: str) -> float:
        return self.counts.get(name, 0)

    def named(self, *names: str, lo=-math.inf, hi=math.inf) -> List[dict]:
        return [
            s for s in self.spans
            if s["name"] in names and s["start"] >= lo and s["end"] <= hi
        ]


def shardwork_metrics(view: TraceView) -> Dict[str, float]:
    shards = view.named(*SHARD_LAYERS)
    runs = view.named("engine.shardwork.run")
    durations = [s["end"] - s["start"] for s in shards]
    # A worker waits from the start of its run_shards call (or the end of its
    # previous shard) until its next shard starts: dispatch and pickling gaps.
    waits = 0.0
    free_at: Dict[Tuple[float, int], float] = {}
    for shard in sorted(shards, key=lambda s: s["start"]):
        starts = [r["start"] for r in runs if r["start"] <= shard["start"] <= r["end"]]
        if not starts:
            continue
        key = (max(starts), shard["pid"])
        waits += shard["start"] - free_at.get(key, key[0])
        free_at[key] = shard["end"]
    mean = sum(durations) / len(durations) if durations else 0.0
    return {
        "engine.shardwork.shards": len(shards),
        "engine.shardwork.shard.busy_s": sum(durations),
        "engine.shardwork.queue_wait_s": waits,
        "engine.shardwork.straggler_ratio": max(durations) / mean if mean else 0.0,
        "engine.shardwork.retries": view.count("engine.shardwork.retries"),
    }


def op_layer_metrics(view: TraceView, op_start: float, op_end: float) -> Dict[str, float]:
    """Per-layer values of one traced paper / census / ensemble operation."""
    m: Dict[str, float] = {}
    for eid in EXPERIMENT_IDS:
        m[f"experiments.{eid}.busy_s"] = view.busy(f"experiments.{eid}")
    for name in (
        "analysis.improvement", "analysis.improvement.stationary",
        "analysis.census.build", "graphs.isomorphism.canonical",
        "graphs.enumeration", "engine.batch", "engine.ucg",
        "analysis.store.save", "analysis.store.load", "analysis.store.verify",
        "analysis.scenarios.draw", "engine.columnar.stack_weights",
        "engine.columnar.stacked_mask", "engine.columnar.stacked_windows",
        "engine.streaming.update",
    ):
        m[f"{name}.busy_s"] = view.busy(name)
    hits, misses = view.count("engine.oracle.hits"), view.count("engine.oracle.misses")
    m["engine.oracle.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["engine.oracle.toggle_delta.calls"] = view.calls("engine.oracle.toggle_delta")
    m["graphs.isomorphism.canonical.calls"] = view.calls("graphs.isomorphism.canonical")
    for name in (
        "graphs.enumeration.graphs", "engine.batch.graphs", "engine.batch.probes",
        "engine.ucg.graphs", "engine.columnar.probe_evals",
        "engine.columnar.computed_bytes",
    ):
        m[name] = view.count(name)
    m["analysis.store.columns.self_s"] = view.own("analysis.store.columns")
    # build_streamed's own time is everything outside run_shards: the merge.
    m["analysis.store.merge.busy_s"] = view.own("analysis.store.build_streamed")
    m.update(shardwork_metrics(view))
    top = [
        (s["start"], s["end"]) for s in view.spans
        if s["parent"] is None and s["pid"] == view.owner
    ]
    m["trace.coverage"] = union_length(top, op_start, op_end) / (op_end - op_start)
    return m


def prometheus_samples(text: str) -> Dict[Tuple[str, str], float]:
    """``{(metric, labels): value}`` from a Prometheus text exposition."""
    samples: Dict[Tuple[str, str], float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _sep, value = line.rpartition(" ")
        name, _brace, labels = head.partition("{")
        samples[(name, labels.rstrip("}"))] = float(value)
    return samples


def metric_sum(samples, name: str, label_filter: str = "") -> float:
    return sum(
        value for (metric, labels), value in samples.items()
        if metric == name and label_filter in labels
    )


def serve_layer_metrics(
    view: TraceView, before: dict, after: dict, lo: float, hi: float, requests: int
) -> Dict[str, float]:
    """Per-layer values of the traced load phase ``[lo, hi]`` of ``serve_n8``."""

    def grown(name: str, label_filter: str = "") -> float:
        return metric_sum(after, name, label_filter) - metric_sum(before, name, label_filter)

    def spent(*names: str, field: str = "busy") -> float:
        spans = view.named(*names, lo=lo, hi=hi)
        if field == "self":
            return sum(s["self"] for s in spans)
        return sum(s["end"] - s["start"] for s in spans)

    per_request = 1.0 / max(1, requests)
    dispatch = [
        s for s in view.named("service.http.dispatch", lo=lo, hi=hi)
        if s.get("path") in QUERY_PATHS
    ]
    writes = view.named("service.http.write", lo=lo, hi=hi)
    api = spent("service.api.grid", "service.api.windows", "service.api.ucg_grid")
    windows = sum(s["end"] - s["start"] for s in dispatch if s["path"] == QUERY_PATHS[1])
    served = sum(s["end"] - s["start"] for s in dispatch) + spent("service.http.write")
    seconds = sum(grown("repro_http_request_seconds_sum", f'path="{p}"') for p in QUERY_PATHS)
    observed = sum(grown("repro_http_request_seconds_count", f'path="{p}"') for p in QUERY_PATHS)
    batches = grown("repro_service_batch_size_count")
    batched = grown("repro_service_batch_size_sum")
    hits = grown("repro_cache_hits_total")
    misses = grown("repro_cache_misses_total")
    intervals = [(s["start"], s["end"]) for s in dispatch + writes]
    return {
        "service.http.server.mean_ms": 1000.0 * seconds / observed if observed else 0.0,
        "service.http.encode_write.self_s": (served - api) * per_request,
        "service.http.encode.windows.self_s": (
            (windows - spent("service.api.windows")) * per_request
        ),
        "service.http.response_bytes": sum(s["bytes"] for s in dispatch) * per_request,
        "service.http.inflight_max": max_overlap((s["start"], s["end"]) for s in dispatch),
        "service.batching.wait_s": spent("service.batching.submit", field="self") * per_request,
        "service.batching.batch_size": batched / batches if batches else 0.0,
        "service.batching.coalesced_ratio": (
            grown("repro_service_coalesced_requests_total") / batched if batched else 0.0
        ),
        "service.api.grid.busy_s": spent("service.api.grid") * per_request,
        "service.api.windows.busy_s": spent("service.api.windows") * per_request,
        "service.api.ucg_grid.busy_s": spent("service.api.ucg_grid") * per_request,
        "service.catalog.get.busy_s": spent("service.catalog.get") * per_request,
        "analysis.store.grid_aggregates.busy_s": (
            spent("analysis.store.grid_aggregates") * per_request
        ),
        "analysis.store.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.coverage": union_length(intervals, lo, hi) / (hi - lo),
    }
