"""repro.obs — the telemetry spine: metrics, spans, progress, export.

The package is dependency-free (histogram quantiles use a plain-float P²
sketch) and never imports :mod:`repro.engine`, :mod:`repro.analysis` or
:mod:`repro.service` — the engine imports *us* from its hot paths.

Quick tour::

    from repro import obs

    REQS = obs.counter("repro_requests_total", "Requests served")
    LAT = obs.histogram("repro_request_seconds", "Request latency")

    with obs.span("serve"):
        with LAT.time():
            REQS.inc()
            ...

    print(obs.to_prometheus())          # text exposition
    obs.write_metrics("metrics.json")   # JSON snapshot (spans included)

Worker piggyback (what ``parallel_map`` / ``run_shards`` do)::

    payload = obs.drain_telemetry()      # in the worker, after the chunk
    obs.merge_telemetry(payload)         # in the coordinator, exactly once

Kill-switch: ``REPRO_METRICS=0`` in the environment (or
:func:`set_metrics_enabled(False)`) makes every factory return shared
no-op objects and every live instrument refuse to record.
"""

from __future__ import annotations

import json
import os as _osmod
from typing import Optional

from .metrics import (  # noqa: F401
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    counter,
    gauge,
    get_registry,
    histogram,
    metrics_enabled,
    prometheus_from_snapshot,
    set_metrics_enabled,
    timed_kernel,
)
from .progress import ProgressReporter  # noqa: F401
from .tracing import (  # noqa: F401
    NOOP_SPAN,
    SpanTracer,
    get_tracer,
    render_span_tree,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_COUNTER",
    "NOOP_GAUGE",
    "NOOP_HISTOGRAM",
    "NOOP_SPAN",
    "ProgressReporter",
    "SpanTracer",
    "counter",
    "drain_telemetry",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "merge_telemetry",
    "metrics_enabled",
    "prometheus_from_snapshot",
    "record_artifact_io",
    "render_span_tree",
    "reset_telemetry",
    "set_metrics_enabled",
    "snapshot",
    "span",
    "timed_kernel",
    "to_json",
    "to_prometheus",
    "write_metrics",
]


def snapshot() -> dict:
    """Combined plain-data snapshot: metrics plus the span tree.

    Stamped with ``repro_version`` so exported telemetry records which
    library build produced it.
    """
    from .._version import __version__

    payload = get_registry().to_json()
    payload["spans"] = get_tracer().snapshot()
    payload["repro_version"] = __version__
    return payload


def to_json() -> dict:
    """Alias of :func:`snapshot` (mirrors the registry method name)."""
    return snapshot()


def to_prometheus() -> str:
    """Prometheus text exposition of the global registry."""
    return get_registry().to_prometheus()


def write_metrics(path: str) -> None:
    """Write the current telemetry to ``path``.

    ``*.json`` gets the full JSON snapshot (metrics + spans); any other
    suffix gets the Prometheus text exposition.
    """
    if str(path).endswith(".json"):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(to_prometheus())


def drain_telemetry() -> Optional[dict]:
    """Take all pending metric deltas and the span tree (worker side).

    Returns a picklable envelope for :func:`merge_telemetry`, or ``None``
    when nothing was recorded since the last drain (or telemetry is off).
    """
    metrics = get_registry().drain_deltas()
    spans = get_tracer().drain()
    if metrics is None and spans is None:
        return None
    return {"metrics": metrics, "spans": spans}


def merge_telemetry(payload: Optional[dict]) -> None:
    """Fold a :func:`drain_telemetry` envelope in (coordinator side)."""
    if not payload:
        return
    get_registry().merge_deltas(payload.get("metrics"))
    get_tracer().merge(payload.get("spans"))


def reset_telemetry() -> None:
    """Drop every instrument and span (tests, fresh benchmark runs)."""
    get_registry().clear()
    get_tracer().clear()


def _discard_inherited_telemetry() -> None:
    """Drop pending deltas in a freshly forked child.

    Forked pool workers inherit the parent registry *including* its
    undrained deltas; without this hook the first drain in each worker
    would ship the parent's pending work back to the parent, which would
    merge its own telemetry a second time.  Spawned workers start clean
    and are unaffected.
    """
    try:
        get_registry().drain_deltas()
        get_tracer().drain()
    except Exception:  # pragma: no cover - must never break a fork
        pass


if hasattr(_osmod, "register_at_fork"):
    _osmod.register_at_fork(after_in_child=_discard_inherited_telemetry)


def _path_bytes(path: str) -> int:
    import os

    if os.path.isdir(path):
        return sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, files in os.walk(path)
            for name in files
        )
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def record_artifact_io(op: str, store: str, path: str, seconds: float) -> None:
    """Tally one artifact ``save``/``load``: count, bytes on disk, seconds.

    Shared by the census/delta/weighted store persistence layers (the
    ``store`` label distinguishes them).  Bytes are measured from the
    written/read path, so the directory format counts all its column
    files.  No-op when telemetry is disabled.
    """
    if not metrics_enabled():
        return
    direction = "written" if op == "save" else "read"
    counter(
        f"repro_artifact_{op}s_total", f"Artifact {op} operations",
        store=store,
    ).inc()
    counter(
        f"repro_artifact_bytes_{direction}_total",
        f"Artifact bytes {direction} on disk",
        store=store,
    ).inc(_path_bytes(path))
    histogram(
        f"repro_artifact_{op}_seconds", f"Wall seconds per artifact {op}",
        store=store,
    ).observe(seconds)
