"""Layer tracing for the benchmark's traced runs, installed from outside the program.

Every wrapper here is bound at the module or class attribute through which
the program looks the layer up, so no file under ``src/`` changes.  Install
the wrappers before any process pool forks: forked workers inherit them,
time the calls they make, and append their spans to a spool directory at
the end of every shard task (``Tracer.flush``), which the owning process
merges afterwards.

A wrapped call is a *frame* on a per-thread stack.  On exit its duration is
added to the layer's busy time, charged to the enclosing frame as child
time, and the layer's self time is its duration minus that child time.
Coarse layers also keep one span record per call (name, start, end, parent,
run id, pid); hot layers (canonical forms, enumeration steps, kernels) only
keep tallies, which is what keeps the tracing overhead small.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    """Spans and per-layer tallies of one process, spooled from pool workers."""

    def __init__(self, run_id: str, spool_dir: Optional[str] = None) -> None:
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.owner = os.getpid()
        self._probes: List[Callable[[], Dict[str, float]]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.spans: List[dict] = []
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, busy, self]
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._baselines = [probe() for probe in self._probes]

    # ------------------------------------------------------------------ #

    def add_probe(self, probe: Callable[[], Dict[str, float]]) -> None:
        """Register cumulative program counters; their growth becomes counts."""
        self._probes.append(probe)
        self._baselines.append(probe())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, keep: bool) -> list:
        stack = self._stack()
        parent = stack[-1][3] if stack else None
        frame = [name, clock(), 0.0, next(self._ids), keep, parent]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        name, start, child, ident, keep, parent = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self._account(name, duration, duration - child)
        if keep:
            self._keep(name, start, end, duration - child, ident, parent)

    def record(self, name: str, start: float, end: float, **extra) -> None:
        """A standalone span (async code, where a per-thread stack is wrong)."""
        self._account(name, end - start, end - start)
        self._keep(name, start, end, end - start, next(self._ids), None, **extra)

    def _account(self, name: str, busy: float, own: float) -> None:
        with self._lock:
            tally = self.totals.get(name)
            if tally is None:
                tally = self.totals[name] = [0, 0.0, 0.0]
            tally[0] += 1
            tally[1] += busy
            tally[2] += own

    def _keep(self, name, start, end, own, ident, parent, **extra) -> None:
        pid = os.getpid()
        span = {
            "name": name,
            "start": start,
            "end": end,
            "self": own,
            "id": f"{pid}:{ident}",
            "parent": None if parent is None else f"{pid}:{parent}",
            "run": self.run_id,
            "pid": pid,
        }
        span.update(extra)
        with self._lock:
            self.spans.append(span)

    def _collect_probes(self) -> None:
        for index, probe in enumerate(self._probes):
            now = probe()
            for key, value in now.items():
                grown = value - self._baselines[index].get(key, 0)
                if grown:
                    self.count(key, grown)
            self._baselines[index] = now

    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """In a pool worker: append everything recorded so far to the spool."""
        if os.getpid() == self.owner or self.spool_dir is None:
            return
        self._collect_probes()
        with self._lock:
            payload = {"spans": self.spans, "totals": self.totals, "counts": self.counts}
            self.spans, self.totals, self.counts = [], {}, {}
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")

    def finish(self) -> None:
        """In the owner: collect probes and merge every spooled worker record."""
        self._collect_probes()
        if self.spool_dir is None or not os.path.isdir(self.spool_dir):
            return
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            with open(os.path.join(self.spool_dir, entry), encoding="utf-8") as handle:
                for line in handle:
                    self.merge(json.loads(line))

    def merge(self, payload: dict) -> None:
        self.spans.extend(payload.get("spans", []))
        for name, (calls, busy, own) in payload.get("totals", {}).items():
            tally = self.totals.setdefault(name, [0, 0.0, 0.0])
            tally[0] += calls
            tally[1] += busy
            tally[2] += own
        for name, amount in payload.get("counts", {}).items():
            self.counts[name] = self.counts.get(name, 0) + amount

    def dump(self) -> dict:
        return {"spans": self.spans, "totals": self.totals, "counts": self.counts}


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #


def _timed(tracer: Tracer, name, fn, keep: bool, after=None, flush: bool = False):
    """``fn`` timed as layer ``name`` (a string, or a callable of the call's args)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name(args, kwargs) if callable(name) else name, keep)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if after is not None:
            after(tracer, args, kwargs, result)
        if flush:
            tracer.flush()
        return result

    return wrapper


class _TimedIterator:
    """Times every ``next()`` of a generator as one call of its layer."""

    def __init__(self, tracer: Tracer, name: str, items_name: str, iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._items_name = items_name
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter(self._name, False)
        try:
            item = next(self._iterator)
        finally:
            self._tracer.leave(frame)
        self._tracer.count(self._items_name)
        return item


def _rebind(original, replacement) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    rebound = 0
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                rebound += 1
    return rebound


def wrap_function(tracer, module: str, attr: str, name, keep=False, after=None, flush=False):
    original = getattr(importlib.import_module(module), attr)
    if _rebind(original, _timed(tracer, name, original, keep, after, flush)) == 0:
        raise RuntimeError(f"{module}.{attr} is bound nowhere")


def wrap_generator(tracer, module: str, attr: str, name: str, items_name: str):
    original = getattr(importlib.import_module(module), attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _TimedIterator(tracer, name, items_name, original(*args, **kwargs))

    _rebind(original, wrapper)


def wrap_method(tracer, cls, attr: str, name, keep=False, after=None):
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_timed(tracer, name, raw.__func__, keep, after)))
    else:
        setattr(cls, attr, _timed(tracer, name, raw, keep, after))


def wrap_coroutine_method(tracer, cls, attr: str, name: str, extra=None):
    raw = cls.__dict__[attr]

    @functools.wraps(raw)
    async def wrapper(*args, **kwargs):
        start = clock()
        result = await raw(*args, **kwargs)
        tracer.record(name, start, clock(), **(extra(args, result) if extra else {}))
        return result

    setattr(cls, attr, wrapper)


# --------------------------------------------------------------------------- #
# The layer table
# --------------------------------------------------------------------------- #

#: Task functions that ``run_shards`` pickles to its workers: each call is
#: one shard span, and the worker flushes its records after each.
SHARD_TASKS = (
    ("repro.analysis.store", "_stream_columns_chunk", "analysis.store.columns"),
    ("repro.analysis.ensembles", "_ensemble_batch", "analysis.ensembles.block"),
)


def _count_batch(tracer, args, kwargs, result) -> None:
    tracer.count("engine.batch.graphs", len(args[0]))
    tables = (item[0] for item in result) if kwargs.get("return_totals") else result
    tracer.count(
        "engine.batch.probes",
        sum(len(removal) + len(addition) for removal, addition in tables),
    )


def _count_ucg(tracer, args, kwargs, result) -> None:
    tracer.count("engine.ucg.graphs", len(args[0]))


def _count_shards(tracer, args, kwargs, result) -> None:
    tracer.count("engine.shardwork.retries", result.retries)


def _count_stacked(tracer, args, kwargs, result) -> None:
    """Probe evaluations and bytes the stacked kernels touch, from array sizes."""
    rem_w, add_w_u = args[5], args[6]
    draws = rem_w.shape[0]
    points = len(args[8]) if len(args) > 8 else 1
    tracer.count(
        "engine.columnar.probe_evals",
        draws * (rem_w.shape[1] + add_w_u.shape[1]) * points,
    )
    arrays = [a for a in args if hasattr(a, "nbytes")]
    outputs = result if isinstance(result, tuple) else (result,)
    tracer.count(
        "engine.columnar.computed_bytes",
        sum(a.nbytes for a in arrays) + sum(o.nbytes for o in outputs),
    )


def _api_grid_name(args, kwargs) -> str:
    game = args[3] if len(args) > 3 else kwargs.get("game", "bcg")
    return "service.api.grid" if game == "bcg" else "service.api.ucg_grid"


def _dispatch_extra(args, result) -> dict:
    status, payload, _content_type = result
    return {"path": args[2], "status": status, "bytes": len(payload)}


def install(tracer: Tracer) -> None:
    """Wrap every layer the benchmark reports; call before any pool forks."""
    import repro.analysis  # noqa: F401  (binds every re-export before rebinding)
    import repro.analysis.census as census
    import repro.analysis.ensembles  # noqa: F401
    import repro.analysis.improvement  # noqa: F401
    import repro.analysis.store as store
    import repro.engine.oracle as oracle
    import repro.engine.streaming as streaming
    import repro.experiments.runner as runner
    import repro.service  # noqa: F401
    from repro.service.api import QueryAPI
    from repro.service.batching import GridBatcher
    from repro.service.catalog import ArtifactCatalog
    from repro.service.http import ArtifactServer

    # paper: experiments, record census, improvement dynamics, oracle
    for eid, fn in list(runner.EXPERIMENTS.items()):
        runner.EXPERIMENTS[eid] = _timed(tracer, f"experiments.{eid}", fn, keep=True)
    wrap_function(tracer, "repro.analysis.improvement", "stochastic_stability_analysis",
                  "analysis.improvement", keep=True)
    wrap_function(tracer, "repro.analysis.improvement", "stationary_distribution",
                  "analysis.improvement.stationary")
    wrap_method(tracer, census.EquilibriumCensus, "build", "analysis.census.build", keep=True)
    wrap_method(tracer, census.EquilibriumCensus, "build_streamed", "analysis.census.build",
                keep=True)
    wrap_method(tracer, oracle.DistanceOracle, "toggle_delta", "engine.oracle.toggle_delta")
    tracer.add_probe(lambda: {
        "engine.oracle.hits": oracle.get_default_oracle().hits,
        "engine.oracle.misses": oracle.get_default_oracle().misses,
    })
    wrap_function(tracer, "repro.graphs.isomorphism", "canonical_record",
                  "graphs.isomorphism.canonical")

    # census build: enumeration -> deviation kernels -> UCG -> columns -> merge
    wrap_generator(tracer, "repro.graphs.enumeration", "iter_graphs_from",
                   "graphs.enumeration", "graphs.enumeration.graphs")
    wrap_function(tracer, "repro.engine.batch", "batch_stability_deltas", "engine.batch",
                  after=_count_batch)
    wrap_function(tracer, "repro.engine.ucg", "ucg_alpha_sets", "engine.ucg",
                  after=_count_ucg)
    wrap_function(tracer, "repro.engine.shardwork", "run_shards", "engine.shardwork.run",
                  keep=True, after=_count_shards)
    for module, attr, name in SHARD_TASKS:
        wrap_function(tracer, module, attr, name, keep=True, flush=True)
    for attr in ("build_streamed", "save", "load", "verify"):
        wrap_method(tracer, store.CensusStore, attr, f"analysis.store.{attr}", keep=True)

    # ensemble: draws -> stacked kernels -> streaming aggregation
    wrap_function(tracer, "repro.analysis.ensembles", "run_ensemble",
                  "analysis.ensembles.run", keep=True)
    wrap_function(tracer, "repro.analysis.scenarios", "build_scenario",
                  "analysis.scenarios.draw")
    wrap_function(tracer, "repro.engine.columnar", "stacked_weight_columns",
                  "engine.columnar.stack_weights")
    wrap_function(tracer, "repro.engine.columnar", "weighted_bcg_stable_mask_multi",
                  "engine.columnar.stacked_mask", after=_count_stacked)
    wrap_function(tracer, "repro.engine.columnar", "weighted_stability_windows_multi",
                  "engine.columnar.stacked_windows", after=_count_stacked)
    wrap_method(tracer, streaming.StreamingEnsembleStats, "update", "engine.streaming.update")

    # service: http -> api -> catalog / batcher -> store kernel
    wrap_coroutine_method(tracer, ArtifactServer, "_dispatch", "service.http.dispatch",
                          extra=_dispatch_extra)
    wrap_coroutine_method(tracer, ArtifactServer, "_write_response", "service.http.write")
    wrap_method(tracer, QueryAPI, "grid_aggregates", _api_grid_name, keep=True)
    wrap_method(tracer, QueryAPI, "windows", "service.api.windows", keep=True)
    wrap_method(tracer, ArtifactCatalog, "get", "service.catalog.get", keep=True)
    wrap_method(tracer, GridBatcher, "submit", "service.batching.submit", keep=True)
    wrap_method(tracer, store.CensusStore, "grid_aggregates", "analysis.store.grid_aggregates",
                keep=True)
