"""Request coalescing for concurrent grid queries.

Every columnar grid kernel in this library (``bcg_stable_mask``,
``ucg_nash_mask``, ``weighted_bcg_stable_mask`` and the aggregate wrappers
around them) answers each grid point as an **independent column**: the mask
for α-column ``j`` is a function of the stored probe columns and ``alphas[j]``
alone.  That makes coalescing free and exact — evaluating the union of two
requests' grids in one kernel call and handing each caller its own columns
back is bit-identical to two separate calls, and the PR-6 stacked-``K``
kernels already pay near-nothing for the extra columns.

:class:`GridBatcher` exploits this for the query service: concurrent
requests against the same ``(artifact, game)`` pair that arrive within a
bounded wait window are merged into **one** vectorised kernel call.  The
first thread to arrive becomes the batch *leader*: it waits up to
``window`` seconds (returning early once ``max_batch`` requests joined),
deduplicates the union grid, runs the compute callable once, and
distributes per-caller column slices.  Followers block on the batch event
and never touch the kernel.  A compute error propagates to every caller in
the batch.

The batcher is transport-free — :class:`~repro.service.api.QueryAPI` calls
it from whatever threads the server (or a test hammer) runs requests on.
``repro serve`` no longer attaches one: census BCG grids are answered from
cached per-class stability intervals, so a lone request would only pay
the wait window.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Sequence, Tuple

from .. import obs

__all__ = ["GridBatcher", "BatchStats"]


def _slice_columns(result, indices: List[int]):
    """Select per-alpha columns ``indices`` from a batched kernel result.

    Supports the two shapes every grid query in the library returns: a
    2-D ndarray with one column per grid point (masks), and a dict whose
    values are per-grid-point lists (aggregates).  Scalar / non-sequence
    dict entries are passed through unchanged.
    """
    if isinstance(result, dict):
        out = {}
        for key, value in result.items():
            if isinstance(value, list):
                out[key] = [value[i] for i in indices]
            else:
                out[key] = value
        return out
    # ndarray-like: [classes, n_alphas] -> the caller's columns, in order.
    return result[:, indices]


class _Batch:
    """One in-flight coalescing window for a single key."""

    __slots__ = ("requests", "event", "result", "error", "closed", "full")

    def __init__(self) -> None:
        self.requests: List[List[float]] = []
        self.event = threading.Event()  # set when the result is ready
        self.full = threading.Event()  # set when max_batch was reached
        self.result = None
        self.error: BaseException | None = None
        self.closed = False


class BatchStats:
    """Point-in-time batcher tallies (mirrored into ``repro.obs``)."""

    def __init__(self, batches: int, requests: int, coalesced: int) -> None:
        self.batches = batches
        self.requests = requests
        self.coalesced = coalesced

    def as_dict(self) -> Dict[str, int]:
        return {
            "batches": self.batches,
            "requests": self.requests,
            "coalesced": self.coalesced,
        }


class GridBatcher:
    """Coalesce concurrent per-key grid requests into shared kernel calls.

    Parameters
    ----------
    window:
        Seconds the batch leader waits for followers before computing.
        ``0`` disables coalescing entirely (every submit computes
        immediately) — the parity-testing baseline.
    max_batch:
        Requests per batch at which the leader stops waiting early.
    """

    def __init__(self, window: float = 0.005, max_batch: int = 64) -> None:
        if window < 0:
            raise ValueError("window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._pending: Dict[object, _Batch] = {}
        self._batches = 0
        self._requests = 0
        self._coalesced = 0

    # ------------------------------------------------------------------ #

    def submit(
        self,
        key: object,
        alphas: Sequence[float],
        compute: Callable[[List[float]], object],
    ):
        """Evaluate ``compute`` over ``alphas``, sharing work under ``key``.

        ``key`` must identify everything that determines the kernel besides
        the grid itself (artifact identity and game, in practice); two
        submits may share a kernel call only when their keys are equal.
        ``compute`` receives the merged, deduplicated grid and must return
        a per-column result (ndarray columns or dict of per-column lists).
        The return value is exactly ``compute(list(alphas))`` — bit-for-bit
        — however many requests were coalesced.
        """
        alphas = [float(a) for a in alphas]
        if self.window == 0.0:
            with self._lock:
                self._batches += 1
                self._requests += 1
            self._observe(1)
            return compute(alphas)

        with self._lock:
            self._requests += 1
            batch = self._pending.get(key)
            if batch is None or batch.closed:
                batch = _Batch()
                self._pending[key] = batch
                leader = True
            else:
                leader = False
            index = len(batch.requests)
            batch.requests.append(alphas)
            if len(batch.requests) >= self.max_batch:
                batch.closed = True
                batch.full.set()

        if leader:
            self._run_batch(key, batch, compute)
        else:
            batch.event.wait()
        if batch.error is not None:
            raise batch.error
        merged, slices = batch.result
        return _slice_columns(merged, slices[index])

    # ------------------------------------------------------------------ #

    def _run_batch(self, key: object, batch: _Batch, compute) -> None:
        """Leader body: wait out the window, compute once, publish.

        Every request in a batch carries an equivalent compute closure by
        construction (the key pins artifact + game + query type); the
        leader's closure is the one that runs.
        """
        batch.full.wait(self.window)
        with self._lock:
            batch.closed = True
            if self._pending.get(key) is batch:
                del self._pending[key]
            requests = list(batch.requests)
            self._batches += 1
            if len(requests) > 1:
                self._coalesced += len(requests)
        grid, slices = _merge_grids(requests)
        try:
            start = time.perf_counter()
            result = compute(grid)
            obs.histogram(
                "repro_service_batch_kernel_seconds",
                "Wall seconds per coalesced kernel call",
            ).observe(time.perf_counter() - start)
            batch.result = (result, slices)
        except BaseException as error:  # propagate to every caller
            batch.error = error
        finally:
            self._observe(len(requests))
            batch.event.set()

    def _observe(self, size: int) -> None:
        obs.histogram(
            "repro_service_batch_size",
            "Requests answered per coalesced kernel call",
        ).observe(size)
        if size > 1:
            obs.counter(
                "repro_service_coalesced_requests_total",
                "Requests that shared a kernel call with at least one other",
            ).inc(size)

    def stats(self) -> BatchStats:
        """Tallies so far: batches run, requests seen, requests coalesced."""
        with self._lock:
            return BatchStats(self._batches, self._requests, self._coalesced)


def _merge_grids(
    requests: List[List[float]],
) -> Tuple[List[float], List[List[int]]]:
    """Union the request grids; map each request to merged-column indices.

    Duplicate grid points (within or across requests) are evaluated once.
    Floats are deduplicated by exact equality — the kernels are pure
    functions of the float value, so equal inputs give identical columns.
    """
    merged: List[float] = []
    position: Dict[float, int] = {}
    slices: List[List[int]] = []
    for alphas in requests:
        indices = []
        for alpha in alphas:
            at = position.get(alpha)
            if at is None:
                at = len(merged)
                position[alpha] = at
                merged.append(alpha)
            indices.append(at)
        slices.append(indices)
    return merged, slices
