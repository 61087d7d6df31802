"""Shared Δdist artifacts: model-independent probe columns, built once per n.

A weighted sweep pairs every single-link deviation payoff with a coefficient
``w(payer, other)`` — but the payoffs themselves depend only on the topology
class list.  The PR-5 ensemble runner nevertheless re-ran the boolean-matmul
deviation analysis once *per draw*, making a 1000-draw ensemble cost 1000
identical delta passes.  :class:`DeltaStore` is the amortisation layer: the
per-probe Δdist columns **plus the probe endpoint indices**, persisted once
per ``n`` and shared by every cost model, draw and ensemble that follows.

* **columns** — per class: a packed upper-triangle certificate, the edge
  count, the total ordered-pair distance sum, and the ragged CSR probe
  columns of :func:`repro.engine.batch.batch_delta_columns`: removal
  ``(Δ, payer, other)`` triples (two per edge, ``sorted_edges`` order) and
  per-non-edge ``(save_u, save_v, u, v)`` 4-tuples (``non_edges`` order).
  The endpoint indices are what make the artifact model-independent — any
  draw's coefficient columns are one dense gather
  ``W[rem_pay, rem_other]`` away (see
  :func:`repro.engine.columnar.stacked_weight_columns`);
* **query = the stacked kernels** — K draws are answered at once by
  :meth:`stable_counts_multi` / :meth:`stability_windows_multi`, each row
  bit-identical to the per-draw weighted kernels over that draw's own
  :class:`~repro.analysis.weighted_store.WeightedStore`;
* **the census stores' persistence** — the shared
  :class:`~repro.analysis.artifact.ColumnArtifact` format (one versioned
  ``.npz`` or an mmap-able directory of ``.npy`` columns: schema tag,
  :data:`FORMAT_VERSION`, ``n``), the one shard-resumable :meth:`build`,
  and a process-wide LRU (:func:`cached_delta_store`) shared with
  :func:`~repro.analysis.store.cached_store`.

:meth:`WeightedStore.from_delta <repro.analysis.weighted_store.WeightedStore.from_delta>`
turns (DeltaStore, cost model) back into a full per-draw artifact —
float-for-float identical to building that store from scratch — so the
delta artifact composes with every existing kernel, file format and test.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.batch import batch_delta_columns
from ..engine.oracle import DistanceOracle
from ..engine.columnar import (
    pack_certificates,
    stacked_weight_columns,
    weighted_bcg_stable_mask_multi,
    weighted_stability_windows_multi,
)
from ..graphs import Graph
from .artifact import ColumnArtifact, cached_artifact, load_key, stream_batches

#: On-disk format version; bump on any incompatible schema change.
FORMAT_VERSION = 1

#: Schema tag written into every artifact (guards against loading foreign files).
SCHEMA = "repro-delta-store"


class DeltaStore(ColumnArtifact):
    """Model-independent Δdist probe columns for every connected class on n.

    Instances are produced by :meth:`build` or :meth:`load`; the
    constructor just wires up pre-validated columns.  Classes are kept in
    canonical census order, so row ``i`` here, row ``i`` of
    :class:`~repro.analysis.store.CensusStore` and row ``i`` of any
    :class:`~repro.analysis.weighted_store.WeightedStore` on the same ``n``
    describe the same isomorphism class.
    """

    SCHEMA = SCHEMA
    FORMAT_VERSION = FORMAT_VERSION
    KIND = "delta"
    COLUMNS = {
        "num_edges": "int32",
        "dist_total": "float64",
        "cert_words": "uint64",
        "rem_delta": "float32",
        "rem_pay": "int32",
        "rem_other": "int32",
        "rem_indptr": "int64",
        "add_s_u": "float32",
        "add_s_v": "float32",
        "add_u": "int32",
        "add_v": "int32",
        "add_indptr": "int64",
    }
    CSR = {
        "rem_indptr": ("rem_delta", "rem_pay", "rem_other"),
        "add_indptr": ("add_s_u", "add_s_v", "add_u", "add_v"),
    }
    REM_PROBES_PER_EDGE = 2
    SHARD_PREFIX = "dshard"

    @classmethod
    def build(cls, n: int, jobs: Optional[int] = None, **shard_options) -> "DeltaStore":
        """Delta columns for every connected class on ``n`` vertices.

        The class list, order and deviation analysis are exactly those of
        :meth:`WeightedStore.build` — minus the coefficients, which is the
        point: one build serves every cost model on ``n`` players.
        ``shard_options`` are those of
        :meth:`~repro.analysis.artifact.ColumnArtifact._build_parts`; shard
        files are fingerprinted on ``n`` only, so one shard directory
        serves every cost model.
        """
        parts = cls._build_parts(_stream_delta_chunk, n, jobs=jobs, **shard_options)
        return cls._from_parts(n, parts).sort_canonical()

    #: The name the streamed/sharded build went by; same method.
    build_streamed = build

    # ------------------------------------------------------------------ #
    # Stacked multi-draw queries
    # ------------------------------------------------------------------ #

    def stacked_weights(self, weight_matrices) -> Tuple:
        """``(rem_w, add_w_u, add_w_v)`` ``(K, P)`` stacks for K matrices."""
        return stacked_weight_columns(
            weight_matrices, self.rem_pay, self.rem_other, self.add_u, self.add_v
        )

    def stable_mask_multi(self, weight_matrices, ts: Sequence[float]):
        """``bool[K, n_classes, n_ts]`` stability for K draws at once.

        Row ``k`` is bit-identical to
        ``WeightedStore.from_delta(self, model_k).stable_mask(ts)``.
        """
        rem_w, add_w_u, add_w_v = self.stacked_weights(weight_matrices)
        return weighted_bcg_stable_mask_multi(
            self.rem_delta, self.rem_indptr,
            self.add_s_u, self.add_s_v, self.add_indptr,
            rem_w, add_w_u, add_w_v, ts,
        )

    def stable_counts_multi(self, weight_matrices, ts: Sequence[float]):
        """``int64[K, n_ts]`` stable-class counts for K draws at once."""
        return self.stable_mask_multi(weight_matrices, ts).sum(
            axis=1, dtype=np.int64
        )

    def stability_windows_multi(self, weight_matrices):
        """``(t_min[K, C], t_max[K, C])`` weighted windows for K draws."""
        rem_w, add_w_u, add_w_v = self.stacked_weights(weight_matrices)
        return weighted_stability_windows_multi(
            self.rem_delta, self.rem_indptr,
            self.add_s_u, self.add_s_v, self.add_indptr,
            rem_w, add_w_u, add_w_v,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _summary_fields(self):
        return {
            "removal_probes": int(self.rem_indptr[-1]),
            "addition_probes": int(self.add_indptr[-1]),
        }

    def _invariant_errors(self) -> List[str]:
        """Probe endpoint indices within ``[0, n)``."""
        errors: List[str] = []
        for name in ("rem_pay", "rem_other", "add_u", "add_v"):
            indices = np.asarray(getattr(self, name))
            if indices.shape[0] and (
                bool(np.any(indices < 0)) or bool(np.any(indices >= self.n))
            ):
                errors.append(f"{name}: endpoint indices outside [0, {self.n})")
        return errors


# --------------------------------------------------------------------------- #
# Column assembly + shard worker (module-level for pickling)
# --------------------------------------------------------------------------- #


def _delta_part(graphs: List[Graph], n: int, oracle: Optional[DistanceOracle]) -> dict:
    """One column chunk: delta probe columns + certificates for ``graphs``."""
    part = batch_delta_columns(graphs, oracle=oracle)
    part["cert_words"] = pack_certificates(
        [graph.adjacency_bitstring() for graph in graphs], n
    )
    return part


def _stream_delta_chunk(task: Tuple) -> dict:
    """Generate-and-probe one generation-tree shard into delta columns."""
    roots, n, batch_size = task
    analyse = partial(_delta_part, n=n, oracle=DistanceOracle())
    parts = stream_batches(roots, n, batch_size, analyse, "delta")
    return DeltaStore._merge_parts(parts, n)


# --------------------------------------------------------------------------- #
# Process-wide delta-store cache (shares the census-store LRU budget)
# --------------------------------------------------------------------------- #


def cached_delta_store(
    n: Optional[int] = None,
    jobs: Optional[int] = None,
    path: Optional[str] = None,
    mmap: bool = False,
) -> DeltaStore:
    """Build, load or fetch a delta store through the shared store LRU.

    The :func:`~repro.analysis.store.cached_store` pattern applied to delta
    artifacts: with ``n`` the store is built in process; with ``path`` it
    is loaded (optionally memory-mapped).  Load keys carry the absolute
    path, the ``mmap`` flag and the artifact's file stamp, so a regenerated
    artifact misses the cache instead of serving stale columns; ``jobs``
    only affects how a build miss is computed and is not part of the key.
    Entries share one bounded LRU with the census stores — repeated
    ensembles on one machine never reload the delta artifact, and a
    process cycling through many artifacts stays bounded.
    """
    if (n is None) == (path is None):
        raise ValueError("exactly one of n and path is required")
    if path is not None:
        return cached_artifact(
            load_key("delta-load", path, mmap),
            "delta-store",
            lambda: DeltaStore.load(path, mmap=mmap),
        )
    return cached_artifact(
        ("delta-build", int(n)),
        "delta-store",
        lambda: DeltaStore.build(n, jobs=jobs),
    )
