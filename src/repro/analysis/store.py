"""Columnar, persistent census store with vectorised α-grid queries.

:class:`~repro.analysis.census.EquilibriumCensus` keeps one
:class:`~repro.analysis.census.GraphRecord` per isomorphism class — a full
:class:`Graph` plus two dict-of-dicts — which makes the ``n = 9`` census a
multi-gigabyte object graph and forces every Figure 2/3 grid point to walk
all records in Python.  :class:`CensusStore` is the struct-of-arrays
refactor of the same information:

* **columns, not objects** — per class: a packed upper-triangle certificate
  (enough to rebuild the canonical representative), the edge count, the
  total ordered-pair distance sum, the exact BCG α-decision data (per-edge
  minimum removal increase and per-non-edge ``(min, max)`` addition-saving
  pairs in ragged CSR layout) and the UCG
  :class:`~repro.core.stability_intervals.AlphaIntervalSet` endpoints;
* **whole-grid queries** — Definition 3 stability masks, Nash masks,
  equilibrium counts, average/worst price of anarchy and link-count
  aggregates for an entire α-grid in a few segmented NumPy reductions
  (:mod:`repro.engine.columnar`), **bit-identical** to the per-record path
  (the BCG deviation payoffs are integer-valued floats, so the compact
  float32 columns and the reductions are exact; scalar float expressions
  are replicated operation for operation);
* **a versioned on-disk format** — one ``.npz`` (or a directory of
  memory-mappable ``.npy`` columns), written and read by the shared
  :class:`~repro.analysis.artifact.ColumnArtifact` core, and built by one
  shard-resumable path (:meth:`CensusStore.build`).

:class:`EquilibriumCensus` remains the readable reference implementation and
compatibility view; the test suite asserts the store's answers equal the
record path element for element, including across a save → load round trip
in a separate process.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.efficiency import efficient_social_cost
from ..core.stability_intervals import AlphaIntervalSet, PairwiseStabilityProfile
from ..engine import batch_stability_deltas, get_default_oracle, ucg_alpha_sets
from ..engine.columnar import (
    bcg_interval_mask,
    bcg_stability_intervals,
    pack_certificates,
    segment_min,
    stability_windows,
    ucg_nash_mask,
)
from ..graphs import Graph, total_distance
from .artifact import (  # noqa: F401  (LOAD_ERRORS, clear_store_cache: re-exported)
    LOAD_ERRORS,
    ColumnArtifact,
    cached_artifact,
    clear_store_cache,
    load_key,
    ordered_interval_errors,
    stream_batches,
)

#: On-disk format version; bump on any incompatible schema change.
FORMAT_VERSION = 1

#: Schema tag written into every artifact (guards against loading foreign files).
SCHEMA = "repro-census-store"


def _check_game(game: str) -> str:
    game = game.lower()
    if game not in ("bcg", "ucg"):
        raise ValueError("game must be 'bcg' or 'ucg'")
    return game


class CensusStore(ColumnArtifact):
    """All connected topologies on ``n`` vertices, as queryable columns.

    Instances are produced by :meth:`build`, :meth:`from_census` or
    :meth:`load`; the constructor just wires up pre-validated columns.
    Classes are kept in the library's canonical census order
    (:func:`repro.graphs.class_sort_key`), so row ``i`` of the store and
    ``census.records[i]`` describe the same isomorphism class.
    """

    SCHEMA = SCHEMA
    FORMAT_VERSION = FORMAT_VERSION
    KIND = "census"
    COLUMNS = {
        "num_edges": "int32",
        "dist_total": "float64",
        "cert_words": "uint64",
        "rem_values": "float32",
        "rem_indptr": "int64",
        "add_lo": "float32",
        "add_hi": "float32",
        "add_indptr": "int64",
        "ucg_lo": "float64",
        "ucg_hi": "float64",
        "ucg_indptr": "int64",
    }
    CSR = {
        "rem_indptr": ("rem_values",),
        "add_indptr": ("add_lo", "add_hi"),
        "ucg_indptr": ("ucg_lo", "ucg_hi"),
    }
    OPTIONAL = ("ucg_lo", "ucg_hi", "ucg_indptr")
    META = {"include_ucg": "include_ucg"}
    SHARD_PREFIX = "shard"

    def __init__(self, n: int, include_ucg: bool, **columns) -> None:
        super().__init__(n, include_ucg=bool(include_ucg), **columns)
        self._rem_min = None  # lazy per-class α_max column
        self._intervals = None  # lazy per-class exact (A, R] stability intervals

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(
        cls, n: int, include_ucg: bool = True, jobs: Optional[int] = None, **shard_options
    ) -> "CensusStore":
        """Enumerate all connected graphs on ``n`` vertices into columns.

        The analysis is :meth:`EquilibriumCensus.build`'s — same graphs,
        same deviation analysis, same UCG orientation — but workers stream
        their share of the canonical-augmentation tree and emit **column
        chunks**, so the census never exists in array-of-objects form.
        ``shard_options`` (``shard_level``, ``batch_size``, ``shard_dir``,
        ``timeout``, ``max_retries``, ``progress``, ``fault_plan``) are
        those of :meth:`ColumnArtifact._build_parts`: with ``shard_dir``
        every finished shard persists as a checksummed, config-fingerprinted
        ``shard_XXXX_of_YYYY.npz`` and an interrupted build resumes.  The
        merged store is sorted into canonical census order, so it is
        element-for-element identical to :meth:`from_census` of the record
        census regardless of ``jobs``, retries or resume history.
        """
        parts = cls._build_parts(
            _stream_columns_chunk,
            n,
            extra=(include_ucg,),
            fingerprint={"include_ucg": bool(include_ucg)},
            jobs=jobs,
            **shard_options,
        )
        store = cls._from_parts(n, parts, include_ucg, include_ucg=include_ucg)
        return store.sort_canonical()

    #: The name the streamed/sharded build went by; same method.
    build_streamed = build

    @classmethod
    def from_census(cls, census) -> "CensusStore":
        """Convert a built :class:`EquilibriumCensus` into columns.

        Distance totals are recomputed (exact integers, so the build path
        does not matter); the deviation data is read straight out of the
        record profiles.
        """
        cols = _ColumnAccumulator(census.include_ucg)
        for record in census.records:
            cols.append(
                record.graph,
                record.bcg_profile.removal_increase,
                record.bcg_profile.addition_saving,
                total_distance(record.graph),
                record.ucg_alpha_set,
            )
        return cls._from_parts(
            census.n,
            [cols.arrays(census.n)],
            census.include_ucg,
            include_ucg=census.include_ucg,
        )

    # ------------------------------------------------------------------ #
    # Vectorised α-grid queries
    # ------------------------------------------------------------------ #

    def _rem_min_column(self):
        if self._rem_min is None:
            self._rem_min = segment_min(self.rem_values, self.rem_indptr)
        return self._rem_min

    def _interval_columns(self):
        """The per-class exact BCG stability intervals ``(A, R)``, cached.

        Derived once per store by
        :func:`~repro.engine.columnar.bcg_stability_intervals`; nothing is
        persisted.  The cache is written as one tuple, so a concurrent
        reader sees either nothing or the finished pair.
        """
        intervals = self._intervals
        if intervals is None:
            intervals = bcg_stability_intervals(
                self._rem_min_column(), self.add_lo, self.add_hi, self.add_indptr
            )
            self._intervals = intervals
        return intervals

    def stable_mask(self, alphas: Sequence[float], game: str = "bcg"):
        """``bool[n_classes, n_alphas]`` equilibrium membership on a grid.

        ``game="bcg"`` gives exact Definition 3 pairwise stability,
        ``game="ucg"`` Nash-supportability — bit-identical per element to
        :meth:`GraphRecord.is_bcg_stable_at` /
        :meth:`GraphRecord.is_ucg_nash_at`.  BCG masks are read off the
        cached per-class stability intervals, so a grid point costs one
        comparison per class instead of a pass over every non-edge.
        """
        game = _check_game(game)
        if game == "bcg":
            return bcg_interval_mask(*self._interval_columns(), alphas)
        if not self.include_ucg:
            raise ValueError("census was built without the UCG analysis")
        return ucg_nash_mask(self.ucg_lo, self.ucg_hi, self.ucg_indptr, alphas)

    def equilibrium_counts(self, alphas: Sequence[float], game: str):
        """Number of equilibrium classes at every grid point."""
        return self.stable_mask(alphas, game).sum(axis=0)

    def stability_windows(self):
        """Per-class Lemma 2 ``(α_min, α_max)`` arrays (BCG)."""
        return stability_windows(self._rem_min_column(), self.add_lo, self.add_indptr)

    def _poa_values(self, alpha: float, game: str, rows):
        """``ρ(G, α)`` of the classes at ``rows``, replicating the scalar floats.

        ``social_cost`` is ``per_edge·α·m + Σd`` evaluated elementwise with
        the exact operation order of :func:`repro.core.costs.social_cost_bcg`
        (IEEE elementwise ops equal the scalar ops, so each entry is
        bit-identical to :func:`repro.core.anarchy.price_of_anarchy`).
        """
        per_edge = 2.0 if game == "bcg" else 1.0
        optimum = efficient_social_cost(self.n, alpha, game)
        edges = self.num_edges[rows].astype(np.float64)
        cost = (per_edge * alpha) * edges + self.dist_total[rows]
        if optimum == 0:
            return np.ones_like(cost)
        return cost / optimum

    def grid_aggregates(self, alphas: Sequence[float], game: str) -> Dict[str, list]:
        """Whole-grid Figure 2/3 aggregates in one vectorised pass.

        Returns ``counts``, ``average_poa``, ``worst_poa`` and
        ``average_links`` lists (one entry per grid point), each equal to
        the corresponding :class:`EquilibriumCensus` aggregate — including
        the sequential left-to-right float summation of the record path,
        so averages match to the last bit, and ``nan`` for empty
        equilibrium sets.  Costs are evaluated for the equilibrium classes
        of each grid point only.
        """
        game = _check_game(game)
        mask = self.stable_mask(alphas, game)
        counts: List[int] = []
        average_poa: List[float] = []
        worst_poa: List[float] = []
        average_links: List[float] = []
        for column, alpha in enumerate(alphas):
            rows = np.flatnonzero(mask[:, column])
            count = int(rows.shape[0])
            counts.append(count)
            if count == 0:
                average_poa.append(float("nan"))
                worst_poa.append(float("nan"))
                average_links.append(float("nan"))
                continue
            poa = self._poa_values(float(alpha), game, rows)
            total = 0
            for value in poa.tolist():  # class order == record order
                total = total + value
            average_poa.append(total / count)
            worst_poa.append(float(poa.max()))
            links = int(self.num_edges[rows].sum(dtype=np.int64))
            average_links.append(links / count)
        return {
            "counts": counts,
            "average_poa": average_poa,
            "worst_poa": worst_poa,
            "average_links": average_links,
        }

    # ------------------------------------------------------------------ #
    # Scalar compatibility API (mirrors EquilibriumCensus)
    # ------------------------------------------------------------------ #

    def equilibrium_count(self, alpha: float, game: str) -> int:
        """Number of equilibrium topologies at ``alpha``."""
        return int(self.stable_mask([alpha], game).sum())

    def average_price_of_anarchy(self, alpha: float, game: str) -> float:
        """Mean ``ρ(G)`` over the equilibrium topologies at ``alpha``."""
        return self.grid_aggregates([alpha], game)["average_poa"][0]

    def worst_price_of_anarchy(self, alpha: float, game: str) -> float:
        """Maximum ``ρ(G)`` over the equilibrium topologies at ``alpha``."""
        return self.grid_aggregates([alpha], game)["worst_poa"][0]

    def average_num_links(self, alpha: float, game: str) -> float:
        """Mean edge count over the equilibrium topologies at ``alpha``."""
        return self.grid_aggregates([alpha], game)["average_links"][0]

    def edge_count_histogram(self, alpha: float, game: str) -> Dict[int, int]:
        """Histogram of edge counts over the equilibrium topologies."""
        selected = self.stable_mask([alpha], game)[:, 0]
        values, counts = np.unique(self.num_edges[selected], return_counts=True)
        return {int(v): int(c) for v, c in zip(values.tolist(), counts.tolist())}

    def equilibrium_graphs(self, alpha: float, game: str) -> List[Graph]:
        """Equilibrium topologies of either game at ``alpha`` (decoded)."""
        selected = self.stable_mask([alpha], game)[:, 0]
        return [self.graph_at(int(i)) for i in np.nonzero(selected)[0]]

    def stable_graphs_bcg(self, alpha: float) -> List[Graph]:
        """All pairwise-stable topologies at link cost ``alpha``."""
        return self.equilibrium_graphs(alpha, "bcg")

    def nash_graphs_ucg(self, alpha: float) -> List[Graph]:
        """All UCG-Nash topologies at link cost ``alpha``."""
        return self.equilibrium_graphs(alpha, "ucg")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def _summary_fields(self) -> Dict[str, object]:
        return {"include_ucg": self.include_ucg}

    def _invariant_errors(self) -> List[str]:
        """Ordered UCG interval endpoints."""
        if not self.include_ucg:
            return []
        return ordered_interval_errors("ucg", self.ucg_lo, self.ucg_hi)


# --------------------------------------------------------------------------- #
# Column assembly (the per-batch analysis of every build path)
# --------------------------------------------------------------------------- #


class _ColumnAccumulator:
    """Builds the per-class columns of one chunk in plain Python lists.

    The float32 value columns are exact: every BCG deviation payoff is an
    integer-valued float (or ``±inf``) far below 2**24 (distance sums on
    ``n <= 63`` vertices), so narrowing and widening round-trips bit-exactly.
    The UCG endpoints come from divisions and stay float64.
    """

    def __init__(self, include_ucg: bool) -> None:
        self.include_ucg = include_ucg
        self.certs: List[int] = []
        self.num_edges: List[int] = []
        self.dist_total: List[float] = []
        self.rem_values: List[float] = []
        self.rem_counts: List[int] = []
        self.add_lo: List[float] = []
        self.add_hi: List[float] = []
        self.add_counts: List[int] = []
        self.ucg_lo: List[float] = []
        self.ucg_hi: List[float] = []
        self.ucg_counts: List[int] = []

    def append(
        self,
        graph: Graph,
        removal: Dict,
        addition: Dict,
        total: float,
        ucg_set: Optional[AlphaIntervalSet],
    ) -> None:
        self.certs.append(graph.adjacency_bitstring())
        self.num_edges.append(graph.num_edges)
        self.dist_total.append(float(total))
        edges = graph.sorted_edges()
        for (u, v) in edges:
            self.rem_values.append(
                min(removal[((u, v), u)], removal[((u, v), v)])
            )
        self.rem_counts.append(len(edges))
        non_edges = graph.non_edges()
        for (u, v) in non_edges:
            save_u = addition[((u, v), u)]
            save_v = addition[((u, v), v)]
            if save_u <= save_v:
                self.add_lo.append(save_u)
                self.add_hi.append(save_v)
            else:
                self.add_lo.append(save_v)
                self.add_hi.append(save_u)
        self.add_counts.append(len(non_edges))
        if self.include_ucg:
            intervals = ucg_set.intervals
            for interval in intervals:
                self.ucg_lo.append(interval.lo)
                self.ucg_hi.append(interval.hi)
            self.ucg_counts.append(len(intervals))

    def arrays(self, n: int) -> dict:
        def indptr(counts: List[int]):
            out = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(np.asarray(counts, dtype=np.int64), out=out[1:])
            return out

        part = {
            "num_edges": np.asarray(self.num_edges, dtype=np.int32),
            "dist_total": np.asarray(self.dist_total, dtype=np.float64),
            "cert_words": pack_certificates(self.certs, n),
            "rem_values": np.asarray(self.rem_values, dtype=np.float32),
            "rem_indptr": indptr(self.rem_counts),
            "add_lo": np.asarray(self.add_lo, dtype=np.float32),
            "add_hi": np.asarray(self.add_hi, dtype=np.float32),
            "add_indptr": indptr(self.add_counts),
        }
        if self.include_ucg:
            part["ucg_lo"] = np.asarray(self.ucg_lo, dtype=np.float64)
            part["ucg_hi"] = np.asarray(self.ucg_hi, dtype=np.float64)
            part["ucg_indptr"] = indptr(self.ucg_counts)
        return part


def bcg_alpha_columns(profiles: Sequence[PairwiseStabilityProfile]):
    """BCG α-decision columns for an ad-hoc batch of stability profiles.

    Returns ``(rem_min, add_lo, add_hi, add_indptr)`` ready for
    :func:`repro.engine.columnar.bcg_stability_intervals` /
    :func:`~repro.engine.columnar.stability_windows`.  Unlike the store,
    the graphs may have heterogeneous vertex counts (the masks never look
    at ``n``) — this is how the Figure 1 experiment pushes its six named
    graphs through the same vectorised kernels as the censuses.
    """
    rem_min: List[float] = []
    add_lo: List[float] = []
    add_hi: List[float] = []
    indptr: List[int] = [0]
    for profile in profiles:
        removal = profile.removal_increase
        rem_min.append(min(removal.values()) if removal else float("inf"))
        for (u, v) in profile.graph.non_edges():
            save_u = profile.addition_saving[((u, v), u)]
            save_v = profile.addition_saving[((u, v), v)]
            add_lo.append(min(save_u, save_v))
            add_hi.append(max(save_u, save_v))
        indptr.append(len(add_lo))
    return (
        np.asarray(rem_min, dtype=np.float64),
        np.asarray(add_lo, dtype=np.float64),
        np.asarray(add_hi, dtype=np.float64),
        np.asarray(indptr, dtype=np.int64),
    )


def _census_part(graphs: List[Graph], n: int, include_ucg: bool, oracle) -> dict:
    """One column part: the deviation and UCG analysis of ``graphs``."""
    results = batch_stability_deltas(graphs, oracle=oracle, return_totals=True)
    # Graphs arrive canonical with their automorphism record memoised, so
    # the batched UCG engine orbit-prunes automatically.
    ucg_sets = (
        ucg_alpha_sets(graphs, oracle=oracle) if include_ucg else [None] * len(graphs)
    )
    cols = _ColumnAccumulator(include_ucg)
    for graph, ((removal, addition), total), ucg_set in zip(graphs, results, ucg_sets):
        cols.append(graph, removal, addition, total, ucg_set)
    return cols.arrays(n)


def _stream_columns_chunk(task: Tuple[List[Graph], int, int, bool]) -> dict:
    """Generate-and-analyse one generation-tree shard into census columns."""
    roots, n, batch_size, include_ucg = task
    analyse = partial(
        _census_part, n=n, include_ucg=include_ucg, oracle=get_default_oracle()
    )
    parts = stream_batches(roots, n, batch_size, analyse, "census")
    return CensusStore._merge_parts(parts, n, include_ucg)


# --------------------------------------------------------------------------- #
# Process-wide store cache (mirrors cached_census)
# --------------------------------------------------------------------------- #


def cached_store(
    n: Optional[int] = None,
    include_ucg: bool = True,
    jobs: Optional[int] = None,
    path: Optional[str] = None,
    mmap: bool = False,
) -> CensusStore:
    """Build, load or fetch the columnar store (bounded LRU cache).

    With ``n`` the store is built in process (or converted from a record
    census already sitting in the census cache —
    :meth:`CensusStore.from_census` skips the whole deviation + UCG
    orientation pass).  With ``path`` it is loaded from an on-disk
    artifact instead, optionally memory-mapped.

    Every option that changes what the returned *object* is — ``n`` and
    ``include_ucg`` for builds; the absolute path, ``mmap`` and the file's
    modification stamp for loads — is part of the cache key, so a resident
    store can never be handed out where a mapped view was requested (or
    vice versa), and an artifact rewritten on disk misses the cache instead
    of serving its old columns.  ``jobs`` only affects how a build miss is
    computed; the contents are identical for any value and it is therefore
    *not* part of the key.  Entries share one bounded LRU with the delta
    and weighted stores (:data:`repro.analysis.artifact.STORE_CACHE_MAX`).
    """
    if (n is None) == (path is None):
        raise ValueError("exactly one of n and path is required")
    if path is not None:
        return cached_artifact(
            load_key("load", path, mmap),
            "census-store",
            lambda: CensusStore.load(path, mmap=mmap),
        )

    from .census import _CENSUS_CACHE

    def make() -> CensusStore:
        cached = _CENSUS_CACHE.get((int(n), bool(include_ucg)))
        if cached is not None:
            return CensusStore.from_census(cached)
        return CensusStore.build(n, include_ucg=include_ucg, jobs=jobs)

    return cached_artifact(("build", int(n), bool(include_ucg)), "census-store", make)
