"""Exhaustive equilibrium censuses over all small connected topologies.

The empirical study of Section 5 computes *all* pairwise-stable graphs of the
BCG and *all* Nash graphs of the UCG on a fixed number of vertices, for a
range of link costs.  The expensive part — per-graph deviation analysis — does
not depend on ``α``:

* the BCG stability of a graph at any ``α`` is decided by its
  :class:`~repro.core.stability_intervals.PairwiseStabilityProfile`;
* the UCG Nash-supportability of a graph at any ``α`` is decided by its
  :class:`~repro.core.stability_intervals.AlphaIntervalSet`.

:class:`EquilibriumCensus` therefore enumerates the connected graphs once
(up to isomorphism), computes both per-graph summaries once, and then answers
equilibrium queries for arbitrary link costs in time linear in the number of
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.anarchy import price_of_anarchy
from ..core.stability_intervals import AlphaIntervalSet, PairwiseStabilityProfile
from ..engine import (
    batch_stability_deltas,
    chunk_evenly,
    get_default_oracle,
    parallel_map,
    resolve_jobs,
    ucg_alpha_sets,
)
from ..graphs import Graph, enumerate_connected_graphs


@dataclass
class GraphRecord:
    """Per-topology summary used by the census.

    Attributes
    ----------
    graph:
        The canonical representative of the isomorphism class.
    bcg_profile:
        Single-link deviation payoffs (α-independent BCG summary).
    ucg_alpha_set:
        Link costs at which the graph is UCG-Nash-supportable (``None`` when
        the census was built with ``include_ucg=False``).
    """

    graph: Graph
    bcg_profile: PairwiseStabilityProfile
    ucg_alpha_set: Optional[AlphaIntervalSet] = None

    @property
    def num_edges(self) -> int:
        """Number of edges of the topology."""
        return self.graph.num_edges

    def is_bcg_stable_at(self, alpha: float) -> bool:
        """Exact pairwise stability at ``alpha``."""
        return self.bcg_profile.is_stable_at(alpha)

    def is_ucg_nash_at(self, alpha: float) -> bool:
        """Exact UCG Nash-supportability at ``alpha``."""
        if self.ucg_alpha_set is None:
            raise ValueError("census was built without the UCG analysis")
        return self.ucg_alpha_set.contains(alpha)


@dataclass
class EquilibriumCensus:
    """All connected topologies on ``n`` vertices with their equilibrium summaries."""

    n: int
    records: List[GraphRecord] = field(default_factory=list)
    include_ucg: bool = True

    @classmethod
    def build(
        cls, n: int, include_ucg: bool = True, jobs: Optional[int] = None
    ) -> "EquilibriumCensus":
        """Enumerate all connected graphs on ``n`` vertices and analyse each once.

        ``include_ucg=False`` skips the (more expensive) UCG orientation
        search when only the BCG side is needed.  ``jobs`` fans the analysis
        out over a process pool (``None``/``1`` = serial); each worker runs
        the vectorised batch kernel on a contiguous chunk of graphs, so
        results are identical and identically ordered for any value.
        """
        graphs = enumerate_connected_graphs(n)
        workers = resolve_jobs(jobs)
        chunks = chunk_evenly(graphs, max(1, workers * 4))
        tasks = [(chunk, include_ucg) for chunk in chunks]
        records = [
            record
            for chunk_records in parallel_map(_analyse_chunk, tasks, jobs=jobs)
            for record in chunk_records
        ]
        return cls(n=n, records=records, include_ucg=include_ucg)

    #: The record census has one build; the name stays bound so callers and
    #: layer timers that look ``build_streamed`` up still find it.  The
    #: sharded streaming build is :meth:`repro.analysis.store.CensusStore.build`.
    build_streamed = build

    # ------------------------------------------------------------------ #
    # Equilibrium sets at a given link cost
    # ------------------------------------------------------------------ #

    def stable_graphs_bcg(self, alpha: float) -> List[Graph]:
        """All pairwise-stable topologies at link cost ``alpha``."""
        return [r.graph for r in self.records if r.is_bcg_stable_at(alpha)]

    def nash_graphs_ucg(self, alpha: float) -> List[Graph]:
        """All UCG-Nash topologies at link cost ``alpha``."""
        return [r.graph for r in self.records if r.is_ucg_nash_at(alpha)]

    def equilibrium_graphs(self, alpha: float, game: str) -> List[Graph]:
        """Equilibrium topologies of either game at ``alpha``."""
        game = game.lower()
        if game == "bcg":
            return self.stable_graphs_bcg(alpha)
        if game == "ucg":
            return self.nash_graphs_ucg(alpha)
        raise ValueError("game must be 'bcg' or 'ucg'")

    # ------------------------------------------------------------------ #
    # Aggregates (the Figure 2 / Figure 3 quantities)
    # ------------------------------------------------------------------ #

    def average_price_of_anarchy(self, alpha: float, game: str) -> float:
        """Mean ``ρ(G)`` over the equilibrium topologies at ``alpha``."""
        graphs = self.equilibrium_graphs(alpha, game)
        if not graphs:
            return float("nan")
        return sum(price_of_anarchy(g, alpha, game) for g in graphs) / len(graphs)

    def worst_price_of_anarchy(self, alpha: float, game: str) -> float:
        """Maximum ``ρ(G)`` over the equilibrium topologies at ``alpha``."""
        graphs = self.equilibrium_graphs(alpha, game)
        if not graphs:
            return float("nan")
        return max(price_of_anarchy(g, alpha, game) for g in graphs)

    def average_num_links(self, alpha: float, game: str) -> float:
        """Mean edge count over the equilibrium topologies at ``alpha`` (Figure 3)."""
        graphs = self.equilibrium_graphs(alpha, game)
        if not graphs:
            return float("nan")
        return sum(g.num_edges for g in graphs) / len(graphs)

    def equilibrium_count(self, alpha: float, game: str) -> int:
        """Number of equilibrium topologies at ``alpha``."""
        return len(self.equilibrium_graphs(alpha, game))

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def edge_count_histogram(self, alpha: float, game: str) -> Dict[int, int]:
        """Histogram of edge counts over the equilibrium topologies at ``alpha``."""
        histogram: Dict[int, int] = {}
        for graph in self.equilibrium_graphs(alpha, game):
            histogram[graph.num_edges] = histogram.get(graph.num_edges, 0) + 1
        return dict(sorted(histogram.items()))

    def __len__(self) -> int:
        return len(self.records)


def _make_records(
    graphs: List[Graph], include_ucg: bool, oracle
) -> List[GraphRecord]:
    """Deviation analysis for a batch of graphs.

    The BCG side goes through the vectorised
    :func:`repro.engine.batch_stability_deltas` kernel for the whole batch
    at once (orbit-pruned on its per-graph paths); the UCG orientation
    search is batched through :func:`repro.engine.ucg_alpha_sets` (itself
    float-exact against, and falling back to, the per-graph backtracking).
    """
    deltas = batch_stability_deltas(graphs, oracle=oracle)
    ucg_sets = (
        ucg_alpha_sets(graphs, oracle=oracle)
        if include_ucg
        else [None] * len(graphs)
    )
    records = []
    for graph, (removal, addition), ucg_set in zip(graphs, deltas, ucg_sets):
        records.append(
            GraphRecord(
                graph=graph,
                bcg_profile=PairwiseStabilityProfile(
                    graph=graph,
                    removal_increase=removal,
                    addition_saving=addition,
                ),
                ucg_alpha_set=ucg_set,
            )
        )
    return records


def _analyse_chunk(task: Tuple[List[Graph], bool]) -> List[GraphRecord]:
    """Deviation analysis for a chunk of graphs (module-level for the pool)."""
    graphs, include_ucg = task
    return _make_records(graphs, include_ucg, get_default_oracle())


_CENSUS_CACHE: Dict[tuple, EquilibriumCensus] = {}


def cached_census(
    n: int, include_ucg: bool = True, jobs: Optional[int] = None
) -> EquilibriumCensus:
    """Build (or fetch) the census for ``n`` vertices; reused across experiments.

    ``jobs`` only affects how a *cache miss* is computed (serial vs process
    pool); the resulting census is identical either way, so it is not part of
    the cache key.
    """
    key = (n, include_ucg)
    if key not in _CENSUS_CACHE:
        _CENSUS_CACHE[key] = EquilibriumCensus.build(n, include_ucg=include_ucg, jobs=jobs)
    return _CENSUS_CACHE[key]


def clear_census_cache() -> None:
    """Drop the census cache (used by cold-start benchmarks)."""
    _CENSUS_CACHE.clear()
