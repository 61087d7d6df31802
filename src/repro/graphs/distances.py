"""Breadth-first-search distances and distance-derived quantities.

The connection-game cost function (Corbo & Parkes, eq. (1)) charges every
player the sum of its hop distances to every other player, so single-source
and all-pairs BFS are the workhorse primitives of the whole library.  All
distances are in *vertex hops*; unreachable pairs have distance
:data:`INFINITY` (a float ``inf`` sentinel, so sums propagate naturally).

Since the bitset kernel landed in :mod:`repro.graphs.graph`, the BFS here is
*word-parallel*: a frontier is a single big integer, one level of expansion
is ``OR``-ing together the adjacency rows of the frontier vertices and
masking off the visited set with ``AND NOT``, and per-level population
counts come from ``int.bit_count``.  The original adjacency-set
implementations are kept as ``*_reference`` functions, the oracle the
equivalence tests in ``tests/test_engine.py`` compare the bitset kernels
against; they are not exported from :mod:`repro.graphs`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from .graph import Graph, iter_bits

#: Distance reported between vertices in different components.
INFINITY = float("inf")


# --------------------------------------------------------------------------- #
# Bitset kernels (operate directly on adjacency rows)
# --------------------------------------------------------------------------- #


def bitset_bfs_levels(
    rows: Sequence[int], source: int
) -> Tuple[List[int], int]:
    """Word-parallel BFS level sets from ``source`` over adjacency ``rows``.

    Returns ``(levels, visited)`` where ``levels[d]`` is the bitmask of
    vertices at distance exactly ``d`` and ``visited`` the union mask of all
    reached vertices.
    """
    visited = 1 << source
    frontier = visited
    levels = [frontier]
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        nxt &= ~visited
        if not nxt:
            break
        visited |= nxt
        levels.append(nxt)
        frontier = nxt
    return levels, visited


def bitset_distance_sum(rows: Sequence[int], n: int, source: int) -> float:
    """Sum of hop distances from ``source``; :data:`INFINITY` if disconnected.

    The word-parallel inner loop never materialises a distance vector: each
    level contributes ``level * popcount(level_mask)``.
    """
    visited = 1 << source
    frontier = visited
    level = 0
    total = 0
    while frontier:
        level += 1
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        nxt &= ~visited
        if not nxt:
            break
        visited |= nxt
        total += level * nxt.bit_count()
        frontier = nxt
    if visited.bit_count() != n:
        return INFINITY
    return total


def _rows_without_edge(graph: Graph, edge: Tuple[int, int]) -> List[int]:
    """A copy of the graph's adjacency rows with one edge masked off."""
    a, b = edge
    rows = list(graph.adjacency_rows())
    rows[a] &= ~(1 << b)
    rows[b] &= ~(1 << a)
    return rows


def _rows_with_edge(graph: Graph, edge: Tuple[int, int]) -> List[int]:
    """A copy of the graph's adjacency rows with one extra edge grafted on."""
    a, b = edge
    rows = list(graph.adjacency_rows())
    rows[a] |= 1 << b
    rows[b] |= 1 << a
    return rows


def _levels_to_distances(levels: Sequence[int], n: int) -> List[float]:
    dist: List[float] = [INFINITY] * n
    for level, mask in enumerate(levels):
        for v in iter_bits(mask):
            dist[v] = level
    return dist


# --------------------------------------------------------------------------- #
# Public BFS API (bitset-backed, drop-in identical to the seed behaviour)
# --------------------------------------------------------------------------- #


def bfs_distances(graph: Graph, source: int) -> List[float]:
    """Single-source shortest-path (hop) distances from ``source``.

    Returns a list ``dist`` of length ``graph.n`` with ``dist[v]`` equal to the
    number of edges on a shortest path from ``source`` to ``v``, or
    :data:`INFINITY` if ``v`` is unreachable.
    """
    levels, _ = bitset_bfs_levels(graph.adjacency_rows(), source)
    return _levels_to_distances(levels, graph.n)


def bfs_distances_with_forbidden_edge(
    graph: Graph, source: int, forbidden: Tuple[int, int]
) -> List[float]:
    """Single-source distances ignoring one edge, without copying the graph.

    Equivalent to ``bfs_distances(graph.remove_edge(*forbidden), source)`` but
    only copies the two affected adjacency rows, which matters inside the
    stability checks that probe every edge removal.
    """
    rows = _rows_without_edge(graph, forbidden)
    levels, _ = bitset_bfs_levels(rows, source)
    return _levels_to_distances(levels, graph.n)


def bfs_distances_with_extra_edge(
    graph: Graph, source: int, extra: Tuple[int, int]
) -> List[float]:
    """Single-source distances with one extra edge, without copying the graph."""
    rows = _rows_with_edge(graph, extra)
    levels, _ = bitset_bfs_levels(rows, source)
    return _levels_to_distances(levels, graph.n)


def all_pairs_distances(graph: Graph) -> List[List[float]]:
    """All-pairs hop distances as a dense ``n x n`` matrix."""
    return [bfs_distances(graph, s) for s in range(graph.n)]


def distance_sum(graph: Graph, source: int) -> float:
    """Sum of distances from ``source`` to every other vertex.

    This is exactly the distance-cost term of the connection-game player cost.
    Returns :data:`INFINITY` if any vertex is unreachable.
    """
    if not graph.n:
        return 0.0
    return bitset_distance_sum(graph.adjacency_rows(), graph.n, source)


def total_distance(graph: Graph) -> float:
    """Sum of distances over all *ordered* vertex pairs.

    This is the distance term of the social cost, eq. (4) of the paper.
    """
    return sum(distance_sum(graph, s) for s in range(graph.n))


def eccentricity(graph: Graph, source: int) -> float:
    """Maximum distance from ``source`` to any vertex."""
    if not graph.n:
        return 0.0
    levels, visited = bitset_bfs_levels(graph.adjacency_rows(), source)
    if visited.bit_count() != graph.n:
        return INFINITY
    return len(levels) - 1


def diameter(graph: Graph) -> float:
    """Largest eccentricity; :data:`INFINITY` if the graph is disconnected."""
    if graph.n == 0:
        return 0.0
    return max(eccentricity(graph, s) for s in range(graph.n))


def radius(graph: Graph) -> float:
    """Smallest eccentricity; :data:`INFINITY` if the graph is disconnected."""
    if graph.n == 0:
        return 0.0
    return min(eccentricity(graph, s) for s in range(graph.n))


def average_distance(graph: Graph) -> float:
    """Average distance over ordered pairs of distinct vertices."""
    n = graph.n
    if n < 2:
        return 0.0
    return total_distance(graph) / (n * (n - 1))


def shortest_path(graph: Graph, source: int, target: int) -> Optional[List[int]]:
    """One shortest path from ``source`` to ``target``, or ``None`` if disconnected."""
    if source == target:
        return [source]
    prev: Dict[int, int] = {source: source}
    queue = deque([source])
    rows = graph.adjacency_rows()
    while queue:
        u = queue.popleft()
        for v in iter_bits(rows[u]):
            if v not in prev:
                prev[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None


def distance_vector_sums(graph: Graph) -> List[float]:
    """Per-vertex distance sums (``[distance_sum(g, v) for v in g]``)."""
    return [distance_sum(graph, s) for s in range(graph.n)]


def is_distance_matrix_symmetric(matrix: Sequence[Sequence[float]]) -> bool:
    """Check symmetry of a distance matrix (testing helper)."""
    n = len(matrix)
    return all(matrix[i][j] == matrix[j][i] for i in range(n) for j in range(n))


# --------------------------------------------------------------------------- #
# Reference implementations (the seed's adjacency-set BFS)
#
# These are the pre-kernel code paths, kept verbatim so the equivalence tests
# always have a known-good naive baseline to compare the bitset kernels
# against.
# --------------------------------------------------------------------------- #


def bfs_distances_reference(graph: Graph, source: int) -> List[float]:
    """Adjacency-set BFS (naive baseline for the equivalence tests)."""
    n = graph.n
    dist = [INFINITY] * n
    dist[source] = 0
    queue = deque([source])
    adj = graph.adjacency_sets()
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == INFINITY:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_distances_with_forbidden_edge_reference(
    graph: Graph, source: int, forbidden: Tuple[int, int]
) -> List[float]:
    """Adjacency-set forbidden-edge BFS (naive baseline)."""
    a, b = forbidden
    n = graph.n
    dist = [INFINITY] * n
    dist[source] = 0
    queue = deque([source])
    adj = graph.adjacency_sets()
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adj[u]:
            if (u == a and v == b) or (u == b and v == a):
                continue
            if dist[v] == INFINITY:
                dist[v] = du + 1
                queue.append(v)
    return dist


def bfs_distances_with_extra_edge_reference(
    graph: Graph, source: int, extra: Tuple[int, int]
) -> List[float]:
    """Adjacency-set extra-edge BFS (naive baseline)."""
    a, b = extra
    n = graph.n
    dist = [INFINITY] * n
    dist[source] = 0
    queue = deque([source])
    adj = graph.adjacency_sets()
    while queue:
        u = queue.popleft()
        du = dist[u]
        neighbors = adj[u]
        for v in neighbors:
            if dist[v] == INFINITY:
                dist[v] = du + 1
                queue.append(v)
        if u == a and dist[b] == INFINITY:
            dist[b] = du + 1
            queue.append(b)
        elif u == b and dist[a] == INFINITY:
            dist[a] = du + 1
            queue.append(a)
    return dist


def distance_sum_reference(graph: Graph, source: int) -> float:
    """Naive distance sum built on :func:`bfs_distances_reference`."""
    return sum(bfs_distances_reference(graph, source)) if graph.n else 0.0
