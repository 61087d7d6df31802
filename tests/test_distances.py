"""Unit tests for BFS distances and derived quantities."""

import pytest

from repro.graphs import (
    INFINITY,
    Graph,
    all_pairs_distances,
    average_distance,
    bfs_distances,
    bfs_distances_with_extra_edge,
    bfs_distances_with_forbidden_edge,
    complete_graph,
    cycle_graph,
    diameter,
    distance_sum,
    distance_vector_sums,
    eccentricity,
    path_graph,
    petersen_graph,
    radius,
    shortest_path,
    star_graph,
    total_distance,
)


class TestBFS:
    def test_path_distances(self, p4):
        assert bfs_distances(p4, 0) == [0, 1, 2, 3]
        assert bfs_distances(p4, 3) == [3, 2, 1, 0]

    def test_disconnected_distances_are_infinite(self):
        g = Graph(4, [(0, 1), (2, 3)])
        dist = bfs_distances(g, 0)
        assert dist[1] == 1
        assert dist[2] == INFINITY
        assert dist[3] == INFINITY

    def test_all_pairs_symmetric(self, c6):
        matrix = all_pairs_distances(c6)
        for i in range(6):
            for j in range(6):
                assert matrix[i][j] == matrix[j][i]

    def test_forbidden_edge_matches_removal(self, c6):
        for edge in c6.sorted_edges():
            removed = c6.remove_edge(*edge)
            for source in range(c6.n):
                assert bfs_distances_with_forbidden_edge(c6, source, edge) == bfs_distances(
                    removed, source
                )

    def test_extra_edge_matches_addition(self, c6):
        for non_edge in c6.non_edges():
            added = c6.add_edge(*non_edge)
            for source in range(c6.n):
                assert bfs_distances_with_extra_edge(c6, source, non_edge) == bfs_distances(
                    added, source
                )


class TestAggregates:
    def test_distance_sum_star_center_vs_leaf(self, star6):
        assert distance_sum(star6, 0) == 5          # centre: five leaves at distance 1
        assert distance_sum(star6, 1) == 1 + 2 * 4  # leaf: centre at 1, four leaves at 2

    def test_distance_sum_petersen(self):
        # Diameter 2, degree 3: three neighbours at 1, six vertices at 2.
        assert distance_sum(petersen_graph(), 0) == 3 + 6 * 2

    def test_total_distance_complete_graph(self):
        assert total_distance(complete_graph(5)) == 5 * 4

    def test_total_distance_cycle_matches_formula(self):
        for n in (4, 5, 6, 7, 8):
            expected = n * (n * n // 4 if n % 2 == 0 else (n * n - 1) // 4)
            assert total_distance(cycle_graph(n)) == expected

    def test_distance_vector_sums(self, p4):
        assert distance_vector_sums(p4) == [6, 4, 4, 6]

    def test_average_distance(self):
        assert average_distance(complete_graph(4)) == 1.0
        assert average_distance(Graph(1)) == 0.0


class TestEccentricityDiameterRadius:
    def test_path(self, p4):
        assert eccentricity(p4, 0) == 3
        assert eccentricity(p4, 1) == 2
        assert diameter(p4) == 3
        assert radius(p4) == 2

    def test_star(self, star6):
        assert diameter(star6) == 2
        assert radius(star6) == 1

    def test_disconnected_graph(self):
        g = Graph(3, [(0, 1)])
        assert diameter(g) == INFINITY

    def test_empty_graph(self):
        assert diameter(Graph(0)) == 0.0
        assert radius(Graph(0)) == 0.0


class TestShortestPath:
    def test_path_endpoints(self, p4):
        assert shortest_path(p4, 0, 3) == [0, 1, 2, 3]

    def test_same_vertex(self, p4):
        assert shortest_path(p4, 2, 2) == [2]

    def test_disconnected_returns_none(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert shortest_path(g, 0, 3) is None

    def test_path_length_matches_distance(self, petersen):
        for target in range(1, petersen.n):
            path = shortest_path(petersen, 0, target)
            assert path is not None
            assert len(path) - 1 == bfs_distances(petersen, 0)[target]
            for a, b in zip(path, path[1:]):
                assert petersen.has_edge(a, b)
