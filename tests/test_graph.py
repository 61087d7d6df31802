"""Unit tests for the basic Graph type."""

import pytest

from repro.graphs import Graph, normalize_edge


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(4)
        assert g.n == 4
        assert g.num_edges == 0
        assert list(g.vertices) == [0, 1, 2, 3]

    def test_edges_are_normalized_and_deduplicated(self):
        g = Graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.num_edges == 2
        assert g.edges == {(0, 1), (1, 2)}

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_from_edge_list_infers_size(self):
        g = Graph.from_edge_list([(0, 4), (2, 3)])
        assert g.n == 5
        assert g.num_edges == 2

    def test_from_and_to_adjacency_matrix(self):
        matrix = [
            [0, 1, 0],
            [1, 0, 1],
            [0, 1, 0],
        ]
        g = Graph.from_adjacency_matrix(matrix)
        assert g.edges == {(0, 1), (1, 2)}
        assert g.to_adjacency_matrix() == matrix

    def test_non_square_adjacency_matrix_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_adjacency_matrix([[0, 1], [1, 0, 0]])


class TestAccessors:
    def test_neighbors_and_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.neighbors(0) == {1, 2, 3}
        assert g.degree(0) == 3
        assert g.degree(1) == 1

    def test_degree_sequence_sorted_descending(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.degree_sequence() == (3, 1, 1, 1)
        assert g.degrees() == (3, 1, 1, 1)

    def test_has_edge(self):
        g = Graph(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(1, 1)

    def test_non_edges(self):
        g = Graph(3, [(0, 1)])
        assert g.non_edges() == [(0, 2), (1, 2)]

    def test_sorted_edges_deterministic(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 3)])
        assert g.sorted_edges() == [(0, 1), (0, 3), (2, 3)]

    def test_len_and_iter(self):
        g = Graph(3, [(0, 1)])
        assert len(g) == 3
        assert list(g) == [0, 1, 2]


class TestImmutableOperations:
    def test_add_edge_returns_new_graph(self):
        g = Graph(3, [(0, 1)])
        h = g.add_edge(1, 2)
        assert g.num_edges == 1
        assert h.num_edges == 2

    def test_add_existing_edge_is_identity(self):
        g = Graph(3, [(0, 1)])
        assert g.add_edge(0, 1) is g

    def test_remove_edge(self):
        g = Graph(3, [(0, 1), (1, 2)])
        h = g.remove_edge(0, 1)
        assert h.edges == {(1, 2)}
        assert g.num_edges == 2

    def test_remove_missing_edge_is_identity(self):
        g = Graph(3, [(0, 1)])
        assert g.remove_edge(0, 2) is g

    def test_single_edge_mutation_never_walks_the_edge_set(self, monkeypatch):
        # Mutation cost must not scale with m: one row pair changes and the
        # edge set is never re-normalised through __init__.
        from repro.graphs import complete_graph

        dense = complete_graph(200).remove_edge(0, 199)

        def rebuild(*args, **kwargs):
            raise AssertionError("single-edge mutation rebuilt the graph")

        monkeypatch.setattr(Graph, "__init__", rebuild)
        added = dense.add_edge(0, 199)
        assert added.num_edges == dense.num_edges + 1 and added.has_edge(0, 199)
        assert added.remove_edge(0, 199).num_edges == dense.num_edges
        assert not dense.toggle_edge(0, 1).has_edge(0, 1)

    def test_toggle_edge(self):
        g = Graph(3, [(0, 1)])
        assert not g.toggle_edge(0, 1).has_edge(0, 1)
        assert g.toggle_edge(1, 2).has_edge(1, 2)

    def test_add_and_remove_multiple_edges(self):
        g = Graph(4)
        h = g.add_edges([(0, 1), (2, 3)])
        assert h.num_edges == 2
        assert h.remove_edges([(0, 1), (2, 3)]).num_edges == 0

    def test_relabel(self):
        g = Graph(3, [(0, 1)])
        h = g.relabel([2, 0, 1])
        assert h.edges == {(0, 2)}

    def test_relabel_requires_permutation(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.relabel([0, 0, 1])

    def test_induced_subgraph(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        h = g.induced_subgraph([1, 2, 3])
        assert h.n == 3
        assert h.edges == {(0, 1), (1, 2)}

    def test_induced_subgraph_requires_distinct_vertices(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError):
            g.induced_subgraph([0, 0])

    def test_complement(self):
        g = Graph(3, [(0, 1)])
        assert g.complement().edges == {(0, 2), (1, 2)}

    def test_add_vertex(self):
        g = Graph(2, [(0, 1)])
        h = g.add_vertex([0])
        assert h.n == 3
        assert h.has_edge(0, 2)


class TestEqualityAndHashing:
    def test_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])
        assert Graph(3) != Graph(4)

    def test_hash_consistency(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_edge_key(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert g.edge_key() == (3, ((0, 1), (1, 2)))

    def test_adjacency_bitstring_distinguishes_labelled_graphs(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 2)])
        assert a.adjacency_bitstring() != b.adjacency_bitstring()

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"


def test_normalize_edge():
    assert normalize_edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        normalize_edge(2, 2)
