"""Unit tests for the Graph representation."""

import pytest

from repro.errors import GraphError
from repro.graphs import Graph, is_connected


class TestGraphConstruction:
    def test_empty_graph_has_no_edges(self):
        graph = Graph(5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_zero_node_graph(self):
        graph = Graph(0)
        assert graph.num_nodes == 0
        assert list(graph.edges()) == []

    def test_edges_from_constructor(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.num_edges == 2
        assert graph.has_edge(0, 1)
        assert graph.has_edge(3, 2)

    def test_duplicate_edges_collapse(self):
        graph = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_edge_to_missing_vertex_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 5)])

    def test_from_adjacency(self):
        graph = Graph.from_adjacency({0: [1, 2], 1: [2]})
        assert graph.num_nodes == 3
        assert graph.num_edges == 3

    def test_from_adjacency_explicit_size(self):
        graph = Graph.from_adjacency({0: [1]}, num_nodes=5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 1

    def test_from_edge_list(self):
        graph = Graph.from_edge_list(4, [(0, 1), (1, 2)])
        assert graph.num_edges == 2


class TestGraphQueries:
    def test_neighbors_symmetric(self):
        graph = Graph(4, [(0, 1), (0, 2)])
        assert graph.neighbors(0) == frozenset({1, 2})
        assert graph.neighbors(1) == frozenset({0})

    def test_sorted_neighbors(self):
        graph = Graph(5, [(0, 4), (0, 2), (0, 3)])
        assert graph.sorted_neighbors(0) == [2, 3, 4]

    def test_degree(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.degree(0) == 3
        assert graph.degree(1) == 1

    def test_max_degree(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph.max_degree() == 3

    def test_max_degree_empty(self):
        assert Graph(0).max_degree() == 0

    def test_average_degree(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert graph.average_degree() == pytest.approx(1.0)

    def test_density_complete(self):
        graph = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert graph.density() == pytest.approx(1.0)

    def test_density_tiny(self):
        assert Graph(1).density() == 0.0

    def test_has_edge_false_for_self(self):
        graph = Graph(3, [(0, 1)])
        assert not graph.has_edge(1, 1)

    def test_query_missing_vertex_raises(self):
        graph = Graph(3)
        with pytest.raises(GraphError):
            graph.neighbors(7)
        with pytest.raises(GraphError):
            graph.degree(-1)

    def test_edges_canonical_order(self):
        graph = Graph(4, [(3, 2), (1, 0), (2, 0)])
        assert list(graph.edges()) == [(0, 1), (0, 2), (2, 3)]

    def test_common_neighbors(self):
        graph = Graph(5, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4)])
        assert graph.common_neighbors(0, 1) == frozenset({2, 3})

    def test_contains_protocol(self):
        graph = Graph(4, [(0, 1)])
        assert 2 in graph
        assert 9 not in graph
        assert (0, 1) in graph
        assert (1, 0) in graph
        assert (2, 3) not in graph
        assert "x" not in graph

    def test_len(self):
        assert len(Graph(7)) == 7

    def test_repr_mentions_sizes(self):
        assert "num_nodes=3" in repr(Graph(3, [(0, 1)]))


class TestGraphMutation:
    def test_add_edge_returns_true_when_new(self):
        graph = Graph(3)
        assert graph.add_edge(0, 1) is True
        assert graph.add_edge(0, 1) is False

    def test_remove_edge(self):
        graph = Graph(3, [(0, 1)])
        assert graph.remove_edge(0, 1) is True
        assert graph.num_edges == 0
        assert graph.remove_edge(0, 1) is False

    def test_remove_nonexistent_edge_noop(self):
        graph = Graph(3, [(0, 1)])
        assert graph.remove_edge(1, 2) is False
        assert graph.num_edges == 1

    def test_copy_is_independent(self):
        graph = Graph(3, [(0, 1)])
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.num_edges == 1
        assert clone.num_edges == 2

    def test_equality(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 0)])
        c = Graph(3, [(0, 2)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_graphs_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph(2))


class TestInducedSubgraph:
    def test_membership_and_edges(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        view = graph.induced_subgraph([1, 2, 3])
        assert view.num_nodes == 3
        assert view.has_edge(1, 2)
        assert not view.has_edge(3, 4)
        assert list(view.edges()) == [(1, 2), (2, 3)]
        assert view.num_edges() == 2

    def test_neighbors_restricted(self):
        graph = Graph(5, [(0, 1), (1, 2), (1, 4)])
        view = graph.induced_subgraph([0, 1, 2])
        assert view.neighbors(1) == frozenset({0, 2})

    def test_invalid_vertex_rejected(self):
        graph = Graph(3)
        with pytest.raises(GraphError):
            graph.induced_subgraph([0, 9])

    def test_query_outside_view_rejected(self):
        graph = Graph(4, [(0, 1)])
        view = graph.induced_subgraph([0, 1])
        with pytest.raises(GraphError):
            view.neighbors(3)

    def test_repr(self):
        graph = Graph(4, [(0, 1)])
        view = graph.induced_subgraph([0, 1])
        assert "InducedSubgraph" in repr(view)


class TestGraphHelpers:
    def test_is_connected_true(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert is_connected(graph)

    def test_is_connected_false(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        assert not is_connected(graph)

    def test_is_connected_trivial(self):
        assert is_connected(Graph(0))
        assert is_connected(Graph(1))


class TestCsrThreadSafety:
    def test_concurrent_readers_and_mutator_get_consistent_snapshots(self):
        """Regression: the lazy CSR build races mutation without the lock.

        Readers hammer ``csr()`` while a writer flips edges.  Every
        returned view must be internally consistent — a torn snapshot
        (adjacency mutated mid-build) shows up as indptr/indices length
        disagreement, unsorted rows, or asymmetric edges.
        """
        import threading

        from repro.graphs import gnp_random_graph

        graph = gnp_random_graph(60, 0.2, seed=3)
        stop = threading.Event()
        problems = []

        def reader():
            while not stop.is_set():
                view = graph.csr()
                indptr, indices = view.indptr, view.indices
                if int(indptr[-1]) != indices.shape[0]:
                    problems.append("indptr total disagrees with indices length")
                    return
                if view.edge_u.shape[0] * 2 != indices.shape[0]:
                    problems.append("edge list disagrees with adjacency size")
                    return

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for round_number in range(300):
                u = round_number % 59
                if graph.has_edge(u, u + 1):
                    graph.remove_edge(u, u + 1)
                else:
                    graph.add_edge(u, u + 1)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert problems == []

    def test_pickled_graph_keeps_working(self):
        """The lock is process-local state and must survive a round trip."""
        import pickle

        graph = Graph(4, [(0, 1), (1, 2)])
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        clone.add_edge(0, 3)
        assert clone.csr().num_edges == 3
