"""Unit tests for the Graph representation."""

import io

import numpy as np
import pytest

from repro.dynamic.delta import DeltaGraph
from repro.errors import GraphError
from repro.graphs import CSRGraph, Graph, gnp_random_graph, is_connected, read_edge_list


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


class TestGraphEquality:
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
    def test_concurrent_readers_get_consistent_answers(self):
        """With no lock, threads that race to build the core's lazy caches
        must still all see the one graph: the same core object, and the
        triangles, supports and memberships a fresh rebuild computes."""
        import threading

        graph = gnp_random_graph(60, 0.3, seed=3)
        core = graph.csr()
        u = np.arange(60).repeat(60)
        v = np.tile(np.arange(60), 60)
        barrier = threading.Barrier(4)
        seen = []

        def reader():
            barrier.wait()
            view = graph.csr()
            seen.append((
                view,
                view.triangles().tobytes(),
                view.edge_support().tobytes(),
                view.has_edges(u, v).tobytes(),
                graph.neighbors(7),
            ))

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        fresh = CSRGraph.from_edge_arrays(60, core.edge_u, core.edge_v)
        expected = (
            core,
            fresh.triangles().tobytes(),
            fresh.edge_support().tobytes(),
            fresh.has_edges(u, v).tobytes(),
            frozenset(fresh.neighbor_slice(7).tolist()),
        )
        assert seen == [expected] * 4

    def test_pickled_graph_keeps_working(self):
        """A round-tripped graph answers every query as the original does,
        and its core is as read-only as the original's."""
        import pickle

        graph = gnp_random_graph(30, 0.3, seed=5)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.edge_list() == graph.edge_list()
        for node in graph.nodes():
            assert clone.neighbors(node) == graph.neighbors(node)
            assert clone.degree(node) == graph.degree(node)
        assert clone.common_neighbors(0, 1) == graph.common_neighbors(0, 1)
        assert clone.csr().triangles().tolist() == graph.csr().triangles().tolist()
        assert not clone.csr().indices.flags.writeable
        assert not hasattr(clone, "add_edge")


def _reachable(root):
    """Every object reachable from ``root`` through ``__slots__``."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                stack.append(getattr(obj, slot))


class TestOneRepresentation:
    """A Graph is its CSR core: immutable, and built the same way by every door."""

    EDGES = [(0, 3), (3, 1), (1, 0), (2, 4), (4, 2), (0, 3), (5, 1)]

    def test_graph_has_no_mutators(self):
        assert not hasattr(Graph, "add_edge")
        assert not hasattr(Graph, "remove_edge")

    @pytest.mark.parametrize("probability", [0.05, 0.2, 0.6])
    def test_every_reachable_array_is_read_only(self, probability):
        graph = gnp_random_graph(40, probability, seed=4)
        csr = graph.csr()
        # Populate every lazily built cache of the core first.
        csr.triangles()
        csr.edge_support()
        csr.has_edges(np.arange(40), np.arange(40)[::-1])
        csr._edge_key_array()
        csr._bit_matrix()
        if csr._use_dense():
            csr._packed_matrix()
        reached = list(_reachable(graph))
        assert {type(obj) for obj in reached} <= {Graph, CSRGraph, np.ndarray, int, type(None)}
        arrays = [obj for obj in reached if isinstance(obj, np.ndarray)]
        assert len(arrays) >= 4
        assert not any(array.flags.writeable for array in arrays)

    def test_every_door_builds_the_same_arrays(self):
        u, v = zip(*self.EDGES)
        delta = DeltaGraph(Graph(6, self.EDGES[:2]))
        delta.apply_batch(insert=self.EDGES[2:] + [(2, 5)])
        delta.apply_batch(delete=[(2, 5)])
        text = "# nodes 6\n" + "".join(f"{a} {b}\n" for a, b in self.EDGES)
        graphs = [
            Graph(6, self.EDGES),
            Graph.from_edge_arrays(6, np.array(u), np.array(v)),
            read_edge_list(io.StringIO(text)),
            delta.snapshot.materialize(),
        ]
        first = graphs[0].csr()
        assert graphs[0].edge_list() == [(0, 1), (0, 3), (1, 3), (1, 5), (2, 4)]
        for graph in graphs[1:]:
            assert graph == graphs[0]
            csr = graph.csr()
            for name in ("indptr", "indices", "edge_u", "edge_v"):
                mine, theirs = getattr(csr, name), getattr(first, name)
                assert mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 1), (1, 1), (0, 5)], "self-loops are not allowed (vertex 1)"),
            ([(0, 1), (4, 0), (1, 1)], "vertex 4 is not in the graph (valid range: 0..2)"),
            ([(2, -1)], "vertex -1 is not in the graph (valid range: 0..2)"),
        ],
    )
    def test_invalid_edge_messages(self, edges, message):
        with pytest.raises(GraphError) as constructed:
            Graph(3, edges)
        assert str(constructed.value) == message
        text = "# nodes 3\n" + "".join(f"{a} {b}\n" for a, b in edges)
        with pytest.raises(GraphError) as read:
            read_edge_list(io.StringIO(text))
        assert str(read.value) == message

    def test_mismatched_endpoint_arrays_rejected(self):
        with pytest.raises(GraphError) as built:
            Graph.from_edge_arrays(4, [0, 1], [2])
        assert str(built.value) == "endpoint arrays disagree in length: 2 vs 1"

    def test_non_pair_edges_rejected(self):
        with pytest.raises(GraphError) as built:
            Graph(4, [(0, 1, 2)])
        assert str(built.value) == "edges must be (u, v) vertex pairs"

    def test_read_reports_the_first_bad_line(self):
        with pytest.raises(GraphError) as read:
            read_edge_list(io.StringIO("# nodes 3\n1 0\n0 7\nx y\n"))
        assert str(read.value) == "vertex 7 is not in the graph (valid range: 0..2)"
        with pytest.raises(GraphError) as read:
            read_edge_list(io.StringIO("# nodes 3\n1 0\n0 1 2\n0 7\n"))
        assert str(read.value) == "line 3: expected 'u v', got '0 1 2'"
