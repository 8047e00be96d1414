"""Pickle round trips of graphs and CSR snapshots.

A pickled graph or snapshot (a process-pool argument, a graph saved to
disk) must come back as the same graph, carry the oracle already
computed, and stay as immutable as the snapshot it was taken from.
"""

import pickle

import numpy as np
import pytest

from repro.graphs import CSRGraph, Graph, gnp_random_graph


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=4))


def _warm_snapshot(graph):
    """Return ``graph``'s CSR with every lazily built array computed."""
    csr = graph.csr()
    csr.triangles()
    csr.edge_support()
    csr._edge_key_array()
    csr._bit_matrix()
    csr._packed_matrix()
    return csr


_ARRAY_SLOTS = [slot for slot in CSRGraph.__slots__ if slot != "num_nodes"]


class TestCSRRoundTrip:
    def test_round_trip_arrays_and_oracle(self):
        csr = gnp_random_graph(80, 0.2, seed=3).csr()
        support = csr.edge_support()
        triangles = csr.triangles()
        clone = _round_trip(csr)
        assert clone.num_nodes == csr.num_nodes
        assert clone.num_edges == csr.num_edges
        for field in ("indptr", "indices", "edge_u", "edge_v"):
            np.testing.assert_array_equal(getattr(clone, field), getattr(csr, field))
        # The oracle arrives pre-populated: the copy does not recompute it.
        assert clone._support is not None and clone._triangles is not None
        np.testing.assert_array_equal(clone.edge_support(), support)
        np.testing.assert_array_equal(clone.triangles(), triangles)

    def test_unbuilt_caches_stay_unbuilt(self):
        clone = _round_trip(gnp_random_graph(30, 0.3, seed=1).csr())
        lazy = [slot for slot in _ARRAY_SLOTS if slot.startswith("_")]
        assert all(getattr(clone, slot) is None for slot in lazy)
        # ... and build on demand as they would on the original.
        assert clone.triangles().shape[1] == 3

    @pytest.mark.parametrize("slot", _ARRAY_SLOTS)
    def test_every_array_of_a_copy_is_read_only(self, slot):
        csr = _warm_snapshot(gnp_random_graph(30, 0.3, seed=1))
        array = getattr(_round_trip(csr), slot)
        assert array is not None
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.reshape(-1)[0] = 1

    def test_empty_graph_round_trips(self):
        clone = _round_trip(_warm_snapshot(Graph(3)))
        assert clone.num_nodes == 3
        assert clone.num_edges == 0
        assert clone.triangles().shape == (0, 3)


class TestGraphRoundTrip:
    def test_copy_is_the_same_graph_with_its_snapshot(self):
        graph = gnp_random_graph(50, 0.25, seed=9)
        triangles = graph.csr().triangles()
        clone = _round_trip(graph)
        assert clone == graph
        assert clone.num_edges == graph.num_edges
        # The cached snapshot travels with the graph, oracle included.
        assert clone._csr_cache is not None
        assert clone._csr_cache._triangles is not None
        np.testing.assert_array_equal(clone.csr().triangles(), triangles)

    def test_mutating_a_copy_leaves_the_original_alone(self):
        graph = gnp_random_graph(20, 0.3, seed=4)
        graph.csr()
        clone = _round_trip(graph)
        u, v = next(
            (u, v) for u in range(20) for v in range(u + 1, 20)
            if not graph.has_edge(u, v)
        )
        clone.add_edge(u, v)
        assert clone.csr().num_edges == graph.num_edges + 1
        assert not graph.has_edge(u, v)
        assert graph.csr().num_edges == graph.num_edges
