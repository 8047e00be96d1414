"""Tests for the versioned query engine (consistency, journal, threading)."""

import threading

import numpy as np
import pytest

from repro.api import QuerySpec
from repro.dynamic import TriangleQueryEngine
from repro.errors import AnalysisError, GraphError
from repro.graphs import Graph, gnp_random_graph


def k4_minus_one():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


class TestQueries:
    def test_count_is_version_stamped(self):
        engine = TriangleQueryEngine(k4_minus_one())
        result = engine.query(QuerySpec(kind="count"))
        assert result.version == 0
        assert result.payload == {"triangles": 2, "num_nodes": 4, "num_edges": 5}
        engine.apply_batch(insert=[(2, 3)])
        result = engine.query(QuerySpec(kind="count"))
        assert result.version == 1
        assert result.payload["triangles"] == 4

    def test_node_counts_all_and_subset(self):
        engine = TriangleQueryEngine(k4_minus_one())
        full = engine.query(QuerySpec(kind="node-counts"))
        assert full.payload["nodes"] == [0, 1, 2, 3]
        assert full.payload["counts"] == [2, 2, 1, 1]
        some = engine.query(QuerySpec(kind="node-counts", params={"nodes": [3, 0]}))
        assert some.payload == {"nodes": [3, 0], "counts": [1, 2]}

    def test_node_counts_out_of_range(self):
        engine = TriangleQueryEngine(k4_minus_one())
        with pytest.raises(AnalysisError, match="out of range"):
            engine.query(QuerySpec(kind="node-counts", params={"nodes": [4]}))

    def test_edge_support_with_absent_edge(self):
        engine = TriangleQueryEngine(k4_minus_one())
        result = engine.query(
            QuerySpec(kind="edge-support", params={"edges": [[1, 0], [2, 3]]})
        )
        assert result.payload["edges"] == [[0, 1], [2, 3]]  # canonicalised
        assert result.payload["support"] == [2, None]

    def test_edge_support_invalid_edge(self):
        engine = TriangleQueryEngine(k4_minus_one())
        with pytest.raises(AnalysisError, match="not a valid edge"):
            engine.query(QuerySpec(kind="edge-support", params={"edges": [[1, 1]]}))

    def test_unknown_kind_rejected_at_spec(self):
        with pytest.raises(AnalysisError, match="unknown query kind"):
            QuerySpec(kind="centroids")

    def test_non_spec_rejected(self):
        engine = TriangleQueryEngine(k4_minus_one())
        with pytest.raises(AnalysisError, match="expects a QuerySpec"):
            engine.query({"kind": "count"})


class TestBatchEndpoints:
    @pytest.mark.parametrize(
        "pair", [(0, 2.7), (True, 3), ("1", "4"), (0, None)], ids=["float", "bool", "str", "none"]
    )
    def test_non_integer_endpoints_rejected(self, pair):
        engine = TriangleQueryEngine(Graph(5, [(0, 1), (1, 2)]))
        with pytest.raises(GraphError, match="integer") as excinfo:
            engine.apply_batch(insert=[(0, 4), pair])
        assert repr(pair) in str(excinfo.value)
        # Nothing was applied: the batch is rejected whole.
        assert engine.version == 0
        assert engine.snapshot.num_edges == 2

    @pytest.mark.parametrize(
        "make_pair", [lambda: {1, 3}, lambda: iter((1, 3))], ids=["set", "iterator"]
    )
    def test_non_sequence_pairs_rejected(self, make_pair):
        # Both unpack to two ints, but neither is a (u, v) sequence.
        engine = TriangleQueryEngine(Graph(5, [(0, 1), (1, 2)]))
        with pytest.raises(GraphError, match="integer"):
            engine.apply_batch(insert=[(0, 4), make_pair()])
        assert engine.version == 0
        assert engine.snapshot.num_edges == 2

    def test_numpy_integers_accepted(self):
        engine = TriangleQueryEngine(Graph(5, [(0, 1), (1, 2)]))
        delta = engine.apply_batch(insert=[(np.int32(0), np.uint8(2))], delete=[np.array([1, 0])])
        assert delta.inserted == ((0, 2),)
        assert delta.deleted == ((0, 1),)


class TestDeltaSince:
    def test_reports_batches_after_version(self):
        engine = TriangleQueryEngine(k4_minus_one(), listing=True)
        engine.apply_batch(insert=[(2, 3)])
        engine.apply_batch(delete=[(0, 1)])
        result = engine.query(QuerySpec(kind="delta-since", params={"version": 1}))
        batches = result.payload["batches"]
        assert [b["version"] for b in batches] == [2]
        assert batches[0]["deleted"] == [[0, 1]]
        assert batches[0]["destroyed"]  # listing mode retains triangles

    def test_listing_off_omits_triangles(self):
        engine = TriangleQueryEngine(k4_minus_one(), listing=False)
        engine.apply_batch(insert=[(2, 3)])
        batch = engine.query(QuerySpec(kind="delta-since", params={"version": 0}))
        (doc,) = batch.payload["batches"]
        assert "created" not in doc
        assert doc["created_count"] == 2

    def test_current_version_yields_empty(self):
        engine = TriangleQueryEngine(k4_minus_one())
        engine.apply_batch(insert=[(2, 3)])
        result = engine.query(QuerySpec(kind="delta-since", params={"version": 1}))
        assert result.payload["batches"] == []

    def test_future_version_rejected(self):
        engine = TriangleQueryEngine(k4_minus_one())
        with pytest.raises(AnalysisError, match="ahead of the current"):
            engine.query(QuerySpec(kind="delta-since", params={"version": 3}))

    def test_truncated_journal_rejected(self):
        engine = TriangleQueryEngine(k4_minus_one(), journal_limit=2)
        for step in range(4):
            engine.apply_batch(insert=[(2, 3)] if step % 2 == 0 else [], delete=[(2, 3)] if step % 2 else [])
        with pytest.raises(AnalysisError, match="predates the retained journal"):
            engine.query(QuerySpec(kind="delta-since", params={"version": 0}))
        ok = engine.query(QuerySpec(kind="delta-since", params={"version": 2}))
        assert [b["version"] for b in ok.payload["batches"]] == [3, 4]


class TestStatusAndVerify:
    def test_status_document(self):
        engine = TriangleQueryEngine(k4_minus_one())
        engine.apply_batch(insert=[(2, 3)])
        engine.query(QuerySpec(kind="count"))
        status = engine.status()
        assert status["version"] == 1
        assert status["triangles"] == 4
        assert status["batches_applied"] == 1
        assert status["queries_answered"] == 1

    def test_verify_against_recompute(self):
        engine = TriangleQueryEngine(gnp_random_graph(25, 0.3, seed=9), compact_threshold=5)
        for step in range(6):
            engine.apply_batch(insert=[(step, step + 10)])
        summary = engine.verify_against_recompute()
        assert summary["version"] == 6

    def test_bad_journal_limit(self):
        with pytest.raises(GraphError, match="journal_limit"):
            TriangleQueryEngine(Graph(2), journal_limit=0)


class TestThreadedConsistency:
    def test_readers_never_observe_half_applied_batches(self):
        """Concurrent count queries see v-consistent (version, count) pairs.

        Each applied batch inserts OR deletes the three edges of one
        triangle on otherwise-isolated nodes, so every consistent state
        has count == base + (version % 2 == 1).  A torn read (some of the
        batch applied) would produce a count off by the partial edges.
        """
        base = gnp_random_graph(30, 0.2, seed=12)
        base_count = base.csr().count_triangles()
        # Nodes 30..32 are isolated in the extended graph.
        extended = Graph(33, list(base.edges()))
        engine = TriangleQueryEngine(extended, compact_threshold=4)
        tri = [(30, 31), (31, 32), (30, 32)]

        stop = threading.Event()
        problems = []

        def reader():
            spec = QuerySpec(kind="count")
            while not stop.is_set():
                result = engine.query(spec)
                expected = base_count + (1 if result.version % 2 == 1 else 0)
                if result.payload["triangles"] != expected:
                    problems.append(
                        (result.version, result.payload["triangles"], expected)
                    )

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for step in range(60):
                if step % 2 == 0:
                    engine.apply_batch(insert=tri)
                else:
                    engine.apply_batch(delete=tri)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert problems == []
