"""Tests for the versioned query engine (consistency, journal, threading)."""

import json
import random
import threading

import numpy as np
import pytest

from repro.api import QueryResult, QuerySpec
from repro.api.records import canonical_json
from repro.dynamic import TriangleQueryEngine
from repro.faults import FaultPlane, FaultRule, FaultSchedule, install_plane, uninstall_plane
from repro.errors import AnalysisError, GraphError, ReproError
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


class TestTrustedResults:
    """Engine answers skip validation, so pin them against the validating path."""

    @staticmethod
    def check(result):
        assert result == QueryResult(result.kind, result.version, result.payload)
        assert result.to_json() == canonical_json(result.to_dict())
        assert QueryResult.from_json(result.to_json()) == result

    @pytest.mark.parametrize("listing", [True, False], ids=["listing", "counts"])
    def test_random_stream_matches_validated_construction(self, listing):
        rng = random.Random(2024)
        n = 30
        engine = TriangleQueryEngine(
            gnp_random_graph(n, 0.25, seed=4), listing=listing, compact_threshold=12, journal_limit=5
        )
        kinds_seen = set()
        for _ in range(25):
            insert = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(4)}
            delete = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(4)} - insert
            engine.apply_batch(insert=sorted(insert), delete=sorted(delete))
            oldest = engine.status()["journal_from_version"]
            specs = [
                QuerySpec(kind="count"),
                QuerySpec(kind="node-counts"),
                QuerySpec(kind="node-counts", params={"nodes": rng.sample(range(n), 5)}),
                QuerySpec(kind="node-counts", params={"nodes": []}),
                QuerySpec(
                    kind="edge-support",
                    params={"edges": [rng.sample(range(n), 2) for _ in range(6)]},
                ),
            ] + [
                QuerySpec(kind="delta-since", params={"version": version})
                for version in range(oldest, engine.version + 1)
            ]
            for spec in specs:
                result = engine.query(spec)
                self.check(result)
                kinds_seen.add(result.kind)
        status = engine.status()
        assert status["compactions"] > 0
        assert status["journal_from_version"] == engine.version - 5  # entries evicted
        assert kinds_seen == {"count", "node-counts", "edge-support", "delta-since"}

    def test_delta_since_payload_is_isolated(self):
        engine = TriangleQueryEngine(k4_minus_one(), listing=True)
        engine.apply_batch(insert=[(2, 3)])
        engine.apply_batch(delete=[(0, 1)])
        spec = QuerySpec(kind="delta-since", params={"version": 0})
        first = engine.query(spec)
        original = first.to_json()
        payload = first.payload
        payload["batches"][0]["created"].append([0, 1, 2])
        del payload["batches"][1]["destroyed"]
        del payload["from_version"]
        document = first.to_dict()
        document["payload"]["batches"].pop()
        assert first.to_json() == original
        assert engine.query(spec).to_json() == original
        assert json.loads(original)["payload"]["batches"][0]["created"] == [[0, 2, 3], [1, 2, 3]]

    def test_node_counts_payload_is_isolated(self):
        engine = TriangleQueryEngine(k4_minus_one())
        spec = QuerySpec(kind="node-counts", params={"nodes": [3, 0]})
        first = engine.query(spec)
        original = first.to_json()
        first.payload["counts"][0] = 99
        first.payload["nodes"].append(1)
        assert engine.query(spec).to_json() == original
        assert engine.oracle.node_count(3) == 1


def _answers(engine, edges):
    """Every read the engine serves, as canonical JSON, plus its raw indexes."""
    specs = [
        QuerySpec(kind="count"),
        QuerySpec(kind="node-counts"),
        QuerySpec(kind="edge-support", params={"edges": edges}),
        QuerySpec(kind="delta-since", params={"version": 0}),
    ]
    return (
        engine.version,
        [engine.query(spec).to_json() for spec in specs],
        engine.oracle.node_counts().tolist(),
        engine.oracle.support_map(),
        engine.snapshot.edge_keys().tolist(),
        engine.oracle.graph.live.degree.tolist(),
    )


class TestAtomicWrites:
    """A batch that raises leaves the engine exactly as it was.

    The writer patches its live state (degrees, hash table, supports) in
    place, so a rejected or faulted batch must fail before touching any of
    it: the engine then answers, and goes on answering, exactly like a twin
    that never saw the batch.
    """

    EDGES = [[0, 1], [0, 2], [2, 5], [3, 4], [5, 6], [1, 7]]

    def _twins(self):
        graph = gnp_random_graph(12, 0.4, seed=8)
        engines = [
            TriangleQueryEngine(graph, listing=True, compact_threshold=6) for _ in range(2)
        ]
        for engine in engines:
            engine.apply_batch(insert=[(0, 2), (5, 6)], delete=[(0, 1)])
        return engines

    def _check_twins(self, engine, twin, batches):
        assert _answers(engine, self.EDGES) == _answers(twin, self.EDGES)
        for insert, delete in batches:
            delta = twin.apply_batch(insert, delete)
            assert engine.apply_batch(insert, delete) == delta
            assert _answers(engine, self.EDGES) == _answers(twin, self.EDGES)
        assert delta.compacted
        engine.verify_against_recompute()

    # After the failure every kind of live-state patch still runs: (0, 1)
    # comes back from the tombstones, (0, 2) leaves the overlay and comes
    # back to its dead slot, and the last batch compacts (threshold 6).
    LATER = [
        ([(0, 1), (3, 4), (9, 10)], [(0, 2)]),
        ([(0, 2), (5, 7), (6, 7), (1, 5)], [(2, 5)]),
    ]

    @pytest.mark.parametrize(
        "insert, delete, message",
        [
            ([(0, 1), (1, True)], [], "integer \\(u, v\\) pairs"),
            ([(0, 12)], [], "out of range"),
            ([(4, 4)], [], "self-loop"),
            ([(0, 1)], [(1, 0)], "both insert and delete"),
        ],
    )
    def test_rejected_batch_changes_nothing(self, insert, delete, message):
        engine, twin = self._twins()
        with pytest.raises(GraphError, match=message):
            engine.apply_batch(insert, delete)
        assert engine.batches_applied == twin.batches_applied
        self._check_twins(engine, twin, self.LATER)

    def test_injected_apply_fault_changes_nothing(self):
        engine, twin = self._twins()
        # The faulted batch would compact: staging a compaction must not
        # leak into the live state either.
        insert = [(i, j) for i in range(4) for j in range(8, 12) if i + j < 13]
        plane = FaultPlane(FaultSchedule(seed=0, rules=(FaultRule.build("query.apply", "fail"),)))
        install_plane(plane)
        try:
            with pytest.raises(ReproError, match="injected fault"):
                engine.apply_batch(insert=insert, delete=[(3, 5)])
        finally:
            uninstall_plane()
        assert plane.counts() == {"query.apply:fail": 1}
        self._check_twins(engine, twin, [(insert, [(3, 5)])])
        self._check_twins(engine, twin, self.LATER)
