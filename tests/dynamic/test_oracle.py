"""Unit tests for the incremental triangle oracle (crafted sequences)."""

import threading

import numpy as np
import pytest

from repro.dynamic import BatchDelta, IncrementalTriangleOracle
from repro.errors import GraphError
from repro.graphs import Graph, gnp_random_graph


def recompute(oracle):
    """From-scratch ground truth for the oracle's current snapshot."""
    csr = oracle.snapshot.compact()
    n = max(csr.num_nodes, 1)
    keys = csr._edge_key_array()
    return (
        csr.count_triangles(),
        csr.local_triangle_counts().astype(np.int64),
        dict(zip(keys.tolist(), csr.edge_support().tolist())),
    )


def assert_pinned(oracle):
    total, node_counts, support = recompute(oracle)
    assert oracle.total_triangles == total
    assert np.array_equal(oracle.node_counts(), node_counts)
    n = max(oracle.num_nodes, 1)
    assert {lo * n + hi: s for (lo, hi), s in oracle.support_map().items()} == support


class TestSeeding:
    def test_initial_state_matches_base(self):
        graph = gnp_random_graph(30, 0.3, seed=11)
        oracle = IncrementalTriangleOracle(graph)
        assert oracle.version == 0
        assert oracle.num_edges == graph.num_edges
        assert_pinned(oracle)

    def test_empty_graph(self):
        oracle = IncrementalTriangleOracle(Graph(5))
        assert oracle.total_triangles == 0
        delta = oracle.apply_batch(insert=[(0, 1), (1, 2), (0, 2)])
        assert delta.created == ((0, 1, 2),)
        assert oracle.total_triangles == 1
        assert_pinned(oracle)


class TestCraftedBatches:
    def test_single_edge_closes_triangle(self):
        oracle = IncrementalTriangleOracle(Graph(3, [(0, 1), (1, 2)]))
        delta = oracle.apply_batch(insert=[(0, 2)])
        assert delta.created == ((0, 1, 2),)
        assert delta.destroyed == ()
        assert delta.triangles_after == 1
        assert oracle.support(0, 1) == 1
        assert_pinned(oracle)

    def test_delete_breaks_triangle(self):
        oracle = IncrementalTriangleOracle(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        delta = oracle.apply_batch(delete=[(1, 2)])
        assert delta.destroyed == ((0, 1, 2),)
        assert oracle.total_triangles == 0
        assert oracle.support(0, 1) == 0
        assert oracle.support(1, 2) is None
        assert_pinned(oracle)

    def test_triangle_entirely_inside_one_batch(self):
        """All three edges inserted at once: min-index rule counts it once."""
        oracle = IncrementalTriangleOracle(Graph(4))
        delta = oracle.apply_batch(insert=[(0, 1), (0, 2), (1, 2)])
        assert delta.created == ((0, 1, 2),)
        assert oracle.total_triangles == 1
        assert_pinned(oracle)

    def test_triangle_destroyed_by_two_deletes_counted_once(self):
        oracle = IncrementalTriangleOracle(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        delta = oracle.apply_batch(delete=[(0, 1), (1, 2)])
        assert delta.destroyed == ((0, 1, 2),)
        assert oracle.total_triangles == 0
        assert_pinned(oracle)

    def test_mixed_insert_delete_batch(self):
        # K4 minus (2,3); insert (2,3), delete (0,1) in one batch.
        oracle = IncrementalTriangleOracle(
            Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        )
        assert oracle.total_triangles == 2
        delta = oracle.apply_batch(insert=[(2, 3)], delete=[(0, 1)])
        assert delta.destroyed == ((0, 1, 2), (0, 1, 3))
        assert delta.created == ((0, 2, 3), (1, 2, 3))
        assert oracle.total_triangles == 2
        assert_pinned(oracle)

    def test_delete_then_reinsert_restores_counts(self):
        graph = gnp_random_graph(25, 0.35, seed=4)
        oracle = IncrementalTriangleOracle(graph)
        before_total = oracle.total_triangles
        before_support = oracle.support_map()
        edge = next(iter(graph.edges()))
        d1 = oracle.apply_batch(delete=[edge])
        assert_pinned(oracle)
        d2 = oracle.apply_batch(insert=[edge])
        assert_pinned(oracle)
        assert oracle.total_triangles == before_total
        assert oracle.support_map() == before_support
        assert set(d2.created) == set(d1.destroyed)

    def test_noop_batch(self):
        oracle = IncrementalTriangleOracle(Graph(3, [(0, 1)]))
        delta = oracle.apply_batch(insert=[(0, 1)], delete=[(1, 2)])
        assert delta.inserted == () and delta.deleted == ()
        assert delta.created == () and delta.destroyed == ()
        assert delta.version == 1


class TestCompactionBoundary:
    def test_counts_survive_compaction(self):
        graph = gnp_random_graph(30, 0.3, seed=6)
        oracle = IncrementalTriangleOracle(graph, compact_threshold=4)
        edges = list(graph.edges())
        deltas = []
        for step in range(8):
            delete = [edges[step]]
            insert = [(step, (step + 15) % 30)]  # may be a no-op; that is fine
            deltas.append(oracle.apply_batch(insert=insert, delete=delete))
            assert_pinned(oracle)
        assert any(d.compacted for d in deltas)
        assert oracle.graph.compactions >= 1


class TestLiveTableRebuild:
    def test_reinserting_dead_overlay_edges_after_growth(self):
        """Grow the writer's edge table, let every overlay edge die, then
        bring them all back with a few new ones in one batch: the rebuild
        must leave room for the revived edges, whose dead slots it drops."""
        n = 200
        pairs = [(u, v) for u in range(3, n) for v in range(u + 1, n)]
        first, second, extra = pairs[:1000], pairs[1000:2000], pairs[2000:2049]
        oracle = IncrementalTriangleOracle(
            Graph(n, [(0, 1), (1, 2), (0, 2)]), compact_threshold=10**9
        )
        batches = [
            (first, []), ([], first), (second, []), ([], second),
            (first + second + extra, []), ([], extra),
        ]
        errors = []

        def write():
            try:
                for insert, delete in batches:
                    oracle.apply_batch(insert=insert, delete=delete)
                    assert_pinned(oracle)
                    table = oracle.graph.live
                    assert 2 * int(np.count_nonzero(table.keys != -1)) <= table.keys.size
            except BaseException as exc:  # re-raised below, in the test's thread
                errors.append(exc)
            else:
                errors.append(None)

        # A table with no empty slot left makes probing spin forever, so the
        # batches run in a thread that the test can give up on.
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        writer.join(timeout=30)
        assert errors, "a batch did not finish: the edge table filled up"
        if errors[0] is not None:
            raise errors[0]
        assert oracle.graph.num_edges == 2003
        assert oracle.graph.compactions == 0


class TestBatchDelta:
    def test_round_trips_through_dict(self):
        oracle = IncrementalTriangleOracle(Graph(3, [(0, 1), (1, 2)]))
        delta = oracle.apply_batch(insert=[(0, 2)])
        doc = delta.to_dict()
        assert BatchDelta.from_dict(doc) == delta

    def test_without_triangles(self):
        oracle = IncrementalTriangleOracle(Graph(3, [(0, 1), (1, 2)]))
        delta = oracle.apply_batch(insert=[(0, 2)])
        doc = delta.to_dict(include_triangles=False)
        assert "created" not in doc and "destroyed" not in doc
        assert doc["created_count"] == 1

    def test_node_count_validation(self):
        oracle = IncrementalTriangleOracle(Graph(3))
        with pytest.raises(GraphError, match="out of range"):
            oracle.node_count(3)
