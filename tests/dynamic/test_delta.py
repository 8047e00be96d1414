"""Unit tests for the delta/overlay layer."""

import sys
import threading

import numpy as np
import pytest

from repro.dynamic import DeltaGraph, DeltaSnapshot
from repro.dynamic.delta import canonical_batch_keys, decode_edge_keys, in_sorted
from repro.errors import GraphError
from repro.graphs import Graph, gnp_random_graph


def triangle_graph():
    return Graph(4, [(0, 1), (0, 2), (1, 2)])


class TestCanonicalBatchKeys:
    def test_orders_and_dedupes(self):
        keys = canonical_batch_keys([(3, 1), (1, 3), (0, 2)], 5)
        assert decode_edge_keys(keys, 5) == [(0, 2), (1, 3)]
        assert list(keys) == sorted(keys)

    def test_rejects_self_loops(self):
        with pytest.raises(GraphError, match="self-loop"):
            canonical_batch_keys([(2, 2)], 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            canonical_batch_keys([(0, 5)], 5)
        with pytest.raises(GraphError, match="out of range"):
            canonical_batch_keys([(-1, 2)], 5)

    def test_rejects_malformed(self):
        with pytest.raises(GraphError, match="pairs"):
            canonical_batch_keys([(0, 1, 2)], 5)
        with pytest.raises(GraphError, match="pairs"):
            canonical_batch_keys(["xy"], 5)

    def test_empty_batch(self):
        assert canonical_batch_keys([], 5).size == 0


class TestInSorted:
    def test_membership(self):
        hay = np.array([2, 5, 9], dtype=np.int64)
        needles = np.array([1, 2, 5, 8, 9, 11], dtype=np.int64)
        assert list(in_sorted(hay, needles)) == [False, True, True, False, True, False]

    def test_empty_sides(self):
        empty = np.empty(0, dtype=np.int64)
        assert in_sorted(empty, np.array([1], dtype=np.int64)).tolist() == [False]
        assert in_sorted(np.array([1], dtype=np.int64), empty).size == 0


class TestDeltaSnapshot:
    def test_neighbors_merge_overlay(self):
        delta = DeltaGraph(triangle_graph())
        snap, _, _ = delta.apply_batch(insert=[(0, 3)], delete=[(0, 1)])
        assert snap.neighbors(0).tolist() == [2, 3]
        assert snap.neighbors(1).tolist() == [2]
        assert snap.has_edge(0, 3) and snap.has_edge(3, 0)
        assert not snap.has_edge(0, 1)
        assert snap.num_edges == 3

    def test_degree_matches_neighbors(self):
        delta = DeltaGraph(gnp_random_graph(20, 0.3, seed=1))
        snap, _, _ = delta.apply_batch(insert=[(0, 1), (2, 17)], delete=[(0, 2)])
        for node in range(20):
            assert snap.degree(node) == snap.neighbors(node).size

    def test_common_neighbors(self):
        delta = DeltaGraph(triangle_graph())
        snap, _, _ = delta.apply_batch(insert=[(0, 3), (1, 3)])
        assert snap.common_neighbors(0, 1).tolist() == [2, 3]

    def test_self_loop_has_no_edge(self):
        snap = DeltaGraph(triangle_graph()).snapshot
        assert not snap.has_edge(1, 1)

    def test_node_range_checked(self):
        snap = DeltaGraph(triangle_graph()).snapshot
        with pytest.raises(GraphError, match="out of range"):
            snap.neighbors(4)
        with pytest.raises(GraphError, match="node 4 out of range"):
            snap.gather_neighbors([0, 4])
        with pytest.raises(GraphError, match="node -1 out of range"):
            snap.degrees([-1])
        with pytest.raises(ValueError, match="node id 4 outside"):
            snap.has_edges([0], [4])

    def test_vectorized_reads(self):
        delta = DeltaGraph(triangle_graph())
        snap, _, _ = delta.apply_batch(insert=[(0, 3), (2, 3)], delete=[(0, 1)])
        assert snap.has_edges([0, 1, 3, 0, 2], [3, 0, 2, 2, 2]).tolist() == [
            True, False, True, True, False
        ]
        assert snap.degrees([0, 1, 2, 3]).tolist() == [2, 1, 3, 2]
        item, other = snap.gather_neighbors([3, 0])
        assert sorted(zip(item.tolist(), other.tolist())) == [(0, 0), (0, 2), (1, 2), (1, 3)]

    def test_overlay_rows_built_on_first_read(self):
        delta = DeltaGraph(Graph(30, [(10, 11)]), compact_threshold=3)
        assert delta.snapshot._added_rows is None
        snap, _, _ = delta.apply_batch(insert=[(0, 1), (0, 2)], delete=[(10, 11)])
        assert snap._added_rows is None and snap._removed_rows is None
        assert snap.neighbors(0).tolist() == [1, 2]
        assert snap._added_rows is not None and snap._removed_rows is not None
        # A compacting batch leaves a fresh snapshot with nothing built.
        snap, _, _ = delta.apply_batch(insert=[(0, 3), (0, 4)])
        assert delta.compactions == 1
        assert snap._added_rows is None and snap._removed_rows is None

    def test_concurrent_first_reads_agree(self):
        delta = DeltaGraph(gnp_random_graph(60, 0.2, seed=3))
        delta.apply_batch(insert=[(0, 1), (2, 3), (4, 59)], delete=[(0, 2), (5, 6)])
        expected = [delta.snapshot.neighbors(node).tolist() for node in range(60)]
        nodes = np.arange(60)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                # A fresh snapshot per round, so its rows are built under the race.
                snap, _, _ = delta.apply_batch()
                barrier = threading.Barrier(8)

                def read():
                    barrier.wait(timeout=10)
                    rows = [snap.neighbors(node).tolist() for node in range(60)]
                    degrees = snap.degrees(nodes).tolist()
                    results.append((rows, degrees))

                threads = [threading.Thread(target=read) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 40
        for rows, degrees in results:
            assert rows == expected
            assert degrees == [len(row) for row in expected]


class TestApplyBatch:
    def test_versions_are_monotone(self):
        delta = DeltaGraph(triangle_graph())
        assert delta.version == 0
        delta.apply_batch(insert=[(0, 3)])
        assert delta.version == 1
        delta.apply_batch()  # empty batches still version
        assert delta.version == 2

    def test_effective_filtering(self):
        delta = DeltaGraph(triangle_graph())
        _, ins, dels = delta.apply_batch(insert=[(0, 1), (0, 3)], delete=[(1, 3)])
        # (0,1) already present, (1,3) absent: both are no-ops.
        assert decode_edge_keys(ins, 4) == [(0, 3)]
        assert dels.size == 0

    def test_insert_and_delete_same_edge_rejected(self):
        delta = DeltaGraph(triangle_graph())
        with pytest.raises(GraphError, match="both insert and delete"):
            delta.apply_batch(insert=[(1, 3)], delete=[(3, 1)])

    def test_delete_then_reinsert_base_edge(self):
        delta = DeltaGraph(triangle_graph())
        delta.apply_batch(delete=[(0, 1)])
        assert not delta.snapshot.has_edge(0, 1)
        snap, ins, _ = delta.apply_batch(insert=[(0, 1)])
        # Reinsert un-tombstones the base edge rather than growing the overlay.
        assert snap.has_edge(0, 1)
        assert snap.overlay_size == 0
        assert decode_edge_keys(ins, 4) == [(0, 1)]

    def test_insert_then_delete_overlay_edge(self):
        delta = DeltaGraph(triangle_graph())
        delta.apply_batch(insert=[(0, 3)])
        snap, _, dels = delta.apply_batch(delete=[(0, 3)])
        assert snap.overlay_size == 0
        assert decode_edge_keys(dels, 4) == [(0, 3)]

    def test_snapshots_are_immutable_history(self):
        delta = DeltaGraph(triangle_graph())
        before = delta.snapshot
        delta.apply_batch(delete=[(0, 1)])
        assert before.has_edge(0, 1)          # old snapshot unchanged
        assert not delta.snapshot.has_edge(0, 1)

    def test_compaction_threshold(self):
        delta = DeltaGraph(Graph(30, [(10, 11)]), compact_threshold=3)
        delta.apply_batch(insert=[(0, 1), (0, 2)])
        assert delta.compactions == 0
        delta.apply_batch(insert=[(0, 3), (0, 4)])
        assert delta.compactions == 1
        assert delta.snapshot.overlay_size == 0
        assert delta.num_edges == 5

    def test_bad_threshold_rejected(self):
        with pytest.raises(GraphError, match="compact_threshold"):
            DeltaGraph(triangle_graph(), compact_threshold=0)


class TestCompactionDeterminism:
    def test_compaction_is_byte_deterministic(self):
        """Two histories reaching the same logical graph compact identically."""
        base = Graph(6, [(0, 1), (1, 2), (3, 4)])

        a = DeltaGraph(base)
        a.apply_batch(insert=[(0, 2), (2, 3)], delete=[(0, 1)])
        a.apply_batch(insert=[(0, 1)], delete=[(0, 2)])

        b = DeltaGraph(base)
        b.apply_batch(insert=[(2, 3)])
        b.apply_batch()

        csr_a = a.snapshot.compact()
        csr_b = b.snapshot.compact()
        assert csr_a.indptr.tobytes() == csr_b.indptr.tobytes()
        assert csr_a.indices.tobytes() == csr_b.indices.tobytes()
        assert csr_a.edge_u.tobytes() == csr_b.edge_u.tobytes()
        assert csr_a.edge_v.tobytes() == csr_b.edge_v.tobytes()

    def test_compact_equals_materialize(self):
        delta = DeltaGraph(gnp_random_graph(25, 0.3, seed=7))
        delta.apply_batch(insert=[(0, 1), (5, 9)], delete=[(0, 2)])
        csr = delta.snapshot.compact()
        graph = delta.snapshot.materialize()
        assert graph.csr().indices.tobytes() == csr.indices.tobytes()
        assert graph.num_edges == delta.num_edges
