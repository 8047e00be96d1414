"""Tests for the zero-copy shared-memory graph plane."""

import gc
import pickle

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    Graph,
    SharedArraySpec,
    SharedGraphHandle,
    attach_shared_graph,
    gnp_random_graph,
    segment_exists,
    share_csr,
    shm_available,
)
from repro.graphs.shm import active_attachments, reap_pending

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="shared memory is not usable on this platform"
)


def _drain_attachments():
    """Collect dropped graphs until this process holds no attachments."""
    for _ in range(5):
        gc.collect()
        reap_pending()
        if not active_attachments():
            return
    raise AssertionError(f"attachments leaked: {active_attachments()}")


@pytest.fixture(autouse=True)
def _clean_attachment_state():
    yield
    _drain_attachments()


class TestShareAttach:
    def test_round_trip_arrays_and_oracle(self):
        graph = gnp_random_graph(80, 0.2, seed=3)
        csr = graph.csr()
        with share_csr(csr) as owner:
            # The oracle was not computed before sharing; share_csr
            # computes it so every handle carries it.
            assert {spec.field for spec in owner.handle.arrays} == {
                "indptr", "indices", "edge_u", "edge_v", "support", "triangles"
            }
            attached = attach_shared_graph(owner.handle)
            assert attached.num_nodes == csr.num_nodes
            assert attached.num_edges == csr.num_edges
            np.testing.assert_array_equal(attached.indptr, csr.indptr)
            np.testing.assert_array_equal(attached.indices, csr.indices)
            np.testing.assert_array_equal(attached.edge_u, csr.edge_u)
            np.testing.assert_array_equal(attached.edge_v, csr.edge_v)
            # The oracle arrives pre-populated: these reads are cache hits,
            # not recomputations, and they agree with the source graph.
            np.testing.assert_array_equal(attached.edge_support(), csr.edge_support())
            np.testing.assert_array_equal(attached.triangles(), csr.triangles())

    def test_attached_views_are_read_only(self):
        graph = gnp_random_graph(30, 0.3, seed=1)
        with share_csr(graph.csr()) as owner:
            attached = attach_shared_graph(owner.handle)
            with pytest.raises(ValueError):
                attached.indices[0] = 99

    def test_handle_pickles_small(self):
        graph = gnp_random_graph(400, 0.1, seed=5)
        with share_csr(graph.csr()) as owner:
            handle_bytes = pickle.dumps(owner.handle, protocol=4)
            graph_bytes = pickle.dumps(graph, protocol=4)
            assert len(handle_bytes) < 1024
            assert len(handle_bytes) < len(graph_bytes) // 10
            clone = pickle.loads(handle_bytes)
            attached = attach_shared_graph(clone)
            assert attached.num_edges == graph.num_edges

    def test_empty_graph_shares(self):
        graph = Graph(3)
        with share_csr(graph.csr()) as owner:
            attached = attach_shared_graph(owner.handle)
            assert attached.num_edges == 0
            assert attached.triangles().shape == (0, 3)


class TestHandleValidation:
    def _spec(self, field, offset=0):
        return SharedArraySpec(field=field, dtype="<i8", shape=(4,), offset=offset)

    def test_missing_required_arrays(self):
        with pytest.raises(GraphError, match="missing required"):
            SharedGraphHandle(
                segment="x",
                num_nodes=4,
                num_edges=4,
                arrays=(self._spec("indptr"),),
                total_bytes=32,
            )

    def test_unknown_arrays(self):
        arrays = tuple(
            self._spec(field)
            for field in ("indptr", "indices", "edge_u", "edge_v", "mystery")
        )
        with pytest.raises(GraphError, match="unknown"):
            SharedGraphHandle(
                segment="x", num_nodes=4, num_edges=4, arrays=arrays, total_bytes=32
            )

    def test_repeated_arrays(self):
        arrays = tuple(
            self._spec(field)
            for field in ("indptr", "indices", "edge_u", "edge_v", "edge_v")
        )
        with pytest.raises(GraphError, match="repeats"):
            SharedGraphHandle(
                segment="x", num_nodes=4, num_edges=4, arrays=arrays, total_bytes=32
            )

    def test_attach_to_undersized_segment(self):
        graph = gnp_random_graph(20, 0.3, seed=1)
        with share_csr(graph.csr()) as owner:
            handle = owner.handle
            inflated = SharedGraphHandle(
                segment=handle.segment,
                num_nodes=handle.num_nodes,
                num_edges=handle.num_edges,
                arrays=handle.arrays,
                total_bytes=handle.total_bytes * 1000,
            )
            with pytest.raises(GraphError, match="smaller than its manifest"):
                attach_shared_graph(inflated)


class TestOwnerLifecycle:
    def test_close_unlinks_and_is_idempotent(self):
        graph = gnp_random_graph(20, 0.3, seed=1)
        owner = share_csr(graph.csr())
        name = owner.handle.segment
        assert segment_exists(name)
        assert not owner.closed
        owner.close()
        assert owner.closed
        assert not segment_exists(name)
        owner.close()  # idempotent

    def test_dropped_owner_unlinks_via_finalizer(self):
        graph = gnp_random_graph(20, 0.3, seed=1)
        owner = share_csr(graph.csr())
        name = owner.handle.segment
        del owner
        gc.collect()
        assert not segment_exists(name)

    def test_attach_after_close_is_a_graph_error(self):
        graph = gnp_random_graph(20, 0.3, seed=1)
        owner = share_csr(graph.csr())
        handle = owner.handle
        owner.close()
        with pytest.raises(GraphError, match="no longer exists"):
            attach_shared_graph(handle)

    def test_attached_graph_survives_owner_close(self):
        # POSIX unlink-while-mapped: releasing the *name* must not tear
        # down mappings that are already live.
        graph = gnp_random_graph(40, 0.3, seed=2)
        owner = share_csr(graph.csr())
        attached = attach_shared_graph(owner.handle)
        owner.close()
        assert not segment_exists(owner.handle.segment)
        np.testing.assert_array_equal(attached.triangles(), graph.csr().triangles())

    def test_repr_reflects_state(self):
        graph = gnp_random_graph(10, 0.3, seed=1)
        owner = share_csr(graph.csr())
        assert "open" in repr(owner)
        owner.close()
        assert "closed" in repr(owner)


class TestAttachmentRefcounts:
    def test_attachments_share_one_mapping(self):
        graph = gnp_random_graph(30, 0.3, seed=1)
        with share_csr(graph.csr()) as owner:
            name = owner.handle.segment
            first = attach_shared_graph(owner.handle)
            second = attach_shared_graph(owner.handle)
            assert active_attachments()[name] == 2
            del first
            gc.collect()
            assert active_attachments()[name] == 1
            del second
            _drain_attachments()
            assert name not in active_attachments()

    def test_reap_pending_eventually_returns_zero(self):
        graph = gnp_random_graph(30, 0.3, seed=1)
        with share_csr(graph.csr()) as owner:
            attached = attach_shared_graph(owner.handle)
            del attached
        _drain_attachments()
        assert reap_pending() == 0


class TestGraphIntegration:
    def test_from_shared_round_trips_graph(self):
        graph = gnp_random_graph(50, 0.25, seed=9)
        with share_csr(graph.csr()) as owner:
            clone = Graph.from_shared(owner.handle)
            assert clone == graph
            assert clone.num_edges == graph.num_edges
            np.testing.assert_array_equal(
                clone.csr().triangles(), graph.csr().triangles()
            )
