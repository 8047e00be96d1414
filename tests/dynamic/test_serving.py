"""In-process tests for the query server/client wire plane."""

import threading
import time

import pytest

from repro.api import QuerySpec
from repro.dynamic import QueryClient, QueryServer, TriangleQueryEngine
from repro.dynamic.serving import SERVICE_NAME
from repro.errors import ServiceError
from repro.graphs import Graph
from repro.service.protocol import read_service_info, write_service_info


@pytest.fixture()
def server(tmp_path):
    engine = TriangleQueryEngine(
        Graph(4, [(0, 1), (0, 2), (1, 2)]), listing=True, compact_threshold=4
    )
    with QueryServer(tmp_path / "svc", engine) as running:
        yield running


class TestRoundTrip:
    def test_query_apply_query(self, server):
        with QueryClient.connect(server.root, timeout=10) as client:
            before = client.query(QuerySpec(kind="count"))
            assert before.version == 0
            assert before.payload["triangles"] == 1
            delta = client.apply(insert=[(0, 3), (1, 3)])
            assert delta["version"] == 1
            after = client.query(QuerySpec(kind="count"))
            assert after.version == 1
            assert after.payload["triangles"] == 2  # (0,1,3) joined (0,1,2)

    def test_listing_delta_streams_triangles(self, server):
        with QueryClient.connect(server.root, timeout=10) as client:
            client.apply(insert=[(0, 3), (1, 3)])
            result = client.query(QuerySpec(kind="delta-since", params={"version": 0}))
            (batch,) = result.payload["batches"]
            assert batch["created"] == [[0, 1, 3]]

    def test_status_and_verify(self, server):
        with QueryClient.connect(server.root, timeout=10) as client:
            status = client.status()
            assert status["service"] == SERVICE_NAME
            assert status["triangles"] == 1
            verified = client.verify()
            assert verified["type"] == "verified"

    def test_discovery_document(self, server):
        info = read_service_info(server.root)
        assert info["service"] == SERVICE_NAME
        assert "address" in info

    def test_error_frame_keeps_connection(self, server):
        with QueryClient.connect(server.root, timeout=10) as client:
            with pytest.raises(ServiceError, match="unknown query kind"):
                client.request({"type": "query", "spec": {"kind": "nope"}})
            with pytest.raises(ServiceError, match="unknown frame type"):
                client.request({"type": "lease"})
            with pytest.raises(ServiceError, match="both insert and delete"):
                client.request(
                    {"type": "apply", "insert": [[0, 3]], "delete": [[0, 3]]}
                )
            # The same connection still answers.
            assert client.query(QuerySpec(kind="count")).payload["triangles"] == 1

    def test_malformed_apply_payload(self, server):
        with QueryClient.connect(server.root, timeout=10) as client:
            with pytest.raises(ServiceError, match="edge lists"):
                client.request({"type": "apply", "insert": 7, "delete": []})
            with pytest.raises(ServiceError, match="pairs"):
                client.request({"type": "apply", "insert": [[0, 1, 2]], "delete": []})


    def test_non_integer_endpoint_answers_error_frame(self, server):
        with QueryClient.connect(server.root, timeout=10) as client:
            for pair in ([0, 2.5], [True, 3], ["1", "3"]):
                with pytest.raises(ServiceError, match="integer"):
                    client.request({"type": "apply", "insert": [pair], "delete": []})
            # Nothing was applied and the same connection still answers.
            count = client.query(QuerySpec(kind="count"))
            assert count.version == 0 and count.payload["num_edges"] == 3


class TestLifecycle:
    def test_shutdown_removes_discovery(self, tmp_path):
        engine = TriangleQueryEngine(Graph(3, [(0, 1)]))
        server = QueryServer(tmp_path / "svc", engine)
        server.start()
        with QueryClient.connect(server.root, timeout=10) as client:
            client.shutdown()
        server.wait()
        server.stop()
        assert not (server.root / "service.json").exists()

    def test_stop_right_after_start_leaves_no_thread_exception(self, tmp_path, monkeypatch):
        # ``stop()`` may close the listener before the accept thread has
        # touched it; the thread must then exit quietly.
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        engine = TriangleQueryEngine(Graph(3, [(0, 1)]))
        for attempt in range(50):
            server = QueryServer(tmp_path / f"svc{attempt}", engine)
            server.start()
            server.stop()
        assert [args.exc_value for args in raised] == []

    def test_stop_joins_the_accept_thread(self, tmp_path):
        engine = TriangleQueryEngine(Graph(3, [(0, 1)]))
        server = QueryServer(tmp_path / "svc", engine)
        server.start()
        (accept,) = server._threads
        # After one served connection the accept thread is back in accept().
        with QueryClient.connect(server.root, timeout=10) as client:
            client.query(QuerySpec(kind="count"))
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 1.0
        assert not accept.is_alive()

    def test_client_refuses_non_query_service(self, tmp_path):
        # A discovery file without the query marker (e.g. the experiment
        # dispatcher's) must be refused before any verbs are spoken.
        engine = TriangleQueryEngine(Graph(3, [(0, 1)]))
        server = QueryServer(tmp_path / "svc", engine)
        server.start()
        try:
            info = read_service_info(server.root)
            write_service_info(server.root, {k: v for k, v in info.items() if k != "service"})
            with pytest.raises(ServiceError, match="not a triangle query service"):
                QueryClient(server.root)
        finally:
            server.stop()

    def test_concurrent_ingest_and_reader_clients(self, server):
        """Two connections: one applies batches, one reads monotone versions."""
        with QueryClient.connect(server.root, timeout=10) as writer, QueryClient.connect(
            server.root, timeout=10
        ) as reader:
            seen = []
            for step in range(5):
                writer.apply(insert=[(0, 3)] if step % 2 == 0 else [], delete=[(0, 3)] if step % 2 else [])
                seen.append(reader.query(QuerySpec(kind="count")).version)
            assert seen == sorted(seen)
            assert seen[-1] == 5
