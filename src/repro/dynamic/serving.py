"""Socket front end for the triangle query engine.

Reuses the ``repro.service`` wire plane wholesale — length-prefixed
canonical-JSON frames, ``service.json`` discovery under a root directory,
unix socket with TCP-loopback fallback — so a resident ``repro query
--serve`` process looks exactly like the experiment dispatcher to tooling,
just with different verbs:

==============  =====================================================
frame            reply
==============  =====================================================
``hello``        ``welcome`` (protocol + service identity check)
``query``        ``query-result`` carrying a ``QueryResult`` document
``apply``        ``applied`` carrying the batch's ``BatchDelta``
``status``       ``status-reply`` with engine counters
``verify``       ``verified`` after a differential recompute check
``shutdown``     ``ok``, then the server winds down
==============  =====================================================

Malformed input answers an ``error`` frame and keeps the connection open
(one bad query must not kill an ingest channel sharing the service).  The
engine lock provides the consistency story: queries and batch applications
interleave atomically, and every reply carries the snapshot version it was
computed at.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..api.queries import QueryResult, QuerySpec
from ..api.records import canonical_json_object
from ..errors import ReproError, ServiceError
from ..faults import fault_point
from ..service.protocol import (
    PROTOCOL_VERSION,
    ServiceClient,
    bind_service_socket,
    recv_frame,
    remove_service_info,
    send_encoded_frame,
    send_frame,
    write_service_info,
)
from .engine import TriangleQueryEngine

__all__ = ["QueryClient", "QueryServer", "SERVICE_NAME"]

#: Value of the ``service`` field in ``service.json`` and ``welcome``
#: frames, so clients cannot accidentally talk triangle queries to an
#: experiment dispatcher (whose discovery file lacks the marker).
SERVICE_NAME = "query"


class QueryServer:
    """Serve one :class:`TriangleQueryEngine` over the service wire plane."""

    def __init__(
        self,
        root: "str | Path",
        engine: TriangleQueryEngine,
        *,
        source: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.root = Path(root)
        self.engine = engine
        self.source = dict(source or {})
        self.address = None
        self._listener = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._started_unix: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self._listener, self.address = bind_service_socket(self.root)
        self._listener.listen(16)
        self._started_unix = time.time()
        write_service_info(
            self.root,
            {
                "service": SERVICE_NAME,
                "address": self.address.to_dict(),
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "started_unix": self._started_unix,
                "source": self.source,
            },
        )
        accept = threading.Thread(
            target=self._accept_loop, args=(self._listener,), name="query-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)

    def wait(self) -> None:
        """Block until a ``shutdown`` frame (or :meth:`request_stop`)."""
        self._stop.wait()

    def request_stop(self) -> None:
        self._stop.set()

    def stop(self) -> None:
        """Stop accepting, close the listener, remove the discovery file."""
        self._stop.set()
        if self._listener is not None:
            # Closing alone does not wake a thread blocked in accept().
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - close can hardly fail
                pass
            self._listener = None
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()
        remove_service_info(self.root)

    def __enter__(self) -> "QueryServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- wire loop ---------------------------------------------------------

    def _accept_loop(self, listener) -> None:
        # ``listener`` is bound when the thread starts; ``stop()`` shutting it
        # down surfaces here as an ``OSError`` from ``accept``.
        while not self._stop.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,), name="query-conn", daemon=True
            )
            worker.start()

    def _serve_connection(self, conn) -> None:
        try:
            conn.settimeout(None)
            hello = recv_frame(conn)
            if fault_point("query.accept") is not None:
                return  # handshake dropped: the client sees the socket close
            if (
                hello is None
                or hello.get("type") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
            ):
                send_frame(conn, {"type": "error", "error": f"bad hello: {hello!r}"})
                return
            send_frame(
                conn,
                {
                    "type": "welcome",
                    "service": SERVICE_NAME,
                    "protocol": PROTOCOL_VERSION,
                    "version": self.engine.version,
                },
            )
            while not self._stop.is_set():
                frame = recv_frame(conn)
                if frame is None:
                    return
                if fault_point("query.frame", frame=str(frame.get("type"))) is not None:
                    return  # dropped unanswered, as by a connection lost mid-request
                try:
                    reply = self._handle(frame)
                except ReproError as exc:
                    reply = {"type": "error", "error": str(exc)}
                if isinstance(reply, str):
                    send_encoded_frame(conn, reply, "query-result")
                    continue
                send_frame(conn, reply)
                if frame.get("type") == "shutdown" and reply.get("type") == "ok":
                    self._stop.set()
                    return
        except (OSError, ServiceError):
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def _handle(self, frame: Dict[str, Any]) -> "Dict[str, Any] | str":
        """The reply frame, or a ``query-result`` frame as canonical JSON
        text: the result's own encoding spliced in, never decoded."""
        kind = frame.get("type")
        if kind == "query":
            spec = QuerySpec.from_dict(frame.get("spec"))
            result = self.engine.query(spec)
            return canonical_json_object({"result": result.to_json(), "type": '"query-result"'})
        if kind == "apply":
            insert = frame.get("insert", [])
            delete = frame.get("delete", [])
            if not isinstance(insert, list) or not isinstance(delete, list):
                raise ServiceError("apply frame needs 'insert' and 'delete' edge lists")
            delta = self.engine.apply_batch(insert=insert, delete=delete)
            return {
                "type": "applied",
                "version": delta.version,
                "delta": delta.to_dict(include_triangles=self.engine.listing),
            }
        if kind == "status":
            status = self.engine.status()
            status.update(
                {
                    "type": "status-reply",
                    "service": SERVICE_NAME,
                    "pid": os.getpid(),
                    "uptime_seconds": (
                        0.0 if self._started_unix is None else time.time() - self._started_unix
                    ),
                    "source": self.source,
                }
            )
            return status
        if kind == "verify":
            summary = self.engine.verify_against_recompute()
            summary["type"] = "verified"
            return summary
        if kind == "shutdown":
            return {"type": "ok"}
        return {"type": "error", "error": f"unknown frame type {kind!r}"}


class QueryClient(ServiceClient):
    """Typed client for :class:`QueryServer` roots.

    Inherits the handshake, retry-connect and request/reply machinery from
    :class:`~repro.service.protocol.ServiceClient`; refuses to talk to a
    root whose ``service.json`` is not a query service.
    """

    def __init__(self, root: "str | Path", timeout: float = 30.0) -> None:
        super().__init__(root, timeout=timeout)
        if self.service_info.get("service") != SERVICE_NAME:
            self.close()
            raise ServiceError(
                f"{self.root} is not a triangle query service "
                f"(service.json says {self.service_info.get('service')!r})"
            )

    def query(self, spec: QuerySpec) -> QueryResult:
        reply = self.request({"type": "query", "spec": spec.to_dict()})
        return QueryResult.from_dict(reply["result"])

    def apply(self, insert=(), delete=()) -> Dict[str, Any]:
        """Apply one batch; returns the server's ``BatchDelta`` document."""
        reply = self.request(
            {
                "type": "apply",
                "insert": [list(edge) for edge in insert],
                "delete": [list(edge) for edge in delete],
            }
        )
        return reply["delta"]

    def verify(self) -> Dict[str, Any]:
        """Ask the server to differentially verify against a recompute."""
        return self.request({"type": "verify"})
