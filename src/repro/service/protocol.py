"""Wire protocol of the experiment service: framed canonical JSON.

Everything the service says on a socket — worker leases, completed
records, heartbeats, control commands — is one **frame**: a 4-byte
big-endian length prefix followed by that many bytes of canonical JSON
(sorted keys, compact separators; the exact encoding the JSONL store
uses).  Framing this way keeps the protocol auditable with ``strace``
and a JSON pretty-printer, and means a record travels the wire in the
same canonical bytes the dispatcher will append to the store.

Every frame is a JSON object with a ``"type"`` field.  Worker-plane
types: ``hello`` / ``welcome``, ``ready`` → ``lease`` | ``shutdown``,
``record``, ``cell-error``, ``heartbeat``.  Control-plane types:
``submit`` → ``submitted``, ``status`` → ``status-reply``,
``job-status`` → ``job-reply``, ``shutdown`` → ``ok``, and ``error``
for any rejected request.

The service listens on a Unix-domain socket inside its root directory
(falling back to a loopback TCP port where ``AF_UNIX`` is missing) and
advertises the address in ``<root>/service.json`` so ``repro submit`` /
``repro status`` / workers can find it.  :class:`ServiceClient` is the
control-plane client those commands (and the tests and benchmarks) use.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from ..api.records import canonical_json
from ..errors import ServiceError
from ..faults import fault_point, injected_os_error

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_MAX_BYTES",
    "SERVICE_INFO_NAME",
    "ServiceAddress",
    "ServiceClient",
    "send_frame",
    "send_encoded_frame",
    "recv_frame",
    "read_service_info",
    "write_service_info",
    "remove_service_info",
]

#: Version stamped into ``hello``/``welcome`` frames; bumped on any
#: incompatible change to the frame vocabulary.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload.  Record documents are a few KiB;
#: a submit frame carries one sweep spec.  Anything near this limit is a
#: bug or an attack, not traffic.
FRAME_MAX_BYTES = 64 * 1024 * 1024

#: Name of the discovery file the dispatcher writes into its root.
SERVICE_INFO_NAME = "service.json"

_LENGTH = struct.Struct(">I")


def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Send one frame (length prefix + canonical JSON) atomically-enough.

    ``sendall`` on one pre-assembled buffer, so concurrent senders on the
    same socket (a worker's heartbeat thread next to its main loop) only
    need a lock around this call, never byte-level interleaving care.
    """
    send_encoded_frame(sock, canonical_json(payload), payload.get("type"))


def send_encoded_frame(sock: socket.socket, text: str, frame_type: Any) -> None:
    """Send one frame whose canonical JSON text is already built.

    ``frame_type`` is the frame's ``type`` member, named by the size error
    and matched by the ``protocol.send`` fault point.  A caller holding
    canonical text (a spliced query result) sends it without decoding and
    re-encoding it through :func:`send_frame`.
    """
    data = text.encode("utf-8")
    if len(data) > FRAME_MAX_BYTES:
        raise ServiceError(
            f"refusing to send a {len(data)}-byte frame "
            f"(limit {FRAME_MAX_BYTES}); type={frame_type!r}"
        )
    fault = fault_point("protocol.send", frame=str(frame_type))
    if fault is not None:
        # Either way the peer sees a half/garbled frame and treats the
        # connection as lost; the sender must see a *socket* failure
        # (OSError), because ServiceError from an assignment send is
        # job-fatal while a connection loss requeues the lease.
        if fault.action == "truncate":
            half = data[: max(1, len(data) // 2)]
            sock.sendall(_LENGTH.pack(len(data)) + half)
            sock.close()
            raise injected_os_error(errno.EPIPE, "frame truncated mid-send")
        if fault.action == "corrupt":
            sock.sendall(_LENGTH.pack(len(data)) + fault.corrupt_bytes(data))
            sock.close()
            raise injected_os_error(errno.EPIPE, "frame corrupted in flight")
        if fault.action == "delay":
            time.sleep(fault.seconds())
    sock.sendall(_LENGTH.pack(len(data)) + data)


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ServiceError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                "bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one frame; ``None`` on a clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > FRAME_MAX_BYTES:
        raise ServiceError(
            f"incoming frame claims {length} bytes (limit {FRAME_MAX_BYTES}); "
            "closing the connection"
        )
    data = _recv_exact(sock, length)
    if data is None:  # pragma: no cover - _recv_exact raises instead
        raise ServiceError("connection closed between frame header and body")
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"malformed protocol frame: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(payload.get("type"), str):
        raise ServiceError(
            f"protocol frames must be JSON objects with a string 'type', "
            f"got {payload!r}"
        )
    return payload


# ---------------------------------------------------------------------------
# addresses and service discovery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServiceAddress:
    """Where a dispatcher listens: a Unix socket path or a TCP endpoint."""

    family: str  # "unix" | "tcp"
    path: str = ""
    host: str = ""
    port: int = 0

    def __post_init__(self) -> None:
        if self.family not in ("unix", "tcp"):
            raise ServiceError(f"unknown address family {self.family!r}")

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready document stored in ``service.json``."""
        if self.family == "unix":
            return {"family": "unix", "path": self.path}
        return {"family": "tcp", "host": self.host, "port": self.port}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServiceAddress":
        """Rebuild an address from :meth:`to_dict` output."""
        family = payload.get("family")
        if family == "unix":
            return cls(family="unix", path=str(payload.get("path", "")))
        if family == "tcp":
            return cls(
                family="tcp",
                host=str(payload.get("host", "127.0.0.1")),
                port=int(payload.get("port", 0)),
            )
        raise ServiceError(f"unknown address family {family!r} in service info")

    def connect(self, timeout: Optional[float] = None) -> socket.socket:
        """Open a connected socket to this address."""
        if self.family == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        try:
            sock.connect(self.path if self.family == "unix" else (self.host, self.port))
        except OSError:
            sock.close()
            raise
        sock.settimeout(None)
        return sock

    def describe(self) -> str:
        """Human-readable endpoint for log lines."""
        if self.family == "unix":
            return self.path
        return f"{self.host}:{self.port}"


def bind_service_socket(root: Path) -> "tuple[socket.socket, ServiceAddress]":
    """Bind the dispatcher's listening socket inside ``root``.

    Prefers a Unix-domain socket at ``<root>/service.sock`` (removing a
    stale file from a previous, dead dispatcher); platforms without
    ``AF_UNIX`` — or roots whose absolute path exceeds the ~100-byte
    ``sun_path`` limit — fall back to a loopback TCP socket on an
    ephemeral port.  Either way the advertised address lands in
    ``service.json`` for clients and workers to discover.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "service.sock"
    if hasattr(socket, "AF_UNIX") and len(str(path)) < 100:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            if path.exists():
                path.unlink()
            sock.bind(str(path))
        except OSError:
            sock.close()
            raise
        return sock, ServiceAddress(family="unix", path=str(path))
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    host, port = sock.getsockname()
    return sock, ServiceAddress(family="tcp", host=host, port=port)


def write_service_info(root: Path, payload: Dict[str, Any]) -> Path:
    """Atomically write ``service.json`` under ``root``; return its path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    target = root / SERVICE_INFO_NAME
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8")
    os.replace(tmp, target)
    return target


def read_service_info(root: Path) -> Dict[str, Any]:
    """Read ``service.json``; raise :class:`ServiceError` when absent/invalid."""
    path = Path(root) / SERVICE_INFO_NAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise ServiceError(
            f"no experiment service is running in {Path(root)} "
            f"(missing {SERVICE_INFO_NAME}; start one with 'repro serve')"
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"{path}: invalid service info: {exc}") from exc
    if not isinstance(payload, dict) or "address" not in payload:
        raise ServiceError(f"{path}: not a service info document")
    return payload


def remove_service_info(root: Path) -> None:
    """Delete ``service.json`` (idempotent; the dispatcher's last act)."""
    try:
        (Path(root) / SERVICE_INFO_NAME).unlink()
    except FileNotFoundError:
        pass


# ---------------------------------------------------------------------------
# control-plane client
# ---------------------------------------------------------------------------


class ServiceClient:
    """Control-plane connection to a running dispatcher.

    One client holds one socket and speaks strict request/reply:
    every method sends a frame and blocks for its answer, raising
    :class:`ServiceError` when the dispatcher answers ``error``.  Use as
    a context manager; :meth:`connect` retries until the service is up
    (the way tests and ``repro submit`` tolerate a dispatcher that is
    still binding its socket).
    """

    def __init__(self, root: "str | Path", timeout: float = 30.0) -> None:
        self.root = Path(root)
        info = read_service_info(self.root)
        self.address = ServiceAddress.from_dict(info["address"])
        self.service_info = info
        try:
            self._sock = self.address.connect(timeout=timeout)
        except OSError as exc:
            raise ServiceError(
                f"cannot reach the experiment service at "
                f"{self.address.describe()} ({exc}); is it still running?"
            ) from exc
        self._sock.settimeout(timeout)
        try:
            self._hello()
        except BaseException:
            # A refused or dropped handshake must not leak the socket.
            self._sock.close()
            raise

    @classmethod
    def connect(
        cls, root: "str | Path", timeout: float = 30.0, poll: float = 0.1
    ) -> "ServiceClient":
        """Connect, retrying until ``timeout`` while the service starts up."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return cls(root)
            except ServiceError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)

    def _hello(self) -> None:
        send_frame(
            self._sock,
            {
                "type": "hello",
                "role": "client",
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            },
        )
        reply = recv_frame(self._sock)
        if reply is None or reply.get("type") != "welcome":
            raise ServiceError(f"service rejected the connection: {reply!r}")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one control frame and return its (non-``error``) reply."""
        send_frame(self._sock, payload)
        reply = recv_frame(self._sock)
        if reply is None:
            raise ServiceError(
                "the experiment service closed the connection mid-request"
            )
        if reply.get("type") == "error":
            raise ServiceError(str(reply.get("error", "unknown service error")))
        return reply

    # -- verbs ---------------------------------------------------------

    def submit(
        self,
        spec_document: Dict[str, Any],
        out: "str | Path",
        resume: bool = False,
        cache: "str | Path | None" = None,
        max_cells: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Submit a sweep spec; returns the job document (job already queued)."""
        reply = self.request(
            {
                "type": "submit",
                "spec": spec_document,
                "out": str(out),
                "resume": bool(resume),
                "cache": None if cache is None else str(cache),
                "max_cells": max_cells,
            }
        )
        return reply["job"]

    def status(self) -> Dict[str, Any]:
        """Return the full service status document."""
        return self.request({"type": "status"})

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """Return one job's status document."""
        return self.request({"type": "job-status", "job": job_id})["job"]

    def shutdown(self) -> Dict[str, Any]:
        """Ask the dispatcher to shut down gracefully."""
        return self.request({"type": "shutdown"})

    def drain(self) -> Dict[str, Any]:
        """Ask the dispatcher to drain: finish in-flight cells, then exit."""
        return self.request({"type": "drain"})

    def wait_job(
        self,
        job_id: str,
        poll: float = 0.15,
        timeout: Optional[float] = None,
        progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Poll until ``job_id`` leaves the running state; return its document.

        ``progress`` (when given) receives every polled job document —
        the CLI renders ``completed/total`` from it.  A ``failed`` job
        raises :class:`ServiceError` with the recorded cell error.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            job = self.job_status(job_id)
            if progress is not None:
                progress(job)
            if job["state"] != "running":
                if job["state"] == "failed":
                    raise ServiceError(
                        f"job {job_id} failed: {job.get('error', 'unknown error')}"
                    )
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out waiting for job {job_id} "
                    f"({job['cells_done']}/{job['cells_total']} cells done)"
                )
            time.sleep(poll)

    def close(self) -> None:
        """Close the control connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close can hardly fail
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
