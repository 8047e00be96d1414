"""Long-lived experiment worker: lease cells, execute, stay warm.

One worker process connects to the dispatcher in a service root, then
loops: announce ``ready``, receive a ``lease`` (one sweep cell as a
:class:`~repro.api.specs.RunSpec` document), execute it, send the
``record`` back, and announce ready again — until the dispatcher says
``shutdown`` or the connection drops.

Warmth is the point.  The process persists across cells, jobs and whole
sweeps, so everything expensive happens once per worker instead of once
per sweep:

* every lease goes through the same
  :func:`~repro.analysis.experiments._execute_cell` path (and the same
  per-process workload cache) the process-pool sweep uses, so repeated
  workloads are rebuilt at most once per worker *lifetime*, not per
  sweep;
* JIT warm-up, imports, and workload oracle computation amortise the
  same way.

A background thread heartbeats on the same socket (frame sends are
locked, so the two writers never interleave), which is how the
dispatcher distinguishes a worker that is busy on a long cell from one
that is wedged or gone.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import socket
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from ..analysis.experiments import ExperimentRecord, _execute_cell
from ..api.specs import RunSpec
from ..errors import ReproError, ServiceError
from ..faults import fault_point, install_from_env
from .protocol import (
    PROTOCOL_VERSION,
    ServiceAddress,
    read_service_info,
    recv_frame,
    send_frame,
)

__all__ = ["worker_main", "preload_modules"]


def preload_modules(modules: Iterable[str]) -> None:
    """Import plugin modules (extra algorithm/workload registrations).

    Import errors surface as :class:`ReproError` so the CLI exits 2 with
    the module named instead of dumping a traceback.
    """
    for name in modules:
        if not name:
            continue
        try:
            importlib.import_module(name)
        except ImportError as exc:
            raise ReproError(
                f"cannot preload module {name!r}: {exc}"
            ) from exc


def execute_lease(frame: Dict[str, Any]) -> ExperimentRecord:
    """Execute one lease frame's cell and return its record."""
    return _execute_cell(RunSpec.from_dict(frame["run"]).cell())


class _Heartbeat(threading.Thread):
    """Background heartbeat sender sharing the worker's socket.

    A send failure means the socket is gone; the thread records it in
    ``failed`` so the main loop can distinguish "the dispatcher closed
    my connection cleanly" (exit) from "my connection broke under me"
    (worth one reconnect attempt).
    """

    def __init__(
        self, sock: socket.socket, send_lock: threading.Lock, interval: float
    ) -> None:
        super().__init__(name="service-worker-heartbeat", daemon=True)
        self._sock = sock
        self._send_lock = send_lock
        self._interval = interval
        self._stop = threading.Event()
        self.failed = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._send_lock:
                    send_frame(self._sock, {"type": "heartbeat"})
            except (OSError, ServiceError):
                self.failed.set()
                return

    def stop(self) -> None:
        self._stop.set()


#: First/ceiling sleeps of the exponential connect backoff.  The first
#: retry is nearly immediate (the common case is a dispatcher milliseconds
#: from binding its socket); the ceiling keeps a worker waiting out a
#: slow restart from busy-polling ``service.json``.
_CONNECT_BACKOFF_FIRST = 0.05
_CONNECT_BACKOFF_CEILING = 1.0


def _connect(root: Path, timeout: float) -> socket.socket:
    """Connect to the service in ``root``, retrying with backoff.

    Tolerates a dispatcher that has not bound its socket yet (missing
    ``service.json``, connection refused) by sleeping an exponentially
    growing interval between attempts until ``timeout`` expires.
    """
    deadline = time.monotonic() + timeout
    pause = _CONNECT_BACKOFF_FIRST
    while True:
        try:
            info = read_service_info(root)
            return ServiceAddress.from_dict(info["address"]).connect(timeout=10.0)
        except (ServiceError, OSError):
            if time.monotonic() >= deadline:
                raise
            time.sleep(min(pause, max(0.0, deadline - time.monotonic())))
            pause = min(pause * 2, _CONNECT_BACKOFF_CEILING)


def _install_sigterm_handler() -> None:
    """Make SIGTERM a clean exit (status 0) instead of a killed process.

    A drained lease is requeued by the dispatcher when the connection
    drops, so there is nothing for the worker to hand back — exiting is
    the graceful shutdown.  Only possible from the main thread; callers
    embedding :func:`worker_main` elsewhere keep their own handler.
    """
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: os._exit(0))
    except ValueError:  # pragma: no cover - not in the main thread
        pass


def _serve_session(sock: socket.socket) -> str:
    """Speak the worker protocol on one connected socket.

    Returns how the session ended: ``"shutdown"`` for a clean end (the
    dispatcher said shutdown, or closed the connection at a frame
    boundary with the heartbeat still healthy) or ``"lost"`` for an
    abnormal one (mid-frame EOF, send failure, heartbeat failure) that
    may be worth a reconnect.
    """
    send_lock = threading.Lock()
    heartbeat: Optional[_Heartbeat] = None
    try:
        with send_lock:
            send_frame(
                sock,
                {
                    "type": "hello",
                    "role": "worker",
                    "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION,
                },
            )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            raise ServiceError(f"service rejected this worker: {welcome!r}")
        interval = float(welcome.get("heartbeat_interval", 2.0))
        heartbeat = _Heartbeat(sock, send_lock, interval)
        heartbeat.start()

        while True:
            with send_lock:
                send_frame(sock, {"type": "ready"})
            frame = recv_frame(sock)
            if frame is None:
                return "lost" if heartbeat.failed.is_set() else "shutdown"
            if frame.get("type") == "shutdown":
                return "shutdown"
            if frame.get("type") != "lease":
                raise ServiceError(
                    f"unexpected frame from dispatcher: {frame.get('type')!r}"
                )
            reply = {
                "lease_id": frame["lease_id"],
                "job": frame["job"],
                "cell": frame["cell"],
            }
            try:
                fault = fault_point(
                    "worker.execute", cell=frame["cell"], job=frame["job"]
                )
                if fault is not None:
                    if fault.action == "crash":
                        fault.crash()
                    elif fault.action == "stall":
                        time.sleep(fault.seconds(1.0))
                    elif fault.action == "fail":
                        raise ReproError(
                            f"injected fault: cell {frame['cell']} failed"
                        )
                record = execute_lease(frame)
            except Exception as exc:
                reply["type"] = "cell-error"
                reply["error"] = f"{type(exc).__name__}: {exc}"
                reply["traceback"] = traceback.format_exc()
            else:
                reply["type"] = "record"
                reply["record"] = record.to_dict()
            if reply["type"] == "record":
                fault = fault_point("worker.record.before", cell=frame["cell"])
                if fault is not None:
                    fault.crash()
            with send_lock:
                send_frame(sock, reply)
            if reply["type"] == "record":
                fault = fault_point("worker.record.after", cell=frame["cell"])
                if fault is not None:
                    fault.crash()
    except (OSError, ServiceError):
        # Mid-frame EOF, refused send, torn frame: the connection broke
        # rather than ended.
        return "lost"
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        try:
            sock.close()
        except OSError:
            pass


def worker_main(
    root: "str | Path",
    preload: Iterable[str] = (),
    connect_timeout: float = 30.0,
    reconnect_attempts: int = 1,
    reconnect_timeout: float = 5.0,
) -> int:
    """Run one worker against the service in ``root`` until shutdown.

    Returns 0 on a clean shutdown (dispatcher said so, or closed the
    connection).  Cell execution failures are *reported*, not fatal: the
    worker sends a ``cell-error`` frame and keeps serving — a broken
    algorithm in one job must not take capacity away from the others.

    When the connection *breaks* (mid-frame EOF, heartbeat send failure)
    the worker attempts up to ``reconnect_attempts`` reconnects — with
    the short ``reconnect_timeout`` rather than the startup timeout, so
    a worker orphaned by a dead dispatcher exits promptly — before
    giving up.  SIGTERM exits 0 immediately; the dispatcher requeues the
    abandoned lease.
    """
    root = Path(root)
    install_from_env()
    _install_sigterm_handler()
    preload_modules(preload)
    sock = _connect(root, connect_timeout)
    attempts_left = max(0, int(reconnect_attempts))
    pause = 0.2
    while True:
        outcome = _serve_session(sock)
        if outcome == "shutdown" or attempts_left <= 0:
            return 0
        attempts_left -= 1
        time.sleep(pause)
        pause = min(pause * 2, 2.0)
        try:
            sock = _connect(root, reconnect_timeout)
        except (ServiceError, OSError):
            # The dispatcher really is gone; nothing left to serve.
            return 0


def _main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service-worker",
        description="Long-lived experiment-service worker process.",
    )
    parser.add_argument("root", help="service root directory (as passed to serve)")
    parser.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="MODULE",
        help="import this module before serving (extra registrations); repeatable",
    )
    args = parser.parse_args(argv)
    return worker_main(args.root, preload=args.preload)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(_main())
