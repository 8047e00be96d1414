"""The experiment-service dispatcher: jobs, leases and workers.

One :class:`Dispatcher` owns a service root directory.  It listens on a
local socket (see :mod:`repro.service.protocol`), accepts two kinds of
connections — **workers** that execute cells and **clients** that
submit/inspect jobs — and drives every submitted :class:`SweepSpec`
through the lease state machine of :mod:`repro.service.leases` into the
same JSONL store format ``repro sweep`` writes, byte for byte (both go
through :class:`repro.api.store.SweepStoreWriter`).

Responsibilities, each on its own thread(s):

* **accept loop** — one thread; classifies connections by their
  ``hello`` frame.
* **worker loops** — one thread per connected worker; processes its
  ``ready`` / ``record`` / ``cell-error`` / ``heartbeat`` frames and
  assigns leases.  Assignment happens here (not in a central scheduler)
  so a lease is written by the same thread that owns the socket.
* **client loops** — one thread per control connection; strict
  request/reply.
* **monitor** — one thread; expires overdue leases (requeueing their
  cells to the *front* of the queue), evicts workers whose heartbeats
  went stale (closing the socket, which routes through the same
  worker-death path as a crash), and respawns managed worker processes
  that exited.

Execution is at-least-once, recording exactly-once: completed records
are buffered and flushed to the store in cell order, duplicates from
revoked-but-alive leases are dropped, and a job finishes when no cell is
pending or leased — at which point its store is complete and ordered
exactly as a serial ``run_sweep`` would have left it.

A lease carries only its cell's run spec.  Each worker rebuilds the
workload itself and memoises it in its per-process workload cache
(:func:`repro.analysis.experiments._cell_graph`, keyed on the
workload's resolved generator call), so a warm worker builds each
distinct workload once across all the jobs it serves.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.experiments import ExperimentRecord
from ..api.specs import RunSpec, SweepSpec
from ..api.store import ResultCache, SweepStoreWriter
from ..errors import ReproError, ServiceError
from ..faults import (
    FAULTS_ENV,
    FAULTS_EVENTS_ENV,
    FAULTS_SCOPE_ENV,
    active_plane,
    fault_point,
    install_from_env,
)
from .events import EVENTS_FILE_NAME, EventLog
from .leases import CellLeaseTable
from .protocol import (
    PROTOCOL_VERSION,
    ServiceAddress,
    bind_service_socket,
    recv_frame,
    remove_service_info,
    send_frame,
    write_service_info,
)
from .worker import preload_modules

__all__ = ["Dispatcher"]

#: How often the monitor and idle worker loops poll, in seconds.  Bounds
#: the latency between a submit and the first lease going out.
_TICK_SECONDS = 0.05


# ---------------------------------------------------------------------------
# jobs and workers
# ---------------------------------------------------------------------------


class _Job:
    """One submitted sweep: spec, lease table, in-order store writer."""

    def __init__(
        self,
        job_id: str,
        spec: SweepSpec,
        writer: SweepStoreWriter,
        cache: Optional[ResultCache],
        clock: Callable[[], float],
        max_cell_attempts: int = 0,
    ) -> None:
        self.id = job_id
        self.spec = spec
        self.writer = writer
        self.cache = cache
        self.runs: List[RunSpec] = spec.cells()
        self.labels: List[str] = spec.cell_labels()
        self.table = CellLeaseTable(
            total=len(self.runs), clock=clock, max_attempts=max_cell_attempts
        )
        self.state = "running"
        self.error: Optional[str] = None
        self.cache_hits = 0
        self.executed = 0
        self.resumed = len(writer.done)
        self.skipped = 0
        self.expired_leases = 0
        #: Cells requeued after a failed execution attempt.
        self.retries = 0
        self.submitted_unix = time.time()
        self.started_mono = clock()
        self.first_record_mono: Optional[float] = None
        self.finished_mono: Optional[float] = None

    def describe(self, clock: Callable[[], float]) -> Dict[str, Any]:
        """Return the JSON-ready job status document."""
        end = self.finished_mono if self.finished_mono is not None else clock()
        elapsed = max(end - self.started_mono, 0.0)
        first = (
            None
            if self.first_record_mono is None
            else max(self.first_record_mono - self.started_mono, 0.0)
        )
        done = self.table.done_count
        return {
            "id": self.id,
            "state": self.state,
            "experiment": self.spec.experiment,
            "out": str(self.writer.store.path),
            "cells_total": self.table.total,
            "cells_done": done,
            "cells_pending": self.table.pending_count,
            "cells_leased": self.table.leased_count,
            "cells_skipped": self.skipped,
            "cells_resumed": self.resumed,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "expired_leases": self.expired_leases,
            "retries": self.retries,
            "quarantined": self.table.quarantined_count,
            "quarantined_cells": [
                {
                    "cell": cell,
                    "label": self.labels[cell],
                    "reason": reason,
                    "attempts": self.table.attempts(cell),
                }
                for cell, reason in sorted(self.table.quarantined.items())
            ],
            "error": self.error,
            "submitted_unix": self.submitted_unix,
            "elapsed_seconds": elapsed,
            "first_record_seconds": first,
            "cells_per_second": (done / elapsed) if elapsed > 0 else 0.0,
        }


@dataclass
class _WorkerConn:
    """Dispatcher-side state of one connected worker."""

    id: str
    sock: socket.socket
    pid: int
    last_seen: float
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    ready: bool = False
    #: (job id, lease id, cell) of the lease this worker is executing.
    current: Optional[Tuple[str, int, int]] = None
    cells_done: int = 0
    #: True while the assignment path holds this worker between lease and
    #: send (an injected ``dispatcher.lease`` delay sleeps there) — the
    #: monitor must not read the silence as a stale heartbeat.
    assigning: bool = False
    evicted: bool = False


class Dispatcher:
    """The experiment service: accepts jobs, leases cells, writes stores.

    Parameters
    ----------
    root:
        Service directory: the socket, ``service.json``, and managed
        worker logs live here.  Job stores go wherever the submit says.
    workers:
        Managed worker processes to spawn (and respawn if they die).
        Zero is valid — workers started by hand with ``repro worker``
        attach the same way.
    lease_timeout:
        Seconds a worker may hold one cell before the lease expires and
        the cell is requeued.
    heartbeat_interval / heartbeat_timeout:
        Workers heartbeat every ``interval`` seconds; one silent for
        ``timeout`` seconds is evicted (default: 5x the interval).  The
        timeout must exceed the interval, or healthy workers — silent for
        a whole interval between heartbeats — would be evicted.
    max_cell_attempts:
        Quarantine threshold ``K``: a cell whose execution fails (its
        worker errors, dies, or is evicted while holding it) this many
        times is quarantined — recorded as a cell-error store line with
        a structured reason — instead of requeued forever.  Zero
        disables quarantine.
    restart_budget:
        Managed-worker respawns the dispatcher will perform over its
        lifetime.  A crash-looping fleet stops burning processes once
        the budget is spent (the incident log says so); respawns also
        back off exponentially between deaths.
    clock:
        Injectable monotonic clock (tests drive lease expiry with it).
    """

    def __init__(
        self,
        root: "str | Path",
        workers: int = 0,
        lease_timeout: float = 60.0,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: Optional[float] = None,
        preload: Tuple[str, ...] = (),
        max_cell_attempts: int = 3,
        restart_budget: int = 12,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        if max_cell_attempts < 0:
            raise ServiceError(
                f"max_cell_attempts must be >= 0, got {max_cell_attempts}"
            )
        if restart_budget < 0:
            raise ServiceError(
                f"restart_budget must be >= 0, got {restart_budget}"
            )
        if lease_timeout <= 0:
            raise ServiceError(f"lease_timeout must be positive, got {lease_timeout}")
        if heartbeat_interval <= 0:
            raise ServiceError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}"
            )
        if heartbeat_timeout is None:
            heartbeat_timeout = 5.0 * heartbeat_interval
        if heartbeat_timeout <= heartbeat_interval:
            raise ServiceError(
                f"heartbeat_timeout must exceed heartbeat_interval "
                f"({heartbeat_interval}), got {heartbeat_timeout}"
            )
        self.root = Path(root)
        self._num_workers = workers
        self._lease_timeout = lease_timeout
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._preload = tuple(preload)
        self._clock = clock
        self._lock = threading.RLock()
        self._stop_event = threading.Event()
        self._stopped = False
        self._listener: Optional[socket.socket] = None
        self.address: Optional[ServiceAddress] = None
        self._threads: List[threading.Thread] = []
        self._workers: Dict[str, _WorkerConn] = {}
        self._worker_counter = 0
        self._jobs: "OrderedDict[str, _Job]" = OrderedDict()
        self._job_counter = 0
        self._caches: Dict[str, ResultCache] = {}
        self._managed: List[Tuple[subprocess.Popen, Any]] = []
        self._managed_counter = 0
        self._evictions = 0
        self._started_unix: Optional[float] = None
        self._max_cell_attempts = max_cell_attempts
        self._restart_budget = restart_budget
        self._worker_restarts = 0
        self._budget_spent_logged = False
        #: Exponential respawn backoff: no respawn before this clock value.
        self._respawn_pause = 0.1
        self._next_respawn = 0.0
        self._last_respawn = 0.0
        self._draining = False
        self.events = EventLog(self.root / EVENTS_FILE_NAME)

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Dispatcher":
        """Bind, advertise, and start serving; returns self."""
        preload_modules(self._preload)
        self.root.mkdir(parents=True, exist_ok=True)
        # Arm the fault plane (chaos runs set REPRO_FAULTS); the
        # dispatcher's own injection points run under scope "dispatcher"
        # and fault firings land in this root's incident log.
        plane = active_plane()
        if plane is None:
            plane = install_from_env()
        if plane is not None:
            if not plane.scope:
                plane.scope = "dispatcher"
            if plane.sink is None:
                plane.sink = self.events.sink
        self._listener, self.address = bind_service_socket(self.root)
        self._listener.listen(64)
        self._started_unix = time.time()
        write_service_info(
            self.root,
            {
                "address": self.address.to_dict(),
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
                "started_unix": self._started_unix,
            },
        )
        for name, target in (
            ("service-accept", self._accept_loop),
            ("service-monitor", self._monitor_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        for _ in range(self._num_workers):
            self._spawn_worker()
        return self

    def request_stop(self) -> None:
        """Ask the serve loop to shut down (returns immediately)."""
        self._stop_event.set()

    def request_drain(self) -> None:
        """Begin a graceful drain (returns immediately).

        No new leases go out; in-flight cells finish and their records
        flush; once no lease is outstanding the monitor requests a full
        stop and the dispatcher exits 0.  Pending cells stay unexecuted
        — their stores keep valid prefixes and resume later.
        """
        if not self._draining:
            self._draining = True
            self.events.emit("drain-requested")

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a stop is requested; ``True`` when it was."""
        return self._stop_event.wait(timeout)

    def stop(self) -> None:
        """Shut everything down (idempotent): workers and threads."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._stop_event.set()
        if self._listener is not None:
            # Closing alone does not wake a thread blocked in accept().
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            workers = list(self._workers.values())
        for worker in workers:
            try:
                with worker.send_lock:
                    send_frame(worker.sock, {"type": "shutdown"})
            except (OSError, ServiceError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        # Join the monitor before touching managed workers, so a respawn
        # cannot race the terminations below.
        for thread in self._threads:
            thread.join(timeout=5.0)
        for process, log in self._managed:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 5.0
        for process, log in self._managed:
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
            if log is not None:
                log.close()
        remove_service_info(self.root)

    def __enter__(self) -> "Dispatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- managed workers ----------------------------------------------

    def _spawn_worker(self) -> None:
        self._managed_counter += 1
        logs = self.root / "logs"
        logs.mkdir(exist_ok=True)
        log = (logs / f"worker-{self._managed_counter}.log").open("ab")
        command = [sys.executable, "-m", "repro", "worker", str(self.root)]
        for module in self._preload:
            command.append(f"--preload={module}")
        env = dict(os.environ)
        # The managed worker must import the same `repro` this dispatcher
        # runs — including uninstalled source checkouts.
        package_root = str(Path(__file__).resolve().parent.parent.parent)
        path = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            package_root if not path else package_root + os.pathsep + path
        )
        if env.get(FAULTS_ENV):
            # Each worker *generation* gets its own fault scope, so a
            # crash rule scoped to one ordinal fires in exactly one
            # process instead of crash-looping every respawn; firings
            # from workers land in the shared incident log.
            env[FAULTS_SCOPE_ENV] = str(self._managed_counter)
            env.setdefault(FAULTS_EVENTS_ENV, str(self.events.path))
        process = subprocess.Popen(command, stdout=log, stderr=log, env=env)
        self._managed.append((process, log))

    # -- accept / classify ---------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            thread = threading.Thread(
                target=self._handshake, args=(sock,), daemon=True
            )
            thread.start()

    def _handshake(self, sock: socket.socket) -> None:
        try:
            sock.settimeout(10.0)
            hello = recv_frame(sock)
            if hello is None or hello.get("type") != "hello":
                sock.close()
                return
            if hello.get("protocol") != PROTOCOL_VERSION:
                send_frame(
                    sock,
                    {
                        "type": "error",
                        "error": (
                            f"protocol version mismatch: service speaks "
                            f"{PROTOCOL_VERSION}, peer speaks "
                            f"{hello.get('protocol')!r}"
                        ),
                    },
                )
                sock.close()
                return
            sock.settimeout(None)
            role = hello.get("role")
            if role == "worker":
                fault = fault_point("dispatcher.accept", role="worker")
                if fault is not None:
                    # Drop the handshake on the floor; the worker sees a
                    # closed connection and retries or exits cleanly.
                    sock.close()
                    return
                self._serve_worker(sock, hello)
            elif role == "client":
                send_frame(sock, {"type": "welcome", "protocol": PROTOCOL_VERSION})
                self._client_loop(sock)
            else:
                sock.close()
        except (OSError, ServiceError):
            try:
                sock.close()
            except OSError:
                pass

    # -- worker plane --------------------------------------------------

    def _serve_worker(self, sock: socket.socket, hello: Dict[str, Any]) -> None:
        with self._lock:
            self._worker_counter += 1
            worker = _WorkerConn(
                id=f"w{self._worker_counter}",
                sock=sock,
                pid=int(hello.get("pid", 0)),
                last_seen=self._clock(),
            )
            self._workers[worker.id] = worker
        send_frame(
            sock,
            {
                "type": "welcome",
                "worker": worker.id,
                "protocol": PROTOCOL_VERSION,
                "heartbeat_interval": self._heartbeat_interval,
            },
        )
        try:
            self._worker_loop(worker)
        finally:
            self._drop_worker(worker)

    def _worker_loop(self, worker: _WorkerConn) -> None:
        while not self._stop_event.is_set():
            if worker.ready:
                self._try_assign(worker)
            try:
                readable, _, _ = select.select(
                    [worker.sock], [], [], _TICK_SECONDS
                )
            except (OSError, ValueError):
                return  # socket closed under us (eviction, shutdown)
            if not readable:
                continue
            try:
                frame = recv_frame(worker.sock)
            except (OSError, ServiceError):
                return
            if frame is None:
                return
            kind = frame.get("type")
            if kind == "heartbeat":
                fault = fault_point("dispatcher.heartbeat", worker=worker.id)
                if fault is not None:
                    continue  # the heartbeat is lost before intake
            worker.last_seen = self._clock()
            if kind == "ready":
                worker.ready = True
            elif kind == "heartbeat":
                pass
            elif kind == "record":
                self._handle_record(worker, frame)
            elif kind == "cell-error":
                self._handle_cell_error(worker, frame)

    def _drop_worker(self, worker: _WorkerConn) -> None:
        """Remove a dead/evicted worker and requeue its leased cells.

        A cell the worker was holding counts one failed attempt against
        its quarantine threshold — a poison cell that kills every worker
        that touches it must run out of attempts, not processes.
        """
        lost = 0
        with self._lock:
            self._workers.pop(worker.id, None)
            how = "evicted" if worker.evicted else "died"
            for job in self._jobs.values():
                if job.state != "running":
                    continue
                for lease in job.table.revoke_worker(worker.id):
                    lost += 1
                    self._cell_failed(
                        job,
                        lease.cell,
                        f"worker {worker.id} {how} while executing this cell",
                    )
        if (lost or worker.evicted) and not self._stop_event.is_set():
            self.events.emit(
                "worker-lost",
                worker=worker.id,
                pid=worker.pid,
                evicted=worker.evicted,
                leases=lost,
            )
        try:
            worker.sock.close()
        except OSError:
            pass

    def _cell_failed(self, job: _Job, cell: int, reason: str) -> None:
        """Count one failed attempt; quarantine + record at threshold ``K``.

        Caller holds the dispatcher lock.  With quarantine disabled
        (``max_cell_attempts=0``) the failure is only requeued by the
        lease table's revoke path and nothing is counted here.
        """
        if not job.table.max_attempts:
            return
        outcome = job.table.record_failure(cell, reason)
        if outcome == "requeued":
            job.retries += 1
            self.events.emit(
                "cell-retry",
                job=job.id,
                cell=cell,
                attempts=job.table.attempts(cell),
                reason=reason,
            )
        elif outcome == "quarantined":
            self.events.emit(
                "cell-quarantined",
                job=job.id,
                cell=cell,
                attempts=job.table.attempts(cell),
                reason=reason,
            )
            try:
                # The cell-error line holds the cell's position so every
                # later cell's record still reaches the file in order.
                job.writer.write_error(cell, reason)
            except ReproError as exc:
                self._fail_job(
                    job, f"cannot record quarantine of cell {cell}: {exc}"
                )
                return
            self._maybe_finish(job)

    def _try_assign(self, worker: _WorkerConn) -> None:
        """Lease the next pending cell (if any) to a ready worker."""
        if self._draining:
            return  # drain: in-flight leases finish, nothing new goes out
        with self._lock:
            target: Optional[Tuple[_Job, Any]] = None
            for job in self._jobs.values():
                if job.state != "running":
                    continue
                lease = job.table.lease(worker.id, self._lease_timeout)
                if lease is not None:
                    target = (job, lease)
                    break
            if target is None:
                return
            job, lease = target
            worker.ready = False
            worker.assigning = True
            worker.current = (job.id, lease.lease_id, lease.cell)
            frame = {
                "type": "lease",
                "lease_id": lease.lease_id,
                "job": job.id,
                "cell": lease.cell,
                "label": job.labels[lease.cell],
                "run": job.runs[lease.cell].to_dict(),
            }
        try:
            fault = fault_point("dispatcher.lease", job=job.id, cell=lease.cell)
            if fault is not None:
                if fault.action == "expire":
                    # The lease-expiry race: the cell goes out, but its
                    # deadline is already past — the monitor requeues it
                    # while the worker still executes, and the late
                    # record must be accepted exactly once.
                    with self._lock:
                        lease.deadline = self._clock() - 1.0
                elif fault.action == "delay":
                    time.sleep(fault.seconds())
            with worker.send_lock:
                send_frame(worker.sock, frame)
            worker.last_seen = self._clock()
        except ServiceError as exc:
            with self._lock:
                self._fail_job(job, str(exc))
                job.table.forget(lease.lease_id)
                worker.ready = True
                worker.current = None
        except OSError:
            # Worker vanished between lease and send; the loop will see
            # EOF next tick and requeue via _drop_worker.
            with self._lock:
                job.table.forget(lease.lease_id)
                worker.current = None
        finally:
            worker.assigning = False

    def _handle_record(self, worker: _WorkerConn, frame: Dict[str, Any]) -> None:
        with self._lock:
            worker.current = None
            job = self._jobs.get(str(frame.get("job")))
            if job is None:
                return
            try:
                cell = job.table.complete(int(frame["lease_id"]))
            except (ServiceError, KeyError, TypeError, ValueError):
                return  # lease already forgotten (failed job, protocol skew)
            if cell is None:
                # Duplicate completion of a requeued cell: drop the record
                # — but this may have been the job's last outstanding
                # lease, so the finish check must still run.
                self._maybe_finish(job)
                return
            try:
                record = job.writer.write(cell, frame["record"])
            except ReproError as exc:
                self._fail_job(job, f"cell {cell} returned a bad record: {exc}")
                return
            worker.cells_done += 1
            job.executed += 1
            if job.first_record_mono is None:
                job.first_record_mono = self._clock()
            if job.cache is not None:
                try:
                    job.cache.put(job.runs[cell], record)
                except ReproError:
                    pass  # a broken cache must not sink the job's records
            self._maybe_finish(job)

    def _handle_cell_error(
        self, worker: _WorkerConn, frame: Dict[str, Any]
    ) -> None:
        with self._lock:
            worker.current = None
            job = self._jobs.get(str(frame.get("job")))
            if job is None:
                return
            try:
                cell = int(frame["cell"])
                job.table.forget(int(frame["lease_id"]))
            except (KeyError, TypeError, ValueError):
                return
            if job.state != "running":
                return
            error = str(frame.get("error", "unknown error"))
            if not job.table.max_attempts:
                # Quarantine disabled: a failing cell is job-fatal (the
                # pre-quarantine behaviour); the store keeps its prefix.
                self._fail_job(
                    job, f"cell {cell} failed on worker {worker.id}: {error}"
                )
                return
            self._cell_failed(job, cell, f"worker {worker.id}: {error}")

    def _fail_job(self, job: _Job, error: str) -> None:
        """Stop scheduling a job's cells; its store keeps its valid prefix."""
        if job.state != "running":
            return
        job.state = "failed"
        job.error = error
        job.skipped += job.table.drain()
        job.finished_mono = self._clock()
        self.events.emit("job-failed", job=job.id, error=error)

    def _maybe_finish(self, job: _Job) -> None:
        if (
            job.state == "running"
            and job.table.pending_count == 0
            and job.table.leased_count == 0
        ):
            job.state = "done"
            job.finished_mono = self._clock()
            if job.table.quarantined_count:
                self.events.emit(
                    "job-done-with-quarantine",
                    job=job.id,
                    quarantined=job.table.quarantined_count,
                )

    # -- monitor -------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop_event.wait(_TICK_SECONDS):
            now = self._clock()
            stale: List[_WorkerConn] = []
            draining_done = self._draining
            with self._lock:
                for job in self._jobs.values():
                    if job.state != "running":
                        continue
                    expired = job.table.expire()
                    job.expired_leases += len(expired)
                    for lease in expired:
                        self.events.emit(
                            "lease-expired",
                            job=job.id,
                            cell=lease.cell,
                            worker=lease.worker,
                        )
                    if draining_done and job.table.leased_count:
                        draining_done = False
                for worker in self._workers.values():
                    if worker.evicted or worker.assigning:
                        continue
                    if now - worker.last_seen > self._heartbeat_timeout:
                        worker.evicted = True
                        stale.append(worker)
            for worker in stale:
                self._evictions += 1
                self.events.emit(
                    "worker-evicted",
                    worker=worker.id,
                    pid=worker.pid,
                    silent_seconds=round(now - worker.last_seen, 3),
                )
                # Closing the socket routes eviction through the same
                # path as a worker crash: the worker loop sees EOF and
                # requeues every lease the worker held.
                try:
                    worker.sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    worker.sock.close()
                except OSError:
                    pass
            if draining_done:
                # Drain: nothing is leased anywhere and nothing new will
                # be — the flush already happened record by record.
                self.events.emit("drain-complete")
                self.request_stop()
                return
            if (
                self._num_workers
                and not self._stop_event.is_set()
                and not self._draining
            ):
                self._respawn_missing(now)

    def _respawn_missing(self, now: float) -> None:
        """Respawn dead managed workers, under a budget with backoff."""
        live = sum(1 for process, _ in self._managed if process.poll() is None)
        missing = self._num_workers - live
        if missing <= 0:
            return
        # A fleet that has been stable for a while earns a fresh (short)
        # backoff; a crash-looping one keeps doubling toward the cap.
        if self._last_respawn and now - self._last_respawn > 10.0:
            self._respawn_pause = 0.1
        for _ in range(missing):
            if self._worker_restarts >= self._restart_budget:
                if not self._budget_spent_logged:
                    self._budget_spent_logged = True
                    self.events.emit(
                        "restart-budget-exhausted",
                        budget=self._restart_budget,
                        live=live,
                    )
                return
            if now < self._next_respawn:
                return
            self._spawn_worker()
            self._worker_restarts += 1
            self._last_respawn = now
            self._next_respawn = now + self._respawn_pause
            self.events.emit(
                "worker-respawned",
                restarts=self._worker_restarts,
                budget=self._restart_budget,
                backoff_seconds=self._respawn_pause,
            )
            self._respawn_pause = min(self._respawn_pause * 2, 5.0)

    # -- control plane -------------------------------------------------

    def _client_loop(self, sock: socket.socket) -> None:
        try:
            while not self._stop_event.is_set():
                frame = recv_frame(sock)
                if frame is None:
                    return
                try:
                    reply = self._handle_request(frame)
                except ReproError as exc:
                    reply = {"type": "error", "error": str(exc)}
                send_frame(sock, reply)
                if frame.get("type") == "shutdown":
                    return
        except (OSError, ServiceError):
            return
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _handle_request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        kind = frame.get("type")
        if kind == "submit":
            return {"type": "submitted", "job": self._submit(frame)}
        if kind == "status":
            return self.status()
        if kind == "job-status":
            job_id = str(frame.get("job"))
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None:
                    raise ServiceError(f"no such job: {job_id}")
                return {"type": "job-reply", "job": job.describe(self._clock)}
        if kind == "shutdown":
            self.request_stop()
            return {"type": "ok"}
        if kind == "drain":
            self.request_drain()
            return {"type": "ok"}
        raise ServiceError(f"unknown request type {kind!r}")

    def _submit(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self._stop_event.is_set():
            raise ServiceError("the service is shutting down")
        spec = SweepSpec.from_dict(frame.get("spec"))
        spec.require_sweepable()
        out = str(frame.get("out") or "")
        if not out:
            raise ServiceError("submit needs an output store path")
        out_path = Path(out)
        if not out_path.is_absolute():
            out_path = self.root / out_path
        resume = bool(frame.get("resume", False))
        max_cells = frame.get("max_cells")
        if max_cells is not None:
            max_cells = int(max_cells)
            if max_cells < 0:
                raise ServiceError(f"max_cells must be >= 0, got {max_cells}")
        with self._lock:
            for other in self._jobs.values():
                if (
                    other.state == "running"
                    and str(other.writer.store.path) == str(out_path)
                ):
                    raise ServiceError(
                        f"job {other.id} is already writing {out_path}; two "
                        "jobs must not share one store file"
                    )
        cache_dir = frame.get("cache")
        cache = None
        if cache_dir:
            cache = self._caches.setdefault(
                str(Path(cache_dir)), ResultCache(Path(cache_dir))
            )
        writer = SweepStoreWriter(spec, out_path, resume=resume)
        with self._lock:
            self._job_counter += 1
            job = _Job(
                f"job-{self._job_counter}",
                spec,
                writer,
                cache,
                self._clock,
                max_cell_attempts=self._max_cell_attempts,
            )
        # Everything below mirrors run_sweep's scheduling exactly: resumed
        # cells first, then the max_cells budget, then cache lookups on
        # the budgeted cells only — so the store file comes out byte-
        # identical to the serial path under every combination.
        for index in writer.done:
            job.table.mark_done(index)
        scheduled = writer.pending()
        if max_cells is not None:
            for index in scheduled[max_cells:]:
                if job.table.skip(index):
                    job.skipped += 1
            scheduled = scheduled[:max_cells]
        if cache is not None:
            for index in scheduled:
                record = cache.get(job.runs[index])
                if record is not None:
                    writer.write(index, record.to_dict())
                    job.table.mark_done(index)
                    job.cache_hits += 1
        with self._lock:
            self._jobs[job.id] = job
            self._maybe_finish(job)
            return job.describe(self._clock)

    def status(self) -> Dict[str, Any]:
        """Return the full service status document."""
        now = self._clock()
        with self._lock:
            workers = [
                {
                    "id": worker.id,
                    "pid": worker.pid,
                    "state": (
                        "executing"
                        if worker.current is not None
                        else ("idle" if worker.ready else "starting")
                    ),
                    "cells_done": worker.cells_done,
                    "last_seen_seconds": max(now - worker.last_seen, 0.0),
                    "lease": (
                        None
                        if worker.current is None
                        else {
                            "job": worker.current[0],
                            "cell": worker.current[2],
                        }
                    ),
                }
                for worker in self._workers.values()
            ]
            jobs = [job.describe(self._clock) for job in self._jobs.values()]
        return {
            "type": "status-reply",
            "service": {
                "root": str(self.root),
                "pid": os.getpid(),
                "address": None if self.address is None else self.address.to_dict(),
                "protocol": PROTOCOL_VERSION,
                "started_unix": self._started_unix,
                "lease_timeout": self._lease_timeout,
                "heartbeat_interval": self._heartbeat_interval,
                "heartbeat_timeout": self._heartbeat_timeout,
                "managed_workers": self._num_workers,
                "evictions": self._evictions,
                "draining": self._draining,
                "max_cell_attempts": self._max_cell_attempts,
                "worker_restarts": self._worker_restarts,
                "restart_budget": self._restart_budget,
                "quarantined": sum(
                    job.table.quarantined_count for job in self._jobs.values()
                ),
                "events_path": str(self.events.path),
            },
            "workers": workers,
            "jobs": jobs,
        }
