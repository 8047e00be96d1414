"""Seeded chaos sessions: prove the service degrades, recovers, agrees.

A chaos session is the robustness contract of :mod:`repro.service` made
executable.  It runs the same three-sweep workload twice — once serially
through :func:`~repro.api.store.run_sweep` (the ground truth) and once
on a live dispatcher/worker fleet with a :class:`~repro.faults
.FaultSchedule` armed — and then checks the only invariant that matters:
**the JSONL stores are byte-identical**, no matter how many workers
crashed mid-record, frames tore on the wire, leases expired under
running cells, or handshakes were dropped on the floor.

Two phases:

* **chaos** — :meth:`FaultSchedule.chaos(seed) <repro.faults
  .FaultSchedule.chaos>` arms one rule per kind of *recoverable* fault;
  the session asserts byte-identity per sweep, that zero cells were
  quarantined (every fault was survivable), and reports which distinct
  fault points actually fired (from the root's ``events.jsonl``).
* **poison** — a separate fleet runs one sweep with a single rule that
  makes one cell fail on *every* worker, forever.  The session asserts
  the cell is quarantined after exactly ``poison_attempts`` failures,
  that every other cell still completed, and that the store holds a
  ``cell-error`` line for the poison cell — graceful degradation, not a
  stalled job.

``control=True`` runs the same session with no schedule armed: the
fault plane must be invisible (byte-identity again, zero fault events,
zero quarantine).  ``repro chaos`` is the CLI door; ``benchmarks/
bench_chaos.py`` and the CI ``chaos-smoke`` job pin one seed forever.

Determinism note: the *schedule* is fully replayable, but OS scheduling
decides which worker draws which cell, so the fired-fault timeline may
differ between runs of the same seed.  The session's assertions are
therefore about outputs (stores, quarantine counts), never about which
process a fault landed in.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..api.specs import AlgorithmSpec, SweepSpec, WorkloadSpec
from ..api.store import run_sweep
from ..errors import ServiceError
from ..faults import (
    FAULTS_ENV,
    FAULTS_EVENTS_ENV,
    FAULTS_SCOPE_ENV,
    FaultRule,
    FaultSchedule,
    uninstall_plane,
)
from .dispatcher import Dispatcher
from .events import read_events
from .protocol import ServiceClient
from .worker import preload_modules

__all__ = [
    "CHAOS_PRELOAD",
    "SCHEDULE_FILE_NAME",
    "chaos_specs",
    "poison_schedule",
    "run_chaos_session",
]

#: Module every chaos fleet process preloads (registers the probe).
CHAOS_PRELOAD = ("repro.service.probes",)
#: Registry name of the near-zero-cost probe algorithm chaos cells run.
PROBE_ALGORITHM = "service-probe"
#: Where a session writes the armed schedule inside its service root.
SCHEDULE_FILE_NAME = "fault-schedule.json"

#: Quarantine threshold for the *chaos* fleet.  Deliberately above the
#: worst case a single cell can accumulate from the standard mix (one
#: injected failure plus every crash/tear that could revoke its lease),
#: so independent recoverable faults never quarantine a cell and break
#: the byte-identity contract.
CHAOS_MAX_CELL_ATTEMPTS = 6


def chaos_specs(num_nodes: int = 28) -> List[SweepSpec]:
    """The session's three-sweep workload (2 algorithms x 3 seeds each).

    Three sweeps (distinct experiments, seeds and graph sizes) make the
    fleet cross job boundaries mid-chaos: leases of different jobs
    interleave and warm workers switch workloads while faults fire,
    which is where ordering bugs live.
    """
    specs = []
    for index in range(3):
        specs.append(
            SweepSpec(
                experiment=f"chaos-{index + 1}",
                algorithms=(
                    AlgorithmSpec(PROBE_ALGORITHM, {"scale": 1}),
                    AlgorithmSpec(
                        PROBE_ALGORITHM, {"scale": 2}, label="probe-2"
                    ),
                ),
                workload=WorkloadSpec(
                    "gnp",
                    {
                        "num_nodes": num_nodes + 4 * index,
                        "edge_probability": 0.3,
                    },
                ),
                seeds=tuple(range(3 * index + 1, 3 * index + 4)),
            )
        )
    return specs


def poison_schedule(cell: int) -> FaultSchedule:
    """A schedule with one rule: ``cell`` fails on every worker, forever."""
    return FaultSchedule(
        seed=0,
        rules=(
            FaultRule.build(
                "worker.execute", "fail", match={"cell": cell}, times=None
            ),
        ),
    )


@contextmanager
def _armed(
    schedule: Optional[FaultSchedule], root: Path
) -> Iterator[Optional[Path]]:
    """Arm ``schedule`` via the environment for the enclosed fleet.

    The dispatcher starts in *this* process (it reads the env itself)
    and ``Popen``-spawns workers that inherit it; on exit the prior
    environment is restored and the process-global plane uninstalled so
    chaos never leaks into later phases, commands or tests.
    """
    if schedule is None:
        yield None
        return
    root.mkdir(parents=True, exist_ok=True)
    schedule_path = schedule.dump(root / SCHEDULE_FILE_NAME)
    updates = {
        FAULTS_ENV: str(schedule_path),
        FAULTS_EVENTS_ENV: str(root / "events.jsonl"),
        FAULTS_SCOPE_ENV: None,  # the dispatcher defaults its own scope
    }
    saved = {key: os.environ.get(key) for key in updates}
    for key, value in updates.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield schedule_path
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        uninstall_plane()


def _fresh(path: Path) -> Path:
    if path.exists():
        path.unlink()
    return path


def _run_fleet(
    svc_root: Path,
    specs: List[SweepSpec],
    outs: List[Path],
    workers: int,
    max_cell_attempts: int,
    job_timeout: float,
) -> Tuple[List[Optional[Dict[str, Any]]], Dict[str, Any], List[str]]:
    """Run ``specs`` on a fresh fleet; return (jobs, status, failures)."""
    failures: List[str] = []
    finals: List[Optional[Dict[str, Any]]] = [None] * len(specs)
    dispatcher = Dispatcher(
        svc_root,
        workers=workers,
        preload=CHAOS_PRELOAD,
        heartbeat_interval=0.3,
        lease_timeout=15.0,
        max_cell_attempts=max_cell_attempts,
    )
    dispatcher.start()
    try:
        with ServiceClient.connect(svc_root) as client:
            jobs = []
            for spec, out in zip(specs, outs):
                jobs.append(
                    client.submit(spec.to_dict(), out=str(_fresh(out)))
                )
            for index, job in enumerate(jobs):
                try:
                    finals[index] = client.wait_job(
                        job["id"], timeout=job_timeout
                    )
                except ServiceError as exc:
                    failures.append(
                        f"sweep {specs[index].experiment!r}: {exc}"
                    )
            status = client.status()
    finally:
        dispatcher.stop()
    return finals, status, failures


def run_chaos_session(
    root: "str | Path",
    seed: int = 0,
    workers: int = 2,
    control: bool = False,
    poison_attempts: int = 3,
    job_timeout: float = 180.0,
) -> Dict[str, Any]:
    """Run one full chaos (or control) session under ``root``.

    Returns a JSON-ready report; ``report["ok"]`` is the verdict and
    ``report["failures"]`` lists every violated invariant (empty on a
    clean session).  Never raises for an invariant violation — callers
    (the CLI, the benchmark, CI) decide how loudly to fail.
    """
    if workers < 1:
        raise ServiceError(f"chaos sessions need >= 1 worker, got {workers}")
    if poison_attempts < 1:
        raise ServiceError(
            f"poison_attempts must be >= 1, got {poison_attempts}"
        )
    preload_modules(CHAOS_PRELOAD)
    # Resolved so store paths survive the trip through the dispatcher,
    # which anchors relative submit paths at its own service root.
    root = Path(root).resolve()
    root.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    failures: List[str] = []
    specs = chaos_specs()

    # Ground truth first, before any plane is armed: the serial path must
    # never see an injected fault.
    references = []
    for index, spec in enumerate(specs, start=1):
        reference = _fresh(root / f"reference-{index}.records.jsonl")
        run_sweep(spec, reference)
        references.append(reference)

    # -- phase 1: the standard recoverable-fault mix (or nothing) -------
    schedule = (
        None if control else FaultSchedule.chaos(seed, workers=workers)
    )
    svc_root = root / ("control-svc" if control else "chaos-svc")
    outs = [
        root / f"fleet-{index}.records.jsonl"
        for index in range(1, len(specs) + 1)
    ]
    with _armed(schedule, svc_root):
        finals, status, fleet_failures = _run_fleet(
            svc_root, specs, outs, workers, CHAOS_MAX_CELL_ATTEMPTS,
            job_timeout,
        )
    failures.extend(fleet_failures)

    sweeps = []
    for spec, reference, out, final in zip(specs, references, outs, finals):
        identical = (
            out.exists() and out.read_bytes() == reference.read_bytes()
        )
        if not identical:
            failures.append(
                f"sweep {spec.experiment!r}: fleet store {out} is not "
                f"byte-identical to the serial reference"
            )
        sweeps.append(
            {
                "experiment": spec.experiment,
                "cells": len(spec.cells()),
                "out": str(out),
                "reference": str(reference),
                "identical": identical,
                "state": None if final is None else final["state"],
                "retries": 0 if final is None else final["retries"],
            }
        )

    quarantined = status["service"]["quarantined"]
    if quarantined:
        failures.append(
            f"{quarantined} cells were quarantined; every fault in the "
            "standard mix is recoverable, so none should be"
        )
    events = read_events(svc_root)
    fired = [event for event in events if event.get("event") == "fault-fired"]
    points_fired = sorted({str(event.get("point")) for event in fired})
    if control and fired:
        failures.append(
            f"control session fired {len(fired)} faults; none were armed"
        )

    report: Dict[str, Any] = {
        "mode": "control" if control else "chaos",
        "seed": seed,
        "workers": workers,
        "sweeps": sweeps,
        "identical": all(sweep["identical"] for sweep in sweeps),
        "fault_fires": len(fired),
        "fault_points_fired": points_fired,
        "events": len(events),
        "quarantined": quarantined,
        "worker_restarts": status["service"]["worker_restarts"],
        "events_path": status["service"]["events_path"],
    }

    # -- phase 2: the poison cell (skipped for control sessions) --------
    if not control:
        poison_spec = specs[0]
        poison_cell = len(poison_spec.cells()) // 2
        poison_root = root / "poison-svc"
        poison_out = root / "poison.records.jsonl"
        with _armed(poison_schedule(poison_cell), poison_root):
            poison_dispatcher = Dispatcher(
                poison_root,
                workers=workers,
                preload=CHAOS_PRELOAD,
                heartbeat_interval=0.3,
                lease_timeout=15.0,
                max_cell_attempts=poison_attempts,
            )
            poison_dispatcher.start()
            try:
                with ServiceClient.connect(poison_root) as client:
                    job = client.submit(
                        poison_spec.to_dict(), out=str(_fresh(poison_out))
                    )
                    final = client.wait_job(job["id"], timeout=job_timeout)
            except ServiceError as exc:
                final = None
                failures.append(f"poison sweep: {exc}")
            finally:
                poison_dispatcher.stop()
        poison_report: Dict[str, Any] = {
            "cell": poison_cell,
            "attempts": poison_attempts,
            "out": str(poison_out),
        }
        if final is not None:
            cells = {
                entry["cell"]: entry for entry in final["quarantined_cells"]
            }
            poison_report.update(
                {
                    "state": final["state"],
                    "quarantined": final["quarantined"],
                    "cells_done": final["cells_done"],
                    "observed_attempts": cells.get(poison_cell, {}).get(
                        "attempts"
                    ),
                }
            )
            if final["state"] != "done":
                failures.append(
                    f"poison job ended {final['state']!r}; quarantine must "
                    "let the job finish"
                )
            if set(cells) != {poison_cell}:
                failures.append(
                    f"poison session quarantined cells {sorted(cells)}; "
                    f"expected exactly {{{poison_cell}}}"
                )
            elif cells[poison_cell]["attempts"] != poison_attempts:
                failures.append(
                    f"poison cell took {cells[poison_cell]['attempts']} "
                    f"attempts to quarantine; expected exactly "
                    f"{poison_attempts}"
                )
            if final["cells_done"] != len(poison_spec.cells()) - 1:
                failures.append(
                    f"poison job completed {final['cells_done']} cells; "
                    f"every non-poison cell "
                    f"({len(poison_spec.cells()) - 1}) must finish"
                )
        report["poison"] = poison_report

    report["failures"] = failures
    report["ok"] = not failures
    report["elapsed_seconds"] = round(time.monotonic() - started, 3)
    return report
