"""Benchmark: chaos session — byte-identity under deterministic faults.

The robustness contract of the experiment service is not "it usually
survives" but "a faulted session produces *exactly* the store a serial
run would".  This benchmark runs the full seeded chaos session from
:mod:`repro.service.chaos` — a three-sweep fleet session with the
standard recoverable-fault mix armed (worker crashes, stalls, dropped
and corrupted frames, expired leases, injected ENOSPC on the store) —
and demands:

* every fleet store is byte-identical to its serial reference,
* at least five distinct fault points actually fired (the injections
  were live, not vacuously passed),
* no recoverable fault quarantined a cell,
* the poison phase quarantines its permanently failing cell after
  exactly K attempts while every healthy cell completes.

A fault-free control session runs afterwards as the baseline: same
fleet, no plane armed, zero fires.  The recorded overhead ratio
(chaos wall-clock / control wall-clock) tracks how much injected
failure the recovery machinery absorbs without giving up throughput.

The seed is pinned to the same value as ``tests/service/test_chaos.py``
and the CI ``chaos-smoke`` job, so a regression reproduces identically
everywhere.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.service.chaos import run_chaos_session

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("SERVICE_QUICK", "") not in ("", "0")
#: Must match tests/service/test_chaos.py::PINNED_SEED and the CI job.
PINNED_SEED = 7
WORKERS = 2
#: The acceptance bar on injection coverage: distinct points fired.
REQUIRED_DISTINCT_POINTS = 5


def test_chaos_session_byte_identity(benchmark):
    """Seeded chaos session: identical stores, live faults, exact-K poison."""

    def session():
        with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
            tmp_path = Path(tmp)
            chaos = run_chaos_session(
                tmp_path / "chaos", seed=PINNED_SEED, workers=WORKERS
            )
            control = run_chaos_session(
                tmp_path / "control", workers=WORKERS, control=True
            )
        return chaos, control

    chaos, control = run_once(benchmark, session)

    overhead = (
        chaos["elapsed_seconds"] / control["elapsed_seconds"]
        if control["elapsed_seconds"] > 0
        else float("inf")
    )
    points = ", ".join(chaos["fault_points_fired"])
    poison = chaos["poison"]
    table = "\n".join(
        [
            f"chaos benchmark (seed={PINNED_SEED}, workers={WORKERS}, "
            f"{len(chaos['sweeps'])} sweeps, quick={QUICK})",
            f"  chaos session:   {chaos['elapsed_seconds']:.2f} s, "
            f"{chaos['fault_fires']} faults fired across "
            f"{len(chaos['fault_points_fired'])} points ({points})",
            f"  control session: {control['elapsed_seconds']:.2f} s, "
            f"{control['fault_fires']} faults fired",
            f"  overhead:        {overhead:.2f}x wall-clock under chaos",
            f"  stores:          {len(chaos['sweeps'])} byte-identical "
            f"to serial, {chaos['quarantined']} quarantined, "
            f"{chaos['worker_restarts']} worker restarts",
            f"  poison phase:    cell {poison['cell']} quarantined after "
            f"{poison['observed_attempts']} attempts, "
            f"{poison['cells_done']} healthy cells done",
        ]
    )
    record_table("chaos", table, quick=QUICK)
    record_json(
        "chaos",
        {
            "benchmark": "chaos",
            "quick": QUICK,
            "seed": PINNED_SEED,
            "workers": WORKERS,
            "sweeps": len(chaos["sweeps"]),
            "chaos_seconds": chaos["elapsed_seconds"],
            "control_seconds": control["elapsed_seconds"],
            "overhead": overhead,
            "fault_fires": chaos["fault_fires"],
            "fault_points_fired": chaos["fault_points_fired"],
            "quarantined": chaos["quarantined"],
            "worker_restarts": chaos["worker_restarts"],
            "poison_attempts": poison["observed_attempts"],
            "poison_cells_done": poison["cells_done"],
            "identical": chaos["identical"],
        },
    )

    assert chaos["failures"] == [], chaos["failures"]
    assert chaos["ok"] and chaos["identical"], table
    assert (
        len(chaos["fault_points_fired"]) >= REQUIRED_DISTINCT_POINTS
    ), table
    assert chaos["quarantined"] == 0, table
    assert poison["observed_attempts"] == poison["attempts"], table
    assert control["ok"] and control["fault_fires"] == 0, table
