"""Benchmark: warm worker-fleet service vs cold per-sweep runners.

A research session is rarely one sweep: parameters get nudged, seeds get
added, the same workloads get re-measured.  The per-call
:class:`~repro.analysis.experiments.SweepRunner` pays the full
provisioning bill — process-pool spawn, import warm-up, workload
construction in every worker — once per *sweep*; the experiment service
(:mod:`repro.service`) pays it once per *session*: workers stay resident
between jobs and keep the workloads they built in their per-process
workload cache.

This benchmark times the same multi-sweep session — ``NUM_SWEEPS``
sweeps of a (probe scales x workload seeds) grid on ``G(n, sqrt(n)/n)``,
the paper's sparse regime — two ways:

* ``cold`` — a fresh ``SweepRunner`` per sweep (today's ``repro sweep``:
  every invocation spawns its own pool and rebuilds every workload),
* ``warm`` — one running dispatcher + fleet, one ``submit`` per sweep.

The measured algorithm is the near-zero-cost ``service-probe``, so the
timings isolate provisioning — the cost the warm fleet removes.  After
the timed session one more sweep runs on the same fleet during which a
worker is SIGKILLed while it holds a lease: the requeue machinery must
recover and the store it produces must still be byte-identical to the
serial path.  Every fleet and cold store is compared against a serial
``run_sweep`` reference.  Set ``SERVICE_QUICK=1`` (CI does) for a
reduced-size run with a relaxed bar.
"""

from __future__ import annotations

import filecmp
import math
import os
import signal
import tempfile
import time
from pathlib import Path
from typing import List

from repro.analysis import experiments as _experiments
from repro.analysis.experiments import SweepRunner
from repro.api.specs import AlgorithmSpec, SweepSpec, WorkloadSpec
from repro.api.store import run_sweep
from repro.service import Dispatcher, ServiceClient
from repro.service.probes import PROBE_ALGORITHM

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("SERVICE_QUICK", "") not in ("", "0")
NUM_NODES = 1200 if QUICK else 4000
#: The paper's sparse regime: expected degree sqrt(n).
EDGE_PROBABILITY = math.sqrt(NUM_NODES) / NUM_NODES
WORKLOAD_SEEDS = (1, 2) if QUICK else (1, 2, 3)
PROBE_SCALES = (1, 2) if QUICK else (1, 2, 3)
NUM_SWEEPS = 3
WORKERS = 3
#: The untimed fault sweep's cells sleep briefly so leases are reliably
#: in flight when the SIGKILL lands.
FAULT_SLEEP_SECONDS = 0.2
#: Required aggregate cells/s advantage of the warm fleet.
REQUIRED_SPEEDUP = 1.2 if QUICK else 2.0

PRELOAD = ("repro.service.probes",)


def _spec(index: int, sleep: float = 0.0) -> SweepSpec:
    """Sweep ``index`` of the session: same workloads every time.

    Identical workload documents across sweeps are the point — that is
    what the fleet workers' workload caches keep warm.
    """
    return SweepSpec(
        experiment=f"service-session-{index}",
        algorithms=tuple(
            AlgorithmSpec(
                PROBE_ALGORITHM,
                {"scale": scale, "sleep_seconds": sleep},
                label=f"probe-{scale}",
            )
            for scale in PROBE_SCALES
        ),
        workload=WorkloadSpec(
            "gnp",
            {"num_nodes": NUM_NODES, "edge_probability": EDGE_PROBABILITY},
        ),
        seeds=WORKLOAD_SEEDS,
    )


def _warmup_spec() -> SweepSpec:
    """A tiny throwaway sweep that spins the fleet up before timing.

    A *different* workload from the session, so warming the workers
    cannot pre-populate the workloads the session is measured on — only
    imports and process spawn are amortised, which is what "warm fleet"
    means.
    """
    return SweepSpec(
        experiment="service-warmup",
        algorithms=(AlgorithmSpec(PROBE_ALGORITHM, {"scale": 1}),),
        workload=WorkloadSpec("gnp", {"num_nodes": 60, "edge_probability": 0.3}),
        seeds=(101, 102),
    )


def _kill_one_worker(client: ServiceClient, job_id: str) -> int:
    """SIGKILL a worker once the job is demonstrably under way."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        for worker in client.status()["workers"]:
            if worker["lease"] is not None and worker["lease"]["job"] == job_id:
                os.kill(worker["pid"], signal.SIGKILL)
                return worker["pid"]
        time.sleep(0.02)
    raise AssertionError("no worker ever held a lease for the fault sweep")


def test_service_fleet_speedup(benchmark):
    """Warm fleet >=2x cold per-sweep runners on aggregate cells/s."""
    specs = [_spec(index) for index in range(NUM_SWEEPS)]
    fault_spec = _spec(NUM_SWEEPS, sleep=FAULT_SLEEP_SECONDS)
    total_cells = sum(len(spec.cells()) for spec in specs)

    def session():
        with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
            tmp_path = Path(tmp)

            # -- cold: a fresh runner (pool spawn + workload builds) per sweep.
            cold_outs = [tmp_path / f"cold-{i}.jsonl" for i in range(NUM_SWEEPS)]
            cold_sweep_seconds: List[float] = []
            cold_start = time.perf_counter()
            for spec, out in zip(specs, cold_outs):
                # A real cold invocation is a fresh ``repro sweep``
                # process; this loop stays in-process (so imports are
                # not unfairly charged to it) but must not let the
                # per-process workload cache leak warmth between sweeps.
                _experiments._GRAPH_CACHE.clear()
                sweep_start = time.perf_counter()
                with SweepRunner(max_workers=WORKERS) as runner:
                    run_sweep(spec, out, runner=runner)
                cold_sweep_seconds.append(time.perf_counter() - sweep_start)
            cold_seconds = time.perf_counter() - cold_start

            # -- warm: one fleet for the whole session.
            fleet_outs = [
                tmp_path / f"fleet-{i}.jsonl" for i in range(NUM_SWEEPS)
            ]
            fault_out = tmp_path / "fleet-fault.jsonl"
            first_record_seconds: List[float] = []
            with Dispatcher(
                tmp_path / "svc",
                workers=WORKERS,
                preload=PRELOAD,
            ) as dispatcher:
                with ServiceClient.connect(dispatcher.root) as client:
                    warmup = client.submit(
                        _warmup_spec().to_dict(), out=tmp_path / "warmup.jsonl"
                    )
                    client.wait_job(warmup["id"], timeout=120)

                    warm_start = time.perf_counter()
                    for spec, out in zip(specs, fleet_outs):
                        job = client.submit(spec.to_dict(), out=out)
                        job = client.wait_job(job["id"], timeout=600)
                        first_record_seconds.append(job["first_record_seconds"])
                    warm_seconds = time.perf_counter() - warm_start

                    # Untimed fault sweep on the same (still warm) fleet:
                    # kill a worker mid-job, let the lease requeue, and
                    # demand the recovered store below anyway.
                    fault_job = client.submit(fault_spec.to_dict(), out=fault_out)
                    _kill_one_worker(client, fault_job["id"])
                    client.wait_job(fault_job["id"], timeout=600)

            # -- byte-identity: every store must match a serial reference.
            # Serial runs happen after the timed paths so they cannot warm
            # any process or cache the parallel paths are timed on.
            for index, spec in enumerate(specs):
                reference = tmp_path / f"serial-{index}.jsonl"
                run_sweep(spec, reference)
                assert filecmp.cmp(reference, cold_outs[index], shallow=False), (
                    f"cold sweep {index} diverges from the serial store"
                )
                assert filecmp.cmp(reference, fleet_outs[index], shallow=False), (
                    f"fleet sweep {index} diverges from the serial store"
                )
            fault_reference = tmp_path / "serial-fault.jsonl"
            run_sweep(fault_spec, fault_reference)
            assert filecmp.cmp(fault_reference, fault_out, shallow=False), (
                "the fleet store diverges from the serial store after a "
                "worker was SIGKILLed mid-sweep"
            )

        return cold_seconds, cold_sweep_seconds, warm_seconds, first_record_seconds

    cold_seconds, cold_sweep_seconds, warm_seconds, first_record_seconds = run_once(
        benchmark, session
    )
    cold_rate = total_cells / cold_seconds
    warm_rate = total_cells / warm_seconds
    speedup = warm_rate / cold_rate

    table = "\n".join(
        [
            f"service benchmark (n={NUM_NODES}, p=sqrt(n)/n, "
            f"{NUM_SWEEPS} sweeps x {len(PROBE_SCALES) * len(WORKLOAD_SEEDS)} "
            f"cells, workers={WORKERS}, quick={QUICK})",
            f"  cold per-sweep runners: {cold_seconds:.2f} s "
            f"({cold_rate:.2f} cells/s; per sweep "
            + ", ".join(f"{value:.2f}s" for value in cold_sweep_seconds)
            + ")",
            f"  warm fleet session:     {warm_seconds:.2f} s "
            f"({warm_rate:.2f} cells/s)",
            f"  time to first record:   "
            + ", ".join(f"{value:.2f}s" for value in first_record_seconds),
            "  fault sweep:            worker SIGKILLed mid-job; "
            "store byte-identical to serial",
            f"  speedup:                {speedup:.2f}x "
            f"(required >={REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("service", table)
    record_json(
        "service",
        {
            "benchmark": "service",
            "quick": QUICK,
            "num_nodes": NUM_NODES,
            "edge_probability": EDGE_PROBABILITY,
            "sweeps": NUM_SWEEPS,
            "cells": total_cells,
            "workers": WORKERS,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "cold_cells_per_second": cold_rate,
            "warm_cells_per_second": warm_rate,
            "first_record_seconds": first_record_seconds[0],
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, table
