"""Benchmark: zero-copy shared-memory sweep plane vs pickled workloads.

The sweep scheduler (:mod:`repro.analysis.experiments`) grew a second
workload transport: instead of every worker process rebuilding each
workload graph — and recomputing its edge-support and triangle oracle —
from a pickled ``(factory, seed)`` pair, the parent materialises each
distinct workload *once* into a POSIX shared-memory segment (oracle
included) and ships only a tiny handle.  Workers attach read-only,
zero-copy.

This benchmark times the same logical (probes × workload seeds) grid on
``G(n, sqrt(n)/n)`` — the paper's sparse regime — over three transports:

* ``factory_pickle`` — today's default cells: a generator factory per
  cell, every worker rebuilds graph + oracle per distinct workload,
* ``prebuilt_pickle`` — the whole warmed graph pickled into every cell
  (what naively avoiding the rebuild costs in transport bytes),
* ``shm`` — prebuilt cells on the shared-memory plane: one segment per
  workload, handle-sized cells, attach instead of rebuild.

The measured "algorithm" is a near-zero-cost probe that reads the
workload's triangle oracle, so the timings isolate workload setup and
transport — the costs the plane exists to remove; record byte-identity
across serial/pickle/shm is asserted before any timing counts.  Workload
materialisation is *inside* every timed region (workers pay it per
worker on the factory path, the parent pays it once on the shm path).
Set ``SWEEP_PLANE_QUICK=1`` (CI does) for a reduced-size run with a
relaxed bar.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from dataclasses import dataclass
from functools import partial
from typing import FrozenSet, List

from repro.analysis import experiments
from repro.analysis.experiments import (
    PrebuiltGraphFactory,
    SweepCell,
    SweepRunner,
)
from repro.congest.metrics import AlgorithmCost
from repro.core import TriangleOutput
from repro.graphs import Graph, gnp_random_graph

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("SWEEP_PLANE_QUICK", "") not in ("", "0")
NUM_NODES = 1200 if QUICK else 4000
#: The paper's sparse regime: expected degree sqrt(n).
EDGE_PROBABILITY = math.sqrt(NUM_NODES) / NUM_NODES
WORKLOAD_SEEDS = (1, 2, 3, 4)
PROBE_VARIANTS = ("probe-support", "probe-census", "probe-degree")
WORKERS = 3
#: Required speedup of the shm plane over the factory-pickle default.
REQUIRED_SPEEDUP = 1.3 if QUICK else 2.0
#: The shm plane must ship (essentially) no graph bytes per cell...
MAX_SHM_BYTES_PER_CELL = 16 * 1024
#: ...whereas pickling the prebuilt workload ships megabytes per cell.
MIN_PREBUILT_BYTES_PER_CELL = 1024 * 1024 if not QUICK else 128 * 1024


@dataclass(frozen=True)
class _ProbeResult:
    """Duck-typed algorithm result: just enough for ``run_single``."""

    algorithm: str
    model: str
    cost: AlgorithmCost
    truncated: bool
    triangles: FrozenSet[tuple]

    @property
    def output(self) -> TriangleOutput:
        return TriangleOutput({0: self.triangles})


@dataclass(frozen=True)
class ProbeAlgorithm:
    """Near-zero-cost sweep probe: report the workload's own oracle.

    Each variant derives a different deterministic cost vector from the
    oracle arrays, so the grid has distinguishable per-cell records while
    the only real work per cell is *reading* the workload — which is
    exactly what the bench wants to time the provisioning of.
    """

    variant: str

    def run(self, graph: Graph, seed: int) -> _ProbeResult:
        csr = graph.csr()
        support = csr.edge_support()
        triangles = frozenset(map(tuple, csr.triangles().tolist()))
        scale = 1 + PROBE_VARIANTS.index(self.variant)
        cost = AlgorithmCost(
            rounds=scale * (int(support.max()) if support.size else 0),
            messages=scale * graph.num_edges,
            bits=scale * len(triangles),
            max_bits_received=scale * graph.max_degree(),
        )
        return _ProbeResult(
            algorithm=self.variant,
            model="CONGEST",
            cost=cost,
            truncated=False,
            triangles=triangles,
        )


def _factory_cells() -> List[SweepCell]:
    """The status-quo grid: generator factories, workers rebuild."""
    return [
        SweepCell(
            experiment="sweep-plane",
            algorithm_factory=partial(ProbeAlgorithm, variant),
            graph_factory=partial(gnp_random_graph, NUM_NODES, EDGE_PROBABILITY),
            seed=seed,
        )
        for seed in WORKLOAD_SEEDS
        for variant in PROBE_VARIANTS
    ]


def _prebuilt_cells() -> List[SweepCell]:
    """The same grid with every workload built and warmed up front.

    Building is part of the measured cost of this path — it is what the
    factory path makes every *worker* repeat — so this runs inside the
    timed region.
    """
    cells = []
    for seed in WORKLOAD_SEEDS:
        graph = gnp_random_graph(NUM_NODES, EDGE_PROBABILITY, seed)
        graph.csr().edge_support()
        graph.csr().triangles()
        for variant in PROBE_VARIANTS:
            cells.append(
                SweepCell(
                    experiment="sweep-plane",
                    algorithm_factory=partial(ProbeAlgorithm, variant),
                    graph_factory=PrebuiltGraphFactory(graph),
                    seed=seed,
                )
            )
    return cells


def _warmup_cells() -> List[SweepCell]:
    """A tiny throwaway grid that spins the worker pool up before timing.

    Deliberately a *different* workload from the measured grid, so the
    warmup cannot pre-populate worker-side workload caches with the
    graphs the factory path is being timed on rebuilding.
    """
    return [
        SweepCell(
            experiment="sweep-plane-warmup",
            algorithm_factory=partial(ProbeAlgorithm, PROBE_VARIANTS[0]),
            graph_factory=partial(gnp_random_graph, 60, 0.3),
            seed=seed,
        )
        for seed in (101, 102)
    ]


def _record_keys(records) -> List[bytes]:
    return [pickle.dumps(record, protocol=4) for record in records]


def test_sweep_plane_speedup(benchmark, monkeypatch):
    """shm plane ≥2x over factory-pickle, at handle-sized cell payloads."""

    def compare():
        timings = {}
        planes = {}
        keys = {}
        # The parallel paths run before the serial reference: worker pools
        # fork from this process, so running the reference first would
        # hand every worker a pre-warmed workload cache and erase exactly
        # the rebuild cost the factory path is being timed on.
        with monkeypatch.context() as patch:
            # The pickle legs see shared memory as unusable, the path
            # platforms without it take.
            patch.setattr(experiments, "shm_available", lambda: False)
            with SweepRunner(max_workers=WORKERS) as runner:
                runner.run_cells(_warmup_cells())
                start = time.perf_counter()
                records = runner.run_cells(_factory_cells())
                timings["factory_pickle"] = time.perf_counter() - start
                planes["factory_pickle"] = dict(runner.last_plane)
                keys["factory_pickle"] = _record_keys(records)

            with SweepRunner(max_workers=WORKERS) as runner:
                runner.run_cells(_warmup_cells())
                start = time.perf_counter()
                records = runner.run_cells(_prebuilt_cells())
                timings["prebuilt_pickle"] = time.perf_counter() - start
                planes["prebuilt_pickle"] = dict(runner.last_plane)
                keys["prebuilt_pickle"] = _record_keys(records)

        with SweepRunner(max_workers=WORKERS) as runner:
            runner.run_cells(_warmup_cells())
            start = time.perf_counter()
            records = runner.run_cells(_prebuilt_cells())
            timings["shm"] = time.perf_counter() - start
            planes["shm"] = dict(runner.last_plane)
            keys["shm"] = _record_keys(records)

        # -- byte-identity: every transport must agree with a serial run.
        reference = _record_keys(SweepRunner().run_cells(_factory_cells()))
        for path, path_keys in keys.items():
            assert path_keys == reference, f"{path} records diverge from serial"

        return timings, planes

    timings, planes = run_once(benchmark, compare)
    speedup = timings["factory_pickle"] / timings["shm"]
    shm_bytes = planes["shm"]["pickled_bytes_per_cell"]
    prebuilt_bytes = planes["prebuilt_pickle"]["pickled_bytes_per_cell"]

    table = "\n".join(
        [
            f"sweep-plane benchmark (n={NUM_NODES}, p=sqrt(n)/n, "
            f"{len(WORKLOAD_SEEDS)} workloads x {len(PROBE_VARIANTS)} probes, "
            f"workers={WORKERS}, quick={QUICK})",
            f"  factory-pickle sweep:   {timings['factory_pickle']:.2f} s "
            f"({planes['factory_pickle']['pickled_bytes_per_cell']:.0f} B/cell)",
            f"  prebuilt-pickle sweep:  {timings['prebuilt_pickle']:.2f} s "
            f"({prebuilt_bytes:.0f} B/cell)",
            f"  shm sweep:              {timings['shm']:.2f} s "
            f"({shm_bytes:.0f} B/cell, "
            f"{planes['shm']['workloads_shared']} segments)",
            f"  speedup:                {speedup:.2f}x (required ≥{REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("sweep_plane", table)
    record_json(
        "sweep_plane",
        {
            "benchmark": "sweep_plane",
            "quick": QUICK,
            "num_nodes": NUM_NODES,
            "edge_probability": EDGE_PROBABILITY,
            "workloads": len(WORKLOAD_SEEDS),
            "cells": len(WORKLOAD_SEEDS) * len(PROBE_VARIANTS),
            "workers": WORKERS,
            "factory_pickle_seconds": timings["factory_pickle"],
            "prebuilt_pickle_seconds": timings["prebuilt_pickle"],
            "shm_seconds": timings["shm"],
            "factory_pickle_bytes_per_cell": planes["factory_pickle"][
                "pickled_bytes_per_cell"
            ],
            "prebuilt_pickle_bytes_per_cell": prebuilt_bytes,
            "shm_bytes_per_cell": shm_bytes,
            "workloads_shared": planes["shm"]["workloads_shared"],
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert planes["factory_pickle"]["plane"] == "pickle", planes["factory_pickle"]
    assert planes["prebuilt_pickle"]["plane"] == "pickle", planes["prebuilt_pickle"]
    assert planes["shm"]["plane"] == "shm", planes["shm"]
    assert shm_bytes < MAX_SHM_BYTES_PER_CELL, table
    assert prebuilt_bytes > MIN_PREBUILT_BYTES_PER_CELL, table
    assert speedup >= REQUIRED_SPEEDUP, table
