"""Experiment S-THM1: scaling of Theorem-1 triangle finding with n.

Sweeps the network size up to **10 000 nodes**, measures the round
complexity of one (A1, A3) finding pass, and compares the measured curve
against the Theorem-1 reference bound ``n^{2/3} (log n)^{2/3}``.

The workload follows a ``√n`` **degree schedule**: ``G(n, p(n))`` with
``p(n) = min(1/2, √n / n)``, i.e. expected degree ``√n``.  Dense ``p = 1/2``
graphs are quadratic in memory and make n=10k sweeps infeasible, while a
constant-degree schedule starves the protocols of triangles; ``d(n) = √n``
keeps the expected per-edge triangle support ``≈ d²/n = Θ(1)``, so every
size has work to do and the asymptotic shape of the round curve is visible.
(The fitted exponent on this schedule is *below* the reference ``2/3`` —
the bound is a worst-case upper bound, and these sweeps only assert the
measured curve stays under it.)

The sweep grid is declared as :class:`repro.api.RunSpec` documents (one per
size) resolved through the algorithm/workload registries and runs on
:class:`repro.analysis.SweepRunner`.  Every cell runs under the fixed
chunk bound of :mod:`repro.congest.backends`; the records do not depend
on it (``tests/core/test_backends.py`` pins that).

Set ``SCALING_QUICK=1`` (CI does) to drop the two largest sizes.

Shape criteria (what "reproducing the result" means at simulator scale):

* every run is sound and solves the finding problem,
* the measured cost stays below the reference bound times a fixed constant
  across the whole sweep (the bound is an upper bound, and the constant,
  once calibrated, is size-independent),
* the measured cost must not grow faster than the naive baseline's
  ``d_max``-driven cost on the same workloads.
"""

from __future__ import annotations

import math
import os
import time
from typing import List

from repro.analysis import SweepRunner, fit_power_law, render_scaling_table
from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec
from repro.core import finding_epsilon_asymptotic, theorem1_round_bound

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("SCALING_QUICK", "") not in ("", "0")
SIZES = [600, 1500] if QUICK else [600, 1500, 4000, 10000]
#: Calibrated once on the smallest size and then held fixed: the measured
#: cost divided by the reference bound must not grow with n.
SHAPE_CONSTANT = 6.0
#: Worker processes for the sweep grid.
SWEEP_WORKERS = min(4, os.cpu_count() or 1)

FINDING_ALGORITHM = AlgorithmSpec(
    "theorem1-finding",
    {
        "repetitions": 1,
        "epsilon": finding_epsilon_asymptotic(),
    },
)
NAIVE_ALGORITHM = AlgorithmSpec("naive-two-hop")


def edge_probability(num_nodes: int) -> float:
    """The √n degree schedule: ``p(n) = min(1/2, √n / n)``."""
    return min(0.5, math.sqrt(num_nodes) / num_nodes)


def _workload_spec(num_nodes: int) -> WorkloadSpec:
    """The fixed-per-size workload (the cell seed drives the algorithm).

    Pinning ``seed`` inside the workload parameters holds the graph fixed
    per size while the cell seed still drives the algorithm's coins.
    """
    return WorkloadSpec(
        "gnp",
        {
            "num_nodes": num_nodes,
            "edge_probability": edge_probability(num_nodes),
            "seed": 1000 + num_nodes,
        },
    )


def _workload(num_nodes: int, _seed: int = 0):
    return _workload_spec(num_nodes).build()


def _sweep_cells(experiment: str, algorithm: AlgorithmSpec) -> List[RunSpec]:
    return [
        RunSpec(
            algorithm=algorithm,
            workload=_workload_spec(num_nodes),
            seed=num_nodes,
            experiment=experiment,
        )
        for num_nodes in SIZES
    ]


def test_finding_scaling_against_theorem1_bound(benchmark):
    """S-THM1: measured finding rounds vs the Theorem-1 reference curve."""

    def sweep():
        start = time.perf_counter()
        with SweepRunner(max_workers=SWEEP_WORKERS) as runner:
            finding_records = runner.run_cells(
                _sweep_cells("S-THM1", FINDING_ALGORITHM)
            )
            naive_records = runner.run_cells(
                _sweep_cells("S-THM1-naive", NAIVE_ALGORITHM)
            )
        return finding_records, naive_records, time.perf_counter() - start

    finding_records, naive_records, sweep_seconds = run_once(benchmark, sweep)
    for record in finding_records:
        assert record.sound
        assert record.solves_finding
    measured = [record.rounds for record in finding_records]
    baseline = [record.rounds for record in naive_records]
    reference = [theorem1_round_bound(n) for n in SIZES]

    fit = fit_power_law([float(n) for n in SIZES], [float(r) for r in measured])
    table = render_scaling_table(
        "S-THM1: Theorem 1 finding on G(n, √n/n) "
        f"(√n degree schedule, quick={QUICK}), 1 repetition",
        SIZES,
        [float(r) for r in measured],
        reference,
        fit=fit,
        expected_exponent=2.0 / 3.0,
    )
    record_table("finding_scaling", table, quick=QUICK)
    record_json(
        "finding_scaling",
        {
            "benchmark": "finding_scaling",
            "quick": QUICK,
            "sizes": SIZES,
            "edge_probabilities": [edge_probability(n) for n in SIZES],
            "measured_rounds": [float(r) for r in measured],
            "naive_baseline_rounds": [float(r) for r in baseline],
            "reference_bound": reference,
            "fit_exponent": fit.exponent,
            "expected_exponent": 2.0 / 3.0,
            "sweep_seconds": sweep_seconds,
        },
    )

    # Upper-bound shape: measured / reference stays below a fixed constant.
    for rounds, bound in zip(measured, reference):
        assert rounds <= SHAPE_CONSTANT * bound

    # The algorithm's cost must not grow faster than the naive baseline's
    # d_max-driven cost: the ratio measured/naive must not increase from the
    # smallest to the largest size by more than measurement noise.
    first_ratio = measured[0] / baseline[0]
    last_ratio = measured[-1] / baseline[-1]
    assert last_ratio <= first_ratio * 1.6


def test_finding_cost_grows_with_size(benchmark):
    """Monotonicity sanity: more nodes cannot make the measured cost collapse."""
    # The endpoint pair re-runs outside the sweep, so the large size is
    # capped at 4000 to keep this sanity check a small fraction of the
    # sweep's budget (the 10k point is covered by the sweep itself).
    large_size = min(SIZES[-1], 4000)

    def endpoints():
        small = FINDING_ALGORITHM.build().run(_workload(SIZES[0]), seed=7)
        large = FINDING_ALGORITHM.build().run(_workload(large_size), seed=7)
        return small.rounds, large.rounds

    small_rounds, large_rounds = run_once(benchmark, endpoints)
    assert large_rounds > small_rounds
