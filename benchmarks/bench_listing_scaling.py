"""Experiment S-THM2: scaling of Theorem-2 triangle listing with n.

Sweeps the network size up to **10 000 nodes**, measures the round
complexity of one (A2, A3) listing pass, and compares the measured curve
against the Theorem-2 reference bound ``n^{3/4} log n``.

The workload follows the same ``√n`` degree schedule as S-THM1:
``G(n, p(n))`` with ``p(n) = min(1/2, √n / n)``, keeping the expected
per-edge triangle support ``≈ d²/n = Θ(1)`` so every size both has
triangles to list and stays tractable at n=10k (a dense ``p = 1/2``
workload is quadratic in memory and infeasible at that size).  On this
schedule every edge is light, so A3 carries the listing and per-pass
recall is expected to sit at (not just near) 1.0.

The sweep grid is declared as :class:`repro.api.RunSpec` documents resolved
through the algorithm/workload registries and runs on
:class:`repro.analysis.SweepRunner`.  Every cell runs under the fixed
chunk bound of :mod:`repro.congest.backends`, which changes no record
(``tests/core/test_backends.py`` pins that).  Set ``SCALING_QUICK=1`` (CI
does) to drop the two largest sizes.

A single pass is measured (rather than the full ``⌈c log n⌉`` repetitions)
so that the per-pass shape is visible; the repetition factor is a known
multiplicative ``log n`` recorded separately in the table-1 benchmark.

Shape criteria:

* every run is sound; across the sweep the per-pass recall stays high
  (the guarantee is per-triangle-constant-probability, so per-pass recall
  well above 1/2 is the expected behaviour, not certainty),
* the measured cost stays below the reference bound times a fixed constant,
* listing costs at least as much as finding at every size (listing is the
  harder problem).
"""

from __future__ import annotations

import math
import os
import time
from typing import List

from repro.analysis import SweepRunner, fit_power_law, render_scaling_table
from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec
from repro.core import (
    finding_epsilon_asymptotic,
    listing_epsilon_asymptotic,
    theorem2_round_bound,
)

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("SCALING_QUICK", "") not in ("", "0")
SIZES = [600, 1500] if QUICK else [600, 1500, 4000, 10000]
SHAPE_CONSTANT = 6.0
#: Worker processes for the sweep grid.
SWEEP_WORKERS = min(4, os.cpu_count() or 1)

LISTING_ALGORITHM = AlgorithmSpec(
    "theorem2-listing",
    {
        "repetitions": 1,
        "epsilon": listing_epsilon_asymptotic(),
    },
)
FINDING_ALGORITHM = AlgorithmSpec(
    "theorem1-finding",
    {
        "repetitions": 1,
        "epsilon": finding_epsilon_asymptotic(),
    },
)


def edge_probability(num_nodes: int) -> float:
    """The √n degree schedule: ``p(n) = min(1/2, √n / n)``."""
    return min(0.5, math.sqrt(num_nodes) / num_nodes)


def _workload_spec(num_nodes: int) -> WorkloadSpec:
    """The fixed-per-size workload (the cell seed drives the algorithm)."""
    return WorkloadSpec(
        "gnp",
        {
            "num_nodes": num_nodes,
            "edge_probability": edge_probability(num_nodes),
            "seed": 2000 + num_nodes,
        },
    )


def _workload(num_nodes: int, _seed: int = 0):
    return _workload_spec(num_nodes).build()


def _sweep_cells() -> List[RunSpec]:
    return [
        RunSpec(
            algorithm=LISTING_ALGORITHM,
            workload=_workload_spec(num_nodes),
            seed=num_nodes,
            experiment="S-THM2",
        )
        for num_nodes in SIZES
    ]


def test_listing_scaling_against_theorem2_bound(benchmark):
    """S-THM2: measured listing rounds vs the Theorem-2 reference curve."""

    def sweep():
        start = time.perf_counter()
        with SweepRunner(max_workers=SWEEP_WORKERS) as runner:
            return runner.run_cells(_sweep_cells()), time.perf_counter() - start

    records, sweep_seconds = run_once(benchmark, sweep)
    for record in records:
        assert record.sound
    measured = [float(record.rounds) for record in records]
    recalls = [record.recall for record in records]
    reference = [theorem2_round_bound(n) for n in SIZES]

    fit = fit_power_law([float(n) for n in SIZES], measured)
    table = render_scaling_table(
        "S-THM2: Theorem 2 listing on G(n, √n/n) "
        f"(√n degree schedule, quick={QUICK}), 1 repetition "
        f"(per-pass recalls: {', '.join(f'{r:.2f}' for r in recalls)})",
        SIZES,
        measured,
        reference,
        fit=fit,
        expected_exponent=3.0 / 4.0,
    )
    record_table("listing_scaling", table)
    record_json(
        "listing_scaling",
        {
            "benchmark": "listing_scaling",
            "quick": QUICK,
            "sizes": SIZES,
            "edge_probabilities": [edge_probability(n) for n in SIZES],
            "measured_rounds": measured,
            "reference_bound": reference,
            "recalls": recalls,
            "fit_exponent": fit.exponent,
            "expected_exponent": 3.0 / 4.0,
            "sweep_seconds": sweep_seconds,
        },
    )

    for rounds, bound in zip(measured, reference):
        assert rounds <= SHAPE_CONSTANT * bound
    assert min(recalls) >= 0.5
    assert sum(recalls) / len(recalls) >= 0.9


def test_listing_costs_at_least_finding(benchmark):
    """Listing is the harder problem: per-pass cost dominates finding's."""
    # Endpoint re-runs outside the sweep: cap the large size at 4000 so the
    # comparison stays a fraction of the sweep budget (the 10k point's cost
    # is already measured by the sweep itself).
    compare_sizes = (SIZES[0], min(SIZES[-1], 4000))

    def compare():
        pairs = []
        for num_nodes in compare_sizes:
            graph = _workload(num_nodes)
            listing = LISTING_ALGORITHM.build().run(graph, seed=3)
            finding = FINDING_ALGORITHM.build().run(graph, seed=3)
            pairs.append((listing.rounds, finding.rounds))
        return pairs

    pairs = run_once(benchmark, compare)
    for listing_rounds, finding_rounds in pairs:
        assert listing_rounds >= 0.8 * finding_rounds


def test_full_listing_recall_with_amplification(benchmark):
    """With the paper's ⌈log n⌉ repetitions the listing recall reaches 1.0."""

    def amplified():
        graph = _workload(SIZES[0])
        result = AlgorithmSpec(
            "theorem2-listing",
            {"epsilon": listing_epsilon_asymptotic()},
        ).build().run(graph, seed=9)
        return result.listing_recall(graph), result.rounds

    recall, _ = run_once(benchmark, amplified)
    assert recall == 1.0
