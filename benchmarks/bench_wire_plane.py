"""Benchmark: batched phase kernels + typed wire plane vs reference closures.

The typed wire-schema refactor moved message *production* onto the columnar
payload plane: A2 evaluates every node's 3-wise hash over the CSR neighbour
rows as one array program and ships its filtered edge batches as typed
column blocks, A3 runs its landmark/withholding phases the same way, and
receivers read ``exchange_phase(...).channel(schema)`` arrays instead of
decoding object payloads.  This benchmark demonstrates the end-to-end
payoff on a full Theorem-2 listing pass (A2 ∘ A3) on a
dense ``G(n, 1/2)`` instance with n ≥ 300 — against the per-node reference
closures, which remain the semantic ground truth.

ε is pinned inside the paper's analysis regime: the Theorem-2 formula
``n^ε = √n/(log n)²`` only rises above 1 for n ≈ 65,000+, and below that it
degrades A2's hash range to a single bucket (every edge ships everywhere),
which benchmarks the output model rather than the protocols.

Both kernels must agree exactly — same round count, same per-phase
link-bit maxima, same triangle output — before the timing is considered
meaningful; the assertion repeats the differential suite's check at
benchmark scale.  The acceptance bar is a ≥3x end-to-end speedup at full
size.  Set ``WIRE_PLANE_QUICK=1`` (CI does) for a reduced-size run with a
relaxed ≥2x bar.
"""

from __future__ import annotations

import os
import time

from repro.core import TriangleListing
from repro.graphs import gnp_random_graph

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("WIRE_PLANE_QUICK", "") not in ("", "0")
NUM_NODES = 140 if QUICK else 300
EDGE_PROBABILITY = 0.5
EPSILON = 0.6
SEED = 7
#: Required end-to-end speedup of the batched kernels over the closures.
REQUIRED_SPEEDUP = 2.0 if QUICK else 3.0


def test_wire_plane_speedup(benchmark):
    """Theorem-2 listing: batched kernels must beat the closures ≥3x."""
    graph = gnp_random_graph(NUM_NODES, EDGE_PROBABILITY, seed=42)

    def compare():
        timings = {}
        results = {}
        for kernel in ("batched", "reference"):
            algorithm = TriangleListing(
                repetitions=1, epsilon=EPSILON, kernel=kernel
            )
            start = time.perf_counter()
            results[kernel] = algorithm.run(graph, seed=SEED)
            timings[kernel] = time.perf_counter() - start
        return timings, results

    timings, results = run_once(benchmark, compare)
    batched, reference = results["batched"], results["reference"]

    # The physics must be identical before the timing means anything.
    assert batched.cost == reference.cost
    assert batched.output.union() == reference.output.union()
    batched_phases = [
        (phase.name, phase.rounds, phase.max_link_bits, phase.bits)
        for phase in batched.metrics.phases
    ]
    reference_phases = [
        (phase.name, phase.rounds, phase.max_link_bits, phase.bits)
        for phase in reference.metrics.phases
    ]
    assert batched_phases == reference_phases

    speedup = timings["reference"] / timings["batched"]
    table = "\n".join(
        [
            f"wire-plane benchmark (n={NUM_NODES}, p={EDGE_PROBABILITY}, "
            f"eps={EPSILON}, quick={QUICK})",
            f"  rounds (both kernels):  {batched.cost.rounds}",
            f"  messages per run:       {batched.cost.messages}",
            f"  triangles listed:       {len(batched.output.union())}",
            f"  reference closures:     {timings['reference']:.2f} s",
            f"  batched kernels:        {timings['batched']:.2f} s",
            f"  speedup:                {speedup:.2f}x "
            f"(required ≥{REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("wire_plane", table, quick=QUICK)
    record_json(
        "wire_plane",
        {
            "benchmark": "wire_plane",
            "quick": QUICK,
            "num_nodes": NUM_NODES,
            "edge_probability": EDGE_PROBABILITY,
            "epsilon": EPSILON,
            "seed": SEED,
            "rounds": batched.cost.rounds,
            "messages": batched.cost.messages,
            "bits": batched.cost.bits,
            "triangles": len(batched.output.union()),
            "reference_seconds": timings["reference"],
            "batched_seconds": timings["batched"],
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, table
