"""Microbenchmark: incremental triangle oracle vs recompute-per-batch.

The dynamic-graph layer (:mod:`repro.dynamic`) answers triangle queries
against a stream of edge batches.  The naive serving loop rebuilds the CSR
substrate and reruns the full oracle (global count, per-node counts,
``edge_support``) after every batch — O(Σ_e |N(u) ∩ N(v)|) each time,
regardless of how small the batch was.  The
:class:`~repro.dynamic.IncrementalTriangleOracle` instead walks only the
triangles containing a batch edge, O(Σ deg(endpoint)) per batch.

This benchmark plays the same deterministic batch sequence (mixed inserts
and deletes from a seeded rng) through both paths on the ISSUE's workload —
``G(n, p)`` at n=4000 — asserts they agree *exactly* after every batch,
and requires the incremental path to win by ≥10x on total batch-update
wall-clock.  Set ``INCREMENTAL_QUICK=1`` (CI does) for a reduced-size run
with a relaxed bar.  The initial index build is identical work on both
sides (one full oracle pass) and is excluded from the timed region: the
quantity under test is steady-state update throughput.

A second case measures the overlay at steady state: the six batches above
start from an empty overlay, so they never see what a grown one costs.  It
warms the oracle with ``STEADY_WARM_BATCHES`` batches (an overlay of about
3,000 keys, below the default compaction threshold of 4096), then times
the next ``STEADY_TIMED_BATCHES`` against recompute-per-batch, gated at
≥50x at full size and ≥5x in quick mode.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.dynamic import IncrementalTriangleOracle
from repro.graphs import Graph, gnp_random_graph

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("INCREMENTAL_QUICK", "") not in ("", "0")
NUM_NODES = 1000 if QUICK else 4000
#: Average degree ~n*p: sparse enough to stream, dense enough that the
#: full oracle pass is real work.
EDGE_PROBABILITY = 0.02 if QUICK else 0.01
NUM_BATCHES = 6
INSERTS_PER_BATCH = 60
DELETES_PER_BATCH = 40
#: Required speedup of batch updates over full recomputation per batch.
REQUIRED_SPEEDUP = 5.0 if QUICK else 10.0
SEED = 2017
#: Steady-state case: batches applied untimed, then batches timed.
STEADY_WARM_BATCHES = 30
STEADY_TIMED_BATCHES = 10
STEADY_REQUIRED_SPEEDUP = 5.0 if QUICK else 50.0


def _build_batches(graph, rng, num_batches=NUM_BATCHES):
    """A deterministic mixed insert/delete batch sequence.

    Deletes are drawn from the edges live at that point in the stream;
    inserts are drawn from the complement.  The evolving edge set is
    tracked here so every request is effective (no-op filtering is not
    what this benchmark measures).
    """
    edges = set(graph.edges())
    batches = []
    for _ in range(num_batches):
        live = sorted(edges)
        picks = rng.choice(len(live), size=DELETES_PER_BATCH, replace=False)
        delete = [live[int(i)] for i in picks]
        insert = []
        while len(insert) < INSERTS_PER_BATCH:
            u, v = (int(x) for x in rng.integers(0, NUM_NODES, size=2))
            if u == v:
                continue
            edge = (u, v) if u < v else (v, u)
            if edge in edges or edge in insert:
                continue
            insert.append(edge)
        edges -= set(delete)
        edges |= set(insert)
        batches.append((insert, delete))
    return batches


def _full_recompute(num_nodes, edges):
    """The naive serving loop's per-batch work: rebuild and rerun the oracle."""
    csr = Graph(num_nodes, sorted(edges)).csr()
    support = csr.edge_support()
    keys = csr._edge_key_array()
    return (
        csr.count_triangles(),
        csr.local_triangle_counts(),
        dict(zip(keys.tolist(), support.tolist())),
    )


def test_incremental_batch_update_speedup(benchmark):
    """Batched updates must beat recompute-per-batch ≥10x at full size."""
    graph = gnp_random_graph(NUM_NODES, EDGE_PROBABILITY, seed=SEED)
    batches = _build_batches(graph, np.random.default_rng(SEED))

    def compare():
        # Incremental path: seed the indexes once (untimed — both sides
        # start from the same fully-built oracle state), then stream.
        oracle = IncrementalTriangleOracle(graph)
        incremental_totals = []
        start = time.perf_counter()
        for insert, delete in batches:
            delta = oracle.apply_batch(insert=insert, delete=delete)
            incremental_totals.append(delta.triangles_after)
        incremental_seconds = time.perf_counter() - start

        # Recompute path: rebuild the substrate and rerun the full oracle
        # after every batch.  The evolving edge set is maintained outside
        # the timed region on both sides.
        edge_sets = []
        edges = set(graph.edges())
        for insert, delete in batches:
            edges = (edges - set(delete)) | set(insert)
            edge_sets.append(frozenset(edges))
        recompute_results = []
        start = time.perf_counter()
        for snapshot_edges in edge_sets:
            recompute_results.append(_full_recompute(NUM_NODES, snapshot_edges))
        recompute_seconds = time.perf_counter() - start

        # Exact agreement after every batch, or the timing means nothing.
        for step, (total, node_counts, support) in enumerate(recompute_results):
            assert incremental_totals[step] == total, f"batch {step}: total diverged"
        assert oracle.total_triangles == recompute_results[-1][0]
        final_counts = oracle.node_counts()
        assert np.array_equal(final_counts, recompute_results[-1][1])
        n = max(NUM_NODES, 1)
        recompute_support = {
            (key // n, key % n): value
            for key, value in recompute_results[-1][2].items()
        }
        assert oracle.support_map() == recompute_support
        return incremental_totals[-1], incremental_seconds, recompute_seconds

    triangles, incremental_seconds, recompute_seconds = run_once(benchmark, compare)
    speedup = recompute_seconds / incremental_seconds

    table = "\n".join(
        [
            f"incremental-oracle microbenchmark (n={NUM_NODES}, "
            f"p={EDGE_PROBABILITY}, batches={NUM_BATCHES}, quick={QUICK})",
            f"  final triangles:        {triangles}",
            f"  recompute per batch:    {recompute_seconds * 1000:.1f} ms",
            f"  incremental updates:    {incremental_seconds * 1000:.1f} ms",
            f"  speedup:                {speedup:.2f}x (required ≥{REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("incremental", table, quick=QUICK)
    record_json(
        "incremental",
        {
            "benchmark": "incremental",
            "quick": QUICK,
            "num_nodes": NUM_NODES,
            "edge_probability": EDGE_PROBABILITY,
            "num_batches": NUM_BATCHES,
            "inserts_per_batch": INSERTS_PER_BATCH,
            "deletes_per_batch": DELETES_PER_BATCH,
            "final_triangles": triangles,
            "recompute_seconds": recompute_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, table


def test_incremental_steady_state_speedup(benchmark):
    """With a warm overlay of ~3,000 keys, batched updates must still beat
    recompute-per-batch ≥50x at full size."""
    graph = gnp_random_graph(NUM_NODES, EDGE_PROBABILITY, seed=SEED)
    batches = _build_batches(
        graph, np.random.default_rng(SEED), STEADY_WARM_BATCHES + STEADY_TIMED_BATCHES
    )
    warm, timed = batches[:STEADY_WARM_BATCHES], batches[STEADY_WARM_BATCHES:]

    def compare():
        oracle = IncrementalTriangleOracle(graph)
        edges = set(graph.edges())
        for insert, delete in warm:
            oracle.apply_batch(insert=insert, delete=delete)
            edges = (edges - set(delete)) | set(insert)
        overlay = oracle.snapshot.overlay_size
        incremental_totals = []
        start = time.perf_counter()
        for insert, delete in timed:
            delta = oracle.apply_batch(insert=insert, delete=delete)
            incremental_totals.append(delta.triangles_after)
        incremental_seconds = time.perf_counter() - start
        assert oracle.graph.compactions == 0, "the timed batches must not compact"

        edge_sets = []
        for insert, delete in timed:
            edges = (edges - set(delete)) | set(insert)
            edge_sets.append(frozenset(edges))
        recompute_results = []
        start = time.perf_counter()
        for snapshot_edges in edge_sets:
            recompute_results.append(_full_recompute(NUM_NODES, snapshot_edges))
        recompute_seconds = time.perf_counter() - start

        for step, (total, _, _) in enumerate(recompute_results):
            assert incremental_totals[step] == total, f"timed batch {step}: total diverged"
        assert np.array_equal(oracle.node_counts(), recompute_results[-1][1])
        n = max(NUM_NODES, 1)
        assert oracle.support_map() == {
            (key // n, key % n): value for key, value in recompute_results[-1][2].items()
        }
        return incremental_totals[-1], overlay, incremental_seconds, recompute_seconds

    triangles, overlay, incremental_seconds, recompute_seconds = run_once(benchmark, compare)
    speedup = recompute_seconds / incremental_seconds
    per_batch = 1000 / STEADY_TIMED_BATCHES

    table = "\n".join(
        [
            f"incremental-oracle steady state (n={NUM_NODES}, p={EDGE_PROBABILITY}, "
            f"warm={STEADY_WARM_BATCHES}, timed={STEADY_TIMED_BATCHES}, quick={QUICK})",
            f"  overlay after warm-up:  {overlay} keys",
            f"  final triangles:        {triangles}",
            f"  recompute per batch:    {recompute_seconds * per_batch:.1f} ms/batch",
            f"  incremental updates:    {incremental_seconds * per_batch:.2f} ms/batch",
            f"  speedup:                {speedup:.2f}x (required ≥{STEADY_REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("incremental_steady", table, quick=QUICK)
    record_json(
        "incremental_steady",
        {
            "benchmark": "incremental_steady",
            "quick": QUICK,
            "num_nodes": NUM_NODES,
            "edge_probability": EDGE_PROBABILITY,
            "warm_batches": STEADY_WARM_BATCHES,
            "timed_batches": STEADY_TIMED_BATCHES,
            "inserts_per_batch": INSERTS_PER_BATCH,
            "deletes_per_batch": DELETES_PER_BATCH,
            "overlay_keys": overlay,
            "final_triangles": triangles,
            "recompute_seconds": recompute_seconds,
            "incremental_seconds": incremental_seconds,
            "speedup": speedup,
            "required_speedup": STEADY_REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= STEADY_REQUIRED_SPEEDUP, table
