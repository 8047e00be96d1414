"""Microbenchmark: vectorized CSR triangle oracle vs the seed set loops.

The CSR-substrate refactor (:mod:`repro.graphs.csr`) moved the centralized
ground-truth oracle off pure-Python set intersections onto array
reductions: per-edge supports are packed-bitset AND + popcount passes on
dense instances (sorted-row merges on sparse ones), and triangle counting
is one reduction over the supports.  This benchmark demonstrates the payoff
on the workload the ISSUE names — a 2,000-node dense ``G(n, p)`` instance —
against the seed implementation's set-intersection forward enumeration,
which survives verbatim as :func:`repro.graphs.triangles.iter_triangles_reference`.

The acceptance bar is a ≥10x oracle speedup at full size.  The CSR path is
timed best-of-``REPEATS`` on a fresh view each time (the cached support
array would otherwise make repeats free); the reference loop is timed once
(it is the slow side — repeating it only burns minutes).  Set
``GRAPH_ORACLE_QUICK=1`` (CI does) for a reduced-size run with a relaxed
bar, so perf regressions stay visible in PRs without burning minutes.

A second case covers the sparse side of the oracle, where ``has_edges``
probes a packed adjacency bitset and triangles come from windowed
forward-wedge closure: ``G(n, √n/n)`` (``n = 3000``, the Theorem-1
benchmark regime; ``n = 1200`` in quick mode, the smallest round size
above ``n = 1024``, where this density leaves the dense path), timing
``triangles()`` plus ``edge_support()`` on a fresh view against the
reference enumeration, gated at ≥5x in both modes.
"""

from __future__ import annotations

import math
import os
import time

from repro.graphs import gnp_random_graph
from repro.graphs.csr import CSRGraph
from repro.graphs.triangles import iter_triangles_reference

from _bench_utils import record_json, record_table, run_once

QUICK = os.environ.get("GRAPH_ORACLE_QUICK", "") not in ("", "0")
NUM_NODES = 500 if QUICK else 2000
EDGE_PROBABILITY = 0.25
#: Required speedup of the CSR oracle over the seed set-intersection loop.
REQUIRED_SPEEDUP = 5.0 if QUICK else 10.0
#: Timing repetitions for the CSR path; the minimum is compared.
REPEATS = 3
#: The sparse case: G(n, √n/n), and its required speedup in both modes.
SPARSE_NUM_NODES = 1200 if QUICK else 3000
SPARSE_REQUIRED_SPEEDUP = 5.0


def _seed_style_count(graph) -> int:
    """The seed ``count_triangles``: drain the set-intersection enumeration."""
    return sum(1 for _ in iter_triangles_reference(graph))


def test_triangle_oracle_speedup(benchmark):
    """Dense G(n, p) ground truth: CSR oracle must beat the seed loop ≥10x."""
    graph = gnp_random_graph(NUM_NODES, EDGE_PROBABILITY, seed=42)

    def compare():
        csr_seconds = []
        csr_count = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            # A fresh CSR core per repeat: the support cache must not let
            # later repeats ride on the first one's reduction.
            view = CSRGraph.from_edge_arrays(graph.num_nodes, *graph.csr().edges_array())
            csr_count = view.count_triangles()
            csr_seconds.append(time.perf_counter() - start)

        start = time.perf_counter()
        seed_count = _seed_style_count(graph)
        seed_seconds = time.perf_counter() - start

        # Both oracles must agree on the ground truth before timing means
        # anything.
        assert csr_count == seed_count
        return csr_count, min(csr_seconds), seed_seconds

    count, csr_seconds, seed_seconds = run_once(benchmark, compare)
    speedup = seed_seconds / csr_seconds

    table = "\n".join(
        [
            f"triangle-oracle microbenchmark (n={NUM_NODES}, "
            f"p={EDGE_PROBABILITY}, quick={QUICK})",
            f"  triangles:              {count}",
            f"  seed set-intersection:  {seed_seconds * 1000:.1f} ms",
            f"  CSR vectorized oracle:  {csr_seconds * 1000:.1f} ms",
            f"  speedup:                {speedup:.2f}x (required ≥{REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("graph_oracle", table, quick=QUICK)
    record_json(
        "graph_oracle",
        {
            "benchmark": "graph_oracle",
            "quick": QUICK,
            "num_nodes": NUM_NODES,
            "edge_probability": EDGE_PROBABILITY,
            "triangles": count,
            "seed_seconds": seed_seconds,
            "csr_seconds": csr_seconds,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, table


def test_sparse_oracle_speedup(benchmark):
    """Sparse G(n, √n/n): bitset membership plus wedge closure must beat
    the reference enumeration ≥5x on triangles *and* per-edge supports."""
    probability = math.sqrt(SPARSE_NUM_NODES) / SPARSE_NUM_NODES
    graph = gnp_random_graph(SPARSE_NUM_NODES, probability, seed=42)

    def compare():
        csr_seconds = []
        for _ in range(REPEATS):
            # A fresh CSR core per repeat, built outside the timer: only the
            # oracle calls are timed.
            view = CSRGraph.from_edge_arrays(graph.num_nodes, *graph.csr().edges_array())
            start = time.perf_counter()
            triangles = view.triangles()
            supports = view.edge_support()
            csr_seconds.append(time.perf_counter() - start)
        assert not view._use_dense() and view._use_bitset()

        start = time.perf_counter()
        reference = list(iter_triangles_reference(graph))
        seed_seconds = time.perf_counter() - start

        assert [tuple(row) for row in triangles.tolist()] == reference
        assert int(supports.sum()) == 3 * len(reference)
        return len(reference), view.num_edges, min(csr_seconds), seed_seconds

    count, edges, csr_seconds, seed_seconds = run_once(benchmark, compare)
    speedup = seed_seconds / csr_seconds

    table = "\n".join(
        [
            f"sparse triangle-oracle microbenchmark (n={SPARSE_NUM_NODES}, "
            f"p=sqrt(n)/n, m={edges}, quick={QUICK})",
            f"  triangles:                      {count}",
            f"  reference enumeration:          {seed_seconds * 1000:.1f} ms",
            f"  CSR triangles + edge_support:   {csr_seconds * 1000:.1f} ms",
            f"  speedup:                        {speedup:.2f}x "
            f"(required ≥{SPARSE_REQUIRED_SPEEDUP}x)",
        ]
    )
    record_table("graph_oracle_sparse", table, quick=QUICK)
    record_json(
        "graph_oracle_sparse",
        {
            "benchmark": "graph_oracle_sparse",
            "quick": QUICK,
            "num_nodes": SPARSE_NUM_NODES,
            "num_edges": edges,
            "triangles": count,
            "seed_seconds": seed_seconds,
            "csr_seconds": csr_seconds,
            "speedup": speedup,
            "required_speedup": SPARSE_REQUIRED_SPEEDUP,
        },
    )
    assert speedup >= SPARSE_REQUIRED_SPEEDUP, table


def test_edge_support_matches_reference_on_sample(benchmark):
    """Spot-check: vectorized per-edge supports equal set-intersection counts."""
    graph = gnp_random_graph(200, 0.2, seed=7)

    def check():
        view = graph.csr()
        supports = view.edge_support()
        u_list = view.edge_u.tolist()
        v_list = view.edge_v.tolist()
        for index in range(0, len(u_list), 17):
            u, v = u_list[index], v_list[index]
            expected = len(graph.neighbors(u) & graph.neighbors(v))
            assert int(supports[index]) == expected
        return len(u_list)

    checked = run_once(benchmark, check)
    assert checked > 0
