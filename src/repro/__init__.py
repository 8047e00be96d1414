"""repro — reproduction of *Triangle Finding and Listing in CONGEST Networks*.

This package implements, from scratch, the algorithms, substrates and
experiments of Izumi & Le Gall (PODC 2017):

* :mod:`repro.graphs` — graph representation, synthetic workload generators
  and centralized triangle ground truth,
* :mod:`repro.hashing` — 3-wise independent hash families (Wegman–Carter),
* :mod:`repro.congest` — round-accurate CONGEST and CONGEST-clique
  simulators,
* :mod:`repro.core` — the paper's algorithms (A1, A2, A3, Theorem 1 finding,
  Theorem 2 listing), the baselines and the lower-bound accounting,
* :mod:`repro.analysis` — complexity predictions, output verification, the
  experiment harness and the Table-1 renderer,
* :mod:`repro.api` — the declarative front door: algorithm/workload
  registries, JSON run/sweep specs, the JSONL experiment store, and the
  ``repro`` command line (``python -m repro``),
* :mod:`repro.service` — the persistent worker-fleet experiment
  service: a dispatcher that leases sweep cells to long-lived warm
  worker processes (``repro serve`` / ``submit`` / ``status``).

Quickstart::

    from repro.graphs import gnp_random_graph
    from repro.core import TriangleListing

    graph = gnp_random_graph(60, 0.3, seed=7)
    result = TriangleListing().run(graph, seed=7)
    print(result.summary())
    print(f"recall = {result.listing_recall(graph):.2f}")

or, declaratively (the same run, pinned by test to the constructor path)::

    from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec

    spec = RunSpec(
        algorithm=AlgorithmSpec("theorem2-listing"),
        workload=WorkloadSpec("gnp", {"num_nodes": 60, "edge_probability": 0.3}),
        seed=7,
    )
    print(spec.run())
"""

from ._version import __version__
from . import api
from . import dynamic
from . import service
from .errors import (
    AnalysisError,
    GraphError,
    HashingError,
    ProtocolError,
    ReproError,
    RoundLimitExceededError,
    ServiceError,
    SimulationError,
    TopologyError,
    VerificationError,
)
from .types import (
    Edge,
    NodeId,
    Triangle,
    edges_of_triangles,
    make_edge,
    make_triangle,
    triangle_edges,
)

__all__ = [
    "__version__",
    "api",
    "dynamic",
    "service",
    "AnalysisError",
    "GraphError",
    "HashingError",
    "ProtocolError",
    "ReproError",
    "RoundLimitExceededError",
    "ServiceError",
    "SimulationError",
    "TopologyError",
    "VerificationError",
    "Edge",
    "NodeId",
    "Triangle",
    "edges_of_triangles",
    "make_edge",
    "make_triangle",
    "triangle_edges",
]
