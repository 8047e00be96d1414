"""Public front door: registries, declarative specs, records, store, CLI.

This package is the repository's layer-4 surface for *driving* the
reproduction without writing wiring code:

* :mod:`repro.api.registry` — named algorithms and workloads with
  parameter schemas (``list_algorithms`` / ``list_workloads``, the
  ``register_*`` decorators for extensions),
* :mod:`repro.api.specs` — frozen ``AlgorithmSpec`` / ``WorkloadSpec`` /
  ``RunSpec`` / ``SweepSpec`` documents that round-trip through JSON and
  resolve to the existing public constructors (zero behavior change:
  a spec-driven run is pinned by test to the direct-constructor run),
* :mod:`repro.api.records` — the durable record types and the canonical
  JSON encoding,
* :mod:`repro.api.store` — the append-only JSONL experiment store with
  interrupted-sweep resume, plus the content-addressed ``ResultCache``
  keyed by ``RunSpec.content_hash()``,
* :mod:`repro.api.cli` — the ``repro`` command line (``list`` / ``run``
  / ``sweep`` / ``cache`` / ``table1``).

Quickstart::

    from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec

    spec = RunSpec(
        algorithm=AlgorithmSpec("theorem2-listing", {"repetitions": 1}),
        workload=WorkloadSpec("gnp", {"num_nodes": 60, "edge_probability": 0.3}),
        seed=7,
    )
    record = spec.run()          # same result as TriangleListing(...).run(...)
    print(spec.to_json(indent=2))  # ... and the whole run is one JSON document
"""

from .records import (
    AlgorithmCost,
    CountingResult,
    ExecutionMetrics,
    ExperimentRecord,
    PhaseReport,
    VerificationReport,
    canonical_json,
)
from .registry import (
    AlgorithmEntry,
    ParameterSchema,
    WorkloadEntry,
    get_algorithm,
    get_workload,
    list_algorithms,
    list_workloads,
    register_algorithm,
    register_workload,
    unregister_algorithm,
    unregister_workload,
)
from .queries import (
    QUERY_SCHEMA_VERSION,
    QueryKind,
    QueryResult,
    QuerySpec,
    get_query_kind,
    list_query_kinds,
)
from .specs import (
    SPEC_SCHEMA_VERSION,
    AlgorithmSpec,
    RunSpec,
    SweepSpec,
    WorkloadSpec,
    load_spec,
)
from .store import (
    RecordStore,
    ResultCache,
    StoredSweep,
    SweepStoreWriter,
    load_sweep,
    run_sweep,
)
from .cli import build_parser, main

__all__ = [
    "AlgorithmCost",
    "CountingResult",
    "ExecutionMetrics",
    "ExperimentRecord",
    "PhaseReport",
    "VerificationReport",
    "canonical_json",
    "AlgorithmEntry",
    "ParameterSchema",
    "WorkloadEntry",
    "get_algorithm",
    "get_workload",
    "list_algorithms",
    "list_workloads",
    "register_algorithm",
    "register_workload",
    "unregister_algorithm",
    "unregister_workload",
    "QUERY_SCHEMA_VERSION",
    "QueryKind",
    "QueryResult",
    "QuerySpec",
    "get_query_kind",
    "list_query_kinds",
    "SPEC_SCHEMA_VERSION",
    "AlgorithmSpec",
    "RunSpec",
    "SweepSpec",
    "WorkloadSpec",
    "load_spec",
    "RecordStore",
    "ResultCache",
    "StoredSweep",
    "SweepStoreWriter",
    "load_sweep",
    "run_sweep",
    "build_parser",
    "main",
]
