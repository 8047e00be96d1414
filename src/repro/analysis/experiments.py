"""Experiment harness: run sweeps of run specs and collect records.

The benchmarks and examples all need the same loop: generate a workload
graph, run an algorithm on it, verify the output against the ground
truth, and record the measured round counts next to the predicted
bounds.  This module provides that loop once, with explicit seeds so every
record is reproducible, and simple aggregation helpers for the table
renderers.

A sweep cell is a :class:`repro.api.specs.RunSpec`: a registered
algorithm, a registered workload and a seed.  :class:`SweepRunner` fans
lists of cells out over a :mod:`concurrent.futures` process pool, and a
fleet worker executes leased cells through the same :func:`_execute_cell`.
Each cell carries its own explicit seed (derive per-cell seeds
reproducibly with :meth:`SweepRunner.spawn_seeds`, built on
``np.random.SeedSequence.spawn``), so a parallel run produces records
identical to the serial loop, in the same order — parallelism changes
wall-clock, never results.  Custom code joins sweeps by registering its
algorithm or workload (``repro.api.register_algorithm`` /
``register_workload``).

Two properties keep large sweeps cheap:

* the runner's process pool is **persistent** — created lazily on the
  first parallel sweep and reused by every later sweep on the same runner
  (close it with :meth:`SweepRunner.close` or a ``with`` block), so
  repeated sweeps do not pay worker spawn and import costs per grid, and
* workloads are built **once per process** — every executing process
  (pool workers, fleet workers and the serial path alike) memoises graph
  construction in a small cache keyed by the workload's resolved
  generator call, so a grid that runs many algorithms over the same
  workloads, or one pinned workload over many seeds, builds each graph at
  most once per process instead of once per cell (and reuses its cached
  CSR snapshot / oracle work across cells).
"""

from __future__ import annotations

import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
)

import numpy as np

from ..core.output import AlgorithmResult
from ..errors import AnalysisError
from ..graphs.graph import Graph
from .verification import VerificationReport, verify_result

if TYPE_CHECKING:
    from ..api.specs import RunSpec


class RunnableAlgorithm(Protocol):
    """Anything with the ``name`` / ``model`` / ``run(graph, seed)`` interface."""

    name: str
    model: str

    def run(self, graph: Graph, seed: Optional[int | np.random.Generator] = None) -> AlgorithmResult:
        """Run on ``graph`` with the given seed."""


@dataclass(frozen=True)
class ExperimentRecord:
    """One (algorithm, workload, seed) measurement."""

    experiment: str
    algorithm: str
    model: str
    num_nodes: int
    num_edges: int
    num_triangles: int
    seed: int
    rounds: int
    messages: int
    bits: int
    recall: float
    sound: bool
    solves_finding: bool
    solves_listing: bool
    truncated: bool
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Return a flat dictionary (for CSV-style dumps)."""
        base = {name: getattr(self, name) for name in _EXPERIMENT_RECORD_FIELD_ORDER}
        base.update(self.extra)
        return base

    def to_dict(self) -> Dict[str, Any]:
        """Return a lossless JSON-ready dictionary (``extra`` kept nested).

        Unlike :meth:`as_dict`, which flattens ``extra`` into the row for
        CSV-style dumps, this form round-trips through
        :meth:`from_dict` without ambiguity and is what the JSONL
        experiment store (:mod:`repro.api.store`) writes.  All three
        methods (and :meth:`as_dict`) derive the field set from the
        dataclass itself, so adding a field cannot desynchronise writer
        and reader.
        """
        payload: Dict[str, Any] = {
            name: getattr(self, name) for name in _EXPERIMENT_RECORD_FIELD_ORDER
        }
        payload["extra"] = dict(self.extra)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        fields = dict(payload)
        extra = dict(fields.pop("extra", {}))
        unknown = set(fields) - _EXPERIMENT_RECORD_FIELDS
        if unknown:
            raise AnalysisError(
                f"unknown ExperimentRecord fields: {sorted(unknown)}"
            )
        missing = _EXPERIMENT_RECORD_FIELDS - set(fields)
        if missing:
            raise AnalysisError(
                f"missing ExperimentRecord fields: {sorted(missing)}"
            )
        return cls(extra=extra, **fields)


#: The scalar fields of :class:`ExperimentRecord` (everything but ``extra``),
#: in declaration order.
_EXPERIMENT_RECORD_FIELD_ORDER = tuple(
    name for name in ExperimentRecord.__dataclass_fields__ if name != "extra"
)
_EXPERIMENT_RECORD_FIELDS = frozenset(_EXPERIMENT_RECORD_FIELD_ORDER)


def run_single(
    experiment: str,
    algorithm: RunnableAlgorithm,
    graph: Graph,
    seed: int,
    extra: Optional[Dict[str, Any]] = None,
) -> ExperimentRecord:
    """Run ``algorithm`` once on ``graph`` and return the verified record."""
    result = algorithm.run(graph, seed=seed)
    report: VerificationReport = verify_result(result, graph)
    return ExperimentRecord(
        experiment=experiment,
        algorithm=result.algorithm,
        model=result.model,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_triangles=report.total_truth,
        seed=seed,
        rounds=result.cost.rounds,
        messages=result.cost.messages,
        bits=result.cost.bits,
        recall=report.recall,
        sound=report.sound,
        solves_finding=report.solves_finding,
        solves_listing=report.solves_listing,
        truncated=result.truncated,
        extra=dict(extra or {}),
    )


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer target: release a dropped runner's worker processes."""
    pool.shutdown(wait=False)


#: Per-process workload cache: resolved generator call (see
#: ``WorkloadSpec.build_key``) -> (Graph, num_nodes, num_edges).  Bounded
#: LRU so long multi-workload sweeps cannot hoard memory.
_GRAPH_CACHE: "OrderedDict[str, tuple]" = OrderedDict()
_GRAPH_CACHE_MAX_ENTRIES = 8


def _cell_graph(spec: "RunSpec") -> Graph:
    """Build (or fetch from this process's cache) the cell's workload graph.

    The cache key is the workload's resolved generator call: its name and
    parameters with the effective seed.  A pinned ``seed`` parameter wins
    over the cell seed, and a generator that takes no seed gets none, so
    cells of such a workload share one graph whatever their seeds.

    Sharing one object presumes cells treat their workload as read-only —
    every algorithm in this repository does, and the serial-equals-parallel
    record guarantee requires it (workers cache independently, so a
    mutation would be visible to different cell subsets per schedule).  As
    a cheap tripwire, a cached graph whose size no longer matches its
    construction-time shape is discarded and rebuilt.
    """
    key = spec.workload.build_key(spec.seed)
    entry = _GRAPH_CACHE.get(key)
    if entry is not None:
        graph, num_nodes, num_edges = entry
        if graph.num_nodes == num_nodes and graph.num_edges == num_edges:
            _GRAPH_CACHE.move_to_end(key)
            return graph
        del _GRAPH_CACHE[key]
    graph = spec.workload.build(seed=spec.seed)
    _GRAPH_CACHE[key] = (graph, graph.num_nodes, graph.num_edges)
    while len(_GRAPH_CACHE) > _GRAPH_CACHE_MAX_ENTRIES:
        _GRAPH_CACHE.popitem(last=False)
    return graph


def _execute_cell(spec: "RunSpec") -> ExperimentRecord:
    """Run one cell (the pool and fleet worker entry point)."""
    graph = _cell_graph(spec)
    return run_single(spec.experiment, spec.algorithm.build(), graph, spec.seed)


class SweepRunner:
    """Execute sweep cells, serially or over a process pool.

    A cell is a :class:`repro.api.specs.RunSpec`.

    Parameters
    ----------
    max_workers:
        Size of the worker pool.  ``None`` or any value below 2 runs the
        sweep serially in-process (no pool is created); values above 1 fan
        the cells out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    The pool is created lazily on the first parallel sweep and **persists**
    across sweeps on the same runner; use the runner as a context manager
    (or call :meth:`close`) to shut it down deterministically.  A parallel
    sweep pickles each run spec to its worker, which builds the workload
    through its per-process cache (see :func:`_cell_graph`), so cells that
    share a workload — several algorithms over one seed, or any seeds of a
    pinned or seedless workload — build it at most once per worker.

    Because every cell carries its own explicit seed and cells share no
    state, the parallel path reproduces the serial path exactly: same
    records, same order.  The acceptance test pickles both record lists and
    compares the bytes.

    After every ``iter_cells``/``run_cells`` call, :attr:`last_plane` holds
    a small diagnostics dict: the plane used (``"serial"`` or
    ``"pickle"``), cells served from cache, cells executed, and the average
    pickled bytes per shipped cell.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise AnalysisError(f"max_workers must be positive, got {max_workers}")
        self._max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        #: Diagnostics of the most recent sweep (see class docstring).
        self.last_plane: Optional[Dict[str, Any]] = None

    @property
    def parallel(self) -> bool:
        """``True`` when sweeps run on a process pool."""
        return self._max_workers is not None and self._max_workers > 1

    def _executor(self) -> ProcessPoolExecutor:
        """Return the persistent pool, creating it on first use.

        A ``weakref.finalize`` ties the pool's lifetime to the runner:
        dropping a runner without calling :meth:`close` still releases its
        worker processes at garbage collection instead of leaking them
        until interpreter exit.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool
            )
        return self._pool

    def close(self) -> None:
        """Shut down the persistent pool (idempotent).

        The runner remains usable afterwards — the next parallel sweep
        simply creates a fresh pool.
        """
        if self._pool is not None:
            self._pool_finalizer.detach()
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def spawn_seeds(base_seed: int, count: int) -> List[int]:
        """Derive ``count`` independent, reproducible per-cell seeds.

        Built on ``np.random.SeedSequence(base_seed).spawn``: children are
        statistically independent streams, and the derivation is a pure
        function of ``(base_seed, count)`` — the same base always yields the
        same cell seeds, regardless of worker scheduling.
        """
        if base_seed < 0:
            raise AnalysisError(
                f"base seed must be non-negative, got {base_seed}"
            )
        if count < 0:
            raise AnalysisError(f"count must be non-negative, got {count}")
        children = np.random.SeedSequence(base_seed).spawn(count)
        return [int(child.generate_state(1, dtype=np.uint64)[0] >> 1) for child in children]

    def iter_cells(
        self, cells: Sequence["RunSpec"], cache: Optional[Any] = None
    ) -> "Iterator[ExperimentRecord]":
        """Yield the records of ``cells`` in cell order as they complete.

        The streaming counterpart of :meth:`run_cells`: records arrive in
        deterministic cell order (never completion order), so a consumer
        that appends each record to a durable store — the JSONL experiment
        store of :mod:`repro.api.store` — leaves a clean, resumable prefix
        behind if the sweep is interrupted.

        ``cache`` is an optional content-addressed record cache (anything
        with the ``get(run_spec)`` / ``put(run_spec, record)`` interface of
        :class:`repro.api.store.ResultCache`).  Every cell is looked up
        *before* any workload is built or any worker is touched — a fully
        cached sweep executes nothing — and every freshly executed record
        is written back.  Cache hits are yielded in cell order, interleaved
        with executed records, so consumers cannot tell the difference.
        """
        cells = list(cells)
        hits: Dict[int, ExperimentRecord] = {}
        if cache is not None:
            for index, cell in enumerate(cells):
                record = cache.get(cell)
                if record is not None:
                    hits[index] = record
        pending = [index for index in range(len(cells)) if index not in hits]
        info: Dict[str, Any] = {
            "plane": "serial",
            "cells": len(cells),
            "cache_hits": len(hits),
            "executed": len(pending),
            "pickled_bytes_per_cell": 0.0,
        }
        self.last_plane = info

        def finish(index: int, record: ExperimentRecord) -> ExperimentRecord:
            if cache is not None:
                cache.put(cells[index], record)
            return record

        if not self.parallel or len(pending) < 2:
            for index in range(len(cells)):
                if index in hits:
                    yield hits[index]
                else:
                    yield finish(index, _execute_cell(cells[index]))
            return

        exec_cells = [cells[index] for index in pending]
        info["plane"] = "pickle"
        info["pickled_bytes_per_cell"] = sum(
            len(pickle.dumps(cell, protocol=4)) for cell in exec_cells
        ) / len(exec_cells)
        pool = self._executor()
        try:
            results = iter(pool.map(_execute_cell, exec_cells, chunksize=1))
            for index in range(len(cells)):
                if index in hits:
                    yield hits[index]
                else:
                    yield finish(index, next(results))
        except BrokenExecutor:
            # A crashed worker (OOM kill, segfault) breaks the executor
            # for good; drop it so the next sweep gets a fresh pool
            # instead of re-raising forever.
            self._pool_finalizer.detach()
            pool.shutdown(wait=False)
            self._pool = None
            raise

    def run_cells(
        self, cells: Sequence["RunSpec"], cache: Optional[Any] = None
    ) -> List[ExperimentRecord]:
        """Execute ``cells`` and return their records in cell order."""
        return list(self.iter_cells(cells, cache=cache))


def mean_recall(records: Iterable[ExperimentRecord]) -> float:
    """Return the mean recall over a collection of records."""
    values = [record.recall for record in records]
    if not values:
        raise AnalysisError("mean_recall needs at least one record")
    return sum(values) / len(values)
