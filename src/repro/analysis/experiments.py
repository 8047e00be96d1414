"""Experiment harness: run algorithm × workload sweeps and collect records.

The benchmarks and examples all need the same loop: generate a workload
graph, run one or more algorithms on it, verify the outputs against the
ground truth, and record the measured round counts next to the predicted
bounds.  This module provides that loop once, with explicit seeds so every
record is reproducible, and simple aggregation helpers for the table
renderers.

Sweeps are expressed as grids of :class:`SweepCell`s and executed by
:class:`SweepRunner`, which fans independent (algorithm × workload × seed)
cells out over a :mod:`concurrent.futures` process pool.  Each cell carries
its own explicit seed (derive per-cell seeds reproducibly with
:meth:`SweepRunner.spawn_seeds`, built on ``np.random.SeedSequence.spawn``),
so a parallel run produces records identical to the serial loop, in the
same order — parallelism changes wall-clock, never results.

Two properties keep large sweeps cheap:

* the runner's process pool is **persistent** — created lazily on the
  first parallel sweep and reused by every later ``run_*`` call on the
  same runner (close it with :meth:`SweepRunner.close` or a ``with``
  block), so repeated sweeps do not pay worker spawn and import costs per
  grid, and
* workloads are built **once per worker** — every executing process
  (workers and the serial path alike) memoises graph construction in a
  small cache keyed by the pickled ``(graph_factory, seed)`` cell
  identity, so a grid that runs many algorithms over the same workloads
  regenerates each graph at most once per process instead of once per
  cell (and reuses its cached CSR snapshot / oracle work across
  algorithms).  Factories must therefore be deterministic functions of
  the seed — which the reproducibility contract already requires.
"""

from __future__ import annotations

import pickle
import weakref
from collections import OrderedDict
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
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
from ..graphs.triangles import count_triangles
from .verification import VerificationReport, verify_result


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


def run_repeated(
    experiment: str,
    algorithm_factory: Callable[[], RunnableAlgorithm],
    graph_factory: Callable[[int], Graph],
    seeds: Sequence[int],
    extra: Optional[Dict[str, Any]] = None,
) -> List[ExperimentRecord]:
    """Run an algorithm over several seeds, regenerating the workload per seed.

    ``graph_factory`` receives the seed so workloads can be resampled (as the
    lower-bound experiments over ``G(n, 1/2)`` require) or held fixed (by
    ignoring the argument).
    """
    if not seeds:
        raise AnalysisError("run_repeated needs at least one seed")
    records = []
    for seed in seeds:
        graph = graph_factory(seed)
        records.append(
            run_single(experiment, algorithm_factory(), graph, seed, extra=extra)
        )
    return records


def run_size_sweep(
    experiment: str,
    algorithm_factory: Callable[[], RunnableAlgorithm],
    graph_factory: Callable[[int, int], Graph],
    sizes: Sequence[int],
    seeds_per_size: int = 1,
    base_seed: int = 0,
) -> List[ExperimentRecord]:
    """Sweep the network size ``n`` and collect one record per (size, seed).

    ``graph_factory(num_nodes, seed)`` builds the workload at each size.
    """
    if not sizes:
        raise AnalysisError("run_size_sweep needs at least one size")
    if seeds_per_size < 1:
        raise AnalysisError("seeds_per_size must be at least 1")
    records: List[ExperimentRecord] = []
    for size_index, size in enumerate(sizes):
        for repeat in range(seeds_per_size):
            seed = base_seed + 1000 * size_index + repeat
            graph = graph_factory(size, seed)
            records.append(
                run_single(experiment, algorithm_factory(), graph, seed)
            )
    return records


@dataclass(frozen=True)
class SweepCell:
    """One independent (algorithm × workload × seed) unit of a sweep.

    Cells are executed in worker processes, so the two factories must be
    picklable: module-level callables or :func:`functools.partial` objects
    over module-level callables (lambdas and closures are not).
    """

    experiment: str
    algorithm_factory: Callable[[], RunnableAlgorithm]
    graph_factory: Callable[[int], Graph]
    seed: int
    extra: Optional[Dict[str, Any]] = None
    #: Optional content-addressable identity of this cell (duck-typed to
    #: avoid an analysis → api import cycle: anything with a
    #: ``content_hash()`` — in practice :class:`repro.api.specs.RunSpec`).
    #: Cells carrying one can be served from (and recorded into) a
    #: :class:`repro.api.store.ResultCache` by :meth:`SweepRunner.iter_cells`.
    run_spec: Optional[Any] = None


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Finalizer target: release a dropped runner's worker processes."""
    pool.shutdown(wait=False)


#: Per-process workload cache: pickled (graph_factory, seed) ->
#: (Graph, num_nodes, num_edges).  Bounded LRU so long multi-workload
#: sweeps cannot hoard memory.
_GRAPH_CACHE: "OrderedDict[bytes, tuple]" = OrderedDict()
_GRAPH_CACHE_MAX_ENTRIES = 8


def _cell_graph(cell: SweepCell) -> Graph:
    """Build (or fetch from this process's cache) the cell's workload graph.

    The cache key is the pickled ``(graph_factory, seed)`` pair — the same
    bytes the pool ships to workers, so two cells share a graph exactly
    when a worker would deterministically rebuild the same one.
    Unpicklable factories (lambdas on the serial path) skip the cache.

    Sharing one object presumes cells treat their workload as read-only —
    every algorithm in this repository does, and the serial-equals-parallel
    record guarantee requires it (workers cache independently, so a
    mutation would be visible to different cell subsets per schedule).  As
    a cheap tripwire, a cached graph whose size no longer matches its
    construction-time shape is discarded and rebuilt.
    """
    try:
        key = pickle.dumps((cell.graph_factory, cell.seed), protocol=4)
    except Exception:
        return cell.graph_factory(cell.seed)
    entry = _GRAPH_CACHE.get(key)
    if entry is not None:
        graph, num_nodes, num_edges = entry
        if graph.num_nodes == num_nodes and graph.num_edges == num_edges:
            _GRAPH_CACHE.move_to_end(key)
            return graph
        del _GRAPH_CACHE[key]
    graph = cell.graph_factory(cell.seed)
    _GRAPH_CACHE[key] = (graph, graph.num_nodes, graph.num_edges)
    while len(_GRAPH_CACHE) > _GRAPH_CACHE_MAX_ENTRIES:
        _GRAPH_CACHE.popitem(last=False)
    return graph


def _execute_cell(cell: SweepCell) -> ExperimentRecord:
    """Run one cell (the worker entry point; top-level for picklability)."""
    graph = _cell_graph(cell)
    return run_single(
        cell.experiment,
        cell.algorithm_factory(),
        graph,
        cell.seed,
        extra=cell.extra,
    )


@dataclass(frozen=True, eq=False)
class PrebuiltGraphFactory:
    """Picklable ``seed -> Graph`` factory closing over a built graph.

    The escape hatch for workloads that are not regenerable from a seed —
    real-world graphs loaded from disk, hand-constructed gadgets.  A
    parallel sweep pickles the *whole graph* into every cell that carries
    one; each worker still builds its oracle once, through the
    per-process workload cache.  The seed argument is ignored: the
    workload is the same graph for every cell.

    Equality is identity: two factories are interchangeable exactly when
    they wrap the same object.
    """

    graph: Graph

    def __call__(self, seed: int) -> Graph:
        return self.graph


class SweepRunner:
    """Schedule experiment sweeps, serially or over a process pool.

    Parameters
    ----------
    max_workers:
        Size of the worker pool.  ``None`` or any value below 2 runs the
        sweep serially in-process (no pool is created); values above 1 fan
        the cells out over a :class:`concurrent.futures.ProcessPoolExecutor`.

    The pool is created lazily on the first parallel sweep and **persists**
    across ``run_*`` calls on the same runner; use the runner as a context
    manager (or call :meth:`close`) to shut it down deterministically.
    Workers memoise workload construction per process (see
    :func:`_cell_graph`), so grids that revisit the same (workload, seed)
    cells — e.g. several algorithms over one workload list via
    :meth:`run_grid` — rebuild each graph at most once per worker.

    A parallel sweep pickles each cell, factories included, to its worker,
    which builds the workload through that per-process cache.

    Because every cell carries its own explicit seed and cells share no
    state, the parallel path reproduces the serial path exactly: same
    records, same order.  The acceptance test pickles both record lists and
    compares the bytes.

    After every ``iter_cells``/``run_*`` call, :attr:`last_plane` holds a
    small diagnostics dict: the plane used (``"serial"`` or ``"pickle"``),
    cells served from cache, cells executed, and the average pickled bytes
    per shipped cell.
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
        if count < 0:
            raise AnalysisError(f"count must be non-negative, got {count}")
        children = np.random.SeedSequence(base_seed).spawn(count)
        return [int(child.generate_state(1, dtype=np.uint64)[0] >> 1) for child in children]

    @staticmethod
    def _require_picklable(cells: Sequence[SweepCell]) -> int:
        """Check every cell pickles before any of them reach the pool.

        The process pool pickles cells lazily, task by task, so an
        unpicklable factory (a lambda, a closure) would otherwise surface
        as a raw pickle traceback from inside the executor after part of
        the sweep has already run.  Failing eagerly names the offending
        cell instead.  Returns the total pickled size in bytes, the
        per-cell transport cost :attr:`last_plane` reports.
        """
        total_bytes = 0
        for index, cell in enumerate(cells):
            try:
                total_bytes += len(pickle.dumps(cell, protocol=4))
            except Exception as exc:
                raise AnalysisError(
                    f"sweep cell {index} (experiment={cell.experiment!r}, "
                    f"seed={cell.seed}) is not picklable for the process "
                    f"pool: {exc}.  Cell factories must be module-level "
                    "callables or functools.partial objects over "
                    "module-level callables (lambdas and closures are "
                    "not); alternatively run the sweep serially "
                    "(max_workers=None)."
                ) from exc
        return total_bytes

    def iter_cells(
        self, cells: Sequence[SweepCell], cache: Optional[Any] = None
    ) -> "Iterator[ExperimentRecord]":
        """Yield the records of ``cells`` in cell order as they complete.

        The streaming counterpart of :meth:`run_cells`: records arrive in
        deterministic cell order (never completion order), so a consumer
        that appends each record to a durable store — the JSONL experiment
        store of :mod:`repro.api.store` — leaves a clean, resumable prefix
        behind if the sweep is interrupted.

        ``cache`` is an optional content-addressed record cache (anything
        with the ``get(run_spec)`` / ``put(run_spec, record)`` interface of
        :class:`repro.api.store.ResultCache`).  Cells carrying a
        ``run_spec`` are looked up *before* any workload is built or any
        worker is touched — a fully cached sweep executes nothing — and
        every freshly executed record of such a cell is written back.
        Cache hits are yielded in cell order, interleaved with executed
        records, so consumers cannot tell the difference.
        """
        cells = list(cells)
        hits: Dict[int, ExperimentRecord] = {}
        if cache is not None:
            for index, cell in enumerate(cells):
                if cell.run_spec is None:
                    continue
                record = cache.get(cell.run_spec)
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
            if cache is not None and cells[index].run_spec is not None:
                cache.put(cells[index].run_spec, record)
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
        total_bytes = self._require_picklable(exec_cells)
        info["pickled_bytes_per_cell"] = total_bytes / len(exec_cells)
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
        self, cells: Sequence[SweepCell], cache: Optional[Any] = None
    ) -> List[ExperimentRecord]:
        """Execute ``cells`` and return their records in cell order."""
        return list(self.iter_cells(cells, cache=cache))

    def run_grid(
        self,
        experiment: str,
        algorithm_factories: Mapping[str, Callable[[], RunnableAlgorithm]],
        graph_factory: Callable[[int], Graph],
        seeds: Sequence[int],
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, List[ExperimentRecord]]:
        """Run several algorithms over one (workload × seed) grid.

        Cells are ordered workload-major (all algorithms of a seed
        adjacent), so the per-process workload cache turns the grid's
        ``algorithms × seeds`` graph constructions into one per seed per
        process — the whole point of sharing workloads across algorithms.
        Records come back grouped by algorithm label, in seed order,
        identical to running each algorithm's sweep separately.
        """
        if not seeds:
            raise AnalysisError("run_grid needs at least one seed")
        if not algorithm_factories:
            raise AnalysisError("run_grid needs at least one algorithm")
        labels = list(algorithm_factories)
        cells = [
            SweepCell(
                experiment=experiment,
                algorithm_factory=algorithm_factories[label],
                graph_factory=graph_factory,
                seed=seed,
                extra=dict(extra) if extra else None,
            )
            for seed in seeds
            for label in labels
        ]
        records = self.run_cells(cells)
        grouped: Dict[str, List[ExperimentRecord]] = {label: [] for label in labels}
        for index, record in enumerate(records):
            grouped[labels[index % len(labels)]].append(record)
        return grouped

    def run_repeated(
        self,
        experiment: str,
        algorithm_factory: Callable[[], RunnableAlgorithm],
        graph_factory: Callable[[int], Graph],
        seeds: Sequence[int],
        extra: Optional[Dict[str, Any]] = None,
    ) -> List[ExperimentRecord]:
        """Parallel counterpart of :func:`run_repeated` (same record grid)."""
        if not seeds:
            raise AnalysisError("run_repeated needs at least one seed")
        cells = [
            SweepCell(
                experiment=experiment,
                algorithm_factory=algorithm_factory,
                graph_factory=graph_factory,
                seed=seed,
                extra=dict(extra) if extra else None,
            )
            for seed in seeds
        ]
        return self.run_cells(cells)

    def run_size_sweep(
        self,
        experiment: str,
        algorithm_factory: Callable[[], RunnableAlgorithm],
        graph_factory: Callable[[int, int], Graph],
        sizes: Sequence[int],
        seeds_per_size: int = 1,
        base_seed: int = 0,
    ) -> List[ExperimentRecord]:
        """Size sweep over the same (size × repeat) grid as :func:`run_size_sweep`.

        Per-cell seeds are derived with :meth:`spawn_seeds` (one child per
        (size, repeat) cell, in grid order), so the sweep is reproducible
        from ``base_seed`` alone and identical under any worker count.
        Note this is a deliberately *different* seeding scheme from the
        module-level helper's ``base_seed + 1000 * size_index + repeat``
        arithmetic — for the same ``base_seed`` the two produce different
        (equally valid) records.  Migrating an existing experiment to the
        runner restarts its seed lineage; within the runner, serial and
        parallel executions are byte-identical.
        """
        if not sizes:
            raise AnalysisError("run_size_sweep needs at least one size")
        if seeds_per_size < 1:
            raise AnalysisError("seeds_per_size must be at least 1")
        seeds = self.spawn_seeds(base_seed, len(sizes) * seeds_per_size)
        cells = []
        for size_index, size in enumerate(sizes):
            for repeat in range(seeds_per_size):
                seed = seeds[size_index * seeds_per_size + repeat]
                cells.append(
                    SweepCell(
                        experiment=experiment,
                        algorithm_factory=algorithm_factory,
                        graph_factory=_SizedGraphFactory(graph_factory, size),
                        seed=seed,
                    )
                )
        return self.run_cells(cells)


@dataclass(frozen=True)
class _SizedGraphFactory:
    """Picklable adapter binding a ``(size, seed)`` factory to one size."""

    factory: Callable[[int, int], Graph]
    num_nodes: int

    def __call__(self, seed: int) -> Graph:
        return self.factory(self.num_nodes, seed)


def mean_rounds_by_size(records: Iterable[ExperimentRecord]) -> Dict[int, float]:
    """Return the mean measured rounds grouped by network size."""
    totals: Dict[int, List[int]] = {}
    for record in records:
        totals.setdefault(record.num_nodes, []).append(record.rounds)
    return {size: sum(values) / len(values) for size, values in totals.items()}


def mean_recall(records: Iterable[ExperimentRecord]) -> float:
    """Return the mean recall over a collection of records."""
    values = [record.recall for record in records]
    if not values:
        raise AnalysisError("mean_recall needs at least one record")
    return sum(values) / len(values)


def all_sound(records: Iterable[ExperimentRecord]) -> bool:
    """Return ``True`` when every record in the collection was sound."""
    return all(record.sound for record in records)


def describe_workload(graph: Graph) -> Dict[str, Any]:
    """Return the workload descriptors recorded next to experiment results."""
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_triangles": count_triangles(graph),
        "max_degree": graph.max_degree(),
        "density": graph.density(),
    }
