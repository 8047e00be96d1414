"""Tests for the parallel sweep path (pickled cells, pool recovery, cache LRU)."""

import functools
import os
import pickle

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.analysis import PrebuiltGraphFactory, SweepCell, SweepRunner
from repro.analysis.experiments import (
    _GRAPH_CACHE,
    _GRAPH_CACHE_MAX_ENTRIES,
    _cell_graph,
)
from repro.core import NaiveTwoHopListing, TriangleListing
from repro.graphs import gnp_random_graph


def _naive_algorithm():
    return NaiveTwoHopListing()


def _listing_algorithm():
    return TriangleListing(repetitions=1, epsilon=0.5)


def _gnp_workload(num_nodes, seed):
    return gnp_random_graph(num_nodes, 0.4, seed=seed)


class _CrashingAlgorithm:
    """Kills its worker process outright: the BrokenProcessPool stand-in."""

    def run(self, graph, seed):
        os._exit(1)


def _grid_cells():
    return [
        SweepCell(
            experiment="plane",
            algorithm_factory=factory,
            graph_factory=functools.partial(_gnp_workload, 24),
            seed=seed,
        )
        for seed in (1, 2, 3)
        for factory in (_naive_algorithm, _listing_algorithm)
    ]


class TestParallelRecords:
    def test_all_planes_byte_identical(self):
        cells = _grid_cells()
        reference = [pickle.dumps(r, protocol=4) for r in SweepRunner().run_cells(cells)]
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(cells)
            assert [pickle.dumps(r, protocol=4) for r in records] == reference
            assert runner.last_plane["plane"] == "pickle"

    def test_last_plane_diagnostics(self):
        cells = _grid_cells()
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(cells)
            info = runner.last_plane
            assert info == {
                "plane": "pickle",
                "cells": 6,
                "cache_hits": 0,
                "executed": 6,
                "pickled_bytes_per_cell": info["pickled_bytes_per_cell"],
            }
            # Cells ship their seed-driven factories, not graphs.
            assert 0 < info["pickled_bytes_per_cell"] < 4096

    def test_prebuilt_factory_records_match_serial(self):
        graph = _gnp_workload(24, 7)
        cells = [
            SweepCell(
                experiment="plane",
                algorithm_factory=factory,
                graph_factory=PrebuiltGraphFactory(graph),
                seed=7,
            )
            for factory in (_naive_algorithm, _listing_algorithm)
        ]
        serial = SweepRunner().run_cells(cells)
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(cells)
            assert records == serial

    def test_runner_survives_an_abandoned_stream(self):
        # A KeyboardInterrupt unwinds the for-loop consuming iter_cells;
        # generator close() runs the same teardown.
        with SweepRunner(max_workers=2) as runner:
            stream = runner.iter_cells(_grid_cells())
            next(stream)
            stream.close()
            assert len(runner.run_cells(_grid_cells())) == 6

    def test_runner_recovers_after_worker_crash(self):
        cells = [
            SweepCell(
                experiment="crash",
                algorithm_factory=_CrashingAlgorithm,
                graph_factory=functools.partial(_gnp_workload, 16),
                seed=seed,
            )
            for seed in (1, 2)
        ]
        with SweepRunner(max_workers=2) as runner:
            with pytest.raises(BrokenProcessPool):
                runner.run_cells(cells)
            # The broken-pool recovery path: the next sweep on the same
            # runner gets a fresh pool and completes.
            records = runner.run_cells(_grid_cells())
            assert len(records) == 6


class TestPrebuiltTransport:
    def _cells(self, graph):
        factory = PrebuiltGraphFactory(graph)
        return [
            SweepCell(
                experiment="prebuilt",
                algorithm_factory=algorithm,
                graph_factory=factory,
                seed=seed,
            )
            for seed in (1, 2)
            for algorithm in (_naive_algorithm, _listing_algorithm)
        ]

    def test_factory_ignores_the_seed(self):
        graph = _gnp_workload(12, 3)
        factory = PrebuiltGraphFactory(graph)
        assert factory(1) is graph
        assert factory(2) is graph

    def test_prebuilt_cells_ship_the_whole_graph(self):
        graph = _gnp_workload(60, 5)
        graph_bytes = len(pickle.dumps(graph, protocol=4))
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(self._cells(graph))
            info = runner.last_plane
        assert info["plane"] == "pickle"
        assert info["pickled_bytes_per_cell"] >= graph_bytes

    def test_shipped_copies_of_one_workload_build_once_per_process(self):
        saved = dict(_GRAPH_CACHE)
        _GRAPH_CACHE.clear()
        try:
            graph = _gnp_workload(30, 2)
            graph.csr().triangles()
            # What a worker sees: every cell arrives as its own unpickled
            # copy, factory and graph included.  The cache keys on the
            # seed too, so the copies share one workload per seed.
            copies = [
                pickle.loads(pickle.dumps(cell, protocol=4))
                for cell in self._cells(graph)
                if cell.seed == 1
            ]
            built = [_cell_graph(cell) for cell in copies]
            assert all(workload is built[0] for workload in built)
            assert built[0] == graph
            assert len(_GRAPH_CACHE) == 1
        finally:
            _GRAPH_CACHE.clear()
            _GRAPH_CACHE.update(saved)

    def test_prebuilt_records_match_serial_across_seeds(self):
        cells = self._cells(_gnp_workload(24, 11))
        reference = [pickle.dumps(r, protocol=4) for r in SweepRunner().run_cells(cells)]
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(cells)
        assert [pickle.dumps(r, protocol=4) for r in records] == reference


class TestSerialPlane:
    def test_serial_runner_reports_the_serial_plane(self):
        runner = SweepRunner()
        runner.run_cells(_grid_cells())
        assert runner.last_plane == {
            "plane": "serial",
            "cells": 6,
            "cache_hits": 0,
            "executed": 6,
            "pickled_bytes_per_cell": 0.0,
        }

    def test_a_single_cell_never_reaches_the_pool(self):
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(_grid_cells()[:1])
            assert runner.last_plane["plane"] == "serial"
            assert runner._pool is None


class TestWorkloadCacheLRU:
    @pytest.fixture(autouse=True)
    def _isolate_cache(self):
        saved = dict(_GRAPH_CACHE)
        _GRAPH_CACHE.clear()
        yield
        _GRAPH_CACHE.clear()
        _GRAPH_CACHE.update(saved)

    def _cell(self, num_nodes, seed):
        return SweepCell(
            experiment="lru",
            algorithm_factory=_naive_algorithm,
            graph_factory=functools.partial(_gnp_workload, num_nodes),
            seed=seed,
        )

    def test_cache_is_bounded(self):
        for seed in range(_GRAPH_CACHE_MAX_ENTRIES + 4):
            _cell_graph(self._cell(10, seed))
        assert len(_GRAPH_CACHE) == _GRAPH_CACHE_MAX_ENTRIES

    def test_eviction_is_least_recently_used(self):
        cells = [self._cell(10, seed) for seed in range(_GRAPH_CACHE_MAX_ENTRIES)]
        graphs = [_cell_graph(cell) for cell in cells]
        # Touch cell 0 so it is the most recently used, then overflow by one.
        assert _cell_graph(cells[0]) is graphs[0]
        _cell_graph(self._cell(10, 999))
        assert _cell_graph(cells[0]) is graphs[0]  # survived (was recent)
        assert _cell_graph(cells[1]) is not graphs[1]  # evicted (was oldest)

    def test_repeated_cells_share_one_graph(self):
        first = _cell_graph(self._cell(12, 5))
        second = _cell_graph(self._cell(12, 5))
        assert first is second
        assert len(_GRAPH_CACHE) == 1

    def test_unpicklable_factory_skips_the_cache(self):
        cell = SweepCell(
            experiment="lru",
            algorithm_factory=_naive_algorithm,
            graph_factory=lambda seed: _gnp_workload(10, seed),
            seed=4,
        )
        first = _cell_graph(cell)
        second = _cell_graph(cell)
        assert first == second
        assert first is not second
        assert len(_GRAPH_CACHE) == 0

    def test_mutated_cached_graph_is_rebuilt(self):
        cell = self._cell(12, 6)
        cached = _cell_graph(cell)
        u, v = next(
            (u, v) for u in range(12) for v in range(u + 1, 12)
            if not cached.has_edge(u, v)
        )
        cached.add_edge(u, v)
        rebuilt = _cell_graph(cell)
        assert rebuilt is not cached
        assert rebuilt == _gnp_workload(12, 6)
        assert _cell_graph(cell) is rebuilt
