"""Tests for the sweep workload transport (shm, pickle fallback, cache LRU)."""

import functools
import os
import pickle

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.analysis import PrebuiltGraphFactory, SweepCell, SweepRunner
from repro.analysis import experiments as experiments_module
from repro.analysis.experiments import (
    _GRAPH_CACHE,
    _GRAPH_CACHE_MAX_ENTRIES,
    _cell_graph,
)
from repro.core import NaiveTwoHopListing, TriangleListing
from repro.graphs import gnp_random_graph, segment_exists, shm_available


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


class _SegmentRecorder:
    """Wrap ``share_csr`` so tests can see which segments a sweep created."""

    def __init__(self):
        self.segments = []
        self._real = experiments_module.share_csr

    def __call__(self, csr):
        owner = self._real(csr)
        self.segments.append(owner.handle.segment)
        return owner


@pytest.fixture
def record_segments(monkeypatch):
    recorder = _SegmentRecorder()
    monkeypatch.setattr(experiments_module, "share_csr", recorder)
    return recorder


needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory is not usable on this platform"
)


class TestPlaneSelection:
    def test_auto_plane_falls_back_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(experiments_module, "shm_available", lambda: False)
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(_grid_cells())
            assert runner.last_plane["plane"] == "pickle"
            assert runner.last_plane["workloads_shared"] == 0

    @needs_shm
    def test_environment_does_not_choose_the_transport(self, monkeypatch):
        # REPRO_SWEEP_PLANE used to force the pickle path; the variable is
        # gone, so a leftover setting must not change where workloads go.
        monkeypatch.setenv("REPRO_SWEEP_PLANE", "pickle")
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(_grid_cells())
            assert runner.last_plane["plane"] == "shm"
            assert runner.last_plane["workloads_shared"] == 3

    def test_auto_plane_falls_back_when_sharing_fails(self, monkeypatch):
        def broken_share(csr):
            raise RuntimeError("no segments today")

        monkeypatch.setattr(experiments_module, "share_csr", broken_share)
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(_grid_cells())
            assert len(records) == 6
            assert runner.last_plane["plane"] == "pickle"


class TestShmPlaneRecords:
    def test_all_planes_byte_identical(self, transport):
        cells = _grid_cells()
        reference = [pickle.dumps(r, protocol=4) for r in SweepRunner().run_cells(cells)]
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(cells)
            assert [pickle.dumps(r, protocol=4) for r in records] == reference
            assert runner.last_plane["plane"] == transport

    @needs_shm
    def test_last_plane_diagnostics(self):
        cells = _grid_cells()
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(cells)
            info = runner.last_plane
            assert info["plane"] == "shm"
            assert info["cells"] == 6
            assert info["executed"] == 6
            assert info["cache_hits"] == 0
            # Three distinct workload seeds -> three shared segments; the
            # cells themselves ship handle-sized payloads.
            assert info["workloads_shared"] == 3
            assert 0 < info["pickled_bytes_per_cell"] < 4096

    @needs_shm
    def test_prebuilt_factory_groups_by_graph_identity(self):
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
            assert runner.last_plane["workloads_shared"] == 1
            assert records == serial

    @needs_shm
    def test_segments_released_after_sweep(self, record_segments):
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(_grid_cells())
        assert len(record_segments.segments) == 3
        assert not any(segment_exists(s) for s in record_segments.segments)

    @needs_shm
    def test_segments_released_when_consumer_abandons_stream(self, record_segments):
        # A KeyboardInterrupt unwinds the for-loop consuming iter_cells;
        # generator close() runs the same finally block.
        with SweepRunner(max_workers=2) as runner:
            stream = runner.iter_cells(_grid_cells())
            next(stream)
            stream.close()
        assert record_segments.segments
        assert not any(segment_exists(s) for s in record_segments.segments)

    @needs_shm
    def test_segments_released_after_worker_crash(self, record_segments):
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
            # The broken-pool recovery path still applies: the next sweep
            # on the same runner gets a fresh pool and completes.
            records = runner.run_cells(_grid_cells())
            assert len(records) == 6
        assert record_segments.segments
        assert not any(segment_exists(s) for s in record_segments.segments)


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
