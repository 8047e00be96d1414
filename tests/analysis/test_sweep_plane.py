"""Tests for the parallel sweep path (pickled run specs, pool recovery, cache LRU)."""

import os
import pickle

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.analysis import SweepRunner
from repro.analysis.experiments import (
    _GRAPH_CACHE,
    _GRAPH_CACHE_MAX_ENTRIES,
    _cell_graph,
)
from repro.api import AlgorithmSpec, RunSpec, SweepSpec, WorkloadSpec
from repro.api.registry import register_algorithm, unregister_algorithm
from repro.api.store import load_sweep, run_sweep
from repro.core import NaiveTwoHopListing
from repro.errors import AnalysisError
from repro.graphs import complete_graph, gnp_random_graph

NAIVE = AlgorithmSpec("naive-two-hop")
LISTING = AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5})


# The test algorithms wrap the naive listing rather than subclass it: the
# registry-completeness test requires every TriangleAlgorithm subclass to
# stay registered, and these are registered only while this module runs.
class _CrashOnceListing:
    """Kills its worker process the first time a cell runs it.

    "First" is claimed by deleting ``crash_flag``: exactly one process
    wins the unlink and exits, so a sweep breaks its pool once; with the
    flag absent the cell is a plain naive listing.
    """

    def __init__(self, crash_flag: str = "") -> None:
        self.crash_flag = crash_flag

    def run(self, graph, seed=None):
        try:
            os.unlink(self.crash_flag)
        except FileNotFoundError:
            return NaiveTwoHopListing().run(graph, seed=seed)
        os._exit(1)


class _GraphIdentityListing:
    """Appends ``<pid> <id(graph)>`` to ``log`` for every cell it runs."""

    def __init__(self, log: str = "") -> None:
        self.log = log

    def run(self, graph, seed=None):
        with open(self.log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {id(graph)}\n")
        return NaiveTwoHopListing().run(graph, seed=seed)


@pytest.fixture(scope="module", autouse=True)
def _test_algorithms():
    """Register the test algorithms; forked pool workers inherit them."""
    register_algorithm("test-crash-once", kind="listing")(_CrashOnceListing)
    register_algorithm("test-graph-identity", kind="listing")(_GraphIdentityListing)
    yield
    unregister_algorithm("test-crash-once")
    unregister_algorithm("test-graph-identity")


def _gnp(num_nodes, **pinned):
    return WorkloadSpec(
        "gnp", {"num_nodes": num_nodes, "edge_probability": 0.4, **pinned}
    )


def _grid_cells():
    return SweepSpec(
        experiment="plane",
        algorithms=(NAIVE, LISTING),
        workload=_gnp(24),
        seeds=(1, 2, 3),
    ).cells()


def _crash_cells(flag, seeds=(1, 2)):
    crash = AlgorithmSpec("test-crash-once", {"crash_flag": str(flag)})
    return [RunSpec(algorithm=crash, workload=_gnp(16), seed=seed) for seed in seeds]


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
            # Cells ship their run specs, not graphs.
            expected = sum(len(pickle.dumps(c, protocol=4)) for c in cells) / 6
            assert info["pickled_bytes_per_cell"] == expected
            assert 0 < info["pickled_bytes_per_cell"] < 4096

    def test_pinned_workload_records_match_serial(self):
        cells = SweepSpec(
            experiment="plane",
            algorithms=(NAIVE, LISTING),
            workload=_gnp(24, seed=11),
            seeds=(1, 2),
        ).cells()
        reference = [pickle.dumps(r, protocol=4) for r in SweepRunner().run_cells(cells)]
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(cells)
        assert [pickle.dumps(r, protocol=4) for r in records] == reference

    def test_runner_survives_an_abandoned_stream(self):
        # A KeyboardInterrupt unwinds the for-loop consuming iter_cells;
        # generator close() runs the same teardown.
        with SweepRunner(max_workers=2) as runner:
            stream = runner.iter_cells(_grid_cells())
            next(stream)
            stream.close()
            assert len(runner.run_cells(_grid_cells())) == 6

    def test_runner_recovers_after_worker_crash(self, tmp_path):
        flag = tmp_path / "crash"
        flag.touch()
        with SweepRunner(max_workers=2) as runner:
            with pytest.raises(BrokenProcessPool):
                runner.run_cells(_crash_cells(flag))
            # The broken-pool recovery path: the next sweep on the same
            # runner gets a fresh pool and completes.
            records = runner.run_cells(_grid_cells())
            assert len(records) == 6
        assert not flag.exists()


class TestCrashRetry:
    """``run_sweep(retries=)`` against a pool that loses a worker once."""

    def _spec(self, flag):
        return SweepSpec(
            experiment="crash-retry",
            algorithms=(
                NAIVE,
                AlgorithmSpec("test-crash-once", {"crash_flag": str(flag)}),
            ),
            workload=_gnp(20),
            seeds=(1, 2, 3),
        )

    def test_retry_completes_byte_identical_to_serial(self, tmp_path):
        flag = tmp_path / "crash"
        spec = self._spec(flag)
        serial = tmp_path / "serial.jsonl"
        run_sweep(spec, serial)  # no flag: nothing crashes
        flag.touch()
        retries = []
        out = tmp_path / "retried.jsonl"
        with SweepRunner(max_workers=2) as runner:
            run_sweep(
                spec, out, runner=runner, retries=1,
                on_retry=lambda attempt, reason: retries.append(attempt),
            )
        assert not flag.exists()
        assert retries == [1]
        assert out.read_bytes() == serial.read_bytes()

    def test_no_retry_leaves_a_resumable_prefix(self, tmp_path):
        flag = tmp_path / "crash"
        spec = self._spec(flag)
        serial = tmp_path / "serial.jsonl"
        run_sweep(spec, serial)
        flag.touch()
        out = tmp_path / "broken.jsonl"
        with SweepRunner(max_workers=2) as runner:
            with pytest.raises(BrokenProcessPool):
                run_sweep(spec, out, runner=runner, retries=0)
        prefix = out.read_bytes()
        assert serial.read_bytes().startswith(prefix)
        done = load_sweep(out).completed_cells()
        assert done == set(range(len(done)))
        assert len(done) < len(spec.cells())
        with SweepRunner(max_workers=2) as runner:
            run_sweep(spec, out, runner=runner, resume=True)
        assert out.read_bytes() == serial.read_bytes()


class TestSharedWorkloadKey:
    """Cells share a workload exactly when its resolved generator call is equal."""

    @pytest.fixture(autouse=True)
    def _isolate_cache(self):
        saved = dict(_GRAPH_CACHE)
        _GRAPH_CACHE.clear()
        yield
        _GRAPH_CACHE.clear()
        _GRAPH_CACHE.update(saved)

    def test_key_carries_the_effective_seed(self):
        resampled = _gnp(20)
        assert resampled.build_key(1) != resampled.build_key(2)
        pinned = _gnp(20, seed=9)
        assert pinned.build_key(1) == pinned.build_key(2) == pinned.build_key(None)
        assert pinned.build_key(1) == resampled.build_key(9)
        seedless = WorkloadSpec("complete", {"num_nodes": 6})
        assert seedless.build_key(1) == seedless.build_key(2)

    def test_key_matches_what_build_builds(self):
        for workload, seed in [(_gnp(20), 4), (_gnp(20, seed=9), 4)]:
            entry = workload.entry()
            kwargs = entry.resolve(workload.params, seed=seed)
            assert workload.build(seed=seed) == entry.factory(**kwargs)
        assert WorkloadSpec("complete", {"num_nodes": 6}).build(seed=3) == complete_graph(6)

    def test_key_ignores_name_case_and_parameter_order(self):
        upper = WorkloadSpec("GNP", {"num_nodes": 20, "edge_probability": 0.4})
        lower = WorkloadSpec("gnp", {"edge_probability": 0.4, "num_nodes": 20})
        assert upper.build_key(3) == lower.build_key(3)

    def test_key_rejects_what_build_rejects(self):
        bad = WorkloadSpec("gnp", {"num_nodes": 20, "bogus": 1})
        with pytest.raises(AnalysisError, match="bogus"):
            bad.build(seed=1)
        with pytest.raises(AnalysisError, match="bogus"):
            bad.build_key(1)

    def test_run_spec_run_builds_afresh(self):
        # perfbench's theorem workloads time a fresh build through run().
        cell = RunSpec(algorithm=NAIVE, workload=_gnp(16), seed=2)
        record = cell.run()
        assert len(_GRAPH_CACHE) == 0
        assert SweepRunner().run_cells([cell]) == [record]
        assert list(_GRAPH_CACHE) == [cell.workload.build_key(2)]

    @pytest.mark.parametrize(
        "workload",
        [_gnp(30, seed=5), WorkloadSpec("complete", {"num_nodes": 12})],
        ids=["pinned-gnp", "complete"],
    )
    def test_serial_sweep_builds_one_graph(self, workload):
        cells = [RunSpec(algorithm=NAIVE, workload=workload, seed=s) for s in range(1, 7)]
        graphs = {id(_cell_graph(cell)) for cell in cells}
        assert len(graphs) == 1
        assert len(_GRAPH_CACHE) == 1
        SweepRunner().run_cells(cells)
        assert len(_GRAPH_CACHE) == 1

    @pytest.mark.parametrize(
        "workload",
        [_gnp(30, seed=5), WorkloadSpec("complete", {"num_nodes": 12})],
        ids=["pinned-gnp", "complete"],
    )
    def test_pool_builds_one_graph_per_process(self, workload, tmp_path):
        log = tmp_path / "graphs.log"
        spec = SweepSpec(
            experiment="shared",
            algorithms=(AlgorithmSpec("test-graph-identity", {"log": str(log)}),),
            workload=workload,
            seeds=(1, 2, 3, 4, 5, 6),
        )
        with SweepRunner(max_workers=2) as runner:
            records = spec.run(runner)["test-graph-identity"]
        assert len(records) == 6
        graphs_by_process = {}
        for line in log.read_text(encoding="utf-8").splitlines():
            pid, graph = line.split()
            graphs_by_process.setdefault(pid, set()).add(graph)
        assert sum(len(graphs) for graphs in graphs_by_process.values()) == len(
            graphs_by_process
        )


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
        return RunSpec(algorithm=NAIVE, workload=_gnp(num_nodes), seed=seed)

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
        assert rebuilt == gnp_random_graph(12, 0.4, seed=6)
        assert _cell_graph(cell) is rebuilt
