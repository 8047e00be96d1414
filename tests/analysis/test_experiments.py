"""Tests for the experiment harness."""

import pickle
from collections import OrderedDict

import pytest

from repro.analysis import experiments
from repro.analysis import (
    ExperimentRecord,
    SweepRunner,
    mean_recall,
    run_single,
)
from repro.api import AlgorithmSpec, RunSpec, SweepSpec, WorkloadSpec
from repro.core import NaiveTwoHopListing
from repro.errors import AnalysisError
from repro.graphs import complete_graph, gnp_random_graph

NAIVE = AlgorithmSpec("naive-two-hop")
LISTING = AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5})


def _naive_algorithm():
    return NaiveTwoHopListing()


def _gnp_workload(num_nodes, seed):
    return gnp_random_graph(num_nodes, 0.4, seed=seed)


def _gnp_spec(num_nodes):
    return WorkloadSpec("gnp", {"num_nodes": num_nodes, "edge_probability": 0.4})


def _cells(algorithm, num_nodes, seeds, experiment="sweep"):
    return [
        RunSpec(
            algorithm=algorithm,
            workload=_gnp_spec(num_nodes),
            seed=seed,
            experiment=experiment,
        )
        for seed in seeds
    ]


def _size_sweep(algorithm, sizes, seeds_per_size, base_seed=0):
    """One cell per (size, repeat), seeds spawned from ``base_seed``."""
    seeds = SweepRunner.spawn_seeds(base_seed, len(sizes) * seeds_per_size)
    return [
        RunSpec(
            algorithm=algorithm,
            workload=_gnp_spec(size),
            seed=seeds[index * seeds_per_size + repeat],
            experiment="sweep",
        )
        for index, size in enumerate(sizes)
        for repeat in range(seeds_per_size)
    ]


class TestRunSingle:
    def test_record_fields(self):
        graph = gnp_random_graph(15, 0.4, seed=1)
        record = run_single("unit", NaiveTwoHopListing(), graph, seed=1, extra={"p": 0.4})
        assert record.experiment == "unit"
        assert record.algorithm == "naive-two-hop"
        assert record.num_nodes == 15
        assert record.rounds == graph.max_degree()
        assert record.sound
        assert record.solves_listing
        assert record.extra == {"p": 0.4}

    def test_as_dict_flattens_extra(self):
        graph = complete_graph(5)
        record = run_single("unit", NaiveTwoHopListing(), graph, seed=0, extra={"tag": 1})
        flattened = record.as_dict()
        assert flattened["tag"] == 1
        assert flattened["num_triangles"] == 10


class TestSweepRunner:
    def test_parallel_records_byte_identical_to_serial(self):
        cells = _size_sweep(LISTING, [12, 16, 20], seeds_per_size=2, base_seed=7)
        serial = SweepRunner().run_cells(cells)
        with SweepRunner(max_workers=2) as runner:
            parallel = runner.run_cells(cells)
        assert serial == parallel
        for left, right in zip(serial, parallel):
            assert pickle.dumps(left) == pickle.dumps(right)

    def test_record_order_follows_cell_order(self):
        cells = [
            RunSpec(algorithm=NAIVE, workload=_gnp_spec(num_nodes), seed=seed)
            for num_nodes, seed in [(18, 3), (10, 1), (14, 2)]
        ]
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(cells)
        assert [record.num_nodes for record in records] == [18, 10, 14]
        assert [record.seed for record in records] == [3, 1, 2]

    def test_cells_match_run_spec_run(self):
        cells = _cells(NAIVE, 12, [1, 2, 3], experiment="rep")
        with SweepRunner(max_workers=2) as runner:
            parallel = runner.run_cells(cells)
        assert parallel == [cell.run() for cell in cells]

    def test_spawn_seeds_deterministic_and_independent(self):
        first = SweepRunner.spawn_seeds(42, 6)
        second = SweepRunner.spawn_seeds(42, 6)
        assert first == second
        assert len(set(first)) == 6
        assert SweepRunner.spawn_seeds(43, 6) != first
        assert SweepRunner.spawn_seeds(42, 0) == []
        assert all(seed >= 0 for seed in first)

    def test_aggregation_api_unchanged_on_sweep_records(self):
        with SweepRunner(max_workers=2) as runner:
            records = runner.run_cells(
                _size_sweep(NAIVE, [10, 14], seeds_per_size=2)
            )
        assert len(records) == 4
        assert {record.num_nodes for record in records} == {10, 14}
        assert all(record.sound for record in records)
        assert 0.0 <= mean_recall(records) <= 1.0

    def test_serial_when_single_worker(self):
        runner = SweepRunner(max_workers=1)
        assert not runner.parallel
        records = runner.run_cells(_cells(NAIVE, 10, [5]))
        assert len(records) == 1 and records[0].seed == 5

    def test_validation(self):
        with pytest.raises(AnalysisError):
            SweepRunner(max_workers=0)
        with pytest.raises(AnalysisError):
            SweepRunner.spawn_seeds(1, -1)
        with pytest.raises(AnalysisError, match="base seed .*-3"):
            SweepRunner.spawn_seeds(-3, 2)


class TestAggregation:
    def test_mean_recall(self):
        records = SweepRunner().run_cells(_cells(LISTING, 14, [1, 2]))
        assert 0.0 <= mean_recall(records) <= 1.0

    def test_mean_recall_empty(self):
        with pytest.raises(AnalysisError):
            mean_recall([])


@pytest.fixture
def workload_builds(monkeypatch):
    """Count workload builds in this process, on an empty workload cache."""
    builds = []
    real_build = WorkloadSpec.build

    def counting_build(self, seed=None):
        builds.append(seed)
        return real_build(self, seed=seed)

    monkeypatch.setattr(experiments, "_GRAPH_CACHE", OrderedDict())
    monkeypatch.setattr(WorkloadSpec, "build", counting_build)
    return builds


class TestPersistentRunner:
    def test_pool_persists_across_sweeps_and_closes(self):
        cells = _cells(NAIVE, 12, [1, 2], experiment="persist")
        runner = SweepRunner(max_workers=2)
        assert runner._pool is None
        first = runner.run_cells(cells)
        pool = runner._pool
        assert pool is not None
        second = runner.run_cells(cells)
        assert runner._pool is pool
        assert first == second
        runner.close()
        assert runner._pool is None
        # The runner stays usable after close.
        third = runner.run_cells(cells)
        assert third == first
        runner.close()

    def test_context_manager_closes_pool(self):
        with SweepRunner(max_workers=2) as runner:
            runner.run_cells(_cells(NAIVE, 10, [1, 2], experiment="ctx"))
            assert runner._pool is not None
        assert runner._pool is None

    def test_worker_graph_cache_reuses_workloads(self, workload_builds):
        cells = _cells(NAIVE, 12, [5, 6], experiment="cache")
        runner = SweepRunner()  # serial: cache observable in-process
        first = runner.run_cells(cells)
        assert workload_builds == [5, 6]
        second = runner.run_cells(cells)
        # Same (workload, seed) cells: graphs come from the cache.
        assert workload_builds == [5, 6]
        assert first == second

    def test_sweep_spec_shares_workloads_across_algorithms(self, workload_builds):
        spec = SweepSpec(
            experiment="grid",
            algorithms=(NAIVE, LISTING),
            workload=_gnp_spec(14),
            seeds=(3, 4),
        )
        grid = spec.run(SweepRunner())
        # Two algorithms x two seeds, but each workload built once per seed
        # (the grid is workload-major, so cached graphs are shared).
        assert workload_builds == [3, 4]
        assert sorted(grid) == ["naive-two-hop", "theorem2-listing"]
        expected = SweepRunner().run_cells(_cells(NAIVE, 14, [3, 4], "grid"))
        assert grid["naive-two-hop"] == expected

    def test_sweep_spec_parallel_matches_serial(self):
        spec = SweepSpec(
            experiment="grid", algorithms=(NAIVE,), workload=_gnp_spec(12),
            seeds=(1, 2),
        )
        serial = spec.run()
        with SweepRunner(max_workers=2) as runner:
            parallel = spec.run(runner)
        assert parallel == serial


class TestIterCells:
    def test_streaming_order_matches_run_cells(self):
        cells = _cells(NAIVE, 10, (1, 2, 3), experiment="stream")
        runner = SweepRunner()
        streamed = list(runner.iter_cells(cells))
        assert streamed == runner.run_cells(cells)
        assert [record.seed for record in streamed] == [1, 2, 3]

    def test_parallel_streaming_matches_serial(self):
        cells = _cells(NAIVE, 10, (1, 2, 3), experiment="stream")
        serial = SweepRunner().run_cells(cells)
        with SweepRunner(max_workers=2) as runner:
            assert list(runner.iter_cells(cells)) == serial


class TestRecordSerialization:
    def test_to_dict_round_trips(self):
        record = run_single(
            "serde",
            _naive_algorithm(),
            _gnp_workload(10, 3),
            seed=3,
            extra={"note": "x"},
        )
        clone = ExperimentRecord.from_dict(record.to_dict())
        assert clone == record

    def test_as_dict_still_flattens_extra(self):
        record = run_single(
            "serde", _naive_algorithm(), _gnp_workload(10, 3), seed=3,
            extra={"note": "x"},
        )
        flat = record.as_dict()
        assert flat["note"] == "x"
        assert "extra" not in flat
        nested = record.to_dict()
        assert nested["extra"] == {"note": "x"}

    def test_from_dict_rejects_unknown_and_missing_fields(self):
        record = run_single("serde", _naive_algorithm(), _gnp_workload(10, 3), seed=3)
        payload = record.to_dict()
        payload["bogus"] = 1
        with pytest.raises(AnalysisError, match="unknown"):
            ExperimentRecord.from_dict(payload)
        del payload["bogus"]
        del payload["rounds"]
        with pytest.raises(AnalysisError, match="missing"):
            ExperimentRecord.from_dict(payload)
