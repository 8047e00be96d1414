"""Tests for the experiment harness."""

import functools
import pickle

import pytest

from repro.analysis import (
    ExperimentRecord,
    SweepCell,
    SweepRunner,
    all_sound,
    describe_workload,
    mean_recall,
    mean_rounds_by_size,
    run_repeated,
    run_single,
    run_size_sweep,
)
from repro.core import NaiveTwoHopListing, TriangleListing
from repro.errors import AnalysisError
from repro.graphs import complete_graph, gnp_random_graph


# Sweep factories must live at module level: SweepRunner ships cells to
# worker processes, so they have to pickle.
def _naive_algorithm():
    return NaiveTwoHopListing()


def _listing_algorithm():
    return TriangleListing(repetitions=1, epsilon=0.5)


def _gnp_workload(num_nodes, seed):
    return gnp_random_graph(num_nodes, 0.4, seed=seed)


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


class TestRunRepeated:
    def test_records_per_seed(self):
        records = run_repeated(
            "repeat",
            lambda: NaiveTwoHopListing(),
            lambda seed: gnp_random_graph(12, 0.4, seed=seed),
            seeds=[1, 2, 3],
        )
        assert len(records) == 3
        assert {record.seed for record in records} == {1, 2, 3}
        assert all_sound(records)

    def test_needs_seeds(self):
        with pytest.raises(AnalysisError):
            run_repeated("x", lambda: NaiveTwoHopListing(), lambda s: complete_graph(4), seeds=[])


class TestRunSizeSweep:
    def test_sweep_sizes(self):
        records = run_size_sweep(
            "sweep",
            lambda: NaiveTwoHopListing(),
            lambda n, seed: gnp_random_graph(n, 0.4, seed=seed),
            sizes=[10, 14],
            seeds_per_size=2,
        )
        assert len(records) == 4
        assert {record.num_nodes for record in records} == {10, 14}
        means = mean_rounds_by_size(records)
        assert set(means) == {10, 14}

    def test_validation(self):
        with pytest.raises(AnalysisError):
            run_size_sweep("x", lambda: NaiveTwoHopListing(), lambda n, s: complete_graph(n), sizes=[])
        with pytest.raises(AnalysisError):
            run_size_sweep(
                "x",
                lambda: NaiveTwoHopListing(),
                lambda n, s: complete_graph(n),
                sizes=[4],
                seeds_per_size=0,
            )


class TestSweepRunner:
    def test_parallel_records_byte_identical_to_serial(self):
        kwargs = dict(
            experiment="sweep",
            algorithm_factory=_listing_algorithm,
            graph_factory=_gnp_workload,
            sizes=[12, 16, 20],
            seeds_per_size=2,
            base_seed=7,
        )
        serial = SweepRunner().run_size_sweep(**kwargs)
        parallel = SweepRunner(max_workers=2).run_size_sweep(**kwargs)
        assert serial == parallel
        for left, right in zip(serial, parallel):
            assert pickle.dumps(left) == pickle.dumps(right)

    def test_record_order_follows_cell_order(self):
        cells = [
            SweepCell(
                experiment="order",
                algorithm_factory=_naive_algorithm,
                graph_factory=functools.partial(_gnp_workload, num_nodes),
                seed=seed,
            )
            for num_nodes, seed in [(18, 3), (10, 1), (14, 2)]
        ]
        records = SweepRunner(max_workers=2).run_cells(cells)
        assert [record.num_nodes for record in records] == [18, 10, 14]
        assert [record.seed for record in records] == [3, 1, 2]

    def test_run_repeated_matches_module_helper(self):
        seeds = [1, 2, 3]
        expected = run_repeated(
            "rep",
            _naive_algorithm,
            functools.partial(_gnp_workload, 12),
            seeds=seeds,
        )
        parallel = SweepRunner(max_workers=2).run_repeated(
            "rep",
            _naive_algorithm,
            functools.partial(_gnp_workload, 12),
            seeds=seeds,
        )
        assert parallel == expected

    def test_spawn_seeds_deterministic_and_independent(self):
        first = SweepRunner.spawn_seeds(42, 6)
        second = SweepRunner.spawn_seeds(42, 6)
        assert first == second
        assert len(set(first)) == 6
        assert SweepRunner.spawn_seeds(43, 6) != first
        assert SweepRunner.spawn_seeds(42, 0) == []
        assert all(seed >= 0 for seed in first)

    def test_aggregation_api_unchanged_on_sweep_records(self):
        records = SweepRunner(max_workers=2).run_size_sweep(
            "agg",
            _naive_algorithm,
            _gnp_workload,
            sizes=[10, 14],
            seeds_per_size=2,
        )
        assert len(records) == 4
        assert set(mean_rounds_by_size(records)) == {10, 14}
        assert all_sound(records)
        assert 0.0 <= mean_recall(records) <= 1.0

    def test_serial_when_single_worker(self):
        runner = SweepRunner(max_workers=1)
        assert not runner.parallel
        records = runner.run_repeated(
            "serial", _naive_algorithm, functools.partial(_gnp_workload, 10), seeds=[5]
        )
        assert len(records) == 1 and records[0].seed == 5

    def test_validation(self):
        with pytest.raises(AnalysisError):
            SweepRunner(max_workers=0)
        with pytest.raises(AnalysisError):
            SweepRunner().run_repeated("x", _naive_algorithm, _gnp_workload, seeds=[])
        with pytest.raises(AnalysisError):
            SweepRunner().run_size_sweep("x", _naive_algorithm, _gnp_workload, sizes=[])
        with pytest.raises(AnalysisError):
            SweepRunner.spawn_seeds(1, -1)


class TestAggregation:
    def test_mean_recall(self):
        records = run_repeated(
            "agg",
            lambda: TriangleListing(repetitions=1, epsilon=0.5),
            lambda seed: gnp_random_graph(14, 0.4, seed=seed),
            seeds=[1, 2],
        )
        assert 0.0 <= mean_recall(records) <= 1.0

    def test_mean_recall_empty(self):
        with pytest.raises(AnalysisError):
            mean_recall([])

    def test_describe_workload(self):
        description = describe_workload(complete_graph(5))
        assert description["num_nodes"] == 5
        assert description["num_edges"] == 10
        assert description["num_triangles"] == 10
        assert description["max_degree"] == 4
        assert description["density"] == pytest.approx(1.0)


class _CountingWorkload:
    """Picklable graph factory that counts in-process invocations."""

    calls = 0

    def __init__(self, num_nodes):
        self.num_nodes = num_nodes

    def __call__(self, seed):
        type(self).calls += 1
        return gnp_random_graph(self.num_nodes, 0.4, seed=seed)

    def __eq__(self, other):
        return isinstance(other, _CountingWorkload) and other.num_nodes == self.num_nodes

    def __reduce__(self):
        return (_CountingWorkload, (self.num_nodes,))


class TestPersistentRunner:
    def test_pool_persists_across_sweeps_and_closes(self):
        runner = SweepRunner(max_workers=2)
        assert runner._pool is None
        first = runner.run_repeated(
            "persist", _naive_algorithm, functools.partial(_gnp_workload, 12), [1, 2]
        )
        pool = runner._pool
        assert pool is not None
        second = runner.run_repeated(
            "persist", _naive_algorithm, functools.partial(_gnp_workload, 12), [1, 2]
        )
        assert runner._pool is pool
        assert first == second
        runner.close()
        assert runner._pool is None
        # The runner stays usable after close.
        third = runner.run_repeated(
            "persist", _naive_algorithm, functools.partial(_gnp_workload, 12), [1, 2]
        )
        assert third == first
        runner.close()

    def test_context_manager_closes_pool(self):
        with SweepRunner(max_workers=2) as runner:
            runner.run_repeated(
                "ctx", _naive_algorithm, functools.partial(_gnp_workload, 10), [1, 2]
            )
            assert runner._pool is not None
        assert runner._pool is None

    def test_worker_graph_cache_reuses_workloads(self):
        _CountingWorkload.calls = 0
        factory = _CountingWorkload(12)
        runner = SweepRunner()  # serial: cache observable in-process
        first = runner.run_repeated("cache", _naive_algorithm, factory, [5, 6])
        assert _CountingWorkload.calls == 2
        second = runner.run_repeated("cache", _naive_algorithm, factory, [5, 6])
        # Same (factory, seed) cells: graphs come from the cache.
        assert _CountingWorkload.calls == 2
        assert first == second

    def test_run_grid_shares_workloads_across_algorithms(self):
        _CountingWorkload.calls = 0
        factory = _CountingWorkload(14)
        runner = SweepRunner()
        grid = runner.run_grid(
            "grid",
            {"naive": _naive_algorithm, "listing": _listing_algorithm},
            factory,
            seeds=[3, 4],
        )
        # Two algorithms x two seeds, but each workload built once per seed
        # (the grid is workload-major, so cached graphs are shared).
        assert _CountingWorkload.calls == 2
        assert sorted(grid) == ["listing", "naive"]
        expected = SweepRunner().run_repeated("grid", _naive_algorithm, factory, [3, 4])
        assert grid["naive"] == expected

    def test_run_grid_parallel_matches_serial(self):
        factory = functools.partial(_gnp_workload, 12)
        serial = SweepRunner().run_grid(
            "grid", {"naive": _naive_algorithm}, factory, seeds=[1, 2]
        )
        with SweepRunner(max_workers=2) as runner:
            parallel = runner.run_grid(
                "grid", {"naive": _naive_algorithm}, factory, seeds=[1, 2]
            )
        assert parallel == serial

    def test_run_grid_validation(self):
        runner = SweepRunner()
        with pytest.raises(AnalysisError):
            runner.run_grid("grid", {"a": _naive_algorithm}, _CountingWorkload(8), [])
        with pytest.raises(AnalysisError):
            runner.run_grid("grid", {}, _CountingWorkload(8), [1])


class TestPicklabilityValidation:
    """Unpicklable cells fail eagerly with a named cell, not a pool traceback."""

    def test_parallel_lambda_cell_raises_analysis_error(self):
        cells = [
            SweepCell(
                experiment="bad",
                algorithm_factory=_naive_algorithm,
                graph_factory=functools.partial(_gnp_workload, 10),
                seed=1,
            ),
            SweepCell(
                experiment="bad",
                algorithm_factory=lambda: NaiveTwoHopListing(),  # unpicklable
                graph_factory=functools.partial(_gnp_workload, 10),
                seed=2,
            ),
        ]
        with SweepRunner(max_workers=2) as runner:
            with pytest.raises(AnalysisError, match=r"cell 1 .*seed=2.* not picklable"):
                runner.run_cells(cells)

    def test_serial_lambda_cells_still_run(self):
        cells = [
            SweepCell(
                experiment="ok",
                algorithm_factory=lambda: NaiveTwoHopListing(),
                graph_factory=lambda seed: complete_graph(5),
                seed=1,
            )
        ]
        records = SweepRunner().run_cells(cells)
        assert len(records) == 1 and records[0].sound


class TestIterCells:
    def test_streaming_order_matches_run_cells(self):
        cells = [
            SweepCell(
                experiment="stream",
                algorithm_factory=_naive_algorithm,
                graph_factory=functools.partial(_gnp_workload, 10),
                seed=seed,
            )
            for seed in (1, 2, 3)
        ]
        runner = SweepRunner()
        streamed = list(runner.iter_cells(cells))
        assert streamed == runner.run_cells(cells)
        assert [record.seed for record in streamed] == [1, 2, 3]

    def test_parallel_streaming_matches_serial(self):
        cells = [
            SweepCell(
                experiment="stream",
                algorithm_factory=_naive_algorithm,
                graph_factory=functools.partial(_gnp_workload, 10),
                seed=seed,
            )
            for seed in (1, 2, 3)
        ]
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
