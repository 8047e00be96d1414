"""JSONL store: append, resume, byte-identical reproduction."""

from __future__ import annotations

import filecmp
import json

import pytest

from repro.analysis import SweepRunner
from repro.api import (
    AlgorithmSpec,
    RecordStore,
    SweepSpec,
    WorkloadSpec,
    load_sweep,
    run_sweep,
)
from repro.errors import AnalysisError


def _spec(experiment="store-test", num_nodes=20, seeds=(1, 2, 3)):
    return SweepSpec(
        experiment=experiment,
        algorithms=(
            AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5}),
            AlgorithmSpec("naive-two-hop"),
        ),
        workload=WorkloadSpec(
            "gnp", {"num_nodes": num_nodes, "edge_probability": 0.5}
        ),
        seeds=seeds,
    )


class TestRunSweep:
    def test_one_shot_sweep_records_every_cell(self, tmp_path):
        spec = _spec()
        stored = run_sweep(spec, tmp_path / "records.jsonl")
        assert stored.completed_cells() == set(range(6))
        grouped = stored.records_by_label()
        assert set(grouped) == {"theorem2-listing", "naive-two-hop"}
        assert all(len(records) == 3 for records in grouped.values())

    def test_stored_records_match_spec_run(self, tmp_path):
        spec = _spec()
        stored = run_sweep(spec, tmp_path / "records.jsonl")
        with SweepRunner() as runner:
            direct = spec.run(runner)
        assert stored.records_by_label() == direct

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        """The acceptance criterion: kill mid-sweep, resume, compare bytes."""
        spec = _spec()
        one_shot = tmp_path / "one_shot.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        run_sweep(spec, one_shot)
        # "Kill" the sweep after two cells, then resume it (twice, to cover
        # repeated interruption).
        partial = run_sweep(spec, resumed, max_cells=2)
        assert partial.completed_cells() == {0, 1}
        partial = run_sweep(spec, resumed, resume=True, max_cells=1)
        assert partial.completed_cells() == {0, 1, 2}
        run_sweep(spec, resumed, resume=True)
        assert filecmp.cmp(one_shot, resumed, shallow=False)

    @pytest.mark.parametrize("count", ["retries", "max_cells"])
    def test_negative_count_leaves_a_partial_store_untouched(
        self, tmp_path, count
    ):
        # Both counts are checked before the store is opened, so a bad
        # resume neither truncates nor appends to the partial file.
        spec = _spec()
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path, max_cells=2)
        before = path.read_bytes()
        with pytest.raises(AnalysisError, match=f"{count} must be non-negative"):
            run_sweep(spec, path, resume=True, **{count: -1})
        assert path.read_bytes() == before
        with pytest.raises(AnalysisError, match=count):
            run_sweep(spec, tmp_path / "fresh.jsonl", **{count: -1})
        assert not (tmp_path / "fresh.jsonl").exists()

    def test_parallel_runner_matches_serial_bytes(self, tmp_path):
        spec = _spec(seeds=(1, 2))
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_sweep(spec, serial)
        with SweepRunner(max_workers=2) as runner:
            run_sweep(spec, parallel, runner=runner)
        assert filecmp.cmp(serial, parallel, shallow=False)

    def test_resume_with_truncated_final_line(self, tmp_path):
        """A crash mid-write leaves a partial line; resume must heal it."""
        spec = _spec()
        one_shot = tmp_path / "one_shot.jsonl"
        crashed = tmp_path / "crashed.jsonl"
        run_sweep(spec, one_shot)
        run_sweep(spec, crashed, max_cells=2)
        with crashed.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "cell": 2, "trunca')
        run_sweep(spec, crashed, resume=True)
        # Resume truncates the partial tail and reruns that cell, so the
        # healed file is again byte-identical to the one-shot run.
        assert filecmp.cmp(one_shot, crashed, shallow=False)

    def test_existing_file_without_resume_is_refused(self, tmp_path):
        spec = _spec()
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path, max_cells=1)
        with pytest.raises(AnalysisError, match="resume"):
            run_sweep(spec, path)

    def test_resume_against_different_spec_is_refused(self, tmp_path):
        path = tmp_path / "records.jsonl"
        run_sweep(_spec(), path, max_cells=1)
        with pytest.raises(AnalysisError, match="different sweep spec"):
            run_sweep(_spec(num_nodes=24), path, resume=True)

    def test_resume_against_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"kind": "something-else"}\n', encoding="utf-8")
        with pytest.raises(AnalysisError, match="sweep header"):
            run_sweep(_spec(), path, resume=True)

    def test_unsweepable_algorithm_is_refused(self, tmp_path):
        spec = SweepSpec(
            experiment="count",
            algorithms=(AlgorithmSpec("triangle-counting"),),
            workload=WorkloadSpec("gnp", {"num_nodes": 12, "edge_probability": 0.6}),
            seeds=(1,),
        )
        with pytest.raises(AnalysisError, match="cannot be swept"):
            run_sweep(spec, tmp_path / "records.jsonl")


class TestRecordStore:
    def test_lines_are_canonical_json(self, tmp_path):
        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path)
        for line in path.read_text(encoding="utf-8").splitlines():
            payload = json.loads(line)
            assert line == json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )

    def test_header_carries_the_spec(self, tmp_path):
        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path)
        stored = load_sweep(path)
        assert stored.spec == spec

    def test_corrupt_interior_line_is_an_error(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("not json\n{}\n", encoding="utf-8")
        with pytest.raises(AnalysisError, match="not valid JSON"):
            RecordStore(path).read_all()


class TestReviewRegressions:
    """Fixes from the pre-merge review, pinned."""

    def test_resume_after_crash_during_header_write(self, tmp_path):
        """A partial header line must not wedge --resume forever."""
        spec = _spec()
        one_shot = tmp_path / "one_shot.jsonl"
        crashed = tmp_path / "crashed.jsonl"
        run_sweep(spec, one_shot)
        crashed.write_text('{"kind": "sweep-header", "schema": 1, "sp', encoding="utf-8")
        run_sweep(spec, crashed, resume=True)
        assert filecmp.cmp(one_shot, crashed, shallow=False)

    def test_record_line_missing_fields_is_an_error(self, tmp_path):
        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path, max_cells=1)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "cell": 1}\n')
        with pytest.raises(AnalysisError, match="missing"):
            run_sweep(spec, path, resume=True)

    def test_duplicate_cell_records_are_an_error(self, tmp_path):
        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        with path.open("a", encoding="utf-8") as handle:
            handle.write(lines[1] + "\n")  # replay an already-stored cell
        with pytest.raises(AnalysisError, match="duplicate record for cell"):
            load_sweep(path)

    def test_header_schema_matches_spec_schema_version(self, tmp_path):
        from repro.api import SPEC_SCHEMA_VERSION

        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path)
        header = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert header["schema"] == SPEC_SCHEMA_VERSION


class TestSweepStoreWriter:
    """The in-order writer behind both run_sweep and the service dispatcher."""

    def _reference(self, spec, tmp_path):
        """Serial ground truth plus each cell's raw record document."""
        from repro.api import SweepStoreWriter  # noqa: F401  (exported)

        reference = tmp_path / "reference.jsonl"
        stored = run_sweep(spec, reference)
        docs = {cell: record.to_dict() for cell, _, record in stored.entries}
        return reference, docs

    def test_out_of_order_writes_are_flushed_in_cell_order(self, tmp_path):
        from repro.api import SweepStoreWriter

        spec = _spec()
        reference, docs = self._reference(spec, tmp_path)
        path = tmp_path / "records.jsonl"
        writer = SweepStoreWriter(spec, path)
        assert writer.pending() == list(range(6))
        # A fleet finishes cells in whatever order leases land.
        for cell in (3, 5, 1, 0, 4, 2):
            writer.write(cell, docs[cell])
        assert writer.buffered == 0
        assert writer.done == set(range(6))
        assert filecmp.cmp(reference, path, shallow=False)

    def test_buffered_records_wait_for_the_gap_cell(self, tmp_path):
        from repro.api import SweepStoreWriter

        spec = _spec()
        _, docs = self._reference(spec, tmp_path)
        writer = SweepStoreWriter(spec, tmp_path / "records.jsonl")
        writer.write(2, docs[2])
        writer.write(1, docs[1])
        assert writer.buffered == 2
        assert writer.written == 0
        assert writer.pending() == [0, 3, 4, 5]
        writer.write(0, docs[0])
        assert writer.buffered == 0
        assert writer.written == 3
        # stored() reflects the file, never the buffer.
        assert {cell for cell, _, _ in writer.stored().entries} == {0, 1, 2}

    def test_duplicate_and_out_of_range_writes_are_refused(self, tmp_path):
        from repro.api import SweepStoreWriter

        spec = _spec()
        _, docs = self._reference(spec, tmp_path)
        writer = SweepStoreWriter(spec, tmp_path / "records.jsonl")
        writer.write(0, docs[0])
        with pytest.raises(AnalysisError, match="already has a record"):
            writer.write(0, docs[0])
        writer.write(2, docs[2])  # buffered, not yet written
        with pytest.raises(AnalysisError, match="already has a record"):
            writer.write(2, docs[2])
        with pytest.raises(AnalysisError, match="outside the spec"):
            writer.write(99, docs[0])

    def test_malformed_record_fails_before_touching_the_file(self, tmp_path):
        from repro.api import SweepStoreWriter

        spec = _spec()
        path = tmp_path / "records.jsonl"
        writer = SweepStoreWriter(spec, path)
        before = path.read_bytes()
        with pytest.raises(AnalysisError):
            writer.write(0, {"not": "a record"})
        assert path.read_bytes() == before
        assert writer.buffered == 0

    def test_resume_adopts_the_prefix_and_stays_byte_identical(self, tmp_path):
        from repro.api import SweepStoreWriter

        spec = _spec()
        reference, docs = self._reference(spec, tmp_path)
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path, max_cells=2)
        writer = SweepStoreWriter(spec, path, resume=True)
        assert writer.done == {0, 1}
        assert writer.pending() == [2, 3, 4, 5]
        for cell in (5, 4, 3, 2):
            writer.write(cell, docs[cell])
        assert filecmp.cmp(reference, path, shallow=False)

    def test_existing_file_without_resume_is_refused(self, tmp_path):
        from repro.api import SweepStoreWriter

        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path, max_cells=1)
        with pytest.raises(AnalysisError, match="already exists"):
            SweepStoreWriter(spec, path)

    def test_resume_against_a_different_spec_is_refused(self, tmp_path):
        from repro.api import SweepStoreWriter

        path = tmp_path / "records.jsonl"
        run_sweep(_spec(seeds=(1,)), path)
        with pytest.raises(AnalysisError, match="different sweep"):
            SweepStoreWriter(_spec(seeds=(1, 2)), path, resume=True)


class TestRunSweepProgress:
    def test_progress_reports_every_completed_cell(self, tmp_path):
        spec = _spec(seeds=(1,))
        calls = []
        run_sweep(
            spec,
            tmp_path / "records.jsonl",
            progress=lambda done, total: calls.append((done, total)),
        )
        # One leading call with the resumed state, then one per cell.
        assert calls[0] == (0, 2)
        assert calls[1:] == [(1, 2), (2, 2)]

    def test_progress_sees_the_resumed_prefix(self, tmp_path):
        spec = _spec(seeds=(1,))
        path = tmp_path / "records.jsonl"
        run_sweep(spec, path, max_cells=1)
        calls = []
        run_sweep(
            spec,
            path,
            resume=True,
            progress=lambda done, total: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2)]
