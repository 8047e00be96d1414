"""Content-addressed result cache: hashing, hits, and sweep integration."""

from __future__ import annotations

import errno
import filecmp
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import SweepRunner
from repro.analysis import experiments as experiments_module
from repro.api import (
    AlgorithmSpec,
    ResultCache,
    RunSpec,
    SweepSpec,
    WorkloadSpec,
    main,
    run_sweep,
)
from repro.errors import AnalysisError, StoreError


def _run_spec(seed=7, experiment="golden", algorithm=None, workload=None):
    return RunSpec(
        algorithm=algorithm
        or AlgorithmSpec("naive-two-hop", {}),
        workload=workload
        or WorkloadSpec("gnp", {"num_nodes": 24, "edge_probability": 0.4}),
        seed=seed,
        experiment=experiment,
    )


def _sweep_spec():
    return SweepSpec(
        experiment="cache-sweep",
        algorithms=(
            AlgorithmSpec("naive-two-hop", {}),
            AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5}),
        ),
        workload=WorkloadSpec("gnp", {"num_nodes": 24, "edge_probability": 0.4}),
        seeds=(1, 2),
    )


class TestContentHash:
    def test_golden_hash_is_stable(self):
        # Pinned across sessions/machines: the canonical-JSON sha256 of the
        # spec document.  If this changes, every existing cache is orphaned
        # — bump deliberately, never accidentally.
        assert _run_spec().content_hash() == (
            "22a63f4e338c27252a9a03b867218dd058a9ea6cc36490010c14803260879053"
        )
        assert _run_spec(
            algorithm=AlgorithmSpec(
                "theorem2-listing", {"repetitions": 1, "epsilon": 0.5}
            )
        ).content_hash() == (
            "e169eadd0d2e55c8c4579d0c73fffaf1abbdadc77bcf5adeb499a9a8dce2617e"
        )

    def test_hash_matches_json_round_trip(self):
        spec = _run_spec()
        clone = RunSpec.from_json(spec.to_json())
        assert clone.content_hash() == spec.content_hash()

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        experiment=st.text(min_size=1, max_size=16),
        num_nodes=st.integers(min_value=2, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_field_change_changes_hash(self, seed, experiment, num_nodes):
        base = _run_spec()
        varied = RunSpec(
            algorithm=base.algorithm,
            workload=WorkloadSpec(
                "gnp", {"num_nodes": num_nodes, "edge_probability": 0.4}
            ),
            seed=seed,
            experiment=experiment,
        )
        if varied.to_dict() == base.to_dict():
            assert varied.content_hash() == base.content_hash()
        else:
            assert varied.content_hash() != base.content_hash()


class TestResultCache:
    def test_miss_then_hit_round_trips_record(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        assert cache.get(spec) is None
        record = spec.run()
        assert cache.put(spec, record)
        assert cache.get(spec) == record
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)

    def test_put_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        record = spec.run()
        assert cache.put(spec, record)
        assert not cache.put(spec, record)
        assert cache.writes == 1

    def test_entry_is_self_describing_canonical_json(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        cache.put(spec, spec.run())
        digest = spec.content_hash()
        path = tmp_path / "cache" / digest[:2] / f"{digest}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["kind"] == "cached-record"
        assert payload["hash"] == digest
        assert payload["run"] == spec.to_dict()

    def test_mismatched_entry_is_an_error_not_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        cache.put(spec, spec.run())
        digest = spec.content_hash()
        path = tmp_path / "cache" / digest[:2] / f"{digest}.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["run"]["seed"] = 999  # hand-edit the stored identity
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(AnalysisError, match="does not match"):
            cache.get(spec)

    def test_foreign_file_is_an_error(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        digest = spec.content_hash()
        path = tmp_path / "cache" / digest[:2] / f"{digest}.json"
        path.parent.mkdir(parents=True)
        path.write_text('{"kind": "something-else"}', encoding="utf-8")
        with pytest.raises(AnalysisError, match="not a result-cache entry"):
            cache.get(spec)

    def test_stats_entries_evict_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = [_run_spec(seed=seed) for seed in (1, 2, 3)]
        for spec in specs:
            cache.put(spec, spec.run())
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] > 0
        listed = cache.entries()
        assert {entry["seed"] for entry in listed} == {1, 2, 3}
        assert all(entry["algorithm"] == "naive-two-hop" for entry in listed)
        assert cache.evict(specs[0].content_hash())
        assert not cache.evict(specs[0].content_hash())
        assert cache.stats()["entries"] == 2
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_evict_rejects_non_hashes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(AnalysisError, match="sha256"):
            cache.evict("../../etc/passwd")


class TestCacheFullDisk:
    """A full disk mid-put must leave the cache clean and recoverable."""

    def test_enospc_on_replace_raises_and_leaves_no_tmp_litter(
        self, tmp_path, monkeypatch
    ):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        record = spec.run()

        def full_disk(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", full_disk)
        with pytest.raises(StoreError, match="cannot write cache entry"):
            cache.put(spec, record)
        monkeypatch.undo()

        # No .tmp litter, no truncated entry under the hash.
        litter = [
            path
            for path in (tmp_path / "cache").rglob("*")
            if path.is_file()
        ]
        assert litter == []
        assert cache.writes == 0
        assert cache.get(spec) is None  # a clean miss, not corruption

        # Once space frees up the same put succeeds and round-trips.
        assert cache.put(spec, record)
        assert cache.get(spec) == record

    def test_enospc_while_writing_the_tmp_file(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        spec = _run_spec()
        record = spec.run()
        real_write_text = Path.write_text

        def full_disk(self, *args, **kwargs):
            if self.name.endswith(".tmp"):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        with pytest.raises(StoreError, match="No space left"):
            cache.put(spec, record)
        monkeypatch.undo()
        assert list((tmp_path / "cache").rglob("*.tmp")) == []
        assert cache.put(spec, record)
        assert cache.get(spec) == record


class TestSweepCacheIntegration:
    def test_warm_cache_sweep_executes_nothing(self, tmp_path, monkeypatch):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, tmp_path / "first.jsonl", cache=cache)
        assert cache.writes == len(spec.cells())

        def forbidden(cell):
            raise AssertionError("a warm-cache sweep must execute nothing")

        monkeypatch.setattr(experiments_module, "_execute_cell", forbidden)
        with SweepRunner(max_workers=2) as runner:
            stored = run_sweep(
                spec, tmp_path / "second.jsonl", runner=runner, cache=cache
            )
            assert runner.last_plane["executed"] == 0
            assert runner.last_plane["cache_hits"] == len(spec.cells())
        assert len(stored.entries) == len(spec.cells())

    def test_parallel_sweep_over_partial_cache_matches_serial_bytes(
        self, tmp_path
    ):
        spec = _sweep_spec()
        run_sweep(spec, tmp_path / "serial.jsonl")
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, tmp_path / "warmup.jsonl", cache=cache, max_cells=1)
        with SweepRunner(max_workers=2) as runner:
            run_sweep(spec, tmp_path / "mixed.jsonl", runner=runner, cache=cache)
            assert runner.last_plane["plane"] == "pickle"
            assert runner.last_plane["cache_hits"] == 1
            assert runner.last_plane["executed"] == len(spec.cells()) - 1
        assert filecmp.cmp(
            tmp_path / "serial.jsonl", tmp_path / "mixed.jsonl", shallow=False
        )

    def test_cache_hits_reproduce_store_byte_for_byte(self, tmp_path):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, tmp_path / "first.jsonl", cache=cache)
        run_sweep(spec, tmp_path / "second.jsonl", cache=cache)
        assert filecmp.cmp(
            tmp_path / "first.jsonl", tmp_path / "second.jsonl", shallow=False
        )

    def test_resume_over_warm_cache_does_not_double_write(self, tmp_path):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "partial.jsonl"
        run_sweep(spec, path, cache=cache, max_cells=2)
        writes_after_partial = cache.writes
        assert writes_after_partial == 2
        run_sweep(spec, path, cache=cache, resume=True)
        # The two resumed-over cells came from the store, not the runner:
        # they must not be re-put (nor re-executed) against the cache.
        assert cache.writes == writes_after_partial + (len(spec.cells()) - 2)
        assert cache.hits == 0

    def test_cache_and_no_cache_sweeps_agree(self, tmp_path):
        spec = _sweep_spec()
        cache = ResultCache(tmp_path / "cache")
        cached = run_sweep(spec, tmp_path / "cached.jsonl", cache=cache)
        plain = run_sweep(spec, tmp_path / "plain.jsonl")
        assert cached.entries == plain.entries


class TestCliCache:
    def _write_run_spec(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(_run_spec().to_json(), encoding="utf-8")
        return str(path)

    def test_run_cache_hit_round_trip(self, tmp_path, capsys):
        spec_path = self._write_run_spec(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "--spec", spec_path, "--cache", cache_dir, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache"] == {
            "hit": False,
            "hash": _run_spec().content_hash(),
        }
        assert main(["run", "--spec", spec_path, "--cache", cache_dir, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache"]["hit"] is True
        assert second["record"] == first["record"]

    def test_cache_verb_reports_and_evicts(self, tmp_path, capsys):
        spec_path = self._write_run_spec(tmp_path)
        cache_dir = str(tmp_path / "cache")
        main(["run", "--spec", spec_path, "--cache", cache_dir, "--json"])
        capsys.readouterr()
        assert main(["cache", cache_dir, "--entries", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 1
        assert payload["entry_list"][0]["hash"] == _run_spec().content_hash()
        assert (
            main(["cache", cache_dir, "--evict", _run_spec().content_hash(), "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 0
        assert payload["evicted"] == [_run_spec().content_hash()]

    def test_sweep_cache_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(_sweep_spec().to_json(), encoding="utf-8")
        cache_dir = str(tmp_path / "cache")
        out_one = str(tmp_path / "one.jsonl")
        out_two = str(tmp_path / "two.jsonl")
        argv = ["sweep", str(spec_path), "--cache", cache_dir, "--json"]
        assert main(argv + ["--out", out_one]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache"]["writes"] == 4
        assert first["plane"]["cache_hits"] == 0
        assert main(argv + ["--out", out_two]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache"]["hits"] == 4
        assert second["plane"]["executed"] == 0
        assert second["records"] == first["records"]
