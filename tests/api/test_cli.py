"""The ``repro`` CLI: subcommands, JSON output, exit codes."""

from __future__ import annotations

import filecmp
import json

import pytest

from repro.api import AlgorithmSpec, RunSpec, SweepSpec, WorkloadSpec
from repro.api.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _sweep_spec_file(tmp_path, seeds=(1, 2)):
    spec = SweepSpec(
        experiment="cli-sweep",
        algorithms=(
            AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5}),
            AlgorithmSpec("naive-two-hop"),
        ),
        workload=WorkloadSpec("gnp", {"num_nodes": 18, "edge_probability": 0.5}),
        seeds=seeds,
    )
    path = tmp_path / "sweep.json"
    path.write_text(spec.to_json(indent=2), encoding="utf-8")
    return path


class TestList:
    def test_human_listing(self, capsys):
        code, out, _ = _run(capsys, "list")
        assert code == 0
        assert "theorem2-listing" in out
        assert "gnp" in out

    def test_json_listing(self, capsys):
        code, out, _ = _run(capsys, "list", "--json")
        assert code == 0
        payload = json.loads(out)
        names = {entry["name"] for entry in payload["algorithms"]}
        assert "theorem2-listing" in names
        workloads = {entry["name"] for entry in payload["workloads"]}
        assert {"gnp", "ba", "random-regular"} <= workloads
        for entry in payload["algorithms"]:
            assert "parameters" in entry

    def test_filtered_listing(self, capsys):
        code, out, _ = _run(capsys, "list", "workloads", "--json")
        assert code == 0
        payload = json.loads(out)
        assert "workloads" in payload and "algorithms" not in payload


class TestRun:
    def test_run_from_flags_json(self, capsys):
        code, out, _ = _run(
            capsys,
            "run",
            "--algorithm", "theorem2-listing",
            "--algorithm-params", '{"repetitions": 1, "epsilon": 0.5}',
            "--workload", "gnp",
            "--workload-params", '{"num_nodes": 18, "edge_probability": 0.5}',
            "--seed", "3",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        record = payload["record"]
        assert record["seed"] == 3
        assert record["sound"] is True
        assert record["rounds"] > 0

    def test_run_from_spec_file(self, capsys, tmp_path):
        spec = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("gnp", {"num_nodes": 16, "edge_probability": 0.5}),
            seed=5,
        )
        path = tmp_path / "run.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        code, out, _ = _run(capsys, "run", "--spec", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"] == spec.to_dict()

    def test_run_counting_uses_native_result(self, capsys):
        code, out, _ = _run(
            capsys,
            "run",
            "--algorithm", "triangle-counting",
            "--workload", "gnp",
            "--workload-params", '{"num_nodes": 14, "edge_probability": 0.6}',
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "total_triangles" in payload["result"]

    def test_run_out_appends_record_line(self, capsys, tmp_path):
        out_file = tmp_path / "records.jsonl"
        code, _, _ = _run(
            capsys,
            "run",
            "--algorithm", "naive-two-hop",
            "--workload", "cycle",
            "--workload-params", '{"num_nodes": 9}',
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["record"]["algorithm"] == "naive-two-hop"

    def test_unknown_algorithm_exits_2(self, capsys):
        code, _, err = _run(
            capsys, "run", "--algorithm", "nope", "--workload", "gnp"
        )
        assert code == 2
        assert "registered algorithms" in err

    def test_missing_arguments_exit_2(self, capsys):
        code, _, err = _run(capsys, "run")
        assert code == 2
        assert "--spec" in err


class TestSweep:
    def test_sweep_and_resume_byte_identical(self, capsys, tmp_path):
        spec_path = _sweep_spec_file(tmp_path)
        one_shot = tmp_path / "one_shot.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        code, _, _ = _run(capsys, "sweep", str(spec_path), "--out", str(one_shot))
        assert code == 0
        code, out, _ = _run(
            capsys,
            "sweep", str(spec_path), "--out", str(resumed), "--max-cells", "2",
        )
        assert code == 0
        assert "2/4 cells" in out
        code, _, _ = _run(
            capsys, "sweep", str(spec_path), "--out", str(resumed), "--resume"
        )
        assert code == 0
        assert filecmp.cmp(one_shot, resumed, shallow=False)

    def test_sweep_json_output(self, capsys, tmp_path):
        spec_path = _sweep_spec_file(tmp_path, seeds=(1,))
        out_file = tmp_path / "records.jsonl"
        code, out, _ = _run(
            capsys, "sweep", str(spec_path), "--out", str(out_file), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cells_total"] == 2
        assert payload["cells_completed"] == 2
        assert len(payload["records"]) == 2
        assert payload["records"][0]["record"]["sound"] is True

    def test_sweep_refuses_existing_out_without_resume(self, capsys, tmp_path):
        spec_path = _sweep_spec_file(tmp_path, seeds=(1,))
        out_file = tmp_path / "records.jsonl"
        assert _run(capsys, "sweep", str(spec_path), "--out", str(out_file))[0] == 0
        code, _, err = _run(capsys, "sweep", str(spec_path), "--out", str(out_file))
        assert code == 2
        assert "--resume" in err

    def test_sweep_rejects_run_spec(self, capsys, tmp_path):
        run_spec = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 6}),
        )
        path = tmp_path / "run.json"
        path.write_text(run_spec.to_json(), encoding="utf-8")
        code, _, err = _run(capsys, "sweep", str(path))
        assert code == 2
        assert "repro run" in err

    @pytest.mark.parametrize("flag", ["--retries", "--max-cells"])
    def test_sweep_rejects_negative_counts_before_writing(
        self, capsys, tmp_path, flag
    ):
        spec_path = _sweep_spec_file(tmp_path, seeds=(1,))
        out_file = tmp_path / "records.jsonl"
        code, _, err = _run(
            capsys,
            "sweep", str(spec_path), "--out", str(out_file),
            "--workers", "2", flag, "-1",
        )
        assert code == 2
        assert flag.lstrip("-").replace("-", "_") in err
        # No header-only store is left behind to block the next run.
        assert not out_file.exists()

    def test_help_lists_no_transport_option(self, capsys, tmp_path):
        # The workload transport is chosen by rule; `--plane` is gone and
        # an old command line that still passes it is refused.
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--workers" in out
        assert "--plane" not in out
        spec_path = _sweep_spec_file(tmp_path, seeds=(1,))
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", str(spec_path), "--workers", "2", "--plane", "shm"])
        assert exit_info.value.code == 2
        assert "--plane" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "sweep", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read spec file" in err


class TestTable1:
    def test_human_table(self, capsys):
        code, out, _ = _run(capsys, "table1", "--num-nodes", "500")
        assert code == 0
        assert "Theorem 1" in out and "Theorem 2" in out

    def test_json_table(self, capsys):
        code, out, _ = _run(capsys, "table1", "--num-nodes", "500", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["num_nodes"] == 500
        assert payload["predicted_rounds"]["theorem2-listing-congest"] > 0


class TestEntryPoints:
    @staticmethod
    def _env():
        import os
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        return env

    def test_python_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            env=self._env(),
        )
        assert result.returncode == 0
        assert "repro" in result.stdout

    def test_python_m_repro_api(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.api", "list", "algorithms"],
            capture_output=True,
            text=True,
            env=self._env(),
        )
        assert result.returncode == 0
        assert "theorem2-listing" in result.stdout


class TestReviewRegressions:
    """Fixes from the pre-merge review, pinned."""

    def test_schema_valid_but_bad_constructor_value_exits_2(self, capsys):
        # `kernel` is a valid parameter name, so registry validation passes
        # and the failure surfaces as the constructor's ValueError; the CLI
        # must still turn it into exit code 2, not a traceback.
        for kernel in ("turbo", "pernode"):
            code, _, err = _run(
                capsys,
                "run",
                "--algorithm", "theorem1-finding",
                "--algorithm-params", json.dumps({"kernel": kernel}),
                "--workload", "gnp",
                "--workload-params", '{"num_nodes": 10, "edge_probability": 0.5}',
            )
            assert code == 2
            assert "kernel" in err

    def test_run_spec_missing_workload_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(
            '{"schema": 1, "kind": "run", "algorithm": {"name": "naive-two-hop"}}',
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "run", "--spec", str(path))
        assert code == 2
        assert "workload" in err

    def test_counting_run_out_persists_native_result(self, capsys, tmp_path):
        out_file = tmp_path / "counting.jsonl"
        code, _, _ = _run(
            capsys,
            "run",
            "--algorithm", "triangle-counting",
            "--workload", "gnp",
            "--workload-params", '{"num_nodes": 12, "edge_probability": 0.6}',
            "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["result"]["total_triangles"] >= 0

    def test_malformed_nested_spec_fields_exit_2(self, capsys, tmp_path):
        # algorithm given as a bare string instead of an object
        path = tmp_path / "bad1.json"
        path.write_text(
            '{"schema": 1, "kind": "run", "algorithm": "theorem1-finding", '
            '"workload": {"name": "gnp", "params": {}}}',
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "run", "--spec", str(path))
        assert code == 2
        assert "JSON object" in err
        # algorithm object missing its name
        path = tmp_path / "bad2.json"
        path.write_text(
            '{"schema": 1, "kind": "run", "algorithm": {}, '
            '"workload": {"name": "gnp", "params": {}}}',
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "run", "--spec", str(path))
        assert code == 2
        assert "missing 'name'" in err

    def test_malformed_sweep_arrays_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad3.json"
        path.write_text(
            '{"schema": 1, "kind": "sweep", "experiment": "e", '
            '"algorithms": "naive-two-hop", '
            '"workload": {"name": "gnp", "params": {}}, "seeds": [1]}',
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "sweep", str(path))
        assert code == 2
        assert "JSON array" in err
        path = tmp_path / "bad4.json"
        path.write_text(
            '{"schema": 1, "kind": "sweep", "experiment": "e", '
            '"algorithms": [{"name": "naive-two-hop"}], '
            '"workload": {"name": "gnp", "params": {}}, "seeds": [[1]]}',
            encoding="utf-8",
        )
        code, _, err = _run(capsys, "sweep", str(path))
        assert code == 2
        assert "integers" in err

    def test_spec_combined_with_flags_exits_2(self, capsys, tmp_path):
        spec = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 6}),
        )
        path = tmp_path / "run.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        code, _, err = _run(capsys, "run", "--spec", str(path), "--seed", "42")
        assert code == 2
        assert "--seed" in err

    def test_unwritable_out_path_exits_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            "run",
            "--algorithm", "naive-two-hop",
            "--workload", "cycle",
            "--workload-params", '{"num_nodes": 6}',
            "--out", str(tmp_path / "no-such-dir" / "out.jsonl"),
        )
        assert code == 2
        assert "repro: error:" in err


class TestSweepDiagnostics:
    """PR-8 satellites: --progress, plane diagnostics, cache counters."""

    def test_progress_lines_go_to_stderr(self, capsys, tmp_path):
        path = _sweep_spec_file(tmp_path, seeds=(1,))
        code, out, err = _run(
            capsys, "sweep", str(path),
            "--out", str(tmp_path / "records.jsonl"),
            "--progress",
        )
        assert code == 0
        # One leading line with the resumed state, then one per cell.
        lines = [line for line in err.splitlines() if "cells" in line]
        assert lines[0] == "sweep 'cli-sweep': 0/2 cells"
        assert lines[-1] == "sweep 'cli-sweep': 2/2 cells"
        assert "0/2" not in out

    def test_json_pins_the_plane_diagnostic_keys(self, capsys, tmp_path):
        path = _sweep_spec_file(tmp_path, seeds=(1,))
        code, out, _ = _run(
            capsys, "sweep", str(path),
            "--out", str(tmp_path / "records.jsonl"),
            "--json",
        )
        assert code == 0
        plane = json.loads(out)["plane"]
        assert {
            "plane",
            "cells",
            "cache_hits",
            "executed",
            "pickled_bytes_per_cell",
        } == set(plane)
        assert plane["cells"] == 2
        assert plane["executed"] == 2

    def test_text_summary_reports_plane_and_cache_counters(
        self, capsys, tmp_path
    ):
        path = _sweep_spec_file(tmp_path, seeds=(1,))
        cache_dir = tmp_path / "cache"
        code, out, _ = _run(
            capsys, "sweep", str(path),
            "--out", str(tmp_path / "first.jsonl"),
            "--cache", str(cache_dir),
        )
        assert code == 0
        assert "plane=" in out and "bytes_per_cell=" in out
        assert "workloads_shared=" not in out
        assert "2 new" in out
        code, out, _ = _run(
            capsys, "sweep", str(path),
            "--out", str(tmp_path / "second.jsonl"),
            "--cache", str(cache_dir),
        )
        assert code == 0
        assert "2 hits" in out and "0 misses" in out

    def test_json_reports_cache_stats(self, capsys, tmp_path):
        path = _sweep_spec_file(tmp_path, seeds=(1,))
        cache_dir = tmp_path / "cache"
        _run(
            capsys, "sweep", str(path),
            "--out", str(tmp_path / "first.jsonl"),
            "--cache", str(cache_dir),
        )
        code, out, _ = _run(
            capsys, "sweep", str(path),
            "--out", str(tmp_path / "second.jsonl"),
            "--cache", str(cache_dir), "--json",
        )
        assert code == 0
        stats = json.loads(out)["cache"]
        assert stats["hits"] == 2
        assert stats["misses"] == 0
