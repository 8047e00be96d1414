"""The ``repro serve`` / ``submit`` / ``status`` / ``worker`` verbs."""

from __future__ import annotations

import filecmp
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.api.specs import AlgorithmSpec, SweepSpec, WorkloadSpec
from repro.api.store import run_sweep


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _spec_file(tmp_path, seeds=(1, 2)):
    spec = SweepSpec(
        experiment="cli-service",
        algorithms=(
            AlgorithmSpec("theorem2-listing", {"repetitions": 1, "epsilon": 0.5}),
            AlgorithmSpec("naive-two-hop"),
        ),
        workload=WorkloadSpec("gnp", {"num_nodes": 16, "edge_probability": 0.5}),
        seeds=seeds,
    )
    path = tmp_path / "sweep.json"
    path.write_text(spec.to_json(indent=2), encoding="utf-8")
    return spec, path


@pytest.fixture
def served_root(tmp_path):
    """``repro serve`` as a real subprocess, stopped (and checked) on exit."""
    root = tmp_path / "svc"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(root), "--workers", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    deadline = time.monotonic() + 30.0
    while not (root / "service.json").exists():
        if process.poll() is not None or time.monotonic() > deadline:
            out, err = process.communicate(timeout=5)
            raise AssertionError(f"serve did not come up: {out!r} {err!r}")
        time.sleep(0.05)
    yield root
    if process.poll() is None:
        main(["serve", str(root), "--stop"])
        process.wait(timeout=30)
    assert process.returncode == 0


class TestServeSubmitStatus:
    def test_full_round_trip(self, capsys, served_root, tmp_path):
        spec, spec_path = _spec_file(tmp_path)
        serial = tmp_path / "serial.jsonl"
        run_sweep(spec, serial)

        out_path = tmp_path / "fleet.jsonl"
        code, out, _ = _run(
            capsys,
            "submit", str(served_root), str(spec_path),
            "--out", str(out_path), "--json",
        )
        assert code == 0
        job = json.loads(out)["job"]
        assert job["state"] == "done"
        assert job["cells_done"] == 4
        assert filecmp.cmp(serial, out_path, shallow=False)

        code, out, _ = _run(capsys, "status", str(served_root), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["service"]["managed_workers"] == 1
        assert any(entry["state"] == "done" for entry in payload["jobs"])

        code, out, _ = _run(capsys, "status", str(served_root))
        assert code == 0
        assert "cells/s" in out and str(out_path) in out

    def test_submit_default_out_is_next_to_the_spec(
        self, capsys, served_root, tmp_path
    ):
        spec, spec_path = _spec_file(tmp_path, seeds=(1,))
        code, out, _ = _run(capsys, "submit", str(served_root), str(spec_path))
        assert code == 0
        assert spec_path.with_suffix(".records.jsonl").exists()
        assert "cells/s" in out and "first record" in out

    def test_submit_no_wait_returns_immediately(
        self, capsys, served_root, tmp_path
    ):
        from repro.service import ServiceClient

        _, spec_path = _spec_file(tmp_path, seeds=(1,))
        out_path = tmp_path / "fleet.jsonl"
        code, out, _ = _run(
            capsys,
            "submit", str(served_root), str(spec_path),
            "--out", str(out_path), "--no-wait",
        )
        assert code == 0
        assert "repro status" in out
        with ServiceClient.connect(served_root) as client:
            job_id = client.status()["jobs"][-1]["id"]
            job = client.wait_job(job_id, timeout=60)
        assert job["state"] == "done"

    def test_submit_progress_lines_go_to_stderr(
        self, capsys, served_root, tmp_path
    ):
        _, spec_path = _spec_file(tmp_path, seeds=(1,))
        code, _, err = _run(
            capsys,
            "submit", str(served_root), str(spec_path),
            "--out", str(tmp_path / "fleet.jsonl"),
        )
        assert code == 0
        assert "/2 cells" in err


class TestServiceCliErrors:
    def test_submit_without_a_service_exits_2(self, capsys, tmp_path):
        _, spec_path = _spec_file(tmp_path, seeds=(1,))
        code, _, err = _run(capsys, "submit", str(tmp_path), str(spec_path))
        assert code == 2
        assert "no experiment service" in err

    def test_status_without_a_service_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "status", str(tmp_path))
        assert code == 2
        assert "no experiment service" in err

    def test_stop_without_a_service_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "serve", str(tmp_path), "--stop")
        assert code == 2
        assert "no experiment service" in err

    def test_serve_help_lists_no_transport_option(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "--heartbeat-timeout" in out
        assert "--plane" not in out
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(tmp_path / "svc"), "--plane", "shm"])
        assert exit_info.value.code == 2
        assert "--plane" in capsys.readouterr().err
        assert not (tmp_path / "svc").exists()

    def test_serve_rejects_a_heartbeat_timeout_that_evicts_everyone(
        self, capsys, tmp_path
    ):
        code, _, err = _run(
            capsys, "serve", str(tmp_path / "svc"), "--heartbeat-timeout", "0"
        )
        assert code == 2
        assert "heartbeat_timeout" in err
        assert not (tmp_path / "svc" / "service.json").exists()

    def test_submit_rejects_a_run_spec(self, capsys, served_root, tmp_path):
        from repro.api.specs import RunSpec

        spec = RunSpec(
            algorithm=AlgorithmSpec("naive-two-hop"),
            workload=WorkloadSpec("cycle", {"num_nodes": 6}),
        )
        path = tmp_path / "run.json"
        path.write_text(spec.to_json(), encoding="utf-8")
        code, _, err = _run(capsys, "submit", str(served_root), str(path))
        assert code == 2
        assert "sweep" in err

    def test_submit_missing_spec_file_exits_2(self, capsys, tmp_path):
        code, _, err = _run(
            capsys, "submit", str(tmp_path), str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "cannot read spec file" in err


def _slow_spec_file(tmp_path, probe_spec, seeds=(1, 2), slow_seconds=1.5):
    """A probe sweep whose cells sleep — leases stay open long enough
    to be interrupted mid-flight."""
    spec = probe_spec(seeds=seeds, slow_seconds=slow_seconds)
    path = tmp_path / "slow-sweep.json"
    path.write_text(spec.to_json(indent=2), encoding="utf-8")
    return spec, path


def _spawn(*argv):
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def _wait_for_service(root, process, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not (root / "service.json").exists():
        if process.poll() is not None or time.monotonic() > deadline:
            out, err = process.communicate(timeout=5)
            raise AssertionError(f"serve did not come up: {out!r} {err!r}")
        time.sleep(0.05)


def _wait_for_job(root, predicate, timeout=30.0):
    """Poll the newest job's status until ``predicate(job)`` holds."""
    from repro.service import ServiceClient

    deadline = time.monotonic() + timeout
    while True:
        with ServiceClient.connect(root) as client:
            jobs = client.status()["jobs"]
            if jobs and predicate(jobs[-1]):
                return jobs[-1]
        if time.monotonic() > deadline:
            raise AssertionError(f"job never reached the expected state: {jobs}")
        time.sleep(0.05)


class TestGracefulShutdown:
    """SIGTERM mid-lease: exit 0, requeued lease, byte-identical resume."""

    def test_sigterm_dispatcher_mid_lease_then_resume(
        self, capsys, tmp_path, probe_spec, serial_store
    ):
        spec, spec_path = _slow_spec_file(tmp_path, probe_spec)
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        root = tmp_path / "svc"
        out_path = tmp_path / "fleet.jsonl"

        serve = _spawn(
            "serve", str(root), "--workers", "1",
            "--preload", "repro.service.probes",
        )
        try:
            _wait_for_service(root, serve)
            code, _, _ = _run(
                capsys,
                "submit", str(root), str(spec_path),
                "--out", str(out_path), "--no-wait",
            )
            assert code == 0
            _wait_for_job(root, lambda job: job["cells_leased"] >= 1)
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=30) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait(timeout=10)
        assert not (root / "service.json").exists()

        # The interrupted store is a valid prefix; a restarted service
        # resumes it and the final file matches the serial run exactly.
        serve = _spawn(
            "serve", str(root), "--workers", "1",
            "--preload", "repro.service.probes",
        )
        try:
            _wait_for_service(root, serve)
            code, out, _ = _run(
                capsys,
                "submit", str(root), str(spec_path),
                "--out", str(out_path), "--resume", "--json",
            )
            assert code == 0
            assert json.loads(out)["job"]["state"] == "done"
        finally:
            main(["serve", str(root), "--stop"])
            assert serve.wait(timeout=30) == 0
        assert filecmp.cmp(serial, out_path, shallow=False)

    def test_sigterm_worker_mid_lease_requeues_and_completes(
        self, capsys, tmp_path, probe_spec, serial_store
    ):
        spec, spec_path = _slow_spec_file(tmp_path, probe_spec)
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        root = tmp_path / "svc"
        out_path = tmp_path / "fleet.jsonl"

        serve = _spawn(
            "serve", str(root), "--workers", "0",
            "--preload", "repro.service.probes",
        )
        worker = None
        replacement = None
        try:
            _wait_for_service(root, serve)
            worker = _spawn(
                "worker", str(root), "--preload", "repro.service.probes"
            )
            code, _, _ = _run(
                capsys,
                "submit", str(root), str(spec_path),
                "--out", str(out_path), "--no-wait",
            )
            assert code == 0
            _wait_for_job(root, lambda job: job["cells_leased"] >= 1)

            worker.send_signal(signal.SIGTERM)
            assert worker.wait(timeout=30) == 0

            # The abandoned lease is revoked and its cell requeued; the
            # job keeps running, waiting for capacity.
            job = _wait_for_job(
                root,
                lambda job: job["state"] == "running"
                and job["cells_leased"] == 0
                and job["cells_pending"] >= 1,
            )
            assert job["cells_done"] < job["cells_total"]

            replacement = _spawn(
                "worker", str(root), "--preload", "repro.service.probes"
            )
            job = _wait_for_job(
                root, lambda job: job["state"] != "running", timeout=60.0
            )
            assert job["state"] == "done"
        finally:
            for process in (worker, replacement):
                if process is not None and process.poll() is None:
                    process.terminate()
                    process.wait(timeout=10)
            main(["serve", str(root), "--stop"])
            assert serve.wait(timeout=30) == 0
        assert filecmp.cmp(serial, out_path, shallow=False)


class TestReproPreload:
    def test_env_preload_registers_modules(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_PRELOAD", "repro.service.probes")
        code, out, _ = _run(capsys, "list", "--json")
        assert code == 0
        names = {entry["name"] for entry in json.loads(out)["algorithms"]}
        assert "service-probe" in names

    def test_env_preload_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PRELOAD", "no.such.module")
        code, _, err = _run(capsys, "list")
        assert code == 2
        assert "no.such.module" in err
