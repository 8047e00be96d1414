"""End-to-end fleet behaviour: byte-identity, warmth, and fault paths.

Every test here runs a real dispatcher with real (subprocess) workers
and holds the service to its core contract: the JSONL store a fleet job
produces is byte-for-byte the file a serial ``run_sweep`` writes — under
out-of-order completion, worker death, lease expiry, eviction, restart
and resume.
"""

from __future__ import annotations

import filecmp
import os
import signal
import time
from collections import OrderedDict

import pytest

from repro.analysis import experiments
from repro.api.specs import AlgorithmSpec, RunSpec, SweepSpec, WorkloadSpec
from repro.api.store import ResultCache, load_sweep, run_sweep
from repro.errors import ServiceError
from repro.service import Dispatcher, ServiceClient
from repro.service.protocol import PROTOCOL_VERSION, recv_frame, send_frame
from repro.service.worker import execute_lease

# "fleet-test-only-probe" (used by the failure-path tests below) is
# registered by the session-scoped conftest fixture: it resolves in the
# test/dispatcher process but never in the workers.


def wait_for(predicate, timeout=20.0, poll=0.05, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll)
    raise AssertionError(f"timed out waiting for {message}")


class TestByteIdentity:
    def test_fleet_store_matches_serial_bytes(
        self, fleet, tmp_path, probe_spec, serial_store
    ):
        spec = probe_spec()
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        with ServiceClient.connect(fleet.root) as client:
            job = client.submit(spec.to_dict(), out=out)
            job = client.wait_job(job["id"], timeout=60)
        assert job["state"] == "done"
        assert job["cells_done"] == job["cells_total"] == 6
        assert "plane" not in job
        assert job["first_record_seconds"] is not None
        assert job["cells_per_second"] > 0
        assert filecmp.cmp(serial, out, shallow=False)

    def test_pickle_plane_fleet_matches_serial_bytes(
        self, service_root, tmp_path, probe_spec, serial_store, probe_preload
    ):
        spec = probe_spec(seeds=(1, 2))
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        with Dispatcher(
            service_root, workers=1, preload=probe_preload
        ) as dispatcher:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out)
                job = client.wait_job(job["id"], timeout=60)
        assert job["state"] == "done"
        assert filecmp.cmp(serial, out, shallow=False)

    def test_second_job_reuses_warm_workers(
        self, fleet, tmp_path, probe_spec, serial_store
    ):
        spec = probe_spec(seeds=(1, 2))
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        with ServiceClient.connect(fleet.root) as client:
            # Status lists connected workers only; a managed worker still
            # starting up would join between the two snapshots.
            wait_for(
                lambda: len(client.status()["workers"]) == 2,
                message="both managed workers to connect",
            )
            job = client.submit(spec.to_dict(), out=tmp_path / "first.jsonl")
            client.wait_job(job["id"], timeout=60)
            pids_before = {w["pid"] for w in client.status()["workers"]}
            job = client.submit(spec.to_dict(), out=tmp_path / "second.jsonl")
            client.wait_job(job["id"], timeout=60)
            status = client.status()
        # Same processes served both jobs.
        assert {w["pid"] for w in status["workers"]} == pids_before
        assert filecmp.cmp(serial, tmp_path / "first.jsonl", shallow=False)
        assert filecmp.cmp(serial, tmp_path / "second.jsonl", shallow=False)

    def test_lease_frame_carries_only_the_run_spec(
        self, service_root, tmp_path, probe_spec, serial_store
    ):
        # A hand-driven worker: the dispatcher's lease frames must hold the
        # cell's run spec and nothing else, and executing them in-process
        # must still reproduce the serial store.
        spec = probe_spec(seeds=(1,))
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        with Dispatcher(service_root, workers=0) as dispatcher:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out)
                sock = dispatcher.address.connect(timeout=5.0)
                try:
                    send_frame(
                        sock,
                        {
                            "type": "hello",
                            "role": "worker",
                            "pid": os.getpid(),
                            "protocol": PROTOCOL_VERSION,
                        },
                    )
                    assert recv_frame(sock)["type"] == "welcome"
                    for cell, run in enumerate(spec.run_specs()):
                        send_frame(sock, {"type": "ready"})
                        lease = recv_frame(sock)
                        assert set(lease) == {
                            "type", "lease_id", "job", "cell", "label", "run",
                        }
                        assert lease["cell"] == cell
                        assert RunSpec.from_dict(lease["run"]) == run
                        send_frame(
                            sock,
                            {
                                "type": "record",
                                "lease_id": lease["lease_id"],
                                "job": lease["job"],
                                "cell": lease["cell"],
                                "record": execute_lease(lease).to_dict(),
                            },
                        )
                    job = client.wait_job(job["id"], timeout=30)
                finally:
                    sock.close()
        assert job["state"] == "done"
        assert filecmp.cmp(serial, out, shallow=False)

    def test_worker_builds_each_workload_once_across_jobs(
        self, probe_spec, monkeypatch
    ):
        # What keeps a fleet worker warm: leases of different jobs and
        # algorithms over one (workload, seed) share the worker's cached
        # graph instead of rebuilding it.
        builds = []
        real_build = WorkloadSpec.build

        def counting_build(self, seed=None):
            builds.append(seed)
            return real_build(self, seed=seed)

        monkeypatch.setattr(experiments, "_GRAPH_CACHE", OrderedDict())
        monkeypatch.setattr(WorkloadSpec, "build", counting_build)
        for experiment in ("first-job", "second-job"):
            spec = probe_spec(seeds=(1, 2), experiment=experiment)
            for run in spec.run_specs():
                execute_lease({"run": run.to_dict()})
        assert sorted(builds) == [1, 2]

    def test_cache_hits_skip_execution(
        self, fleet, tmp_path, probe_spec, serial_store
    ):
        spec = probe_spec(seeds=(1, 2))
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        cache_dir = tmp_path / "cache"
        with ServiceClient.connect(fleet.root) as client:
            job = client.submit(
                spec.to_dict(), out=tmp_path / "first.jsonl", cache=cache_dir
            )
            job = client.wait_job(job["id"], timeout=60)
            assert job["cache_hits"] == 0
            job = client.submit(
                spec.to_dict(), out=tmp_path / "second.jsonl", cache=cache_dir
            )
            job = client.wait_job(job["id"], timeout=60)
        assert job["state"] == "done"
        assert job["cache_hits"] == job["cells_total"]
        assert job["executed"] == 0
        assert filecmp.cmp(serial, tmp_path / "second.jsonl", shallow=False)
        assert ResultCache(cache_dir).stats()["entries"] == job["cells_total"]

    def test_max_cells_prefix_matches_serial(
        self, fleet, tmp_path, probe_spec
    ):
        spec = probe_spec(seeds=(1, 2))
        serial_partial = tmp_path / "serial.jsonl"
        run_sweep(spec, serial_partial, max_cells=3)
        out = tmp_path / "fleet.jsonl"
        with ServiceClient.connect(fleet.root) as client:
            job = client.submit(spec.to_dict(), out=out, max_cells=3)
            job = client.wait_job(job["id"], timeout=60)
        assert job["state"] == "done"
        assert job["cells_done"] == 3
        assert job["cells_skipped"] == 1
        assert filecmp.cmp(serial_partial, out, shallow=False)


class TestFaultPaths:
    def test_worker_killed_mid_cell_requeues_without_duplicates(
        self, service_root, tmp_path, probe_spec, serial_store, probe_preload
    ):
        spec = probe_spec(seeds=(1, 2), slow_seconds=1.0)
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        with Dispatcher(
            service_root,
            workers=2,
            preload=probe_preload,
            heartbeat_interval=0.3,
            lease_timeout=30.0,
        ) as dispatcher:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out)

                def executing_pid():
                    for worker in client.status()["workers"]:
                        if worker["lease"] is not None and worker["pid"]:
                            return worker["pid"]
                    return None

                pid = wait_for(executing_pid, message="a worker holding a lease")
                os.kill(pid, signal.SIGKILL)
                job = client.wait_job(job["id"], timeout=90)
        assert job["state"] == "done"
        assert job["cells_done"] == job["cells_total"]
        # Exactly-once recording: the store parses (no duplicate cells)
        # and is byte-identical to the serial ground truth.
        assert len(load_sweep(out).entries) == job["cells_total"]
        assert filecmp.cmp(serial, out, shallow=False)

    def test_stale_heartbeat_worker_is_evicted(
        self, service_root, tmp_path, probe_spec, serial_store, probe_preload
    ):
        spec = probe_spec(seeds=(1,), slow_seconds=2.0)
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        stopped = None
        dispatcher = Dispatcher(
            service_root,
            workers=2,
            preload=probe_preload,
            heartbeat_interval=0.2,
            heartbeat_timeout=0.8,
            lease_timeout=120.0,  # only eviction may requeue in this test
        )
        dispatcher.start()
        try:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out)

                def executing():
                    for worker in client.status()["workers"]:
                        if worker["lease"] is not None and worker["pid"]:
                            return worker
                    return None

                victim = wait_for(executing, message="a worker holding a lease")
                stopped = victim["pid"]
                os.kill(stopped, signal.SIGSTOP)
                job = client.wait_job(job["id"], timeout=90)
                status = client.status()
            assert job["state"] == "done"
            assert status["service"]["evictions"] >= 1
            assert all(
                worker["id"] != victim["id"] for worker in status["workers"]
            )
            assert filecmp.cmp(serial, out, shallow=False)
        finally:
            if stopped is not None:
                try:
                    os.kill(stopped, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            dispatcher.stop()

    def test_expired_lease_requeues_and_late_duplicate_is_dropped(
        self, service_root, tmp_path, serial_store, probe_preload
    ):
        # One slow cell, a lease far shorter than the cell: the first
        # worker's lease expires and the cell is re-leased while the
        # first worker is still (alive and) computing.  Both eventually
        # deliver; exactly one record lands.
        spec = SweepSpec(
            experiment="fleet-test",
            algorithms=(
                AlgorithmSpec(
                    "service-probe", {"scale": 1, "sleep_seconds": 1.5}
                ),
            ),
            workload=WorkloadSpec(
                "gnp", {"num_nodes": 20, "edge_probability": 0.3}
            ),
            seeds=(5,),
        )
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        with Dispatcher(
            service_root,
            workers=2,
            preload=probe_preload,
            heartbeat_interval=0.2,
            lease_timeout=0.5,
        ) as dispatcher:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out)
                job = client.wait_job(job["id"], timeout=90)
                # Give the second copy of the record time to arrive (and
                # be dropped) before tearing the fleet down.
                time.sleep(1.0)
                job = client.job_status(job["id"])
        assert job["state"] == "done"
        assert job["expired_leases"] >= 1
        assert job["cells_done"] == 1
        assert len(load_sweep(out).entries) == 1
        assert filecmp.cmp(serial, out, shallow=False)

    def test_dispatcher_restart_resumes_partial_store(
        self, service_root, tmp_path, probe_spec, serial_store, probe_preload
    ):
        spec = probe_spec(seeds=(1, 2))
        serial = serial_store(spec, tmp_path / "serial.jsonl")
        out = tmp_path / "fleet.jsonl"
        with Dispatcher(
            service_root, workers=1, preload=probe_preload
        ) as dispatcher:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out, max_cells=2)
                job = client.wait_job(job["id"], timeout=60)
        assert job["cells_done"] == 2
        # A brand-new dispatcher (fresh process state, same root) picks the
        # partial store up exactly where the first left it.
        with Dispatcher(
            service_root, workers=1, preload=probe_preload
        ) as dispatcher:
            with ServiceClient.connect(dispatcher.root) as client:
                job = client.submit(spec.to_dict(), out=out, resume=True)
                job = client.wait_job(job["id"], timeout=60)
        assert job["state"] == "done"
        assert job["cells_resumed"] == 2
        assert job["cells_done"] == job["cells_total"]
        assert filecmp.cmp(serial, out, shallow=False)

    def test_failing_cell_is_quarantined_and_the_store_completes(
        self, fleet, tmp_path
    ):
        """A cell that fails in every worker is quarantined after K tries.

        ``fleet-test-only-probe`` resolves in the dispatcher but not in
        the workers, so each of its cells fails every attempt.  Under
        quarantine the job still finishes: each poison cell is retried
        exactly ``max_cell_attempts`` times, then recorded as a
        cell-error line holding its position in the store.
        """
        spec = SweepSpec(
            experiment="fleet-test",
            algorithms=(AlgorithmSpec("fleet-test-only-probe"),),
            workload=WorkloadSpec(
                "gnp", {"num_nodes": 20, "edge_probability": 0.3}
            ),
            seeds=(1, 2),
        )
        out = tmp_path / "fleet.jsonl"
        with ServiceClient.connect(fleet.root) as client:
            job = client.submit(spec.to_dict(), out=out)
            job = client.wait_job(job["id"], timeout=60)
        assert job["state"] == "done"
        assert job["quarantined"] == job["cells_total"] == 2
        for entry in job["quarantined_cells"]:
            assert entry["attempts"] == 3  # the dispatcher default K
            assert "fleet-test-only-probe" in entry["reason"]
        # The store parses and is complete: every cell holds either a
        # record or a cell-error line, in order.
        stored = load_sweep(out)
        assert len(stored.entries) == 0
        assert stored.error_cells() == {0, 1}


class TestControlPlane:
    def test_two_jobs_must_not_share_one_store(
        self, fleet, tmp_path, probe_spec
    ):
        spec = probe_spec(seeds=(1,), slow_seconds=1.0)
        out = tmp_path / "fleet.jsonl"
        with ServiceClient.connect(fleet.root) as client:
            job = client.submit(spec.to_dict(), out=out)
            with pytest.raises(ServiceError, match="must not share"):
                client.submit(spec.to_dict(), out=out)
            client.wait_job(job["id"], timeout=60)

    def test_existing_store_without_resume_is_refused(
        self, fleet, tmp_path, probe_spec
    ):
        spec = probe_spec(seeds=(1,))
        out = tmp_path / "fleet.jsonl"
        out.write_text("occupied", encoding="utf-8")
        with ServiceClient.connect(fleet.root) as client:
            with pytest.raises(ServiceError, match="already exists"):
                client.submit(spec.to_dict(), out=out)

    @pytest.mark.parametrize("timeout", [-1.0, 0.0, 2.0])
    def test_heartbeat_timeout_must_exceed_interval(self, service_root, timeout):
        # A timeout at or below the interval evicts even healthy workers,
        # which are silent for a whole interval between heartbeats.
        with pytest.raises(ServiceError, match="heartbeat_timeout"):
            Dispatcher(
                service_root, heartbeat_interval=2.0, heartbeat_timeout=timeout
            )

    def test_unknown_job_is_an_error(self, fleet):
        with ServiceClient.connect(fleet.root) as client:
            with pytest.raises(ServiceError, match="no such job"):
                client.job_status("job-999")

    def test_run_spec_submission_is_refused(self, fleet, tmp_path):
        with ServiceClient.connect(fleet.root) as client:
            with pytest.raises(ServiceError):
                client.submit(
                    {"kind": "run", "seed": 1}, out=tmp_path / "x.jsonl"
                )

    def test_protocol_version_mismatch_is_rejected(self, fleet):
        sock = fleet.address.connect(timeout=5.0)
        try:
            send_frame(
                sock,
                {"type": "hello", "role": "client", "pid": 1, "protocol": 99},
            )
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "version mismatch" in reply["error"]
        finally:
            sock.close()

    def test_status_document_shape(self, fleet):
        with ServiceClient.connect(fleet.root) as client:
            status = client.status()
        service = status["service"]
        assert service["protocol"] == 1
        assert "plane" not in service
        assert service["managed_workers"] == 2
        assert {"type", "service", "workers", "jobs"} == set(status)

    def test_shutdown_request_stops_the_dispatcher(self, service_root):
        dispatcher = Dispatcher(service_root, workers=0)
        dispatcher.start()
        try:
            with ServiceClient.connect(service_root) as client:
                assert client.shutdown()["type"] == "ok"
            assert dispatcher.wait(timeout=10.0)
        finally:
            dispatcher.stop()
        assert not (service_root / "service.json").exists()
