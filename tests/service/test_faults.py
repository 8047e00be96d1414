"""The fault plane: schedules, rule matching, counters, env activation."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro
from repro.api.records import canonical_json
from repro.errors import FaultError, ServiceError
from repro.faults import (
    FAULT_POINTS,
    FAULTS_ENV,
    FAULTS_EVENTS_ENV,
    FAULTS_SCOPE_ENV,
    FaultPlane,
    FaultRule,
    FaultSchedule,
    active_plane,
    fault_environment,
    fault_point,
    install_from_env,
    install_plane,
    injected_os_error,
    uninstall_plane,
)
from repro.service.events import EventLog, read_events


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    """Every test starts and ends with no plane installed."""
    uninstall_plane()
    yield
    uninstall_plane()


class TestRuleValidation:
    def test_unknown_point_is_refused(self):
        with pytest.raises(FaultError, match="unknown fault point"):
            FaultRule.build("worker.telepathy", "crash")
        # The segment-attach point went with the shared-memory transport;
        # an old schedule naming it fails loudly instead of never firing.
        with pytest.raises(FaultError, match="unknown fault point"):
            FaultRule.build("worker.attach", "fail")

    def test_unsupported_action_is_refused(self):
        with pytest.raises(FaultError, match="cannot perform"):
            FaultRule.build("protocol.send", "crash")

    def test_every_registered_action_builds(self):
        for point, actions in FAULT_POINTS.items():
            for action in actions:
                FaultRule.build(point, action)

    def test_negative_after_n_is_refused(self):
        with pytest.raises(FaultError, match="after_n"):
            FaultRule.build("worker.execute", "crash", after_n=-1)

    def test_zero_times_is_refused(self):
        with pytest.raises(FaultError, match="times"):
            FaultRule.build("worker.execute", "crash", times=0)

    def test_non_scalar_match_value_is_refused(self):
        with pytest.raises(FaultError, match="JSON scalars"):
            FaultRule.build("worker.execute", "crash", match={"cell": [1]})

    def test_unknown_rule_field_is_refused(self):
        with pytest.raises(FaultError, match="unknown fault-rule fields"):
            FaultRule.from_dict(
                {"point": "worker.execute", "action": "crash", "when": "now"}
            )


def _injected_points():
    """Every point name passed to ``fault_point(...)`` in the package source."""
    call = re.compile(r"\bfault_point\(\s*\"([^\"]+)\"")
    points = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        points.update(call.findall(path.read_text(encoding="utf-8")))
    return points


class TestRegistryMatchesTheCode:
    # A registered point with no call site accepts rules that can never
    # fire (as ``worker.attach`` would have once its code was deleted);
    # a call site missing from the registry can never be armed.
    @pytest.mark.parametrize("point", sorted(FAULT_POINTS))
    def test_every_registered_point_is_injected_somewhere(self, point):
        assert point in _injected_points()

    def test_every_injection_names_a_registered_point(self):
        assert _injected_points() <= set(FAULT_POINTS)


class TestScheduleRoundTrip:
    def test_json_round_trip_is_stable(self):
        schedule = FaultSchedule.chaos(seed=42)
        text = schedule.to_json()
        again = FaultSchedule.from_json(text)
        assert again == schedule
        assert again.to_json() == text

    def test_canonical_encoding_matches_api_records(self):
        # faults.py keeps a local canonical encoder (importing
        # api.records would close a cycle through the repro.api package
        # init, which imports api.store, which imports faults); pin the
        # parity.
        document = FaultSchedule.chaos(seed=3).to_dict()
        assert FaultSchedule.chaos(seed=3).to_json() == canonical_json(document)

    def test_same_seed_same_schedule(self):
        assert FaultSchedule.chaos(seed=9) == FaultSchedule.chaos(seed=9)
        assert FaultSchedule.chaos(seed=9) != FaultSchedule.chaos(seed=10)

    def test_dump_and_load(self, tmp_path):
        path = tmp_path / "schedule.json"
        schedule = FaultSchedule.chaos(seed=5, workers=3)
        schedule.dump(path)
        assert FaultSchedule.load(path) == schedule

    def test_not_a_schedule_document(self):
        with pytest.raises(FaultError, match="not a fault-schedule"):
            FaultSchedule.from_json(json.dumps({"kind": "sweep-header"}))

    def test_invalid_json(self):
        with pytest.raises(FaultError, match="invalid fault-schedule JSON"):
            FaultSchedule.from_json("{nope")

    def test_boolean_seed_is_refused(self):
        with pytest.raises(FaultError, match="seed must be an integer"):
            FaultSchedule(seed=True)


def _plane(*rules, scope="", sink=None, seed=0):
    return FaultPlane(
        FaultSchedule(seed=seed, rules=tuple(rules)), scope=scope, sink=sink
    )


class TestPlaneMatching:
    def test_after_n_skips_clean_events_first(self):
        plane = _plane(FaultRule.build("worker.execute", "fail", after_n=2))
        hits = [plane.hit("worker.execute", {"cell": i}) for i in range(4)]
        assert [hit is not None for hit in hits] == [False, False, True, False]

    def test_times_none_fires_every_match(self):
        plane = _plane(
            FaultRule.build(
                "worker.execute", "fail", match={"cell": 3}, times=None
            )
        )
        for _ in range(5):
            assert plane.hit("worker.execute", {"cell": 3}) is not None
        assert plane.hit("worker.execute", {"cell": 4}) is None
        assert plane.counts() == {"worker.execute:fail": 5}

    def test_match_narrows_by_context(self):
        plane = _plane(
            FaultRule.build("protocol.send", "delay", match={"frame": "record"})
        )
        assert plane.hit("protocol.send", {"frame": "lease"}) is None
        assert plane.hit("protocol.send", {"frame": "record"}) is not None

    def test_scope_matches_the_process_not_the_event(self):
        rule = FaultRule.build("worker.execute", "fail", match={"scope": "2"})
        assert _plane(rule, scope="1").hit("worker.execute", {}) is None
        assert _plane(rule, scope="2").hit("worker.execute", {}) is not None

    def test_shadowed_rules_still_advance_their_counters(self):
        # Two rules on the same point: while the first keeps firing, the
        # second's after_n window still counts down, so both eventually
        # fire instead of the second starving forever.
        first = FaultRule.build("worker.execute", "fail", times=2)
        second = FaultRule.build("worker.execute", "stall", after_n=2)
        plane = _plane(first, second)
        actions = [
            plane.hit("worker.execute", {}).action for _ in range(3)
        ]
        assert actions == ["fail", "fail", "stall"]

    def test_fired_total_and_counts(self):
        plane = _plane(
            FaultRule.build("store.append", "enospc"),
            FaultRule.build("store.fsync", "fail"),
        )
        plane.hit("store.append", {"kind": "record"})
        plane.hit("store.fsync", {"kind": "record"})
        plane.hit("store.append", {"kind": "record"})  # times=1: spent
        assert plane.fired_total() == 2
        assert plane.counts() == {
            "store.append:enospc": 1,
            "store.fsync:fail": 1,
        }

    def test_fire_is_reported_to_the_sink(self):
        seen = []
        plane = _plane(
            FaultRule.build("dispatcher.lease", "expire"),
            scope="dispatcher",
            sink=seen.append,
        )
        plane.hit("dispatcher.lease", {"job": "job-1", "cell": 4})
        assert len(seen) == 1
        payload = seen[0]
        assert payload["event"] == "fault-fired"
        assert payload["point"] == "dispatcher.lease"
        assert payload["action"] == "expire"
        assert payload["scope"] == "dispatcher"
        assert payload["job"] == "job-1" and payload["cell"] == 4

    def test_a_broken_sink_never_breaks_injection(self):
        def explode(payload):
            raise RuntimeError("sink down")

        plane = _plane(
            FaultRule.build("dispatcher.lease", "expire"), sink=explode
        )
        assert plane.hit("dispatcher.lease", {}) is not None


class TestActions:
    def test_seconds_reads_params_with_default(self):
        plane = _plane(
            FaultRule.build(
                "protocol.send", "delay", params={"seconds": 0.25}
            ),
            FaultRule.build("worker.execute", "stall"),
        )
        assert plane.hit("protocol.send", {}).seconds() == 0.25
        assert plane.hit("worker.execute", {}).seconds(1.5) == 1.5

    def test_corrupt_bytes_is_seeded_and_length_preserving(self):
        first = _plane(
            FaultRule.build("protocol.send", "corrupt"), seed=11
        )
        second = _plane(
            FaultRule.build("protocol.send", "corrupt"), seed=11
        )
        data = bytes(range(64))
        mangled = first.hit("protocol.send", {}).corrupt_bytes(data)
        assert mangled != data
        assert len(mangled) == len(data)
        assert second.hit("protocol.send", {}).corrupt_bytes(data) == mangled
        assert first.hit("protocol.send", {}) is None  # times=1

    def test_injected_errors_are_recognisable(self):
        error = injected_os_error(28, "disk full")
        assert isinstance(error, OSError)
        assert error.errno == 28
        assert "injected fault" in str(error)


class TestGlobalInstallation:
    def test_fault_point_without_a_plane_is_a_no_op(self):
        assert active_plane() is None
        assert fault_point("worker.execute", cell=1) is None

    def test_install_and_uninstall(self):
        plane = _plane(FaultRule.build("worker.execute", "fail"))
        assert install_plane(plane) is None
        assert active_plane() is plane
        assert fault_point("worker.execute") is not None
        uninstall_plane()
        assert active_plane() is None

    def test_install_from_env_round_trip(self, tmp_path):
        schedule = FaultSchedule(
            seed=1, rules=(FaultRule.build("worker.execute", "fail"),)
        )
        schedule_path = schedule.dump(tmp_path / "schedule.json")
        events_path = tmp_path / "events.jsonl"
        env = fault_environment(schedule_path, scope="3", events_path=events_path)
        assert env == {
            FAULTS_ENV: str(schedule_path),
            FAULTS_SCOPE_ENV: "3",
            FAULTS_EVENTS_ENV: str(events_path),
        }
        plane = install_from_env(env)
        assert plane is not None and active_plane() is plane
        assert plane.scope == "3"
        assert plane.schedule == schedule
        plane.hit("worker.execute", {"cell": 7})
        fired = read_events(events_path)
        assert len(fired) == 1
        assert fired[0]["event"] == "fault-fired"
        assert fired[0]["scope"] == "3" and fired[0]["cell"] == 7

    def test_install_from_env_without_the_variable(self):
        assert install_from_env({}) is None
        assert active_plane() is None

    def test_install_from_env_missing_file(self, tmp_path):
        with pytest.raises(FaultError, match="cannot read fault schedule"):
            install_from_env({FAULTS_ENV: str(tmp_path / "nope.json")})


class TestEventLog:
    def test_emit_and_read_round_trip(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.emit("worker-lost", worker="w1", leases=2)
        log.emit("cell-retry", cell=3)
        events = read_events(tmp_path)  # directory form resolves the name
        assert [event["event"] for event in events] == [
            "worker-lost",
            "cell-retry",
        ]
        assert events[0]["worker"] == "w1" and events[0]["leases"] == 2
        assert all("ts" in event for event in events)

    def test_tail_keeps_the_last_n(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        for index in range(5):
            log.emit("tick", index=index)
        events = read_events(tmp_path, tail=2)
        assert [event["index"] for event in events] == [3, 4]

    def test_missing_log_is_empty(self, tmp_path):
        assert read_events(tmp_path) == []

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "events.jsonl"
        EventLog(path).emit("ok")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"ts": 1, "event": "torn')  # no newline: mid-crash
        events = read_events(path)
        assert [event["event"] for event in events] == ["ok"]

    def test_corruption_before_the_tail_is_an_error(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('not json\n{"event": "ok"}\n', encoding="utf-8")
        with pytest.raises(ServiceError, match="line 1"):
            read_events(path)

    def test_emit_swallows_write_failures(self, tmp_path):
        log = EventLog(tmp_path / "no-such-dir" / "events.jsonl")
        log.emit("lost")  # must not raise

    def test_sink_adapts_fault_plane_payloads(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.sink({"event": "fault-fired", "point": "worker.execute"})
        events = read_events(tmp_path)
        assert events[0]["event"] == "fault-fired"
        assert events[0]["point"] == "worker.execute"
