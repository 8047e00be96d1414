"""Deterministic, seed-driven fault injection for the experiment service.

The service stack (:mod:`repro.service`, :mod:`repro.api.store`)
exposes **named injection points** — places a real deployment fails: a
frame torn mid-send, a worker dying between executing a cell and
reporting it, a full disk under the JSONL store.
Each point calls :func:`fault_point` with a context describing the
event; when no plane is installed that call is a dictionary lookup and a
``None`` return, so production traffic pays nothing.

A chaos run installs a :class:`FaultPlane` built from a
:class:`FaultSchedule` — a canonical-JSON document of ``seed`` plus
:class:`FaultRule` entries (``{point, match, action, after_n, times,
params}``) — so the *specification* of every chaos run is replayable:
the same schedule always arms the same rules with the same thresholds,
and any randomness an action needs (which bytes to corrupt) comes from
an RNG seeded by the schedule.  What cannot be pinned is OS scheduling
— which worker draws which cell — which is why the contract chaos runs
enforce is invariance of the *output* (the JSONL store, byte for byte),
not of the fault timeline.

Rules may pin a ``scope``: the dispatcher runs under scope
``"dispatcher"``, each managed worker under its spawn ordinal (``"1"``,
``"2"``, … — respawns get fresh ordinals), so a crash rule scoped to
``"1"`` kills exactly one process once instead of crash-looping every
replacement worker through the same first-record fault.

Activation travels by environment (worker processes are ``Popen``
children): ``REPRO_FAULTS`` names a schedule JSON file,
``REPRO_FAULTS_SCOPE`` the process's scope, and ``REPRO_FAULTS_EVENTS``
an append-only JSONL file every fired fault is logged to (the service
root's ``events.jsonl``).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .errors import FaultError

__all__ = [
    "FAULT_POINTS",
    "FAULTS_ENV",
    "FAULTS_SCOPE_ENV",
    "FAULTS_EVENTS_ENV",
    "FaultRule",
    "FaultSchedule",
    "FaultAction",
    "FaultPlane",
    "fault_point",
    "install_plane",
    "uninstall_plane",
    "active_plane",
    "install_from_env",
    "fault_environment",
]

#: Environment variable naming the schedule JSON file to arm at startup.
FAULTS_ENV = "REPRO_FAULTS"
#: Environment variable naming this process's fault scope.
FAULTS_SCOPE_ENV = "REPRO_FAULTS_SCOPE"
#: Environment variable naming the JSONL file fired faults are logged to.
FAULTS_EVENTS_ENV = "REPRO_FAULTS_EVENTS"

#: Every named injection point and the actions it understands.  The
#: registry is the schedule validator: a rule naming an unknown point or
#: an action its point cannot perform is rejected at construction, not
#: discovered mid-chaos-run.
FAULT_POINTS: Dict[str, Tuple[str, ...]] = {
    # protocol.py send_frame: mangle the wire.
    "protocol.send": ("truncate", "corrupt", "delay"),
    # worker.py: the cell execution path.
    "worker.execute": ("crash", "stall", "fail"),
    "worker.record.before": ("crash",),
    "worker.record.after": ("crash",),
    # dispatcher.py: lease assignment, handshakes, heartbeat intake.
    "dispatcher.lease": ("expire", "delay"),
    "dispatcher.accept": ("drop",),
    "dispatcher.heartbeat": ("drop",),
    # api/store.py RecordStore.append / fsync.
    "store.append": ("enospc", "torn"),
    "store.fsync": ("fail",),
    # dynamic/serving.py QueryServer: a handshake, or a request frame,
    # read and dropped unanswered.
    "query.accept": ("drop",),
    "query.frame": ("drop",),
    # dynamic/delta.py DeltaGraph.apply_batch: a batch rejected after it is
    # validated and staged, before it touches any state.
    "query.apply": ("fail",),
}


def _canonical(payload: Any) -> str:
    """Canonical JSON (sorted keys, compact) without importing api.records.

    :mod:`repro.faults` sits below the API layer: :mod:`repro.api.store`
    imports it, and the :mod:`repro.api` package init imports
    ``api.store``, so importing :mod:`repro.api.records` from here would
    close an import cycle that resolves only while that init happens to
    import ``records`` before ``store``.  The encoding is pinned
    identical by a test.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _check_match(match: Mapping[str, Any]) -> Dict[str, Any]:
    checked: Dict[str, Any] = {}
    for key, value in match.items():
        if not isinstance(key, str):
            raise FaultError(f"match keys must be strings, got {key!r}")
        if not isinstance(value, (str, int, float, bool)) and value is not None:
            raise FaultError(
                f"match values must be JSON scalars, got {key}={value!r}"
            )
        checked[key] = value
    return checked


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: fire ``action`` at ``point`` on matching events.

    ``match`` narrows which events at the point trigger the rule (every
    key must equal the event context's value; the reserved key
    ``"scope"`` is compared against the *process's* scope instead).
    ``after_n`` skips that many matching events first; ``times`` caps how
    often the rule fires in one process (``None`` = every match).
    ``params`` feeds the action (``{"seconds": 0.5}`` for delays/stalls).
    """

    point: str
    action: str
    match: Tuple[Tuple[str, Any], ...] = ()
    after_n: int = 0
    times: Optional[int] = 1
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise FaultError(
                f"unknown fault point {self.point!r} (known: "
                f"{', '.join(sorted(FAULT_POINTS))})"
            )
        if self.action not in FAULT_POINTS[self.point]:
            raise FaultError(
                f"point {self.point!r} cannot perform {self.action!r} "
                f"(supported: {', '.join(FAULT_POINTS[self.point])})"
            )
        if self.after_n < 0:
            raise FaultError(f"after_n must be >= 0, got {self.after_n}")
        if self.times is not None and self.times < 1:
            raise FaultError(f"times must be >= 1 or null, got {self.times}")
        object.__setattr__(
            self, "match", tuple(sorted(_check_match(dict(self.match)).items()))
        )
        object.__setattr__(
            self, "params", tuple(sorted(_check_match(dict(self.params)).items()))
        )

    @classmethod
    def build(
        cls,
        point: str,
        action: str,
        match: Optional[Mapping[str, Any]] = None,
        after_n: int = 0,
        times: Optional[int] = 1,
        params: Optional[Mapping[str, Any]] = None,
    ) -> "FaultRule":
        """Construct a rule from plain mappings (the ergonomic door)."""
        return cls(
            point=point,
            action=action,
            match=tuple(sorted((match or {}).items())),
            after_n=after_n,
            times=times,
            params=tuple(sorted((params or {}).items())),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready rule document."""
        return {
            "point": self.point,
            "action": self.action,
            "match": dict(self.match),
            "after_n": self.after_n,
            "times": self.times,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultRule":
        """Rebuild a rule from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping):
            raise FaultError(f"fault rules must be JSON objects, got {payload!r}")
        unknown = set(payload) - {
            "point", "action", "match", "after_n", "times", "params"
        }
        if unknown:
            raise FaultError(f"unknown fault-rule fields: {sorted(unknown)}")
        return cls.build(
            point=str(payload.get("point", "")),
            action=str(payload.get("action", "")),
            match=payload.get("match") or {},
            after_n=int(payload.get("after_n", 0)),
            times=(None if payload.get("times", 1) is None else int(payload["times"])),
            params=payload.get("params") or {},
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A replayable chaos specification: a seed plus armed rules."""

    seed: int
    rules: Tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise FaultError(f"schedule seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-ready schedule document."""
        return {
            "kind": "fault-schedule",
            "schema": 1,
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        if not isinstance(payload, Mapping):
            raise FaultError(f"fault schedules must be JSON objects, got {payload!r}")
        if payload.get("kind") != "fault-schedule":
            raise FaultError(
                f"not a fault-schedule document (kind={payload.get('kind')!r})"
            )
        rules = payload.get("rules", [])
        if not isinstance(rules, (list, tuple)):
            raise FaultError(f"schedule rules must be a list, got {rules!r}")
        return cls(
            seed=int(payload.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
        )

    def to_json(self) -> str:
        """Return the canonical JSON encoding (what travels in files)."""
        return _canonical(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Parse a schedule from JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"invalid fault-schedule JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def load(cls, path: "str | Path") -> "FaultSchedule":
        """Load a schedule from a JSON file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise FaultError(f"cannot read fault schedule {path}: {exc}") from exc
        return cls.from_json(text)

    def dump(self, path: "str | Path") -> Path:
        """Write the canonical schedule document to ``path``."""
        target = Path(path)
        target.write_text(self.to_json() + "\n", encoding="utf-8")
        return target

    @classmethod
    def chaos(
        cls,
        seed: int,
        workers: int = 2,
        stall_seconds: float = 1.0,
        delay_seconds: float = 0.05,
    ) -> "FaultSchedule":
        """Derive the standard randomized chaos mix from ``seed``.

        The mix always arms one rule per *kind* of recoverable fault —
        worker crash before and after the record, an execution stall long
        enough to expire its lease, a truncated and a corrupted record
        frame, a delayed lease frame, a dispatcher-forced lease expiry,
        and a dropped worker handshake —
        and the seed randomizes the thresholds: which ordinal worker
        hosts each fault and how many clean events precede it.  Every
        action is one the service recovers from, so a chaos session's
        stores must still come out byte-identical to serial.
        """
        if workers < 1:
            raise FaultError(f"chaos schedules need >= 1 worker, got {workers}")
        rng = random.Random(seed)

        def scope() -> str:
            return str(rng.randrange(1, workers + 1))

        def early() -> int:
            return rng.randrange(0, 3)

        rules = [
            FaultRule.build(
                "worker.record.before", "crash",
                match={"scope": scope()}, after_n=early(),
            ),
            FaultRule.build(
                "worker.record.after", "crash",
                match={"scope": scope()}, after_n=early(),
            ),
            FaultRule.build(
                "worker.execute", "stall",
                match={"scope": scope()}, after_n=early(),
                params={"seconds": stall_seconds},
            ),
            FaultRule.build(
                "worker.execute", "fail",
                match={"scope": scope()}, after_n=early(),
            ),
            FaultRule.build(
                "protocol.send", "truncate",
                match={"frame": "record", "scope": scope()}, after_n=early(),
            ),
            FaultRule.build(
                "protocol.send", "corrupt",
                match={"frame": "record", "scope": scope()}, after_n=early(),
            ),
            FaultRule.build(
                "protocol.send", "delay",
                match={"frame": "lease"}, after_n=early(),
                times=2, params={"seconds": delay_seconds},
            ),
            FaultRule.build("dispatcher.lease", "expire", after_n=rng.randrange(2, 5)),
            FaultRule.build("dispatcher.accept", "drop", after_n=workers, times=1),
        ]
        return cls(seed=seed, rules=tuple(rules))


class FaultAction:
    """What a matched rule asks the injection point to do.

    Carries the action name, its parameters, and the plane's seeded RNG
    (byte corruption draws from it).  ``crash()`` is the one helper with
    side effects — it logs the impending death, then ``os._exit``\\ s so
    no ``finally`` can soften the simulated kill.
    """

    def __init__(self, rule: FaultRule, plane: "FaultPlane") -> None:
        self.rule = rule
        self.action = rule.action
        self.params: Dict[str, Any] = dict(rule.params)
        self.rng = plane.rng
        self._plane = plane

    def seconds(self, default: float = 0.1) -> float:
        """The action's duration parameter (delays and stalls)."""
        return float(self.params.get("seconds", default))

    def crash(self) -> "None":
        """Die the way a SIGKILL would: immediately, skipping cleanup."""
        os._exit(70)

    def corrupt_bytes(self, data: bytes) -> bytes:
        """Flip a few seeded-random payload bytes (never the length prefix)."""
        if not data:
            return data
        mangled = bytearray(data)
        for _ in range(min(4, len(mangled))):
            index = self.rng.randrange(len(mangled))
            mangled[index] ^= 0xFF
        return bytes(mangled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultAction({self.rule.point}:{self.action})"


class FaultPlane:
    """Armed per-process fault state: counters, RNG, event sink.

    One plane serves one process (dispatcher or worker).  ``hit`` is the
    single entry: it finds the first armed rule matching the event,
    advances its counters, logs the firing, and returns a
    :class:`FaultAction` — or ``None``, the overwhelmingly common case.
    Thread-safe: the dispatcher consults it from many worker threads.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        scope: str = "",
        sink: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        self.schedule = schedule
        self.scope = scope
        self.sink = sink
        self.rng = random.Random(schedule.seed)
        self._lock = threading.Lock()
        #: Matching events seen / fires performed, per rule index.
        self._seen: List[int] = [0] * len(schedule.rules)
        self._fired: List[int] = [0] * len(schedule.rules)

    def _matches(self, rule: FaultRule, point: str, context: Mapping[str, Any]) -> bool:
        if rule.point != point:
            return False
        for key, expected in rule.match:
            actual = self.scope if key == "scope" else context.get(key)
            if actual != expected:
                return False
        return True

    def hit(self, point: str, context: Mapping[str, Any]) -> Optional[FaultAction]:
        """Consult the plane for one event; return the action to perform."""
        chosen: Optional[FaultRule] = None
        chosen_index = -1
        with self._lock:
            for index, rule in enumerate(self.schedule.rules):
                if not self._matches(rule, point, context):
                    continue
                self._seen[index] += 1
                if chosen is not None:
                    continue  # counters still advance on shadowed rules
                if self._seen[index] <= rule.after_n:
                    continue
                if rule.times is not None and self._fired[index] >= rule.times:
                    continue
                self._fired[index] += 1
                chosen = rule
                chosen_index = index
        if chosen is None:
            return None
        self._log_fire(chosen_index, chosen, point, context)
        return FaultAction(chosen, self)

    def _log_fire(
        self, index: int, rule: FaultRule, point: str, context: Mapping[str, Any]
    ) -> None:
        if self.sink is None:
            return
        payload = {
            "event": "fault-fired",
            "point": point,
            "action": rule.action,
            "rule": index,
            "scope": self.scope,
            "pid": os.getpid(),
        }
        for key, value in context.items():
            if isinstance(value, (str, int, float, bool)) or value is None:
                payload.setdefault(key, value)
        try:
            self.sink(payload)
        except Exception:
            pass  # a broken event log must never change fault behaviour

    def counts(self) -> Dict[str, int]:
        """Return fires per ``point:action`` (this process only)."""
        with self._lock:
            totals: Dict[str, int] = {}
            for rule, fired in zip(self.schedule.rules, self._fired):
                if fired:
                    key = f"{rule.point}:{rule.action}"
                    totals[key] = totals.get(key, 0) + fired
            return totals

    def fired_total(self) -> int:
        """Total fires across all rules (this process only)."""
        with self._lock:
            return sum(self._fired)


# ---------------------------------------------------------------------------
# process-global installation
# ---------------------------------------------------------------------------

_PLANE: Optional[FaultPlane] = None


def install_plane(plane: Optional[FaultPlane]) -> Optional[FaultPlane]:
    """Install ``plane`` process-wide; returns the previous plane."""
    global _PLANE
    previous = _PLANE
    _PLANE = plane
    return previous


def uninstall_plane() -> None:
    """Remove any installed plane (idempotent)."""
    install_plane(None)


def active_plane() -> Optional[FaultPlane]:
    """Return the installed plane, if any."""
    return _PLANE


def fault_point(point: str, **context: Any) -> Optional[FaultAction]:
    """The hook every injection point calls; ``None`` when nothing is armed."""
    plane = _PLANE
    if plane is None:
        return None
    return plane.hit(point, context)


def _jsonl_sink(path: str) -> Callable[[Dict[str, Any]], None]:
    """An append-only JSONL event sink (O_APPEND: one line, one write)."""

    def sink(payload: Dict[str, Any]) -> None:
        line = _canonical({"ts": round(time.time(), 3), **payload}) + "\n"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()

    return sink


def install_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlane]:
    """Arm the plane described by the environment, if any.

    Reads ``REPRO_FAULTS`` (schedule file; unset/empty = no plane),
    ``REPRO_FAULTS_SCOPE`` and ``REPRO_FAULTS_EVENTS``, installs the
    resulting plane process-wide and returns it.  Worker processes call
    this first thing; the CLI calls it for every verb so even plain
    ``repro sweep`` runs can be chaos-tested.
    """
    env = os.environ if environ is None else environ
    path = env.get(FAULTS_ENV, "")
    if not path:
        return None
    schedule = FaultSchedule.load(path)
    events = env.get(FAULTS_EVENTS_ENV, "")
    plane = FaultPlane(
        schedule,
        scope=env.get(FAULTS_SCOPE_ENV, ""),
        sink=_jsonl_sink(events) if events else None,
    )
    install_plane(plane)
    return plane


def fault_environment(
    schedule_path: "str | Path",
    scope: str,
    events_path: "str | Path | None" = None,
) -> Dict[str, str]:
    """Return the env-var triple that arms a child process."""
    env = {FAULTS_ENV: str(schedule_path), FAULTS_SCOPE_ENV: scope}
    if events_path is not None:
        env[FAULTS_EVENTS_ENV] = str(events_path)
    return env


def injected_os_error(code: int, message: str) -> OSError:
    """Build the OSError a disk/socket fault raises (marked as injected)."""
    return OSError(code, f"injected fault: {message}")
