"""Handlers behind ``repro serve`` / ``submit`` / ``status`` / ``worker``.

The argument surface lives in :mod:`repro.api.cli` (so ``repro --help``
never imports the service layer); these functions do the work.  All of
them follow the CLI's conventions: human-readable text by default, one
JSON document with ``--json``, progress and diagnostics on stderr,
errors as :class:`~repro.errors.ReproError` for the exit-2 path.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict

from ..analysis.tables import render_table
from ..api.specs import SweepSpec, load_spec
from ..errors import AnalysisError
from .dispatcher import Dispatcher
from .events import read_events
from .protocol import SERVICE_INFO_NAME, ServiceClient

__all__ = [
    "cmd_chaos",
    "cmd_events",
    "cmd_serve",
    "cmd_submit",
    "cmd_status",
    "cmd_worker",
]


def _emit_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the dispatcher in the foreground (or stop/drain a running one)."""
    root = Path(args.root)
    if args.stop and args.drain:
        raise AnalysisError("--stop and --drain are mutually exclusive")
    if args.stop:
        with ServiceClient(root) as client:
            client.shutdown()
        if args.json:
            _emit_json({"root": str(root), "stopped": True})
        else:
            print(f"asked the service in {root} to shut down")
        return 0
    if args.drain:
        with ServiceClient(root) as client:
            client.drain()
        # The dispatcher stops leasing immediately and exits once the
        # last in-flight cell's record has flushed; its final act is
        # removing service.json, which is what we wait for here.
        drained = True
        try:
            while (root / SERVICE_INFO_NAME).exists():
                time.sleep(0.2)
        except KeyboardInterrupt:
            drained = False
        if args.json:
            _emit_json({"root": str(root), "draining": True, "drained": drained})
        elif drained:
            print(f"service in {root} drained and exited")
        else:
            print(
                f"service in {root} is still draining (in-flight cells "
                "finish, then it exits)"
            )
        return 0
    dispatcher = Dispatcher(
        root,
        workers=args.workers,
        lease_timeout=args.lease_timeout,
        heartbeat_interval=args.heartbeat_interval,
        heartbeat_timeout=args.heartbeat_timeout,
        preload=tuple(args.preload or ()),
    )
    dispatcher.start()
    try:
        # A SIGTERM (service manager, CI teardown) should shut down as
        # cleanly as Ctrl-C or a client's shutdown request.
        signal.signal(signal.SIGTERM, lambda *_: dispatcher.request_stop())
    except ValueError:
        pass  # not the main thread (embedding); rely on client shutdown
    if args.json:
        _emit_json(
            {
                "root": str(root),
                "address": dispatcher.address.to_dict(),
                "workers": args.workers,
            }
        )
        sys.stdout.flush()
    else:
        print(
            f"repro service listening at {dispatcher.address.describe()} "
            f"({args.workers} managed workers); stop with Ctrl-C or "
            f"'repro serve {root} --stop'",
            file=sys.stderr,
        )
    try:
        dispatcher.wait()
    except KeyboardInterrupt:
        pass
    finally:
        dispatcher.stop()
    return 0


def _progress_printer(stream):
    state = {"last": None}

    def update(job: Dict[str, Any]) -> None:
        line = (
            f"{job['id']}: {job['cells_done']}/{job['cells_total']} cells"
        )
        if job.get("retries"):
            line += f" ({job['retries']} retried)"
        if job.get("quarantined"):
            line += f" [{job['quarantined']} quarantined]"
        if line != state["last"]:
            print(line, file=stream)
            stream.flush()
            state["last"] = line

    return update


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a sweep spec to a running service (waits by default)."""
    spec_path = Path(args.spec)
    try:
        spec = load_spec(spec_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read spec file {args.spec!r}: {exc}") from exc
    if not isinstance(spec, SweepSpec):
        raise AnalysisError(
            f"{args.spec} is a run spec; the service executes sweep specs "
            "(wrap the run in a one-seed sweep)"
        )
    out = args.out or str(spec_path.with_suffix(".records.jsonl"))
    out = str(Path(out).resolve())
    cache = str(Path(args.cache).resolve()) if args.cache else None
    with ServiceClient(Path(args.root)) as client:
        job = client.submit(
            spec.to_dict(),
            out=out,
            resume=args.resume,
            cache=cache,
            max_cells=args.max_cells,
        )
        if not args.no_wait and job["state"] == "running":
            progress = None if args.json else _progress_printer(sys.stderr)
            job = client.wait_job(job["id"], progress=progress)
    if args.json:
        _emit_json({"job": job})
        return 0
    if args.no_wait:
        print(
            f"submitted {job['id']}: {job['cells_total']} cells -> "
            f"{job['out']} (repro status {args.root} to watch)"
        )
        return 0
    summary = (
        f"{job['id']} {job['state']}: {job['cells_done']}/"
        f"{job['cells_total']} cells -> {job['out']} in "
        f"{job['elapsed_seconds']:.2f}s ({job['cells_per_second']:.1f} "
        f"cells/s, {job['cache_hits']} cache hits"
    )
    if job.get("first_record_seconds") is not None:
        summary += f", first record {job['first_record_seconds']:.2f}s"
    print(summary + ")")
    if job.get("quarantined"):
        print(
            f"warning: {job['quarantined']} cells quarantined after "
            "repeated failures (see their cell-error store lines and "
            f"'repro events {args.root}')",
            file=sys.stderr,
        )
    return 0


def _render_status(payload: Dict[str, Any]) -> str:
    service = payload["service"]
    lines = [
        f"service {service['root']} (pid {service['pid']}, "
        f"{len(payload['workers'])} workers connected, "
        f"{service['evictions']} evictions)"
        + (" [draining]" if service.get("draining") else "")
    ]
    health = (
        f"health: {service.get('quarantined', 0)} quarantined cells, "
        f"{service.get('worker_restarts', 0)}/"
        f"{service.get('restart_budget', 0)} worker restarts"
    )
    if service.get("events_path"):
        health += f", events -> {service['events_path']}"
    lines.append(health)
    if payload["workers"]:
        lines.append(
            render_table(
                ["worker", "pid", "state", "cells", "lease", "seen"],
                [
                    [
                        worker["id"],
                        str(worker["pid"]),
                        worker["state"],
                        str(worker["cells_done"]),
                        (
                            "-"
                            if worker["lease"] is None
                            else f"{worker['lease']['job']}#{worker['lease']['cell']}"
                        ),
                        f"{worker['last_seen_seconds']:.1f}s",
                    ]
                    for worker in payload["workers"]
                ],
            )
        )
    if payload["jobs"]:
        lines.append(
            render_table(
                ["job", "state", "cells", "cached", "retried", "quar",
                 "cells/s", "out"],
                [
                    [
                        job["id"],
                        job["state"],
                        f"{job['cells_done']}/{job['cells_total']}",
                        str(job["cache_hits"]),
                        str(job.get("retries", 0)),
                        str(job.get("quarantined", 0)),
                        f"{job['cells_per_second']:.1f}",
                        job["out"],
                    ]
                    for job in payload["jobs"]
                ],
            )
        )
    else:
        lines.append("no jobs submitted yet")
    return "\n".join(lines)


def cmd_status(args: argparse.Namespace) -> int:
    """Show (or watch) the live status of a running service."""
    while True:
        with ServiceClient(Path(args.root)) as client:
            payload = client.status()
        if args.json:
            _emit_json(payload)
        else:
            print(_render_status(payload))
        if args.watch is None:
            return 0
        sys.stdout.flush()
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0
        if not args.json:
            print()


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one worker process against a service root (foreground)."""
    from .worker import worker_main

    return worker_main(args.root, preload=tuple(args.preload or ()))


def cmd_events(args: argparse.Namespace) -> int:
    """Show a service root's incident log (events.jsonl)."""
    events = read_events(Path(args.root), tail=args.tail)
    if args.json:
        _emit_json({"root": str(args.root), "events": events})
        return 0
    if not events:
        print(f"no incidents recorded in {args.root}")
        return 0
    for event in events:
        stamp = time.strftime(
            "%H:%M:%S", time.localtime(float(event.get("ts", 0.0)))
        )
        fields = " ".join(
            f"{key}={event[key]}"
            for key in sorted(event)
            if key not in ("ts", "event")
        )
        line = f"{stamp} {event.get('event', '?')}"
        print(f"{line} {fields}" if fields else line)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a seeded chaos (or control) session; exit 1 on a violated invariant."""
    from .chaos import run_chaos_session

    report = run_chaos_session(
        Path(args.root),
        seed=args.seed,
        workers=args.workers,
        control=args.control,
    )
    if args.json:
        _emit_json(report)
        return 0 if report["ok"] else 1
    verdict = "OK" if report["ok"] else "FAILED"
    print(
        f"{report['mode']} session seed={report['seed']} "
        f"({report['workers']} workers): {verdict} in "
        f"{report['elapsed_seconds']:.1f}s"
    )
    identical = sum(1 for sweep in report["sweeps"] if sweep["identical"])
    print(
        f"  stores: {identical}/{len(report['sweeps'])} byte-identical "
        "to the serial reference"
    )
    points = ", ".join(report["fault_points_fired"]) or "none"
    print(
        f"  faults: {report['fault_fires']} fired across "
        f"{len(report['fault_points_fired'])} points ({points})"
    )
    print(
        f"  fleet: {report['quarantined']} quarantined, "
        f"{report['worker_restarts']} worker restarts, "
        f"{report['events']} events -> {report['events_path']}"
    )
    poison = report.get("poison")
    if poison is not None and "state" in poison:
        print(
            f"  poison: cell {poison['cell']} quarantined after "
            f"{poison.get('observed_attempts')} attempts; "
            f"{poison['cells_done']} healthy cells completed "
            f"(job {poison['state']})"
        )
    for failure in report["failures"]:
        print(f"  FAILURE: {failure}", file=sys.stderr)
    return 0 if report["ok"] else 1
