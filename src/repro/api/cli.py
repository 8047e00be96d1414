"""The ``repro`` command line: list, run, sweep, cache, table1.

Installed as the ``repro`` console script (and reachable as
``python -m repro``).  Five subcommands cover the reproduction workflow:

* ``repro list`` — registered algorithms and workloads with their
  parameter schemas,
* ``repro run`` — one (algorithm, workload, seed) execution, either from
  a JSON run-spec document or assembled from flags,
* ``repro sweep`` — an (algorithms × seeds) grid from a JSON sweep-spec
  document, recorded to an append-only JSONL store with ``--resume``;
  ``--cache DIR`` serves already-computed cells from a content-addressed
  result cache,
* ``repro cache`` — inspect a result cache (entry count, size, entries)
  and evict or clear entries,
* ``repro table1`` — the paper's Table-1 predictions at a given ``n``,
* ``repro serve`` / ``repro submit`` / ``repro status`` / ``repro
  worker`` — the persistent worker-fleet experiment service
  (:mod:`repro.service`): a long-lived dispatcher leases sweep cells to
  warm worker processes and streams records into the same JSONL store
  format, byte-identical to ``repro sweep``; ``repro serve --drain``
  finishes in-flight cells and exits cleanly,
* ``repro events`` — a service root's append-only incident log
  (lease expiries, evictions, retries, quarantines, fault firings),
* ``repro chaos`` — a seeded fault-injection session
  (:mod:`repro.service.chaos`): deterministic schedule, byte-identity
  check against a serial reference, poison-cell quarantine proof.

Set ``REPRO_PRELOAD`` to a comma-separated module list to import extra
algorithm/workload registrations before any command runs (the service's
``--preload`` flag, as an environment knob).

Every subcommand accepts ``--json`` and then emits a single JSON
document on stdout, so the CLI scripts as cleanly as the Python API.
Exit codes: 0 on success, 2 on any :class:`~repro.errors.ReproError`
(bad spec, unknown name, invalid parameters).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..analysis.complexity import predicted_round_complexities
from ..analysis.experiments import SweepRunner
from ..analysis.tables import render_records_table, render_table, render_table1
from .._version import __version__
from ..errors import AnalysisError, ReproError
from ..faults import FAULTS_ENV
from .registry import (
    AlgorithmEntry,
    WorkloadEntry,
    list_algorithms,
    list_workloads,
)
from .specs import AlgorithmSpec, RunSpec, SweepSpec, WorkloadSpec, load_spec
from .store import RecordStore, ResultCache, run_sweep

__all__ = ["main", "build_parser"]


def _emit_json(payload: Any) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _parse_params(text: Optional[str], what: str) -> Dict[str, Any]:
    if not text:
        return {}
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"{what} must be a JSON object: {exc}") from exc
    if not isinstance(payload, dict):
        raise AnalysisError(f"{what} must be a JSON object, got {payload!r}")
    return payload


def _format_parameters(entry: "AlgorithmEntry | WorkloadEntry") -> str:
    parts = []
    for parameter in entry.parameters:
        if parameter.required:
            parts.append(f"{parameter.name}*")
        else:
            parts.append(f"{parameter.name}={parameter.default!r}")
    return ", ".join(parts)


def _read_spec(path: str) -> "RunSpec | SweepSpec":
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read spec file {path!r}: {exc}") from exc
    return load_spec(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace) -> int:
    from .queries import list_query_kinds

    show_algorithms = args.what in ("algorithms", "all")
    show_workloads = args.what in ("workloads", "all")
    show_queries = args.what in ("queries", "all")
    if args.json:
        payload: Dict[str, Any] = {}
        if show_algorithms:
            payload["algorithms"] = [entry.describe() for entry in list_algorithms()]
        if show_workloads:
            payload["workloads"] = [entry.describe() for entry in list_workloads()]
        if show_queries:
            payload["queries"] = [kind.describe() for kind in list_query_kinds()]
        _emit_json(payload)
        return 0
    if show_algorithms:
        print("Registered algorithms:")
        print(
            render_table(
                ["name", "kind", "model", "parameters"],
                [
                    [entry.name, entry.kind, entry.model, _format_parameters(entry)]
                    for entry in list_algorithms()
                ],
            )
        )
    if show_algorithms and show_workloads:
        print()
    if show_workloads:
        print("Registered workloads:")
        print(
            render_table(
                ["name", "seeded", "parameters"],
                [
                    [
                        entry.name,
                        "yes" if entry.takes_seed else "no",
                        _format_parameters(entry),
                    ]
                    for entry in list_workloads()
                ],
            )
        )
    if show_queries:
        if show_algorithms or show_workloads:
            print()
        print("Registered query kinds (repro query --kind NAME):")
        print(
            render_table(
                ["name", "parameters", "description"],
                [
                    [
                        kind.name,
                        ", ".join(
                            p.name + ("*" if p.required else "")
                            for p in kind.parameters
                        )
                        or "-",
                        kind.description,
                    ]
                    for kind in list_query_kinds()
                ],
            )
        )
    return 0


def _run_spec_from_args(args: argparse.Namespace) -> RunSpec:
    assemble_flags = {
        "--algorithm": args.algorithm,
        "--algorithm-params": args.algorithm_params,
        "--workload": args.workload,
        "--workload-params": args.workload_params,
        "--seed": args.seed,
        "--experiment": args.experiment,
    }
    if args.spec:
        conflicting = [flag for flag, value in assemble_flags.items() if value is not None]
        if conflicting:
            raise AnalysisError(
                f"--spec cannot be combined with {', '.join(conflicting)}; "
                "a spec document pins the whole run (edit the file to "
                "change it)"
            )
        spec = _read_spec(args.spec)
        if not isinstance(spec, RunSpec):
            raise AnalysisError(
                f"{args.spec} is a sweep spec; use `repro sweep {args.spec}`"
            )
        return spec
    if not args.algorithm or not args.workload:
        raise AnalysisError(
            "repro run needs either --spec FILE or both --algorithm and "
            "--workload"
        )
    return RunSpec(
        algorithm=AlgorithmSpec(
            name=args.algorithm,
            params=_parse_params(args.algorithm_params, "--algorithm-params"),
        ),
        workload=WorkloadSpec(
            name=args.workload,
            params=_parse_params(args.workload_params, "--workload-params"),
        ),
        seed=args.seed if args.seed is not None else 0,
        experiment=args.experiment if args.experiment is not None else "run",
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _run_spec_from_args(args)
    entry = spec.algorithm.entry()
    if not entry.sweepable:
        if args.cache:
            raise AnalysisError(
                f"--cache only applies to sweepable algorithms; "
                f"{entry.name!r} produces a native result, not an "
                "experiment record"
            )
        result = spec.run_raw()
        if args.out:
            RecordStore(args.out).append(
                {"kind": "result", "result": result.to_dict()}
            )
        if args.json:
            _emit_json({"spec": spec.to_dict(), "result": result.to_dict()})
        else:
            print(result.summary())
        return 0
    cache = ResultCache(args.cache) if args.cache else None
    record = cache.get(spec) if cache is not None else None
    cached = record is not None
    if record is None:
        record = spec.run()
        if cache is not None:
            cache.put(spec, record)
    if args.out:
        RecordStore(args.out).append({"kind": "record", "record": record.to_dict()})
    if args.json:
        payload = {"spec": spec.to_dict(), "record": record.to_dict()}
        if cache is not None:
            payload["cache"] = {"hit": cached, "hash": spec.content_hash()}
        _emit_json(payload)
    else:
        print(render_records_table(f"experiment {record.experiment!r}", [record]))
        print(
            f"\nseed={record.seed} messages={record.messages} "
            f"bits={record.bits} truncated={record.truncated}"
        )
        if cached:
            print(f"(served from cache: {spec.content_hash()})")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _read_spec(args.spec)
    if not isinstance(spec, SweepSpec):
        raise AnalysisError(
            f"{args.spec} is a run spec; use `repro run --spec {args.spec}`"
        )
    out = args.out or str(Path(args.spec).with_suffix(".records.jsonl"))
    cache = ResultCache(args.cache) if args.cache else None
    progress = None
    if args.progress:

        def progress(completed: int, total: int) -> None:
            print(
                f"sweep {spec.experiment!r}: {completed}/{total} cells",
                file=sys.stderr,
            )
            sys.stderr.flush()

    def on_retry(attempt: int, reason: str) -> None:
        print(
            f"sweep {spec.experiment!r}: worker pool broke "
            f"({reason}); retry {attempt}/{args.retries} resumes from "
            "the recorded prefix",
            file=sys.stderr,
        )
        sys.stderr.flush()

    runner = SweepRunner(max_workers=args.workers)
    with runner:
        stored = run_sweep(
            spec,
            out,
            runner=runner,
            resume=args.resume,
            max_cells=args.max_cells,
            cache=cache,
            progress=progress,
            retries=args.retries,
            on_retry=on_retry,
        )
        plane = runner.last_plane
    total = len(spec.cells())
    completed = len(stored.completed_cells())
    if args.json:
        payload = {
            "spec": spec.to_dict(),
            "out": out,
            "cells_total": total,
            "cells_completed": completed,
            "records": [
                {"cell": cell, "label": label, "record": record.to_dict()}
                for cell, label, record in stored.entries
            ],
        }
        if plane is not None:
            payload["plane"] = plane
        if cache is not None:
            payload["cache"] = cache.stats()
        _emit_json(payload)
        return 0
    print(render_records_table(f"sweep {spec.experiment!r}", stored.records()))
    print(f"\n{completed}/{total} cells recorded in {out}")
    if plane is not None and plane["cells"] > 0:
        print(
            f"plane={plane['plane']} cache_hits={plane['cache_hits']} "
            f"executed={plane['executed']} "
            f"bytes_per_cell={plane['pickled_bytes_per_cell']:.0f}"
        )
    if cache is not None:
        stats = cache.stats()
        print(
            f"cache {stats['root']}: {stats['entries']} entries, "
            f"{stats['hits']} hits, {stats['misses']} misses, "
            f"{stats['writes']} new"
        )
    if completed < total:
        print(f"resume with: repro sweep {args.spec} --out {out} --resume")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    evicted = [digest for digest in args.evict or [] if cache.evict(digest)]
    cleared = cache.clear() if args.clear else 0
    stats = cache.stats()
    if args.json:
        payload = dict(stats)
        del payload["hits"], payload["misses"], payload["writes"]
        payload["evicted"] = evicted
        payload["cleared"] = cleared
        if args.entries:
            payload["entry_list"] = cache.entries()
        _emit_json(payload)
        return 0
    print(f"cache {stats['root']}: {stats['entries']} entries, {stats['bytes']} bytes")
    if evicted:
        print(f"evicted {len(evicted)} entries")
    if args.clear:
        print(f"cleared {cleared} entries")
    if args.entries:
        rows = [
            [
                entry["hash"][:12],
                str(entry["experiment"]),
                str(entry["algorithm"]),
                str(entry["workload"]),
                str(entry["seed"]),
            ]
            for entry in cache.entries()
        ]
        if rows:
            print(
                render_table(
                    ["hash", "experiment", "algorithm", "workload", "seed"], rows
                )
            )
    return 0


# The service handlers import repro.service lazily: `repro list` or
# `repro table1` should not pay for (or be broken by) the service layer.


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service.cli import cmd_serve

    return cmd_serve(args)


def _cmd_query(args: argparse.Namespace) -> int:
    from ..dynamic.cli import cmd_query

    return cmd_query(args)


def _cmd_submit(args: argparse.Namespace) -> int:
    from ..service.cli import cmd_submit

    return cmd_submit(args)


def _cmd_status(args: argparse.Namespace) -> int:
    from ..service.cli import cmd_status

    return cmd_status(args)


def _cmd_worker(args: argparse.Namespace) -> int:
    from ..service.cli import cmd_worker

    return cmd_worker(args)


def _cmd_events(args: argparse.Namespace) -> int:
    from ..service.cli import cmd_events

    return cmd_events(args)


def _cmd_chaos(args: argparse.Namespace) -> int:
    from ..service.cli import cmd_chaos

    return cmd_chaos(args)


def _cmd_table1(args: argparse.Namespace) -> int:
    if args.json:
        _emit_json(
            {
                "num_nodes": args.num_nodes,
                "predicted_rounds": predicted_round_complexities(args.num_nodes),
            }
        )
        return 0
    print(render_table1(args.num_nodes))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Izumi & Le Gall (PODC 2017): declarative "
            "runs and sweeps of the CONGEST triangle algorithms."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list registered algorithms, workloads and query kinds"
    )
    list_parser.add_argument(
        "what",
        nargs="?",
        choices=["algorithms", "workloads", "queries", "all"],
        default="all",
        help="what to list (default: all)",
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run one (algorithm, workload, seed) spec"
    )
    run_parser.add_argument("--spec", help="path to a JSON run-spec document")
    run_parser.add_argument("--algorithm", help="registered algorithm name")
    run_parser.add_argument(
        "--algorithm-params",
        help='constructor parameters as a JSON object, e.g. \'{"epsilon": 0.5}\'',
    )
    run_parser.add_argument("--workload", help="registered workload name")
    run_parser.add_argument(
        "--workload-params",
        help='generator parameters as a JSON object, e.g. \'{"num_nodes": 60}\'',
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="run seed (default 0)"
    )
    run_parser.add_argument(
        "--experiment", default=None, help="experiment label on the record"
    )
    run_parser.add_argument(
        "--out", help="append the record to this JSONL file"
    )
    run_parser.add_argument(
        "--cache",
        help="content-addressed result cache directory: serve this run "
        "from it when already computed, file the record back otherwise",
    )
    run_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run an (algorithms × seeds) sweep from a JSON spec"
    )
    sweep_parser.add_argument("spec", help="path to a JSON sweep-spec document")
    sweep_parser.add_argument(
        "--out",
        help="JSONL record store (default: the spec path with a "
        ".records.jsonl suffix)",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep, skipping recorded cells",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool workers (default: serial)",
    )
    sweep_parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after this many new cells (checkpointing/testing)",
    )
    sweep_parser.add_argument(
        "--cache",
        help="content-addressed result cache directory: serve already-"
        "computed cells from it, file fresh records back",
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="rebuild a broken worker pool and retry the remaining cells "
        "up to N times (the recorded prefix is kept; default 0)",
    )
    sweep_parser.add_argument(
        "--progress",
        action="store_true",
        help="print completed/total cells (and pool retries) to stderr "
        "as records stream in",
    )
    sweep_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    serve_parser = subparsers.add_parser(
        "serve", help="run the persistent experiment service (dispatcher)"
    )
    serve_parser.add_argument(
        "root", help="service directory (socket, service.json, worker logs)"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="managed worker processes to spawn and keep alive (default 2)",
    )
    serve_parser.add_argument(
        "--lease-timeout",
        type=float,
        default=60.0,
        help="seconds a worker may hold one cell before it is requeued",
    )
    serve_parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="seconds between worker heartbeats",
    )
    serve_parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        help="evict a worker silent for this long (default: 5x the interval)",
    )
    serve_parser.add_argument(
        "--preload",
        action="append",
        metavar="MODULE",
        help="import this module in the dispatcher and every managed "
        "worker (extra registrations); repeatable",
    )
    serve_parser.add_argument(
        "--stop",
        action="store_true",
        help="shut down the service running in this directory instead",
    )
    serve_parser.add_argument(
        "--drain",
        action="store_true",
        help="gracefully drain the running service instead: no new "
        "leases, in-flight cells finish and flush, then it exits",
    )
    serve_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document on startup"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="run a sweep spec on the experiment service"
    )
    submit_parser.add_argument("root", help="service directory (as passed to serve)")
    submit_parser.add_argument("spec", help="path to a JSON sweep-spec document")
    submit_parser.add_argument(
        "--out",
        help="JSONL record store (default: the spec path with a "
        ".records.jsonl suffix); written by the dispatcher",
    )
    submit_parser.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep, skipping recorded cells",
    )
    submit_parser.add_argument(
        "--cache",
        help="content-addressed result cache directory (dispatcher-side)",
    )
    submit_parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after this many new cells (checkpointing/testing)",
    )
    submit_parser.add_argument(
        "--no-wait",
        action="store_true",
        help="return after queueing instead of waiting for completion",
    )
    submit_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    submit_parser.set_defaults(handler=_cmd_submit)

    status_parser = subparsers.add_parser(
        "status", help="show the experiment service's live status"
    )
    status_parser.add_argument("root", help="service directory (as passed to serve)")
    status_parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render every SECONDS until interrupted",
    )
    status_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    status_parser.set_defaults(handler=_cmd_status)

    worker_parser = subparsers.add_parser(
        "worker", help="run one experiment-service worker (foreground)"
    )
    worker_parser.add_argument("root", help="service directory (as passed to serve)")
    worker_parser.add_argument(
        "--preload",
        action="append",
        metavar="MODULE",
        help="import this module before serving (extra registrations); "
        "repeatable",
    )
    worker_parser.set_defaults(handler=_cmd_worker)

    events_parser = subparsers.add_parser(
        "events", help="show a service root's incident log (events.jsonl)"
    )
    events_parser.add_argument(
        "root", help="service directory (as passed to serve)"
    )
    events_parser.add_argument(
        "--tail",
        type=int,
        default=None,
        metavar="N",
        help="show only the last N events",
    )
    events_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    events_parser.set_defaults(handler=_cmd_events)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="run a seeded fault-injection session against a live fleet",
    )
    chaos_parser.add_argument(
        "root", help="session directory (service roots, stores, schedule)"
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="chaos schedule seed (default 0); same seed, same schedule",
    )
    chaos_parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="managed workers in the chaos fleet (default 2)",
    )
    chaos_parser.add_argument(
        "--control",
        action="store_true",
        help="run the same session with no faults armed (the fault plane "
        "must be invisible)",
    )
    chaos_parser.add_argument(
        "--json", action="store_true", help="emit the session report as JSON"
    )
    chaos_parser.set_defaults(handler=_cmd_chaos)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune a content-addressed result cache"
    )
    cache_parser.add_argument("dir", help="cache directory (as passed to --cache)")
    cache_parser.add_argument(
        "--entries",
        action="store_true",
        help="list every entry (hash, experiment, algorithm, workload, seed)",
    )
    cache_parser.add_argument(
        "--evict",
        action="append",
        metavar="HASH",
        help="remove the entry with this content hash (repeatable)",
    )
    cache_parser.add_argument(
        "--clear", action="store_true", help="remove every entry"
    )
    cache_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    cache_parser.set_defaults(handler=_cmd_cache)

    query_parser = subparsers.add_parser(
        "query",
        help="ask triangle queries of a live graph (one-shot, --serve, or client)",
    )
    query_parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="query-service directory (service.json discovery); omit for "
        "one-shot mode with --graph/--workload",
    )
    query_parser.add_argument(
        "--serve",
        action="store_true",
        help="run a resident query service over the graph source in ROOT",
    )
    query_parser.add_argument(
        "--stop",
        action="store_true",
        help="shut down the query service running in ROOT instead",
    )
    query_parser.add_argument(
        "--graph", metavar="FILE", help="edge-list graph source (.gz supported)"
    )
    query_parser.add_argument(
        "--workload", metavar="NAME", help="registered workload as the graph source"
    )
    query_parser.add_argument(
        "--workload-params",
        metavar="JSON",
        help="workload generator parameters as a JSON object",
    )
    query_parser.add_argument(
        "--seed", type=int, default=None, help="workload seed (seeded generators)"
    )
    query_parser.add_argument(
        "--kind",
        metavar="KIND",
        help="query kind to ask (see 'repro list queries'; default: count)",
    )
    query_parser.add_argument(
        "--params", metavar="JSON", help="query parameters as a JSON object"
    )
    query_parser.add_argument(
        "--spec", metavar="FILE", help="path to a JSON QuerySpec document"
    )
    query_parser.add_argument(
        "--apply",
        action="append",
        metavar="FILE",
        help="apply this JSON update batch ({'insert': [[u,v],...], "
        "'delete': [...]}) before answering; repeatable, applied in order",
    )
    query_parser.add_argument(
        "--apply-edges",
        action="append",
        metavar="FILE",
        help="apply this edge-list file as one insert batch (streamed; "
        ".gz supported); repeatable",
    )
    query_parser.add_argument(
        "--listing",
        action="store_true",
        help="retain and report created/destroyed triangle lists per batch",
    )
    query_parser.add_argument(
        "--compact-threshold",
        type=int,
        default=None,
        metavar="N",
        help="overlay size that triggers compaction back into a fresh CSR",
    )
    query_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    query_parser.set_defaults(handler=_cmd_query)

    table1_parser = subparsers.add_parser(
        "table1", help="render the paper's Table-1 predictions"
    )
    table1_parser.add_argument(
        "--num-nodes", type=int, default=1000, help="network size n (default 1000)"
    )
    table1_parser.add_argument(
        "--json", action="store_true", help="emit a JSON document"
    )
    table1_parser.set_defaults(handler=_cmd_table1)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        preload = os.environ.get("REPRO_PRELOAD", "")
        if preload:
            from ..service.worker import preload_modules

            preload_modules(name.strip() for name in preload.split(","))
        if os.environ.get(FAULTS_ENV):
            # Arm the fault plane when a chaos run asks for it, for every
            # verb — even a plain `repro sweep` can be chaos-tested.
            from ..faults import install_from_env

            install_from_env()
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/`head` closed the pipe; that is not an error.
        # (Must precede the OSError clause below — it is a subclass.)
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except (ReproError, ValueError, OSError) as error:
        # ReproError covers the library's own validation; ValueError covers
        # constructor-level checks that predate the error hierarchy (e.g.
        # validate_kernel) reached through an otherwise schema-valid spec;
        # OSError covers unreadable spec files and unwritable --out paths.
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
