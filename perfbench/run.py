"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload thm1-sparse --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Each workload runs in its own fresh interpreter (``all`` starts one per
workload).  ``--trace 0`` prints the end-to-end metrics of an untraced
run; ``--trace 1`` patches each layer's public entry point, runs the
timed pass traced and then untraced, prints the per-layer metrics and
writes the spans to ``.perfbench-out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Any failed check exits non-zero and names the op and seed.

The program is imported from ``src/`` of the checkout this file sits in,
and only from there.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("thm1-sparse", "thm2-dense", "query-stream", "sweep-store")
#: Fresh interpreters whose set-up time is measured; setup_s is their median.
SETUP_PROBES = 5

END_TO_END_UNITS = {"setup_s": "s", "norm_wall_s": "s", "norm_ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "ratio")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("recall") else "count"


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path; refuse any other copy."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {package}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_command(args, workload: str, *extra: str) -> list:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    return command + (["--tiny"] if args.tiny else []) + list(extra)


def probe_setup(args) -> float:
    """Seconds from starting a fresh interpreter until it is ready to time its first op."""
    start = time.perf_counter()
    with subprocess.Popen(
        child_command(args, args.workload, "--setup-only"), stdout=subprocess.PIPE, text=True
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=170)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe of {args.workload} failed (exit {code})")
    return ready


def emit(outcome, metrics, units) -> int:
    for line in outcome.failures:
        print(f"FAILED: {line}")
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": outcome.ops,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in metrics
                },
            }
        )
    )
    return 1 if outcome.failures else 0


def result_table(args, outcome, setup) -> None:
    """Print the user-visible metrics; ``n/a`` where a workload has none."""
    results = outcome.results
    rows = [
        ("setup_s", statistics.median(setup.norm_segments), "s"),
        ("setup_raw_s", statistics.median(setup.segments), "s"),
        ("wall_s", outcome.wall_s, "s"),
        ("ops_per_s", outcome.ops / outcome.wall_s, "1/s"),
        ("norm_wall_s", outcome.norm_wall_s, "s"),
        ("norm_ops_per_s", outcome.ops / outcome.norm_wall_s, "1/s"),
        ("peak_rss_mb", results["peak_rss_mb"], "MB"),
        ("fail_frac", outcome.failed / outcome.ops, "ratio"),
        ("rounds", results.get("rounds"), "count"),
        ("messages", results.get("messages"), "count"),
        ("recall", results.get("recall"), "ratio"),
        ("write_p50_ms", results.get("write_p50_ms"), "ms"),
        ("write_p95_ms", results.get("write_p95_ms"), "ms"),
    ]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  ops {outcome.ops}")
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<14} {shown:>14} {unit}")
    if "write_samples" in results:
        print(f"  (write percentiles over {results['write_samples']} batches)")
    if "rss_self_mb" in results:
        print(f"  (RUSAGE_SELF alone reads {results['rss_self_mb']:.1f} MB)")
    for note in outcome.notes:
        print(f"  {note}")


def run_untraced(args, workload) -> int:
    from workloads import Stopwatch

    state = workload.setup(args.seed, args.seconds, args.tiny)
    outcome = workload.measure(state, None)
    del state
    gc.collect()
    setup = Stopwatch()
    for _ in range(SETUP_PROBES):
        setup.add(probe_setup(args))
    result_table(args, outcome, setup)
    metrics = {
        "setup_s": statistics.median(setup.norm_segments),
        "norm_wall_s": outcome.norm_wall_s,
        "norm_ops_per_s": outcome.ops / outcome.norm_wall_s,
        "peak_rss_mb": outcome.results["peak_rss_mb"],
    }
    return emit(outcome, metrics, END_TO_END_UNITS)


def run_traced(args, workload) -> int:
    import spans

    # Traced pass first, so the RSS high-water mark rises inside its spans.
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        state = workload.setup(args.seed, args.seconds, args.tiny)
        traced = workload.measure(state, tracer)
    finally:
        installed.remove()
    del state
    gc.collect()
    untraced = workload.measure(workload.setup(args.seed, args.seconds, args.tiny), None)

    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file)
    metrics = spans.layer_metrics(tracer, traced.norm_wall_s, untraced.norm_wall_s)
    results = untraced.results
    metrics.update(
        {
            "result.rounds": results.get("rounds", 0.0),
            "result.messages": results.get("messages", 0.0),
            "result.recall": results.get("recall", 0.0),
            "result.write_p50_ms": results.get("write_p50_ms", 0.0),
            "result.write_p95_ms": results.get("write_p95_ms", 0.0),
            "result.fail_frac": untraced.failed / untraced.ops,
        }
    )
    print(f"workload {args.workload}  seed {args.seed}  traced ops {traced.ops}  spans {len(tracer.spans)} -> {trace_file}")
    for row in spans.layer_table(tracer):
        print(f"  {row}")
    for name in spans.MOVES:
        print(f"  {name:<34} {metrics[name]:>14.6g} {per_layer_unit(name):<6} moves: {spans.MOVES[name]}")
    for note in untraced.notes:
        print(f"  {note}")
    untraced.failures = traced.failures + untraced.failures
    untraced.failed = max(traced.failed, untraced.failed)
    return emit(untraced, metrics, {name: per_layer_unit(name) for name in metrics})


def run_all(args) -> int:
    """Run every workload, each in a fresh interpreter, and print all results."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(child_command(args, name), stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        summary["correct"] = summary["correct"] and result["correct"] and completed.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker, if shared memory started one.

    ``multiprocessing`` starts it as a separate process on the first
    shared-memory segment and leaves it to exit on its own once this
    interpreter has gone, so without this it outlives the benchmark.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return run(parse_args(argv))
    finally:
        stop_resource_tracker()


def run(args) -> int:
    import_program()
    if args.workload == "all":
        return run_all(args)
    import workloads

    workload = workloads.build(OUT)[args.workload]
    if args.setup_only:
        workload.setup(args.seed, args.seconds, args.tiny)
        print("ready", flush=True)
        return 0
    return run_traced(args, workload) if args.trace else run_untraced(args, workload)


if __name__ == "__main__":
    sys.exit(main())
