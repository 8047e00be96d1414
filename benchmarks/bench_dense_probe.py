"""Dense probe: Theorems 1 and 2 and the naive baseline on G(n, 1/2).

Each cell runs ``RunSpec(..., seed=3).run()`` — workload build, the
algorithm and verification, as a sweep cell does — on ``gnp`` G(n, 1/2)
with graph seed 11 and one repetition.  ε is 1/3 for finding and 1/2 for
listing.  Every (algorithm, n) cell runs in its own subprocess, so its
``ru_maxrss`` is that cell's peak and not the largest cell's so far.  A
full-size cell runs three times, one subprocess after another, and
records the median wall time (from spec to verified record, imports
excluded) with the spread of the three, the largest peak RSS, its round
count and the sha256 of its record, which every run must reproduce.  One
run cannot resolve a change smaller than its run-to-run noise; the spread
says how large that noise was.

This is the regime where the paper's round bounds beat the naive
baseline's ``d_max ≈ n/2``, and where output and verification memory
decide which sizes a run can reach at all.  All three algorithms run at
n = 400 and 800; Theorem 1 also runs at n = 1200, where its single pass
beats naive's rounds.  The benchmark asserts that every cell is sound and
that each cell's record sha256 equals the committed full-size cell for
the same (algorithm, n), so a change that alters a record fails here; the
timings are for the trajectory.

Set ``DENSE_PROBE_QUICK=1`` to run n = 400 only, one run per cell (about
10 s); its record goes to the git-ignored ``BENCH_dense_probe.quick.json``.  One cell runs
standalone with ``python benchmarks/bench_dense_probe.py ALGORITHM N``,
which prints the cell's JSON line.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from _bench_utils import RESULTS_DIR, record_json, record_table, run_once

QUICK = os.environ.get("DENSE_PROBE_QUICK", "") not in ("", "0")
EDGE_PROBABILITY = 0.5
GRAPH_SEED = 11
RUN_SEED = 3
#: Registered algorithm name -> its parameters in every cell.
ALGORITHMS = {
    "theorem1-finding": {"repetitions": 1, "epsilon": 1 / 3},
    "theorem2-listing": {"repetitions": 1, "epsilon": 1 / 2},
    "naive-two-hop": {},
}
#: The (algorithm, n) cells, in run order.
CELLS = tuple(
    (algorithm, num_nodes)
    for num_nodes in ((400,) if QUICK else (400, 800))
    for algorithm in ALGORITHMS
) + (() if QUICK else (("theorem1-finding", 1200),))
#: Subprocess runs per cell: the median wall time and the largest peak RSS
#: are recorded.
RUNS = 1 if QUICK else 3
#: The committed full-size record, whose record sha256 values every run
#: (quick or full) must reproduce.
COMMITTED = RESULTS_DIR / "BENCH_dense_probe.json"

_SRC = Path(__file__).resolve().parent.parent / "src"


def run_cell(algorithm: str, num_nodes: int) -> dict:
    """Run one cell in this process and return its measurements."""
    from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec
    from repro.api.records import canonical_json

    spec = RunSpec(
        algorithm=AlgorithmSpec(algorithm, ALGORITHMS[algorithm]),
        workload=WorkloadSpec(
            "gnp",
            {
                "num_nodes": num_nodes,
                "edge_probability": EDGE_PROBABILITY,
                "seed": GRAPH_SEED,
            },
        ),
        seed=RUN_SEED,
    )
    start = time.perf_counter()
    record = spec.run()
    wall = time.perf_counter() - start
    digest = hashlib.sha256(canonical_json(record.to_dict()).encode("utf-8"))
    return {
        "algorithm": algorithm,
        "num_nodes": num_nodes,
        "rounds": record.rounds,
        "sound": record.sound,
        "recall": record.recall,
        "wall_s": round(wall, 3),
        # ru_maxrss is kilobytes on Linux.
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "record_sha256": digest.hexdigest()[:16],
    }


def _run_cell_subprocess(algorithm: str, num_nodes: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + [path for path in [env.get("PYTHONPATH")] if path]
    )
    completed = subprocess.run(
        [sys.executable, __file__, algorithm, str(num_nodes)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _measure_cell(algorithm: str, num_nodes: int) -> dict:
    """Run one cell :data:`RUNS` times; the runs must agree on the record."""
    runs = [_run_cell_subprocess(algorithm, num_nodes) for _ in range(RUNS)]
    digests = {run["record_sha256"] for run in runs}
    assert len(digests) == 1, runs
    walls = [run["wall_s"] for run in runs]
    return {
        **runs[0],
        "runs": RUNS,
        "wall_s": statistics.median(walls),
        "wall_s_runs": walls,
        "peak_rss_bytes": max(run["peak_rss_bytes"] for run in runs),
    }


def _committed_digests() -> dict:
    """``(algorithm, n) -> record sha256`` of the committed full-size cells."""
    cells = json.loads(COMMITTED.read_text())["cells"]
    return {
        (cell["algorithm"], cell["num_nodes"]): cell["record_sha256"] for cell in cells
    }


def test_dense_probe(benchmark):
    """Every cell in its own subprocess; all sound, all records as committed."""
    committed = _committed_digests()

    def probe():
        return [_measure_cell(algorithm, num_nodes) for algorithm, num_nodes in CELLS]

    cells = run_once(benchmark, probe)
    # Checked before writing, so a changed record never replaces the
    # committed one.  A cell the committed record lacks has nothing to match.
    for cell in cells:
        expected = committed.get((cell["algorithm"], cell["num_nodes"]))
        assert expected in (None, cell["record_sha256"]), (cell, expected)
    lines = [
        f"Dense probe: G(n, {EDGE_PROBABILITY}) graph seed {GRAPH_SEED}, "
        f"run seed {RUN_SEED}, one repetition, one subprocess per run, "
        f"{RUNS} run{'s' if RUNS > 1 else ''} per cell (median wall, max peak)",
        f"{'n':>5}  {'algorithm':<17} {'rounds':>6}  {'wall s':>7}  {'spread':>6}  "
        f"{'peak GB':>7}  record sha256",
    ]
    for cell in cells:
        spread = max(cell["wall_s_runs"]) - min(cell["wall_s_runs"])
        lines.append(
            f"{cell['num_nodes']:>5}  {cell['algorithm']:<17} {cell['rounds']:>6}  "
            f"{cell['wall_s']:>7.2f}  {spread:>6.2f}  "
            f"{cell['peak_rss_bytes'] / 1e9:>7.2f}  {cell['record_sha256']}"
        )
    record_table("dense_probe", "\n".join(lines), quick=QUICK)
    record_json(
        "dense_probe",
        {
            "benchmark": "dense_probe",
            "quick": QUICK,
            "edge_probability": EDGE_PROBABILITY,
            "graph_seed": GRAPH_SEED,
            "run_seed": RUN_SEED,
            "runs_per_cell": RUNS,
            "algorithms": ALGORITHMS,
            "cells": cells,
        },
    )
    for cell in cells:
        assert cell["sound"], cell


if __name__ == "__main__":
    print(json.dumps(run_cell(sys.argv[1], int(sys.argv[2]))))
