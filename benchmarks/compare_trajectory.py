"""Gate the perf trajectory: diff benchmark results against baselines.

Every benchmark emits a machine-readable ``results/BENCH_<name>.json``
record next to its rendered table.  This script compares those records
against the committed baselines under ``benchmarks/baselines/`` and exits
nonzero when any wall-clock metric (a key ending in ``_seconds``) regressed
by more than the tolerance (default 20%).  Speedup keys are also checked —
a drop is a regression too, and being a ratio it is robust to machine
differences — but at twice the tolerance, since a ratio with a sub-second
numerator amplifies timing jitter that the wall-clock gate absorbs.
``peak_rss_bytes`` (recorded by every benchmark) is gated too, at a
deliberately generous ceiling: RSS is allocator- and machine-shaped, so
only structural memory blow-ups should fail the trajectory.

Usage::

    python benchmarks/compare_trajectory.py              # gate at 20%
    python benchmarks/compare_trajectory.py --ratio-only # CI: speedups only
    python benchmarks/compare_trajectory.py --update     # refresh baselines

``--ratio-only`` skips the absolute wall-clock gates and checks only the
speedup ratios — the right mode for CI, where the runner hardware differs
from the machine the baselines were recorded on (a ratio of two timings
taken on the same run cancels the machine speed out).

Quick-mode runs (the reduced CI variants) are tracked separately: they
write ``results/BENCH_<name>.quick.json`` (git-ignored, so they never
overwrite the committed full-size results), and a record with
``"quick": true`` is compared against (and updated into)
``baselines/BENCH_<name>.quick.json``, full runs against
``baselines/BENCH_<name>.json`` — a quick run is never judged against a
full baseline.  Where a ``.quick`` result and a plain one both hold a
quick record, the ``.quick`` one is the fresh run and the only one read.
Benchmarks without a baseline are reported and skipped — run
``--update`` after landing a new benchmark to start its trajectory.
The tolerance can also be set with the ``TRAJECTORY_TOLERANCE``
environment variable (CI uses a loose value to absorb shared-runner noise;
the 20% default is meant for like-for-like machines).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"
BASELINES_DIR = Path(__file__).resolve().parent / "baselines"


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def compare_record(
    name: str, current: dict, baseline: dict, tolerance: float, ratio_only: bool
):
    """Yield (metric, baseline, current, regressed) rows for one benchmark."""
    for key in sorted(set(current) & set(baseline)):
        base_value = baseline[key]
        this_value = current[key]
        if not isinstance(base_value, (int, float)) or isinstance(base_value, bool):
            continue
        if key.endswith("_seconds"):
            if ratio_only:
                continue
            regressed = base_value > 0 and this_value > base_value * (1 + tolerance)
            yield key, base_value, this_value, regressed
        elif key == "speedup":
            # Ratios amplify jitter in a small numerator; gate at 2x the
            # wall-clock tolerance so only structural drops fail.
            floor = 1 - min(2 * tolerance, 0.95)
            regressed = base_value > 0 and this_value < base_value * floor
            yield key, base_value, this_value, regressed
        elif key == "peak_rss_bytes":
            # Peak RSS is machine-dependent (allocator, page size, python
            # build) and ratchet-shaped, so gate it generously — only a
            # structural blow-up (well past the wall-clock tolerance, and
            # at least +50%) should fail, and never in ratio-only CI mode.
            if ratio_only:
                continue
            ceiling = 1 + max(2 * tolerance, 0.5)
            regressed = base_value > 0 and this_value > base_value * ceiling
            yield key, base_value, this_value, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("TRAJECTORY_TOLERANCE", "0.20")),
        help="allowed fractional regression (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="copy the current results over the committed baselines",
    )
    parser.add_argument(
        "--only",
        action="append",
        default=None,
        help="restrict to the named benchmark(s) (e.g. --only direct_exchange)",
    )
    parser.add_argument(
        "--ratio-only",
        action="store_true",
        help="gate only speedup ratios (machine-independent; for CI)",
    )
    args = parser.parse_args(argv)

    # (name, quick) -> (path, record); a .quick file overrides a plain one
    # holding a quick record of the same benchmark.
    current_files = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        stem = path.stem[len("BENCH_"):]
        name = stem[: -len(".quick")] if stem.endswith(".quick") else stem
        if args.only and name not in args.only:
            continue
        record = _load(path)
        key = (name, bool(record.get("quick")))
        if key not in current_files or stem != name:
            current_files[key] = (path, record)
    if not current_files:
        print("no BENCH_*.json results found — run the benchmarks first")
        return 1

    def baseline_path_for(name: str, record: dict) -> Path:
        suffix = ".quick.json" if record.get("quick") else ".json"
        return BASELINES_DIR / f"BENCH_{name}{suffix}"

    if args.update:
        BASELINES_DIR.mkdir(exist_ok=True)
        for (name, _), (path, record) in current_files.items():
            destination = baseline_path_for(name, record)
            shutil.copy(path, destination)
            print(f"baseline updated: {destination.name}")
        return 0

    failures = []
    for (name, _), (path, current) in current_files.items():
        baseline_path = baseline_path_for(name, current)
        if not baseline_path.exists():
            print(f"{name}: no committed baseline — skipped (run --update to seed)")
            continue
        baseline = _load(baseline_path)
        for key, base_value, this_value, regressed in compare_record(
            name, current, baseline, args.tolerance, args.ratio_only
        ):
            marker = "REGRESSED" if regressed else "ok"
            print(
                f"{name}.{key}: baseline={base_value:.3f} "
                f"current={this_value:.3f} [{marker}]"
            )
            if regressed:
                failures.append(f"{name}.{key}")
    if failures:
        print(
            f"\n{len(failures)} metric(s) regressed beyond "
            f"{args.tolerance:.0%}: {', '.join(failures)}"
        )
        return 1
    print("\nperf trajectory OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
