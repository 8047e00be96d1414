"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 perfbench/selftest.py

For each workload it makes one untraced and two traced invocations of
``run.py --tiny`` and checks that every metric BENCHMARK.json names is
printed with its unit, that no op failed, and that the exact counts
(every ``count`` metric and ``result.recall``) repeat between the two
traced invocations.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=170, check=False)
    if completed.returncode != 0:
        sys.exit(f"selftest: {' '.join(command[1:])} exited {completed.returncode}:\n{completed.stdout}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"selftest: {workload} trace={trace} reported failures: {result}")
    return result


def check_names(workload: str, result: dict, declared: list) -> None:
    expected = {metric["name"]: metric["unit"] for metric in declared}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if printed != expected:
        sys.exit(f"selftest: {workload} printed {printed}, BENCHMARK.json declares {expected}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in [entry["name"] for entry in spec["workloads"]]:
        check_names(workload, invoke(workload, 0), spec["end_to_end"])
        first, second = invoke(workload, 1), invoke(workload, 1)
        check_names(workload, first, spec["per_layer"])
        exact = [
            name for name, metric in first["metrics"].items()
            if metric["unit"] == "count" or name == "result.recall"
        ]
        for name in exact:
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                sys.exit(
                    f"selftest: {workload} {name} did not repeat: "
                    f"{first['metrics'][name]['value']} then {second['metrics'][name]['value']}"
                )
        print(f"selftest: {workload} ok ({len(exact)} exact counts repeated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
