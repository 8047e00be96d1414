"""Tests for the helpers shared by the benchmark modules."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

#: Forks a measuring process, which forks a child that touches 160 MB, waits
#: for it, and prints its own peak next to what ``peak_rss_bytes`` reports.
#: A forked process's peak starts at the current size of its parent, while an
#: exec'd interpreter keeps the peak of the process that launched it, which
#: under a test runner can exceed the child's.
_FORK_SCRIPT = """
import os, resource, sys
sys.path.insert(0, sys.argv[1])
from _bench_utils import peak_rss_bytes

if os.fork() == 0:
    pid = os.fork()
    if pid == 0:
        block = b"\\x01" * (160 * 2**20)
        os._exit(0)
    os.waitpid(pid, 0)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(own, peak_rss_bytes(), flush=True)
    os._exit(0)
os.wait()
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_peak_rss_covers_waited_for_children():
    completed = subprocess.run(
        [sys.executable, "-c", _FORK_SCRIPT, str(BENCHMARKS_DIR)],
        capture_output=True,
        text=True,
        check=True,
    )
    own, reported = map(int, completed.stdout.split())
    # The pool benchmarks' workers are such children: their peak must show.
    assert reported >= own + 64 * 2**20


@pytest.fixture
def bench_utils(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    import _bench_utils

    monkeypatch.setattr(_bench_utils, "RESULTS_DIR", tmp_path)
    return _bench_utils


def test_quick_results_never_overwrite_full_ones(bench_utils, tmp_path):
    bench_utils.record_table("scaling", "full", quick=False)
    bench_utils.record_json("scaling", {"quick": False, "peak_rss_bytes": 1})
    bench_utils.record_table("scaling", "quick", quick=True)
    bench_utils.record_json("scaling", {"quick": True, "peak_rss_bytes": 2})
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "BENCH_scaling.json",
        "BENCH_scaling.quick.json",
        "scaling.quick.txt",
        "scaling.txt",
    ]
    assert (tmp_path / "scaling.txt").read_text(encoding="utf-8") == "full\n"
    assert '"quick": false' in (tmp_path / "BENCH_scaling.json").read_text(
        encoding="utf-8"
    )


def test_trajectory_reads_the_quick_record(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))
    import compare_trajectory

    results, baselines = tmp_path / "results", tmp_path / "baselines"
    results.mkdir()
    baselines.mkdir()
    monkeypatch.setattr(compare_trajectory, "RESULTS_DIR", results)
    monkeypatch.setattr(compare_trajectory, "BASELINES_DIR", baselines)

    def write(path, quick, speedup):
        path.write_text(json.dumps({"quick": quick, "speedup": speedup}), encoding="utf-8")

    write(baselines / "BENCH_bench.quick.json", True, 10.0)
    write(baselines / "BENCH_bench.json", False, 20.0)
    # A stale quick record in the full slot is superseded by the fresh one.
    write(results / "BENCH_bench.json", True, 1.0)
    write(results / "BENCH_bench.quick.json", True, 9.0)
    assert compare_trajectory.main(["--only", "bench", "--ratio-only"]) == 0
    assert "baseline=10.000 current=9.000" in capsys.readouterr().out
    # A full record and a quick one are each judged against their own baseline.
    write(results / "BENCH_bench.json", False, 5.0)
    assert compare_trajectory.main(["--only", "bench", "--ratio-only"]) == 1
    out = capsys.readouterr().out
    assert "baseline=20.000 current=5.000 [REGRESSED]" in out
    assert "baseline=10.000 current=9.000 [ok]" in out
