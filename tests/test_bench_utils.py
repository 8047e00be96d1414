"""Tests for the helpers shared by the benchmark modules."""

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
