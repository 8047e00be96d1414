"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def peak_rss_bytes() -> Optional[int]:
    """Return the peak resident set size in bytes, if knowable.

    The larger of this process's peak and that of its largest waited-for
    child, so the pool benchmarks count their sweep workers too.  Uses
    ``resource.getrusage`` where available (``ru_maxrss`` is kilobytes on
    Linux, bytes on macOS); falls back to the tracemalloc high-water mark
    when a tracemalloc trace is running, and ``None`` otherwise (the caller
    omits the metric rather than recording a lie).
    """
    try:
        import resource
    except ImportError:
        resource = None
    if resource is not None:
        peak = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        )
        if peak > 0:
            return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    import tracemalloc

    if tracemalloc.is_tracing():
        return tracemalloc.get_traced_memory()[1]
    return None


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The simulations measured here are deterministic round-counting runs that
    can take seconds; repeating them for statistical timing precision would
    only slow the suite without changing the recorded round counts, which
    are the quantity of interest.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1)


def result_stem(name: str, quick: bool) -> str:
    """The file stem a result is written under: ``<name>`` for a full run,
    ``<name>.quick`` for a reduced-size one.

    The quick files are git-ignored, so a quick run (CI's) never
    overwrites the committed full-size results.
    """
    return f"{name}.quick" if quick else name


def record_table(name: str, text: str, quick: bool = False) -> None:
    """Persist a rendered result table as ``results/<name>.txt``
    (``<name>.quick.txt`` for a quick run)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{result_stem(name, quick)}.txt").write_text(
        text + "\n", encoding="utf-8"
    )


def record_json(name: str, payload: Dict[str, Any]) -> None:
    """Persist a machine-readable result as ``results/BENCH_<name>.json``.

    Emitted next to the rendered ``results/<name>.txt`` tables so the perf
    trajectory can be tracked across PRs by tooling instead of by reading
    text tables.  A record with ``"quick": true`` goes to
    ``BENCH_<name>.quick.json`` instead (:func:`result_stem`).  Values must
    be JSON-serialisable (numpy scalars are coerced via their ``item()``).
    Every record additionally carries the process's ``peak_rss_bytes`` so
    memory regressions join the trajectory gate alongside wall-clock.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    if "peak_rss_bytes" not in payload:
        peak = peak_rss_bytes()
        if peak is not None:
            payload = {**payload, "peak_rss_bytes": peak}

    def coerce(value: Any) -> Any:
        item = getattr(value, "item", None)
        return item() if callable(item) else value

    def walk(value: Any) -> Any:
        if isinstance(value, dict):
            return {key: walk(entry) for key, entry in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(entry) for entry in value]
        return coerce(value)

    stem = result_stem(name, bool(payload.get("quick")))
    (RESULTS_DIR / f"BENCH_{stem}.json").write_text(
        json.dumps(walk(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )

