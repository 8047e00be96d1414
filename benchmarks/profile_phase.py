"""Profile a protocol run phase by phase (cProfile + per-phase wall clock).

Runs one seeded execution of the chosen protocol under ``cProfile``, while
also timing every simulator phase boundary (``run_phase`` /
``exchange_phase`` / Lenzen routing) so hot spots can be attributed to the
protocol step that caused them.  Writes the report to
``benchmarks/results/profile_<protocol>.txt`` and prints it.

Usage::

    python benchmarks/profile_phase.py --protocol theorem2 --nodes 300
    python benchmarks/profile_phase.py --protocol a2 --nodes 600 --top 40
    python benchmarks/profile_phase.py --protocol dolev --kernel reference
    python benchmarks/profile_phase.py --protocol a3 --top-allocs 10

``--top-allocs N`` additionally snapshots tracemalloc at every phase
boundary and reports each phase's N largest allocation sites (by net bytes
allocated during the phase) — the tool that verified the arena actually
removed the plane's steady-state allocations.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.congest.routing import LenzenRouter
from repro.congest.simulator import CongestSimulator
from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
    TriangleFinding,
    TriangleListing,
)
from repro.graphs import gnp_random_graph

RESULTS_DIR = Path(__file__).resolve().parent / "results"

def _tuning(args) -> dict:
    return {
        "kernel": args.kernel,
        "chunk_bytes": args.chunk_bytes,
    }


PROTOCOLS = {
    "a1": lambda args: HeavySamplingFinder(epsilon=args.epsilon, **_tuning(args)),
    "a2": lambda args: HeavyHashingLister(epsilon=args.epsilon, **_tuning(args)),
    "a3": lambda args: LightTrianglesLister(epsilon=args.epsilon, **_tuning(args)),
    "dolev": lambda args: DolevCliqueListing(**_tuning(args)),
    "theorem1": lambda args: TriangleFinding(
        repetitions=1, epsilon=args.epsilon, **_tuning(args)
    ),
    "theorem2": lambda args: TriangleListing(
        repetitions=1, epsilon=args.epsilon, **_tuning(args)
    ),
}


class _PhaseClock:
    """Accumulate wall-clock per phase name by wrapping the phase doors."""

    def __init__(self, trace_allocs: bool = False) -> None:
        self.totals: dict[str, float] = {}
        #: phase name -> {"file:line": net bytes allocated} (tracemalloc).
        self.alloc_sites: dict[str, dict[str, int]] = {}
        self._trace_allocs = trace_allocs
        self._last_snapshot = None
        self._last_mark = time.perf_counter()
        self._patches: list[tuple[type, str, object]] = []

    def _record(self, name: str) -> None:
        now = time.perf_counter()
        self.totals[name] = self.totals.get(name, 0.0) + (now - self._last_mark)
        if self._trace_allocs:
            snapshot = tracemalloc.take_snapshot()
            if self._last_snapshot is not None:
                bucket = self.alloc_sites.setdefault(name, {})
                for diff in snapshot.compare_to(self._last_snapshot, "lineno"):
                    if diff.size_diff <= 0:
                        continue
                    frame = diff.traceback[0]
                    site = f"{frame.filename}:{frame.lineno}"
                    bucket[site] = bucket.get(site, 0) + diff.size_diff
            self._last_snapshot = snapshot
        self._last_mark = time.perf_counter()

    def _wrap(self, owner: type, attribute: str) -> None:
        clock = self
        original = getattr(owner, attribute)

        def timed(self, name="phase", *args, **kwargs):
            result = original(self, name, *args, **kwargs)
            clock._record(name if isinstance(name, str) else "phase")
            return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, timed)

    def __enter__(self) -> "_PhaseClock":
        self._wrap(CongestSimulator, "run_phase")
        self._wrap(CongestSimulator, "exchange_phase")
        if self._trace_allocs:
            tracemalloc.start()
            self._last_snapshot = tracemalloc.take_snapshot()
        self._last_mark = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in self._patches:
            setattr(owner, attribute, original)
        # Whatever ran after the last phase (output collection, result
        # packaging) is attributed to a synthetic tail entry.
        self._record("<post-phase / result packaging>")
        if self._trace_allocs:
            tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="theorem2")
    parser.add_argument("--kernel", default="batched",
                        choices=("batched", "reference"))
    parser.add_argument("--nodes", type=int, default=300)
    parser.add_argument("--probability", type=float, default=0.5)
    parser.add_argument("--epsilon", type=float, default=0.6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=25,
                        help="cProfile rows to report (by cumulative time)")
    parser.add_argument("--chunk-bytes", type=int, default=None,
                        help="chunked-evaluation budget (bytes per block)")
    parser.add_argument("--top-allocs", type=int, default=0,
                        help="per-phase tracemalloc: report the N largest "
                             "allocation sites per phase (0 = off)")
    args = parser.parse_args(argv)

    graph = gnp_random_graph(args.nodes, args.probability, seed=42)
    graph.csr()
    algorithm = PROTOCOLS[args.protocol](args)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    with _PhaseClock(trace_allocs=args.top_allocs > 0) as clock:
        profiler.enable()
        result = algorithm.run(graph, seed=args.seed)
        profiler.disable()
    elapsed = time.perf_counter() - start

    lines = [
        f"phase profile: {args.protocol} kernel={args.kernel} "
        f"n={args.nodes} p={args.probability} eps={args.epsilon} seed={args.seed}",
        f"total wall clock: {elapsed:.3f} s — rounds={result.cost.rounds} "
        f"messages={result.cost.messages}",
        "",
        "per-phase wall clock (includes the local computation feeding each phase):",
    ]
    for name, seconds in sorted(clock.totals.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {seconds:8.3f} s  {name}")
    if args.top_allocs > 0:
        lines += ["", f"per-phase top {args.top_allocs} allocation sites "
                      "(net bytes allocated during the phase, tracemalloc):"]
        for name, _ in sorted(clock.totals.items(), key=lambda kv: -kv[1]):
            sites = clock.alloc_sites.get(name)
            if not sites:
                continue
            lines.append(f"  {name}:")
            ranked = sorted(sites.items(), key=lambda kv: -kv[1])
            for site, size in ranked[: args.top_allocs]:
                lines.append(f"    {size / 1024:10.1f} KiB  {site}")
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream).sort_stats("cumulative")
    stats.print_stats(args.top)
    lines += ["", f"cProfile top {args.top} by cumulative time:", stream.getvalue()]

    report = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / f"profile_{args.protocol}.txt"
    out_path.write_text(report + "\n", encoding="utf-8")
    print(report)
    print(f"\nwritten to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
