"""Outside-in layer tracing for the benchmark.

The traced run patches the public entry point of each layer (see
:func:`install`) with a wrapper that records a span: name, start, end,
parent span and op id.  Spans stay in memory and are written out
once, at exit.  Every rise of the process's ``ru_maxrss`` high-water
mark seen at a span boundary is credited to the innermost open span, so
the spans also say where peak memory was reached.

Nothing in the program is modified on disk and nothing is traced unless
:func:`install` is called; end-to-end numbers always come from untraced
passes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import resource
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

# Span row fields.
NAME, START, END, PARENT, OP, RSS_KB = range(6)

#: Every per-layer metric, the end-to-end metric it should move, and the
#: workload on which it is heavy.  On every other workload the prediction
#: is no change.  BENCHMARK.json's ``per_layer`` list names exactly these.
MOVES: Dict[str, str] = {
    "graphs.generate_s": "setup_s on query-stream; norm_wall_s on thm1-sparse",
    "graphs.csr_s": "setup_s on query-stream; norm_wall_s on thm1-sparse",
    "graphs.oracle_s": "setup_s on query-stream; norm_wall_s on thm1-sparse (~30% of an op)",
    "congest.stage_s": "norm_wall_s on thm1-sparse; ~0 change on thm2-dense",
    "congest.exchange_s": "norm_wall_s on thm1-sparse; ~0 change on thm2-dense",
    "congest.group_s": "norm_wall_s on thm1-sparse; ~0 change on thm2-dense",
    "congest.phases": "norm_wall_s on thm1-sparse",
    "congest.messages": "norm_wall_s on thm1-sparse",
    "congest.bits": "norm_wall_s on thm1-sparse",
    "congest.arena_allocs": "norm_wall_s on thm1-sparse",
    "core.a1_self_s": "norm_wall_s on thm1-sparse",
    "core.a2_self_s": "norm_wall_s on thm2-dense",
    "core.a3_self_s": "norm_wall_s on thm1-sparse",
    "core.union_s": "norm_wall_s on thm2-dense",
    "analysis.verify_self_s": "norm_wall_s on thm2-dense",
    "analysis.sweep_wait_s": "norm_ops_per_s on sweep-store",
    "analysis.cells": "norm_ops_per_s on sweep-store",
    "api.store_write_s": "norm_wall_s on sweep-store",
    "api.cache_put_s": "norm_wall_s on sweep-store",
    "api.cache_get_s": "norm_wall_s on sweep-store",
    "api.result_encode_s": "norm_ops_per_s on query-stream",
    "dynamic.engine_build_s": "setup_s on query-stream",
    "dynamic.apply_s": "write_p50_ms (result.write_p50_ms) and norm_wall_s on query-stream",
    "dynamic.delta_apply_s": "write_p50_ms (result.write_p50_ms) and norm_wall_s on query-stream",
    "dynamic.triangles_changed": "write_p50_ms (result.write_p50_ms) on query-stream",
    "dynamic.compact_s": "norm_wall_s on query-stream; result.write_p95_ms only once compactions exceed 5% of batches",
    "dynamic.compactions": "norm_wall_s on query-stream",
    "dynamic.read_count_p50_ms": "norm_ops_per_s on query-stream",
    "dynamic.read_node-counts_p50_ms": "norm_ops_per_s on query-stream",
    "dynamic.read_edge-support_p50_ms": "norm_ops_per_s on query-stream",
    "dynamic.read_delta-since_p50_ms": "norm_ops_per_s on query-stream",
    "graphs.rss_grow_mb": "peak_rss_mb on query-stream and thm1-sparse",
    "congest.rss_grow_mb": "peak_rss_mb on thm1-sparse",
    "core.rss_grow_mb": "peak_rss_mb on thm1-sparse",
    "analysis.rss_grow_mb": "peak_rss_mb on thm1-sparse and thm2-dense",
    "api.rss_grow_mb": "peak_rss_mb on sweep-store",
    "dynamic.rss_grow_mb": "peak_rss_mb on query-stream",
    "trace.overhead_frac": "none: traced norm_wall_s / untraced norm_wall_s - 1",
    "trace.unattributed_frac": "none: share of op wall time inside no layer span",
    "result.rounds": "exact count; thm1-sparse, thm2-dense, sweep-store",
    "result.messages": "exact count; thm1-sparse, thm2-dense, sweep-store",
    "result.recall": "exact; thm1-sparse, thm2-dense, sweep-store",
    "result.write_p50_ms": "user-visible write latency on query-stream",
    "result.write_p95_ms": "user-visible write tail latency on query-stream",
    "result.fail_frac": "failed ops / attempted ops; must be 0 on every workload",
}

LAYERS = ("graphs", "congest", "core", "analysis", "api", "dynamic")
READ_KINDS = ("count", "node-counts", "edge-support", "delta-since")


def maxrss_kb() -> int:
    """The process's peak RSS so far, in KiB (Linux ``ru_maxrss`` units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder with high-water-mark RSS attribution."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counts: Counter = Counter()
        self.op: Optional[int] = None
        #: Wrappers record only while active; checks after the timed
        #: region call :meth:`stop` so their calls are not attributed.
        self.active = True
        self._stack: List[int] = []
        self._rss = maxrss_kb()

    def _credit_rss(self) -> None:
        rss = maxrss_kb()
        if rss > self._rss:
            if self._stack:
                self.spans[self._stack[-1]][RSS_KB] += rss - self._rss
            self._rss = rss

    def stop(self) -> None:
        self.active = False

    def open(self, name: str) -> int:
        self._credit_rss()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, 0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        self._credit_rss()
        self.spans[index][END] = end
        self._stack.pop()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in ns from the first span)."""
        origin = self.spans[0][START] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, row in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": row[NAME],
                            "start_ns": row[START] - origin,
                            "end_ns": row[END] - origin,
                            "parent": row[PARENT],
                            "op": row[OP],
                            "rss_grow_kb": row[RSS_KB],
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def op_span(tracer: Optional[Tracer], op: int) -> Iterator[None]:
    """Wrap one benchmark op in a ``bench.op`` span (no-op when untraced)."""
    if tracer is None or not tracer.active:
        yield
        return
    tracer.op = op
    index = tracer.open("bench.op")
    try:
        yield
    finally:
        tracer.close(index)
        tracer.op = None


def _span_wrapper(
    tracer: Tracer,
    function: Callable,
    name: "str | Callable[..., str]",
    after: Optional[Callable[[Tracer, Any], None]] = None,
) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        if not tracer.active:
            return function(*args, **kwargs)
        span = tracer.open(name if isinstance(name, str) else name(*args, **kwargs))
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(tracer, result)
        return result

    return traced


def _iter_cells_wrapper(tracer: Tracer, function: Callable) -> Callable:
    """Time the parent's wait for each record of ``SweepRunner.iter_cells``."""

    @functools.wraps(function)
    def traced(*args, **kwargs):
        stream = function(*args, **kwargs)
        if not tracer.active:
            yield from stream
            return
        try:
            while True:
                span = tracer.open("analysis.sweep_wait")
                try:
                    record = next(stream)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.counts["analysis.cells"] += 1
                yield record
        finally:
            stream.close()

    return traced


def _count_report(tracer: Tracer, report) -> None:
    tracer.counts["congest.phases"] += 1
    tracer.counts["congest.messages"] += report.messages
    tracer.counts["congest.bits"] += report.bits


def _count_delta(tracer: Tracer, delta) -> None:
    tracer.counts["dynamic.triangles_changed"] += len(delta.created) + len(delta.destroyed)


class Installed:
    """The patches :func:`install` applied; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        # None marks an inherited attribute: removing the patch deletes it.
        self._undo.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        from repro.congest import set_allocation_hook

        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        set_allocation_hook(None)


def install(tracer: Tracer) -> Installed:
    """Patch every layer's public entry point to record spans into ``tracer``."""
    from repro.analysis import experiments
    from repro.api.queries import QueryResult
    from repro.api.specs import WorkloadSpec
    from repro.api.store import ResultCache, SweepStoreWriter
    from repro.congest import set_allocation_hook
    from repro.congest.runtime import DeliveredPhase
    from repro.congest.simulator import CongestSimulator
    from repro.core.a1_sampling import HeavySamplingFinder
    from repro.core.a2_heavy import HeavyHashingLister
    from repro.core.a3_light import LightTrianglesLister
    from repro.core.output import AlgorithmResult
    from repro.dynamic.delta import DeltaGraph, DeltaSnapshot
    from repro.dynamic.engine import TriangleQueryEngine
    from repro.graphs.csr import CSRGraph
    from repro.graphs.graph import Graph

    installed = Installed()

    def span(owner, attr, name, after=None):
        original = getattr(owner, attr)
        installed.patch(owner, attr, _span_wrapper(tracer, original, name, after))

    span(WorkloadSpec, "build", "graphs.generate")
    span(Graph, "csr", "graphs.csr")
    span(CSRGraph, "triangles", "graphs.oracle")
    span(CSRGraph, "edge_support", "graphs.oracle")
    span(CongestSimulator, "stage_columns", "congest.stage")
    span(
        CongestSimulator,
        "exchange_phase",
        "congest.exchange",
        lambda t, delivered: _count_report(t, delivered.report),
    )
    span(CongestSimulator, "run_phase", "congest.exchange", _count_report)
    span(DeliveredPhase, "channel", "congest.group")
    span(HeavySamplingFinder, "run", "core.a1")
    span(HeavyHashingLister, "run", "core.a2")
    span(LightTrianglesLister, "run", "core.a3")
    span(AlgorithmResult, "triangles_found", "core.union")
    # run_single calls verify_result through the experiments module's own
    # binding, so that binding is the one to patch.
    span(experiments, "verify_result", "analysis.verify")
    installed.patch(
        experiments.SweepRunner,
        "iter_cells",
        _iter_cells_wrapper(tracer, experiments.SweepRunner.iter_cells),
    )
    span(SweepStoreWriter, "write", "api.store_write")
    span(ResultCache, "put", "api.cache_put")
    span(ResultCache, "get", "api.cache_get")
    span(QueryResult, "to_json", "api.result_encode")
    span(TriangleQueryEngine, "__init__", "dynamic.engine_build")
    span(TriangleQueryEngine, "apply_batch", "dynamic.apply", _count_delta)
    span(
        TriangleQueryEngine,
        "query",
        lambda engine, spec: "dynamic.read:" + spec.kind,
    )
    span(DeltaGraph, "apply_batch", "dynamic.delta_apply")
    span(DeltaSnapshot, "compact", "dynamic.compact")

    def on_allocation(kind: str) -> None:
        if tracer.active:
            tracer.counts["congest.arena_allocs"] += 1

    set_allocation_hook(on_allocation)
    return installed


def _durations(spans: List[List[Any]]) -> "tuple[List[float], List[float]]":
    """Each span's duration and the time its direct children cover, in seconds."""
    duration = [(row[END] - row[START]) / 1e9 for row in spans]
    child_time = [0.0] * len(spans)
    for index, row in enumerate(spans):
        if row[PARENT] >= 0:
            child_time[row[PARENT]] += duration[index]
    return duration, child_time


def layer_metrics(
    tracer: Tracer, traced_wall_s: float, untraced_wall_s: float
) -> Dict[str, float]:
    """Derive every ``MOVES`` metric except ``result.*`` from the spans."""
    spans = tracer.spans
    duration, child_time = _durations(spans)
    self_time = [d - c for d, c in zip(duration, child_time)]

    total: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    reads: Dict[str, List[float]] = defaultdict(list)
    rss_kb: Dict[str, int] = defaultdict(int)
    compact_s = 0.0
    compactions = 0
    op_time = covered = 0.0
    for index, row in enumerate(spans):
        name = row[NAME]
        own[name] += self_time[index]
        parent = row[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:  # not nested in a span of the same name
            total[name] += duration[index]
        rss_kb[name.split(".", 1)[0]] += row[RSS_KB]
        if name.startswith("dynamic.read:"):
            reads[name.split(":", 1)[1]].append(duration[index] * 1e3)
        parent = row[PARENT]
        if name == "dynamic.compact" and parent >= 0 and spans[parent][NAME] == "dynamic.delta_apply":
            # Only compactions triggered by a batch, not the final recompute check.
            compact_s += duration[index]
            compactions += 1
        if name == "bench.op":
            op_time += duration[index]
            covered += child_time[index]

    metrics = {
        "graphs.generate_s": total["graphs.generate"],
        "graphs.csr_s": total["graphs.csr"],
        "graphs.oracle_s": total["graphs.oracle"],
        "congest.stage_s": total["congest.stage"],
        "congest.exchange_s": total["congest.exchange"],
        "congest.group_s": total["congest.group"],
        "congest.phases": tracer.counts["congest.phases"],
        "congest.messages": tracer.counts["congest.messages"],
        "congest.bits": tracer.counts["congest.bits"],
        "congest.arena_allocs": tracer.counts["congest.arena_allocs"],
        "core.a1_self_s": own["core.a1"],
        "core.a2_self_s": own["core.a2"],
        "core.a3_self_s": own["core.a3"],
        "core.union_s": total["core.union"],
        "analysis.verify_self_s": own["analysis.verify"],
        "analysis.sweep_wait_s": own["analysis.sweep_wait"],
        "analysis.cells": tracer.counts["analysis.cells"],
        "api.store_write_s": total["api.store_write"],
        "api.cache_put_s": total["api.cache_put"],
        "api.cache_get_s": total["api.cache_get"],
        "api.result_encode_s": total["api.result_encode"],
        "dynamic.engine_build_s": total["dynamic.engine_build"],
        "dynamic.apply_s": total["dynamic.apply"],
        "dynamic.delta_apply_s": total["dynamic.delta_apply"],
        "dynamic.triangles_changed": tracer.counts["dynamic.triangles_changed"],
        "dynamic.compact_s": compact_s,
        "dynamic.compactions": compactions,
    }
    for kind in READ_KINDS:
        samples = reads.get(kind)
        metrics[f"dynamic.read_{kind}_p50_ms"] = statistics.median(samples) if samples else 0.0
    for layer in LAYERS:
        metrics[f"{layer}.rss_grow_mb"] = rss_kb[layer] / 1024.0
    metrics["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    metrics["trace.unattributed_frac"] = (op_time - covered) / op_time if op_time else 0.0
    return metrics


def layer_table(tracer: Tracer) -> List[str]:
    """Per-layer busy time, self time, span count and RSS growth, as text rows.

    Busy time counts a span only when no enclosing span belongs to the
    same layer, so nested calls inside one layer are not counted twice.
    """
    spans = tracer.spans
    duration, child_time = _durations(spans)
    busy: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    count: Counter = Counter()
    rss_kb: Dict[str, int] = defaultdict(int)
    for index, row in enumerate(spans):
        layer = row[NAME].split(".", 1)[0]
        own[layer] += duration[index] - child_time[index]
        count[layer] += 1
        rss_kb[layer] += row[RSS_KB]
        parent = row[PARENT]
        while parent >= 0 and spans[parent][NAME].split(".", 1)[0] != layer:
            parent = spans[parent][PARENT]
        if parent < 0:
            busy[layer] += duration[index]
    rows = [f"{'layer':<10} {'busy_s':>10} {'self_s':>10} {'count':>8} {'rss_grow_mb':>12}"]
    for layer in ("bench",) + LAYERS:
        rows.append(
            f"{layer:<10} {busy[layer]:>10.4f} {own[layer]:>10.4f} "
            f"{count[layer]:>8d} {rss_kb[layer] / 1024.0:>12.1f}"
        )
    return rows
