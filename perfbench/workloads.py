"""The benchmark's four workloads.

Each workload has a ``setup`` (everything a run does before its first
timed op: spec resolution and the inputs reused across ops) and a
``measure`` (the timed region: a fixed amount of work sized from
``--seconds``, so two commits always do the same work and ``wall_s``
compares like with like).  ``measure`` checks every op's output and
returns an :class:`Outcome`; checks that are too slow for the timed
region run after it.

Inputs derive only from the workload seed; the program receives the
generated specs, graphs and scripts.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import resource
import shutil
import statistics
import struct
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np
from spans import Tracer, op_span

from repro.analysis.experiments import SweepRunner
from repro.api import (
    AlgorithmSpec,
    QuerySpec,
    ResultCache,
    RunSpec,
    SweepSpec,
    WorkloadSpec,
    canonical_json,
    load_sweep,
    run_sweep,
)
from repro.core import finding_epsilon_asymptotic, listing_epsilon_asymptotic
from repro.dynamic import TriangleQueryEngine
from repro.errors import ReproError
from repro.graphs.triangles import count_triangles


@dataclass
class Outcome:
    """What one timed pass did, and what its checks found."""

    ops: int
    #: Wall-clock of the timed segments, raw and rescaled (see Stopwatch).
    wall_s: float
    norm_wall_s: float
    #: Ops that failed a check, and one message per failed check.
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Workload-specific results: rounds/messages/recall means, write
    #: latency percentiles, RSS probes, digests.
    results: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)


#: Seconds the reference kernel took on the 2-vCPU host the benchmark was
#: tuned on; ``norm_wall_s`` rescales wall time to a host of that speed.
REFERENCE_KERNEL_S = 0.06


def reference_kernel_s(processes: int = 1) -> float:
    """Time a fixed mix of interpreted Python and numpy work, like the ops'.

    It touches 2 MB, so it barely moves a workload's peak RSS.  The faster
    of two back-to-back runs is taken: the first run after an op can pay
    for that op's cache and allocator state.  With ``processes`` above 1
    the kernel runs in that many processes at once (this one and forked
    children, each waited for) and their mean time is returned, for work
    that spreads over several cores.
    """
    children = []
    for _ in range(processes - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.write(write_fd, struct.pack("d", min(_kernel_once(), _kernel_once())))
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [min(_kernel_once(), _kernel_once())]
    for pid, read_fd in children:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        times.append(struct.unpack("d", data)[0])
    return statistics.fmean(times)


def _kernel_once() -> float:
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(400000):
        table[i % 977] = table.get(i % 977, 0) + i
    values = np.random.default_rng(0).random(131072)
    scratch = np.empty_like(values)
    for _ in range(8):
        np.add(values, values[::-1], out=scratch)
        scratch *= 0.5
        scratch.sort()
        values, scratch = scratch, values
    return time.perf_counter() - start


class Stopwatch:
    """Sums the timed segments of a run, raw and rescaled to a reference host.

    The host's speed drifts by 10-20% over tens of seconds (other tenants
    share its cores, and process CPU time drifts with wall time), so raw
    sums do not repeat from run to run.  The reference kernel is timed
    before the first segment and after each one, outside the segments;
    each segment is rescaled by ``REFERENCE_KERNEL_S`` over the mean of the
    two kernel times around it.
    """

    def __init__(self, processes: int = 1) -> None:
        self.processes = processes
        self.segments: List[float] = []
        self.norm_segments: List[float] = []
        self.kernels: List[float] = [reference_kernel_s(processes)]
        self._start = 0.0

    @property
    def wall_s(self) -> float:
        return sum(self.segments)

    @property
    def norm_wall_s(self) -> float:
        return sum(self.norm_segments)

    def summary(self) -> str:
        raw = " ".join(f"{x:.3f}" for x in self.segments)
        norm = " ".join(f"{x:.3f}" for x in self.norm_segments)
        kernels = " ".join(f"{x * 1e3:.1f}" for x in self.kernels)
        return f"timed segments (s): raw {raw}; rescaled {norm}; reference kernel (ms): {kernels}"

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> None:
        self.add(time.perf_counter() - self._start)

    def add(self, seconds: float) -> None:
        """Record a segment of ``seconds`` that has just ended."""
        kernel_s = reference_kernel_s(self.processes)
        self.segments.append(seconds)
        self.norm_segments.append(seconds * REFERENCE_KERNEL_S * 2 / (self.kernels[-1] + kernel_s))
        self.kernels.append(kernel_s)


def _derived_seeds(label: str, seed: int, count: int) -> List[int]:
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class TheoremRuns:
    """``RunSpec.run()`` of one theorem algorithm on a pool of G(n, p) seeds.

    The op list cycles over ``distinct`` graph seeds, so every (algorithm,
    seed) pair runs ``reps`` times: the record digests of the repeats must
    agree, which proves that rounds, messages and recall repeat exactly.
    Every op rebuilds its graph through ``RunSpec.run()``, as ``repro run``
    does, so no op inherits a CSR or oracle cache from an earlier one.
    """

    distinct = 3

    def __init__(
        self,
        name: str,
        algorithm: str,
        params: Dict[str, Any],
        num_nodes: int,
        tiny_nodes: int,
        edge_probability,
        op_seconds: float,
        require_found: bool,
    ) -> None:
        self.name = name
        self.algorithm = algorithm
        self.params = params
        self.num_nodes = num_nodes
        self.tiny_nodes = tiny_nodes
        self.edge_probability = edge_probability
        self.op_seconds = op_seconds
        self.require_found = require_found

    def setup(self, seed: int, seconds: int, tiny: bool) -> Dict[str, Any]:
        n = self.tiny_nodes if tiny else self.num_nodes
        algorithm = AlgorithmSpec(self.algorithm, self.params)
        workload = WorkloadSpec(
            "gnp", {"num_nodes": n, "edge_probability": self.edge_probability(n)}
        )
        algorithm.entry().validate_params(algorithm.params)
        workload.entry().validate_params(workload.params)
        specs = [
            RunSpec(algorithm=algorithm, workload=workload, seed=graph_seed)
            for graph_seed in _derived_seeds(self.name, seed, self.distinct)
        ]
        reps = max(1, round(seconds / (self.distinct * self.op_seconds)))
        return {"specs": specs, "reps": 1 if tiny else reps}

    def measure(self, state: Dict[str, Any], tracer: Optional[Tracer]) -> Outcome:
        specs = state["specs"]
        digests: Dict[int, str] = {}
        failures: List[str] = []
        failed = 0
        notes: List[str] = []
        rounds = messages = recall = 0.0
        n_ops = len(specs) * state["reps"]
        clock = Stopwatch()
        for op in range(n_ops):
            spec = specs[op % len(specs)]
            where = f"{self.name} op {op} (algorithm={self.algorithm}, graph seed={spec.seed})"
            clock.start()
            try:
                with op_span(tracer, op):
                    record = spec.run()
            except ReproError as exc:
                failures.append(f"{where}: raised {exc!r}")
                failed += 1
                continue
            finally:
                clock.stop()
            digest = hashlib.sha256(
                canonical_json(record.to_dict()).encode("utf-8")
            ).hexdigest()
            notes.append(
                f"{where}: record sha256 {digest[:16]}, {clock.segments[-1]:.3f} s"
            )
            problems = []
            if not record.sound:
                problems.append("reported a non-triangle")
            if self.require_found and record.num_triangles and not record.solves_finding:
                problems.append("reported nothing on a graph with triangles")
            if digests.setdefault(spec.seed, digest) != digest:
                problems.append("record differs from the earlier run of this seed")
            failures.extend(f"{where}: {problem}" for problem in problems)
            failed += bool(problems)
            rounds += record.rounds
            messages += record.messages
            recall += record.recall
        if tracer is not None:
            tracer.stop()
        notes.append(clock.summary())
        return Outcome(
            ops=n_ops,
            wall_s=clock.wall_s,
            norm_wall_s=clock.norm_wall_s,
            failed=failed,
            failures=failures,
            notes=notes,
            results={
                "rounds": rounds / n_ops,
                "messages": messages / n_ops,
                "recall": recall / n_ops,
                "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
            },
        )


class QueryStream:
    """A closed loop with one in-process caller over ``TriangleQueryEngine``.

    Each step applies one effective batch (every insert absent, every
    delete present) and then issues reads cycling through the four query
    kinds, encoding each answer as the query server does.  No socket and
    no extra thread: the single caller waits for each answer.
    """

    name = "query-stream"
    kinds = ("count", "node-counts", "edge-support", "delta-since")

    def __init__(self, step_seconds: float) -> None:
        self.step_seconds = step_seconds

    def setup(self, seed: int, seconds: int, tiny: bool) -> Dict[str, Any]:
        if tiny:
            n, p, inserts, deletes, picks = 300, 0.05, 6, 4, 8
        else:
            n, p, inserts, deletes, picks = 4000, 0.01, 60, 40, 32
        # Whole 100-step segments (see measure), and >= 200 batches for p95.
        steps = 100 * max(2, round(seconds / self.step_seconds / 100))
        rng = random.Random(f"{self.name}:{seed}")
        graph = WorkloadSpec("gnp", {"num_nodes": n, "edge_probability": p}).build(
            seed=rng.randrange(2**31)
        )
        uniform = rng.random
        engine = TriangleQueryEngine(graph, listing=True)

        # The script tracks the edge set so that every batch is effective.
        edges = [(u, v) if u < v else (v, u) for u, v in graph.edge_list()]
        position = {edge: i for i, edge in enumerate(edges)}
        script = []
        read_index = 0
        for step in range(steps):
            insert = set()
            while len(insert) < inserts:
                u, v = int(uniform() * n), int(uniform() * n)
                edge = (u, v) if u < v else (v, u)
                if u != v and edge not in position:
                    insert.add(edge)
            delete = set()
            while len(delete) < deletes:
                delete.add(edges[int(uniform() * len(edges))])
            for edge in delete:
                last = edges.pop()
                if last != edge:
                    edges[position[edge]] = last
                    position[last] = position[edge]
                del position[edge]
            for edge in sorted(insert):
                position[edge] = len(edges)
                edges.append(edge)
            reads = []
            for _ in range(10):
                kind = self.kinds[read_index % len(self.kinds)]
                read_index += 1
                if kind == "count":
                    params: Dict[str, Any] = {}
                elif kind == "node-counts":
                    params = {"nodes": rng.sample(range(n), picks)}
                elif kind == "edge-support":
                    params = {"edges": [list(edges[int(uniform() * len(edges))]) for _ in range(picks)]}
                else:
                    params = {"version": max(0, step + 1 - 4)}
                reads.append((kind, params))
            script.append((sorted(insert), sorted(delete), reads))
        return {"engine": engine, "script": script, "batch": (inserts, deletes)}

    def measure(self, state: Dict[str, Any], tracer: Optional[Tracer]) -> Outcome:
        engine: TriangleQueryEngine = state["engine"]
        inserts, deletes = state["batch"]
        failures: List[str] = []
        failed_ops = set()
        write_ms: List[float] = []
        answers = hashlib.sha256()
        op = 0
        clock = Stopwatch()
        clock.start()
        for step, (insert, delete, reads) in enumerate(state["script"]):
            if step and step % 100 == 0:
                clock.stop()
                clock.start()
            with op_span(tracer, op):
                begin = time.perf_counter()
                try:
                    delta = engine.apply_batch(insert, delete)
                except ReproError as exc:
                    failures.append(f"{self.name} op {op} (batch {step}): {exc}")
                    failed_ops.add(op)
                    delta = None
                write_ms.append((time.perf_counter() - begin) * 1e3)
            if delta is not None and (len(delta.inserted), len(delta.deleted)) != (inserts, deletes):
                failures.append(
                    f"{self.name} op {op} (batch {step}): applied "
                    f"+{len(delta.inserted)}/-{len(delta.deleted)}, expected +{inserts}/-{deletes}"
                )
                failed_ops.add(op)
            op += 1
            for kind, params in reads:
                with op_span(tracer, op):
                    try:
                        answer = engine.query(QuerySpec(kind, params)).to_json()
                    except ReproError as exc:
                        failures.append(f"{self.name} op {op} ({kind} after batch {step}): {exc}")
                        failed_ops.add(op)
                        answer = ""
                answers.update(answer.encode("utf-8"))
                op += 1
        clock.stop()
        if tracer is not None:
            tracer.stop()
        peak = _maxrss_mb(resource.RUSAGE_SELF)

        final_failures = []
        try:
            engine.verify_against_recompute()
        except ReproError as exc:
            final_failures.append(f"{self.name}: verify_against_recompute failed: {exc}")
        fresh = count_triangles(engine.snapshot.materialize())
        if fresh != engine.oracle.total_triangles:
            final_failures.append(
                f"{self.name}: final count {engine.oracle.total_triangles} != recomputed {fresh}"
            )
        failures.extend(final_failures)
        # A diverged final state discredits every answer of the stream.
        failed = op if final_failures else len(failed_ops)
        write_ms.sort()
        return Outcome(
            ops=op,
            wall_s=clock.wall_s,
            norm_wall_s=clock.norm_wall_s,
            failed=failed,
            failures=failures,
            notes=[
                f"{self.name}: answers sha256 {answers.hexdigest()[:16]}, "
                f"{engine.oracle.graph.compactions} compactions in {len(write_ms)} batches",
                clock.summary(),
            ],
            results={
                "write_p50_ms": statistics.median(write_ms),
                # p95 has len(write_ms) // 20 >= 10 samples beyond it (>= 200 batches).
                "write_p95_ms": write_ms[math.ceil(0.95 * len(write_ms)) - 1],
                "write_samples": len(write_ms),
                "peak_rss_mb": peak,
            },
        )


class SweepStore:
    """Cold ``run_sweep()`` on a fresh pool and cache, then a warm replay.

    Each op is one sweep into a fresh JSONL store with a fresh
    ``ResultCache`` and a fresh ``SweepRunner`` (as ``repro sweep`` makes
    one per call), followed by a replay of the same spec from the warm
    cache into a second store.  The op's cells count as ops.  The replay
    must equal the cold store byte for byte, and the cold store must
    equal a serial reference built after the timed region.
    """

    name = "sweep-store"
    algorithms = (
        ("theorem1-finding", {"repetitions": 1}),
        ("theorem2-listing", {"repetitions": 1}),
        ("naive-two-hop", {}),
    )

    def __init__(self, op_seconds: float, out_dir: Path) -> None:
        self.op_seconds = op_seconds
        self.out_dir = out_dir

    def setup(self, seed: int, seconds: int, tiny: bool) -> Dict[str, Any]:
        n, p, seeds = (30, 0.2, 4) if tiny else (120, 0.1, 100)
        spec = SweepSpec.with_spawned_seeds(
            self.name,
            [AlgorithmSpec(name, params) for name, params in self.algorithms],
            WorkloadSpec("gnp", {"num_nodes": n, "edge_probability": p}),
            base_seed=seed,
            num_seeds=seeds,
        )
        spec.require_sweepable()
        ops = 1 if tiny else max(1, round(seconds / self.op_seconds))
        return {"spec": spec, "seed": seed, "ops": ops, "workers": len(os.sched_getaffinity(0))}

    def measure(self, state: Dict[str, Any], tracer: Optional[Tracer]) -> Outcome:
        spec: SweepSpec = state["spec"]
        workers = state["workers"]
        work = self.out_dir / f"sweep-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        cells = len(spec.cell_labels())
        failures: List[str] = []
        failed_ops = set()
        cold_bytes: Dict[int, bytes] = {}
        try:
            clock = Stopwatch(processes=workers)
            for op in range(state["ops"]):
                clock.start()
                try:
                    with op_span(tracer, op):
                        cache = ResultCache(work / f"cache-{op}")
                        for store in (f"cold-{op}.jsonl", f"replay-{op}.jsonl"):
                            runner = SweepRunner(max_workers=workers)
                            try:
                                run_sweep(spec, work / store, runner=runner, cache=cache)
                            finally:
                                runner.close()
                except (ReproError, BrokenExecutor) as exc:
                    failures.append(f"{self.name} op {op} (seed {state['seed']}): raised {exc!r}")
                    failed_ops.add(op)
                    continue
                finally:
                    clock.stop()
                cold = (work / f"cold-{op}.jsonl").read_bytes()
                if (work / f"replay-{op}.jsonl").read_bytes() != cold:
                    failures.append(f"{self.name} op {op} (seed {state['seed']}): replay store differs from cold store")
                    failed_ops.add(op)
                cold_bytes[op] = cold
            if tracer is not None:
                tracer.stop()
            self_mb = _maxrss_mb(resource.RUSAGE_SELF)
            children_mb = _maxrss_mb(resource.RUSAGE_CHILDREN)

            run_sweep(spec, work / "reference.jsonl")
            reference = (work / "reference.jsonl").read_bytes()
            for op, cold in cold_bytes.items():
                if cold != reference:
                    failures.append(f"{self.name} op {op} (seed {state['seed']}): cold store differs from the serial reference")
                    failed_ops.add(op)
            records = load_sweep(work / "reference.jsonl").records()
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return Outcome(
            ops=cells * state["ops"],
            wall_s=clock.wall_s,
            norm_wall_s=clock.norm_wall_s,
            # A failed sweep fails all of its cells.
            failed=cells * len(failed_ops),
            failures=failures,
            notes=[
                f"{self.name}: {workers} workers, {cells} cells per op; peak RSS "
                f"RUSAGE_SELF {self_mb:.1f} MB, RUSAGE_CHILDREN {children_mb:.1f} MB",
                f"{self.name}: cell execution runs in pool workers and is not traced; "
                "only parent-side spans exist",
                clock.summary(),
            ],
            results={
                "rounds": statistics.fmean(r.rounds for r in records),
                "messages": statistics.fmean(r.messages for r in records),
                "recall": statistics.fmean(r.recall for r in records),
                "peak_rss_mb": max(self_mb, children_mb),
                "rss_self_mb": self_mb,
            },
        )


def build(out_dir: Path) -> Dict[str, Any]:
    """The workloads by name; op costs size each run's fixed work."""
    return {
        "thm1-sparse": TheoremRuns(
            "thm1-sparse",
            "theorem1-finding",
            {
                "repetitions": 1,
                "epsilon": finding_epsilon_asymptotic(),
                "kernel": "batched",
                "backend": "numpy",
            },
            num_nodes=3000,
            tiny_nodes=200,
            edge_probability=lambda n: math.sqrt(n) / n,
            op_seconds=3.3,
            require_found=True,
        ),
        "thm2-dense": TheoremRuns(
            "thm2-dense",
            "theorem2-listing",
            {"repetitions": 1, "epsilon": listing_epsilon_asymptotic()},
            num_nodes=200,
            tiny_nodes=40,
            edge_probability=lambda n: 0.5,
            op_seconds=2.2,
            require_found=False,
        ),
        "query-stream": QueryStream(step_seconds=0.02),
        "sweep-store": SweepStore(op_seconds=4.7, out_dir=out_dir),
    }
