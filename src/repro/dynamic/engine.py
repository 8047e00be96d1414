"""Versioned query engine tying the incremental oracle to the query specs.

:class:`TriangleQueryEngine` is the single authority the serving layer and
the CLI talk to.  It owns one :class:`IncrementalTriangleOracle` and an
append-only journal of :class:`BatchDelta` records, and serializes every
``apply_batch``/``query`` under one re-entrant lock: a reader either sees
the state before a batch or after it, never a half-applied update, and
every :class:`~repro.api.queries.QueryResult` is stamped with the exact
snapshot version it was computed against.

The journal backs the ``delta-since`` query kind.  It is bounded
(``journal_limit`` batches); asking for history older than the oldest
retained batch raises :class:`~repro.errors.AnalysisError` telling the
client to refresh from a full query instead.  When ``listing`` is enabled
the journal keeps the created/destroyed triangle lists per batch, i.e. the
streaming listing mode; otherwise only counts are retained.  Each journal
entry keeps its batch's canonical JSON fragment beside the delta, encoded on
the entry's first read and evicted with it, so a ``delta-since`` answer is
the retained fragments spliced into one document.

Every payload the engine builds holds Python ints, lists and ``None`` only,
so answers are constructed through ``QueryResult._trusted``, skipping the
validating walk that public construction performs.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from ..api.queries import QueryResult, QuerySpec
from ..api.records import canonical_json, canonical_json_object
from ..errors import AnalysisError, GraphError
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import Edge
from .delta import DeltaSnapshot
from .oracle import BatchDelta, IncrementalTriangleOracle

__all__ = ["DEFAULT_JOURNAL_LIMIT", "TriangleQueryEngine"]

DEFAULT_JOURNAL_LIMIT = 4096


class _JournalEntry:
    """One applied batch and its canonical JSON fragment, once encoded."""

    __slots__ = ("delta", "fragment")

    def __init__(self, delta: BatchDelta) -> None:
        self.delta = delta
        self.fragment: Optional[str] = None


class TriangleQueryEngine:
    """Apply update batches and answer registered query kinds, atomically."""

    def __init__(
        self,
        base: "Graph | CSRGraph",
        *,
        listing: bool = False,
        compact_threshold: Optional[int] = None,
        journal_limit: int = DEFAULT_JOURNAL_LIMIT,
    ) -> None:
        if journal_limit < 1:
            raise GraphError("journal_limit must be at least 1")
        self._oracle = IncrementalTriangleOracle(base, compact_threshold=compact_threshold)
        self._listing = bool(listing)
        self._journal: List[_JournalEntry] = []
        self._journal_limit = int(journal_limit)
        self._lock = threading.RLock()
        self._batches_applied = 0
        self._queries_answered = 0

    # -- introspection -----------------------------------------------------

    @property
    def listing(self) -> bool:
        return self._listing

    @property
    def oracle(self) -> IncrementalTriangleOracle:
        return self._oracle

    @property
    def version(self) -> int:
        return self._oracle.version

    @property
    def snapshot(self) -> DeltaSnapshot:
        return self._oracle.snapshot

    @property
    def batches_applied(self) -> int:
        return self._batches_applied

    @property
    def queries_answered(self) -> int:
        return self._queries_answered

    def status(self) -> Dict[str, Any]:
        with self._lock:
            snap = self._oracle.snapshot
            return {
                "version": snap.version,
                "num_nodes": snap.num_nodes,
                "num_edges": snap.num_edges,
                "triangles": self._oracle.total_triangles,
                "overlay_size": snap.overlay_size,
                "compactions": self._oracle.graph.compactions,
                "batches_applied": self._batches_applied,
                "queries_answered": self._queries_answered,
                "journal_from_version": self._journal_from_version(),
                "listing": self._listing,
            }

    def _journal_from_version(self) -> int:
        """Oldest ``since`` version the journal can still answer."""
        if not self._journal:
            return self._oracle.version
        return self._journal[0].delta.version - 1

    # -- ingest ------------------------------------------------------------

    def apply_batch(self, insert: Iterable[Edge] = (), delete: Iterable[Edge] = ()) -> BatchDelta:
        with self._lock:
            delta = self._oracle.apply_batch(insert, delete)
            self._journal.append(_JournalEntry(delta))
            if len(self._journal) > self._journal_limit:
                del self._journal[: len(self._journal) - self._journal_limit]
            self._batches_applied += 1
            return delta

    # -- queries -----------------------------------------------------------

    def query(self, spec: QuerySpec) -> QueryResult:
        if not isinstance(spec, QuerySpec):
            raise AnalysisError(f"query() expects a QuerySpec, got {type(spec).__name__}")
        with self._lock:
            handler = getattr(self, "_answer_" + spec.kind.replace("-", "_"))
            payload = handler(spec.params)
            self._queries_answered += 1
            return QueryResult._trusted(spec.kind, self._oracle.version, payload)

    def _answer_count(self, params: Dict[str, Any]) -> Dict[str, Any]:
        snap = self._oracle.snapshot
        return {
            "triangles": self._oracle.total_triangles,
            "num_nodes": snap.num_nodes,
            "num_edges": snap.num_edges,
        }

    def _answer_node_counts(self, params: Dict[str, Any]) -> Dict[str, Any]:
        num_nodes = self._oracle.num_nodes
        nodes = params.get("nodes")
        if nodes is None:
            nodes = list(range(num_nodes))
        for node in nodes:
            if node >= num_nodes:
                raise AnalysisError(
                    f"node {node} out of range for graph with {num_nodes} nodes"
                )
        return {"nodes": list(nodes), "counts": self._oracle.node_counts_at(nodes)}

    def _answer_edge_support(self, params: Dict[str, Any]) -> Dict[str, Any]:
        num_nodes = self._oracle.num_nodes
        edges: List[List[int]] = []
        for u, v in params["edges"]:
            if u == v or u >= num_nodes or v >= num_nodes:
                raise AnalysisError(
                    f"edge ({u}, {v}) is not a valid edge of a graph with {num_nodes} nodes"
                )
            edges.append([u, v] if u < v else [v, u])
        return {"edges": edges, "support": self._oracle.supports(edges)}

    def _answer_delta_since(self, params: Dict[str, Any]) -> str:
        """The payload as canonical JSON text, spliced from journal fragments."""
        since = params["version"]
        current = self._oracle.version
        if since > current:
            raise AnalysisError(
                f"delta-since version {since} is ahead of the current version {current}"
            )
        oldest = self._journal_from_version()
        if since < oldest:
            raise AnalysisError(
                f"delta-since version {since} predates the retained journal "
                f"(oldest available: {oldest}); refresh with a full query instead"
            )
        start = bisect.bisect_right(self._journal, since, key=lambda entry: entry.delta.version)
        fragments = []
        for entry in self._journal[start:]:
            if entry.fragment is None:
                entry.fragment = canonical_json(entry.delta.to_dict(include_triangles=self._listing))
            fragments.append(entry.fragment)
        return canonical_json_object(
            {"from_version": str(int(since)), "batches": f"[{','.join(fragments)}]"}
        )

    # -- verification ------------------------------------------------------

    def verify_against_recompute(self) -> Dict[str, Any]:
        """Differentially pin the incremental state against a fresh CSR.

        Recomputes triangle count, per-node counts and edge support from a
        compaction of the current snapshot and compares exactly.  Raises
        :class:`AnalysisError` on any mismatch; returns a small summary
        otherwise.  Used by tests and the serving layer's self-check.
        """
        with self._lock:
            snap = self._oracle.snapshot
            fresh = snap.compact()
            problems: List[str] = []
            if fresh.count_triangles() != self._oracle.total_triangles:
                problems.append(
                    f"total {self._oracle.total_triangles} != recomputed {fresh.count_triangles()}"
                )
            if not np.array_equal(
                fresh.local_triangle_counts().astype(np.int64), self._oracle.node_counts()
            ):
                problems.append("per-node triangle counts diverged")
            n = max(snap.num_nodes, 1)
            fresh_keys = fresh._edge_key_array()
            fresh_support = dict(zip(fresh_keys.tolist(), fresh.edge_support().tolist()))
            incremental = {
                lo * n + hi: value for (lo, hi), value in self._oracle.support_map().items()
            }
            if fresh_support != incremental:
                problems.append("edge_support index diverged")
            if problems:
                raise AnalysisError(
                    "incremental oracle diverged from recompute at version "
                    f"{snap.version}: " + "; ".join(problems)
                )
            return {
                "version": snap.version,
                "triangles": self._oracle.total_triangles,
                "num_edges": snap.num_edges,
            }
