"""Incremental triangle maintenance over :class:`~repro.dynamic.delta.DeltaGraph`.

Full recomputation after a batch costs the whole ``edge_support`` pass —
O(Σ_e |N(u) ∩ N(v)|), seconds at n=4000.  A batch of edge updates only
ever creates or destroys triangles *containing a batch edge*, and all of
them lie in the *span graph* G ∪ G': the pre-batch graph plus the inserted
edges, or equally the post-batch graph plus the deleted ones.  One wedge
pass over the span finds every span triangle with a batch edge and sorts
it by the kinds of batch edge it holds:

* **destroyed** — a deleted edge and no inserted edge: in G, not in G',
* **created** — an inserted edge and no deleted edge: in G', not in G,
* both kinds — in neither graph, so nothing changes.

The pass is the edge-iterator of Chiba & Nishizeki (1985) and Latapy
(2008), vectorized over the whole batch.  Every batch edge ``(u, v)`` is
oriented so ``u`` has the smaller live degree; N(u) in the span is ``u``'s
base row plus its row in the span's overlay (the live additions and the
deleted edges the base lacks), gathered for all batch edges at once; and
each wedge ``(v, w)`` is closed by one probe of the writer's live hash
table (:class:`~repro.dynamic.delta.LiveEdges`).  The delta layer leaves
every batch edge's slot flagged ``INSERTED`` or ``DELETED``, so the probe
that closes a wedge also says whether its edge is in the span (live, or
just deleted) and whether it is a batch edge of either kind; one more
probe of ``(u, w)``, over the few closed wedges only, drops the base
entries a tombstone hides.  A triangle holding several batch edges is
closed once per such edge; the *min-index rule* keeps the copy closed
from its batch edge with the smallest key.  No membership test
binary-searches, and each batch costs O(Σ min-degree endpoint)
vectorized work, independent of m.

From those exact sets the oracle maintains, in lockstep with the delta
layer's versions:

* the global triangle count,
* per-node triangle counts,
* the ``edge_support`` index (common-neighbour count per live edge), kept
  in the live table's per-slot counters and updated with ``np.add.at`` at
  the slots the pass already probed,

and returns a :class:`BatchDelta` per batch — the effective edge changes
plus the created/destroyed triangle lists, which is the streaming
``listing`` mode of the serving layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.backends import chunk_rows
from ..errors import GraphError
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import Edge, Triangle
from .delta import (
    DELETED,
    IN_BASE,
    INSERTED,
    LIVE,
    DeltaGraph,
    DeltaSnapshot,
    LiveEdges,
    decode_edge_keys,
    gather_rows,
    overlay_rows,
    pair_keys,
)

__all__ = ["BatchDelta", "IncrementalTriangleOracle"]

@dataclass(frozen=True)
class BatchDelta:
    """The exact effect of one applied batch.

    ``inserted``/``deleted`` hold the *effective* edge changes (requests
    that were no-ops are dropped); ``created``/``destroyed`` list the
    triangles that appeared/disappeared, in canonical sorted order.
    """

    version: int
    inserted: Tuple[Edge, ...]
    deleted: Tuple[Edge, ...]
    created: Tuple[Triangle, ...]
    destroyed: Tuple[Triangle, ...]
    triangles_after: int
    compacted: bool

    def to_dict(self, *, include_triangles: bool = True) -> dict:
        doc = {
            "version": self.version,
            "inserted": [list(e) for e in self.inserted],
            "deleted": [list(e) for e in self.deleted],
            "created_count": len(self.created),
            "destroyed_count": len(self.destroyed),
            "triangles_after": self.triangles_after,
            "compacted": self.compacted,
        }
        if include_triangles:
            doc["created"] = [list(t) for t in self.created]
            doc["destroyed"] = [list(t) for t in self.destroyed]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "BatchDelta":
        return cls(
            version=int(doc["version"]),
            inserted=tuple((int(u), int(v)) for u, v in doc["inserted"]),
            deleted=tuple((int(u), int(v)) for u, v in doc["deleted"]),
            created=tuple(tuple(int(x) for x in t) for t in doc.get("created", ())),
            destroyed=tuple(tuple(int(x) for x in t) for t in doc.get("destroyed", ())),
            triangles_after=int(doc["triangles_after"]),
            compacted=bool(doc["compacted"]),
        )


_NO_ROWS = np.empty((0, 3), dtype=np.int64)

#: State bits of the span graph's edges, and of a batch's edges.
_SPAN = LIVE | DELETED
_BATCH = INSERTED | DELETED


def _span_pass(
    snapshot: DeltaSnapshot, live: LiveEdges, ins_keys: np.ndarray, del_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The triangles one applied batch created and destroyed.

    ``snapshot`` and ``live`` hold the post-batch state: the batch's
    effective keys sit at ``live.batch_slots`` with their ``INSERTED`` or
    ``DELETED`` bits.  Returns ``(created, created_slots, destroyed,
    destroyed_slots)``: canonical rows ``a < b < c`` in lexicographic
    order, and beside each row the live-table slots of its three edges.
    """
    keys = np.concatenate((ins_keys, del_keys))
    if not keys.size:
        return _NO_ROWS, _NO_ROWS, _NO_ROWS, _NO_ROWS
    num_nodes = snapshot.num_nodes
    n = np.int64(max(num_nodes, 1))
    state, slots = live.state, live.batch_slots
    lo, hi = keys // n, keys % n
    lo_degree, hi_degree = live.degree[lo], live.degree[hi]
    swap = lo_degree > hi_degree
    u = np.where(swap, hi, lo)
    v = np.where(swap, lo, hi)
    # The span's edges outside the base — live additions, plus deleted
    # edges the base lacks (all of them right after a compaction) — as
    # rows, of just the edges at a gathered endpoint.
    outside = np.concatenate(
        (snapshot.added_keys, del_keys[(state[slots[ins_keys.size :]] & IN_BASE) == 0])
    )
    gathered = np.zeros(num_nodes, dtype=bool)
    gathered[u] = True
    extra = overlay_rows(outside[gathered[outside // n] | gathered[outside % n]], num_nodes)
    # Windows of whole batch edges, each gathering about one chunk of wedges.
    window = chunk_rows(64)  # ~8 int64 temporaries per wedge
    bounds = np.cumsum(np.minimum(lo_degree, hi_degree)) // window
    parts = [np.arange(keys.size)]
    if bounds[-1]:
        parts = np.split(parts[0], np.flatnonzero(np.diff(bounds)) + 1)
    rows, edge_slots, kinds = [_NO_ROWS], [_NO_ROWS], [np.empty(0, dtype=np.uint8)]
    for part in parts:
        item, w = gather_rows(snapshot.base, extra, u[part])
        item = part[item]
        # Close each wedge in the span; the min-index rule drops it when an
        # edge with a smaller key than its own is also a batch edge.
        vw = live.find(pair_keys(v[item], w, num_nodes))
        found = np.flatnonzero(vw >= 0)
        item, w, vw = item[found], w[found], vw[found]
        own, vw_state = keys[item], state[vw]
        closed = ((vw_state & _SPAN) != 0) & (((vw_state & _BATCH) == 0) | (live.keys[vw] > own))
        item, w, own = item[closed], w[closed], own[closed]
        vw, vw_state = vw[closed], vw_state[closed]
        # (u, w) is a base entry or an overlay edge, so it always has a slot.
        uw_keys = pair_keys(u[item], w, num_nodes)
        uw = live.find(uw_keys)
        uw_state = state[uw]
        keep = ((uw_state & _SPAN) != 0) & (((uw_state & _BATCH) == 0) | (uw_keys > own))
        item, w, uw, vw = item[keep], w[keep], uw[keep], vw[keep]
        rows.append(np.sort(np.stack((u[item], v[item], w), axis=1), axis=1))
        edge_slots.append(np.stack((slots[item], uw, vw), axis=1))
        kinds.append((state[slots[item]] | uw_state[keep] | vw_state[keep]) & _BATCH)
    out, out_slots, kind = np.concatenate(rows), np.concatenate(edge_slots), np.concatenate(kinds)
    result = []
    for wanted in (INSERTED, DELETED):
        chosen = kind == wanted
        triangles, triangle_slots = out[chosen], out_slots[chosen]
        order = np.lexsort(triangles.T[::-1])
        result += [triangles[order], triangle_slots[order]]
    return tuple(result)


class IncrementalTriangleOracle:
    """Maintains triangle counts and edge support under batched updates."""

    __slots__ = ("_graph", "_total", "_node_counts")

    def __init__(
        self,
        base: "Graph | CSRGraph",
        *,
        compact_threshold: int | None = None,
    ) -> None:
        self._graph = DeltaGraph(base, compact_threshold=compact_threshold)
        csr = self._graph.snapshot.base
        live = self._graph.live
        live.support[live.find(csr._edge_key_array())] = csr.edge_support()
        self._node_counts = csr.local_triangle_counts().astype(np.int64, copy=True)
        self._total = csr.count_triangles()

    # -- read side ---------------------------------------------------------

    @property
    def graph(self) -> DeltaGraph:
        return self._graph

    @property
    def snapshot(self) -> DeltaSnapshot:
        return self._graph.snapshot

    @property
    def version(self) -> int:
        return self._graph.version

    @property
    def num_nodes(self) -> int:
        return self._graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self._graph.num_edges

    @property
    def total_triangles(self) -> int:
        return self._total

    def node_count(self, node: int) -> int:
        if not 0 <= node < self._graph.num_nodes:
            raise GraphError(
                f"node {node} out of range for graph with {self._graph.num_nodes} nodes"
            )
        return int(self._node_counts[node])

    def node_counts(self) -> np.ndarray:
        return self._node_counts.copy()

    def node_counts_at(self, nodes: Sequence[int]) -> List[int]:
        """Counts of ``nodes`` (callers check the range) as Python ints, no full copy."""
        return self._node_counts[np.asarray(nodes, dtype=np.intp)].tolist()

    def _supports_of(self, keys: np.ndarray) -> List[Optional[int]]:
        live = self._graph.live
        slots = live.find(keys)
        present = ((live.states(slots) & LIVE) != 0).tolist()
        return [value if ok else None for value, ok in zip(live.support[slots].tolist(), present)]

    def support(self, u: int, v: int) -> Optional[int]:
        """Support of edge ``(u, v)``, or ``None`` when the edge is absent."""
        key = self._graph.snapshot.edge_key(u, v)
        return self._supports_of(np.array([key], dtype=np.int64))[0]

    def supports(self, pairs: Iterable[Sequence[int]]) -> List[Optional[int]]:
        """Support of each canonical pair ``lo < hi`` (callers check the range)."""
        n = max(self._graph.num_nodes, 1)
        return self._supports_of(np.array([lo * n + hi for lo, hi in pairs], dtype=np.int64))

    def support_map(self) -> Dict[Edge, int]:
        live = self._graph.live
        present = (live.state & LIVE) != 0
        keys, values = live.keys[present], live.support[present]
        order = np.argsort(keys)
        return dict(zip(decode_edge_keys(keys[order], self.num_nodes), values[order].tolist()))

    # -- write side --------------------------------------------------------

    def apply_batch(
        self,
        insert: Iterable[Edge] = (),
        delete: Iterable[Edge] = (),
    ) -> BatchDelta:
        """Apply one batch and incrementally update every maintained index."""
        base_before = self._graph.snapshot.base
        snap, ins_keys, del_keys = self._graph.apply_batch(insert, delete)
        live = self._graph.live
        created, created_slots, destroyed, destroyed_slots = _span_pass(
            snap, live, ins_keys, del_keys
        )
        self._total += created.shape[0] - destroyed.shape[0]
        np.subtract.at(self._node_counts, destroyed.ravel(), 1)
        np.add.at(self._node_counts, created.ravel(), 1)
        # Deleted edges' own counters go stale too; a key restarts at 0
        # whenever it turns live again.
        np.subtract.at(live.support, destroyed_slots.ravel(), 1)
        np.add.at(live.support, created_slots.ravel(), 1)

        num_nodes = snap.num_nodes
        return BatchDelta(
            version=snap.version,
            inserted=tuple(decode_edge_keys(ins_keys, num_nodes)),
            deleted=tuple(decode_edge_keys(del_keys, num_nodes)),
            created=tuple(zip(*created.T.tolist())),
            destroyed=tuple(zip(*destroyed.T.tolist())),
            triangles_after=self._total,
            compacted=snap.base is not base_before,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalTriangleOracle(version={self.version}, "
            f"triangles={self._total}, edges={self.num_edges})"
        )
