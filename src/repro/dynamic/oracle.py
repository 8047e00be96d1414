"""Incremental triangle maintenance over :class:`~repro.dynamic.delta.DeltaGraph`.

Full recomputation after a batch costs the whole ``edge_support`` pass —
O(Σ_e |N(u) ∩ N(v)|), seconds at n=4000.  A batch of k edge updates only
ever creates or destroys triangles *containing a batch edge*, so the
oracle walks just those:

* **destroyed** — triangles of the pre-batch snapshot G containing at least
  one deleted edge: for each deleted ``(u, v)``, every common neighbour
  ``w`` in G closes one,
* **created** — triangles of the post-batch snapshot G' containing at least
  one inserted edge, enumerated the same way on G'.

Each side is one vectorized wedge closure over the whole batch (the
edge-iterator of Chiba & Nishizeki, 1985, and Latapy, 2008): orient every
batch edge ``(u, v)`` so ``u`` has the smaller effective degree, gather
N(u) of all of them with :meth:`DeltaSnapshot.gather_neighbors`, and close
each wedge ``(v, w)`` with one :meth:`DeltaSnapshot.has_edges` call per
window of wedges.  A triangle touching several batch edges is closed once
per such edge; the *min-index rule* keeps exactly one copy — a triangle is
charged to the lowest-index batch edge it contains, found by binary search
of the sorted batch keys.  Each batch therefore costs O(Σ min-degree
endpoint) vectorized work, independent of m.

From those exact sets the oracle maintains, in lockstep with the delta
layer's versions:

* the global triangle count,
* per-node triangle counts,
* the ``edge_support`` index (common-neighbour count per live edge),

and returns a :class:`BatchDelta` per batch — the effective edge changes
plus the created/destroyed triangle lists, which is the streaming
``listing`` mode of the serving layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..congest.backends import chunk_rows
from ..errors import GraphError
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import Edge, Triangle
from .delta import DeltaGraph, DeltaSnapshot, decode_edge_keys, in_sorted, pair_keys

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


def _affected_triangles(
    snapshot: DeltaSnapshot, keys: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Triangles of ``snapshot`` containing at least one edge from ``keys``.

    Returns canonical rows ``a < b < c`` as an ``(t, 3)`` array in
    lexicographic order.  Applies the min-index rule so each triangle
    appears exactly once even when two or three of its edges are in the
    batch: a wedge is dropped when ``(u, w)`` or ``(v, w)`` is a smaller
    batch key than its own edge ``(u, v)``.
    """
    n = np.int64(max(num_nodes, 1))
    lo, hi = keys // n, keys % n
    degree = snapshot.degrees(np.concatenate((lo, hi)))
    lo_degree, hi_degree = degree[: keys.size], degree[keys.size :]
    swap = lo_degree > hi_degree
    u = np.where(swap, hi, lo)
    v = np.where(swap, lo, hi)
    # Windows of whole batch edges, each gathering about one chunk of wedges.
    window = chunk_rows(64)  # ~8 int64 temporaries per wedge
    bounds = np.cumsum(np.minimum(lo_degree, hi_degree)) // window
    parts = np.split(np.arange(keys.size), np.flatnonzero(np.diff(bounds)) + 1)
    rows = [np.empty((0, 3), dtype=np.int64)]
    for part in parts:
        item, w = snapshot.gather_neighbors(u[part])
        item = part[item]
        closed = snapshot.has_edges(v[item], w)
        item, w = item[closed], w[closed]
        a, b, own = u[item], v[item], keys[item]
        uw = pair_keys(a, w, num_nodes)
        vw = pair_keys(b, w, num_nodes)
        earlier = (in_sorted(keys, uw) & (uw < own)) | (in_sorted(keys, vw) & (vw < own))
        keep = ~earlier
        rows.append(np.sort(np.stack((a[keep], b[keep], w[keep]), axis=1), axis=1))
    out = np.concatenate(rows)
    return out[np.lexsort(out.T[::-1])]


def _triangle_edge_keys(triangles: np.ndarray, n: int) -> np.ndarray:
    """Canonical keys of the three edges of each canonical triangle row."""
    a, b, c = triangles.T
    return np.concatenate((a * n + b, a * n + c, b * n + c))


class IncrementalTriangleOracle:
    """Maintains triangle counts and edge support under batched updates."""

    __slots__ = ("_graph", "_total", "_node_counts", "_support")

    def __init__(
        self,
        base: "Graph | CSRGraph",
        *,
        compact_threshold: int | None = None,
    ) -> None:
        self._graph = DeltaGraph(base, compact_threshold=compact_threshold)
        csr = self._graph.snapshot.base
        support = csr.edge_support()
        keys = csr._edge_key_array()
        self._support: Dict[int, int] = dict(zip(keys.tolist(), support.tolist()))
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

    def support(self, u: int, v: int) -> Optional[int]:
        """Support of edge ``(u, v)``, or ``None`` when the edge is absent."""
        snap = self._graph.snapshot
        key = snap.edge_key(u, v)
        return self._support.get(key)

    def support_map(self) -> Dict[Edge, int]:
        n = max(self._graph.num_nodes, 1)
        return {(key // n, key % n): value for key, value in self._support.items()}

    # -- write side --------------------------------------------------------

    def apply_batch(
        self,
        insert: Iterable[Edge] = (),
        delete: Iterable[Edge] = (),
    ) -> BatchDelta:
        """Apply one batch and incrementally update every maintained index."""
        snap_before = self._graph.snapshot
        snap_after, ins_keys, del_keys = self._graph.apply_batch(insert, delete)
        num_nodes = snap_after.num_nodes
        n = max(num_nodes, 1)

        destroyed = _affected_triangles(snap_before, del_keys, num_nodes)
        created = _affected_triangles(snap_after, ins_keys, num_nodes)

        for key in del_keys.tolist():
            del self._support[key]
        for key in ins_keys.tolist():
            self._support[key] = 0

        self._total += created.shape[0] - destroyed.shape[0]
        np.subtract.at(self._node_counts, destroyed.ravel(), 1)
        np.add.at(self._node_counts, created.ravel(), 1)
        weakened = _triangle_edge_keys(destroyed, n)
        for key in weakened[~in_sorted(del_keys, weakened)].tolist():
            self._support[key] -= 1
        for key in _triangle_edge_keys(created, n).tolist():
            self._support[key] += 1

        return BatchDelta(
            version=snap_after.version,
            inserted=tuple(decode_edge_keys(ins_keys, num_nodes)),
            deleted=tuple(decode_edge_keys(del_keys, num_nodes)),
            created=tuple(map(tuple, created.tolist())),
            destroyed=tuple(map(tuple, destroyed.tolist())),
            triangles_after=self._total,
            compacted=snap_after.base is not snap_before.base,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IncrementalTriangleOracle(version={self.version}, "
            f"triangles={self._total}, edges={self.num_edges})"
        )
