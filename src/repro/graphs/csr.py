"""Immutable CSR adjacency core and the vectorized triangle oracle.

The mutable :class:`~repro.graphs.graph.Graph` stays the build-time API, but
every read-heavy consumer — the centralized ground-truth oracle, simulator
context construction, parameter selection, workload descriptors — now runs
on a compressed-sparse-row snapshot of the adjacency structure:

* ``indptr`` / ``indices`` — the standard CSR pair: the (sorted) neighbour
  list of vertex ``v`` is ``indices[indptr[v]:indptr[v+1]]``.
* ``edge_u`` / ``edge_v`` — the canonical edge list (``u < v``, sorted
  lexicographically), cached so per-edge reductions never re-enumerate.

Invariants (relied on throughout, asserted by the test suite):

* **immutability** — all arrays are created with ``writeable=False``; a
  :class:`CSRGraph` never changes after construction,
* **sorted neighbours** — every ``indices`` row is strictly increasing,
  which is what makes merge/intersection-based triangle enumeration and
  ``np.searchsorted`` membership correct,
* **mutation invalidation** — :meth:`Graph.csr` hands out a snapshot that
  is dropped on the next ``add_edge``/``remove_edge``, so a stale view can
  never alias a mutated graph.

The triangle oracle picks between two execution strategies:

* a **dense bitset path** for graphs whose ``n x n`` boolean adjacency
  matrix fits in :data:`DENSE_ADJACENCY_MAX_BYTES` — per-edge common
  neighbourhoods become packed-``uint8`` AND + popcount reductions, and
  triangle listing becomes chunked boolean-matrix row intersections,
* a **sorted-merge path** for everything larger — per-edge
  ``np.intersect1d`` / ``searchsorted`` over the sorted CSR slices.

Both produce identical results (differentially tested against the
pure-Python reference in :mod:`repro.graphs.triangles`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import Graph

#: Largest boolean adjacency matrix (in bytes) the oracle will materialise
#: for the dense bitset strategy.  Above this the sorted-merge path is used.
DENSE_ADJACENCY_MAX_BYTES = 256 * 1024 * 1024

#: Minimum edge fill for the dense strategy: the bitset rows cost O(n) each
#: regardless of sparsity, so the dense path must also see at least
#: ``n² / DENSE_MIN_FILL_DIVISOR`` edges (average degree ``>= n/32``) before
#: its O(n²) build amortises.  A 10k-node sparse graph (m ~ n^{3/2}) stays
#: on the sorted-merge path instead of materialising a 100 MB matrix.
DENSE_MIN_FILL_DIVISOR = 64

#: Floor on rows per chunk for the chunked dense reductions (the
#: ``chunk_bytes`` knob in :mod:`repro.congest.backends` sets the ceiling).
_MIN_EDGE_CHUNK = 256


def _edge_chunk(row_bytes: int) -> int:
    """Edges per block so one ``(chunk, row_bytes)`` intermediate stays
    within the active ``chunk_bytes`` bound.

    :mod:`repro.congest.backends` is imported lazily here and below:
    :mod:`repro.congest` imports this module at package-init time, so a
    module-level import would be circular.
    """
    from ..congest.backends import chunk_rows

    return chunk_rows(row_bytes, minimum=_MIN_EDGE_CHUNK)

_EMPTY_INT64 = np.empty(0, dtype=np.int64)
_EMPTY_INT64.setflags(write=False)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class CSRGraph:
    """An immutable CSR snapshot of an undirected simple graph.

    Instances are built through :meth:`from_graph` / :meth:`from_edge_arrays`
    (or, usually, obtained from :meth:`repro.graphs.graph.Graph.csr`); the
    constructor trusts its inputs and is not part of the public API.
    """

    __slots__ = (
        "num_nodes",
        "indptr",
        "indices",
        "edge_u",
        "edge_v",
        "_edge_keys",
        "_support",
        "_triangles",
        "_dense_bool",
        "_dense_packed",
        # Weak referenceability: the shared-memory plane (repro.graphs.shm)
        # ties segment-mapping lifetime to attached snapshots with
        # weakref.finalize.
        "__weakref__",
    )

    def __init__(
        self,
        num_nodes: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.indptr = _frozen(indptr)
        self.indices = _frozen(indices)
        self.edge_u = _frozen(edge_u)
        self.edge_v = _frozen(edge_v)
        self._edge_keys: Optional[np.ndarray] = None
        self._support: Optional[np.ndarray] = None
        self._triangles: Optional[np.ndarray] = None
        self._dense_bool: Optional[np.ndarray] = None
        self._dense_packed: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Snapshot a mutable :class:`Graph` (neighbour rows sorted)."""
        adjacency = graph._adjacency
        num_nodes = graph.num_nodes
        degrees = np.fromiter(
            (len(adj) for adj in adjacency), dtype=np.int64, count=num_nodes
        )
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        for node in range(num_nodes):
            indices[indptr[node] : indptr[node + 1]] = sorted(adjacency[node])
        return cls(num_nodes, indptr, indices, *_canonical_edges(indptr, indices))

    @classmethod
    def from_edge_arrays(
        cls, num_nodes: int, edge_u: np.ndarray, edge_v: np.ndarray
    ) -> "CSRGraph":
        """Build from canonical edge arrays (``u < v``, lexicographically sorted,
        deduplicated).  Callers are responsible for canonicalisation —
        :meth:`repro.graphs.graph.Graph.from_edge_arrays` is the public door.
        """
        sym_src = np.concatenate((edge_u, edge_v))
        sym_dst = np.concatenate((edge_v, edge_u))
        order = np.argsort(sym_src * np.int64(max(num_nodes, 1)) + sym_dst)
        indices = np.ascontiguousarray(sym_dst[order])
        counts = np.bincount(sym_src, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(num_nodes, indptr, indices, edge_u.copy(), edge_v.copy())

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return int(self.edge_u.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degree array (a view-sized diff of ``indptr``)."""
        return self.indptr[1:] - self.indptr[:-1]

    def degree(self, node: int) -> int:
        """Return the degree of ``node``."""
        return int(self.indptr[node + 1] - self.indptr[node])

    def max_degree(self) -> int:
        """Return ``d_max`` (0 for the empty graph)."""
        if self.num_nodes == 0:
            return 0
        return int(self.degrees.max())

    def neighbor_slice(self, node: int) -> np.ndarray:
        """Return the sorted neighbour row of ``node`` as a zero-copy view."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership via binary search in the sorted neighbour row."""
        if u == v:
            return False
        row = self.neighbor_slice(u)
        position = int(np.searchsorted(row, v))
        return position < row.shape[0] and int(row[position]) == v

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized edge-membership test for arbitrary vertex pairs.

        The whole-network membership oracle the fused phase kernels use in
        place of per-node ``np.isin`` row scans: on graphs whose boolean
        adjacency matrix is materialisable (the dense oracle strategy) the
        batch is one cache-resident fancy gather; otherwise one binary
        search of the sorted canonical edge keys answers it.  Pair order
        does not matter and ``u == v`` pairs are ``False`` (simple graphs
        carry no self-loops).
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if self._use_dense():
            return self._bool_matrix()[u, v]
        keys = np.minimum(u, v) * np.int64(max(self.num_nodes, 1)) + np.maximum(u, v)
        from ..congest.backends import sorted_membership

        return sorted_membership(self._edge_key_array(), keys)

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        """Return ``N(u) ∩ N(v)`` as a sorted array."""
        return np.intersect1d(
            self.neighbor_slice(u), self.neighbor_slice(v), assume_unique=True
        )

    def edges_array(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the canonical ``(edge_u, edge_v)`` pair (read-only views)."""
        return self.edge_u, self.edge_v

    # ------------------------------------------------------------------
    # dense-strategy internals
    # ------------------------------------------------------------------
    def _use_dense(self) -> bool:
        if self.num_nodes <= 0 or self.num_edges == 0:
            return False
        matrix_bytes = self.num_nodes * self.num_nodes
        if matrix_bytes > DENSE_ADJACENCY_MAX_BYTES:
            return False
        # Each bitset row is O(n) regardless of how many of its bits are
        # set: demand a minimum edge fill so sparse large-n graphs use the
        # sorted-merge path instead of an O(n²) matrix build.
        return self.num_edges * DENSE_MIN_FILL_DIVISOR >= matrix_bytes

    def _bool_matrix(self) -> np.ndarray:
        """The full boolean adjacency matrix (dense strategy only)."""
        if self._dense_bool is None:
            matrix = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
            matrix[self.edge_u, self.edge_v] = True
            matrix[self.edge_v, self.edge_u] = True
            self._dense_bool = _frozen(matrix)
        return self._dense_bool

    def _packed_matrix(self) -> np.ndarray:
        """Row-wise bit-packed adjacency (``uint8``), for popcount reductions."""
        if self._dense_packed is None:
            self._dense_packed = _frozen(np.packbits(self._bool_matrix(), axis=1))
        return self._dense_packed

    def _edge_key_array(self) -> np.ndarray:
        """Canonical edge keys ``u * n + v`` (sorted ascending)."""
        if self._edge_keys is None:
            self._edge_keys = _frozen(
                self.edge_u * np.int64(max(self.num_nodes, 1)) + self.edge_v
            )
        return self._edge_keys

    # ------------------------------------------------------------------
    # the triangle oracle
    # ------------------------------------------------------------------
    def edge_support(self) -> np.ndarray:
        """Return ``#(e)`` for every canonical edge, aligned with ``edge_u``.

        ``#(e)`` (Section 2 of the paper) is the number of triangles
        containing ``e``, i.e. ``|N(u) ∩ N(v)|``.
        """
        if self._support is not None:
            return self._support
        m = self.num_edges
        support = np.zeros(m, dtype=np.int64)
        if m:
            if self._use_dense():
                from ..congest.backends import edge_support_chunk

                packed = self._packed_matrix()
                chunk = _edge_chunk(packed.shape[1])
                for start in range(0, m, chunk):
                    end = min(start + chunk, m)
                    support[start:end] = edge_support_chunk(
                        packed, self.edge_u[start:end], self.edge_v[start:end]
                    )
            else:
                indptr, indices = self.indptr, self.indices
                u_list = self.edge_u.tolist()
                v_list = self.edge_v.tolist()
                for index, (u, v) in enumerate(zip(u_list, v_list)):
                    row_u = indices[indptr[u] : indptr[u + 1]]
                    row_v = indices[indptr[v] : indptr[v + 1]]
                    if row_u.shape[0] > row_v.shape[0]:
                        row_u, row_v = row_v, row_u
                    positions = np.searchsorted(row_v, row_u)
                    positions[positions == row_v.shape[0]] = 0
                    support[index] = int(
                        np.count_nonzero(row_v[positions] == row_u)
                    )
        self._support = _frozen(support)
        return self._support

    def count_triangles(self) -> int:
        """Return ``|T(G)|``.  Each triangle is counted once per edge, so
        the per-edge supports sum to three times the triangle count."""
        if self.num_edges == 0:
            return 0
        return int(self.edge_support().sum()) // 3

    def has_triangle(self) -> bool:
        """Early-exit triangle existence check (no full reduction when a
        support is found early)."""
        m = self.num_edges
        if m == 0:
            return False
        if self._support is not None:
            return bool((self._support > 0).any())
        if self._use_dense():
            packed = self._packed_matrix()
            chunk = _edge_chunk(packed.shape[1])
            for start in range(0, m, chunk):
                end = min(start + chunk, m)
                both = packed[self.edge_u[start:end]] & packed[self.edge_v[start:end]]
                if both.any():
                    return True
            return False
        indptr, indices = self.indptr, self.indices
        for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
            row_u = indices[indptr[u] : indptr[u + 1]]
            row_v = indices[indptr[v] : indptr[v + 1]]
            if np.intersect1d(row_u, row_v, assume_unique=True).shape[0]:
                return True
        return False

    def iter_triangle_chunks(self) -> "Iterator[np.ndarray]":
        """Yield triangles as ``(k, 3)`` int64 chunks, lazily, in canonical
        sorted order (rows ``u < v < w``, lexicographically ascending).

        Enumeration is forward: each triangle is discovered from its
        lexicographically smallest edge ``(u, v)`` by restricting the common
        neighbourhood to ``w > v``.  Chunks are produced edge-window by
        edge-window, so early-exit consumers (e.g. iterating until the
        first hit) never pay for the full enumeration.  When the full array
        has already been materialised by :meth:`triangles`, it is yielded
        as a single cached chunk.
        """
        if self._triangles is not None:
            if self._triangles.shape[0]:
                yield self._triangles
            return
        m = self.num_edges
        if m == 0:
            return
        if self._use_dense():
            matrix = self._bool_matrix()
            columns = np.arange(self.num_nodes, dtype=np.int64)
            chunk = _edge_chunk(self.num_nodes)
            for start in range(0, m, chunk):
                end = min(start + chunk, m)
                u_chunk = self.edge_u[start:end]
                v_chunk = self.edge_v[start:end]
                both = matrix[u_chunk] & matrix[v_chunk]
                both &= columns[None, :] > v_chunk[:, None]
                edge_index, w = np.nonzero(both)
                if edge_index.shape[0]:
                    yield np.column_stack(
                        (u_chunk[edge_index], v_chunk[edge_index], w)
                    )
        else:
            indptr, indices = self.indptr, self.indices
            for u, v in zip(self.edge_u.tolist(), self.edge_v.tolist()):
                row_u = indices[indptr[u] : indptr[u + 1]]
                row_v = indices[indptr[v] : indptr[v + 1]]
                common = np.intersect1d(row_u, row_v, assume_unique=True)
                common = common[common > v]
                if common.shape[0]:
                    yield np.column_stack(
                        (
                            np.full(common.shape[0], u, dtype=np.int64),
                            np.full(common.shape[0], v, dtype=np.int64),
                            common,
                        )
                    )

    def triangles(self) -> np.ndarray:
        """Return all triangles as one ``(t, 3)`` int64 array (cached).

        The cache means repeated consumers — per-run verification, the
        heavy *and* light sides of the partition — enumerate at most once
        per snapshot; like every other array on the view it is immutable.
        """
        if self._triangles is None:
            pieces = list(self.iter_triangle_chunks())
            if pieces:
                self._triangles = _frozen(np.concatenate(pieces, axis=0))
            else:
                self._triangles = _frozen(np.empty((0, 3), dtype=np.int64))
        return self._triangles

    def triangles_through(self, node: int) -> np.ndarray:
        """Return the triangles containing ``node`` as a ``(t, 3)`` array of
        canonical (row-sorted) triples, lexicographically ordered."""
        nbrs = self.neighbor_slice(node)
        if nbrs.shape[0] < 2:
            return np.empty((0, 3), dtype=np.int64)
        if self._use_dense():
            sub = self._bool_matrix()[np.ix_(nbrs, nbrs)]
            first, second = np.nonzero(np.triu(sub, k=1))
            pairs = np.column_stack((nbrs[first], nbrs[second]))
        else:
            indptr, indices = self.indptr, self.indices
            rows = []
            for u in nbrs.tolist():
                row_u = indices[indptr[u] : indptr[u + 1]]
                partners = np.intersect1d(row_u, nbrs, assume_unique=True)
                partners = partners[partners > u]
                if partners.shape[0]:
                    rows.append(
                        np.column_stack(
                            (np.full(partners.shape[0], u, dtype=np.int64), partners)
                        )
                    )
            if not rows:
                return np.empty((0, 3), dtype=np.int64)
            pairs = np.concatenate(rows, axis=0)
        if pairs.shape[0] == 0:
            return np.empty((0, 3), dtype=np.int64)
        triples = np.column_stack(
            (np.full(pairs.shape[0], node, dtype=np.int64), pairs)
        )
        triples.sort(axis=1)
        order = np.lexsort((triples[:, 2], triples[:, 1], triples[:, 0]))
        return triples[order]

    def support_lookup(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized per-pair support lookup for canonical pairs ``a < b``
        that are edges of the graph (positions found by binary search in the
        sorted canonical edge keys)."""
        keys = a * np.int64(max(self.num_nodes, 1)) + b
        positions = np.searchsorted(self._edge_key_array(), keys)
        return self.edge_support()[positions]

    def heavy_edge_mask(self, threshold: float) -> np.ndarray:
        """Boolean mask over canonical edges with ``#(e) >= threshold``."""
        return self.edge_support() >= threshold

    def heavy_triangle_mask(self, threshold: float) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(triangles, mask)`` where ``mask[i]`` is True when
        triangle ``i`` is heavy (some edge has support ``>= threshold``)."""
        triangles = self.triangles()
        if triangles.shape[0] == 0:
            return triangles, np.empty(0, dtype=bool)
        a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
        mask = (
            (self.support_lookup(a, b) >= threshold)
            | (self.support_lookup(a, c) >= threshold)
            | (self.support_lookup(b, c) >= threshold)
        )
        return triangles, mask

    def local_triangle_counts(self) -> np.ndarray:
        """Per-vertex triangle counts, computed without listing: every
        triangle through ``v`` contributes to the support of exactly two of
        ``v``'s incident edges, so ``count(v) = Σ_e∋v #(e) / 2``."""
        support = self.edge_support()
        per_node = np.bincount(
            self.edge_u, weights=support, minlength=self.num_nodes
        ) + np.bincount(self.edge_v, weights=support, minlength=self.num_nodes)
        return (per_node.astype(np.int64)) // 2

    def delta_edge_mask(self, landmarks: Iterable[int]) -> np.ndarray:
        """Boolean mask over canonical edges that belong to ``∆(X)``
        (Section 3.2): edges whose endpoints share no common neighbour in
        the landmark set ``X``."""
        m = self.num_edges
        landmark_array = np.fromiter(
            (int(x) for x in landmarks), dtype=np.int64
        )
        if m == 0:
            return np.empty(0, dtype=bool)
        # Out-of-range landmark ids can never be a common neighbour, so
        # (like pair_in_delta) they are ignored rather than rejected.
        landmark_array = landmark_array[
            (landmark_array >= 0) & (landmark_array < self.num_nodes)
        ]
        if landmark_array.shape[0] == 0:
            return np.ones(m, dtype=bool)
        mask = np.empty(m, dtype=bool)
        if self._use_dense():
            landmark_flags = np.zeros(self.num_nodes, dtype=bool)
            landmark_flags[landmark_array] = True
            matrix = self._bool_matrix()
            chunk = _edge_chunk(self.num_nodes)
            for start in range(0, m, chunk):
                end = min(start + chunk, m)
                both = matrix[self.edge_u[start:end]] & matrix[self.edge_v[start:end]]
                mask[start:end] = ~(both & landmark_flags[None, :]).any(axis=1)
        else:
            landmark_sorted = np.unique(landmark_array)
            indptr, indices = self.indptr, self.indices
            for index, (u, v) in enumerate(
                zip(self.edge_u.tolist(), self.edge_v.tolist())
            ):
                common = np.intersect1d(
                    indices[indptr[u] : indptr[u + 1]],
                    indices[indptr[v] : indptr[v + 1]],
                    assume_unique=True,
                )
                mask[index] = not np.isin(
                    common, landmark_sorted, assume_unique=True
                ).any()
        return mask

    def __repr__(self) -> str:
        return f"CSRGraph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"


#: Largest vertex-id space for which :func:`triangles_by_group` keeps one
#: shared n×n boolean scratch matrix; larger spaces remap each group onto
#: its compact vertex set instead.
GROUPED_DENSE_MAX_NODES = 4096


def triangles_by_group(
    group: np.ndarray, u: np.ndarray, v: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """List triangles independently inside each group's edge set.

    The whole-network oracle call behind the direct-exchange receivers:
    ``(group[i], u[i], v[i])`` says edge ``{u, v}`` belongs to group
    ``group[i]`` (a receiver, or any composite id), and a triangle is
    listed for a group exactly when all three of its edges appear among
    that group's rows.  ``group`` must be non-decreasing — the natural
    order of destination-grouped channel columns.  Edges may repeat (each
    copy of a triangle's lexicographically smallest edge lists it again;
    consumers dedup) and need not be ordered pairs; self-loops are
    rejected.

    Returns ``(tri_group, tri_keys)``: for each listed triangle its group
    id and its canonical int64 key under
    :func:`repro.types.triangle_keys`, ordered by group.

    Within a group the listing is the dense forward enumeration of the
    oracle (edge rows AND-ed over a packed adjacency bitset, common
    neighbours restricted to ``w > v``), run over one scratch matrix whose
    touched bits are cleared between groups — no per-group graph objects.
    """
    group = np.ascontiguousarray(group, dtype=np.int64)
    count = int(group.shape[0])
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    if count == 0:
        return empty
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    uu = np.minimum(u, v)
    vv = np.maximum(u, v)
    if (uu == vv).any():
        raise ValueError("triangles_by_group got a self-loop edge")
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    bounds = np.append(starts[1:], count)
    gids = group[starts]
    start_list = starts.tolist()
    bound_list = bounds.tolist()
    out_groups: list = []
    out_keys: list = []
    n64 = np.int64(num_nodes)
    if num_nodes <= GROUPED_DENSE_MAX_NODES:
        width = (num_nodes + 7) // 8
        cols = np.arange(num_nodes, dtype=np.int64)
        greater_packed = np.packbits(cols[None, :] > cols[:, None], axis=1)
        scratch = np.zeros((num_nodes, num_nodes), dtype=bool)
        for which, start in enumerate(start_list):
            end = bound_list[which]
            us, vs = uu[start:end], vv[start:end]
            scratch[us, vs] = True
            scratch[vs, us] = True
            if 2 * (end - start) < num_nodes:
                # Small group: packing only the edge-indexed rows beats
                # packing the whole n×n scratch.
                both = np.packbits(scratch[us], axis=1)
                both &= np.packbits(scratch[vs], axis=1)
            else:
                packed = np.packbits(scratch, axis=1)
                both = packed[us] & packed[vs]
            both &= greater_packed[vs]
            flat = np.flatnonzero(both.ravel())
            if flat.shape[0]:
                rows = flat // width
                byte_pos = flat - rows * width
                bit_rows = np.unpackbits(
                    both.ravel()[flat, None], axis=1
                )
                hits = np.flatnonzero(bit_rows.ravel())
                rr = hits >> 3
                w = byte_pos[rr] * 8 + (hits & 7)
                keys = (us[rows[rr]] * n64 + vs[rows[rr]]) * n64 + w
                out_groups.append(
                    np.full(keys.shape[0], gids[which], dtype=np.int64)
                )
                out_keys.append(keys)
            scratch[us, vs] = False
            scratch[vs, us] = False
    else:
        for which, start in enumerate(start_list):
            end = bound_list[which]
            us, vs = uu[start:end], vv[start:end]
            vertices = np.unique(np.concatenate((us, vs)))
            size = int(vertices.shape[0])
            cu = np.searchsorted(vertices, us)
            cv = np.searchsorted(vertices, vs)
            local = np.zeros((size, size), dtype=bool)
            local[cu, cv] = True
            local[cv, cu] = True
            both = local[cu] & local[cv]
            both &= np.arange(size, dtype=np.int64)[None, :] > cv[:, None]
            flat = np.flatnonzero(both.ravel())
            if flat.shape[0]:
                rows = flat // size
                w = vertices[flat - rows * size]
                keys = (us[rows] * n64 + vs[rows]) * n64 + w
                out_groups.append(
                    np.full(keys.shape[0], gids[which], dtype=np.int64)
                )
                out_keys.append(keys)
    if not out_keys:
        return empty
    return np.concatenate(out_groups), np.concatenate(out_keys)


def _canonical_edges(
    indptr: np.ndarray, indices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Derive the canonical edge arrays from sorted CSR rows."""
    num_nodes = indptr.shape[0] - 1
    if indices.shape[0] == 0:
        return _EMPTY_INT64.copy(), _EMPTY_INT64.copy()
    sources = np.repeat(
        np.arange(num_nodes, dtype=np.int64), indptr[1:] - indptr[:-1]
    )
    forward = indices > sources
    return (
        np.ascontiguousarray(sources[forward]),
        np.ascontiguousarray(indices[forward]),
    )
