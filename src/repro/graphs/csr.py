"""Immutable CSR adjacency core and the vectorized triangle oracle.

A :class:`~repro.graphs.graph.Graph` stores its edges once, in the
compressed-sparse-row core defined here, and every read-heavy consumer — the
centralized ground-truth oracle, simulator context construction, parameter
selection, workload descriptors — runs on it directly:

* ``indptr`` / ``indices`` — the standard CSR pair: the (sorted) neighbour
  list of vertex ``v`` is ``indices[indptr[v]:indptr[v+1]]``.
* ``edge_u`` / ``edge_v`` — the canonical edge list (``u < v``, sorted
  lexicographically), cached so per-edge reductions never re-enumerate.

Invariants (relied on throughout, asserted by the test suite):

* **immutability** — all arrays are created with ``writeable=False``; a
  :class:`CSRGraph` never changes after construction,
* **sorted neighbours** — every ``indices`` row is strictly increasing,
  which is what makes forward-wedge enumeration come out in canonical
  order and ``np.searchsorted`` membership correct.

Edge membership (:meth:`CSRGraph.has_edges`) has three strategies, picked
per snapshot from ``n`` and ``m`` alone:

* **dense** — graphs whose ``n x n`` boolean adjacency matrix fits in
  :data:`DENSE_ADJACENCY_MAX_BYTES` and is filled to at least one edge per
  :data:`DENSE_MIN_FILL_DIVISOR` cells: a query is one bool-matrix gather,
* **bitset** — sparser graphs whose ``n²``-bit packed adjacency still meets
  that fill floor counted in bits (``n² <= 8 * DENSE_MIN_FILL_DIVISOR * m``)
  and fits the same byte cap: a query is one gather, one shift and one mask
  at bit ``u * n + v``,
* **sorted-key** — everything larger or sparser: one binary search of the
  sorted canonical edge keys ``u * n + v``.

The triangle oracle (triangles, per-edge supports, existence) runs
chunked packed-row AND + popcount reductions on the dense path.  Off it,
it closes forward wedges: every canonical edge ``(u, v)`` is paired with
each ``w > v`` of ``v``'s sorted row, and a whole window of wedges is
closed by one :meth:`CSRGraph.has_edges` call (Chiba–Nishizeki 1985;
Latapy 2008, "compact-forward").  Windows follow the chunk bound
of :mod:`repro.congest.backends`, and since edges and rows are sorted the
closed wedges come out in canonical ``(u < v < w)`` order.

All strategies produce identical results (differentially tested against
the pure-Python reference in :mod:`repro.graphs.triangles`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

#: Largest adjacency structure (in bytes) a snapshot will materialise: the
#: ``n²``-byte boolean matrix of the dense strategy, and the ``n² / 8``-byte
#: packed bitset of the bitset strategy.  Above it the sorted-key path is
#: used.
DENSE_ADJACENCY_MAX_BYTES = 256 * 1024 * 1024

#: Minimum edge fill, in cells per edge: an adjacency structure costs O(n²)
#: to build regardless of sparsity, so it must buy at least one edge per
#: ``DENSE_MIN_FILL_DIVISOR`` of its bytes.  The dense matrix (one byte a
#: cell) needs ``m >= n² / 64`` (average degree ``>= n/32``); the packed
#: bitset (one bit a cell) needs ``m >= n² / 512``.  A 10k-node path stays
#: on the sorted-key path instead of materialising a 100 MB matrix or a
#: 12.5 MB bitset for 10k edges.
DENSE_MIN_FILL_DIVISOR = 64

#: Floor on rows per chunk for the chunked dense reductions and on wedges
#: per wedge-closure window (the chunk bound of
#: :mod:`repro.congest.backends` sets the ceiling).
_MIN_EDGE_CHUNK = 256


def _edge_chunk(row_bytes: int) -> int:
    """Edges per block so one ``(chunk, row_bytes)`` intermediate stays
    within the chunk bound.

    :mod:`repro.congest.backends` is imported lazily here and below:
    :mod:`repro.congest` imports this module at package-init time, so a
    module-level import would be circular.
    """
    from ..congest.backends import chunk_rows

    return chunk_rows(row_bytes, minimum=_MIN_EDGE_CHUNK)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class CSRGraph:
    """An immutable CSR snapshot of an undirected simple graph.

    Instances are built through :meth:`from_edge_arrays` (or, usually,
    obtained from :meth:`repro.graphs.graph.Graph.csr`); the constructor
    trusts its inputs and is not part of the public API.
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
        "_adjacency_bits",
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
        self._adjacency_bits: Optional[np.ndarray] = None

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state) -> None:
        # Unpickled arrays come back writable; a copy shipped to a sweep
        # worker must be as immutable as the snapshot it was taken from.
        for slot in self.__slots__:
            value = state[slot]
            if isinstance(value, np.ndarray):
                value = _frozen(value)
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls, num_nodes: int, edge_u: np.ndarray, edge_v: np.ndarray
    ) -> "CSRGraph":
        """Build from canonical edge arrays (``u < v``, lexicographically sorted,
        deduplicated).  Callers are responsible for canonicalisation —
        :meth:`repro.graphs.graph.Graph.from_edge_arrays` is the public door.
        """
        # The 2m directed keys ``src * n + dst`` are distinct, so sorting
        # them in place and keeping ``% n`` yields every row sorted.
        num_edges = edge_u.shape[0]
        base = max(num_nodes, 1)
        indices = np.empty(2 * num_edges, dtype=np.int64)
        np.multiply(edge_u, base, out=indices[:num_edges])
        indices[:num_edges] += edge_v
        np.multiply(edge_v, base, out=indices[num_edges:])
        indices[num_edges:] += edge_u
        indices.sort()
        np.remainder(indices, base, out=indices)
        counts = np.bincount(edge_u, minlength=num_nodes)
        counts += np.bincount(edge_v, minlength=num_nodes)
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

        The whole-network membership oracle the fused phase kernels and the
        sparse triangle oracle use: a bool-matrix gather on the dense path,
        a packed-bitset probe on the bitset path, and otherwise one binary
        search of the sorted canonical edge keys.  Pair order does not
        matter and ``u == v`` pairs are ``False`` (simple graphs carry no
        self-loops).  Raises :class:`ValueError` naming the first id outside
        ``[0, n)``.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        n = self.num_nodes
        if u.size and v.size and (
            min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n
        ):
            # Pair order, u before v.
            ids = np.stack(np.broadcast_arrays(u, v), axis=-1).ravel()
            bad = int(ids[(ids < 0) | (ids >= n)][0])
            raise ValueError(f"has_edges got node id {bad} outside [0, {n})")
        if self._use_dense():
            return self._bool_matrix()[u, v]
        if self._use_bitset():
            cells = u * np.int64(n) + v
            shift = (cells & 7).astype(np.uint8)
            return ((self._bit_matrix()[cells >> 3] >> shift) & 1).astype(bool)
        keys = np.minimum(u, v) * np.int64(max(n, 1)) + np.maximum(u, v)
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
    # membership-strategy internals
    # ------------------------------------------------------------------
    def _use_dense(self) -> bool:
        if self.num_nodes <= 0 or self.num_edges == 0:
            return False
        matrix_bytes = self.num_nodes * self.num_nodes
        if matrix_bytes > DENSE_ADJACENCY_MAX_BYTES:
            return False
        # Each matrix row is O(n) regardless of how many of its cells are
        # set: demand a minimum edge fill so sparse large-n graphs use the
        # bitset or sorted-key path instead of an O(n²) matrix build.
        return self.num_edges * DENSE_MIN_FILL_DIVISOR >= matrix_bytes

    def _use_bitset(self) -> bool:
        """Off the dense path, whether :meth:`has_edges` probes the packed
        bitset: the same fill floor and byte cap, counted in bits."""
        cells = self.num_nodes * self.num_nodes
        return (
            self.num_edges > 0
            and not self._use_dense()
            and cells <= 8 * DENSE_MIN_FILL_DIVISOR * self.num_edges
            and cells // 8 <= DENSE_ADJACENCY_MAX_BYTES
        )

    def _bit_matrix(self) -> np.ndarray:
        """Flat packed adjacency: bit ``u * n + v`` (little-endian within
        each byte) is set iff ``{u, v}`` is an edge, both orientations."""
        if self._adjacency_bits is None:
            n = np.int64(self.num_nodes)
            cells_total = self.num_nodes * self.num_nodes
            bits = np.zeros((cells_total + 7) // 8, dtype=np.uint8)
            for a, b in ((self.edge_u, self.edge_v), (self.edge_v, self.edge_u)):
                cells = a * n + b
                np.bitwise_or.at(
                    bits, cells >> 3, np.left_shift(1, cells & 7).astype(np.uint8)
                )
            self._adjacency_bits = _frozen(bits)
        return self._adjacency_bits

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
                # Each triangle adds one to each of its three edges; the
                # cached listing is reused when there is one.
                for chunk in self.iter_triangle_chunks():
                    a, b, c = chunk.T
                    for x, y in ((a, b), (a, c), (b, c)):
                        np.add.at(support, self._edge_positions(x, y), 1)
        self._support = _frozen(support)
        return self._support

    def count_triangles(self) -> int:
        """Return ``|T(G)|`` without keeping a listing.

        With the supports at hand (cached, or the packed-popcount dense
        path) each triangle is counted once per edge, so the supports sum
        to three times the count.  Otherwise the forward enumeration's
        chunks are counted and dropped: the sparse support reduction lists
        the same chunks and then scatters three ``np.add.at`` passes over
        them, which is slower than the count needs.
        """
        if self.num_edges == 0:
            return 0
        if self._support is not None or self._use_dense():
            return int(self.edge_support().sum()) // 3
        return sum(chunk.shape[0] for chunk in self.iter_triangle_chunks())

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
        return next(self.iter_triangle_chunks(), None) is not None

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
            # Wedge closure: pair each edge (u, v) with the forward part of
            # v's sorted row (its neighbours above v).
            forward = np.bincount(self.edge_u, minlength=self.num_nodes)
            forward_lo = self.indptr[1:] - forward
            chunk = _edge_chunk(64)  # ~8 int64 temporaries per edge
            for start in range(0, m, chunk):
                u_chunk = self.edge_u[start : start + chunk]
                v_chunk = self.edge_v[start : start + chunk]
                for edge, w in self._closed_pairs(
                    u_chunk, forward_lo[v_chunk], forward[v_chunk]
                ):
                    yield np.column_stack((u_chunk[edge], v_chunk[edge], w))

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
        pairs = [np.column_stack(pair) for pair in self._neighbour_pairs(node)]
        if not pairs:
            return np.empty((0, 3), dtype=np.int64)
        pairs = np.concatenate(pairs, axis=0)
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
        return self.edge_support()[self._edge_positions(a, b)]

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
        if self._use_dense():
            mask = np.empty(m, dtype=bool)
            landmark_flags = np.zeros(self.num_nodes, dtype=bool)
            landmark_flags[landmark_array] = True
            matrix = self._bool_matrix()
            chunk = _edge_chunk(self.num_nodes)
            for start in range(0, m, chunk):
                end = min(start + chunk, m)
                both = matrix[self.edge_u[start:end]] & matrix[self.edge_v[start:end]]
                mask[start:end] = ~(both & landmark_flags[None, :]).any(axis=1)
        else:
            # An edge leaves ∆(X) exactly when it joins two neighbours of
            # some landmark.
            mask = np.ones(m, dtype=bool)
            for landmark in np.unique(landmark_array).tolist():
                for a, b in self._neighbour_pairs(landmark):
                    mask[self._edge_positions(a, b)] = False
        return mask

    # ------------------------------------------------------------------
    # wedge closure (the oracle off the dense path)
    # ------------------------------------------------------------------
    def _edge_positions(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Canonical edge positions of edges ``(a, b)``, ``a < b`` (binary
        search of the sorted canonical edge keys)."""
        keys = a * np.int64(max(self.num_nodes, 1)) + b
        return np.searchsorted(self._edge_key_array(), keys)

    def _closed_pairs(
        self, first: np.ndarray, lo: np.ndarray, count: np.ndarray
    ) -> "Iterator[Tuple[np.ndarray, np.ndarray]]":
        """Yield ``(item, other)`` for each pair ``(first[item], other)``,
        ``other`` in ``indices[lo[item] : lo[item] + count[item]]``, that is
        an edge, in ``(item, position)`` order.

        The pairs are laid end to end and closed window by window, one
        :meth:`has_edges` call per window.  A window's temporaries fit the
        chunk bound together, and a window may split an item's
        run.  Windows without an edge yield nothing.
        """
        ends = np.cumsum(count)
        total = int(ends[-1]) if ends.shape[0] else 0
        starts = ends - count
        shift = lo - starts
        window = _edge_chunk(64)  # ~8 int64 temporaries per pair
        for start in range(0, total, window):
            end = min(start + window, total)
            low = int(np.searchsorted(ends, start, side="right"))
            high = int(np.searchsorted(ends, end - 1, side="right")) + 1
            spans = np.minimum(ends[low:high], end) - np.maximum(
                starts[low:high], start
            )
            item = np.repeat(np.arange(low, high), spans)
            positions = np.repeat(shift[low:high], spans) + np.arange(start, end)
            other = self.indices[positions]
            closed = self.has_edges(first[item], other)
            if closed.any():
                yield item[closed], other[closed]

    def _neighbour_pairs(
        self, node: int
    ) -> "Iterator[Tuple[np.ndarray, np.ndarray]]":
        """Yield ``(a, b)`` per window: the adjacent pairs ``a < b`` of
        ``node``'s neighbours, in lexicographic order (see
        :meth:`_closed_pairs`)."""
        row_start, row_end = int(self.indptr[node]), int(self.indptr[node + 1])
        nbrs = self.indices[row_start:row_end]
        for item, other in self._closed_pairs(
            nbrs,
            np.arange(row_start + 1, row_end + 1, dtype=np.int64),
            np.arange(row_end - row_start - 1, -1, -1, dtype=np.int64),
        ):
            yield nbrs[item], other

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

