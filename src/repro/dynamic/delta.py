"""Delta layer over the immutable CSR substrate.

The batch pipeline builds one :class:`~repro.graphs.csr.CSRGraph` per
workload and never mutates it.  Online serving needs the opposite: a graph
that absorbs a stream of edge insert/delete batches while readers keep
asking triangle questions.  Rebuilding the CSR arrays per batch is O(m);
this module instead layers a small sorted overlay on top of the frozen
base:

* ``added_keys`` — canonical edge keys present in the snapshot but not in
  the base CSR,
* ``removed_keys`` — tombstones: base edges deleted from the snapshot.

Both arrays are sorted ``int64`` and disjoint from each other, so
membership tests are ``searchsorted`` and every set operation on them is
a ``searchsorted`` insertion or deletion, never numpy's hash-based ``unique``.
Row reads see each overlay as a small columnar adjacency: a CSR over just
the nodes the overlay touches (a sorted owner array plus
``indptr``/``indices``), built from one sort of the symmetric keys on the
first read that needs it, so its size tracks the overlay rather than
``n``.  :meth:`DeltaSnapshot.has_edges` answers effective membership for
whole arrays of pairs and :meth:`DeltaSnapshot.gather_neighbors` reads
the effective rows of many nodes at once; the incremental oracle closes a
batch's wedges with those two calls.

Once the overlay grows past a threshold the snapshot is *compacted* back
into a fresh ``CSRGraph``; because edge keys are canonical (``u < v``,
sorted ascending) compaction is byte-deterministic — the same logical
graph always produces identical CSR arrays no matter which batch sequence
produced it.

:class:`DeltaSnapshot` is immutable and safe to hand to concurrent readers
(its lazily built rows are idempotent caches);
:class:`DeltaGraph` owns the current snapshot and serializes batch
application, bumping a monotone version per batch so readers can pin the
exact state an answer was computed against.
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import Edge, sorted_unique

__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "DeltaGraph",
    "DeltaSnapshot",
    "canonical_batch_keys",
    "decode_edge_keys",
]

#: Overlay size (``len(added) + len(removed)``) above which ``apply_batch``
#: folds the overlay into a fresh CSR base.  Every snapshot re-sorts its
#: overlay keys into columnar rows on first read and every batch probes
#: them by binary search, so a bounded overlay keeps both small next to
#: the O(m) compaction it defers.
DEFAULT_COMPACT_THRESHOLD = 4096

_EMPTY_KEYS = np.empty(0, dtype=np.int64)
_EMPTY_KEYS.setflags(write=False)

#: An overlay's symmetric adjacency over the nodes it touches, as
#: ``(owners, indptr, indices)``: the sorted row of ``owners[i]`` is
#: ``indices[indptr[i] : indptr[i + 1]]``.
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _frozen_keys(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=np.int64)
    if out is array:
        out = array.copy()
    out.setflags(write=False)
    return out


def in_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``needles`` in a sorted ``haystack``."""
    needles = np.asarray(needles, dtype=np.int64)
    out = np.zeros(needles.shape, dtype=bool)
    if haystack.size == 0 or needles.size == 0:
        return out
    pos = np.searchsorted(haystack, needles)
    valid = pos < haystack.size
    out[valid] = haystack[pos[valid]] == needles[valid]
    return out


def pair_keys(u: np.ndarray, v: np.ndarray, num_nodes: int) -> np.ndarray:
    """Canonical edge keys ``min·n + max`` of the pairs ``(u[i], v[i])``."""
    return np.minimum(u, v) * np.int64(max(num_nodes, 1)) + np.maximum(u, v)


def _insert_sorted(keys: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Sorted union of sorted ``keys`` and sorted ``extra`` disjoint from it."""
    return np.insert(keys, np.searchsorted(keys, extra), extra)


def _delete_sorted(keys: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` without the sorted subset ``drop``."""
    return np.delete(keys, np.searchsorted(keys, drop))


def _int_pair(pair: object) -> Optional[Tuple[int, int]]:
    """``pair`` unpacked, or ``None`` unless it is a sequence (or 1-D array)
    of exactly two ints or numpy integers other than ``bool``."""
    if type(pair) is not tuple and not isinstance(pair, (Sequence, np.ndarray)):
        return None
    try:
        u, v = pair
    except (TypeError, ValueError):
        return None
    for x in (u, v):
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            return None
    return u, v


def canonical_batch_keys(edges: Iterable[Tuple[int, int]], num_nodes: int) -> np.ndarray:
    """Validate and canonicalize a batch of edges into sorted unique keys.

    Raises :class:`~repro.errors.GraphError` naming the pair on anything
    but ``(u, v)`` pairs of ints or numpy integers (``bool`` rejected: no
    float, string or truth value is coerced into a node id), and on
    self-loops or endpoints outside ``[0, num_nodes)``.  Duplicate pairs
    within a batch collapse to one key — applying ``(u, v)`` twice in one
    batch is idempotent.
    """
    pairs = list(edges)
    if not pairs:
        return _EMPTY_KEYS
    checked = []
    for pair in pairs:
        endpoints = _int_pair(pair)
        if endpoints is None:
            raise GraphError(f"edge batch must be a sequence of integer (u, v) pairs, got {pair!r}")
        checked.append(endpoints)
    try:
        arr = np.array(checked, dtype=np.int64)
    except OverflowError as exc:
        raise GraphError(f"edge endpoint out of range for graph with {num_nodes} nodes") from exc
    u, v = arr[:, 0], arr[:, 1]
    bad = np.flatnonzero((np.minimum(u, v) < 0) | (np.maximum(u, v) >= num_nodes))
    if bad.size:
        raise GraphError(
            f"edge {pairs[bad[0]]!r}: endpoint out of range for graph with {num_nodes} nodes"
        )
    loops = np.flatnonzero(u == v)
    if loops.size:
        raise GraphError(f"edge {pairs[loops[0]]!r}: self-loops are not allowed in edge batches")
    return _frozen_keys(sorted_unique(pair_keys(u, v, num_nodes)))


def decode_edge_keys(keys: np.ndarray, num_nodes: int) -> List[Edge]:
    """Decode sorted canonical edge keys back into ``(u, v)`` tuples."""
    n = max(num_nodes, 1)
    return [(int(k) // n, int(k) % n) for k in np.asarray(keys, dtype=np.int64)]


def _overlay_rows(keys: np.ndarray, num_nodes: int) -> _Rows:
    """Columnar symmetric adjacency of an overlay key array: one sort of
    the keys in both orientations, split into rows where the owner
    changes."""
    if not keys.size:
        return _EMPTY_KEYS, np.zeros(1, dtype=np.int64), _EMPTY_KEYS
    n = np.int64(max(num_nodes, 1))
    sym = np.concatenate((keys, keys % n * n + keys // n))
    sym.sort()
    owner = sym // n
    first = np.empty(sym.size, dtype=bool)
    first[0] = True
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return owner[starts], np.append(starts, sym.size), sym % n


def _row_spans(rows: _Rows, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(start, length)`` of each node's row in ``rows``; untouched nodes
    get length 0."""
    owners, indptr, _ = rows
    slot = np.searchsorted(owners, nodes)
    start = indptr[slot]
    return start, indptr[slot + in_sorted(owners, nodes)] - start


def _row(rows: _Rows, node: int) -> np.ndarray:
    start, length = _row_spans(rows, np.array([node], dtype=np.int64))
    return rows[2][start[0] : start[0] + length[0]]


def _expand(start: np.ndarray, length: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, position)`` for positions ``start[item] + j``,
    ``j < length[item]``, laid end to end in item order."""
    ends = np.cumsum(length)
    total = int(ends[-1]) if ends.size else 0
    item = np.repeat(np.arange(length.size), length)
    return item, np.arange(total) + np.repeat(start - ends + length, length)


class DeltaSnapshot:
    """An immutable, versioned view of base CSR plus an edge overlay.

    The overlay invariants (established by :class:`DeltaGraph`, assumed
    here): ``added_keys`` and ``removed_keys`` are sorted, unique, mutually
    disjoint; ``added_keys`` is disjoint from the base edge set and
    ``removed_keys`` is a subset of it.  The columnar rows of each overlay
    are built on the first read that needs them.
    """

    __slots__ = (
        "base",
        "version",
        "added_keys",
        "removed_keys",
        "_added_rows",
        "_removed_rows",
        "__weakref__",
    )

    def __init__(
        self,
        base: CSRGraph,
        version: int,
        added_keys: np.ndarray | None = None,
        removed_keys: np.ndarray | None = None,
    ) -> None:
        self.base = base
        self.version = int(version)
        self.added_keys = _frozen_keys(added_keys if added_keys is not None else _EMPTY_KEYS)
        self.removed_keys = _frozen_keys(removed_keys if removed_keys is not None else _EMPTY_KEYS)
        self._added_rows: _Rows | None = None
        self._removed_rows: _Rows | None = None

    # -- basic shape -------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.base.num_nodes

    @property
    def num_edges(self) -> int:
        return self.base.num_edges - int(self.removed_keys.size) + int(self.added_keys.size)

    @property
    def overlay_size(self) -> int:
        return int(self.added_keys.size) + int(self.removed_keys.size)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.base.num_nodes:
            raise GraphError(f"node {node} out of range for graph with {self.base.num_nodes} nodes")

    def _check_nodes(self, nodes: np.ndarray) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        bad = nodes[(nodes < 0) | (nodes >= self.base.num_nodes)]
        if bad.size:
            self._check_node(int(bad[0]))
        return nodes

    def _added(self) -> _Rows:
        if self._added_rows is None:
            self._added_rows = _overlay_rows(self.added_keys, self.base.num_nodes)
        return self._added_rows

    def _removed(self) -> _Rows:
        if self._removed_rows is None:
            self._removed_rows = _overlay_rows(self.removed_keys, self.base.num_nodes)
        return self._removed_rows

    # -- queries -----------------------------------------------------------

    def edge_key(self, u: int, v: int) -> int:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError("self-loops have no edge key")
        lo, hi = (u, v) if u < v else (v, u)
        return lo * max(self.base.num_nodes, 1) + hi

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        key = np.array([self.edge_key(u, v)], dtype=np.int64)
        if bool(in_sorted(self.added_keys, key)[0]):
            return True
        if bool(in_sorted(self.removed_keys, key)[0]):
            return False
        return self.base.has_edge(u, v)

    def has_edges(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized effective edge membership for arrays of pairs.

        The base CSR's :meth:`~repro.graphs.csr.CSRGraph.has_edges` (dense,
        bitset or sorted-key), minus tombstones, plus additions.  Pair order
        does not matter and ``u == v`` pairs are ``False``; ids outside
        ``[0, n)`` raise :class:`ValueError` as on the base.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        present = self.base.has_edges(u, v)
        if self.overlay_size:
            keys = pair_keys(u, v, self.base.num_nodes)
            # Tombstones only ever hide base edges.
            present[present] = ~in_sorted(self.removed_keys, keys[present])
            present |= in_sorted(self.added_keys, keys)
        return present

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted effective neighbourhood: base row minus tombstones plus adds."""
        self._check_node(node)
        row = self.base.neighbor_slice(node)
        gone = _row(self._removed(), node)
        if gone.size:
            row = _delete_sorted(row, gone)
        new = _row(self._added(), node)
        if new.size:
            row = _insert_sorted(row, new)
        return row

    def gather_neighbors(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Effective rows of many nodes in one pass.

        Returns ``(item, neighbour)`` arrays holding one entry per
        neighbour of ``nodes[item]``: the live base entries of every row,
        then the overlay additions.  Entries within a row are not sorted.
        """
        nodes = self._check_nodes(nodes)
        indptr = self.base.indptr
        item, position = _expand(indptr[nodes], indptr[nodes + 1] - indptr[nodes])
        other = self.base.indices[position]
        if self.removed_keys.size:
            keys = pair_keys(nodes[item], other, self.base.num_nodes)
            live = ~in_sorted(self.removed_keys, keys)
            item, other = item[live], other[live]
        if self.added_keys.size:
            rows = self._added()
            added_item, added_position = _expand(*_row_spans(rows, nodes))
            item = np.concatenate((item, added_item))
            other = np.concatenate((other, rows[2][added_position]))
        return item, other

    def degrees(self, nodes: np.ndarray) -> np.ndarray:
        """Effective degree of each node: its base, tombstone and addition
        row lengths."""
        nodes = self._check_nodes(nodes)
        indptr = self.base.indptr
        return (
            indptr[nodes + 1]
            - indptr[nodes]
            - _row_spans(self._removed(), nodes)[1]
            + _row_spans(self._added(), nodes)[1]
        )

    def degree(self, node: int) -> int:
        self._check_node(node)
        return int(self.degrees(np.array([node], dtype=np.int64))[0])

    def common_neighbors(self, u: int, v: int) -> np.ndarray:
        return np.intersect1d(self.neighbors(u), self.neighbors(v), assume_unique=True)

    # -- materialization ---------------------------------------------------

    def edge_keys(self) -> np.ndarray:
        """Sorted canonical keys of the effective edge set."""
        base_keys = _delete_sorted(self.base._edge_key_array(), self.removed_keys)
        return _insert_sorted(base_keys, self.added_keys)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        keys = self.edge_keys()
        n = np.int64(max(self.base.num_nodes, 1))
        return keys // n, keys % n

    def compact(self) -> CSRGraph:
        """Fold the overlay into a fresh CSR.

        Deterministic: the effective key set is canonical and sorted, so the
        resulting CSR arrays are byte-identical for any batch history that
        reaches the same logical graph.
        """
        edge_u, edge_v = self.edge_arrays()
        return CSRGraph.from_edge_arrays(self.base.num_nodes, edge_u, edge_v)

    def materialize(self) -> Graph:
        """Build a mutable :class:`Graph` with the effective edge set."""
        edge_u, edge_v = self.edge_arrays()
        return Graph.from_edge_arrays(self.base.num_nodes, edge_u, edge_v, deduplicate=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaSnapshot(version={self.version}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, overlay=+{self.added_keys.size}/-{self.removed_keys.size})"
        )


class DeltaGraph:
    """Mutable front over :class:`DeltaSnapshot` with batched updates.

    ``apply_batch`` is the only mutator.  It canonicalizes the batch,
    reduces it to its *effective* part (inserts already present and deletes
    already absent are dropped), produces a new immutable snapshot with the
    version bumped by one, and compacts when the overlay exceeds the
    threshold.  Readers grab ``.snapshot`` once and work on a consistent
    frozen state for as long as they like.
    """

    __slots__ = ("_snapshot", "_compact_threshold", "_compactions", "_lock")

    def __init__(
        self,
        base: "Graph | CSRGraph",
        *,
        compact_threshold: int | None = None,
    ) -> None:
        csr = base.csr() if isinstance(base, Graph) else base
        if not isinstance(csr, CSRGraph):
            raise GraphError(f"DeltaGraph needs a Graph or CSRGraph base, got {type(base).__name__}")
        if compact_threshold is None:
            compact_threshold = DEFAULT_COMPACT_THRESHOLD
        if compact_threshold < 1:
            raise GraphError("compact_threshold must be at least 1")
        self._snapshot = DeltaSnapshot(csr, 0)
        self._compact_threshold = int(compact_threshold)
        self._compactions = 0
        self._lock = threading.Lock()

    @property
    def snapshot(self) -> DeltaSnapshot:
        return self._snapshot

    @property
    def version(self) -> int:
        return self._snapshot.version

    @property
    def num_nodes(self) -> int:
        return self._snapshot.num_nodes

    @property
    def num_edges(self) -> int:
        return self._snapshot.num_edges

    @property
    def compact_threshold(self) -> int:
        return self._compact_threshold

    @property
    def compactions(self) -> int:
        return self._compactions

    def apply_batch(
        self,
        insert: Iterable[Tuple[int, int]] = (),
        delete: Iterable[Tuple[int, int]] = (),
    ) -> Tuple[DeltaSnapshot, np.ndarray, np.ndarray]:
        """Apply one insert/delete batch and return the new snapshot.

        Returns ``(snapshot, inserted_keys, deleted_keys)`` where the key
        arrays hold only the *effective* part of the batch.  Asking to both
        insert and delete the same edge in one batch is ambiguous and
        raises :class:`~repro.errors.GraphError`; every call bumps the
        version even when the effective batch is empty.
        """
        num_nodes = self._snapshot.num_nodes
        ins_keys = canonical_batch_keys(insert, num_nodes)
        del_keys = canonical_batch_keys(delete, num_nodes)
        both = ins_keys[in_sorted(del_keys, ins_keys)]
        if both.size:
            u, v = decode_edge_keys(both[:1], num_nodes)[0]
            raise GraphError(f"edge ({u}, {v}) appears in both insert and delete sets of one batch")
        with self._lock:
            snap = self._snapshot
            base_keys = snap.base._edge_key_array()

            ins_in_base = in_sorted(base_keys, ins_keys)
            ins_in_removed = in_sorted(snap.removed_keys, ins_keys)
            ins_in_added = in_sorted(snap.added_keys, ins_keys)
            ins_present = (ins_in_base & ~ins_in_removed) | ins_in_added
            eff_ins = ins_keys[~ins_present]
            eff_ins_in_base = ins_in_base[~ins_present]

            del_in_base = in_sorted(base_keys, del_keys)
            del_in_removed = in_sorted(snap.removed_keys, del_keys)
            del_in_added = in_sorted(snap.added_keys, del_keys)
            del_present = (del_in_base & ~del_in_removed) | del_in_added
            eff_del = del_keys[del_present]
            eff_del_in_added = del_in_added[del_present]

            added = _delete_sorted(snap.added_keys, eff_del[eff_del_in_added])
            removed = _insert_sorted(snap.removed_keys, eff_del[~eff_del_in_added])
            removed = _delete_sorted(removed, eff_ins[eff_ins_in_base])
            added = _insert_sorted(added, eff_ins[~eff_ins_in_base])

            version = snap.version + 1
            if int(added.size) + int(removed.size) > self._compact_threshold:
                staged = DeltaSnapshot(snap.base, version, added, removed)
                new_snap = DeltaSnapshot(staged.compact(), version)
                self._compactions += 1
            else:
                new_snap = DeltaSnapshot(snap.base, version, added, removed)
            self._snapshot = new_snap
            return new_snap, _frozen_keys(eff_ins), _frozen_keys(eff_del)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaGraph({self._snapshot!r}, compactions={self._compactions})"
