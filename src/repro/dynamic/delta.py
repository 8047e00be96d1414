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
the effective rows of many nodes at once.

Snapshots serve readers.  The writer keeps its own mutable state beside
them, :class:`LiveEdges`: the effective degree of every node and an
open-addressing hash table of edge keys, patched in place by every batch.
Every membership test on the write path — which requests of a batch are
effective, which base entries a tombstone hides, which wedges close — is
one constant-time probe of that table rather than a binary search of the
overlay.

Once the overlay grows past a threshold the snapshot is *compacted* back
into a fresh ``CSRGraph``; because edge keys are canonical (``u < v``,
sorted ascending) compaction is byte-deterministic — the same logical
graph always produces identical CSR arrays no matter which batch sequence
produced it.

:class:`DeltaSnapshot` is immutable and safe to hand to concurrent readers
(its lazily built rows are idempotent caches);
:class:`DeltaGraph` owns the current snapshot and the live state and
serializes batch application, bumping a monotone version per batch so
readers can pin the exact state an answer was computed against.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..congest.backends import gather_spans
from ..errors import GraphError, ReproError
from ..faults import fault_point
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import Edge, sorted_unique

__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "DeltaGraph",
    "DeltaSnapshot",
    "LiveEdges",
    "canonical_batch_keys",
    "decode_edge_keys",
]

#: Overlay size (``len(added) + len(removed)``) above which ``apply_batch``
#: folds the overlay into a fresh CSR base.  Every snapshot re-sorts its
#: overlay keys into columnar rows on first read and readers probe them by
#: binary search, so a bounded overlay keeps both small next to the O(m)
#: compaction it defers.
DEFAULT_COMPACT_THRESHOLD = 4096

_EMPTY_KEYS = np.empty(0, dtype=np.int64)
_EMPTY_KEYS.setflags(write=False)

#: An overlay's symmetric adjacency over the nodes it touches, as
#: ``(owners, indptr, indices)``: the sorted row of ``owners[i]`` is
#: ``indices[indptr[i] : indptr[i + 1]]``.
_Rows = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Container types a batch pair may arrive in for whole-array validation;
#: anything else takes the pair-by-pair path.
_PAIR_TYPES = frozenset((tuple, list, np.ndarray))


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


def _update_sorted(keys: np.ndarray, drop: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """Sorted ``keys`` without its sorted subset ``drop``, merged with the
    sorted ``extra`` it lacks."""
    if drop.size:
        kept = np.ones(keys.size, dtype=bool)
        kept[np.searchsorted(keys, drop)] = False
        keys = keys[kept]
    if extra.size:
        at = np.searchsorted(keys, extra) + np.arange(extra.size)
        merged = np.empty(keys.size + extra.size, dtype=np.int64)
        merged[at] = extra
        rest = np.ones(merged.size, dtype=bool)
        rest[at] = False
        merged[rest] = keys
        keys = merged
    return keys


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


def _integer_types(types: Iterable[type]) -> bool:
    """Whether every type is an int or numpy integer type other than ``bool``."""
    return all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types)


def _pair_columns(pairs: List[object], num_nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """The int64 ``(u, v)`` endpoint columns of ``pairs``.

    A well-formed batch converts as one array: its pair containers, pair
    lengths and endpoint types are checked as sets, not pair by pair.
    Anything else is checked pair by pair, which names the first bad pair.
    """
    try:
        shaped = set(map(type, pairs)) <= _PAIR_TYPES and set(map(len, pairs)) == {2}
    except TypeError:  # a 0-d array has no length
        shaped = False
    if shaped:
        flat = list(chain.from_iterable(pairs))
        if _integer_types(set(map(type, flat))):
            try:
                endpoints = np.array(flat, dtype=np.int64)
            except OverflowError:
                pass  # named below
            else:
                return endpoints[0::2], endpoints[1::2]
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
    return arr[:, 0], arr[:, 1]


def canonical_batch_keys(edges: Iterable[Tuple[int, int]], num_nodes: int) -> np.ndarray:
    """Validate and canonicalize a batch of edges into sorted unique keys.

    Raises :class:`~repro.errors.GraphError` naming the pair on anything
    but ``(u, v)`` pairs of ints or numpy integers (``bool`` rejected: no
    float, string or truth value is coerced into a node id), and on
    self-loops or endpoints outside ``[0, num_nodes)``.  Duplicate pairs
    within a batch collapse to one key — applying ``(u, v)`` twice in one
    batch is idempotent.
    """
    pairs = edges if type(edges) is list else list(edges)
    if not pairs:
        return _EMPTY_KEYS
    u, v = _pair_columns(pairs, num_nodes)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if lo.min() < 0 or hi.max() >= num_nodes:
        bad = np.flatnonzero((lo < 0) | (hi >= num_nodes))[0]
        raise GraphError(
            f"edge {pairs[bad]!r}: endpoint out of range for graph with {num_nodes} nodes"
        )
    loops = lo == hi
    if loops.any():
        raise GraphError(
            f"edge {pairs[np.flatnonzero(loops)[0]]!r}: self-loops are not allowed in edge batches"
        )
    keys = sorted_unique(lo * num_nodes + hi)
    keys.setflags(write=False)
    return keys


def decode_edge_keys(keys: np.ndarray, num_nodes: int) -> List[Edge]:
    """Decode sorted canonical edge keys back into ``(u, v)`` tuples."""
    n = max(num_nodes, 1)
    keys = np.asarray(keys, dtype=np.int64)
    return list(zip((keys // n).tolist(), (keys % n).tolist()))


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
    return np.repeat(np.arange(length.size), length), gather_spans(start, length)


def overlay_rows(keys: np.ndarray, num_nodes: int) -> _Rows:
    """Columnar symmetric adjacency of an overlay key array (any order):
    one sort of the keys in both orientations, split into rows where the
    owner changes."""
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


def gather_rows(base: CSRGraph, rows: _Rows, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(item, neighbour)`` for every entry of the base row of
    ``nodes[item]``, then for every entry of its row in ``rows``.

    No entry is filtered: base entries an overlay tombstones are the
    caller's to drop.
    """
    indptr = base.indptr
    start = indptr[nodes]
    item, position = _expand(start, indptr[nodes + 1] - start)
    other = base.indices[position]
    if rows[0].size:
        added_item, added_position = _expand(*_row_spans(rows, nodes))
        item = np.concatenate((item, added_item))
        other = np.concatenate((other, rows[2][added_position]))
    return item, other


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
            self._added_rows = overlay_rows(self.added_keys, self.base.num_nodes)
        return self._added_rows

    def _removed(self) -> _Rows:
        if self._removed_rows is None:
            self._removed_rows = overlay_rows(self.removed_keys, self.base.num_nodes)
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
        return _update_sorted(
            self.base.neighbor_slice(node), _row(self._removed(), node), _row(self._added(), node)
        )

    def gather_neighbors(self, nodes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Effective rows of many nodes in one pass.

        Returns ``(item, neighbour)`` arrays holding one entry per
        neighbour of ``nodes[item]``: the live base entries of every row,
        then the overlay additions.  Entries within a row are not sorted.
        """
        nodes = self._check_nodes(nodes)
        item, other = gather_rows(self.base, self._added(), nodes)
        if self.removed_keys.size:
            keys = pair_keys(nodes[item], other, self.base.num_nodes)
            live = ~in_sorted(self.removed_keys, keys)
            item, other = item[live], other[live]
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
        return _update_sorted(self.base._edge_key_array(), self.removed_keys, self.added_keys)

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
        """Build a :class:`Graph` with the effective edge set."""
        edge_u, edge_v = self.edge_arrays()
        return Graph.from_edge_arrays(self.base.num_nodes, edge_u, edge_v, deduplicate=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaSnapshot(version={self.version}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, overlay=+{self.added_keys.size}/-{self.removed_keys.size})"
        )


#: ``LiveEdges.keys`` value of a slot no key has used since the last rebuild.
_EMPTY_SLOT = -1

#: Bits of ``LiveEdges.state``: the slot's edge is in the current graph, is
#: in the current snapshot's base CSR, or was inserted or deleted by the
#: last applied batch.
LIVE, IN_BASE, INSERTED, DELETED = 1, 2, 4, 8

#: Fibonacci-hashing multiplier, ``2**64`` over the golden ratio, as the
#: int64 with the same bits (int64 array products wrap modulo ``2**64``).
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15 - (1 << 64)

#: Unsettled keys below which :meth:`LiveEdges.find` stops probing whole
#: arrays and finishes key by key.
_SCALAR_TAIL = 32


class LiveEdges:
    """The writer's mutable edge state: effective degrees and O(1) membership.

    ``degree[x]`` is the effective degree of node ``x``.  Edge keys live in
    an open-addressing hash table — linear probing from a multiplicative
    hash, over a power-of-two capacity kept at most half full — so probing
    a whole key array is a few vectorized gathers.  Slots are parallel
    arrays:

    * ``keys`` — the edge key, or ``-1`` for a slot no key has used,
    * ``state`` — the :data:`LIVE`, :data:`IN_BASE`, :data:`INSERTED` and
      :data:`DELETED` bits of the edge,
    * ``support`` — a counter carried with the slot (the incremental
      oracle keeps edge support there; a key starts at 0 whenever it turns
      live).

    ``batch_slots`` holds the slots of the last applied batch's effective
    keys, inserts then deletes, which alone carry the ``INSERTED`` and
    ``DELETED`` bits (see :meth:`apply`).

    A deleted edge keeps its slot (``LIVE`` cleared), so re-inserting it
    revives that slot and no slot is ever emptied: probe sequences have no
    holes.  Every base edge has a slot, live or not, which is what lets one
    probe drop tombstoned entries from a base row.  Slots of dead edges
    outside the base are reclaimed only when new keys would fill the table
    past half, by rebuilding it from the slots still needed.
    """

    __slots__ = (
        "num_nodes",
        "degree",
        "keys",
        "state",
        "support",
        "batch_slots",
        "_shift",
        "_used",
    )

    def __init__(self, base: CSRGraph) -> None:
        self.num_nodes = base.num_nodes
        self.degree = np.diff(base.indptr)
        keys = base._edge_key_array()
        self._allocate(keys.size)
        self.state[self._place(keys)] = LIVE | IN_BASE
        self.batch_slots = _EMPTY_KEYS

    def _allocate(self, count: int) -> None:
        """Fresh, empty slot arrays with room for ``4 * count`` keys."""
        bits = max(4, (4 * max(count, 1) - 1).bit_length())
        capacity = 1 << bits
        self._shift = 64 - bits
        self.keys = np.full(capacity, _EMPTY_SLOT, dtype=np.int64)
        self.state = np.zeros(capacity, dtype=np.uint8)
        self.support = np.zeros(capacity, dtype=np.int32)
        self._used = 0

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """First slot of each key: the top bits of a multiplicative hash,
        masked because int64 shifts carry the sign."""
        return ((keys * _HASH_MULTIPLIER) >> self._shift) & (self.keys.size - 1)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Slot of each key, or ``-1`` where the table does not hold it.

        Each round probes every unsettled key once, as one gather; a key
        settles on meeting itself or an empty slot.  The first probe
        settles most keys, and the last few (at most :data:`_SCALAR_TAIL`)
        finish in a plain loop, which is cheaper than another round of
        array calls.
        """
        keys = np.asarray(keys, dtype=np.int64)
        table = self.keys
        slot = self._home(keys)
        stored = table[slot]
        out = np.where(stored == keys, slot, -1)
        pending = np.flatnonzero((out < 0) & (stored != _EMPTY_SLOT))
        if not pending.size:
            return out
        mask = table.size - 1
        slot, keys = slot[pending], keys[pending]
        while pending.size > _SCALAR_TAIL:
            slot = (slot + 1) & mask
            stored = table[slot]
            hit = stored == keys
            out[pending[hit]] = slot[hit]
            more = ~hit & (stored != _EMPTY_SLOT)
            pending, slot, keys = pending[more], slot[more], keys[more]
        for index, at, key in zip(pending.tolist(), slot.tolist(), keys.tolist()):
            while True:
                at = (at + 1) & mask
                stored_key = table.item(at)
                if stored_key == key:
                    out[index] = at
                    break
                if stored_key == _EMPTY_SLOT:
                    break
        return out

    def states(self, slots: np.ndarray) -> np.ndarray:
        """``state`` of each slot, ``0`` where the slot is ``-1``."""
        out = self.state[slots]
        out[slots < 0] = 0
        return out

    def _place(self, keys: np.ndarray) -> np.ndarray:
        """Claim a slot for each of the distinct ``keys`` the table lacks.

        Each key takes the first empty slot of its probe sequence.  In a
        round of whole-array claims, keys racing for one slot leave it to
        the last writer and probe on; the last few keys, as in :meth:`find`,
        finish one at a time.
        """
        keys = np.asarray(keys, dtype=np.int64)
        table = self.keys
        mask = table.size - 1
        slot = self._home(keys)
        out = np.empty(keys.size, dtype=np.int64)
        pending = np.arange(keys.size)
        while pending.size > _SCALAR_TAIL:
            at = slot[pending]
            free = np.flatnonzero(table[at] == _EMPTY_SLOT)
            claimed, claims = at[free], keys[pending[free]]
            table[claimed] = claims
            won = free[table[claimed] == claims]
            out[pending[won]] = at[won]
            rest = np.ones(pending.size, dtype=bool)
            rest[won] = False
            pending = pending[rest]
            slot[pending] = (slot[pending] + 1) & mask
        for index, at, key in zip(pending.tolist(), slot[pending].tolist(), keys[pending].tolist()):
            while table.item(at) != _EMPTY_SLOT:
                at = (at + 1) & mask
            table[at] = key
            out[index] = at
        self._used += out.size
        return out

    def _rebuild(self, extra: int) -> None:
        """Rehash the slots still needed — live or in the base — into a
        table with room for ``extra`` more keys."""
        keep = (self.state & (LIVE | IN_BASE)) != 0
        keys, state, support = self.keys[keep], self.state[keep], self.support[keep]
        self._allocate(keys.size + extra)
        slots = self._place(keys)
        self.state[slots] = state
        self.support[slots] = support

    def apply(self, ins_keys: np.ndarray, del_keys: np.ndarray, slots: np.ndarray) -> None:
        """Make the absent edges ``ins_keys`` live and the live ``del_keys`` dead.

        ``slots`` is :meth:`find` of both, concatenated.  Their final
        slots, in the same order, replace :attr:`batch_slots` and take over
        the ``INSERTED``/``DELETED`` bits from the previous batch's.  New
        keys may rebuild the table, which moves every slot; the inserts go
        first, so a rebuild keeps the deleted edges, still live, for the
        write pass that follows to probe.
        """
        self.state[self.batch_slots] &= np.uint8(LIVE | IN_BASE)
        keys = np.concatenate((ins_keys, del_keys))
        fresh = slots < 0
        count = int(np.count_nonzero(fresh))
        if count and 2 * (self._used + count) > self.keys.size:
            # The rebuild drops the dead slots of inserts outside the base,
            # so any insert may need a new slot afterwards.
            self._rebuild(ins_keys.size)
            slots = self.find(keys)
            fresh = slots < 0
        if count:
            slots = slots.copy()
            slots[fresh] = self._place(keys[fresh])
        inserted, deleted = slots[: ins_keys.size], slots[ins_keys.size :]
        self.state[inserted] |= np.uint8(LIVE | INSERTED)
        self.support[inserted] = 0
        self.state[deleted] ^= np.uint8(LIVE | DELETED)
        n = max(self.num_nodes, 1)
        sign = np.repeat(np.array([1, -1]), [ins_keys.size, del_keys.size])
        np.add.at(self.degree, keys // n, sign)
        np.add.at(self.degree, keys % n, sign)
        self.batch_slots = slots

    def rebase(self) -> None:
        """After a compaction the base is exactly the live edge set."""
        state = self.state
        state &= np.uint8(0xFF ^ IN_BASE)
        state |= (state & LIVE) * np.uint8(IN_BASE)


class DeltaGraph:
    """Mutable front over :class:`DeltaSnapshot` with batched updates.

    ``apply_batch`` is the only mutator.  It canonicalizes the batch,
    reduces it to its *effective* part (inserts already present and deletes
    already absent are dropped), produces a new immutable snapshot with the
    version bumped by one, and compacts when the overlay exceeds the
    threshold.  Readers grab ``.snapshot`` once and work on a consistent
    frozen state for as long as they like.  The writer's own state,
    :attr:`live`, is patched in place by every batch.
    """

    __slots__ = ("_snapshot", "_live", "_compact_threshold", "_compactions", "_lock")

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
        self._live = LiveEdges(csr)
        self._compact_threshold = int(compact_threshold)
        self._compactions = 0
        self._lock = threading.Lock()

    @property
    def snapshot(self) -> DeltaSnapshot:
        return self._snapshot

    @property
    def live(self) -> LiveEdges:
        """The writer's live state, consistent with :attr:`snapshot`.

        Mutated in place by :meth:`apply_batch`: read it only from the
        thread that applies batches.
        """
        return self._live

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
        version even when the effective batch is empty.  A batch that
        raises changes nothing: the new snapshot, compaction included, is
        built before the live state is touched.
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
            live = self._live
            slots = live.find(np.concatenate((ins_keys, del_keys)))
            ins_slots, del_slots = slots[: ins_keys.size], slots[ins_keys.size :]
            state = live.states(slots)
            ins_state, del_state = state[: ins_keys.size], state[ins_keys.size :]
            keep = (ins_state & LIVE) == 0
            ins_keys, ins_slots = ins_keys[keep], ins_slots[keep]
            ins_in_base = (ins_state[keep] & IN_BASE) != 0
            keep = (del_state & LIVE) != 0
            del_keys, del_slots = del_keys[keep], del_slots[keep]
            del_in_base = (del_state[keep] & IN_BASE) != 0

            added = _update_sorted(
                snap.added_keys, del_keys[~del_in_base], ins_keys[~ins_in_base]
            )
            removed = _update_sorted(
                snap.removed_keys, ins_keys[ins_in_base], del_keys[del_in_base]
            )
            version = snap.version + 1
            compact = int(added.size) + int(removed.size) > self._compact_threshold
            if compact:
                staged = DeltaSnapshot(snap.base, version, added, removed)
                new_snap = DeltaSnapshot(staged.compact(), version)
            else:
                new_snap = DeltaSnapshot(snap.base, version, added, removed)

            if fault_point("query.apply", version=snap.version) is not None:
                raise ReproError(f"injected fault: batch on version {snap.version} rejected")
            live.apply(ins_keys, del_keys, np.concatenate((ins_slots, del_slots)))
            if compact:
                live.rebase()
                self._compactions += 1
            self._snapshot = new_snap
            ins_keys.setflags(write=False)
            del_keys.setflags(write=False)
            return new_snap, ins_keys, del_keys

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeltaGraph({self._snapshot!r}, compactions={self._compactions})"
