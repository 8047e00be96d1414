"""Execution kernel under the phase-based CONGEST simulators.

:class:`~repro.congest.simulator.CongestSimulator` (and its clique variant)
decides how many rounds a phase costs; this module does the physical work —
build per-node contexts with independent child RNGs, accumulate outgoing
messages, fan them out to destination inboxes, account the traffic in
:class:`~repro.congest.metrics.ExecutionMetrics`, and enforce a round
budget — as batched numpy operations instead of per-message Python loops
over dicts of tuples, which would cap the graph sizes the scaling
benchmarks can explore:

* :class:`MessagePlane` — the batched send buffer.  Scalar ``send`` calls
  stage into plain lists; the bulk paths (:meth:`NodeContext.bulk_send`,
  :meth:`NodeContext.broadcast_bits`) append whole numpy chunks, so a node
  enqueueing thousands of messages costs O(1) Python operations.  The
  columnar path (:meth:`MessagePlane.extend_columns`) goes further: a whole
  ``(targets, columns)`` batch under a :class:`~repro.congest.wire.WireSchema`
  is staged, sized (``schema.bit_size`` over the batch) and later delivered
  without ever materialising per-message payload objects.
* :class:`PhaseTraffic` — one phase's drained traffic as flat ``(src, dst,
  bits)`` int64 arrays plus an aligned object array of payloads, and — for
  columnar sends — one :class:`TypedChannel` of flattened element columns
  per schema kind.
* :class:`InboxSlice` — a delivered inbox as zero-copy views into the
  phase's destination-sorted arrays; the ``(sender, payload)`` pair list is
  materialized lazily on first read, so phases whose inboxes are only
  partially consumed (BFS frontiers, sparse responders) never pay for the
  rest.  Typed traffic stays columnar in its destination-grouped channel;
  object payloads for typed messages are only decoded if some consumer
  actually asks for the pair list.
* :class:`DeliveredChannel` / :class:`DeliveredPhase` — the **direct
  exchange** path.  When a batched phase kernel drives the network it does
  not need per-node inboxes at all: :meth:`CongestRuntime.deliver_direct`
  hands the kernel each typed channel's destination-grouped arrays
  (``dst``-sorted senders, grouped element offsets, grouped columns) and
  never materializes an :class:`InboxSlice` or the per-receiver dict.
  Grouping is lazy per schema kind — announcement channels nobody reads
  are never grouped.  Accounting (the flat
  ``src``/``dst``/``bits`` arrays, link-bit maxima,
  :class:`~repro.congest.metrics.ExecutionMetrics`) is shared with the
  inbox path, so both paths charge byte-identical CONGEST costs.
* :class:`CongestRuntime` — context construction, per-node RNG seeding,
  vectorized traffic aggregation (``np.bincount`` over encoded link keys
  instead of per-message dict updates), grouped delivery fan-out, metrics
  recording and round-limit enforcement.  Inbox resets between phases are
  O(touched nodes): the runtime remembers which contexts currently hold a
  non-empty inbox and only clears those.

The simulator stays a thin *policy* layer: it decides how a phase's round
cost is computed from the traffic and never re-implements delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import RoundLimitExceededError, SimulationError
from ..graphs.graph import Graph
from ..types import NodeId
from .bandwidth import DEFAULT_BANDWIDTH, BandwidthPolicy
from .metrics import ExecutionMetrics, PhaseReport
from .wire import WireSchema, default_bit_size

#: Shared empty-inbox value.  Immutable, so one instance can reset every
#: context between phases without allocation.
EMPTY_INBOX: Tuple[Tuple[int, Any], ...] = ()

#: Optional instrumentation hook: when set, called with the class name every
#: time a per-node delivery object (:class:`InboxSlice`) or a pooled arena
#: buffer is created.  The allocation regression tests use it to prove the
#: direct-exchange path builds no inbox objects.
_allocation_hook: Optional[Callable[[str], None]] = None


def set_allocation_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or clear, with ``None``) the delivery-allocation hook.

    Testing aid only — the hook must not raise.  Returns nothing; pass the
    previous value back to restore it.
    """
    global _allocation_hook
    _allocation_hook = hook


#: How many :meth:`PhaseArena.advance` ticks a leased buffer stays
#: untouchable.  A buffer taken while staging phase ``P`` may back arrays
#: that the delivered channels of phase ``P`` alias (the sorted-destination
#: zero-copy path), and those are consumed up until phase ``P+1`` is staged
#: — so leases survive the flush that drains ``P`` and the one after it.
_ARENA_RETIRE_DELAY = 2


class PhaseArena:
    """Grow-only buffer pool for the message plane's per-phase arrays.

    Every phase the plane (and the delivery grouping that follows it)
    materialises the same families of flat arrays — message offsets,
    broadcast source/size fills, merged accounting arrays, grouped column
    gathers.  Allocating them fresh each phase made steady-state simulation
    cost O(traffic) in allocator pressure; the arena instead leases slices
    of pooled backing buffers keyed by ``(name, dtype)``:

    * :meth:`take` returns a length-``count`` view over a pooled buffer,
      allocating (with geometric headroom, and firing the allocation hook
      with ``"arena:<name>"``) only when no pooled buffer is big enough —
      so once a workload's phase shape stabilises, phases perform **zero**
      fresh arena allocations, which the regression tests pin via the hook.
    * :meth:`advance` (called once per :meth:`MessagePlane.flush`) retires
      leases that are :data:`_ARENA_RETIRE_DELAY` phases old back into the
      pool.  The delay keeps a phase's arrays alive until every consumer —
      including delivered channels that alias staged arrays — has provably
      moved on, so recycling can never corrupt in-flight views.
    """

    __slots__ = ("_pools", "_inflight", "_clock")

    def __init__(self) -> None:
        self._pools: Dict[Tuple[str, np.dtype], List[np.ndarray]] = {}
        self._inflight: List[Tuple[int, Tuple[str, np.dtype], np.ndarray]] = []
        self._clock = 0

    def take(self, name: str, count: int, dtype=np.int64) -> np.ndarray:
        """Lease an uninitialised length-``count`` array from the pool."""
        key = (name, np.dtype(dtype))
        pool = self._pools.get(key)
        buffer: Optional[np.ndarray] = None
        if pool:
            for index, candidate in enumerate(pool):
                if candidate.shape[0] >= count:
                    buffer = candidate
                    del pool[index]
                    break
        if buffer is None:
            # 25% headroom so a workload whose phases drift slightly in
            # size does not re-grow the pool every phase.
            capacity = max(count, 16)
            buffer = np.empty(capacity + (capacity >> 2), dtype=dtype)
            if _allocation_hook is not None:
                _allocation_hook(f"arena:{name}")
        self._inflight.append((self._clock + _ARENA_RETIRE_DELAY, key, buffer))
        return buffer[:count]

    def advance(self) -> None:
        """End one phase: recycle leases whose retirement clock has passed."""
        self._clock += 1
        if not self._inflight:
            return
        clock = self._clock
        keep: List[Tuple[int, Tuple[str, np.dtype], np.ndarray]] = []
        for lease in self._inflight:
            if lease[0] <= clock:
                self._pools.setdefault(lease[1], []).append(lease[2])
            else:
                keep.append(lease)
        self._inflight = keep


def _arena_empty(
    arena: Optional[PhaseArena], name: str, count: int, dtype=np.int64
) -> np.ndarray:
    """Lease an uninitialised array from ``arena``, or allocate fresh."""
    if arena is None:
        return np.empty(count, dtype=dtype)
    return arena.take(name, count, dtype)


def _arena_full(
    arena: Optional[PhaseArena], name: str, count: int, value: int
) -> np.ndarray:
    """A ``np.full(count, value)`` twin drawing from the arena when given."""
    out = _arena_empty(arena, name, count)
    out[:] = value
    return out


def _arena_concat(
    arena: Optional[PhaseArena], name: str, arrays: List[np.ndarray]
) -> np.ndarray:
    """Concatenate into an arena lease (or fresh memory when ``arena`` is None)."""
    if arena is None:
        return np.concatenate(arrays)
    total = sum(int(array.shape[0]) for array in arrays)
    out = arena.take(name, total, arrays[0].dtype)
    np.concatenate(arrays, out=out)
    return out


def _object_array(payloads: Sequence[Any]) -> np.ndarray:
    """Build a 1-D object array without numpy's nested-sequence inference.

    ``np.asarray`` would try to broadcast tuple payloads into a 2-D array;
    ``np.fromiter`` with an object dtype treats every payload as opaque.
    """
    if isinstance(payloads, np.ndarray) and payloads.dtype == object:
        return payloads
    return np.fromiter(payloads, dtype=object, count=len(payloads))


def repeated_payload(payload: Any, count: int) -> np.ndarray:
    """Return an object array holding ``payload`` ``count`` times (C-speed)."""
    chunk = np.empty(count, dtype=object)
    chunk.fill(payload)
    return chunk


@dataclass(frozen=True)
class TypedChannel:
    """One schema's columnar traffic for a phase.

    ``src[i] -> dst[i]`` is a message of ``bits[i]`` on-wire bits whose
    elements are the rows ``offsets[i]:offsets[i+1]`` of every column in
    ``data`` (the flattened structure-of-arrays layout).
    """

    schema: WireSchema
    src: np.ndarray
    dst: np.ndarray
    bits: np.ndarray
    offsets: np.ndarray
    data: Dict[str, np.ndarray]

    @property
    def count(self) -> int:
        """Number of messages in this channel."""
        return int(self.src.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Per-message element counts."""
        return np.diff(self.offsets)


@dataclass(frozen=True)
class PhaseTraffic:
    """One phase's drained traffic in structure-of-arrays form.

    The flat ``src``/``dst``/``bits`` arrays cover *every* message of the
    phase (scalar, bulk and columnar sends alike), so the accounting
    reductions (:func:`max_link_bits`, :func:`record_deliveries`) need no
    special cases.  ``payloads[i]`` is the payload of the ``i``-th message
    for the first ``len(payloads)`` records — the object-payload sends, in
    global send order.  The remaining records belong to the typed
    ``channels``, whose payloads exist only as column blocks until someone
    asks a delivered inbox for its pair list.
    """

    src: np.ndarray
    dst: np.ndarray
    bits: np.ndarray
    payloads: np.ndarray
    channels: Tuple[TypedChannel, ...] = field(default=())

    @property
    def count(self) -> int:
        """Number of messages in this phase."""
        return int(self.src.shape[0])

    @property
    def total_bits(self) -> int:
        """Total on-wire bits across all messages."""
        return int(self.bits.sum()) if self.count else 0


_EMPTY_INT = np.empty(0, dtype=np.int64)
_EMPTY_OBJ = np.empty(0, dtype=object)


def empty_traffic() -> PhaseTraffic:
    """Return a traffic record with no messages."""
    return PhaseTraffic(src=_EMPTY_INT, dst=_EMPTY_INT, bits=_EMPTY_INT, payloads=_EMPTY_OBJ)


def build_typed_channel(
    schema: WireSchema,
    src: NodeId | np.ndarray,
    destinations: np.ndarray | Sequence[NodeId],
    data: Dict[str, np.ndarray],
    lengths: Optional[np.ndarray | Sequence[int]],
    bits: Optional[np.ndarray | Sequence[int] | int],
    num_nodes: int,
    arena: Optional[PhaseArena] = None,
) -> Optional[TypedChannel]:
    """Validate and assemble one columnar batch into a :class:`TypedChannel`.

    The single staging door shared by :meth:`MessagePlane.extend_columns`
    and :meth:`~repro.congest.routing.LenzenRouter.route_columns_direct`:
    source broadcasting, offset construction, column-layout checks and schema
    sizing all live here.  Returns ``None`` for an empty batch.  The
    derived flat arrays (offsets, broadcast source/length/size fills) are
    leased from ``arena`` when one is given; caller-staged column data is
    *never* copied into the arena — contiguous int64 columns pass through
    zero-copy either way.

    Raises
    ------
    SimulationError
        When column names, array lengths or message counts disagree with
        the schema.
    """
    dst = np.ascontiguousarray(destinations, dtype=np.int64)
    count = int(dst.shape[0])
    if count == 0:
        return None
    if np.ndim(src) == 0:
        src_arr = _arena_full(arena, "src", count, int(src))
    else:
        src_arr = np.ascontiguousarray(src, dtype=np.int64)
        if src_arr.shape[0] != count:
            raise SimulationError(
                f"typed batch has {count} destinations but "
                f"{src_arr.shape[0]} sources"
            )
    if lengths is None:
        if schema.fixed_length is None:
            raise SimulationError(
                f"schema {schema.kind!r} is ragged; lengths are required"
            )
        counts = _arena_full(arena, "lengths", count, schema.fixed_length)
    else:
        counts = np.ascontiguousarray(lengths, dtype=np.int64)
        if counts.shape[0] != count:
            raise SimulationError(
                f"typed batch has {count} destinations but "
                f"{counts.shape[0]} lengths"
            )
        if counts.shape[0] and int(counts.min()) < 0:
            raise SimulationError("message lengths must be non-negative")
    offsets = _arena_empty(arena, "offsets", count + 1)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    total_elements = int(offsets[-1])
    if set(data) != set(schema.columns):
        raise SimulationError(
            f"schema {schema.kind!r} expects columns {schema.columns}, "
            f"got {tuple(sorted(data))}"
        )
    columns: Dict[str, np.ndarray] = {}
    for name in schema.columns:
        column = np.ascontiguousarray(data[name], dtype=np.int64)
        if column.shape[0] != total_elements:
            raise SimulationError(
                f"column {name!r} has {column.shape[0]} rows; offsets "
                f"imply {total_elements}"
            )
        columns[name] = column
    if bits is None:
        sizes = schema.bit_size(
            counts, num_nodes, out=_arena_empty(arena, "bits", count) if arena else None
        )
    elif np.ndim(bits) == 0:
        sizes = _arena_full(arena, "bits", count, int(bits))
    else:
        sizes = np.ascontiguousarray(bits, dtype=np.int64)
        if sizes.shape[0] != count:
            raise SimulationError(
                f"typed batch has {count} destinations but "
                f"{sizes.shape[0]} sizes"
            )
    return TypedChannel(
        schema=schema, src=src_arr, dst=dst, bits=sizes, offsets=offsets, data=columns
    )


def _merge_typed_segments(
    segments: List[TypedChannel], arena: Optional[PhaseArena] = None
) -> TypedChannel:
    """Concatenate one kind's staged columnar segments into a channel."""
    if len(segments) == 1:
        return segments[0]
    schema = segments[0].schema
    src = _arena_concat(arena, "merge-src", [segment.src for segment in segments])
    dst = _arena_concat(arena, "merge-dst", [segment.dst for segment in segments])
    bits = _arena_concat(arena, "merge-bits", [segment.bits for segment in segments])
    # Per-segment offsets are rebased onto the concatenated element rows.
    lengths = _arena_concat(
        arena, "merge-lengths", [segment.lengths for segment in segments]
    )
    offsets = _arena_empty(arena, "offsets", lengths.shape[0] + 1)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    data = {
        name: _arena_concat(
            arena, f"merge-col:{name}", [segment.data[name] for segment in segments]
        )
        for name in schema.columns
    }
    return TypedChannel(
        schema=schema, src=src, dst=dst, bits=bits, offsets=offsets, data=data
    )


class InboxSlice:
    """One node's delivered inbox, backed by views into the phase arrays.

    Materializing the ``(sender, payload)`` pair list costs one C-level
    ``zip`` per inbox and happens only when the node program actually reads
    its messages.  Typed traffic is attached as ``(channel, group)``
    references into the destination-grouped :class:`DeliveredChannel` of
    each schema kind; :meth:`pairs` decodes them through the schema codec,
    so node programs see ``(sender, payload)`` messages either way.
    """

    __slots__ = ("_senders", "_payloads", "_pairs", "_typed")

    def __init__(self, senders: np.ndarray, payloads: np.ndarray) -> None:
        if _allocation_hook is not None:
            _allocation_hook("InboxSlice")
        self._senders = senders
        self._payloads = payloads
        self._pairs: Optional[List[Tuple[int, Any]]] = None
        self._typed: Tuple[Tuple["DeliveredChannel", int], ...] = ()

    @classmethod
    def empty(cls) -> "InboxSlice":
        """Return an inbox with no object-payload messages."""
        return cls(_EMPTY_INT, _EMPTY_OBJ)

    def pairs(self) -> List[Tuple[int, Any]]:
        """Return (and cache) the ``(sender, payload)`` list.

        Typed messages are decoded through their schema codec and appended
        after the object-payload messages, grouped by schema kind.
        """
        if self._pairs is None:
            pairs = list(zip(self._senders.tolist(), self._payloads.tolist()))
            for channel, which in self._typed:
                pairs.extend(channel.decode_pairs(which))
            self._pairs = pairs
        return self._pairs

    def __len__(self) -> int:
        count = int(self._senders.shape[0])
        for channel, which in self._typed:
            bounds = channel.message_bounds
            count += int(bounds[which + 1] - bounds[which])
        return count

    def __iter__(self):
        return iter(self.pairs())


#: What a context's ``_deliver`` may receive: the shared empty inbox, a lazy
#: slice, or (from legacy/direct callers) an explicit pair list.
Inbox = Union[Tuple[Tuple[int, Any], ...], List[Tuple[int, Any]], InboxSlice]


def inbox_pairs(inbox: Inbox) -> Sequence[Tuple[int, Any]]:
    """Normalise any inbox representation to a sequence of pairs."""
    if isinstance(inbox, InboxSlice):
        return inbox.pairs()
    return inbox


class MessagePlane:
    """Batched accumulation buffer for one phase's outgoing messages.

    Two append paths share one global record order:

    * scalar sends stage ``(src, dst, bits, payload)`` into Python lists —
      the same per-call cost as the old per-context tuple lists, and
    * bulk sends append whole numpy chunks, bypassing per-message Python
      work entirely.

    ``flush`` concatenates everything into a :class:`PhaseTraffic`, resolves
    default bit sizes, and resets the buffer.
    """

    __slots__ = (
        "num_nodes",
        "arena",
        "_size_of",
        "_scalar_src",
        "_scalar_dst",
        "_scalar_bits",
        "_scalar_payloads",
        "_chunks",
        "_typed",
        "_count",
        "_has_unset",
    )

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        # Reusable backing store for the per-phase flat arrays (offsets,
        # source/size fills, merged accounting arrays, grouped gathers).
        # Steady-state phases lease everything from here and allocate
        # nothing fresh — see :class:`PhaseArena`.
        self.arena = PhaseArena()
        self._size_of: Callable[[Any], int] = lambda payload: default_bit_size(
            payload, num_nodes
        )
        self._scalar_src: List[int] = []
        self._scalar_dst: List[int] = []
        self._scalar_bits: List[Optional[int]] = []
        self._scalar_payloads: List[Any] = []
        # Each chunk is (src, dst, bits, payloads, unset) where ``unset`` is
        # a boolean mask marking records whose default size must be resolved
        # at flush time (or None when the whole chunk carries explicit
        # sizes, as bulk appends always do).
        self._chunks: List[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]
        ] = []
        # Columnar segments per schema kind, staged by extend_columns and
        # concatenated into one TypedChannel per kind at flush time.
        self._typed: Dict[str, List[TypedChannel]] = {}
        self._count = 0
        self._has_unset = False

    def __len__(self) -> int:
        return self._count

    @property
    def is_empty(self) -> bool:
        """``True`` when no messages are queued."""
        return self._count == 0

    def append(self, src: NodeId, dst: NodeId, payload: Any, bits: Optional[int]) -> None:
        """Queue one message (the scalar ``send`` path)."""
        self._scalar_src.append(src)
        self._scalar_dst.append(dst)
        self._scalar_bits.append(bits)
        self._scalar_payloads.append(payload)
        self._count += 1

    def extend(
        self,
        src: NodeId,
        destinations: np.ndarray,
        payloads: Sequence[Any] | np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Queue a whole batch of messages from one source (the bulk path).

        ``destinations`` and ``bits`` must be int64 arrays of equal length
        and ``payloads`` a sequence (or object array) of the same length;
        callers (:meth:`~repro.congest.node.NodeContext.bulk_send`) validate
        before appending.
        """
        count = int(destinations.shape[0])
        if count == 0:
            return
        self._seal_scalars()
        self._chunks.append(
            (
                np.full(count, src, dtype=np.int64),
                destinations,
                bits,
                _object_array(payloads),
                None,
            )
        )
        self._count += count

    def extend_columns(
        self,
        schema: WireSchema,
        src: NodeId | np.ndarray,
        destinations: np.ndarray | Sequence[NodeId],
        data: Dict[str, np.ndarray],
        lengths: Optional[np.ndarray | Sequence[int]] = None,
        bits: Optional[np.ndarray | Sequence[int] | int] = None,
    ) -> None:
        """Queue a whole columnar batch of typed messages (the schema path).

        Parameters
        ----------
        schema:
            The wire schema every message of the batch conforms to.
        src:
            The sending node, or one int64 sender per message.
        destinations:
            One receiving node per message.
        data:
            The flattened element columns, one int64 array per schema
            column; message ``i`` owns rows ``offsets[i]:offsets[i+1]``.
        lengths:
            Per-message element counts.  Defaults to the schema's
            ``fixed_length`` when it has one.
        bits:
            Optional explicit per-message (or scalar) sizes, overriding
            ``schema.bit_size(lengths, n)``.

        Raises
        ------
        SimulationError
            When column names or array lengths disagree with the schema.
        """
        channel = build_typed_channel(
            schema, src, destinations, data, lengths, bits, self.num_nodes,
            arena=self.arena,
        )
        if channel is None:
            return
        self._typed.setdefault(schema.kind, []).append(channel)
        self._count += channel.count

    def _seal_scalars(self) -> None:
        """Convert staged scalar sends into one chunk, preserving order."""
        if not self._scalar_src:
            return
        # One pass over the staged sizes fills both the value array and the
        # unset mask (instead of walking the list twice with np.fromiter).
        scalar_bits = self._scalar_bits
        count = len(scalar_bits)
        bits = np.zeros(count, dtype=np.int64)
        unset: Optional[np.ndarray] = np.zeros(count, dtype=bool)
        any_unset = False
        for index, size in enumerate(scalar_bits):
            if size is None:
                unset[index] = True
                any_unset = True
            else:
                bits[index] = size
        if any_unset:
            self._has_unset = True
        else:
            unset = None
        self._chunks.append(
            (
                np.array(self._scalar_src, dtype=np.int64),
                np.array(self._scalar_dst, dtype=np.int64),
                bits,
                _object_array(self._scalar_payloads),
                unset,
            )
        )
        self._scalar_src = []
        self._scalar_dst = []
        self._scalar_bits = []
        self._scalar_payloads = []

    def flush(self) -> PhaseTraffic:
        """Drain the buffer into a :class:`PhaseTraffic` and reset it.

        Default bit sizes are resolved here, not at send time, so size
        errors surface when the phase runs.

        Raises
        ------
        SimulationError
            If any message carries a negative size.
        """
        if self._count == 0:
            self.arena.advance()
            return empty_traffic()
        self._seal_scalars()
        if not self._chunks:
            src, dst, bits, payloads, unset = (
                _EMPTY_INT,
                _EMPTY_INT,
                _EMPTY_INT,
                _EMPTY_OBJ,
                None,
            )
        elif len(self._chunks) == 1:
            src, dst, bits, payloads, unset = self._chunks[0]
        else:
            src = np.concatenate([chunk[0] for chunk in self._chunks])
            dst = np.concatenate([chunk[1] for chunk in self._chunks])
            bits = np.concatenate([chunk[2] for chunk in self._chunks])
            payloads = np.concatenate([chunk[3] for chunk in self._chunks])
            if self._has_unset:
                unset = np.concatenate(
                    [
                        chunk[4]
                        if chunk[4] is not None
                        else np.zeros(chunk[0].shape[0], dtype=bool)
                        for chunk in self._chunks
                    ]
                )
            else:
                unset = None
        channels = tuple(
            _merge_typed_segments(segments, self.arena)
            for segments in self._typed.values()
        )
        self._chunks = []
        self._typed = {}
        self._count = 0
        self._has_unset = False

        if unset is not None:
            size_of = self._size_of
            for index in np.flatnonzero(unset).tolist():
                bits[index] = size_of(payloads[index])
        if channels:
            # The flat record arrays cover every message; typed channels are
            # appended after the object-payload block, whose length payloads
            # still tracks.  A typed-only phase with a single channel (the
            # common batched-kernel shape) reuses the channel arrays as the
            # flat accounting arrays outright — no concatenation copies.
            if src.shape[0] == 0 and len(channels) == 1:
                src = channels[0].src
                dst = channels[0].dst
                bits = channels[0].bits
            else:
                arena = self.arena
                src = _arena_concat(
                    arena, "flat-src", [src] + [channel.src for channel in channels]
                )
                dst = _arena_concat(
                    arena, "flat-dst", [dst] + [channel.dst for channel in channels]
                )
                bits = _arena_concat(
                    arena, "flat-bits", [bits] + [channel.bits for channel in channels]
                )
        if bits.shape[0] and int(bits.min()) < 0:
            raise SimulationError(
                f"message size must be non-negative, got {int(bits.min())}"
            )
        self.arena.advance()
        return PhaseTraffic(
            src=src, dst=dst, bits=bits, payloads=payloads, channels=channels
        )


def _group_starts(dst_sorted: np.ndarray) -> Tuple[List[int], List[int], List[int]]:
    """Return (group starts, group ends, receivers) of a dst-sorted array."""
    starts = np.flatnonzero(
        np.concatenate(([True], dst_sorted[1:] != dst_sorted[:-1]))
    )
    start_list = starts.tolist()
    bounds = start_list[1:] + [int(dst_sorted.shape[0])]
    receivers = dst_sorted[starts].tolist()
    return start_list, bounds, receivers


@dataclass(frozen=True)
class DeliveredChannel:
    """One typed channel reordered into destination groups.

    The direct-exchange consumable: batched phase kernels read these arrays
    in place instead of per-node inbox objects.  Message ``i`` (rows
    grouped so ``dst`` is ascending, ties in staged order) was sent by
    ``src[i]`` and owns element rows ``offsets[i]:offsets[i+1]`` of every
    column in ``data``.  The messages of ``receivers[g]`` are rows
    ``message_bounds[g]:message_bounds[g+1]``.
    """

    schema: WireSchema
    receivers: np.ndarray
    message_bounds: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    offsets: np.ndarray
    data: Dict[str, np.ndarray]

    @classmethod
    def empty(cls, schema: WireSchema) -> "DeliveredChannel":
        """Return a delivered channel with no messages."""
        return cls(
            schema=schema,
            receivers=_EMPTY_INT,
            message_bounds=np.zeros(1, dtype=np.int64),
            src=_EMPTY_INT,
            dst=_EMPTY_INT,
            offsets=np.zeros(1, dtype=np.int64),
            data={name: _EMPTY_INT for name in schema.columns},
        )

    @property
    def count(self) -> int:
        """Number of messages in the channel."""
        return int(self.src.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        """Per-message element counts (grouped order)."""
        return np.diff(self.offsets)

    def element_receivers(self) -> np.ndarray:
        """Per-element receiving node (ascending, aligned with the columns)."""
        return np.repeat(self.dst, self.lengths)

    def element_senders(self) -> np.ndarray:
        """Per-element sending node (aligned with the columns)."""
        return np.repeat(self.src, self.lengths)

    def decode_pairs(self, which: int) -> List[Tuple[int, Any]]:
        """Decode the ``which``-th receiver's messages into ``(sender, payload)``
        pairs via the schema codec.

        Only the inbox delivery path calls this; direct-exchange consumers
        read the grouped arrays without per-receiver objects.
        """
        offsets = self.offsets
        start = int(self.message_bounds[which])
        end = int(self.message_bounds[which + 1])
        return [
            (
                int(self.src[index]),
                self.schema.decode(
                    {
                        name: column[offsets[index] : offsets[index + 1]]
                        for name, column in self.data.items()
                    }
                ),
            )
            for index in range(start, end)
        ]


def group_channel(
    channel: TypedChannel, arena: Optional[PhaseArena] = None
) -> DeliveredChannel:
    """Reorder one typed channel into destination groups.

    The flattened element rows are gathered once into destination order
    (one vectorized permutation); when the staged destinations are already
    sorted (single-receiver batches, pre-grouped routing instances) the
    staged arrays are reused as-is with no copies.  The gathered arrays of
    the unsorted path are leased from ``arena`` when one is given.
    """
    if channel.count == 0:
        return DeliveredChannel.empty(channel.schema)
    if channel.count == 1 or bool((channel.dst[1:] >= channel.dst[:-1]).all()):
        dst_sorted = channel.dst
        src_sorted = channel.src
        grouped_offsets = channel.offsets
        grouped_data = channel.data
    else:
        order = np.argsort(channel.dst, kind="stable")
        dst_sorted = _arena_empty(arena, "grouped-dst", channel.count)
        np.take(channel.dst, order, out=dst_sorted)
        src_sorted = _arena_empty(arena, "grouped-src", channel.count)
        np.take(channel.src, order, out=src_sorted)
        lengths_sorted = np.diff(channel.offsets)[order]
        grouped_offsets = _arena_empty(arena, "offsets", channel.count + 1)
        grouped_offsets[0] = 0
        np.cumsum(lengths_sorted, out=grouped_offsets[1:])
        total_elements = int(grouped_offsets[-1])
        if total_elements:
            # element_perm[row] = the source row of the grouped element at
            # ``row``: each message's block start is shifted from its staged
            # position to its grouped position, then walked linearly.
            element_perm = np.repeat(
                channel.offsets[:-1][order] - grouped_offsets[:-1], lengths_sorted
            ) + np.arange(total_elements, dtype=np.int64)
            grouped_data = {}
            for name, column in channel.data.items():
                gathered = _arena_empty(arena, f"grouped-col:{name}", total_elements)
                np.take(column, element_perm, out=gathered)
                grouped_data[name] = gathered
        else:
            grouped_data = {name: _EMPTY_INT for name in channel.schema.columns}
    starts = np.flatnonzero(
        np.concatenate(([True], dst_sorted[1:] != dst_sorted[:-1]))
    )
    message_bounds = np.concatenate(
        (starts, np.array([dst_sorted.shape[0]], dtype=np.int64))
    )
    return DeliveredChannel(
        schema=channel.schema,
        receivers=dst_sorted[starts],
        message_bounds=message_bounds,
        src=src_sorted,
        dst=dst_sorted,
        offsets=grouped_offsets,
        data=grouped_data,
    )


def _deliver_channel(slices: Dict[int, InboxSlice], channel: TypedChannel) -> None:
    """Group one typed channel by destination and attach it to each receiver."""
    if channel.count == 0:
        return
    grouped = group_channel(channel)
    for which, receiver in enumerate(grouped.receivers.tolist()):
        inbox = slices.get(receiver)
        if inbox is None:
            inbox = InboxSlice.empty()
            slices[receiver] = inbox
        inbox._typed += ((grouped, which),)


class DeliveredPhase:
    """One direct-exchange phase's typed traffic, grouped lazily per schema.

    Handed to batched phase kernels by
    :meth:`~repro.congest.simulator.CongestSimulator.exchange_phase`.
    Channels are grouped by destination only when :meth:`channel` is first
    asked for them — announcement phases whose traffic no kernel reads
    (A3's ``in_X``/``in_U`` flags, A2's hash descriptors) never pay the
    grouping permutation at all.
    """

    __slots__ = ("report", "_staged", "_grouped", "_arena")

    def __init__(
        self,
        report: PhaseReport,
        channels: Tuple[TypedChannel, ...],
        arena: Optional[PhaseArena] = None,
    ) -> None:
        self.report = report
        self._staged: Dict[str, TypedChannel] = {
            channel.schema.kind: channel for channel in channels
        }
        self._grouped: Dict[str, DeliveredChannel] = {}
        self._arena = arena

    def channel(self, schema: WireSchema | str) -> DeliveredChannel:
        """Return (grouping on first use) the delivered channel for ``schema``.

        Unknown kinds yield an empty channel.
        """
        kind = schema if isinstance(schema, str) else schema.kind
        grouped = self._grouped.get(kind)
        if grouped is not None:
            return grouped
        staged = self._staged.get(kind)
        if staged is None:
            if isinstance(schema, str):
                from .wire import schema_for

                schema = schema_for(schema)
            grouped = DeliveredChannel.empty(schema)
        else:
            grouped = group_channel(staged, self._arena)
        self._grouped[kind] = grouped
        return grouped


def _untyped_slices(traffic: PhaseTraffic) -> Dict[int, InboxSlice]:
    """Group the object-payload block by destination into inbox slices."""
    slices: Dict[int, InboxSlice] = {}
    untyped = int(traffic.payloads.shape[0])
    if untyped:
        dst_block = traffic.dst[:untyped]
        order = np.argsort(dst_block, kind="stable")
        dst_sorted = dst_block[order]
        src_sorted = traffic.src[:untyped][order]
        payload_sorted = traffic.payloads[order]
        start_list, bounds, receivers = _group_starts(dst_sorted)
        for which, start in enumerate(start_list):
            end = bounds[which]
            slices[receivers[which]] = InboxSlice(
                src_sorted[start:end], payload_sorted[start:end]
            )
    return slices


def deliver_traffic(
    contexts: Sequence[Any],
    traffic: PhaseTraffic,
    dirty: Optional[Sequence[Any]] = None,
) -> List[Any]:
    """Replace every context's inbox with this phase's deliveries.

    One stable argsort groups the object-payload records by destination and
    one more groups each typed channel; each receiving context gets an
    :class:`InboxSlice` over zero-copy views (column views attached for the
    typed traffic), and everyone else the shared empty inbox (inboxes never
    carry over between phases).  Works for any context type exposing
    ``_deliver``.

    ``dirty`` is the list of contexts still holding a non-empty inbox from
    the previous phase; when given, only those are reset — O(touched
    nodes), not O(n).  Callers without bookkeeping (``None``) get the
    legacy reset of every context.  Returns the contexts that now hold a
    non-empty inbox, i.e. the ``dirty`` list for the next phase.
    """
    for context in contexts if dirty is None else dirty:
        context._deliver(EMPTY_INBOX)
    if traffic.count == 0:
        return []
    slices = _untyped_slices(traffic)
    for channel in traffic.channels:
        _deliver_channel(slices, channel)
    receiving = []
    for receiver, inbox in slices.items():
        context = contexts[receiver]
        context._deliver(inbox)
        receiving.append(context)
    return receiving


def record_deliveries(metrics: ExecutionMetrics, traffic: PhaseTraffic) -> None:
    """Fold per-node received bits/messages into ``metrics`` in bulk."""
    if traffic.count == 0:
        return
    num_nodes = int(traffic.dst.max()) + 1
    received_msgs = np.bincount(traffic.dst, minlength=num_nodes)
    received_bits = np.bincount(traffic.dst, weights=traffic.bits, minlength=num_nodes)
    metrics.record_deliveries_bulk(
        np.flatnonzero(received_msgs).tolist(),
        received_bits,
        received_msgs,
    )


def max_link_bits(traffic: PhaseTraffic, num_nodes: int) -> int:
    """Return the maximum total bits queued on any directed link.

    Links are encoded as ``src * n + dst`` keys.  When the occupied key
    range is small relative to the message count, one dense ``np.bincount``
    does the whole reduction; otherwise (sparse traffic on a large network,
    where the histogram would dwarf the records) it falls back to
    sort-and-segment, still without any per-message Python work.
    """
    if traffic.count == 0:
        return 0
    keys = traffic.src * np.int64(num_nodes) + traffic.dst
    key_span = int(keys.max()) + 1
    if key_span <= 4 * max(traffic.count, 4096):
        per_link = np.bincount(keys, weights=traffic.bits)
        return int(per_link.max())
    order = np.argsort(keys, kind="stable")
    sorted_bits = traffic.bits[order]
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    per_link = np.add.reduceat(sorted_bits, starts)
    return int(per_link.max())


def spawn_node_rngs(
    num_nodes: int, seed: Optional[int | np.random.Generator]
) -> List[np.random.Generator]:
    """Return one independent, reproducible child generator per node.

    The root generator draws one child seed per node, and node ``v``'s
    generator draws exactly what ``np.random.default_rng(child_seeds[v])``
    would.  The child seeds' SeedSequence mixing runs as one batch
    (:func:`repro.congest.seeding.seed_sequence_states`) instead of one
    ``default_rng`` call per node.
    """
    # Imported here: the seeding module imports numpy.random, which a bare
    # ``import repro`` does not.
    from .seeding import generators_from_states, seed_sequence_states

    root_rng = (
        seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    )
    child_seeds = root_rng.integers(0, 2**63 - 1, size=num_nodes)
    return generators_from_states(seed_sequence_states(child_seeds))


class CongestRuntime:
    """The execution kernel a phase simulator drives.

    Owns the graph, bandwidth policy, metrics, round budget, the message
    plane, and the contexts (built through :meth:`build_contexts` from the
    simulator's context factory).
    """

    __slots__ = (
        "graph",
        "bandwidth",
        "round_limit",
        "metrics",
        "plane",
        "contexts",
        "_dirty",
    )

    def __init__(
        self,
        graph: Graph,
        bandwidth: BandwidthPolicy = DEFAULT_BANDWIDTH,
        round_limit: Optional[int] = None,
    ) -> None:
        if graph.num_nodes < 1:
            raise SimulationError("cannot simulate an empty network")
        self.graph = graph
        self.bandwidth = bandwidth
        self.round_limit = round_limit
        self.metrics = ExecutionMetrics()
        self.plane = MessagePlane(graph.num_nodes)
        self.contexts: List[Any] = []
        # Contexts currently holding a non-empty inbox: the next delivery
        # resets exactly these, so between-phase resets cost O(touched
        # nodes) instead of O(n).
        self._dirty: List[Any] = []

    def build_contexts(
        self,
        seed: Optional[int | np.random.Generator],
        factory: Callable[[NodeId, np.random.Generator], Any],
    ) -> List[Any]:
        """Build one context per node with independent child RNGs."""
        rngs = spawn_node_rngs(self.graph.num_nodes, seed)
        self.contexts = [factory(node, rngs[node]) for node in self.graph.nodes()]
        return self.contexts

    def collect_traffic(self) -> PhaseTraffic:
        """Drain the message plane for this phase."""
        return self.plane.flush()

    def deliver(self, traffic: PhaseTraffic) -> None:
        """Deliver ``traffic`` into per-node inboxes (O(touched) resets)."""
        self._dirty = deliver_traffic(self.contexts, traffic, dirty=self._dirty)

    def deliver_direct(self, traffic: PhaseTraffic) -> Tuple[TypedChannel, ...]:
        """Clear stale inboxes and hand the typed channels back untouched.

        The direct-exchange delivery: no :class:`InboxSlice` dict, no
        per-receiver views — the caller consumes the channels through a
        :class:`DeliveredPhase` (grouping lazily per schema).  Object
        payloads, which the batched kernels never send, still arrive as
        per-node inboxes so ``received()`` keeps working on mixed phases.
        """
        for context in self._dirty:
            context._deliver(EMPTY_INBOX)
        self._dirty = []
        if int(traffic.payloads.shape[0]):
            slices = _untyped_slices(traffic)
            for receiver, inbox in slices.items():
                context = self.contexts[receiver]
                context._deliver(inbox)
                self._dirty.append(context)
        return traffic.channels

    def _record_phase(
        self, name: str, rounds: int, traffic: PhaseTraffic, link_bits: int
    ) -> PhaseReport:
        """Record one phase's cost and per-node delivery tallies."""
        report = PhaseReport(
            name=name,
            rounds=rounds,
            messages=traffic.count,
            bits=traffic.total_bits,
            max_link_bits=link_bits,
        )
        self.metrics.record_phase(report)
        record_deliveries(self.metrics, traffic)
        return report

    def complete_phase(
        self, name: str, rounds: int, traffic: PhaseTraffic, link_bits: int
    ) -> PhaseReport:
        """Record one phase's cost, deliver its traffic, enforce the budget."""
        report = self._record_phase(name, rounds, traffic, link_bits)
        self.deliver(traffic)
        self.enforce_round_limit()
        return report

    def complete_phase_direct(
        self, name: str, rounds: int, traffic: PhaseTraffic, link_bits: int
    ) -> DeliveredPhase:
        """Direct-exchange twin of :meth:`complete_phase`.

        Identical accounting (phase report, delivery tallies, round-budget
        enforcement — in the same order, so budget exhaustion surfaces at
        the same point of the execution), but the typed traffic is returned
        as a :class:`DeliveredPhase` instead of being fanned out into
        per-node inboxes.
        """
        report = self._record_phase(name, rounds, traffic, link_bits)
        channels = self.deliver_direct(traffic)
        self.enforce_round_limit()
        return DeliveredPhase(report, channels, arena=self.plane.arena)

    def enforce_round_limit(self) -> None:
        """Raise when the cumulative round count exceeds the budget."""
        if self.round_limit is not None and self.metrics.total_rounds > self.round_limit:
            raise RoundLimitExceededError(
                f"round budget of {self.round_limit} exceeded "
                f"(now at {self.metrics.total_rounds} rounds)"
            )
