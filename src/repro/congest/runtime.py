"""Execution kernel under the phase-based CONGEST simulators.

:class:`~repro.congest.simulator.CongestSimulator` (and its clique variant)
decides how many rounds a phase costs; this module does the physical work —
seed independent per-node child RNGs, build contexts on demand, accumulate
outgoing messages, fan them out to destination inboxes, account the traffic in
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
  without ever materialising per-message payload objects.  The sizes-only
  path (:meth:`MessagePlane.extend_sizes`) stages traffic no receiver
  reads — flags, landmark neighbourhoods, A3's S sets — as ``(src, dst,
  lengths, bits)`` with no element columns at all: accounted identically,
  never readable.
* :class:`PhaseTraffic` — one phase's drained traffic as flat ``(src, dst,
  bits)`` int64 arrays plus an aligned object array of payloads, and — for
  columnar sends — one :class:`TypedChannel` of flattened element columns
  per schema kind.

Each message form has one reader:

* object payloads are read from inboxes.  :class:`InboxSlice` is a
  delivered inbox as zero-copy views into the phase's destination-sorted
  arrays; the ``(sender, payload)`` pair list is materialized lazily on
  first read, so phases whose inboxes are only partially consumed (BFS
  frontiers, sparse responders) never pay for the rest.
* typed channels are read through :class:`DeliveredPhase`, which hands a
  batched kernel each channel's destination-grouped arrays
  (:class:`DeliveredChannel`: ``dst``-sorted senders, grouped element
  offsets, grouped columns).  Grouping is lazy per schema kind —
  announcement channels nobody reads are never grouped.  Every delivered
  array is an ordinary numpy array that belongs to the caller; no later
  phase recycles or overwrites it.  Typed traffic never reaches an inbox.

:class:`CongestRuntime` ties these together: per-node RNG seeding,
on-demand contexts, metrics recording and round-limit enforcement, and one
phase-completion path (:meth:`CongestRuntime.complete_phase`) that records
a phase, puts its object payloads into inboxes and returns its typed
channels.  Inbox resets between phases are O(touched nodes): the runtime
remembers which contexts currently hold a non-empty inbox and only clears
those.

The simulator stays a thin *policy* layer: it decides how a phase's round
cost is computed from the traffic and never re-implements delivery.
"""

from __future__ import annotations

import itertools
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
#: time a per-node delivery object (:class:`InboxSlice`) is created.  The
#: allocation regression tests use it to prove batched runs build no inbox
#: objects.
_allocation_hook: Optional[Callable[[str], None]] = None


def set_allocation_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or clear, with ``None``) the delivery-allocation hook.

    Testing aid only — the hook must not raise.  Returns nothing; pass the
    previous value back to restore it.
    """
    global _allocation_hook
    _allocation_hook = hook


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
    ``data`` (the flattened structure-of-arrays layout).  A ``sizes_only``
    channel was staged with its lengths and sizes but no element columns
    (``data`` is empty): it is accounted like any other, and its elements
    can never be read.
    """

    schema: WireSchema
    src: np.ndarray
    dst: np.ndarray
    bits: np.ndarray
    offsets: np.ndarray
    data: Dict[str, np.ndarray]
    sizes_only: bool = False

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
    ``channels``, whose payloads exist only as column blocks.
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
    data: Optional[Dict[str, np.ndarray]],
    lengths: Optional[np.ndarray | Sequence[int]],
    bits: Optional[np.ndarray | Sequence[int] | int],
    num_nodes: int,
) -> Optional[TypedChannel]:
    """Validate and assemble one columnar batch into a :class:`TypedChannel`.

    The single staging door shared by :meth:`MessagePlane.extend_columns`,
    :meth:`MessagePlane.extend_sizes` and
    :meth:`~repro.congest.routing.LenzenRouter.route_columns_direct`:
    source broadcasting, offset construction, column-layout checks and schema
    sizing all live here.  ``data=None`` builds a sizes-only channel (no
    element columns).  Returns ``None`` for an empty batch.  The
    derived flat arrays (offsets, broadcast source/length/size fills) are
    fresh numpy arrays; caller-staged contiguous int64 columns pass through
    zero-copy, so the channel may alias the caller's arrays.

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
        src_arr = np.full(count, int(src), dtype=np.int64)
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
        counts = np.full(count, schema.fixed_length, dtype=np.int64)
    else:
        counts = np.ascontiguousarray(lengths, dtype=np.int64)
        if counts.shape[0] != count:
            raise SimulationError(
                f"typed batch has {count} destinations but "
                f"{counts.shape[0]} lengths"
            )
        if counts.shape[0] and int(counts.min()) < 0:
            raise SimulationError("message lengths must be non-negative")
    offsets = np.empty(count + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    columns: Dict[str, np.ndarray] = {}
    if data is not None:
        total_elements = int(offsets[-1])
        if set(data) != set(schema.columns):
            raise SimulationError(
                f"schema {schema.kind!r} expects columns {schema.columns}, "
                f"got {tuple(sorted(data))}"
            )
        for name in schema.columns:
            column = np.ascontiguousarray(data[name], dtype=np.int64)
            if column.shape[0] != total_elements:
                raise SimulationError(
                    f"column {name!r} has {column.shape[0]} rows; offsets "
                    f"imply {total_elements}"
                )
            columns[name] = column
    if bits is None:
        sizes = schema.bit_size(counts, num_nodes)
    elif np.ndim(bits) == 0:
        sizes = np.full(count, int(bits), dtype=np.int64)
    else:
        sizes = np.ascontiguousarray(bits, dtype=np.int64)
        if sizes.shape[0] != count:
            raise SimulationError(
                f"typed batch has {count} destinations but "
                f"{sizes.shape[0]} sizes"
            )
    return TypedChannel(
        schema=schema,
        src=src_arr,
        dst=dst,
        bits=sizes,
        offsets=offsets,
        data=columns,
        sizes_only=data is None,
    )


def _merge_typed_segments(segments: List[TypedChannel]) -> TypedChannel:
    """Concatenate one kind's staged columnar segments into a channel."""
    if len(segments) == 1:
        return segments[0]
    schema = segments[0].schema
    src = np.concatenate([segment.src for segment in segments])
    dst = np.concatenate([segment.dst for segment in segments])
    bits = np.concatenate([segment.bits for segment in segments])
    # Per-segment offsets are rebased onto the concatenated element rows.
    lengths = np.concatenate([segment.lengths for segment in segments])
    offsets = np.empty(lengths.shape[0] + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(lengths, out=offsets[1:])
    sizes_only = segments[0].sizes_only
    data = {
        name: np.concatenate([segment.data[name] for segment in segments])
        for name in segments[0].data
    }
    return TypedChannel(
        schema=schema,
        src=src,
        dst=dst,
        bits=bits,
        offsets=offsets,
        data=data,
        sizes_only=sizes_only,
    )


class InboxSlice:
    """One node's delivered inbox, backed by views into the phase arrays.

    Materializing the ``(sender, payload)`` pair list costs one C-level
    ``zip`` per inbox and happens only when the node program actually reads
    its messages.  Only object payloads arrive here; typed traffic is read
    through :class:`DeliveredPhase`.
    """

    __slots__ = ("_senders", "_payloads", "_pairs")

    def __init__(self, senders: np.ndarray, payloads: np.ndarray) -> None:
        if _allocation_hook is not None:
            _allocation_hook("InboxSlice")
        self._senders = senders
        self._payloads = payloads
        self._pairs: Optional[List[Tuple[int, Any]]] = None

    def pairs(self) -> List[Tuple[int, Any]]:
        """Return (and cache) the ``(sender, payload)`` list."""
        if self._pairs is None:
            self._pairs = list(zip(self._senders.tolist(), self._payloads.tolist()))
        return self._pairs

    def __len__(self) -> int:
        return int(self._senders.shape[0])

    def __iter__(self):
        return iter(self.pairs())


#: What a context's ``_deliver`` may receive: the shared empty inbox or a
#: lazy slice.
Inbox = Union[Tuple[Tuple[int, Any], ...], InboxSlice]


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
        self._stage_channel(
            build_typed_channel(
                schema, src, destinations, data, lengths, bits, self.num_nodes
            )
        )

    def extend_sizes(
        self,
        schema: WireSchema,
        src: NodeId | np.ndarray,
        destinations: np.ndarray | Sequence[NodeId],
        lengths: Optional[np.ndarray | Sequence[int]] = None,
        bits: Optional[np.ndarray | Sequence[int] | int] = None,
    ) -> None:
        """Queue a typed batch by its sizes alone, with no element columns.

        For traffic no receiver reads: the messages, their element counts
        and their on-wire sizes are exactly those
        :meth:`extend_columns` would stage for the same batch, so every
        accounting reduction is unchanged, but no element is ever built.
        The kind's delivered channel cannot be read
        (:meth:`DeliveredPhase.channel` raises
        :class:`~repro.errors.SimulationError`).

        Raises
        ------
        SimulationError
            When array lengths disagree, or when the same kind is staged
            with columns in the same phase.
        """
        self._stage_channel(
            build_typed_channel(
                schema, src, destinations, None, lengths, bits, self.num_nodes
            )
        )

    def _stage_channel(self, channel: Optional[TypedChannel]) -> None:
        """Append one assembled batch to its kind's segments."""
        if channel is None:
            return
        segments = self._typed.setdefault(channel.schema.kind, [])
        if segments and segments[0].sizes_only != channel.sizes_only:
            raise SimulationError(
                f"kind {channel.schema.kind!r} is staged both with and "
                "without element columns in one phase"
            )
        segments.append(channel)
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
            _merge_typed_segments(segments) for segments in self._typed.values()
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
                src = np.concatenate([src] + [channel.src for channel in channels])
                dst = np.concatenate([dst] + [channel.dst for channel in channels])
                bits = np.concatenate([bits] + [channel.bits for channel in channels])
        if bits.shape[0] and int(bits.min()) < 0:
            raise SimulationError(
                f"message size must be non-negative, got {int(bits.min())}"
            )
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

    The only reader of typed traffic: batched phase kernels read these
    arrays in place.  Message ``i`` (rows grouped so ``dst`` is ascending,
    ties in staged order) was sent by ``src[i]`` and owns element rows
    ``offsets[i]:offsets[i+1]`` of every column in ``data``.  The messages
    of ``receivers[g]`` are rows ``message_bounds[g]:message_bounds[g+1]``.
    A ``sizes_only`` channel has no columns, and its elements cannot be
    read.
    """

    schema: WireSchema
    receivers: np.ndarray
    message_bounds: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    offsets: np.ndarray
    data: Dict[str, np.ndarray]
    sizes_only: bool = False

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


def group_channel(channel: TypedChannel) -> DeliveredChannel:
    """Reorder one typed channel into destination groups.

    The flattened element rows are gathered once into destination order
    (one vectorized permutation); when the staged destinations are already
    sorted (single-receiver batches, pre-grouped routing instances) the
    staged arrays are reused as-is with no copies.  Either way the returned
    arrays belong to the caller: the plane never recycles or overwrites
    them, so a kernel may keep a delivered channel past later phases.
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
        dst_sorted = channel.dst[order]
        src_sorted = channel.src[order]
        lengths_sorted = np.diff(channel.offsets)[order]
        grouped_offsets = np.empty(channel.count + 1, dtype=np.int64)
        grouped_offsets[0] = 0
        np.cumsum(lengths_sorted, out=grouped_offsets[1:])
        total_elements = int(grouped_offsets[-1])
        if channel.sizes_only:
            grouped_data = {}
        elif total_elements:
            # element_perm[row] = the source row of the grouped element at
            # ``row``: each message's block start is shifted from its staged
            # position to its grouped position, then walked linearly.
            element_perm = np.repeat(
                channel.offsets[:-1][order] - grouped_offsets[:-1], lengths_sorted
            ) + np.arange(total_elements, dtype=np.int64)
            grouped_data = {
                name: column[element_perm] for name, column in channel.data.items()
            }
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
        sizes_only=channel.sizes_only,
    )


class DeliveredPhase:
    """One completed phase's report and typed traffic, grouped lazily per schema.

    Returned by :meth:`CongestRuntime.complete_phase` and handed to batched
    phase kernels by
    :meth:`~repro.congest.simulator.CongestSimulator.exchange_phase`.
    Channels are grouped by destination only when :meth:`channel` is first
    asked for them — a phase whose traffic no kernel reads never pays the
    grouping permutation at all.
    """

    __slots__ = ("report", "_staged", "_grouped")

    def __init__(
        self, report: PhaseReport, channels: Tuple[TypedChannel, ...]
    ) -> None:
        self.report = report
        self._staged: Dict[str, TypedChannel] = {
            channel.schema.kind: channel for channel in channels
        }
        self._grouped: Dict[str, DeliveredChannel] = {}

    def channel(self, schema: WireSchema) -> DeliveredChannel:
        """Return (grouping on first use) the delivered channel for ``schema``.

        A kind nobody staged this phase yields an empty channel.

        Raises
        ------
        SimulationError
            When the kind was staged sizes-only
            (:meth:`MessagePlane.extend_sizes`).
        """
        kind = schema.kind
        grouped = self._grouped.get(kind)
        if grouped is not None:
            return grouped
        staged = self._staged.get(kind)
        if staged is None:
            grouped = DeliveredChannel.empty(schema)
        elif staged.sizes_only:
            raise SimulationError(
                f"kind {kind!r} was staged by its sizes only; it has no "
                "elements to read"
            )
        else:
            grouped = group_channel(staged)
        self._grouped[kind] = grouped
        return grouped


def record_deliveries(metrics: ExecutionMetrics, traffic: PhaseTraffic) -> None:
    """Fold per-node received bits/messages into ``metrics`` in bulk."""
    if traffic.count == 0:
        return
    received_msgs = np.bincount(traffic.dst)
    received_bits = np.bincount(traffic.dst, weights=traffic.bits)
    metrics.record_deliveries_bulk(received_bits.astype(np.int64), received_msgs)


def max_link_bits(traffic: PhaseTraffic, num_nodes: int) -> int:
    """Return the maximum total bits queued on any directed link."""
    return _link_bits_reduction(traffic, num_nodes)[1]


def _link_bits_reduction(traffic: PhaseTraffic, num_nodes: int) -> Tuple[str, int]:
    """``(reduction, max link bits)`` of :func:`max_link_bits`.

    Links are encoded as ``src * n + dst`` keys (src-major) or ``dst * n +
    src`` (dst-major).  The batched kernels stage most phases in CSR
    order, so the keys often already ascend in one of the two orders:
    strictly ascending keys mean every link carries one message
    (``"one-per-link"``: the largest message), and ascending keys with
    repeats are segmented where they are (``"segment"``).  The order is
    tested on the endpoint columns, neighbour against neighbour, so the
    test allocates byte masks and never a key column.  Otherwise, when
    the occupied src-major range is small relative to the message count,
    one dense ``np.bincount`` does the whole reduction (``"histogram"``);
    on sparse traffic over a large network, where the histogram would
    dwarf the records, the keys are sorted and segmented (``"sort"``).  No
    branch does per-message Python work.
    """
    if traffic.count == 0:
        return "one-per-link", 0
    n = np.int64(num_nodes)
    for major, minor in ((traffic.src, traffic.dst), (traffic.dst, traffic.src)):
        if not (major[1:] >= major[:-1]).all():
            continue
        tied = major[1:] == major[:-1]
        if (tied & (minor[1:] < minor[:-1])).any():
            continue
        if not (tied & (minor[1:] == minor[:-1])).any():
            return "one-per-link", int(traffic.bits.max())
        return "segment", _segment_max(major * n + minor, traffic.bits)
    keys = traffic.src * n + traffic.dst
    key_span = int(keys.max()) + 1
    if key_span <= 4 * max(traffic.count, 4096):
        return "histogram", int(np.bincount(keys, weights=traffic.bits).max())
    order = np.argsort(keys, kind="stable")
    return "sort", _segment_max(keys[order], traffic.bits[order])


def _segment_max(sorted_keys: np.ndarray, bits: np.ndarray) -> int:
    """The largest per-key bit total of ascending ``sorted_keys``."""
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )
    return int(np.add.reduceat(bits, starts).max())


def spawn_child_seeds(
    num_nodes: int, seed: Optional[int | np.random.Generator]
) -> np.ndarray:
    """The root generator's one child seed per node: the only draw it makes."""
    root_rng = (
        seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    )
    return root_rng.integers(0, 2**63 - 1, size=num_nodes)


def child_generators(child_seeds: np.ndarray) -> List[np.random.Generator]:
    """One generator per child seed: node ``v``'s draws exactly what
    ``np.random.default_rng(child_seeds[v])`` would.

    The child seeds' SeedSequence mixing runs as one batch
    (:func:`repro.congest.seeding.seed_sequence_states`) instead of one
    ``default_rng`` call per node.
    """
    # Imported here: the seeding module imports numpy.random, which a bare
    # ``import repro`` does not.
    from . import seeding

    return seeding.generators_from_states(seeding.seed_sequence_states(child_seeds))


class CongestRuntime:
    """The execution kernel a phase simulator drives.

    Owns the graph, bandwidth policy, metrics, round budget, the message
    plane, the per-node generators (:meth:`seed_nodes`) and the contexts.
    The generators are built only when something first reads
    :attr:`node_rngs`, and the contexts when something first reads
    :attr:`contexts`.
    """

    __slots__ = (
        "graph",
        "bandwidth",
        "round_limit",
        "metrics",
        "plane",
        "_child_seeds",
        "_node_rngs",
        "_factory",
        "_contexts",
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
        self._child_seeds: Optional[np.ndarray] = None
        self._node_rngs: Optional[List[np.random.Generator]] = []
        self._factory: Optional[Callable[[NodeId, np.random.Generator], Any]] = None
        self._contexts: Optional[List[Any]] = None
        # Contexts currently holding a non-empty inbox: the next delivery
        # resets exactly these, so between-phase resets cost O(touched
        # nodes) instead of O(n).
        self._dirty: List[Any] = []

    def seed_nodes(
        self,
        seed: Optional[int | np.random.Generator],
        factory: Callable[[NodeId, np.random.Generator], Any],
    ) -> None:
        """Draw one child seed per node; ``factory(node, rng)`` builds contexts.

        The root generator draws the child seeds here, so passes that share
        one root generator draw the same streams whether or not an earlier
        pass read its generators.  The generators themselves are built on
        the first read of :attr:`node_rngs` (a kernel that draws nothing,
        such as naive's batched one, builds none).  A context gets the very
        generator in :attr:`node_rngs`, so its stream continues where a
        kernel left it.
        """
        self._child_seeds = spawn_child_seeds(self.graph.num_nodes, seed)
        self._node_rngs = None
        self._factory = factory

    @property
    def node_rngs(self) -> List[np.random.Generator]:
        """Each node's private generator, built on first read."""
        if self._node_rngs is None:
            self._node_rngs = child_generators(self._child_seeds)
            self._child_seeds = None
        return self._node_rngs

    @property
    def contexts(self) -> List[Any]:
        """The per-node contexts, built on first read."""
        if self._contexts is None:
            self._contexts = list(map(self._factory, itertools.count(), self.node_rngs))
        return self._contexts

    def collect_traffic(self) -> PhaseTraffic:
        """Drain the message plane for this phase."""
        return self.plane.flush()

    def deliver(self, traffic: PhaseTraffic) -> None:
        """Put ``traffic``'s object payloads into per-node inboxes.

        Inboxes never carry over between phases: the contexts still holding
        the previous phase's inbox get the shared empty one — O(touched
        nodes), not O(n).  One stable argsort groups the object-payload
        records by destination, and each receiving context gets an
        :class:`InboxSlice` over zero-copy views.  Typed channels are left
        alone; they are read through :class:`DeliveredPhase`.
        """
        for context in self._dirty:
            context._deliver(EMPTY_INBOX)
        self._dirty = []
        untyped = int(traffic.payloads.shape[0])
        if not untyped:
            return  # touches no context, so builds none
        dst_block = traffic.dst[:untyped]
        order = np.argsort(dst_block, kind="stable")
        dst_sorted = dst_block[order]
        src_sorted = traffic.src[:untyped][order]
        payload_sorted = traffic.payloads[order]
        contexts = self.contexts
        start_list, bounds, receivers = _group_starts(dst_sorted)
        for which, start in enumerate(start_list):
            end = bounds[which]
            context = contexts[receivers[which]]
            context._deliver(
                InboxSlice(src_sorted[start:end], payload_sorted[start:end])
            )
            self._dirty.append(context)

    def complete_phase(
        self, name: str, rounds: int, traffic: PhaseTraffic, link_bits: int
    ) -> DeliveredPhase:
        """Record one phase, deliver its traffic and enforce the budget.

        The phase report and per-node delivery tallies are recorded first,
        so an exhausted budget still counts the phase that exhausted it.
        Object payloads go into inboxes (:meth:`deliver`); the typed
        channels come back in the :class:`DeliveredPhase`.
        """
        report = PhaseReport(
            name=name,
            rounds=rounds,
            messages=traffic.count,
            bits=traffic.total_bits,
            max_link_bits=link_bits,
        )
        self.metrics.record_phase(report)
        record_deliveries(self.metrics, traffic)
        self.deliver(traffic)
        self.enforce_round_limit()
        return DeliveredPhase(report, traffic.channels)

    def enforce_round_limit(self) -> None:
        """Raise when the cumulative round count exceeds the budget."""
        if self.round_limit is not None and self.metrics.total_rounds > self.round_limit:
            raise RoundLimitExceededError(
                f"round budget of {self.round_limit} exceeded "
                f"(now at {self.metrics.total_rounds} rounds)"
            )
