"""The local view a node program is allowed to use.

A central modelling rule of the CONGEST model (Section 2 of the paper) is
that initially every node knows only *its own incident edges* and the value
of ``n``, plus private randomness.  The :class:`NodeContext` object is the
only handle node programs receive; it exposes exactly that local knowledge,
an outgoing ``send`` primitive restricted to the communication topology, and
whatever messages were delivered in the previous phase.  Node programs never
touch the global :class:`~repro.graphs.graph.Graph`.

Sends are accumulated in the runtime kernel's shared
:class:`~repro.congest.runtime.MessagePlane`.  Besides the scalar
:meth:`NodeContext.send`, the context offers two batched fast paths —
:meth:`NodeContext.bulk_send` and :meth:`NodeContext.broadcast_bits` — that
enqueue thousands of messages with O(1) Python overhead; algorithms with
heavy fan-out (A2's edge shipping, the clique router) use them.

Output goes to the network's :class:`OutputTable`, which the simulator owns
and every context shares: one table of run-encoded key chunks that the
batched kernels append to directly, without any context, plus deferred
sources whose per-node chunks are listed only when something reads them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import SimulationError, TopologyError
from ..types import (
    TRIANGLE_KEY_MAX_NODES,
    NodeId,
    Triangle,
    decode_triangle_set,
    make_triangle,
    triangle_key,
    triangle_keys,
)
from .runtime import (
    EMPTY_INBOX,
    Inbox,
    MessagePlane,
    repeated_payload,
)

#: Scalar output reports an :class:`OutputTable` buffers as Python ints
#: before flushing them into one int64 chunk, which bounds the lists a heavy
#: scalar reporter (the naive reference closure reports each triangle twice
#: per node) keeps alive.
OUTPUT_FLUSH_KEYS = 1024


def _sorted_row(nodes: np.ndarray | Iterable[NodeId]) -> np.ndarray:
    """Return node identifiers as a sorted int64 row.

    An ndarray is taken to be such a row already and is kept as is, so a
    CSR view's neighbour row is shared, not copied.
    """
    if isinstance(nodes, np.ndarray):
        return nodes
    return np.array(sorted(set(nodes)), dtype=np.int64)


class OutputTable:
    """A network's output tuple ``(T_0, ..., T_{n-1})`` as int64 key chunks.

    Every output door writes here: the batched kernels through
    :meth:`emit_grouped`, :class:`NodeContext`'s ``output_*`` methods through
    :meth:`emit` and :meth:`emit_scalar`.  A chunk is ``(keys, run_nodes,
    run_starts)``: node ``run_nodes[r]`` output the keys from
    ``run_starts[r]`` to the next run's start.  Receivers are stored as runs,
    never as a per-key column.  Keys may repeat, within and across nodes;
    readers deduplicate, and a node's set is grouped out of the chunks only
    when something reads it (:meth:`node_keys`).

    A kernel whose per-node output is a pure function of state it already
    holds may hand the table a *deferred source* instead of chunks
    (:meth:`defer`).  A source offers ``key_blocks()``, an iterable of key
    arrays that together hold the distinct keys of its whole output (not
    deduplicated, so a union reader sorts them once with everything else),
    and ``chunks()``, its per-node chunks, listed on the first call and
    kept.  Union readers take the source's key blocks; only a per-node
    reader (:attr:`chunks` and everything built on it) makes a source
    list its chunks.
    """

    __slots__ = (
        "num_nodes",
        "_chunks",
        "_sources",
        "_scalar_nodes",
        "_scalar_keys",
        "_pairs",
    )

    def __init__(
        self, num_nodes: int, chunks: Iterable[Tuple] = (), sources: Iterable = ()
    ) -> None:
        #: Network size ``n`` of the key encoding.
        self.num_nodes = num_nodes
        self._chunks = list(chunks)
        # Deferred sources, in the table's key space.
        self._sources = list(sources)
        # Scalar reports wait here, one (node, key) pair per report.
        self._scalar_nodes: List[int] = []
        self._scalar_keys: List[int] = []
        # Sorted distinct (node, key) reports, built on the first per-node read.
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def emit_grouped(self, receivers: np.ndarray, keys: np.ndarray) -> None:
        """Credit ``keys[i]`` to node ``receivers[i]`` (consecutive repeats form one run)."""
        if keys.shape[0] == 0:
            return
        starts = np.flatnonzero(
            np.concatenate(([True], receivers[1:] != receivers[:-1]))
        )
        self._chunks.append((keys, receivers[starts], starts))
        self._pairs = None

    def emit(self, node: NodeId, keys: np.ndarray) -> None:
        """Credit every key of ``keys`` to ``node`` (a one-run chunk)."""
        if keys.shape[0]:
            run = np.array([node], dtype=np.int64)
            self._chunks.append((keys, run, np.zeros(1, dtype=np.int64)))
            self._pairs = None

    def emit_scalar(self, node: NodeId, key: int) -> None:
        """Credit one key to ``node``; buffered, flushed every OUTPUT_FLUSH_KEYS."""
        self._scalar_nodes.append(node)
        self._scalar_keys.append(key)
        self._pairs = None
        if len(self._scalar_keys) >= OUTPUT_FLUSH_KEYS:
            self._flush_scalars()

    def _flush_scalars(self) -> None:
        nodes = np.array(self._scalar_nodes, dtype=np.int64)
        keys = np.array(self._scalar_keys, dtype=np.int64)
        self._scalar_nodes, self._scalar_keys = [], []
        self.emit_grouped(nodes, keys)

    def defer(self, source: Any) -> None:
        """Credit a deferred source's output (see the class docstring)."""
        self._sources.append(source)
        self._pairs = None

    @property
    def raw_chunks(self) -> List[Tuple[np.ndarray, ...]]:
        """The chunks written directly, buffered scalar reports flushed first."""
        if self._scalar_keys:
            self._flush_scalars()
        return self._chunks

    @property
    def sources(self) -> List[Any]:
        """The deferred sources, none of them listed by this read."""
        return self._sources

    @property
    def chunks(self) -> List[Tuple[np.ndarray, ...]]:
        """Every chunk: the raw ones, then each deferred source's, listed."""
        if not self._sources:
            return self.raw_chunks
        return self.raw_chunks + [
            chunk for source in self._sources for chunk in source.chunks()
        ]

    def report_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the distinct ``(node, key)`` reports, sorted by node then key.

        Every run's node is repeated over its keys for one lexicographic
        sort, kept until the next write, so per-node reads cost one binary
        search each.
        """
        if self._pairs is None:
            pieces = [(np.empty(0, dtype=np.int64),) * 3] + self.chunks
            keys = np.concatenate([keys for keys, _, _ in pieces])
            nodes = np.concatenate(
                [
                    np.repeat(runs, np.diff(starts, append=chunk.shape[0]))
                    for chunk, runs, starts in pieces
                ]
            )
            order = np.lexsort((keys, nodes))
            nodes, keys = nodes[order], keys[order]
            fresh = np.ones(keys.shape[0], dtype=bool)
            fresh[1:] = (keys[1:] != keys[:-1]) | (nodes[1:] != nodes[:-1])
            self._pairs = (nodes[fresh], keys[fresh])
        return self._pairs

    def node_keys(self, node: NodeId) -> np.ndarray:
        """Return ``T_node`` as a sorted, deduplicated int64 key array."""
        nodes, keys = self.report_pairs()
        low, high = np.searchsorted(nodes, [node, node + 1])
        return keys[low:high]

    def node_output(self, node: NodeId) -> frozenset[Triangle]:
        """Return ``T_node`` as canonical triples, decoded on every call."""
        return decode_triangle_set(self.node_keys(node), self.num_nodes)


class NodeContext:
    """The state and capabilities of one node in a simulated execution.

    Instances are created by the simulator; algorithms interact with them
    through the documented methods and the free-form :attr:`state` dict.
    """

    __slots__ = (
        "node_id",
        "num_nodes",
        "rng",
        "state",
        "_neighbor_array",
        "_neighbor_set",
        "_comm_targets",
        "_target_set",
        "_plane",
        "_inbox",
        "_output",
    )

    def __init__(
        self,
        node_id: NodeId,
        num_nodes: int,
        neighbors: np.ndarray | Iterable[NodeId],
        comm_targets: Optional[np.ndarray | Iterable[NodeId]],
        rng: np.random.Generator,
        plane: MessagePlane,
        output: Optional[OutputTable] = None,
    ) -> None:
        #: This node's identifier (``0 .. n-1``).
        self.node_id = node_id
        #: The number of nodes ``n`` (globally known, per the model).
        self.num_nodes = num_nodes
        #: Private randomness for this node.
        self.rng = rng
        #: Free-form per-node algorithm state.
        self.state: Dict[str, Any] = {}
        # The node's neighbours in the input graph as a sorted int64 row.
        # Simulators hand in the CSR view's immutable row (zero-copy); the
        # frozenset behind ``neighbors`` is built from it on first read, so
        # the batched kernels, which never read it, never pay for it.
        self._neighbor_array: np.ndarray = _sorted_row(neighbors)
        self._neighbor_set: Optional[frozenset[NodeId]] = None
        # Nodes this node may send to, as a sorted int64 row: the neighbour
        # row itself in the CONGEST model (the simulator passes the same
        # array for both), all other nodes in the CONGEST clique model.
        # ``None`` encodes the clique case without materialising n-1
        # identifiers per node; ``send``/``bulk_send`` then range-check.
        self._comm_targets: Optional[np.ndarray] = (
            None if comm_targets is None else _sorted_row(comm_targets)
        )
        # ``communication_targets`` as a frozenset, built on first read.
        self._target_set: Optional[frozenset[NodeId]] = None
        self._plane = plane
        self._inbox: Inbox = EMPTY_INBOX
        # The network's output table (a private one for a context built
        # alone); tuples are only built if someone reads ``output``.
        self._output = output if output is not None else OutputTable(num_nodes)

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> frozenset[NodeId]:
        """The node's neighbours in the *input graph* ``G``.

        Its initial knowledge of the topology; built from the sorted
        neighbour row on first read.
        """
        if self._neighbor_set is None:
            self._neighbor_set = frozenset(self._neighbor_array.tolist())
        return self._neighbor_set

    @property
    def degree(self) -> int:
        """The node's degree in the input graph."""
        return int(self._neighbor_array.shape[0])

    def sorted_neighbors(self) -> List[NodeId]:
        """Return the node's neighbours in increasing identifier order."""
        return self._neighbor_array.tolist()

    def can_send_to(self, destination: NodeId) -> bool:
        """Return ``True`` when the communication topology has a link to ``destination``."""
        if self._comm_targets is None:
            return 0 <= destination < self.num_nodes and destination != self.node_id
        return destination in self.communication_targets

    @property
    def communication_targets(self) -> frozenset[NodeId]:
        """All nodes this node may address directly (model dependent).

        Built (and cached) on first read; in the CONGEST model it is the
        ``neighbors`` set itself.  On the clique it lives in a field
        separate from the ``None`` sentinel, so reading it never disables
        the O(1) clique range-check fast path in ``send``/``bulk_send``.
        """
        if self._target_set is None:
            if self._comm_targets is None:
                self._target_set = frozenset(
                    other for other in range(self.num_nodes) if other != self.node_id
                )
            elif self._comm_targets is self._neighbor_array:
                self._target_set = self.neighbors
            else:
                self._target_set = frozenset(self._comm_targets.tolist())
        return self._target_set

    # ------------------------------------------------------------------
    # communication
    # ------------------------------------------------------------------
    def send(self, destination: NodeId, payload: Any, bits: Optional[int] = None) -> None:
        """Queue ``payload`` for delivery to ``destination`` in the current phase.

        Parameters
        ----------
        destination:
            The receiving node.  Must be reachable in the communication
            topology (a graph neighbour in the CONGEST model; any other node
            in the clique model).
        payload:
            The message content.  Any Python object; the default bit size is
            computed by :func:`repro.congest.wire.default_bit_size`.
        bits:
            Optional explicit on-wire size, overriding the default.

        Raises
        ------
        TopologyError
            If ``destination`` is not reachable from this node.
        """
        if destination == self.node_id:
            raise TopologyError(f"node {self.node_id} cannot send to itself")
        if not self.can_send_to(destination):
            raise TopologyError(
                f"node {self.node_id} has no communication link to {destination}"
            )
        self._plane.append(self.node_id, destination, payload, bits)

    def bulk_send(
        self,
        destinations: Sequence[NodeId] | np.ndarray,
        payloads: Sequence[Any],
        bits: int | Sequence[int] | np.ndarray,
    ) -> None:
        """Queue one message per destination with a single batched operation.

        The fast path for fan-out-heavy steps: topology validation is
        vectorized and the records land in the message plane as one numpy
        chunk, so enqueueing k messages costs O(1) Python-level operations
        instead of k ``send`` calls.

        Parameters
        ----------
        destinations:
            The receiving nodes (one message each; duplicates allowed, they
            queue multiple messages on the same link).
        payloads:
            One payload per destination (must match ``destinations`` in
            length).
        bits:
            Explicit on-wire sizes — a single int applied to every message,
            or one size per message.  The bulk path requires explicit sizes;
            per-payload default sizing would reintroduce the per-message
            Python loop this method exists to avoid.

        Raises
        ------
        TopologyError
            If any destination is this node itself or unreachable.
        SimulationError
            If lengths disagree.
        """
        # Copy the caller's arrays (including an object-dtype payload
        # array): the plane holds these until the phase runs, so later
        # mutation must not alter (or un-validate) queued messages.
        dst = np.array(destinations, dtype=np.int64)
        if isinstance(payloads, np.ndarray):
            payloads = payloads.copy()
        if dst.ndim != 1:
            raise SimulationError("bulk_send destinations must be one-dimensional")
        count = int(dst.shape[0])
        if count == 0:
            return
        if len(payloads) != count:
            raise SimulationError(
                f"bulk_send got {count} destinations but {len(payloads)} payloads"
            )
        if np.ndim(bits) == 0:
            sizes = np.full(count, int(bits), dtype=np.int64)
        else:
            sizes = np.array(bits, dtype=np.int64)
            if sizes.shape[0] != count:
                raise SimulationError(
                    f"bulk_send got {count} destinations but {sizes.shape[0]} sizes"
                )
        if (dst == self.node_id).any():
            raise TopologyError(f"node {self.node_id} cannot send to itself")
        if self._comm_targets is None:
            # Clique: every node except self is reachable; a range check is
            # all the validation needed.
            if dst.min() < 0 or dst.max() >= self.num_nodes:
                bad = next(
                    int(d) for d in dst.tolist() if d < 0 or d >= self.num_nodes
                )
                raise TopologyError(
                    f"node {self.node_id} has no communication link to {bad}"
                )
        else:
            reachable = np.isin(dst, self._comm_targets)
            if not reachable.all():
                bad = int(dst[np.flatnonzero(~reachable)[0]])
                raise TopologyError(
                    f"node {self.node_id} has no communication link to {bad}"
                )
        self._plane.extend(self.node_id, dst, payloads, sizes)

    def broadcast(self, payload: Any, bits: Optional[int] = None) -> None:
        """Queue ``payload`` for delivery to every neighbour in the input graph.

        In the CONGEST model a "broadcast" is simply the same message sent on
        each incident edge; it is charged per edge accordingly.
        """
        if bits is not None:
            self.broadcast_bits(payload, bits)
            return
        for neighbor in self.neighbors:
            self.send(neighbor, payload, bits)

    def broadcast_bits(self, payload: Any, bits: int) -> None:
        """Fast-path broadcast: one payload of known size to every neighbour.

        Equivalent to ``broadcast(payload, bits)`` but enqueues the whole
        neighbourhood as one batched chunk.
        """
        neighbors = self._neighbor_array
        count = int(neighbors.shape[0])
        if count == 0:
            return
        self._plane.extend(
            self.node_id,
            neighbors,
            repeated_payload(payload, count),
            np.full(count, int(bits), dtype=np.int64),
        )

    def received(self) -> List[Tuple[NodeId, Any]]:
        """Return the ``(sender, payload)`` pairs delivered in the last phase."""
        return list(self._inbox)

    def received_from(self, sender: NodeId) -> List[Any]:
        """Return the payloads delivered by ``sender`` in the last phase."""
        return [
            payload
            for source, payload in self._inbox
            if source == sender
        ]

    def received_senders(self) -> Set[NodeId]:
        """Return the set of nodes that delivered something in the last phase."""
        return {source for source, _ in self._inbox}

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def output_triangle(self, a: NodeId, b: NodeId, c: NodeId) -> None:
        """Add the triple ``{a, b, c}`` to this node's output set ``T_i``.

        Raises :class:`SimulationError` when ``n`` is too large for int64
        triangle keys.
        """
        self._require_keyable()
        self._output.emit_scalar(
            self.node_id, triangle_key(*make_triangle(a, b, c), self.num_nodes)
        )

    def output_triangles(
        self, a: np.ndarray, b: np.ndarray, c: np.ndarray, canonical: bool = False
    ) -> None:
        """Bulk variant of :meth:`output_triangle` over vertex arrays.

        Canonicalises all triples with one vectorized sort (skipped when the
        caller passes ``canonical=True`` for rows already sorted ``a < b <
        c``, as the triangle oracle produces) and accumulates them as int64
        triangle keys on the columnar output plane — no per-triple Python
        tuples until someone reads :attr:`output`.

        Raises
        ------
        SimulationError
            If any triple has fewer than three distinct vertices, or the
            network is too large for int64 triangle keys.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if a.shape[0] == 0:
            return
        self._require_keyable()
        if not canonical:
            stacked = np.stack((a, b, c), axis=1)
            stacked.sort(axis=1)
            a, b, c = stacked[:, 0], stacked[:, 1], stacked[:, 2]
        if ((a >= b) | (b >= c)).any():
            raise SimulationError("a triangle must contain three distinct vertices")
        self._output.emit(self.node_id, triangle_keys(a, b, c, self.num_nodes))

    def _require_keyable(self) -> None:
        if self.num_nodes > TRIANGLE_KEY_MAX_NODES:
            raise SimulationError(
                f"cannot store triangle output for n = {self.num_nodes}: int64 "
                f"triangle keys cover at most {TRIANGLE_KEY_MAX_NODES} nodes"
            )

    @property
    def output(self) -> frozenset[Triangle]:
        """The node's current output set ``T_i`` (canonicalised triples).

        Decoded from the keys on every read; the node keeps no tuple set.
        """
        return self._output.node_output(self.node_id)

    # ------------------------------------------------------------------
    # simulator-facing internals
    # ------------------------------------------------------------------
    def _deliver(self, messages: Inbox) -> None:
        self._inbox = messages

    def __repr__(self) -> str:
        return (
            f"NodeContext(node_id={self.node_id}, degree={self.degree}, "
            f"outputs={self._output.node_keys(self.node_id).shape[0]})"
        )
