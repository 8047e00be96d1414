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
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import SimulationError, TopologyError
from ..types import (
    TRIANGLE_KEY_MAX_NODES,
    NodeId,
    Triangle,
    decode_triangle_keys,
    make_triangle,
    sorted_unique,
    triangle_keys,
)
from .runtime import (
    EMPTY_INBOX,
    Inbox,
    MessagePlane,
    TypedInboxView,
    inbox_columns,
    inbox_pairs,
    repeated_payload,
)
from .wire import WireSchema


def emit_grouped_keys(
    contexts: Sequence["NodeContext"], receivers: np.ndarray, keys: np.ndarray
) -> None:
    """Append triangle keys to their receiving contexts, one run at a time.

    ``receivers`` must be non-decreasing (the natural order of
    destination-grouped channel data); ``keys[i]`` is credited to node
    ``receivers[i]``.  The shared emission tail of every fused
    direct-exchange receiver: per receiver it costs one
    :meth:`NodeContext.output_triangle_keys` append.
    """
    if receivers.shape[0] == 0:
        return
    starts = np.flatnonzero(
        np.concatenate(([True], receivers[1:] != receivers[:-1]))
    ).tolist()
    bounds = starts[1:] + [int(receivers.shape[0])]
    for which, start in enumerate(starts):
        contexts[int(receivers[start])].output_triangle_keys(
            keys[start : bounds[which]]
        )


class NodeContext:
    """The state and capabilities of one node in a simulated execution.

    Instances are created by the simulator; algorithms interact with them
    through the documented methods and the free-form :attr:`state` dict.
    """

    __slots__ = (
        "node_id",
        "num_nodes",
        "neighbors",
        "rng",
        "state",
        "_comm_targets",
        "_clique_targets_cache",
        "_targets_array",
        "_neighbor_array",
        "_plane",
        "_inbox",
        "_output",
        "_output_key_chunks",
        "_output_frozen",
    )

    def __init__(
        self,
        node_id: NodeId,
        num_nodes: int,
        neighbors: Iterable[NodeId],
        comm_targets: Optional[Iterable[NodeId]],
        rng: np.random.Generator,
        plane: MessagePlane,
        neighbor_array: Optional[np.ndarray] = None,
    ) -> None:
        #: This node's identifier (``0 .. n-1``).
        self.node_id = node_id
        #: The number of nodes ``n`` (globally known, per the model).
        self.num_nodes = num_nodes
        #: The node's neighbours in the *input graph* ``G`` — its initial
        #: knowledge of the topology.
        self.neighbors: frozenset[NodeId] = (
            neighbors if isinstance(neighbors, frozenset) else frozenset(neighbors)
        )
        #: Private randomness for this node.
        self.rng = rng
        #: Free-form per-node algorithm state.
        self.state: Dict[str, Any] = {}
        # Nodes this node may send to: equal to ``neighbors`` in the CONGEST
        # model, and to all other nodes in the CONGEST clique model.  ``None``
        # encodes the clique case without materialising n-1 identifiers per
        # node; the frozenset is then built lazily on first access.  When the
        # caller passes the same object for both (the standard-model
        # simulator does), the frozenset is shared rather than copied.
        if comm_targets is None:
            self._comm_targets: Optional[frozenset[NodeId]] = None
        elif comm_targets is neighbors:
            self._comm_targets = self.neighbors
        else:
            self._comm_targets = frozenset(comm_targets)
        self._clique_targets_cache: Optional[frozenset[NodeId]] = None
        self._targets_array: Optional[np.ndarray] = None
        # Sorted int64 neighbour identifiers; simulators built on the CSR
        # substrate hand in the graph view's (immutable) row slice so the
        # broadcast fast path never re-sorts or re-materialises it.
        self._neighbor_array: Optional[np.ndarray] = neighbor_array
        self._plane = plane
        self._inbox: Inbox = EMPTY_INBOX
        self._output: Set[Triangle] = set()
        # Bulk outputs accumulate as int64 triangle-key chunks (the columnar
        # output plane); tuples are only materialised if someone reads the
        # ``output`` frozenset.  May hold duplicate keys — consumers dedup.
        self._output_key_chunks: List[np.ndarray] = []
        self._output_frozen: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # topology queries
    # ------------------------------------------------------------------
    @property
    def degree(self) -> int:
        """The node's degree in the input graph."""
        return len(self.neighbors)

    def sorted_neighbors(self) -> List[NodeId]:
        """Return the node's neighbours in increasing identifier order."""
        return sorted(self.neighbors)

    def can_send_to(self, destination: NodeId) -> bool:
        """Return ``True`` when the communication topology has a link to ``destination``."""
        if self._comm_targets is None:
            return 0 <= destination < self.num_nodes and destination != self.node_id
        return destination in self._comm_targets

    @property
    def communication_targets(self) -> frozenset[NodeId]:
        """All nodes this node may address directly (model dependent).

        On the clique the set is built (and cached) on demand, in a field
        separate from the ``None`` sentinel so reading it never disables
        the O(1) clique range-check fast path in ``send``/``bulk_send``.
        """
        if self._comm_targets is not None:
            return self._comm_targets
        if self._clique_targets_cache is None:
            self._clique_targets_cache = frozenset(
                other for other in range(self.num_nodes) if other != self.node_id
            )
        return self._clique_targets_cache

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
        self._validate_destinations(dst)
        self._plane.extend(self.node_id, dst, payloads, sizes)

    def _validate_destinations(self, dst: np.ndarray) -> None:
        """Vectorized topology validation shared by the batched send paths.

        Raises
        ------
        TopologyError
            If any destination is this node itself or unreachable.
        """
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
            reachable = np.isin(dst, self._sorted_targets())
            if not reachable.all():
                bad = int(dst[np.flatnonzero(~reachable)[0]])
                raise TopologyError(
                    f"node {self.node_id} has no communication link to {bad}"
                )

    def send_columns(
        self,
        schema: WireSchema,
        destinations: Sequence[NodeId] | np.ndarray,
        data: Dict[str, np.ndarray],
        lengths: Optional[Sequence[int] | np.ndarray] = None,
        bits: Optional[int | Sequence[int] | np.ndarray] = None,
    ) -> None:
        """Queue a typed columnar batch of messages from this node.

        The schema fast path: one call stages a whole ``(destinations,
        columns)`` batch on the message plane, with per-message sizes
        computed by ``schema.bit_size`` as a single vectorized reduction.
        Topology validation matches :meth:`bulk_send`.

        Parameters
        ----------
        schema:
            The :class:`~repro.congest.wire.WireSchema` of every message.
        destinations:
            One receiving node per message.
        data:
            Flattened int64 element columns (one array per schema column);
            message ``i`` owns the rows ``offsets[i]:offsets[i+1]`` implied
            by ``lengths``.
        lengths:
            Per-message element counts; defaults to the schema's fixed
            length when it has one.
        bits:
            Optional explicit sizes overriding the schema accounting.

        Raises
        ------
        TopologyError
            If any destination is this node itself or unreachable.
        SimulationError
            If column names or lengths disagree with the schema.
        """
        dst = np.array(destinations, dtype=np.int64)
        if dst.ndim != 1:
            raise SimulationError("send_columns destinations must be one-dimensional")
        if dst.shape[0] == 0:
            return
        self._validate_destinations(dst)
        self._plane.extend_columns(
            schema, self.node_id, dst, data, lengths=lengths, bits=bits
        )

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
        if self._neighbor_array is None:
            self._neighbor_array = np.fromiter(
                sorted(self.neighbors), dtype=np.int64, count=len(self.neighbors)
            )
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

    def _sorted_targets(self) -> np.ndarray:
        """Sorted array of explicit communication targets (cached, O(degree))."""
        if self._targets_array is None:
            if self._neighbor_array is not None and self._comm_targets is self.neighbors:
                self._targets_array = self._neighbor_array
            else:
                self._targets_array = np.fromiter(
                    sorted(self._comm_targets),
                    dtype=np.int64,
                    count=len(self._comm_targets),
                )
        return self._targets_array

    def received(self) -> List[Tuple[NodeId, Any]]:
        """Return the ``(sender, payload)`` pairs delivered in the last phase."""
        return list(inbox_pairs(self._inbox))

    def received_from(self, sender: NodeId) -> List[Any]:
        """Return the payloads delivered by ``sender`` in the last phase."""
        return [
            payload
            for source, payload in inbox_pairs(self._inbox)
            if source == sender
        ]

    def received_senders(self) -> Set[NodeId]:
        """Return the set of nodes that delivered something in the last phase."""
        return {source for source, _ in inbox_pairs(self._inbox)}

    def received_columns(self, schema: WireSchema) -> TypedInboxView:
        """Return the typed column view of last phase's ``schema`` messages.

        The zero-copy fast path for batched kernels: instead of decoding
        ``(sender, payload)`` objects, consumers read the delivered element
        columns (and the per-message offsets) directly.  Empty when no
        typed traffic of this kind arrived.
        """
        return inbox_columns(self._inbox, schema)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def output_triangle(self, a: NodeId, b: NodeId, c: NodeId) -> None:
        """Add the triple ``{a, b, c}`` to this node's output set ``T_i``."""
        self._output.add(make_triangle(a, b, c))
        self._output_frozen = None

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
            If any triple has fewer than three distinct vertices.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        c = np.asarray(c, dtype=np.int64)
        if a.shape[0] == 0:
            return
        if canonical:
            if ((a >= b) | (b >= c)).any():
                raise SimulationError(
                    "a triangle must contain three distinct vertices"
                )
        else:
            stacked = np.stack((a, b, c), axis=1)
            stacked.sort(axis=1)
            if (stacked[:, 1:] == stacked[:, :-1]).any():
                raise SimulationError(
                    "a triangle must contain three distinct vertices"
                )
            a, b, c = stacked[:, 0], stacked[:, 1], stacked[:, 2]
        if self.num_nodes <= TRIANGLE_KEY_MAX_NODES:
            self._output_key_chunks.append(triangle_keys(a, b, c, self.num_nodes))
        else:  # pragma: no cover - beyond any simulated size
            self._output.update(zip(a.tolist(), b.tolist(), c.tolist()))
        self._output_frozen = None

    def output_triangle_keys(self, keys: np.ndarray) -> None:
        """Append precomputed canonical triangle keys (the kernel fast door).

        ``keys`` must encode canonical triples under
        :func:`repro.types.triangle_keys` for this network's ``n``; the
        fused phase kernels, which build keys directly from oracle output,
        are the only intended callers.
        """
        if keys.shape[0] == 0:
            return
        self._output_key_chunks.append(keys)
        self._output_frozen = None

    def output_state(self) -> Tuple[Set[Triangle], List[np.ndarray]]:
        """Hand the raw output accumulators to the result layer.

        Returns the scalar tuple set and the (possibly duplicated) key
        chunks; :class:`~repro.core.output.TriangleOutput` wraps them
        without materialising anything.
        """
        return self._output, self._output_key_chunks

    @property
    def output(self) -> frozenset[Triangle]:
        """The node's current output set ``T_i`` (canonicalised triples).

        Cached between mutations: repeated reads (result collection over
        millions of listed triples) must not re-copy the whole set.
        """
        if self._output_frozen is None:
            if self._output_key_chunks:
                keys = sorted_unique(*self._output_key_chunks)
                a, b, c = decode_triangle_keys(keys, self.num_nodes)
                combined = set(zip(a.tolist(), b.tolist(), c.tolist()))
                combined.update(self._output)
                self._output_frozen = frozenset(combined)
            else:
                self._output_frozen = frozenset(self._output)
        return self._output_frozen

    # ------------------------------------------------------------------
    # simulator-facing internals
    # ------------------------------------------------------------------
    def _deliver(self, messages: Inbox) -> None:
        self._inbox = messages

    def __repr__(self) -> str:
        return (
            f"NodeContext(node_id={self.node_id}, degree={self.degree}, "
            f"outputs={len(self._output)})"
        )
