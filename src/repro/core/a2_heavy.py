"""Algorithm A2: listing every ε-heavy triangle via 3-wise independent hashing.

Proposition 2 / Figure 1 of the paper.  The protocol has three steps:

1. Every node ``i`` samples a hash function ``h_i : V -> {0, .., ⌊n^{ε/2}⌋-1}``
   from a 3-wise independent family and sends its description (``O(log n)``
   bits) to all neighbours.
2. Every node ``j`` computes, for each neighbour ``a``, the edge set
   ``E_ja = {{j, l} ∈ E : h_a(l) = 0}`` and sends it to ``a`` — but only when
   ``|E_ja| <= 8 + 4n/⌊n^{ε/2}⌋`` (Lemma 1 shows the cap holds with the
   probability the analysis needs).
3. Every node ``i`` collects the received edges into ``F_i`` and outputs all
   triples whose three edges all appear in ``F_i``.

For an ε-heavy triangle ``{j, k, l}`` with heavy edge ``{j, k}``, each of
the ``>= n^ε`` common neighbours ``a`` of ``j`` and ``k`` independently
catches the triangle when ``h_a(k) = h_a(l) = 0`` and the caps hold, which
by Lemma 1 happens with probability at least ``3/(4 n^ε)`` — so *some*
common neighbour catches it with constant probability.  The communication
cost is dominated by step 2: at most ``8 + 4n/⌊n^{ε/2}⌋`` edges per link,
i.e. ``O(n^{1-ε/2})`` rounds.

Two execution kernels implement the protocol:

* the **batched kernel** (default) runs each step for every node at once,
  with no per-node Python loop on dense graphs.  Step 1 stages every
  descriptor broadcast as one columnar batch.  Step 2 Horner-evaluates
  all n hash functions over the whole vertex set into the hash-zero
  matrix ``Z`` (each family member once, not once per received message),
  sizes every directed edge's message ``N(j) ∩ Z_a`` with a packed-row
  popcount and stages the batch by its sizes alone, since no receiver
  reads its elements; on sparse graphs, where the all-pairs matrix does
  not amortise, it evaluates each sender's neighbour block on demand
  instead and ships the filtered edges through the typed columnar plane
  (:data:`repro.congest.wire.A2_EDGE_SCHEMA`).  Both run on the
  **direct-exchange** path.  Step 3 on dense graphs is deferred: every receiver's ``F_i`` is
  a function of ``Z``, the shipping mask and the adjacency, so the output
  table keeps that structure (:class:`DenseHeavyListing`).  The union of
  all receivers' triangles is computed from it directly, one OR of
  shipping-mask rows per edge, and each receiver's own triangles are
  listed, in one sweep of ``(receiver, zero vertex)`` row blocks, only
  when a per-node reader asks.  On sparse graphs step 3 is one
  whole-network grouped oracle call
  (:func:`repro.graphs.csr.triangles_by_group`) over the
  destination-grouped channel columns.  No per-node inboxes or views
  exist anywhere in the run, and
* the **reference kernel** keeps the paper-shaped per-node closures over
  object payloads.

Both kernels draw per-node randomness identically, so a seeded run produces
the same round counts, link-bit maxima and triangle outputs on either path;
the differential suite (``tests/core/test_batched_kernels.py``) enforces
this on every workload family, and pins the dense steps 2 and 3, the
direct union included, against the on-demand step 2 and the grouped
oracle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..congest.backends import (
    chunk_rows,
    fused_chunk_rows,
    hash_zero_block,
    packed_popcount,
)
from ..congest.node import NodeContext, OutputTable
from ..congest.simulator import CongestSimulator
from ..congest.wire import A2_EDGE_SCHEMA, HashDescriptorSchema, edge_bits
from ..graphs.csr import triangles_by_group
from ..hashing.kwise import KWiseIndependentFamily
from ..types import Edge, make_edge, triangle_keys
from .base import TriangleAlgorithm, dense_pair_matrix_worthwhile, validate_kernel
from .parameters import a2_edge_set_cap, a2_hash_range


class HeavyHashingLister(TriangleAlgorithm):
    """Algorithm A2 (Proposition 2, Figure 1): list all ε-heavy triangles.

    Parameters
    ----------
    epsilon:
        The heaviness exponent ε.  Only ε-heavy triangles carry a listing
        guarantee; the composite Theorem-2 algorithm pairs A2 with A3.
    independence:
        Independence of the hash family (the analysis needs 3; exposed for
        the ablation that demonstrates pairwise independence is not enough
        for Lemma 1's conditioning argument).
    kernel:
        ``"batched"`` (default) runs the vectorized phase kernels over the
        typed columnar plane; ``"reference"`` runs the per-node closures.
        Both produce identical executions for the same seed.
    """

    name = "A2-heavy-hashing"
    model = "CONGEST"

    def __init__(
        self,
        epsilon: float,
        independence: int = 3,
        kernel: str = "batched",
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        if independence < 2:
            raise ValueError(f"independence must be at least 2, got {independence}")
        self._epsilon = epsilon
        self._independence = independence
        self._kernel = validate_kernel(kernel)

    def describe_parameters(self) -> Dict[str, Any]:
        return {
            "epsilon": self._epsilon,
            "independence": self._independence,
            "kernel": self._kernel,
        }

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def _execute(self, simulator: CongestSimulator) -> bool:
        num_nodes = simulator.num_nodes
        hash_range = a2_hash_range(num_nodes, self._epsilon)
        edge_cap = a2_edge_set_cap(num_nodes, self._epsilon)
        # The family parameters (domain, range, prime) are functions of the
        # globally known n and ε, so every node derives the same family
        # locally; only the sampled coefficients travel on the wire.
        family = KWiseIndependentFamily(
            domain_size=num_nodes,
            range_size=hash_range,
            independence=self._independence,
        )
        if self._kernel == "batched":
            return self._execute_direct(simulator, family, edge_cap)
        return self._execute_reference(simulator, family, edge_cap)

    def _execute_reference(
        self,
        simulator: CongestSimulator,
        family: KWiseIndependentFamily,
        edge_cap: float,
    ) -> bool:
        num_nodes = simulator.num_nodes

        # Step 1: sample and broadcast hash functions.
        def sample_hash(context: NodeContext) -> None:
            own_hash = family.sample(context.rng)
            context.state["hash"] = own_hash
            context.broadcast_bits(
                ("hash", own_hash.encode()), bits=family.description_bits()
            )

        simulator.for_each_node(sample_hash)
        simulator.run_phase("A2:send-hash-functions")

        # Step 2: every node filters its incident edges through each
        # neighbour's hash function and ships the small filtered sets.
        def send_filtered_edges(context: NodeContext) -> None:
            neighbor_hashes = {}
            for sender, payload in context.received():
                _, coefficients = payload
                neighbor_hashes[sender] = family.decode(coefficients)
            context.state["neighbor_hashes"] = neighbor_hashes
            own = context.node_id
            neighbors = context.sorted_neighbors()
            # Heavy-node fan-out: one filtered edge set per neighbour, shipped
            # through the batched plane in a single bulk_send.
            targets: List[int] = []
            payloads: List[Any] = []
            sizes: List[int] = []
            per_edge_bits = edge_bits(num_nodes)
            for target, target_hash in neighbor_hashes.items():
                filtered: List[Edge] = [
                    make_edge(own, other)
                    for other in neighbors
                    if target_hash(other) == 0
                ]
                if len(filtered) > edge_cap:
                    continue
                if not filtered:
                    continue
                targets.append(target)
                payloads.append(("edges", tuple(filtered)))
                sizes.append(len(filtered) * per_edge_bits)
            if targets:
                context.bulk_send(targets, payloads, bits=sizes)

        simulator.for_each_node(send_filtered_edges)
        simulator.run_phase("A2:send-filtered-edges")

        # Step 3: list triangles inside the received edge set.
        def list_local_triangles(context: NodeContext) -> None:
            received_edges: Set[Edge] = set()
            for _, payload in context.received():
                _, edges = payload
                received_edges.update(edges)
            for triangle in _triangles_in_edge_set(received_edges):
                context.output_triangle(*triangle)

        simulator.for_each_node(list_local_triangles)
        return False

    def _stage_hashes(
        self,
        simulator: CongestSimulator,
        family: KWiseIndependentFamily,
    ) -> np.ndarray:
        """Step 1: sample per node and stage every descriptor broadcast.

        Each node's generator draws its coefficients exactly as the
        reference closure's ``family.sample(rng)`` does, in node order, so
        seeded runs coincide.  The phase — one message per directed edge,
        each carrying the sender's k coefficients — is staged by its sizes
        alone (:meth:`~repro.congest.simulator.CongestSimulator.stage_sizes`):
        no receiver reads it, since the step-2 senders evaluate the returned
        coefficient matrix locally in place of decoding received payloads.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        degrees = np.diff(csr.indptr)
        coefficients = np.stack(
            [family.sample_coefficients(rng) for rng in simulator.node_rngs]
        )
        schema = HashDescriptorSchema(family.independence, family.prime)
        src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        if src.shape[0]:
            simulator.stage_sizes(
                schema, src, csr.indices, bits=family.description_bits()
            )
        return coefficients

    def _stage_filtered_edges(
        self,
        simulator: CongestSimulator,
        family: KWiseIndependentFamily,
        coefficients: np.ndarray,
        edge_cap: float,
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """Step 2 as one array program over the CSR rows.

        Every directed CSR edge ``(j, a)`` is one candidate message: the
        edges ``{j, l}`` with ``l ∈ N(j)`` and ``h_a(l) = 0``.  On dense
        graphs all n hash functions are evaluated over all n vertices in
        one Horner pass into the hash-zero matrix ``Z``
        (:func:`_filtered_edges_dense`); on sparse ones each sender's
        neighbour-row block is evaluated on demand, one sender at a time
        (:func:`_filtered_edges_on_demand`).
        Either way the messages come out sender-major with targets
        ascending and are staged as one batch for the whole network.  The
        dense batch is staged by its sizes alone
        (:meth:`~repro.congest.simulator.CongestSimulator.stage_sizes`):
        its receivers are deferred as a function of ``Z`` and the shipped
        pairs, so no endpoint is ever built.  The sparse batch carries its
        canonical edges, endpoints ascending, for the grouped oracle.

        Returns ``(zero_mask, shipped_senders, shipped_targets)``: ``Z``
        when the dense precompute was used (``None`` otherwise) and the
        directed (sender, target) pairs that actually shipped an edge set
        — the structure the fused receiver reconstructs ``F_i`` membership
        from without re-reading the channel.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        if dense_pair_matrix_worthwhile(num_nodes, np.diff(csr.indptr)):
            zero_mask = _hash_zero_matrix(
                coefficients, family.prime, family.range_size, num_nodes
            )
            senders, targets, lengths = _filtered_edges_dense(
                csr, zero_mask, edge_cap
            )
            if senders.shape[0]:
                simulator.stage_sizes(A2_EDGE_SCHEMA, senders, targets, lengths=lengths)
            return zero_mask, senders, targets
        senders, targets, lengths, endpoints = _filtered_edges_on_demand(
            csr, family, coefficients, edge_cap
        )
        if senders.shape[0] == 0:
            return None, senders, targets
        # Canonical edges {node, l}: every endpoint pairs with its
        # message's sending node.
        edge_peers = np.repeat(senders, lengths)
        simulator.stage_columns(
            A2_EDGE_SCHEMA,
            senders,
            targets,
            {
                "u": np.minimum(edge_peers, endpoints),
                "v": np.maximum(edge_peers, endpoints),
            },
            lengths=lengths,
        )
        return None, senders, targets

    def _execute_direct(
        self,
        simulator: CongestSimulator,
        family: KWiseIndependentFamily,
        edge_cap: float,
    ) -> bool:
        """The direct-exchange kernel: fused whole-network receivers.

        Same traffic as :meth:`_execute_reference`, but both phases run
        on the direct-exchange path and no per-node inbox objects exist.
        On dense graphs (where step 2 precomputed the all-pairs hash-zero
        matrix) step 3 does not even group the delivered channel: the
        received set ``F_i`` is a pure function of the
        hash-zero matrix ``Z``, the shipping mask ``S`` and the adjacency
        — an edge ``{u, v}`` is in ``F_i`` iff one endpoint shipped to
        ``i`` and the other hashes to zero — so step 3 is deferred.  The
        output table gets a :class:`DenseHeavyListing` over that
        structure, whose union is computed directly
        (:func:`_dense_union`) and whose per-receiver triangles are
        enumerated (:func:`_list_fused_dense`) only when a per-node reader
        asks; a pass in which nothing shipped defers nothing.  On sparse
        graphs the grouped channel columns feed one whole-network grouped
        oracle call (:func:`repro.graphs.csr.triangles_by_group`).
        """
        num_nodes = simulator.num_nodes
        coefficients = self._stage_hashes(simulator, family)
        simulator.exchange_phase("A2:send-hash-functions")
        zero_mask, senders, targets = self._stage_filtered_edges(
            simulator, family, coefficients, edge_cap
        )
        delivered = simulator.exchange_phase("A2:send-filtered-edges")

        if zero_mask is not None:
            if targets.shape[0]:
                simulator.output_table.defer(
                    DenseHeavyListing(
                        simulator.graph.csr(), zero_mask, senders, targets
                    )
                )
            return False
        channel = delivered.channel(A2_EDGE_SCHEMA)
        if channel.count:
            tri_groups, tri_keys = triangles_by_group(
                channel.element_receivers(),
                channel.data["u"],
                channel.data["v"],
                num_nodes,
            )
            simulator.output_table.emit_grouped(tri_groups, tri_keys)
        return False


def _filtered_edges_dense(
    csr, zero_mask: np.ndarray, edge_cap: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step 2's message sizes for every directed edge at once, from ``Z``.

    The message ``j → a`` carries ``N(j) ∩ Z_a``.  Its size is a popcount
    of the packed adjacency row of ``j`` ANDed with the packed ``Z`` row
    of ``a``, for every directed CSR edge in edge blocks.  Returns the
    shipped ``(senders, targets, lengths)`` in CSR edge order (senders
    ascending, each sender's targets in row order); the endpoints are
    never listed, since the deferred receivers read ``Z`` itself.
    """
    num_nodes = zero_mask.shape[0]
    edge_src = np.repeat(
        np.arange(num_nodes, dtype=np.int64), np.diff(csr.indptr)
    )
    edge_dst = csr.indices
    packed = csr._packed_matrix()
    packed_zero = np.packbits(zero_mask, axis=1)
    kept = np.empty(edge_src.shape[0], dtype=np.int64)
    step = fused_chunk_rows(packed.shape[1])
    for start in range(0, edge_src.shape[0], step):
        end = start + step
        kept[start:end] = packed_popcount(
            packed[edge_src[start:end]] & packed_zero[edge_dst[start:end]]
        )
    shipped = (kept > 0) & (kept <= edge_cap)
    return edge_src[shipped], edge_dst[shipped], kept[shipped]


def _filtered_edges_on_demand(
    csr,
    family: KWiseIndependentFamily,
    coefficients: np.ndarray,
    edge_cap: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step 2 one sender at a time, evaluating only the hash entries read.

    For sender ``j`` the block ``filters[a, l] = (h_a(l) = 0)`` over
    ``a, l ∈ N(j)`` is Horner-evaluated on demand, so a sparse graph never
    pays for the all-pairs matrix.  Same columns as
    :func:`_filtered_edges_dense`.
    """
    indptr, indices = csr.indptr, csr.indices
    sender_chunks: List[np.ndarray] = []
    target_chunks: List[np.ndarray] = []
    length_chunks: List[np.ndarray] = []
    endpoint_chunks: List[np.ndarray] = []
    for node in range(indptr.shape[0] - 1):
        row = indices[indptr[node] : indptr[node + 1]]
        if row.shape[0] == 0:
            continue
        filters = hash_zero_block(
            coefficients[row], row, family.prime, family.range_size
        )
        kept_per_target = filters.sum(axis=1)
        shipped = (kept_per_target > 0) & (kept_per_target <= edge_cap)
        if not shipped.any():
            continue
        targets = row[shipped]
        sender_chunks.append(np.full(targets.shape[0], node, dtype=np.int64))
        target_chunks.append(targets)
        length_chunks.append(kept_per_target[shipped])
        endpoint_chunks.append(row[np.nonzero(filters[shipped])[1]])
    if not sender_chunks:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    return (
        np.concatenate(sender_chunks),
        np.concatenate(target_chunks),
        np.concatenate(length_chunks),
        np.concatenate(endpoint_chunks),
    )


class DenseHeavyListing:
    """A2's dense step-3 output, kept as the structure it is a function of.

    Every receiver's ``F_i`` — hence its listed triangles — is fixed by the
    hash-zero matrix ``Z``, the shipped (sender, target) pairs and the
    adjacency, so the output table holds this deferred source instead of
    key chunks (:meth:`repro.congest.node.OutputTable.defer`).
    :meth:`key_blocks` yields the keys of every receiver's triangles
    directly (:func:`_dense_union`), without listing a receiver's copy and
    without deduplicating, so the output's union sorts them once together
    with its other chunks; :meth:`chunks` runs the per-receiver
    enumeration (:func:`_list_fused_dense`) on its first call and keeps
    its chunks.
    """

    __slots__ = ("_csr", "_zero_mask", "_senders", "_targets", "_chunks")

    def __init__(
        self, csr, zero_mask: np.ndarray, senders: np.ndarray, targets: np.ndarray
    ) -> None:
        self._csr = csr
        self._zero_mask = zero_mask
        self._senders = senders
        self._targets = targets
        self._chunks: Optional[List[Tuple[np.ndarray, ...]]] = None

    def key_blocks(self) -> Iterator[np.ndarray]:
        """Every receiver's keys, up to three times each, block by block.

        Computed afresh on each call; the blocks together hold exactly the
        distinct keys the receivers list.
        """
        return _dense_union(self._csr, self._zero_mask, self._senders, self._targets)

    def chunks(self) -> List[Tuple[np.ndarray, ...]]:
        """Every receiver's keys as output chunks, listed once."""
        if self._chunks is None:
            table = OutputTable(self._csr.num_nodes)
            _list_fused_dense(
                table,
                self._csr._bool_matrix(),
                self._zero_mask,
                self._senders,
                self._targets,
            )
            self._chunks = table.chunks
        return self._chunks


def _dense_union(
    csr, zero_mask: np.ndarray, senders: np.ndarray, targets: np.ndarray
) -> Iterator[np.ndarray]:
    """Yield the keys of every receiver's step-3 triangles, without listing any.

    By :func:`_list_fused_dense`'s orientation argument, a triangle
    ``{x, y, z}`` is in some ``F_i`` exactly when there is an edge
    ``{y, z}`` and a receiver ``i`` with::

        Z_i(y) ∧ Z_i(z) ∧ (S_i(y) ∨ S_i(z))   and   x ∈ S_i ∩ N(y) ∩ N(z)

    So, edge by edge, the thirds of the union are the OR of the packed
    ``S_i`` rows over the receivers ``i`` that catch the edge (one
    ``bitwise_or.reduceat`` over all caught edges of a block, on uint64
    words), ANDed with the packed adjacency rows of ``y`` and ``z``.  The
    canonical edges stream in blocks sized by
    :func:`~repro.congest.backends.fused_chunk_rows`.  A triangle comes out
    at most once per edge, so at most three times; the caller
    deduplicates the blocks once, together with whatever else it unites.
    """
    num_nodes = zero_mask.shape[0]
    shipped = np.zeros((num_nodes, num_nodes), dtype=bool)
    shipped[targets, senders] = True
    # Row v of the transposes: the receivers i with Z_i(v), with S_i(v).
    zero_at = np.ascontiguousarray(zero_mask.T)
    shipped_at = np.ascontiguousarray(shipped.T)
    shipped_words = _as_words(np.packbits(shipped, axis=1))
    adjacency_words = _as_words(csr._packed_matrix())
    edge_ys, edge_zs = csr.edge_u, csr.edge_v
    step = fused_chunk_rows(num_nodes)
    for start in range(0, edge_ys.shape[0], step):
        end = start + step
        ys = edge_ys[start:end]
        zs = edge_zs[start:end]
        catchers = zero_at[ys] & zero_at[zs]
        catchers &= shipped_at[ys] | shipped_at[zs]
        flat = np.flatnonzero(catchers)
        if flat.shape[0] == 0:
            continue
        caught = flat // num_nodes
        receivers = flat - caught * num_nodes
        firsts = np.flatnonzero(np.concatenate(([True], caught[1:] != caught[:-1])))
        caught = caught[firsts]
        thirds = np.bitwise_or.reduceat(shipped_words[receivers], firsts, axis=0)
        ys = ys[caught]
        zs = zs[caught]
        thirds &= adjacency_words[ys]
        thirds &= adjacency_words[zs]
        # Read as bool: ``flatnonzero`` scans bools about four times
        # faster than the uint8 bits ``unpackbits`` gives.
        flat = np.flatnonzero(
            np.unpackbits(thirds.view(np.uint8), axis=1, count=num_nodes).view(bool)
        )
        edge = flat // num_nodes
        x = flat - edge * num_nodes
        y = ys[edge]
        z = zs[edge]
        lo = np.minimum(x, y)
        hi = np.maximum(x, z)
        yield triangle_keys(lo, x + y + z - lo - hi, hi, num_nodes)


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Bit-packed ``uint8`` rows as ``uint64`` words, each row zero-padded.

    The bytes keep their order, so viewing a word row as ``uint8`` gives
    the packed row back for ``unpackbits``; word-wide ORs and ANDs touch
    an eighth of the elements a byte-wide one does.
    """
    words = np.zeros((packed.shape[0], -(-packed.shape[1] // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    return words


def _list_fused_dense(
    output: OutputTable,
    adjacency: np.ndarray,
    zero_mask: np.ndarray,
    senders: np.ndarray,
    targets: np.ndarray,
) -> None:
    """Step 3 for every receiver at once, over the hash-zero structure.

    An edge is in ``F_i`` exactly when one endpoint shipped to ``i`` and
    the other hashes to zero under ``h_i``::

        {u, v} ∈ F_i  ⟺  (S_i(u) ∧ Z_i(v)) ∨ (S_i(v) ∧ Z_i(u))

    Orient each edge of a triangle of ``F_i`` from its shipped endpoint
    to its zero one.  Three oriented edges on three vertices always give
    some vertex ``x`` out-degree 2 (a transitive triangle) or every vertex
    out-degree 1 (a cycle); either way ``x`` shipped and the other two,
    ``y < z``, hash to zero.  So ``F_i``'s triangles are exactly the
    triples with an edge ``{y, z} ∈ F_i`` between two zero vertices and a
    shipped common neighbour ``x``, and the kernel enumerates, for all
    receivers together:

    1. the ``(i, y)`` pairs with ``Z_i(y)``, from one ``nonzero`` of ``Z``;
    2. the zero partners ``z > y`` with ``{y, z} ∈ F_i``: the upper
       adjacency row of ``y`` ANDed with row ``2i + S_i(y)`` of a stacked
       mask, whose row ``2i`` is ``Z_i ∧ S_i`` and row ``2i+1`` (``y``
       shipped) is ``Z_i``;
    3. the thirds ``x``: ``adjacency[y] & adjacency[z] & S_i``.

    A triangle may be listed more than once at one receiver (once per
    such ``(y, z)`` split); the output keeps per-node key sets, so only
    the set counts.  Steps 2 and 3 stream ``n``-wide boolean row blocks
    sized by :func:`~repro.congest.backends.fused_chunk_rows` and read
    hits with ``flatnonzero``.  Rows stay in ``(i, y, z)`` order, so
    receivers ascend within each block.  No loop runs over receivers or
    senders; the only loops are over blocks.

    This is the per-node listing of a deferred :class:`DenseHeavyListing`:
    it runs on a per-node reader's first read and writes into the
    source's own ``output`` table.  The union never needs it
    (:func:`_dense_union`).
    """
    if targets.shape[0] == 0:
        return
    num_nodes = zero_mask.shape[0]
    upper = np.triu(adjacency, k=1)
    shipped = np.zeros((num_nodes, num_nodes), dtype=bool)
    shipped[targets, senders] = True
    partner_masks = np.empty((2 * num_nodes, num_nodes), dtype=bool)
    np.logical_and(zero_mask, shipped, out=partner_masks[0::2])
    partner_masks[1::2] = zero_mask

    receivers, ys = np.nonzero(zero_mask)
    y_shipped = shipped[receivers, ys]
    step = fused_chunk_rows(num_nodes)
    for start in range(0, receivers.shape[0], step):
        end = start + step
        block_receivers = receivers[start:end]
        block_ys = ys[start:end]
        block_y_shipped = y_shipped[start:end]
        rows = upper[block_ys] & partner_masks[
            2 * block_receivers + block_y_shipped
        ]
        flat = np.flatnonzero(rows)
        if flat.shape[0] == 0:
            continue
        pair = flat // num_nodes
        pair_receivers = block_receivers[pair]
        pair_ys = block_ys[pair]
        pair_zs = flat - pair * num_nodes
        for triple_start in range(0, pair_ys.shape[0], step):
            triple_end = triple_start + step
            triple_ys = pair_ys[triple_start:triple_end]
            triple_zs = pair_zs[triple_start:triple_end]
            rows = adjacency[triple_ys] & adjacency[triple_zs]
            rows &= shipped[pair_receivers[triple_start:triple_end]]
            flat = np.flatnonzero(rows)
            if flat.shape[0] == 0:
                continue
            triple = flat // num_nodes
            x = flat - triple * num_nodes
            y = triple_ys[triple]
            z = triple_zs[triple]
            lo = np.minimum(x, y)
            hi = np.maximum(x, z)
            output.emit_grouped(
                pair_receivers[triple_start:triple_end][triple],
                triangle_keys(lo, x + y + z - lo - hi, hi, num_nodes),
            )


def _triangles_in_edge_set(edges: Set[Edge]) -> List[Tuple[int, int, int]]:
    """Return all triples whose three edges are all contained in ``edges``.

    The received edge sets are small (each link contributes at most the
    Figure-1 cap), so a forward enumeration over an adjacency map is
    adequate.
    """
    adjacency: Dict[int, Set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    triangles: List[Tuple[int, int, int]] = []
    vertices = sorted(adjacency)
    for u in vertices:
        higher_neighbors = sorted(w for w in adjacency[u] if w > u)
        for index, v in enumerate(higher_neighbors):
            for w in higher_neighbors[index + 1:]:
                if w in adjacency[v]:
                    triangles.append((u, v, w))
    return triangles


def _hash_zero_matrix(
    coefficients: np.ndarray, prime: int, range_size: int, num_nodes: int
) -> np.ndarray:
    """Return the boolean matrix ``Z[a, l] = (h_a(l) == 0)`` for all pairs.

    Rows are chunked so the int64 work matrix stays within the chunk
    bound; used when
    :func:`repro.core.base.dense_pair_matrix_worthwhile` says the all-pairs
    precompute amortises (dense graphs).
    """
    points = np.arange(num_nodes, dtype=np.int64)
    zero = np.empty((num_nodes, num_nodes), dtype=bool)
    row_chunk = chunk_rows(8 * num_nodes)
    for start in range(0, num_nodes, row_chunk):
        end = min(num_nodes, start + row_chunk)
        zero[start:end] = hash_zero_block(
            coefficients[start:end], points, prime, range_size
        )
    return zero


def expected_rounds(num_nodes: int, epsilon: float) -> float:
    """Return the Proposition-2 round bound ``2(8 + 4n/⌊n^{ε/2}⌋)`` for reference.

    The factor 2 accounts for an edge costing two identifiers on the wire.
    """
    return 2.0 * a2_edge_set_cap(num_nodes, epsilon)
