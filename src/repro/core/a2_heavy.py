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

* the **batched kernel** (default) evaluates every node's 3-wise hash over
  the CSR neighbour rows as one array program — each family member is
  Horner-evaluated once over the whole vertex set instead of once per
  received message — ships the filtered edge batches through the typed
  columnar plane (:data:`repro.congest.wire.A2_EDGE_SCHEMA`) on the
  **direct-exchange** path, and lists the received edge sets with a single
  whole-network grouped oracle call
  (:func:`repro.graphs.csr.triangles_by_group`) over the
  destination-grouped channel columns — no per-node inboxes, views or
  receiver loops exist anywhere in the run, and
* the **reference kernel** keeps the paper-shaped per-node closures over
  object payloads.

Both kernels draw per-node randomness identically, so a seeded run produces
the same round counts, link-bit maxima and triangle outputs on either path;
the differential suite (``tests/core/test_batched_kernels.py``) enforces
this on every workload family.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from ..congest.backends import chunk_rows, hash_zero_block
from ..congest.node import NodeContext, emit_grouped_keys
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

        The same ``family.sample(rng)`` calls as the reference closure, so
        seeded runs coincide; the whole phase is one columnar batch (one
        message per directed edge, each carrying the sender's k
        coefficients).  Returns the coefficient matrix, which the sender
        programs evaluate locally in place of decoding received payloads.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        degrees = np.diff(csr.indptr)
        coefficients = np.empty((num_nodes, family.independence), dtype=np.int64)
        for context in simulator.contexts:
            own_hash = family.sample(context.rng)
            context.state["hash"] = own_hash
            coefficients[context.node_id] = own_hash.coefficients
        schema = HashDescriptorSchema(family.independence, family.prime)
        src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        if src.shape[0]:
            simulator.stage_columns(
                schema,
                src,
                csr.indices,
                {"coefficient": coefficients[src].ravel()},
                bits=family.description_bits(),
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

        Each neighbour's family is evaluated once — on dense graphs all n
        functions over all n vertices in one Horner pass, on sparse ones
        per neighbour-row block on demand — then every node's filtered edge
        batches and cap masks fall out as array reductions, staged as one
        columnar batch for the whole network.

        Returns ``(zero_mask, shipped_senders, shipped_targets)``: the
        all-pairs hash-zero matrix when the dense precompute was used
        (``None`` otherwise) and the directed (sender, target) pairs that
        actually shipped an edge set — the structure the fused receiver
        reconstructs ``F_i`` membership from without re-reading the
        channel.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        indptr, indices = csr.indptr, csr.indices
        degrees = np.diff(indptr)
        zero_mask = (
            _hash_zero_matrix(coefficients, family.prime, family.range_size, num_nodes)
            if dense_pair_matrix_worthwhile(num_nodes, degrees)
            else None
        )
        batch_nodes: List[int] = []
        batch_counts: List[int] = []
        target_chunks: List[np.ndarray] = []
        length_chunks: List[np.ndarray] = []
        endpoint_chunks: List[np.ndarray] = []
        for node in range(num_nodes):
            row = indices[indptr[node] : indptr[node + 1]]
            if row.shape[0] == 0:
                continue
            # filters[a, l] — does neighbour ``a``'s hash keep vertex ``l``?
            if zero_mask is not None:
                filters = zero_mask[np.ix_(row, row)]
            else:
                filters = hash_zero_block(
                    coefficients[row], row, family.prime, family.range_size
                )
            kept_per_target = filters.sum(axis=1)
            shipped = (kept_per_target > 0) & (kept_per_target <= edge_cap)
            if not shipped.any():
                continue
            endpoints = row[np.nonzero(filters[shipped])[1]]
            targets = row[shipped]
            batch_nodes.append(node)
            batch_counts.append(int(targets.shape[0]))
            target_chunks.append(targets)
            length_chunks.append(kept_per_target[shipped])
            endpoint_chunks.append(endpoints)
        if not batch_nodes:
            return zero_mask, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        senders = np.repeat(
            np.asarray(batch_nodes, dtype=np.int64),
            np.asarray(batch_counts, dtype=np.int64),
        )
        targets = np.concatenate(target_chunks)
        endpoints = np.concatenate(endpoint_chunks)
        # Canonical edges {node, l}: every endpoint pairs with its
        # message's sending node.
        edge_peers = np.repeat(senders, np.concatenate(length_chunks))
        simulator.stage_columns(
            A2_EDGE_SCHEMA,
            senders,
            targets,
            {
                "u": np.minimum(edge_peers, endpoints),
                "v": np.maximum(edge_peers, endpoints),
            },
            lengths=np.concatenate(length_chunks),
        )
        return zero_mask, senders, targets

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
        ``i`` and the other hashes to zero — so the kernel enumerates
        candidate triples straight from that structure
        (:meth:`_list_fused_dense`).  On sparse graphs the grouped channel
        columns feed one whole-network grouped oracle call
        (:func:`repro.graphs.csr.triangles_by_group`).
        """
        num_nodes = simulator.num_nodes
        contexts = simulator.contexts
        coefficients = self._stage_hashes(simulator, family)
        simulator.exchange_phase("A2:send-hash-functions")
        zero_mask, senders, targets = self._stage_filtered_edges(
            simulator, family, coefficients, edge_cap
        )
        delivered = simulator.exchange_phase("A2:send-filtered-edges")

        if zero_mask is not None:
            self._list_fused_dense(simulator, zero_mask, senders, targets)
            return False
        channel = delivered.channel(A2_EDGE_SCHEMA)
        if channel.count:
            tri_groups, tri_keys = triangles_by_group(
                channel.element_receivers(),
                channel.data["u"],
                channel.data["v"],
                num_nodes,
            )
            emit_grouped_keys(contexts, tri_groups, tri_keys)
        return False

    def _list_fused_dense(
        self,
        simulator: CongestSimulator,
        zero_mask: np.ndarray,
        senders: np.ndarray,
        targets: np.ndarray,
    ) -> bool:
        """Step 3 fused over the hash-zero structure (dense precompute).

        Every triangle of ``F_i`` has at least two vertices hashing to
        zero under ``h_i`` (each of its edges needs a zero endpoint, and
        one zero vertex cannot cover three edges).  So for receiver ``i``
        the kernel enumerates adjacent zero-pairs ``y < z``, expands their
        common neighbourhoods ``x`` with one boolean row reduction, and
        keeps a candidate exactly when all three edges lie in ``F_i``::

            {u, v} ∈ F_i  ⟺  (S(u) ∧ Z(v)) ∨ (S(v) ∧ Z(u))

        with ``S`` the shipped-to-``i`` mask and ``Z`` the zero mask —
        which for a zero-pair candidate reduces to ``(S(x) ∧ (S(y) ∨
        S(z))) ∨ (Z(x) ∧ S(y) ∧ S(z))``.  Work is proportional to the
        candidate count (a small constant times the listed output), not to
        ``receivers × adjacency-rows`` as a per-receiver scan would be.
        """
        if targets.shape[0] == 0:
            return False
        num_nodes = simulator.num_nodes
        contexts = simulator.contexts
        adjacency = simulator.graph.csr()._bool_matrix()
        shipped = np.zeros((num_nodes, num_nodes), dtype=bool)
        shipped[targets, senders] = True
        # Zero-pair chunks keep the (pairs × n) row intersections within
        # the chunk bound; one bulk key append per chunk.
        pair_chunk = chunk_rows(num_nodes)
        for receiver in np.unique(targets).tolist():
            z_row = zero_mask[receiver]
            s_row = shipped[receiver]
            zeros = np.flatnonzero(z_row)
            if zeros.shape[0] < 2:
                continue
            # Adjacent zero-pairs (y < z) with at least one side shipped —
            # the {y, z} edge must itself be in F_i.
            zero_shipped = s_row[zeros]
            pair_matrix = adjacency[np.ix_(zeros, zeros)] & (
                zero_shipped[:, None] | zero_shipped[None, :]
            )
            first, second = np.nonzero(np.triu(pair_matrix, k=1))
            if first.shape[0] == 0:
                continue
            y = zeros[first]
            z = zeros[second]
            # Every kept pair already has S(y) ∨ S(z); the per-candidate
            # test reduces to S(x) ∨ (Z(x) ∧ S(y) ∧ S(z)), applied in
            # matrix form before any candidate is extracted.
            both_shipped = (s_row[y] & s_row[z])[:, None]
            output = contexts[receiver].output_triangle_keys
            for start in range(0, y.shape[0], pair_chunk):
                end = min(start + pair_chunk, y.shape[0])
                y_chunk = y[start:end]
                z_chunk = z[start:end]
                rows = adjacency[y_chunk] & adjacency[z_chunk]
                rows &= s_row[None, :] | (
                    z_row[None, :] & both_shipped[start:end]
                )
                flat = np.flatnonzero(rows.ravel())
                if flat.shape[0] == 0:
                    continue
                pair_index = flat // num_nodes
                x = flat - pair_index * num_nodes
                yy = y_chunk[pair_index]
                zz = z_chunk[pair_index]
                lo = np.minimum(x, yy)
                hi = np.maximum(x, zz)
                mid = x + yy + zz - lo - hi
                output(triangle_keys(lo, mid, hi, num_nodes))
        return False


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
