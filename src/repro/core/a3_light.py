"""Algorithm A3: listing the triangles that are *not* ε-heavy.

Proposition 3 / Figure 2 of the paper — the main technical contribution of
the upper-bound section.  The algorithm has two layers:

``A(X, r)`` (Figure 2)
    Given a landmark set ``X ⊆ V`` (each node knows whether it is a
    landmark) and a threshold ``r``, list every triangle whose three edges
    lie in ``∆(X)`` — the set of vertex pairs with no common neighbour
    inside ``X``.  The procedure works on a shrinking active set ``U``
    (initially ``V``):

    1. every node announces whether it is in ``X`` (one bit),
    2. every node sends ``N(k) ∩ X`` to all neighbours (≤ ``|X|`` rounds) —
       afterwards a node can test ``{j, l} ∈ ∆(X)`` for any two of *its own*
       neighbours ``j, l``,
    4.1. every node ``k ∈ U`` computes ``S(j, k) = {l ∈ U : {j,l} ∈ ∆(X),
       {k,l} ∈ E}`` for each neighbour ``j ∈ U`` and ships it to ``j``
       whenever ``|S(j, k)| ≤ r``; the receiver lists the triangles this
       reveals,
    4.2. a node ``j`` is *r-good* when at most ``r`` of its neighbours kept
       ``S(j, k)`` to themselves (``|S(j,k)| > r``),
    4.3. every r-good node ``j`` sends that set of withholding neighbours,
       ``V(j)``, to its neighbours, which list the triangles it reveals,
    4.4/4.5. the r-good nodes retire from ``U`` and everyone learns the new
       membership; the loop repeats on the residual graph.

    Lemma 3 shows that for a random ``X`` at least half the nodes of any
    ``U`` are r-good (w.h.p.), so the loop terminates after ``O(log n)``
    iterations and the total cost is ``O(|X| + r log n)`` rounds.

``A3`` (Proposition 3)
    Pick ``X`` by including each node independently with probability
    ``1/(9 n^ε)`` and run ``A(X, r)`` with ``r = sqrt(54 n^{1+ε} log n)``,
    aborting if the round budget ``c (n^{1-ε} + n^{(1+ε)/2} log n)`` is
    exceeded.  Lemma 2 shows every non-heavy triangle has all three edges in
    ``∆(X)`` with probability ≥ 2/3, so each such triangle is listed with
    constant probability.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Set

import numpy as np

from ..congest.backends import chunk_rows, landmark_incidence, validate_chunk_bytes
from ..congest.node import NodeContext, emit_grouped_keys
from ..congest.simulator import CongestSimulator
from ..congest.wire import (
    A3_IN_U_SCHEMA,
    A3_IN_X_SCHEMA,
    A3_NX_SCHEMA,
    A3_S_SCHEMA,
    A3_V_SCHEMA,
    id_bits,
)
from ..errors import RoundLimitExceededError
from ..types import triangle_keys
from .base import TriangleAlgorithm, dense_pair_matrix_worthwhile, validate_kernel
from .parameters import (
    a3_goodness_threshold,
    a3_landmark_probability,
    a3_round_budget,
)


def _axr_max_iterations(num_nodes: int) -> int:
    """Default while-loop cap: twice the Lemma-3 ``O(log n)`` guarantee."""
    return 2 * max(1, math.ceil(math.log2(max(2, num_nodes)))) + 2


def run_axr(
    simulator: CongestSimulator,
    goodness_threshold: float,
    max_iterations: Optional[int] = None,
    kernel: str = "batched",
) -> bool:
    """Run Algorithm ``A(X, r)`` (Figure 2) on ``simulator``.

    Preconditions: every node context's ``state["in_X"]`` has been set (the
    landmark indicator is each node's private knowledge, exactly as the
    paper requires).

    Parameters
    ----------
    simulator:
        The CONGEST simulator to drive.  Its round limit, if any, is
        honoured: budget exhaustion propagates as
        :class:`~repro.errors.RoundLimitExceededError` to the caller.
    goodness_threshold:
        The threshold ``r``.
    max_iterations:
        Safety cap on while-loop iterations; defaults to ``2 log2 n + 2``
        (twice the Lemma-3 guarantee, to accommodate unlucky landmark sets
        without looping forever).
    kernel:
        ``"batched"`` (default) stages every phase's traffic as columnar
        batches, evaluates the ∆(X) tests as one disjointness matrix, and
        consumes the S/V/announcement phases on the direct-exchange path
        (whole-network edge-membership oracle calls, no per-node inboxes);
        ``"reference"`` runs the per-node closures.  Both kernels execute
        identically (same rounds, bits and outputs).

    Returns
    -------
    bool
        ``True`` when the loop stopped early because no node was r-good in
        some iteration (no further progress possible), ``False`` otherwise.
    """
    validate_kernel(kernel)
    if kernel == "batched":
        return _run_axr_direct(simulator, goodness_threshold, max_iterations)
    return _run_axr_reference(simulator, goodness_threshold, max_iterations)


def _run_axr_reference(
    simulator: CongestSimulator,
    goodness_threshold: float,
    max_iterations: Optional[int] = None,
) -> bool:
    """The per-node closure implementation of ``A(X, r)`` (Figure 2)."""
    num_nodes = simulator.num_nodes
    node_id_bits = id_bits(num_nodes)
    if max_iterations is None:
        max_iterations = _axr_max_iterations(num_nodes)

    # Step 1: announce landmark membership.
    def announce_landmark(context: NodeContext) -> None:
        context.broadcast(("in_X", bool(context.state.get("in_X", False))), bits=1)

    simulator.for_each_node(announce_landmark)
    simulator.run_phase("A(X,r):1-announce-X")

    def record_landmark_neighbors(context: NodeContext) -> None:
        landmark_neighbors: Set[int] = set()
        for sender, payload in context.received():
            _, is_landmark = payload
            if is_landmark:
                landmark_neighbors.add(sender)
        if context.state.get("in_X", False):
            # A node's own membership also matters when it tests pairs of
            # its neighbours: it is a common neighbour of each such pair.
            context.state["self_is_landmark"] = True
        context.state["landmark_neighbors"] = landmark_neighbors

    simulator.for_each_node(record_landmark_neighbors)

    # Step 2: ship N(k) ∩ X to every neighbour.
    def send_landmark_neighborhood(context: NodeContext) -> None:
        landmark_neighbors = sorted(context.state["landmark_neighbors"])
        if context.state.get("in_X", False):
            # From a neighbour's perspective, "N(k) ∩ X" is what it needs to
            # evaluate ∆(X); k itself being a landmark is visible to the
            # neighbour already (step 1), so only the neighbourhood is sent.
            pass
        payload_bits = max(1, len(landmark_neighbors) * node_id_bits)
        context.broadcast(("NX", tuple(landmark_neighbors)), bits=payload_bits)

    simulator.for_each_node(send_landmark_neighborhood)
    simulator.run_phase("A(X,r):2-send-X-neighbourhoods")

    def record_neighbor_landmark_sets(context: NodeContext) -> None:
        per_neighbor: Dict[int, frozenset] = {}
        for sender, payload in context.received():
            _, landmark_ids = payload
            per_neighbor[sender] = frozenset(landmark_ids)
        context.state["neighbor_landmark_sets"] = per_neighbor
        context.state["in_U"] = True
        context.state["neighbors_in_U"] = set(context.neighbors)

    simulator.for_each_node(record_neighbor_landmark_sets)

    def pair_in_delta(context: NodeContext, j: int, l: int) -> bool:
        """Evaluate ``{j, l} ∈ ∆(X)`` from this node's local knowledge.

        Both ``j`` and ``l`` are neighbours of the evaluating node, which
        therefore knows ``N(j) ∩ X`` and ``N(l) ∩ X`` (step 2): the pair is
        in ``∆(X)`` exactly when those sets are disjoint.
        """
        sets = context.state["neighbor_landmark_sets"]
        nj = sets.get(j, frozenset())
        nl = sets.get(l, frozenset())
        return not (nj & nl)

    truncated_by_progress = False
    for _ in range(max_iterations):
        any_active = any(ctx.state["in_U"] for ctx in simulator.contexts)
        if not any_active:
            break

        # Step 4.1 — compute and ship the S(j, k) sets.
        def compute_and_send_s(context: NodeContext) -> None:
            if not context.state["in_U"]:
                return
            active_neighbors = context.state["neighbors_in_U"]
            own_active_neighbors = sorted(active_neighbors)
            for j in own_active_neighbors:
                s_set: List[int] = [
                    l
                    for l in own_active_neighbors
                    if l != j and pair_in_delta(context, j, l)
                ]
                if len(s_set) <= goodness_threshold:
                    payload_bits = max(1, len(s_set) * node_id_bits)
                    context.send(j, ("S", tuple(s_set)), bits=payload_bits)

        simulator.for_each_node(compute_and_send_s)
        simulator.run_phase("A(X,r):4.1-send-S")

        # Receivers list revealed triangles and compute V(j) (step 4.2).
        def process_s_and_decide_goodness(context: NodeContext) -> None:
            if not context.state["in_U"]:
                context.state["is_good"] = False
                return
            received_from: Set[int] = set()
            for sender, payload in context.received():
                _, s_set = payload
                received_from.add(sender)
                for third in s_set:
                    if third in context.neighbors and third != context.node_id:
                        context.output_triangle(context.node_id, sender, third)
            withholding = {
                k
                for k in context.state["neighbors_in_U"]
                if k not in received_from
            }
            context.state["withholding_neighbors"] = withholding
            context.state["is_good"] = len(withholding) <= goodness_threshold

        simulator.for_each_node(process_s_and_decide_goodness)

        # Step 4.3 — r-good nodes ship V(j).
        def send_withholding_sets(context: NodeContext) -> None:
            if not context.state["in_U"] or not context.state["is_good"]:
                return
            withholding = sorted(context.state["withholding_neighbors"])
            if not withholding:
                return
            payload_bits = max(1, len(withholding) * node_id_bits)
            for neighbor in context.state["neighbors_in_U"]:
                context.send(neighbor, ("V", tuple(withholding)), bits=payload_bits)

        simulator.for_each_node(send_withholding_sets)
        simulator.run_phase("A(X,r):4.3-send-V")

        def process_withholding_sets(context: NodeContext) -> None:
            for sender, payload in context.received():
                tag, withheld = payload
                if tag != "V":
                    continue
                for third in withheld:
                    if third in context.neighbors and third != context.node_id:
                        context.output_triangle(context.node_id, sender, third)

        simulator.for_each_node(process_withholding_sets)

        # Steps 4.4 / 4.5 — good nodes retire; everyone announces membership.
        retired_this_round = [
            ctx.node_id
            for ctx in simulator.contexts
            if ctx.state["in_U"] and ctx.state["is_good"]
        ]

        def retire_and_announce(context: NodeContext) -> None:
            if context.state["in_U"] and context.state["is_good"]:
                context.state["in_U"] = False
            context.broadcast(("in_U", context.state["in_U"]), bits=1)

        simulator.for_each_node(retire_and_announce)
        simulator.run_phase("A(X,r):4.5-announce-U")

        def update_neighbor_membership(context: NodeContext) -> None:
            still_active: Set[int] = set()
            for sender, payload in context.received():
                _, in_u = payload
                if in_u:
                    still_active.add(sender)
            context.state["neighbors_in_U"] = still_active

        simulator.for_each_node(update_neighbor_membership)

        if not retired_this_round:
            # No node was r-good: the configuration is now static and more
            # iterations cannot reveal anything new (the landmark set failed
            # Lemma 3's guarantee).  Stop rather than loop until the budget.
            truncated_by_progress = True
            break

    return truncated_by_progress


def _landmark_incidence(
    indptr: np.ndarray, indices: np.ndarray, in_x: np.ndarray
) -> Optional[np.ndarray]:
    """Return ``B[v, i] = (landmark i ∈ N(v))``, or ``None`` for empty X."""
    num_nodes = in_x.shape[0]
    landmarks = np.flatnonzero(in_x)
    if landmarks.shape[0] == 0:
        return None
    return landmark_incidence(indptr, indices, landmarks, num_nodes)


def _make_disjointness(
    incidence: Optional[np.ndarray], num_nodes: int, degrees: np.ndarray
):
    """Return ``(block, full)`` evaluators of ``D[j, l] = ({j, l} ∈ ∆(X))``.

    This is the test every node evaluates from its step-2 knowledge: the
    landmark neighbourhoods of ``j`` and ``l`` are disjoint.  With
    ``B[v, i]`` marking landmark ``i`` adjacent to ``v``, intersection
    sizes are ``B·Bᵀ`` products over the (small) landmark dimension — done
    once for all pairs when the n×n precompute amortises (dense graphs),
    or per neighbour-row block on demand (sparse ones, where most pairs
    are never consulted).

    ``block(vertices)`` returns the pair submatrix over ``vertices``;
    ``full`` is the whole n×n matrix when the dense precompute was used
    (consumed row-wise by the direct kernel's receiver-major step 4.1) and
    ``None`` otherwise.
    """
    if dense_pair_matrix_worthwhile(num_nodes, degrees):
        if incidence is None:
            disjoint = np.ones((num_nodes, num_nodes), dtype=bool)
        else:
            # Stream the B·Bᵀ product in bounded row blocks: the boolean
            # result is n² bytes, but the int64 product intermediate is 8×
            # that — chunking keeps it within the active chunk_bytes budget
            # instead of materialising the full n×n int64 matrix.
            disjoint = np.empty((num_nodes, num_nodes), dtype=bool)
            transposed = incidence.T
            row_block = chunk_rows(8 * num_nodes)
            for start in range(0, num_nodes, row_block):
                end = min(num_nodes, start + row_block)
                disjoint[start:end] = (incidence[start:end] @ transposed) == 0

        def block(vertices: np.ndarray) -> np.ndarray:
            return disjoint[np.ix_(vertices, vertices)]

        return block, disjoint
    if incidence is None:
        return (
            lambda vertices: np.ones(
                (vertices.shape[0], vertices.shape[0]), dtype=bool
            ),
            None,
        )

    def block(vertices: np.ndarray) -> np.ndarray:
        rows = incidence[vertices]
        return (rows @ rows.T) == 0

    return block, None


#: Approximate bytes of intermediates per element in the fused receiver
#: sweeps (receivers/senders/thirds/keys int64 plus the hit masks): the
#: per-block element budget is the active ``chunk_bytes`` divided by this.
#: Chunks keep every intermediate array cache-resident — on the dense
#: workloads a phase carries tens of millions of elements, and streaming
#: ten full-size temporaries through DRAM measures ~5x slower than the
#: same arithmetic over cache-sized blocks.
_FUSED_SWEEP_BYTES_PER_ELEMENT = 16


def _fused_chunk_elements() -> int:
    return chunk_rows(_FUSED_SWEEP_BYTES_PER_ELEMENT, minimum=4096)


def _emit_revealed_triangles(simulator, csr, channel) -> None:
    """List the triangles one delivered S/V channel reveals, fused.

    A message element ``third`` from sender ``k`` reveals the triangle
    ``{receiver, k, third}`` exactly when ``third`` is a neighbour of the
    receiver (steps 4.1/4.3 of Figure 2).  The membership test is the
    vectorized adjacency oracle (:meth:`~repro.graphs.csr.CSRGraph.has_edges`,
    whose self-pairs are always ``False``, covering the ``third ≠
    receiver`` guard); hit triples are canonicalised arithmetically into
    triangle keys (the three vertices are pairwise distinct: the sender
    neighbours the receiver and the third neighbours both).  The sweep
    runs over message-aligned element blocks so every temporary stays
    cache-resident, emitting each block's grouped hits as bulk key
    appends.
    """
    if channel.count == 0:
        return
    num_nodes = simulator.num_nodes
    contexts = simulator.contexts
    thirds = channel.data["member"]
    offsets = channel.offsets
    dst = channel.dst
    src = channel.src
    lengths = channel.lengths
    message_count = channel.count
    message_start = 0
    chunk_elements = _fused_chunk_elements()
    while message_start < message_count:
        element_start = int(offsets[message_start])
        message_end = int(
            np.searchsorted(
                offsets, element_start + chunk_elements, side="left"
            )
        )
        message_end = max(message_end, message_start + 1)
        message_end = min(message_end, message_count)
        element_end = int(offsets[message_end])
        if element_end == element_start:
            message_start = message_end
            continue
        block_lengths = lengths[message_start:message_end]
        block_thirds = thirds[element_start:element_end]
        block_receivers = np.repeat(dst[message_start:message_end], block_lengths)
        revealed = csr.has_edges(block_receivers, block_thirds)
        hits = np.flatnonzero(revealed)
        if hits.shape[0]:
            block_senders = np.repeat(src[message_start:message_end], block_lengths)
            hit_receivers = block_receivers[hits]
            hit_senders = block_senders[hits]
            hit_thirds = block_thirds[hits]
            low = np.minimum(hit_senders, hit_thirds)
            high = np.maximum(hit_senders, hit_thirds)
            lo = np.minimum(low, hit_receivers)
            hi = np.maximum(high, hit_receivers)
            mid = hit_receivers + hit_senders + hit_thirds - lo - hi
            keys = triangle_keys(lo, mid, hi, num_nodes)
            emit_grouped_keys(contexts, hit_receivers, keys)
        message_start = message_end


def _run_axr_direct(
    simulator: CongestSimulator,
    goodness_threshold: float,
    max_iterations: Optional[int] = None,
) -> bool:
    """The direct-exchange kernel for ``A(X, r)``: fused receivers throughout.

    Same traffic, phase for phase, as :func:`_run_axr_reference` — the
    differential suite pins both kernels together — but every phase runs
    through :meth:`~repro.congest.simulator.CongestSimulator.exchange_phase`:

    * the ``in_X``/``in_U`` announcements and the ``N(k) ∩ X``
      neighbourhoods are staged for accounting and never grouped, let
      alone delivered per node (the kernel already holds the flag arrays
      they communicate);
    * S and V processing consume the destination-grouped channel columns
      with one whole-network edge-membership oracle call each
      (:func:`_emit_revealed_triangles`);
    * the withholding sets ``V(j)`` of step 4.2 fall out of one sorted-key
      membership test between the active directed edges and the received
      (receiver, sender) pairs — no per-node ``np.isin`` scans.
    """
    num_nodes = simulator.num_nodes
    node_id_bits = id_bits(num_nodes)
    if max_iterations is None:
        max_iterations = _axr_max_iterations(num_nodes)
    csr = simulator.graph.csr()
    indptr, indices = csr.indptr, csr.indices
    degrees = np.diff(indptr)
    contexts = simulator.contexts
    all_nodes = np.arange(num_nodes, dtype=np.int64)
    broadcast_src = np.repeat(all_nodes, degrees)
    n64 = np.int64(num_nodes)

    in_x = np.fromiter(
        (bool(context.state.get("in_X", False)) for context in contexts),
        dtype=bool,
        count=num_nodes,
    )

    # Step 1: announce landmark membership (one bit per incident edge).
    if broadcast_src.shape[0]:
        simulator.stage_columns(
            A3_IN_X_SCHEMA,
            broadcast_src,
            indices,
            {"flag": in_x[broadcast_src].astype(np.int64)},
        )
    simulator.exchange_phase("A(X,r):1-announce-X")

    # Step 2: ship N(k) ∩ X to every neighbour.
    landmark_rows = [
        indices[indptr[node] : indptr[node + 1]][
            in_x[indices[indptr[node] : indptr[node + 1]]]
        ]
        for node in range(num_nodes)
    ]
    landmark_counts = np.asarray(
        [row.shape[0] for row in landmark_rows], dtype=np.int64
    )
    if broadcast_src.shape[0]:
        tiled = [
            np.tile(landmark_rows[node], int(degrees[node]))
            for node in range(num_nodes)
            if degrees[node]
        ]
        simulator.stage_columns(
            A3_NX_SCHEMA,
            broadcast_src,
            indices,
            {
                "member": np.concatenate(tiled)
                if tiled
                else np.empty(0, dtype=np.int64)
            },
            lengths=landmark_counts[broadcast_src],
        )
    simulator.exchange_phase("A(X,r):2-send-X-neighbourhoods")

    disjoint_block, disjoint_full = _make_disjointness(
        _landmark_incidence(indptr, indices, in_x), num_nodes, degrees
    )
    # The receiver-major step-4.1 build needs row access to both the ∆(X)
    # matrix and the boolean adjacency; both exist on dense graphs only.
    adjacency = (
        csr._bool_matrix()
        if disjoint_full is not None and csr._use_dense()
        else None
    )

    in_u = np.ones(num_nodes, dtype=bool)
    truncated_by_progress = False
    for _ in range(max_iterations):
        if not in_u.any():
            break
        active_nodes = np.flatnonzero(in_u)
        active_rows = {
            int(node): indices[indptr[node] : indptr[node + 1]][
                in_u[indices[indptr[node] : indptr[node + 1]]]
            ]
            for node in active_nodes.tolist()
        }

        if adjacency is not None:
            # Step 4.1, receiver-major: for receiver ``j`` the messages
            # S(j, k) over all active neighbours ``k`` are the rows of one
            # boolean product — adjacency rows of the k's AND-ed with
            # ``j``'s ∆(X) row restricted to active l ≠ j.  Row sums give
            # |S(j, k)| (the shipping test *and* the withheld pairs fall
            # out of the same pass), and the flat nonzero positions are
            # the member column, already in destination-ascending staged
            # order — the delivered channel groups with zero copies.  The
            # staged message multiset is identical to the sender-major
            # build below.
            stage_src_chunks: List[np.ndarray] = []
            stage_dst_chunks: List[np.ndarray] = []
            stage_length_chunks: List[np.ndarray] = []
            stage_member_chunks: List[np.ndarray] = []
            withheld_j_chunks: List[np.ndarray] = []
            withheld_k_chunks: List[np.ndarray] = []
            for receiver in active_nodes.tolist():
                sender_row = active_rows[receiver]
                if sender_row.shape[0] == 0:
                    continue
                member_mask = disjoint_full[receiver] & in_u
                member_mask[receiver] = False
                rows = adjacency[sender_row] & member_mask[None, :]
                counts = rows.sum(axis=1)
                shipped = counts <= goodness_threshold
                if not shipped.all():
                    kept_back = sender_row[~shipped]
                    withheld_j_chunks.append(
                        np.full(kept_back.shape[0], receiver, dtype=np.int64)
                    )
                    withheld_k_chunks.append(kept_back)
                if shipped.any():
                    flat = np.flatnonzero(rows[shipped].ravel())
                    stage_src_chunks.append(sender_row[shipped])
                    stage_dst_chunks.append(
                        np.full(int(shipped.sum()), receiver, dtype=np.int64)
                    )
                    stage_length_chunks.append(counts[shipped])
                    stage_member_chunks.append(flat % np.int64(num_nodes))
            if stage_src_chunks:
                lengths = np.concatenate(stage_length_chunks)
                simulator.stage_columns(
                    A3_S_SCHEMA,
                    np.concatenate(stage_src_chunks),
                    np.concatenate(stage_dst_chunks),
                    {"member": np.concatenate(stage_member_chunks)},
                    lengths=lengths,
                    bits=np.maximum(lengths * node_id_bits, 1),
                )
            withheld_j = (
                np.concatenate(withheld_j_chunks)
                if withheld_j_chunks
                else np.empty(0, dtype=np.int64)
            )
            withheld_k = (
                np.concatenate(withheld_k_chunks)
                if withheld_k_chunks
                else np.empty(0, dtype=np.int64)
            )
        else:
            # Step 4.1, sender-major (sparse fallback).
            sender_nodes: List[int] = []
            sender_counts: List[int] = []
            target_chunks: List[np.ndarray] = []
            length_chunks: List[np.ndarray] = []
            member_chunks: List[np.ndarray] = []
            for node in active_nodes.tolist():
                active_neighbors = active_rows[node]
                if active_neighbors.shape[0] == 0:
                    continue
                candidate = disjoint_block(active_neighbors)
                np.fill_diagonal(candidate, False)
                set_sizes = candidate.sum(axis=1)
                shipped = set_sizes <= goodness_threshold
                if not shipped.any():
                    continue
                sender_nodes.append(node)
                targets = active_neighbors[shipped]
                sender_counts.append(int(targets.shape[0]))
                target_chunks.append(targets)
                length_chunks.append(set_sizes[shipped])
                member_chunks.append(
                    active_neighbors[np.nonzero(candidate[shipped])[1]]
                )
            if sender_nodes:
                lengths = np.concatenate(length_chunks)
                simulator.stage_columns(
                    A3_S_SCHEMA,
                    np.repeat(
                        np.asarray(sender_nodes, dtype=np.int64),
                        np.asarray(sender_counts, dtype=np.int64),
                    ),
                    np.concatenate(target_chunks),
                    {
                        "member": np.concatenate(member_chunks)
                        if lengths.sum()
                        else np.empty(0, dtype=np.int64)
                    },
                    lengths=lengths,
                    bits=np.maximum(lengths * node_id_bits, 1),
                )
            withheld_j = withheld_k = None
        delivered = simulator.exchange_phase("A(X,r):4.1-send-S")
        s_channel = delivered.channel(A3_S_SCHEMA)

        # Receivers list revealed triangles (step 4.2, fused).
        _emit_revealed_triangles(simulator, csr, s_channel)

        if withheld_j is None:
            # Withholding sets V(j), fused: among the active→active
            # directed edges (j, k), exactly those without a received
            # (j ← k) S message were withheld.  Both sides reduce to
            # sorted int64 key arrays.
            pair_mask = in_u[broadcast_src] & in_u[indices]
            pair_j = broadcast_src[pair_mask]
            pair_k = indices[pair_mask]
            if s_channel.count:
                received_keys = np.sort(s_channel.dst * n64 + s_channel.src)
                query_keys = pair_j * n64 + pair_k
                positions = np.searchsorted(received_keys, query_keys)
                received = np.zeros(query_keys.shape, dtype=bool)
                in_range = positions < received_keys.shape[0]
                received[in_range] = (
                    received_keys[positions[in_range]] == query_keys[in_range]
                )
            else:
                received = np.zeros(pair_j.shape, dtype=bool)
            withheld_j = pair_j[~received]
            withheld_k = pair_k[~received]
        withheld_counts = np.bincount(withheld_j, minlength=num_nodes)
        is_good = np.zeros(num_nodes, dtype=bool)
        is_good[active_nodes] = withheld_counts[active_nodes] <= goodness_threshold

        # Step 4.3 — r-good nodes ship V(j) to their active neighbours.
        # ``withheld_j`` is ascending (CSR order), so the staged batch is
        # built node-ascending, as the reference closures send it.
        sender_nodes = []
        sender_counts = []
        target_chunks = []
        member_chunks = []
        set_size_list: List[int] = []
        if withheld_j.shape[0]:
            group_starts = np.flatnonzero(
                np.concatenate(([True], withheld_j[1:] != withheld_j[:-1]))
            ).tolist()
            group_bounds = group_starts[1:] + [int(withheld_j.shape[0])]
            for which, start in enumerate(group_starts):
                node = int(withheld_j[start])
                if not is_good[node]:
                    continue
                withheld = withheld_k[start : group_bounds[which]]
                active_neighbors = active_rows[node]
                sender_nodes.append(node)
                sender_counts.append(int(active_neighbors.shape[0]))
                target_chunks.append(active_neighbors)
                member_chunks.append(np.tile(withheld, active_neighbors.shape[0]))
                set_size_list.append(int(withheld.shape[0]))
        if sender_nodes:
            counts = np.asarray(sender_counts, dtype=np.int64)
            sizes = np.asarray(set_size_list, dtype=np.int64)
            simulator.stage_columns(
                A3_V_SCHEMA,
                np.repeat(np.asarray(sender_nodes, dtype=np.int64), counts),
                np.concatenate(target_chunks),
                {"member": np.concatenate(member_chunks)},
                lengths=np.repeat(sizes, counts),
                bits=np.repeat(np.maximum(sizes * node_id_bits, 1), counts),
            )
        delivered = simulator.exchange_phase("A(X,r):4.3-send-V")
        _emit_revealed_triangles(simulator, csr, delivered.channel(A3_V_SCHEMA))

        # Steps 4.4 / 4.5 — good nodes retire; everyone announces membership.
        retired_any = bool((in_u & is_good).any())
        in_u = in_u & ~is_good
        if broadcast_src.shape[0]:
            simulator.stage_columns(
                A3_IN_U_SCHEMA,
                broadcast_src,
                indices,
                {"flag": in_u[broadcast_src].astype(np.int64)},
            )
        simulator.exchange_phase("A(X,r):4.5-announce-U")

        if not retired_any:
            # No node was r-good: the configuration is now static and more
            # iterations cannot reveal anything new (the landmark set failed
            # Lemma 3's guarantee).  Stop rather than loop until the budget.
            truncated_by_progress = True
            break

    return truncated_by_progress


class LightTrianglesLister(TriangleAlgorithm):
    """Algorithm A3 (Proposition 3): list every triangle that is not ε-heavy.

    Parameters
    ----------
    epsilon:
        The heaviness exponent ε.
    budget_constant:
        The constant ``c`` in the round budget
        ``c (n^{1-ε} + n^{(1+ε)/2} log n)``.
    landmark_probability:
        Override for the landmark sampling probability (default
        ``1/(9 n^ε)``); exposed for ablations.
    goodness_threshold:
        Override for ``r`` (default ``sqrt(54 n^{1+ε} log n)``).
    enforce_budget:
        When ``False`` the round budget is not enforced (useful for studying
        the untruncated behaviour of unlucky runs).
    kernel:
        ``"batched"`` (default) runs the direct-exchange fused ``A(X, r)``
        kernel; ``"reference"`` the per-node closures.  Identical executions for
        the same seed.
    """

    name = "A3-light-listing"
    model = "CONGEST"

    def __init__(
        self,
        epsilon: float,
        budget_constant: float = 8.0,
        landmark_probability: Optional[float] = None,
        goodness_threshold: Optional[float] = None,
        enforce_budget: bool = True,
        kernel: str = "batched",
        chunk_bytes: Optional[int] = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        self._epsilon = epsilon
        self._budget_constant = budget_constant
        self._landmark_probability = landmark_probability
        self._goodness_threshold = goodness_threshold
        self._enforce_budget = enforce_budget
        self._kernel = validate_kernel(kernel)
        self.chunk_bytes = validate_chunk_bytes(chunk_bytes)
        self._num_nodes_hint: Optional[int] = None

    def describe_parameters(self) -> Dict[str, Any]:
        return {
            "epsilon": self._epsilon,
            "budget_constant": self._budget_constant,
            "landmark_probability": self._landmark_probability,
            "goodness_threshold": self._goodness_threshold,
            "enforce_budget": self._enforce_budget,
            "kernel": self._kernel,
            "chunk_bytes": self.chunk_bytes,
        }

    def _build_simulator(self, graph, seed):  # type: ignore[override]
        round_limit = None
        if self._enforce_budget:
            round_limit = a3_round_budget(
                graph.num_nodes, self._epsilon, self._budget_constant
            )
        return CongestSimulator(graph, seed=seed, round_limit=round_limit)

    def _execute(self, simulator: CongestSimulator) -> bool:
        num_nodes = simulator.num_nodes
        probability = (
            self._landmark_probability
            if self._landmark_probability is not None
            else a3_landmark_probability(num_nodes, self._epsilon)
        )
        threshold = (
            self._goodness_threshold
            if self._goodness_threshold is not None
            else a3_goodness_threshold(num_nodes, self._epsilon)
        )

        def select_landmark(context: NodeContext) -> None:
            context.state["in_X"] = bool(context.rng.random() < probability)

        simulator.for_each_node(select_landmark)
        try:
            return run_axr(simulator, threshold, kernel=self._kernel)
        except RoundLimitExceededError:
            # The paper's A3 stops as soon as the budget is exceeded and
            # keeps whatever has been output so far.
            return True


def expected_rounds(num_nodes: int, epsilon: float) -> float:
    """Return the Proposition-3 round bound ``n^{1-ε} + n^{(1+ε)/2} log n``."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    n = float(num_nodes)
    log_n = max(1.0, math.log2(max(2, num_nodes)))
    return n ** (1.0 - epsilon) + n ** ((1.0 + epsilon) / 2.0) * log_n
