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

from ..congest.backends import (
    FUSED_BYTES_PER_ELEMENT,
    chunk_rows,
    fused_chunk_rows,
    gather_spans,
    landmark_incidence,
)
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


def _make_disjointness(
    indptr: np.ndarray,
    indices: np.ndarray,
    landmarks: np.ndarray,
    degrees: np.ndarray,
) -> Optional[np.ndarray]:
    """Return the n×n matrix ``D[j, l] = ({j, l} ∈ ∆(X))``, or ``None``.

    This is the test every node evaluates from its step-2 knowledge: the
    landmark neighbourhoods of ``j`` and ``l`` are disjoint.  A pair fails
    it exactly when both ends neighbour a common landmark, so ``D`` is all
    ``True`` but for one ``N(x) × N(x)`` block per landmark ``x``, cleared
    as whole rows in blocks of the chunk bound: Σ deg(x)·n byte operations,
    where an incidence product ``B·Bᵀ`` costs ``n²·|X|`` multiply-adds.
    The matrix is built only when the n×n precompute amortises (dense
    graphs); on sparse ones, where most pairs are never consulted, the
    result is ``None`` and step 4.1 tests each pair it gathers on packed
    landmark bits instead.  The diagonal is ``False``: S(j, k) never holds
    ``j`` itself.
    """
    num_nodes = degrees.shape[0]
    if not dense_pair_matrix_worthwhile(num_nodes, degrees):
        return None
    disjoint = np.ones((num_nodes, num_nodes), dtype=bool)
    step = chunk_rows(num_nodes)
    for landmark in landmarks.tolist():
        row = indices[indptr[landmark] : indptr[landmark + 1]]
        outside = np.ones(num_nodes, dtype=bool)
        outside[row] = False
        for start in range(0, row.shape[0], step):
            disjoint[row[start : start + step]] &= outside
    np.fill_diagonal(disjoint, False)
    return disjoint


def _delta_pair_test(disjoint, indptr, indices, landmarks):
    """``(test, element_bytes)`` for the step-4.1 gather.

    ``test(receivers, lengths, thirds)`` marks each gathered vertex ``l``
    in ``thirds`` — the next ``lengths[e]`` of them belong to receiver
    ``j = receivers[e]`` — with ``{j, l} ∈ ∆(X)`` and ``l ≠ j``: one
    lookup in ``disjoint`` when it exists, else an AND plus ``any`` of
    the two packed landmark-neighbourhood rows.  ``element_bytes`` sizes
    the gather's chunks to the working set per gathered vertex.
    """
    num_nodes = indptr.shape[0] - 1
    if disjoint is not None:
        flat_disjoint = disjoint.ravel()

        def test(receivers, lengths, thirds):
            keys = np.repeat(receivers * np.int64(num_nodes), lengths)
            keys += thirds
            return flat_disjoint[keys]

        return test, FUSED_BYTES_PER_ELEMENT
    bits = np.packbits(
        landmark_incidence(indptr, indices, landmarks, num_nodes), axis=1
    )

    def test(receivers, lengths, thirds):
        owners = np.repeat(receivers, lengths)
        shared = (bits[owners] & bits[thirds]).any(axis=1)
        return ~shared & (owners != thirds)

    return test, FUSED_BYTES_PER_ELEMENT + 3 * bits.shape[1]


def _row_pointers(rows: np.ndarray, num_nodes: int) -> np.ndarray:
    """CSR ``indptr`` of an entry list whose row ids ``rows`` ascend."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr


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
    chunk_elements = fused_chunk_rows(minimum=4096)
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


def _s_messages_gathered(
    pair_j, pair_k, active_indptr, pair_test, element_bytes, goodness_threshold
):
    """Step 4.1 as one gather over the active directed edges ``(j, k)``.

    ``pair_j``/``pair_k`` are the active subgraph's CSR (``active_indptr``)
    in edge order, so ``j`` — the receiver — ascends.  For each edge the
    gather takes ``k``'s active row ``l`` and keeps ``S(j, k) = {l :
    {j, l} ∈ ∆(X), l ≠ j}`` (``pair_test``); one segment sum per chunk
    gives every |S(j, k)|.  Chunks hold about ``chunk bound /
    element_bytes`` gathered vertices.

    Returns ``(src, dst, lengths, member, withheld_j, withheld_k)``: the
    shipped messages (|S(j, k)| ≤ r) destination-ascending, so the
    delivered channel groups with zero copies, and the withheld pairs.
    """
    active_degrees = np.diff(active_indptr)
    gathered_ends = np.cumsum(active_degrees[pair_k])
    chunk_elements = chunk_rows(element_bytes, minimum=4096)
    chunks = []
    edge_start = 0
    while edge_start < pair_j.shape[0]:
        done = int(gathered_ends[edge_start - 1]) if edge_start else 0
        edge_end = int(
            np.searchsorted(gathered_ends, done + chunk_elements, side="right")
        )
        edge_end = max(edge_end, edge_start + 1)
        receivers = pair_j[edge_start:edge_end]
        senders = pair_k[edge_start:edge_end]
        lengths = active_degrees[senders]
        thirds = pair_k[gather_spans(active_indptr[senders], lengths)]
        member = pair_test(receivers, lengths, thirds)
        # Every gathered row holds ``j``, so no segment is empty and the
        # segment starts strictly ascend, as ``reduceat`` needs.
        segment_starts = gathered_ends[edge_start:edge_end] - done - lengths
        sizes = np.add.reduceat(member, segment_starts, dtype=np.int64)
        shipped = sizes <= goodness_threshold
        if not shipped.all():
            member &= np.repeat(shipped, lengths)
        chunks.append(
            (
                senders[shipped],
                receivers[shipped],
                sizes[shipped],
                thirds[member],
                receivers[~shipped],
                senders[~shipped],
            )
        )
        edge_start = edge_end
    if not chunks:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(6))
    return tuple(np.concatenate(column) for column in zip(*chunks))


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
    * step 4.1 is built receiver-major on every graph, as one
      whole-network gather over the active edges
      (:func:`_s_messages_gathered`), so the S batch is staged
      destination-ascending, and the withholding pairs of step 4.2 fall
      out of the same pass;
    * S and V processing consume the destination-grouped channel columns
      with one whole-network edge-membership oracle call each
      (:func:`_emit_revealed_triangles`).
    """
    num_nodes = simulator.num_nodes
    node_id_bits = id_bits(num_nodes)
    if max_iterations is None:
        max_iterations = _axr_max_iterations(num_nodes)
    csr = simulator.graph.csr()
    indptr, indices = csr.indptr, csr.indices
    degrees = np.diff(indptr)
    contexts = simulator.contexts
    broadcast_src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)

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

    # Step 2: ship N(k) ∩ X to every neighbour — k's landmark row, gathered
    # once per incident edge.
    landmark_mask = in_x[indices]
    landmark_indptr = _row_pointers(broadcast_src[landmark_mask], num_nodes)
    landmark_counts = np.diff(landmark_indptr)
    if broadcast_src.shape[0]:
        position = gather_spans(
            landmark_indptr[broadcast_src], landmark_counts[broadcast_src]
        )
        simulator.stage_columns(
            A3_NX_SCHEMA,
            broadcast_src,
            indices,
            {"member": indices[landmark_mask][position]},
            lengths=landmark_counts[broadcast_src],
        )
    simulator.exchange_phase("A(X,r):2-send-X-neighbourhoods")

    landmarks = np.flatnonzero(in_x)
    disjoint = _make_disjointness(indptr, indices, landmarks, degrees)
    pair_test, element_bytes = _delta_pair_test(
        disjoint, indptr, indices, landmarks
    )

    in_u = np.ones(num_nodes, dtype=bool)
    truncated_by_progress = False
    for _ in range(max_iterations):
        if not in_u.any():
            break
        # The active subgraph as a CSR: row j holds j's active neighbours
        # (empty for retired j); its entries are the active directed edges.
        edge_mask = in_u[broadcast_src] & in_u[indices]
        pair_j = broadcast_src[edge_mask]
        pair_k = indices[edge_mask]
        active_indptr = _row_pointers(pair_j, num_nodes)

        # Step 4.1 — compute and ship the S(j, k) sets, receiver-major.
        (
            s_src,
            s_dst,
            s_lengths,
            s_member,
            withheld_j,
            withheld_k,
        ) = _s_messages_gathered(
            pair_j, pair_k, active_indptr, pair_test, element_bytes, goodness_threshold
        )
        if s_src.shape[0]:
            simulator.stage_columns(
                A3_S_SCHEMA,
                s_src,
                s_dst,
                {"member": s_member},
                lengths=s_lengths,
                bits=np.maximum(s_lengths * node_id_bits, 1),
            )
        delivered = simulator.exchange_phase("A(X,r):4.1-send-S")

        # Receivers list revealed triangles (step 4.2, fused).
        _emit_revealed_triangles(simulator, csr, delivered.channel(A3_S_SCHEMA))

        # Withholding sets V(j): the withheld pairs, ``withheld_j``
        # ascending, so V(j) is row j of their CSR.
        withheld_indptr = _row_pointers(withheld_j, num_nodes)
        withheld_counts = np.diff(withheld_indptr)
        is_good = in_u & (withheld_counts <= goodness_threshold)

        # Step 4.3 — r-good nodes ship V(j) to their active neighbours, in
        # node-ascending order, as the reference closures send it.
        senders = np.flatnonzero(is_good & (withheld_counts > 0))
        if senders.shape[0]:
            targets = np.diff(active_indptr)[senders]
            v_src = np.repeat(senders, targets)
            sizes = withheld_counts[v_src]
            simulator.stage_columns(
                A3_V_SCHEMA,
                v_src,
                pair_k[gather_spans(active_indptr[senders], targets)],
                {"member": withheld_k[gather_spans(withheld_indptr[v_src], sizes)]},
                lengths=sizes,
                bits=np.maximum(sizes * node_id_bits, 1),
            )
        delivered = simulator.exchange_phase("A(X,r):4.3-send-V")
        _emit_revealed_triangles(simulator, csr, delivered.channel(A3_V_SCHEMA))

        # Steps 4.4 / 4.5 — good nodes retire; everyone announces membership.
        retired_any = bool(is_good.any())
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
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        self._epsilon = epsilon
        self._budget_constant = budget_constant
        self._landmark_probability = landmark_probability
        self._goodness_threshold = goodness_threshold
        self._enforce_budget = enforce_budget
        self._kernel = validate_kernel(kernel)
        self._num_nodes_hint: Optional[int] = None

    def describe_parameters(self) -> Dict[str, Any]:
        return {
            "epsilon": self._epsilon,
            "budget_constant": self._budget_constant,
            "landmark_probability": self._landmark_probability,
            "goodness_threshold": self._goodness_threshold,
            "enforce_budget": self._enforce_budget,
            "kernel": self._kernel,
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
