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

    The batched kernel (:func:`_run_axr_direct`) simulates step 4.1
    without listing any S set.  Only ``|S(j, k)|`` (the round charge and
    the withheld pairs) and the triangles the sets reveal matter.  The
    sizes are counted from each node's landmark neighbourhood packed into
    uint64 words (:func:`_s_sizes`), and ``l ∈ S(j, k) ∩ N(j)`` holds
    exactly when ``{j, k, l}`` is an active triangle, ``S(j, k)`` shipped
    and ``{j, l} ∈ ∆(X)``, so the revealed triangles are credited along
    the ∆(X)-disjoint edges of the active triangles
    (:func:`_emit_s_revealed`).  While every edge is active they come from
    one forward walk of the triangle oracle, whose completed count
    verification then reuses.

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
    landmark_words,
    shares_landmark,
    sorted_membership,
    words_meet,
)
from ..congest.node import NodeContext
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
from .base import TriangleAlgorithm, close_edges, validate_kernel
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
    landmarks: np.ndarray,
    goodness_threshold: float,
    max_iterations: Optional[int] = None,
    kernel: str = "batched",
) -> bool:
    """Run Algorithm ``A(X, r)`` (Figure 2) on ``simulator``.

    Parameters
    ----------
    simulator:
        The CONGEST simulator to drive.  Its round limit, if any, is
        honoured: budget exhaustion propagates as
        :class:`~repro.errors.RoundLimitExceededError` to the caller.
    landmarks:
        ``bool[n]``: ``landmarks[v]`` says whether node ``v`` is in ``X``.
        Each node reads only its own entry: the landmark indicator is a
        node's private knowledge, exactly as the paper requires.
    goodness_threshold:
        The threshold ``r``.
    max_iterations:
        Safety cap on while-loop iterations; defaults to ``2 log2 n + 2``
        (twice the Lemma-3 guarantee, to accommodate unlucky landmark sets
        without looping forever).
    kernel:
        ``"batched"`` (default) runs every phase on the direct-exchange
        path: every phase is staged by its sizes alone, step 4.1's S sets
        are counted from landmark words, and the triangles the S and V
        sets reveal are listed from the graph (no per-node inboxes);
        ``"reference"`` runs the per-node closures.  Both kernels execute
        identically (same rounds, bits and outputs).

    Returns
    -------
    bool
        ``True`` when the loop stopped early because no node was r-good in
        some iteration (no further progress possible), ``False`` otherwise.
    """
    validate_kernel(kernel)
    landmarks = np.asarray(landmarks, dtype=bool)
    if kernel == "batched":
        return _run_axr_direct(simulator, landmarks, goodness_threshold, max_iterations)
    return _run_axr_reference(simulator, landmarks, goodness_threshold, max_iterations)


def _run_axr_reference(
    simulator: CongestSimulator,
    landmarks: np.ndarray,
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
        context.broadcast(("in_X", bool(landmarks[context.node_id])), bits=1)

    simulator.for_each_node(announce_landmark)
    simulator.run_phase("A(X,r):1-announce-X")

    def record_landmark_neighbors(context: NodeContext) -> None:
        landmark_neighbors: Set[int] = set()
        for sender, payload in context.received():
            _, is_landmark = payload
            if is_landmark:
                landmark_neighbors.add(sender)
        context.state["landmark_neighbors"] = landmark_neighbors

    simulator.for_each_node(record_landmark_neighbors)

    # Step 2: ship N(k) ∩ X to every neighbour.
    def send_landmark_neighborhood(context: NodeContext) -> None:
        # k's own membership is visible to its neighbours already (step 1),
        # so only the neighbourhood ``N(k) ∩ X`` is sent.
        landmark_neighbors = sorted(context.state["landmark_neighbors"])
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


def _row_pointers(rows: np.ndarray, num_nodes: int) -> np.ndarray:
    """CSR ``indptr`` of an entry list whose row ids ``rows`` ascend."""
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
    return indptr


def _s_sizes(pair_j, pair_k, active_indptr, words, covered):
    """Every ``|S(j, k)|`` of step 4.1, counted without listing any S set.

    ``pair_j``/``pair_k`` are the active subgraph's CSR (``active_indptr``)
    in edge order, receiver ``j`` ascending.  ``S(j, k)`` is ``N_a(k) \
    {j}`` minus the ``l`` that share a landmark with ``j``, where ``N_a``
    is the active neighbourhood.  Only a covered ``j`` (one with a
    landmark neighbour) shares a landmark with anyone, and only with
    covered ``l``, so the gather runs over covered receivers × the covered
    part of ``N_a(k)``, and each pair is one AND of landmark words
    (:func:`~repro.congest.backends.words_meet`).  The count takes
    ``l = j`` too — a covered ``j`` shares with itself and neighbours
    ``k`` — so no segment is empty and one is subtracted back.  The words
    of the covered entries are gathered once per call, so a gathered
    vertex costs one word gather per column; chunks hold about ``chunk
    bound / element bytes`` gathered vertices.
    """
    num_nodes = active_indptr.shape[0] - 1
    active_degrees = np.diff(active_indptr)
    sizes = active_degrees[pair_k] - 1
    picked = np.flatnonzero(covered[pair_j])
    if picked.shape[0] == 0:
        return sizes
    covered_third = covered[pair_k]
    covered_indptr = _row_pointers(pair_j[covered_third], num_nodes)
    entry_words = [column[pair_k[covered_third]] for column in words]
    receivers = pair_j[picked]
    senders = pair_k[picked]
    lengths = np.diff(covered_indptr)[senders]
    gathered_ends = np.cumsum(lengths)
    element_bytes = FUSED_BYTES_PER_ELEMENT + 16 * len(words)
    chunk_elements = chunk_rows(element_bytes, minimum=4096)
    shared = np.empty(picked.shape[0], dtype=np.int64)
    pair_start = 0
    while pair_start < picked.shape[0]:
        done = int(gathered_ends[pair_start - 1]) if pair_start else 0
        pair_end = int(
            np.searchsorted(gathered_ends, done + chunk_elements, side="right")
        )
        pair_end = max(pair_end, pair_start + 1)
        block = slice(pair_start, pair_end)
        positions = gather_spans(covered_indptr[senders[block]], lengths[block])
        meet = words_meet(
            [np.repeat(column[receivers[block]], lengths[block]) for column in words],
            [column[positions] for column in entry_words],
        )
        segment_starts = gathered_ends[block] - done - lengths[block]
        shared[block] = np.add.reduceat(meet, segment_starts, dtype=np.int64)
        pair_start = pair_end
    sizes[picked] -= shared - 1
    return sizes


def _emit_s_revealed(output, csr, pair_j, pair_k, active_indptr, words, withheld):
    """List every triangle the shipped S sets of step 4.1 reveal, from the graph.

    A receiver ``j`` lists ``{j, k, l}`` for ``l ∈ S(j, k) ∩ N(j)``, which
    holds exactly when ``{j, k, l}`` is a triangle of active nodes,
    ``S(j, k)`` shipped and ``{j, l} ∈ ∆(X)``.  So each ∆(X)-disjoint
    active edge ``{u, v}`` of a triangle ``{u, v, x}`` of active nodes
    credits the triangle to ``u`` when ``S(u, x)`` shipped and to ``v``
    when ``S(v, x)`` shipped.  ``withheld`` holds the ascending keys
    ``j·n + k`` of the pairs whose ``S(j, k)`` was withheld; it is probed
    only when non-empty.  Triangles whose three pairs all share a landmark
    are credited to no one.

    When every edge is active (the first iteration, and at every size this
    repository runs the only one) and the graph is off its dense
    strategy, the triangles come from one forward walk of the oracle
    (:func:`_emit_forward_revealed`), which leaves the oracle's triangle
    count memoised for verification.  Otherwise the ∆(X)-disjoint active
    edges are closed over their common active neighbours
    (:func:`_emit_closed_revealed`): a later iteration's triangles are only
    those of its active nodes, and on the dense strategy the forward walk
    measured slower than the closure, which is bound by its output.
    """
    if pair_j.shape[0] == csr.indices.shape[0] and not csr._use_dense():
        _emit_forward_revealed(output, csr, words, withheld)
    else:
        _emit_closed_revealed(output, csr, pair_j, pair_k, active_indptr, words, withheld)


def _emit_closed_revealed(output, csr, pair_j, pair_k, active_indptr, words, withheld):
    """:func:`_emit_s_revealed` by closing every ∆(X)-disjoint active edge.

    Each edge ``{u, v}`` is closed over its common active neighbours ``x``
    (:func:`~repro.core.base.close_edges` over the active rows), so each
    triangle is found once from each of its disjoint edges.
    """
    num_nodes = csr.num_nodes
    canonical = pair_j < pair_k
    us, vs = pair_j[canonical], pair_k[canonical]
    disjoint = np.flatnonzero(~shares_landmark(words, us, vs))
    us, vs = us[disjoint], vs[disjoint]
    for u, v, x, keys in close_edges(csr, us, vs, active_indptr, pair_k):
        receivers = np.concatenate((u, v))
        keys = np.concatenate((keys, keys))
        if withheld.shape[0]:
            senders = np.concatenate((x, x))
            shipped = ~sorted_membership(withheld, receivers * np.int64(num_nodes) + senders)
            receivers, keys = receivers[shipped], keys[shipped]
        output.emit_grouped(receivers, keys)


def _emit_forward_revealed(output, csr, words, withheld):
    """:func:`_emit_s_revealed` with every edge active, from the oracle's walk.

    Each triangle ``{a < b < c}`` of
    :meth:`~repro.graphs.csr.CSRGraph.iter_triangle_chunks` is handed to
    its three edges ``(p, q)`` with third vertex ``r`` —
    ``(a, b; c)``, ``(a, c; b)`` and ``(b, c; a)`` — and a ∆(X)-disjoint
    edge credits it to ``p`` when ``S(p, r)`` shipped and to ``q`` when
    ``S(q, r)`` shipped: the (receiver, key) multiset that closing the
    disjoint edges emits, found once per triangle instead of once per
    edge.  The walk's chunks are regrouped into blocks of at least as
    many triangles as the chunk bound holds six credits of, and each
    block is emitted sorted by receiver (a radix sort of the narrowest id
    type), so the output table keeps about one run per receiver and block
    instead of one per credit.
    """
    num_nodes = csr.num_nodes
    receiver_type = np.min_scalar_type(num_nodes)
    for rows in _regrouped(csr.iter_triangle_chunks(), fused_chunk_rows(6)):
        a, b, c = rows.T
        keys = triangle_keys(a, b, c, num_nodes)
        receivers, credited = [], []
        for p, q, r in ((a, b, c), (a, c, b), (b, c, a)):
            disjoint = ~shares_landmark(words, p, q)
            for end in (p, q):
                hit = disjoint
                if withheld.shape[0]:
                    hit = hit & ~sorted_membership(withheld, end * np.int64(num_nodes) + r)
                receivers.append(end[hit])
                credited.append(keys[hit])
        receivers = np.concatenate(receivers)
        order = np.argsort(receivers.astype(receiver_type), kind="stable")
        output.emit_grouped(receivers[order], np.concatenate(credited)[order])


def _regrouped(chunks, rows):
    """Concatenate consecutive ``chunks`` into blocks of at least ``rows``
    rows (the last block may hold fewer)."""
    pending, held = [], 0
    for chunk in chunks:
        pending.append(chunk)
        held += chunk.shape[0]
        if held >= rows:
            yield np.concatenate(pending)
            pending, held = [], 0
    if pending:
        yield np.concatenate(pending)


def _run_axr_direct(
    simulator: CongestSimulator,
    in_x: np.ndarray,
    goodness_threshold: float,
    max_iterations: Optional[int] = None,
) -> bool:
    """The direct-exchange kernel for ``A(X, r)``: no receiver reads a payload.

    Same traffic, phase for phase, as :func:`_run_axr_reference` — the
    differential suite pins both kernels together — but every phase runs
    through :meth:`~repro.congest.simulator.CongestSimulator.exchange_phase`:

    * every phase — the ``in_X``/``in_U`` announcements, the ``N(k) ∩ X``
      neighbourhoods, the step-4.1 S sets and the step-4.3 V sets — is
      staged by its sizes alone
      (:meth:`~repro.congest.simulator.CongestSimulator.stage_sizes`):
      no receiver reads them, since the kernel already holds what they
      communicate;
    * step 4.1 never lists an S set.  Every ``|S(j, k)|`` is counted from
      the landmark words (:func:`_s_sizes`), which fixes the round charge
      and the withheld pairs of step 4.2, and the triangles the shipped
      sets reveal are listed from the graph along the ∆(X)-disjoint edges
      of the active triangles (:func:`_emit_s_revealed`);
    * the triangles step 4.3's V sets reveal are listed the same way: each
      withheld pair ``(j, l)`` of an r-good ``j`` is closed over its common
      active neighbours, crediting the neighbour
      (:func:`~repro.core.base.close_edges`).
    """
    num_nodes = simulator.num_nodes
    node_id_bits = id_bits(num_nodes)
    if max_iterations is None:
        max_iterations = _axr_max_iterations(num_nodes)
    csr = simulator.graph.csr()
    indptr, indices = csr.indptr, csr.indices
    degrees = np.diff(indptr)
    output = simulator.output_table
    broadcast_src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)

    # Step 1: announce landmark membership (one bit per incident edge).
    if broadcast_src.shape[0]:
        simulator.stage_sizes(A3_IN_X_SCHEMA, broadcast_src, indices)
    simulator.exchange_phase("A(X,r):1-announce-X")

    # Step 2: ship N(k) ∩ X to every neighbour — |N(k) ∩ X| ids per edge.
    landmark_counts = np.bincount(
        broadcast_src[in_x[indices]], minlength=num_nodes
    )
    if broadcast_src.shape[0]:
        simulator.stage_sizes(
            A3_NX_SCHEMA,
            broadcast_src,
            indices,
            lengths=landmark_counts[broadcast_src],
        )
    simulator.exchange_phase("A(X,r):2-send-X-neighbourhoods")

    words = landmark_words(indptr, indices, np.flatnonzero(in_x), num_nodes)
    covered = landmark_counts > 0

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

        # Step 4.1 — k ships S(j, k) to j when |S(j, k)| ≤ r.  The withheld
        # pairs come out ``j`` ascending, then ``k``.
        sizes = _s_sizes(pair_j, pair_k, active_indptr, words, covered)
        shipped = sizes <= goodness_threshold
        withheld_j = pair_j[~shipped]
        withheld_k = pair_k[~shipped]
        if shipped.any():
            s_lengths = sizes[shipped]
            simulator.stage_sizes(
                A3_S_SCHEMA,
                pair_k[shipped],
                pair_j[shipped],
                lengths=s_lengths,
                bits=np.maximum(s_lengths * node_id_bits, 1),
            )
        simulator.exchange_phase("A(X,r):4.1-send-S")

        # Receivers list revealed triangles (step 4.2, fused).
        _emit_s_revealed(
            output,
            csr,
            pair_j,
            pair_k,
            active_indptr,
            words,
            withheld_j * np.int64(num_nodes) + withheld_k,
        )

        # Withholding sets V(j): the withheld pairs, ``withheld_j``
        # ascending, so V(j) is row j of their CSR.
        withheld_indptr = _row_pointers(withheld_j, num_nodes)
        withheld_counts = np.diff(withheld_indptr)
        is_good = in_u & (withheld_counts <= goodness_threshold)

        # Step 4.3 — r-good nodes ship V(j) to their active neighbours, in
        # node-ascending order, as the reference closures send it.  A
        # receiver k lists {j, k, l} for l ∈ V(j) ∩ N(k): the withheld pairs
        # (j, l) of good j, closed over their common active neighbours k.
        senders = np.flatnonzero(is_good & (withheld_counts > 0))
        if senders.shape[0]:
            targets = np.diff(active_indptr)[senders]
            v_src = np.repeat(senders, targets)
            v_sizes = withheld_counts[v_src]
            simulator.stage_sizes(
                A3_V_SCHEMA,
                v_src,
                pair_k[gather_spans(active_indptr[senders], targets)],
                lengths=v_sizes,
                bits=np.maximum(v_sizes * node_id_bits, 1),
            )
        simulator.exchange_phase("A(X,r):4.3-send-V")
        shipped_v = is_good[withheld_j]
        v_j, v_l = withheld_j[shipped_v], withheld_k[shipped_v]
        for _, _, receivers, keys in close_edges(
            csr, np.minimum(v_j, v_l), np.maximum(v_j, v_l), active_indptr, pair_k
        ):
            output.emit_grouped(receivers, keys)

        # Steps 4.4 / 4.5 — good nodes retire; everyone announces membership.
        retired_any = bool(is_good.any())
        in_u = in_u & ~is_good
        if broadcast_src.shape[0]:
            simulator.stage_sizes(A3_IN_U_SCHEMA, broadcast_src, indices)
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

        # One draw per node, in node order, from each node's own generator.
        landmarks = np.fromiter(
            (rng.random() < probability for rng in simulator.node_rngs),
            dtype=bool,
            count=num_nodes,
        )
        try:
            return run_axr(simulator, landmarks, threshold, kernel=self._kernel)
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
