"""Algorithm A1: finding an ε-heavy triangle by neighbourhood sampling.

Proposition 1 of the paper.  The protocol is a single communication phase:

1. Every node ``j`` builds a random sample ``S_j ⊆ N(j)`` by keeping each
   neighbour independently with probability ``n^{-ε}``.
2. If ``|S_j| <= 4 n^{1-ε}`` the node sends ``S_j`` to every neighbour
   (otherwise it stays silent — an oversized sample would blow the round
   budget, and the analysis shows the cap is met with constant probability).
3. Every neighbour ``k`` of ``j`` computes ``N(k) ∩ S_j`` locally and
   outputs the triangle ``{j, k, l}`` for every ``l`` in the intersection.

If some edge ``{j, k}`` is contained in at least ``n^ε`` triangles, then
with constant probability the sample of ``j`` hits one of the ``n^ε``
common neighbours and is small enough to be sent, so *some* ε-heavy triangle
is reported.  The communication cost is at most ``4 n^{1-ε}`` node
identifiers per edge, i.e. ``O(n^{1-ε})`` rounds.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from ..congest.node import NodeContext, emit_grouped_keys
from ..congest.simulator import CongestSimulator
from ..congest.wire import A1_SAMPLE_SCHEMA, id_bits
from ..types import triangle_keys
from .a3_light import _fused_chunk_elements
from .base import TriangleAlgorithm, validate_kernel
from .parameters import a1_sample_cap, a1_sampling_probability


class HeavySamplingFinder(TriangleAlgorithm):
    """Algorithm A1 (Proposition 1): sample neighbourhoods to hit a heavy edge.

    Parameters
    ----------
    epsilon:
        The heaviness exponent ε.  The triangle guarantee only covers
        ε-heavy triangles; the composite finding algorithm pairs A1 with A3,
        which covers the rest.
    sample_cap_constant:
        The constant in the sample-size cap ``4 n^{1-ε}``; exposed so the
        ablation benchmarks can study its effect.
    kernel:
        ``"batched"`` (default) stages every node's sample broadcast as one
        columnar batch and runs detection as a single whole-network
        membership test over the direct-exchange channel arrays;
        ``"reference"`` runs the per-node closures.  Identical executions
        for the same seed.
    """

    name = "A1-heavy-sampling"
    model = "CONGEST"

    def __init__(
        self,
        epsilon: float,
        sample_cap_constant: float = 4.0,
        kernel: str = "batched",
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
        if sample_cap_constant <= 0:
            raise ValueError(
                f"sample_cap_constant must be positive, got {sample_cap_constant}"
            )
        self._epsilon = epsilon
        self._sample_cap_constant = sample_cap_constant
        self._kernel = validate_kernel(kernel)

    def describe_parameters(self) -> Dict[str, Any]:
        return {
            "epsilon": self._epsilon,
            "sample_cap_constant": self._sample_cap_constant,
            "kernel": self._kernel,
        }

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def _execute(self, simulator: CongestSimulator) -> bool:
        num_nodes = simulator.num_nodes
        probability = a1_sampling_probability(num_nodes, self._epsilon)
        cap = (
            self._sample_cap_constant / 4.0
        ) * a1_sample_cap(num_nodes, self._epsilon)
        if self._kernel == "batched":
            return self._execute_direct(simulator, probability, cap)
        return self._execute_reference(simulator, probability, cap)

    def _execute_reference(
        self, simulator: CongestSimulator, probability: float, cap: float
    ) -> bool:
        num_nodes = simulator.num_nodes

        def sample_and_send(context: NodeContext) -> None:
            neighbors = context.sorted_neighbors()
            if not neighbors:
                return
            mask = context.rng.random(len(neighbors)) < probability
            sample: List[int] = [
                neighbor for neighbor, keep in zip(neighbors, mask) if keep
            ]
            context.state["sample"] = sample
            if len(sample) > cap:
                return
            if not sample:
                return
            payload_bits = len(sample) * id_bits(num_nodes)
            for neighbor in neighbors:
                context.send(neighbor, ("sample", tuple(sample)), bits=payload_bits)

        simulator.for_each_node(sample_and_send)
        simulator.run_phase("A1:send-samples")

        def detect(context: NodeContext) -> None:
            own_neighbors = context.neighbors
            for sender, payload in context.received():
                _, sample = payload
                for candidate in sample:
                    if candidate == context.node_id:
                        continue
                    if candidate in own_neighbors:
                        context.output_triangle(sender, context.node_id, candidate)

        simulator.for_each_node(detect)
        return False

    def _stage_samples(
        self, simulator: CongestSimulator, probability: float, cap: float
    ) -> None:
        """Draw every node's sample and stage the broadcasts columnar.

        Per-node randomness is drawn exactly as the reference closure draws
        it (one ``rng.random(degree)`` mask over the sorted neighbour row),
        so seeded runs coincide; the whole phase's traffic lands on the
        plane in one ``stage_columns`` call.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        indptr, indices = csr.indptr, csr.indices
        contexts = simulator.contexts
        node_id_bits = id_bits(num_nodes)

        sender_nodes: List[int] = []
        sender_degrees: List[int] = []
        sample_chunks: List[np.ndarray] = []
        for context in contexts:
            node = context.node_id
            row = indices[indptr[node] : indptr[node + 1]]
            if row.shape[0] == 0:
                continue
            mask = context.rng.random(row.shape[0]) < probability
            sample = row[mask]
            context.state["sample"] = sample.tolist()
            if sample.shape[0] == 0 or sample.shape[0] > cap:
                continue
            sender_nodes.append(node)
            sender_degrees.append(int(row.shape[0]))
            sample_chunks.append(sample)
        if sender_nodes:
            senders = np.asarray(sender_nodes, dtype=np.int64)
            degrees = np.asarray(sender_degrees, dtype=np.int64)
            sizes = np.asarray(
                [chunk.shape[0] for chunk in sample_chunks], dtype=np.int64
            )
            # One message per (sender, neighbour) pair, each carrying the
            # sender's whole sample.
            simulator.stage_columns(
                A1_SAMPLE_SCHEMA,
                np.repeat(senders, degrees),
                np.concatenate(
                    [
                        indices[indptr[node] : indptr[node + 1]]
                        for node in sender_nodes
                    ]
                ),
                {
                    "member": np.concatenate(
                        [
                            np.tile(chunk, degree)
                            for chunk, degree in zip(sample_chunks, sender_degrees)
                        ]
                    )
                },
                lengths=np.repeat(sizes, degrees),
                bits=np.repeat(sizes * node_id_bits, degrees),
            )

    def _execute_direct(
        self, simulator: CongestSimulator, probability: float, cap: float
    ) -> bool:
        """The direct-exchange kernel: fused whole-network detection.

        Same traffic as the reference closures; delivery comes
        back as destination-grouped channel arrays and the ``N(k) ∩ S_j``
        test runs as a vectorized edge-membership query over the
        (receiver, candidate) elements — no per-node inboxes or loops,
        only a per-receiver output emit over the grouped hits.  The sweep
        streams message-aligned element blocks bounded by the chunk
        bound, so peak memory stays flat however large the phase's
        traffic is.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        contexts = simulator.contexts
        self._stage_samples(simulator, probability, cap)
        delivered = simulator.exchange_phase("A1:send-samples")
        channel = delivered.channel(A1_SAMPLE_SCHEMA)
        if channel.count == 0:
            return False
        candidates = channel.data["member"]
        offsets = channel.offsets
        dst = channel.dst
        src = channel.src
        lengths = channel.lengths
        message_count = channel.count
        chunk_elements = _fused_chunk_elements()
        message_start = 0
        while message_start < message_count:
            element_start = int(offsets[message_start])
            message_end = int(
                np.searchsorted(offsets, element_start + chunk_elements, side="left")
            )
            message_end = max(message_end, message_start + 1)
            message_end = min(message_end, message_count)
            element_end = int(offsets[message_end])
            if element_end == element_start:
                message_start = message_end
                continue
            block_lengths = lengths[message_start:message_end]
            block_candidates = candidates[element_start:element_end]
            block_receivers = np.repeat(dst[message_start:message_end], block_lengths)
            mask = (block_candidates != block_receivers) & csr.has_edges(
                block_receivers, block_candidates
            )
            hits = np.flatnonzero(mask)
            if hits.shape[0]:
                block_senders = np.repeat(
                    src[message_start:message_end], block_lengths
                )
                hit_receivers = block_receivers[hits]
                hit_senders = block_senders[hits]
                hit_candidates = block_candidates[hits]
                low = np.minimum(hit_senders, hit_candidates)
                high = np.maximum(hit_senders, hit_candidates)
                lo = np.minimum(low, hit_receivers)
                hi = np.maximum(high, hit_receivers)
                mid = hit_receivers + hit_senders + hit_candidates - lo - hi
                keys = triangle_keys(lo, mid, hi, num_nodes)
                emit_grouped_keys(contexts, hit_receivers, keys)
            message_start = message_end
        return False


def expected_rounds(num_nodes: int, epsilon: float) -> float:
    """Return the Proposition-1 round bound ``4 n^{1-ε}`` for reference plots."""
    return a1_sample_cap(num_nodes, epsilon)
