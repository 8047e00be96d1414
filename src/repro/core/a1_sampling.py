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

from ..congest.backends import gather_spans
from ..congest.node import NodeContext
from ..congest.simulator import CongestSimulator
from ..congest.wire import A1_SAMPLE_SCHEMA, id_bits
from .base import TriangleAlgorithm, emit_revealed_triangles, validate_kernel
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
        it (one ``rng.random(degree)`` mask over the sorted neighbour row,
        in node order, skipping isolated nodes), so seeded runs coincide.
        Everything after the draws is one array program over the CSR, and
        the whole phase's traffic lands on the plane in one
        ``stage_columns`` call: one message per (sender, neighbour) pair,
        sender-major, each carrying the sender's whole sample.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        indptr, indices = csr.indptr, csr.indices
        degrees = np.diff(indptr)
        if indices.shape[0] == 0:
            return
        rngs = simulator.node_rngs
        # ``kept`` is aligned with the CSR entries: isolated nodes draw
        # nothing, and their rows are empty.
        kept = (
            np.concatenate(
                [rngs[node].random(degrees[node]) for node in np.flatnonzero(degrees)]
            )
            < probability
        )
        owners = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        sample_sizes = np.bincount(owners[kept], minlength=num_nodes)
        senders = np.flatnonzero((sample_sizes > 0) & (sample_sizes <= cap))
        if senders.shape[0] == 0:
            return
        sample_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(sample_sizes, out=sample_indptr[1:])
        samples = indices[kept]
        src = np.repeat(senders, degrees[senders])
        lengths = sample_sizes[src]
        simulator.stage_columns(
            A1_SAMPLE_SCHEMA,
            src,
            indices[gather_spans(indptr[senders], degrees[senders])],
            {"member": samples[gather_spans(sample_indptr[src], lengths)]},
            lengths=lengths,
            bits=lengths * id_bits(num_nodes),
        )

    def _execute_direct(
        self, simulator: CongestSimulator, probability: float, cap: float
    ) -> bool:
        """The direct-exchange kernel: fused whole-network detection.

        Same traffic as the reference closures; delivery comes back as
        destination-grouped channel arrays and the ``N(k) ∩ S_j`` test runs
        as the shared chunked edge-membership sweep over the (receiver,
        candidate) elements (:func:`~repro.core.base.emit_revealed_triangles`)
        — no per-node inboxes, contexts or loops.
        """
        self._stage_samples(simulator, probability, cap)
        delivered = simulator.exchange_phase("A1:send-samples")
        emit_revealed_triangles(
            simulator.output_table,
            simulator.graph.csr(),
            delivered.channel(A1_SAMPLE_SCHEMA),
        )
        return False


def expected_rounds(num_nodes: int, epsilon: float) -> float:
    """Return the Proposition-1 round bound ``4 n^{1-ε}`` for reference plots."""
    return a1_sample_cap(num_nodes, epsilon)
