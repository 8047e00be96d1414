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
from .base import TriangleAlgorithm, close_edges, validate_kernel
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
        sizes-only batch and lists what the samples reveal by closing each
        sampled edge over its common neighbours, from the graph;
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

    def _execute_direct(
        self, simulator: CongestSimulator, probability: float, cap: float
    ) -> bool:
        """The direct-exchange kernel: samples staged by size, listed from the graph.

        Per-node randomness is drawn exactly as the reference closure draws
        it (one ``rng.random(degree)`` mask over the sorted neighbour row,
        in node order, skipping isolated nodes), so seeded runs coincide.
        The broadcast — one message per (sender, neighbour) pair,
        sender-major, each carrying the sender's whole sample — is staged
        by its sizes alone
        (:meth:`~repro.congest.simulator.CongestSimulator.stage_sizes`):
        a neighbour ``k`` of ``j`` lists ``{j, k, l}`` for ``l ∈ S_j ∩
        N(k)``, so the kernel closes every sampled edge ``(j, l)`` of a
        sender over its common neighbours ``k`` and credits ``k``
        (:func:`~repro.core.base.close_edges`).  No sample element is ever
        staged, grouped or probed per receiver.
        """
        num_nodes = simulator.num_nodes
        csr = simulator.graph.csr()
        indptr, indices = csr.indptr, csr.indices
        degrees = np.diff(indptr)
        rngs = simulator.node_rngs
        # ``kept`` is aligned with the CSR entries: isolated nodes draw
        # nothing, and their rows are empty.
        draws = [rngs[node].random(degrees[node]) for node in np.flatnonzero(degrees)]
        kept = np.concatenate(draws) < probability if draws else np.zeros(0, dtype=bool)
        owners = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
        sample_sizes = np.bincount(owners[kept], minlength=num_nodes)
        senders = np.flatnonzero((sample_sizes > 0) & (sample_sizes <= cap))
        if senders.shape[0]:
            src = np.repeat(senders, degrees[senders])
            lengths = sample_sizes[src]
            simulator.stage_sizes(
                A1_SAMPLE_SCHEMA,
                src,
                indices[gather_spans(indptr[senders], degrees[senders])],
                lengths=lengths,
                bits=lengths * id_bits(num_nodes),
            )
        simulator.exchange_phase("A1:send-samples")
        sampled = kept & (sample_sizes <= cap)[owners]
        j, l = owners[sampled], indices[sampled]
        for _, _, receivers, keys in close_edges(
            csr, np.minimum(j, l), np.maximum(j, l), indptr, indices
        ):
            simulator.output_table.emit_grouped(receivers, keys)
        return False


def expected_rounds(num_nodes: int, epsilon: float) -> float:
    """Return the Proposition-1 round bound ``4 n^{1-ε}`` for reference plots."""
    return a1_sample_cap(num_nodes, epsilon)
