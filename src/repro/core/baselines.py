"""Baseline algorithms the paper's contributions are measured against.

Two baselines live here:

* :class:`NaiveTwoHopListing` — the folklore algorithm described in the
  paper's introduction: every node ships its entire neighbourhood to all its
  neighbours, after which each node knows its distance-two ball and can list
  every triangle it belongs to.  The cost is ``Θ(d_max)`` rounds, which is
  linear in ``n`` on dense graphs — this is the linear wall the sublinear
  algorithms of Theorems 1 and 2 break through.  Because every node outputs
  exactly the triangles containing itself, this is also a *local listing*
  algorithm in the sense of Proposition 5, so it doubles as the measured
  witness for the ``Ω(n/log n)`` local-listing lower bound.  Like the
  paper's protocols it has two kernels: the ``batched`` array program
  (default) and the ``reference`` per-node closures.

* The Dolev–Lenzen–Peled CONGEST-clique baseline lives in its own module,
  :mod:`repro.core.clique_dolev`, because it needs the clique simulator and
  the Lenzen routing primitive.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from ..congest.backends import gather_spans
from ..congest.node import NodeContext
from ..congest.simulator import CongestSimulator
from ..congest.wire import NAIVE_NEIGHBORHOOD_SCHEMA, id_bits
from .base import TriangleAlgorithm, emit_revealed_triangles, validate_kernel


class NaiveTwoHopListing(TriangleAlgorithm):
    """Folklore ``Θ(d_max)``-round listing by full neighbourhood exchange.

    Every node broadcasts ``N(i)`` to all its neighbours; afterwards each
    node ``k`` knows ``N(j)`` for every neighbour ``j`` and reports every
    triangle ``{j, k, l}`` it belongs to.  The heaviest link carries
    ``d_max`` node identifiers, so the measured round complexity is
    ``max_j |N(j)|`` over edges incident to ``j`` — i.e. ``d_max`` rounds.

    Every node outputs only triangles containing itself (it *is* a local
    listing algorithm), which the recorded parameters state as
    ``local_output_only``.

    Parameters
    ----------
    kernel:
        ``"batched"`` (default) stages every neighbourhood as one columnar
        batch and lists triangles with one chunked edge-membership sweep
        over the delivered elements; ``"reference"`` runs the per-node
        closures.  Identical costs and per-node triangle sets.
    """

    name = "naive-two-hop"
    model = "CONGEST"

    def __init__(self, kernel: str = "batched") -> None:
        self._kernel = validate_kernel(kernel)

    def describe_parameters(self) -> Dict[str, Any]:
        return {"local_output_only": True, "kernel": self._kernel}

    def _execute(self, simulator: CongestSimulator) -> bool:
        if self._kernel == "batched":
            return self._execute_direct(simulator)
        return self._execute_reference(simulator)

    def _execute_reference(self, simulator: CongestSimulator) -> bool:
        num_nodes = simulator.num_nodes

        def send_neighborhood(context: NodeContext) -> None:
            neighbors = context.sorted_neighbors()
            if not neighbors:
                return
            payload_bits = len(neighbors) * id_bits(num_nodes)
            context.broadcast(("N", tuple(neighbors)), bits=payload_bits)

        simulator.for_each_node(send_neighborhood)
        simulator.run_phase("naive:exchange-neighbourhoods")

        def list_triangles(context: NodeContext) -> None:
            own_neighbors = context.neighbors
            for sender, payload in context.received():
                _, sender_neighbors = payload
                for third in sender_neighbors:
                    if third == context.node_id or third == sender:
                        continue
                    if third in own_neighbors:
                        context.output_triangle(context.node_id, sender, third)

        simulator.for_each_node(list_triangles)
        return False

    def _execute_direct(self, simulator: CongestSimulator) -> bool:
        """The direct-exchange kernel: one staged batch, one fused sweep.

        Same traffic as the reference closures: the message ``j → k``
        carries ``N(j)`` for every directed edge, staged receiver-major
        (row ``k`` of the CSR lists its senders ``j``), so the delivered
        channel groups without a copy.  Receiver ``k`` then lists
        ``{j, k, l}`` for each element ``l > j`` of ``N(j)`` that
        neighbours ``k`` — each of its triangles once, where the closures
        list it once per sender; the per-node sets are the same.
        """
        csr = simulator.graph.csr()
        indptr, indices = csr.indptr, csr.indices
        degrees = np.diff(indptr)
        if indices.shape[0]:
            receivers = np.repeat(np.arange(degrees.shape[0], dtype=np.int64), degrees)
            lengths = degrees[indices]
            simulator.stage_columns(
                NAIVE_NEIGHBORHOOD_SCHEMA,
                indices,
                receivers,
                {"member": indices[gather_spans(indptr[indices], lengths)]},
                lengths=lengths,
                bits=lengths * id_bits(simulator.num_nodes),
            )
        delivered = simulator.exchange_phase("naive:exchange-neighbourhoods")
        emit_revealed_triangles(
            simulator.output_table,
            csr,
            delivered.channel(NAIVE_NEIGHBORHOOD_SCHEMA),
            above_sender=True,
        )
        return False
