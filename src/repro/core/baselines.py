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
  witness for the ``Ω(n/log n)`` local-listing lower bound.

* The Dolev–Lenzen–Peled CONGEST-clique baseline lives in its own module,
  :mod:`repro.core.clique_dolev`, because it needs the clique simulator and
  the Lenzen routing primitive.
"""

from __future__ import annotations

from typing import Any, Dict

from ..congest.node import NodeContext
from ..congest.simulator import CongestSimulator
from ..congest.wire import id_bits
from .base import TriangleAlgorithm


class NaiveTwoHopListing(TriangleAlgorithm):
    """Folklore ``Θ(d_max)``-round listing by full neighbourhood exchange.

    Every node broadcasts ``N(i)`` to all its neighbours; afterwards each
    node ``k`` knows ``N(j)`` for every neighbour ``j`` and reports every
    triangle ``{j, k, l}`` it belongs to.  The heaviest link carries
    ``d_max`` node identifiers, so the measured round complexity is
    ``max_j |N(j)|`` over edges incident to ``j`` — i.e. ``d_max`` rounds.

    The algorithm takes no parameters.  Every node outputs only triangles
    containing itself (it *is* a local listing algorithm), which the
    recorded parameters state as ``local_output_only``.
    """

    name = "naive-two-hop"
    model = "CONGEST"

    def describe_parameters(self) -> Dict[str, Any]:
        return {"local_output_only": True}

    def _execute(self, simulator: CongestSimulator) -> bool:
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


def naive_round_bound(max_degree: int) -> float:
    """Return the naive baseline's round bound ``d_max`` (reference curve)."""
    return float(max_degree)


class LocalListing(NaiveTwoHopListing):
    """Alias emphasising the Proposition-5 setting.

    Proposition 5 concerns algorithms in which each node must output all the
    triangles *containing itself*.  The naive two-hop exchange is the
    canonical such algorithm; this subclass only renames it so experiment
    tables read naturally.
    """

    name = "local-listing"
