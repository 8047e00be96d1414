"""BFS spanning trees and convergecast aggregation on the CONGEST simulator.

Several natural companions of triangle listing — counting the triangles of
the whole network, or agreeing on whether any node found one — need a global
aggregation step: combine one small value per node into a single result at a
root.  The textbook tool is a BFS spanning tree plus a convergecast, costing
``O(D)`` rounds each, where ``D`` is the diameter.  The paper leaves this
step implicit (its problems only require *local* outputs); we provide it as
a substrate so the counting extension (:mod:`repro.core.counting`) and the
examples can report network-wide aggregates while still charging honest
CONGEST rounds.

Both routines are phase-structured protocols driven on an existing
:class:`~repro.congest.simulator.CongestSimulator`, so their cost simply adds
to whatever algorithm ran before them on the same simulator.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import SimulationError
from ..types import NodeId
from .node import NodeContext
from .simulator import CongestSimulator
from .wire import id_bits, integer_bits


def build_bfs_tree(
    simulator: CongestSimulator, root: NodeId = 0, max_depth: Optional[int] = None
) -> Dict[NodeId, Optional[NodeId]]:
    """Build a BFS spanning tree rooted at ``root`` by synchronous flooding.

    Each phase, the current frontier announces itself; unvisited neighbours
    adopt the first announcer (lowest identifier) as their parent and form
    the next frontier.  The number of phases equals the eccentricity of the
    root, i.e. the round cost is ``O(D)``, one round per depth level (each
    announcement is a single identifier).

    Returns
    -------
    dict
        Mapping ``node -> parent`` (``None`` for the root).  Nodes in other
        connected components do not appear; callers needing full coverage
        should check the mapping size.

    Side effects: each context's ``state`` gains ``"bfs_parent"``,
    ``"bfs_children"`` and ``"bfs_depth"`` entries, which
    :func:`convergecast_sum` consumes.
    """
    if not (0 <= root < simulator.num_nodes):
        raise SimulationError(f"root {root} is not a node of the network")
    if max_depth is None:
        max_depth = simulator.num_nodes

    def initialise(context: NodeContext) -> None:
        is_root = context.node_id == root
        context.state["bfs_parent"] = None
        context.state["bfs_visited"] = is_root
        context.state["bfs_children"] = set()
        context.state["bfs_depth"] = 0 if is_root else None
        context.state["bfs_frontier"] = is_root

    simulator.for_each_node(initialise)

    for depth in range(1, max_depth + 1):
        frontier = [
            ctx for ctx in simulator.contexts if ctx.state.get("bfs_frontier")
        ]
        if not frontier:
            break

        def announce(context: NodeContext) -> None:
            if context.state.get("bfs_frontier"):
                context.broadcast_bits(
                    ("bfs", context.node_id), bits=id_bits(context.num_nodes)
                )

        simulator.for_each_node(announce)
        simulator.run_phase(f"bfs:level-{depth}")

        def adopt_parent(context: NodeContext, current_depth: int = depth) -> None:
            context.state["bfs_frontier"] = False
            if context.state["bfs_visited"]:
                return
            announcers = sorted(
                sender for sender, payload in context.received() if payload[0] == "bfs"
            )
            if not announcers:
                return
            context.state["bfs_visited"] = True
            context.state["bfs_parent"] = announcers[0]
            context.state["bfs_depth"] = current_depth
            context.state["bfs_frontier"] = True

        simulator.for_each_node(adopt_parent)

        # Parents learn their children (one acknowledgement identifier each).
        def acknowledge(context: NodeContext) -> None:
            parent = context.state.get("bfs_parent")
            if context.state.get("bfs_frontier") and parent is not None:
                context.send(parent, ("bfs-ack", context.node_id), bits=id_bits(context.num_nodes))

        simulator.for_each_node(acknowledge)
        simulator.run_phase(f"bfs:ack-level-{depth}")

        def record_children(context: NodeContext) -> None:
            for sender, payload in context.received():
                if payload[0] == "bfs-ack":
                    context.state["bfs_children"].add(sender)

        simulator.for_each_node(record_children)

    return {
        ctx.node_id: ctx.state["bfs_parent"]
        for ctx in simulator.contexts
        if ctx.state["bfs_visited"]
    }


def convergecast_sum(
    simulator: CongestSimulator,
    value_of: Callable[[NodeContext], int],
    root: NodeId = 0,
) -> int:
    """Sum one integer per node up a previously built BFS tree.

    Requires :func:`build_bfs_tree` to have been run on the same simulator
    (it reads the ``bfs_*`` state entries).  Leaves send their values first;
    each internal node forwards the sum of its subtree once all children have
    reported, so the protocol takes one phase per tree level (``O(D)``
    rounds; each message is one ``O(log n)``-bit integer, assuming the summed
    values are polynomially bounded as they are for triangle counts).

    Returns
    -------
    int
        The sum over all nodes reachable from the root.
    """
    contexts = simulator.contexts
    if "bfs_visited" not in contexts[root].state:
        raise SimulationError("convergecast_sum requires build_bfs_tree to run first")

    depths = [
        ctx.state["bfs_depth"]
        for ctx in contexts
        if ctx.state.get("bfs_visited") and ctx.state.get("bfs_depth") is not None
    ]
    max_level = max(depths) if depths else 0

    def initialise(context: NodeContext) -> None:
        if context.state.get("bfs_visited"):
            context.state["cc_partial"] = int(value_of(context))
        else:
            context.state["cc_partial"] = 0
        context.state["cc_pending"] = set(context.state.get("bfs_children", set()))

    simulator.for_each_node(initialise)

    # Level-synchronous convergecast: at step k, nodes at depth (max - k)
    # whose children have all reported send their partial sum upward.
    for step in range(max_level, 0, -1):
        def send_up(context: NodeContext, level: int = step) -> None:
            if not context.state.get("bfs_visited"):
                return
            if context.state.get("bfs_depth") != level:
                return
            parent = context.state.get("bfs_parent")
            if parent is None:
                return
            partial = context.state["cc_partial"]
            context.send(parent, ("cc", partial), bits=max(1, integer_bits(partial)))

        simulator.for_each_node(send_up)
        simulator.run_phase(f"convergecast:level-{step}")

        def absorb(context: NodeContext) -> None:
            for sender, payload in context.received():
                if payload[0] == "cc":
                    context.state["cc_partial"] += int(payload[1])
                    context.state["cc_pending"].discard(sender)

        simulator.for_each_node(absorb)

    return int(contexts[root].state["cc_partial"])


def broadcast_from_root(
    simulator: CongestSimulator, value: int, root: NodeId = 0
) -> None:
    """Push a value from the root down the BFS tree (one phase per level).

    After completion every reachable node's ``state["broadcast_value"]``
    holds the value.  Used to disseminate a global aggregate (e.g. the total
    triangle count) back to all nodes.
    """
    contexts = simulator.contexts
    if "bfs_visited" not in contexts[root].state:
        raise SimulationError("broadcast_from_root requires build_bfs_tree to run first")

    depths = [
        ctx.state["bfs_depth"]
        for ctx in contexts
        if ctx.state.get("bfs_visited") and ctx.state.get("bfs_depth") is not None
    ]
    max_level = max(depths) if depths else 0
    contexts[root].state["broadcast_value"] = int(value)

    for level in range(0, max_level):
        def push_down(context: NodeContext, current: int = level) -> None:
            if context.state.get("bfs_depth") != current:
                return
            if "broadcast_value" not in context.state:
                return
            payload_value = context.state["broadcast_value"]
            children = sorted(context.state.get("bfs_children", set()))
            if children:
                payload = ("bc", payload_value)
                context.bulk_send(
                    children,
                    [payload] * len(children),
                    bits=max(1, integer_bits(payload_value)),
                )

        simulator.for_each_node(push_down)
        simulator.run_phase(f"tree-broadcast:level-{level}")

        def receive_value(context: NodeContext) -> None:
            for _, payload in context.received():
                if payload[0] == "bc":
                    context.state["broadcast_value"] = int(payload[1])

        simulator.for_each_node(receive_value)
