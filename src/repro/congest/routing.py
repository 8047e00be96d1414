"""Lenzen's routing primitive for the CONGEST clique.

Dolev, Lenzen and Peled's deterministic triangle-listing algorithm (the
``O(n^{1/3} (log n)^{2/3})`` row of Table 1) relies on Lenzen's routing
theorem: *any* routing instance on the congested clique in which every node
is the source of at most ``n`` messages and the destination of at most ``n``
messages (each of ``O(log n)`` bits) can be delivered in ``O(1)`` rounds.

Re-deriving Lenzen's routing schedule is outside the scope of this
reproduction; instead the primitive is modelled faithfully at the level the
baseline needs: a routing instance is delivered in

    ``constant · max over nodes of ⌈ max(sent_i, received_i) / n ⌉``

rounds, where ``sent_i`` / ``received_i`` count ``O(log n)``-bit message
units.  With loads at most ``n`` this is exactly the ``O(1)`` guarantee; with
larger loads the instance is split into batches of ``n`` messages per node,
which is how the guarantee is applied in the literature.  The constant
(default 2) reflects the two balancing phases of Lenzen's scheme and is
configurable so sensitivity can be explored.

The implementation rides the runtime kernel's vectorized message plane:
per-node load tallies are ``np.bincount`` reductions over the request
arrays and delivery reuses the kernel's grouped fan-out, so instances with
hundreds of thousands of requests (the clique listing baseline routes one
message per edge per triple) avoid per-message dict bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from ..errors import SimulationError, TopologyError
from ..types import NodeId
from .clique import CliqueSimulator
from .metrics import PhaseReport
from .runtime import (
    DeliveredPhase,
    PhaseTraffic,
    build_typed_channel,
    empty_traffic,
    record_deliveries,
)
from .wire import WireSchema, default_bit_size

_EMPTY_OBJECTS = np.empty(0, dtype=object)


@dataclass(frozen=True)
class RoutingRequest:
    """One message of a clique routing instance."""

    source: NodeId
    destination: NodeId
    payload: Any
    bits: Optional[int] = None


class LenzenRouter:
    """Deliver batched routing instances on a :class:`CliqueSimulator`.

    Parameters
    ----------
    simulator:
        The clique simulator whose nodes exchange the messages and whose
        metrics are charged.
    constant_rounds:
        The constant factor of Lenzen's O(1) guarantee (default 2).
    """

    def __init__(self, simulator: CliqueSimulator, constant_rounds: int = 2) -> None:
        if not isinstance(simulator, CliqueSimulator):
            raise SimulationError(
                "LenzenRouter requires a CliqueSimulator: Lenzen's routing "
                "theorem only holds for the congested clique"
            )
        if constant_rounds < 1:
            raise SimulationError(
                f"constant_rounds must be at least 1, got {constant_rounds}"
            )
        self._simulator = simulator
        self._constant_rounds = constant_rounds

    def route(self, requests: Sequence[RoutingRequest], name: str = "lenzen-routing") -> PhaseReport:
        """Deliver ``requests`` and charge the corresponding rounds.

        Every request is delivered to its destination node's inbox (the
        destination sees the original source as the sender, as it would after
        Lenzen's relabelling).  The charged round count is

            ``constant · ⌈ max_i max(sent_i, received_i) / n ⌉``

        where message units are ``⌈bits / B⌉`` chunks of the per-round
        bandwidth ``B``.

        Returns
        -------
        PhaseReport
            The cost of the routing phase, also recorded in the simulator's
            metrics.
        """
        num_nodes = self._simulator.num_nodes
        count = len(requests)

        src = np.fromiter(
            (request.source for request in requests), dtype=np.int64, count=count
        )
        dst = np.fromiter(
            (request.destination for request in requests), dtype=np.int64, count=count
        )
        bits = np.fromiter(
            (
                request.bits
                if request.bits is not None
                else default_bit_size(request.payload, num_nodes)
                for request in requests
            ),
            dtype=np.int64,
            count=count,
        )
        payloads = np.fromiter(
            (request.payload for request in requests), dtype=object, count=count
        )

        self._validate_endpoints(src, dst)
        traffic = PhaseTraffic(src=src, dst=dst, bits=bits, payloads=payloads)
        return self._deliver_instance(traffic, name).report

    def route_columns_direct(
        self,
        schema: WireSchema,
        src: np.ndarray,
        dst: np.ndarray,
        data: dict,
        lengths: Optional[np.ndarray] = None,
        bits: Optional[np.ndarray | int] = None,
        name: str = "lenzen-routing",
    ) -> DeliveredPhase:
        """Route a columnar instance on the **direct-exchange** path.

        The batched counterpart of :meth:`route`: the whole instance
        arrives as ``(src, dst, columns)`` arrays, per-message sizes come
        from ``schema.bit_size`` (one vectorized reduction), and round/bit
        accounting is identical to :meth:`route` for the same messages.
        The delivered edges come back as a
        :class:`~repro.congest.runtime.DeliveredPhase` of destination-
        grouped channel arrays — no per-node inbox objects are built.
        """
        traffic = self._columnar_instance(schema, src, dst, data, lengths, bits)
        return self._deliver_instance(traffic, name)

    def _columnar_instance(
        self,
        schema: WireSchema,
        src: np.ndarray,
        dst: np.ndarray,
        data: dict,
        lengths: Optional[np.ndarray],
        bits: Optional[np.ndarray | int],
    ) -> PhaseTraffic:
        """Validate and assemble a columnar instance into phase traffic."""
        channel = build_typed_channel(
            schema, src, dst, data, lengths, bits, self._simulator.num_nodes
        )
        if channel is None:
            return empty_traffic()
        self._validate_endpoints(channel.src, channel.dst)
        return PhaseTraffic(
            src=channel.src,
            dst=channel.dst,
            bits=channel.bits,
            payloads=_EMPTY_OBJECTS,
            channels=(channel,),
        )

    def _validate_endpoints(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Reject self-sends and out-of-range endpoints, vectorized."""
        if not src.shape[0]:
            return
        num_nodes = self._simulator.num_nodes
        self_sends = np.flatnonzero(src == dst)
        if self_sends.shape[0]:
            raise TopologyError(
                f"routing request from node {int(src[self_sends[0]])} to itself"
            )
        out_of_range = np.flatnonzero(
            (src < 0) | (src >= num_nodes) | (dst < 0) | (dst >= num_nodes)
        )
        if out_of_range.shape[0]:
            first = int(out_of_range[0])
            raise TopologyError(
                f"routing request references nodes outside the network: "
                f"{int(src[first])} -> {int(dst[first])}"
            )

    def _deliver_instance(self, traffic: PhaseTraffic, name: str) -> DeliveredPhase:
        """Charge Lenzen rounds for ``traffic``, deliver it and enforce the budget.

        Object payloads go into inboxes; typed channels come back in the
        :class:`~repro.congest.runtime.DeliveredPhase`.  As in
        :meth:`~repro.congest.runtime.CongestRuntime.complete_phase`, the
        phase is recorded and delivered before the round budget is
        checked, so an exhausted budget still counts the routing phase that
        exhausted it.
        """
        report = self._account_instance(traffic, name)
        runtime = self._simulator.runtime
        runtime.deliver(traffic)
        runtime.enforce_round_limit()
        return DeliveredPhase(report, traffic.channels)

    def _account_instance(self, traffic: PhaseTraffic, name: str) -> PhaseReport:
        """Charge Lenzen rounds and record the delivery tallies."""
        num_nodes = self._simulator.num_nodes
        bandwidth_bits = self._simulator.bandwidth.bits_per_round(num_nodes)
        count = traffic.count
        if count == 0:
            rounds = 0
        else:
            units = np.maximum(1, -(-traffic.bits // bandwidth_bits))
            sent_units = np.bincount(traffic.src, weights=units, minlength=num_nodes)
            received_units = np.bincount(
                traffic.dst, weights=units, minlength=num_nodes
            )
            max_units = int(max(sent_units.max(), received_units.max()))
            rounds = self._constant_rounds * max(1, math.ceil(max_units / num_nodes))

        report = PhaseReport(
            name=name,
            rounds=rounds,
            messages=count,
            bits=traffic.total_bits,
            max_link_bits=0,
        )
        metrics = self._simulator.metrics
        metrics.record_phase(report)
        record_deliveries(metrics, traffic)
        return report
