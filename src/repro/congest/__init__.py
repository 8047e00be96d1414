"""CONGEST and CONGEST-clique simulation substrate.

:class:`~repro.congest.simulator.CongestSimulator` runs every protocol in
this package: phase-based execution with exact per-phase round accounting.
It is a thin policy layer over one execution kernel,
:class:`~repro.congest.runtime.CongestRuntime`, whose vectorized message
plane (:class:`~repro.congest.runtime.MessagePlane`) batches sends into
numpy arrays and performs delivery fan-out and traffic aggregation with
``np.bincount``-style reductions instead of per-message Python loops.

The clique variant (:class:`~repro.congest.clique.CliqueSimulator`) and the
Lenzen routing primitive (:class:`~repro.congest.routing.LenzenRouter`)
support the CONGEST-clique baselines and lower-bound experiments.
"""

from .aggregation import broadcast_from_root, build_bfs_tree, convergecast_sum
from .bandwidth import DEFAULT_BANDWIDTH, BandwidthPolicy
from .clique import CliqueSimulator
from .metrics import AlgorithmCost, ExecutionMetrics, PhaseReport
from .node import NodeContext, OutputTable
from .routing import LenzenRouter, RoutingRequest
from .backends import (
    DEFAULT_CHUNK_BYTES,
    active_chunk_bytes,
    chunk_rows,
    use_chunk_bytes,
)
from .runtime import (
    CongestRuntime,
    DeliveredChannel,
    DeliveredPhase,
    MessagePlane,
    PhaseTraffic,
    TypedChannel,
    group_channel,
    set_allocation_hook,
)
from .simulator import CongestSimulator
from .wire import (
    WIRE_SCHEMAS,
    EdgeListSchema,
    FlagSchema,
    HashDescriptorSchema,
    IdListSchema,
    RoutedEdgeSchema,
    WireSchema,
    default_bit_size,
    edge_bits,
    id_bits,
    integer_bits,
    register_schema,
    schema_for,
)

__all__ = [
    "broadcast_from_root",
    "build_bfs_tree",
    "convergecast_sum",
    "DEFAULT_BANDWIDTH",
    "BandwidthPolicy",
    "CliqueSimulator",
    "AlgorithmCost",
    "ExecutionMetrics",
    "PhaseReport",
    "NodeContext",
    "OutputTable",
    "LenzenRouter",
    "RoutingRequest",
    "DEFAULT_CHUNK_BYTES",
    "active_chunk_bytes",
    "chunk_rows",
    "use_chunk_bytes",
    "CongestRuntime",
    "DeliveredChannel",
    "DeliveredPhase",
    "MessagePlane",
    "PhaseTraffic",
    "TypedChannel",
    "group_channel",
    "set_allocation_hook",
    "CongestSimulator",
    "WIRE_SCHEMAS",
    "WireSchema",
    "IdListSchema",
    "FlagSchema",
    "EdgeListSchema",
    "HashDescriptorSchema",
    "RoutedEdgeSchema",
    "register_schema",
    "schema_for",
    "default_bit_size",
    "edge_bits",
    "id_bits",
    "integer_bits",
]
