"""Common machinery shared by the distributed triangle algorithms.

Every algorithm in this package follows the same shape: build a simulator
for the input graph, run a phase-structured node program against the node
contexts, collect the per-node outputs, and wrap everything in an
:class:`~repro.core.output.AlgorithmResult`.  The small base class below
captures that shape so the individual algorithm modules contain only the
protocol logic from the paper.

The simulators handed to :meth:`TriangleAlgorithm._execute` are policy
layers over the shared :class:`~repro.congest.runtime.CongestRuntime`
kernel, so algorithm steps with heavy fan-out should prefer the batched
:meth:`~repro.congest.node.NodeContext.bulk_send` /
:meth:`~repro.congest.node.NodeContext.broadcast_bits` context methods over
per-message ``send`` loops.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

import numpy as np

from ..congest.backends import use_chunk_bytes
from ..congest.metrics import AlgorithmCost, ExecutionMetrics
from ..congest.simulator import CongestSimulator
from ..graphs.graph import Graph
from .output import AlgorithmResult, TriangleOutput


#: The execution kernels every protocol offers:
#:
#: * ``"batched"`` (default) — whole-network array programs on the
#:   **direct-exchange** path: one columnar staging call per message kind
#:   per phase, delivery consumed straight off the destination-grouped
#:   channel arrays, receiver processing fused into whole-network
#:   CSR-oracle calls.
#: * ``"reference"`` — the paper-shaped per-node closures over object
#:   payloads, the semantic ground truth.
#:
#: Both produce identical executions for the same seed; the differential
#: suite enforces this on every workload family.
VALID_KERNELS = ("batched", "reference")

#: Memory ceiling for a precomputed n×n pair matrix (bool entries).
DENSE_PAIR_MATRIX_MAX_BYTES = 1 << 28


def dense_pair_matrix_worthwhile(num_nodes: int, degrees: "np.ndarray") -> bool:
    """Should a batched kernel precompute an all-pairs n×n matrix?

    The batched kernels only ever read pair entries ``(a, l)`` with both
    endpoints in some node's neighbour row, i.e. ``Σ deg²`` entries in
    total.  Precomputing the full matrix amortises shared pairs on dense
    graphs but wastes O(n²) work and memory on sparse ones, so it is used
    only when the matrix is modest in absolute terms *and* a sizeable
    fraction of it is actually consumed; otherwise the kernels evaluate
    each neighbour-row block on demand.
    """
    matrix_bytes = num_nodes * num_nodes
    if matrix_bytes > DENSE_PAIR_MATRIX_MAX_BYTES:
        return False
    consumed = int((degrees.astype(np.int64) ** 2).sum())
    return matrix_bytes <= 4 * max(consumed, 1)


def validate_kernel(kernel: str) -> str:
    """Validate and return an execution-kernel name.

    Raises
    ------
    ValueError
        For anything other than ``"batched"`` or ``"reference"``.
    """
    if kernel not in VALID_KERNELS:
        raise ValueError(
            f"kernel must be one of {VALID_KERNELS}, got {kernel!r}"
        )
    return kernel


class TriangleAlgorithm(abc.ABC):
    """Abstract base class for distributed triangle finding/listing algorithms.

    Subclasses implement :meth:`_execute`, which receives a freshly built
    simulator and must drive the protocol phases.  The public :meth:`run`
    method handles seeding, output collection and result packaging.
    """

    #: Human-readable algorithm name, shown in experiment tables.
    name: str = "abstract"
    #: The communication model the algorithm runs in.
    model: str = "CONGEST"
    #: Bound on chunked-evaluation working sets; ``None`` keeps the
    #: process-wide default (:data:`repro.congest.backends.DEFAULT_CHUNK_BYTES`).
    #: Constructors validate it with ``validate_chunk_bytes`` and :meth:`run`
    #: activates it for the duration of the execution.
    chunk_bytes: Optional[int] = None

    @abc.abstractmethod
    def _execute(self, simulator: CongestSimulator) -> bool:
        """Run the protocol on ``simulator``.

        Returns
        -------
        bool
            ``True`` when the run was truncated (round budget exhausted
            before the protocol finished), ``False`` otherwise.
        """

    def _build_simulator(
        self, graph: Graph, seed: Optional[int | np.random.Generator]
    ) -> CongestSimulator:
        """Build the simulator this algorithm runs on (CONGEST by default)."""
        return CongestSimulator(graph, seed=seed, round_limit=self._round_limit())

    def _round_limit(self) -> Optional[int]:
        """Return the round budget, if the algorithm has one."""
        return None

    def describe_parameters(self) -> Dict[str, Any]:
        """Return the algorithm parameters recorded in results."""
        return {}

    def run(
        self, graph: Graph, seed: Optional[int | np.random.Generator] = None
    ) -> AlgorithmResult:
        """Run the algorithm on ``graph`` and return the packaged result."""
        with use_chunk_bytes(self.chunk_bytes):
            simulator = self._build_simulator(graph, seed)
            truncated = self._execute(simulator)
        output = TriangleOutput.from_contexts(simulator.contexts, simulator.num_nodes)
        return AlgorithmResult(
            algorithm=self.name,
            model=simulator.model_name,
            output=output,
            cost=AlgorithmCost.from_metrics(simulator.metrics),
            metrics=simulator.metrics,
            parameters=self.describe_parameters(),
            truncated=truncated,
        )


def combine_results(
    algorithm: str,
    model: str,
    results: list[AlgorithmResult],
    parameters: Optional[Dict[str, Any]] = None,
) -> AlgorithmResult:
    """Combine sequentially-composed sub-runs into a single result.

    The composite output is the node-wise union of the sub-run outputs and
    the composite cost is the sum of the sub-run costs, which is exactly how
    the paper composes A1/A2/A3 into the Theorem 1 and Theorem 2 algorithms
    (the sub-algorithms run one after the other on the same network).
    """
    if not results:
        raise ValueError("combine_results needs at least one sub-result")
    merged_metrics = ExecutionMetrics()
    merged_output = results[0].output
    truncated = results[0].truncated
    merged_metrics.merge(results[0].metrics)
    for result in results[1:]:
        merged_output = merged_output.merged_with(result.output)
        merged_metrics.merge(result.metrics)
        truncated = truncated or result.truncated
    return AlgorithmResult(
        algorithm=algorithm,
        model=model,
        output=merged_output,
        cost=AlgorithmCost.from_metrics(merged_metrics),
        metrics=merged_metrics,
        parameters=parameters or {},
        truncated=truncated,
    )
