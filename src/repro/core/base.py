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
from typing import Any, Dict, Iterator, Optional, Tuple

import numpy as np

from ..congest.backends import fused_chunk_rows, gather_spans
from ..congest.metrics import AlgorithmCost, ExecutionMetrics
from ..congest.node import OutputTable
from ..congest.runtime import DeliveredChannel
from ..congest.simulator import CongestSimulator
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import triangle_keys
from .output import AlgorithmResult, TriangleOutput


#: The execution kernels every protocol offers (A1, A2, A3, the Theorem-1
#: and Theorem-2 compositions, Dolev and naive):
#:
#: * ``"batched"`` (default) — whole-network array programs on the
#:   **direct-exchange** path: one columnar staging call per message kind
#:   per phase, randomness drawn from the simulator's per-node generators,
#:   delivery consumed straight off the destination-grouped channel arrays,
#:   receiver processing fused into whole-network CSR-oracle calls that
#:   append to the simulator's output table.  No node context is built.
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


def emit_revealed_triangles(
    output: OutputTable,
    csr: CSRGraph,
    channel: DeliveredChannel,
    above_sender: bool = False,
) -> None:
    """List the triangles a delivered id-list channel reveals, fused.

    An element ``l`` of a message from ``j`` to ``k`` reveals ``{j, k, l}``
    exactly when ``l`` neighbours ``k``.  Only naive's neighbourhood
    exchange is listed this way, from its staged elements; A1's samples
    and A3's S and V sets are staged by their sizes alone and listed from
    the graph (:func:`close_edges`).  With ``above_sender`` only elements
    ``l > j`` are tested, so a receiver of both ``N(j)`` and ``N(l)`` lists
    ``{j, k, l}`` once.  The test is
    :meth:`~repro.graphs.csr.CSRGraph.has_edges`, whose self-pairs are
    ``False``; hits become triangle keys arithmetically.  The sweep runs
    over message-aligned element blocks bounded by the chunk bound, so
    peak memory stays flat however large the phase's traffic is.
    """
    offsets, lengths, num_nodes = channel.offsets, channel.lengths, csr.num_nodes
    chunk_elements = fused_chunk_rows(minimum=4096)
    start = 0
    while start < channel.count:
        first = int(offsets[start])
        end = int(np.searchsorted(offsets, first + chunk_elements, side="left"))
        end = min(max(end, start + 1), channel.count)
        receivers = np.repeat(channel.dst[start:end], lengths[start:end])
        senders = np.repeat(channel.src[start:end], lengths[start:end])
        thirds = channel.data["member"][first : int(offsets[end])]
        if above_sender:
            upper = np.flatnonzero(thirds > senders)
            receivers, senders, thirds = receivers[upper], senders[upper], thirds[upper]
        hits = np.flatnonzero(csr.has_edges(receivers, thirds))
        if hits.shape[0]:
            j, k, l = senders[hits], receivers[hits], thirds[hits]
            lo = np.minimum(np.minimum(j, l), k)
            hi = np.maximum(np.maximum(j, l), k)
            output.emit_grouped(k, triangle_keys(lo, j + k + l - lo - hi, hi, num_nodes))
        start = end


def close_edges(
    csr: CSRGraph,
    us: np.ndarray,
    vs: np.ndarray,
    row_indptr: np.ndarray,
    row_indices: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Close each edge ``{us[e], vs[e]}`` over its common neighbours, in blocks.

    The edges come canonical, ``us < vs``.  ``row_indptr``/``row_indices``
    is a CSR over some of the graph's edges (the graph's own, or the
    subgraph of active nodes).  Each edge gathers the row of the endpoint
    with fewer row entries and probes every entry ``x`` with
    :meth:`~repro.graphs.csr.CSRGraph.has_edges` against the other
    endpoint, so ``x`` is a common neighbour in the near endpoint's row.
    Yields ``(u, v, x, keys)`` per block of edges whose gathered rows fit
    the chunk bound: for each hit, its edge's endpoints, the third vertex
    and the key of ``{u, v, x}``.  A1's samples and A3's S and V sets are
    listed this way, from the graph instead of from delivered element
    columns.
    """
    num_nodes = csr.num_nodes
    row_lengths = np.diff(row_indptr)
    near_is_v = row_lengths[vs] < row_lengths[us]
    nears = np.where(near_is_v, vs, us)
    fars = np.where(near_is_v, us, vs)
    lengths = row_lengths[nears]
    gathered_ends = np.cumsum(lengths)
    chunk_elements = fused_chunk_rows(minimum=4096)
    edge_start = 0
    while edge_start < us.shape[0]:
        done = int(gathered_ends[edge_start - 1]) if edge_start else 0
        edge_end = int(
            np.searchsorted(gathered_ends, done + chunk_elements, side="right")
        )
        edge_end = max(edge_end, edge_start + 1)
        block = slice(edge_start, edge_end)
        thirds = row_indices[gather_spans(row_indptr[nears[block]], lengths[block])]
        hits = np.flatnonzero(
            csr.has_edges(np.repeat(fars[block], lengths[block]), thirds)
        )
        edge_start = edge_end
        if hits.shape[0] == 0:
            continue
        edges = block.start + np.searchsorted(
            gathered_ends[block] - done, hits, side="right"
        )
        u, v, x = us[edges], vs[edges], thirds[hits]
        lo = np.minimum(u, x)
        hi = np.maximum(v, x)
        keys = triangle_keys(lo, u + v + x - lo - hi, hi, num_nodes)
        yield u, v, x, keys


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
        simulator = self._build_simulator(graph, seed)
        truncated = self._execute(simulator)
        output = TriangleOutput.from_table(simulator.output_table)
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
