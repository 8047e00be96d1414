"""Triangle listing in `O(n^{3/4} log n)` rounds (Theorem 2).

The Theorem-2 algorithm repeats ``⌈c log n⌉`` times the sequential
composition of Algorithm A2 (which lists each ε-heavy triangle with constant
probability) and Algorithm A3 (which lists each non-heavy triangle with
constant probability), with ε chosen so that ``n^ε = n^{1/2}/(log n)^2``.
Each triangle is therefore reported in each pass with constant probability,
and after ``⌈c log n⌉`` independent passes it is missed with probability at
most ``1/n^4``; a union bound over at most ``n^3`` triangles gives overall
success probability ``1 - 1/n``.

As required by the paper's output model, the final output of each node is
the union of its outputs across the passes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ProtocolError
from ..graphs.graph import Graph
from .a2_heavy import HeavyHashingLister
from .a3_light import LightTrianglesLister
from ..congest.backends import validate_chunk_bytes
from .base import combine_results, validate_kernel
from .output import AlgorithmResult
from .parameters import ListingParameters


class TriangleListing:
    """The Theorem-2 triangle-listing algorithm ((A2, A3) × ⌈c log n⌉).

    Parameters
    ----------
    repetitions:
        Explicit repetition count.  ``None`` selects ``⌈c log2 n⌉`` with the
        given ``repetition_constant``.
    repetition_constant:
        The constant ``c`` in ``⌈c log n⌉`` when ``repetitions`` is None.
    budget_constant:
        Constant for A3's round budget.
    kernel:
        Execution kernel for the A2/A3 passes: ``"batched"`` (default)
        runs the direct-exchange fused kernels, ``"reference"`` the
        per-node closures.  Identical executions for the same seed.
    """

    name = "Theorem2-listing"
    model = "CONGEST"

    def __init__(
        self,
        repetitions: Optional[int] = None,
        repetition_constant: float = 1.0,
        budget_constant: float = 8.0,
        epsilon: Optional[float] = None,
        kernel: str = "batched",
        chunk_bytes: Optional[int] = None,
    ) -> None:
        if repetitions is not None and repetitions < 1:
            raise ProtocolError(
                f"repetitions must be at least 1 (or None for the "
                f"theorem's ⌈c log n⌉ choice), got {repetitions}"
            )
        if repetition_constant <= 0:
            raise ProtocolError(
                f"repetition_constant must be positive, got {repetition_constant}"
            )
        if budget_constant <= 0:
            raise ProtocolError(
                f"budget_constant must be positive, got {budget_constant}"
            )
        if epsilon is not None and not 0.0 <= epsilon <= 1.0:
            raise ProtocolError(
                f"epsilon must lie in [0, 1] (or None for the theorem's "
                f"choice), got {epsilon}"
            )
        self._repetitions = repetitions
        self._repetition_constant = repetition_constant
        self._budget_constant = budget_constant
        self._epsilon = epsilon
        self._kernel = validate_kernel(kernel)
        self._chunk_bytes = validate_chunk_bytes(chunk_bytes)

    def parameters_for(self, graph: Graph) -> ListingParameters:
        """Return the concrete Theorem-2 parameters used on ``graph``.

        Selection reads ``n`` and the degree array from the graph's CSR
        view (see :meth:`ListingParameters.for_graph`).
        """
        return ListingParameters.for_graph(
            graph,
            repetitions=self._repetitions,
            repetition_constant=self._repetition_constant,
            budget_constant=self._budget_constant,
            epsilon=self._epsilon,
        )

    def run(
        self, graph: Graph, seed: Optional[int | np.random.Generator] = None
    ) -> AlgorithmResult:
        """Run the listing algorithm and return the combined result."""
        parameters = self.parameters_for(graph)
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        sub_results: List[AlgorithmResult] = []
        for _ in range(parameters.repetitions):
            heavy_pass = HeavyHashingLister(
                epsilon=parameters.epsilon,
                kernel=self._kernel,
                chunk_bytes=self._chunk_bytes,
            )
            light_pass = LightTrianglesLister(
                epsilon=parameters.epsilon,
                budget_constant=self._budget_constant,
                kernel=self._kernel,
                chunk_bytes=self._chunk_bytes,
            )
            sub_results.append(heavy_pass.run(graph, seed=rng))
            sub_results.append(light_pass.run(graph, seed=rng))
        return combine_results(
            algorithm=self.name,
            model=self.model,
            results=sub_results,
            parameters=self._describe(parameters),
        )

    def _describe(self, parameters: ListingParameters) -> Dict[str, Any]:
        return {
            "epsilon": parameters.epsilon,
            "heaviness_threshold": parameters.heaviness_threshold,
            "hash_range": parameters.hash_range,
            "edge_set_cap": parameters.edge_set_cap,
            "repetitions": parameters.repetitions,
            "round_budget_per_pass": parameters.round_budget,
            "kernel": self._kernel,
            "chunk_bytes": self._chunk_bytes,
        }


def theorem2_round_bound(num_nodes: int) -> float:
    """Return the Theorem-2 closed-form round bound ``n^{3/4} log n``.

    Reference curve for the scaling benchmark (constants omitted, base-2
    logarithm).
    """
    import math

    n = float(max(2, num_nodes))
    return n ** (3.0 / 4.0) * math.log2(n)
