"""Triangle finding in `O(n^{2/3} (log n)^{2/3})` rounds (Theorem 1).

The Theorem-1 algorithm is the sequential composition of Algorithm A1
(which finds *some* ε-heavy triangle with constant probability, if one
exists) and Algorithm A3 (which finds each non-heavy triangle with constant
probability), with ε chosen so that ``n^ε = n^{1/3}/(log n)^{2/3}``.  One
(A1, A3) pass therefore succeeds with constant probability whenever the
graph contains any triangle; repeating the pass a constant number of times
amplifies the success probability to ``1 - δ``.

Because the algorithm is one-sided (it never reports a non-triangle), a
practical run can stop as soon as any pass reports something; the
``stop_on_success`` flag controls whether the driver exploits this or always
performs the full repetition count (the latter is what the worst-case bound
charges, and what the benchmarks report by default so measured rounds
correspond to the theorem's formula).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import ProtocolError
from ..graphs.graph import Graph
from .a1_sampling import HeavySamplingFinder
from .a3_light import LightTrianglesLister
from ..congest.backends import validate_chunk_bytes
from .base import combine_results, validate_kernel
from .output import AlgorithmResult
from .parameters import FindingParameters


class TriangleFinding:
    """The Theorem-1 triangle-finding algorithm (A1 + A3, repeated).

    Parameters
    ----------
    repetitions:
        Number of (A1, A3) passes.  ``None`` selects the constant that
        drives the success probability to 0.9 assuming a conservative 0.25
        single-pass success probability.
    budget_constant:
        Constant for A3's round budget.
    stop_on_success:
        Stop repeating as soon as some pass reports a triangle.  Defaults to
        ``False`` so measured costs reflect the worst-case composition the
        theorem describes.
    kernel:
        Execution kernel for the A1/A3 passes: ``"batched"`` (default)
        runs the direct-exchange fused kernels, ``"reference"`` the
        per-node closures.  Identical executions for the same seed.
    backend:
        Accepted only as ``"numpy"``, the one inner-loop implementation, so
        that run specs written when there was a second one still load.
    """

    name = "Theorem1-finding"
    model = "CONGEST"

    def __init__(
        self,
        repetitions: Optional[int] = None,
        budget_constant: float = 8.0,
        stop_on_success: bool = False,
        epsilon: Optional[float] = None,
        kernel: str = "batched",
        backend: str = "numpy",
        chunk_bytes: Optional[int] = None,
    ) -> None:
        if repetitions is not None and repetitions < 1:
            raise ProtocolError(
                f"repetitions must be at least 1 (or None for the "
                f"theorem's constant), got {repetitions}"
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
        self._budget_constant = budget_constant
        self._stop_on_success = stop_on_success
        self._epsilon = epsilon
        self._kernel = validate_kernel(kernel)
        if backend != "numpy":
            raise ValueError(f"backend must be 'numpy', got {backend!r}")
        self._chunk_bytes = validate_chunk_bytes(chunk_bytes)

    def parameters_for(self, graph: Graph) -> FindingParameters:
        """Return the concrete Theorem-1 parameters used on ``graph``.

        Selection reads ``n`` and the degree array from the graph's CSR
        view (see :meth:`FindingParameters.for_graph`).
        """
        return FindingParameters.for_graph(
            graph,
            repetitions=self._repetitions,
            budget_constant=self._budget_constant,
            epsilon=self._epsilon,
        )

    def run(
        self, graph: Graph, seed: Optional[int | np.random.Generator] = None
    ) -> AlgorithmResult:
        """Run the finding algorithm and return the combined result."""
        parameters = self.parameters_for(graph)
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        sub_results: List[AlgorithmResult] = []
        for _ in range(parameters.repetitions):
            heavy_pass = HeavySamplingFinder(
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
            heavy_result = heavy_pass.run(graph, seed=rng)
            light_result = light_pass.run(graph, seed=rng)
            sub_results.extend([heavy_result, light_result])
            if self._stop_on_success and (
                heavy_result.found_any() or light_result.found_any()
            ):
                break
        combined = combine_results(
            algorithm=self.name,
            model=self.model,
            results=sub_results,
            parameters=self._describe(parameters),
        )
        return combined

    def _describe(self, parameters: FindingParameters) -> Dict[str, Any]:
        return {
            "epsilon": parameters.epsilon,
            "heaviness_threshold": parameters.heaviness_threshold,
            "sample_cap": parameters.sample_cap,
            "repetitions": parameters.repetitions,
            "round_budget_per_pass": parameters.round_budget,
            "stop_on_success": self._stop_on_success,
            "kernel": self._kernel,
            "chunk_bytes": self._chunk_bytes,
        }


def theorem1_round_bound(num_nodes: int) -> float:
    """Return the Theorem-1 closed-form round bound ``n^{2/3} (log n)^{2/3}``.

    This is the reference curve the scaling benchmark compares measured
    rounds against (constants omitted, base-2 logarithm).
    """
    import math

    n = float(max(2, num_nodes))
    return n ** (2.0 / 3.0) * math.log2(n) ** (2.0 / 3.0)
