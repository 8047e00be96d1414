"""Preloadable probe algorithm for exercising the experiment service.

The service's tests, smoke jobs, and ``bench_service.py`` need an
algorithm that (a) is registry-named, so it travels through protocol
frames as a plain :class:`~repro.api.specs.RunSpec` document, (b) costs
almost nothing per cell beyond *reading* the workload — isolating the
provisioning costs (spawn, attach, rebuild) the warm fleet removes —
and (c) can simulate real per-cell compute via ``sleep_seconds`` when a
lease-expiry test needs a slow cell.

It lives inside the package (instead of a benchmark file) because the
fleet's *worker processes* must be able to resolve the name too: pass
``--preload repro.service.probes`` to ``repro serve`` / ``repro worker``
(or set ``REPRO_PRELOAD=repro.service.probes`` for plain ``repro
sweep``) and every process in the fleet imports this module — running
the registration below — before touching any spec.  Importing
:mod:`repro.service` does **not** register the probe; the name only
exists where it was explicitly preloaded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from ..api.registry import get_algorithm, register_algorithm
from ..congest.metrics import AlgorithmCost
from ..core.output import TriangleOutput
from ..errors import AnalysisError
from ..graphs import Graph

__all__ = ["PROBE_ALGORITHM", "ServiceProbe"]

#: Registry name of the probe; use in run specs after preloading.
PROBE_ALGORITHM = "service-probe"


@dataclass(frozen=True)
class _ProbeResult:
    """Duck-typed algorithm result: just enough for ``run_single``."""

    algorithm: str
    model: str
    cost: AlgorithmCost
    truncated: bool
    triangles: FrozenSet[Tuple[int, ...]]

    @property
    def output(self) -> TriangleOutput:
        return TriangleOutput({0: self.triangles})


@dataclass(frozen=True)
class ServiceProbe:
    """Report the workload's own triangle oracle, scaled by ``scale``.

    ``scale`` perturbs the cost vector so distinct cells in a sweep grid
    produce distinguishable records; ``sleep_seconds`` stands in for real
    per-cell compute (fault-path tests use it to hold a lease open).
    """

    scale: int = 1
    sleep_seconds: float = 0.0

    def run(self, graph: Graph, seed: int) -> _ProbeResult:
        if self.sleep_seconds > 0:
            time.sleep(self.sleep_seconds)
        csr = graph.csr()
        support = csr.edge_support()
        triangles = frozenset(map(tuple, csr.triangles().tolist()))
        cost = AlgorithmCost(
            rounds=self.scale * (int(support.max()) if support.size else 0),
            messages=self.scale * graph.num_edges,
            bits=self.scale * len(triangles),
            max_bits_received=self.scale * graph.max_degree(),
        )
        return _ProbeResult(
            algorithm=PROBE_ALGORITHM,
            model="CONGEST",
            cost=cost,
            truncated=False,
            triangles=triangles,
        )


# Idempotent registration: a fresh import registers the name; re-imports
# (or a test that imported the module after unregistering the name) just
# restore it.  Never clobbers someone else's registration.
try:
    get_algorithm(PROBE_ALGORITHM)
except AnalysisError:
    register_algorithm(
        PROBE_ALGORITHM,
        kind="listing",
        summary="Near-zero-cost service probe: reports the workload's oracle.",
    )(ServiceProbe)
