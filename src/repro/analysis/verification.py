"""Verification of distributed outputs against the centralized ground truth.

The paper's output model (Section 2) imposes two different requirements:

* **soundness** — every reported triple is a triangle of ``G``; this is
  unconditional (even for randomized algorithms, which must be one-sided);
* **completeness** — for listing, every triangle of ``G`` is reported by at
  least one node; for finding, some triangle is reported whenever one
  exists.

The helpers in this module measure both, plus the per-node properties the
lower-bound section cares about (who reported what, how many edges the
busiest node's output covers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from ..core.output import AlgorithmResult, _compare_with_truth, _keyed_union
from ..errors import VerificationError
from ..graphs.graph import Graph
from ..graphs.triangles import heaviness_threshold, triangles_through_node
from ..types import Triangle, make_triangle, triangle_keys


@dataclass(frozen=True)
class VerificationReport:
    """The outcome of verifying one run against the ground truth."""

    algorithm: str
    sound: bool
    total_truth: int
    total_reported: int
    recall: float
    missed: FrozenSet[Triangle]
    spurious: FrozenSet[Triangle]
    solves_finding: bool
    solves_listing: bool

    def summary(self) -> str:
        """Return a one-line human-readable summary."""
        return (
            f"{self.algorithm}: sound={self.sound} recall={self.recall:.3f} "
            f"({self.total_reported}/{self.total_truth}) "
            f"finding={'yes' if self.solves_finding else 'no'} "
            f"listing={'yes' if self.solves_listing else 'no'}"
        )

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-ready dictionary (inverse of :meth:`from_dict`).

        Triangle sets are rendered as sorted lists of 3-element lists so
        the representation is deterministic (two equal reports serialize
        to the same bytes).
        """
        return {
            "algorithm": self.algorithm,
            "sound": self.sound,
            "total_truth": self.total_truth,
            "total_reported": self.total_reported,
            "recall": self.recall,
            "missed": sorted(list(triangle) for triangle in self.missed),
            "spurious": sorted(list(triangle) for triangle in self.spurious),
            "solves_finding": self.solves_finding,
            "solves_listing": self.solves_listing,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "VerificationReport":
        """Rebuild a verification report from :meth:`to_dict` output."""
        return cls(
            algorithm=str(payload["algorithm"]),
            sound=bool(payload["sound"]),
            total_truth=int(payload["total_truth"]),  # type: ignore[arg-type]
            total_reported=int(payload["total_reported"]),  # type: ignore[arg-type]
            recall=float(payload["recall"]),  # type: ignore[arg-type]
            missed=frozenset(
                make_triangle(*triangle) for triangle in payload["missed"]  # type: ignore[union-attr]
            ),
            spurious=frozenset(
                make_triangle(*triangle) for triangle in payload["spurious"]  # type: ignore[union-attr]
            ),
            solves_finding=bool(payload["solves_finding"]),
            solves_listing=bool(payload["solves_listing"]),
        )


def verify_result(result: AlgorithmResult, graph: Graph) -> VerificationReport:
    """Verify ``result`` against ``graph`` and return a report.

    Unlike :meth:`AlgorithmResult.check_soundness`, this function does not
    raise on spurious triples: it records them, so experiment sweeps can
    aggregate failures instead of aborting.  (The test suite separately
    asserts that no algorithm in this repository ever produces a spurious
    triple.)  The comparison runs on int64 triangle keys; only the missed
    and spurious triples are decoded into tuples.
    """
    comparison = _compare_with_truth(result.output, graph)
    missed = comparison.decode(comparison.missed)
    spurious = comparison.decode(comparison.spurious)
    # With no triangle in G, every reported triple is spurious.
    solves_finding = bool(comparison.found) if comparison.total_truth else not spurious
    return VerificationReport(
        algorithm=result.algorithm,
        sound=not spurious,
        total_truth=comparison.total_truth,
        total_reported=comparison.found,
        recall=comparison.recall,
        missed=missed,
        spurious=spurious,
        solves_finding=solves_finding,
        solves_listing=not spurious and not missed,
    )


def require_sound(result: AlgorithmResult, graph: Graph) -> None:
    """Raise :class:`VerificationError` if the run reported any non-triangle."""
    report = verify_result(result, graph)
    if not report.sound:
        example = next(iter(report.spurious))
        raise VerificationError(
            f"{result.algorithm} reported {len(report.spurious)} non-triangles, "
            f"e.g. {example}"
        )


def recall_by_heaviness(
    result: AlgorithmResult, graph: Graph, epsilon: float
) -> Dict[str, float]:
    """Return recall split into ε-heavy and non-heavy triangles.

    The paper's component algorithms have guarantees restricted to one side
    of the split (A2 covers heavy triangles, A3 covers light ones); this
    breakdown is what the component benchmarks report.
    """
    threshold = heaviness_threshold(graph.num_nodes, epsilon)
    triangles, heavy = graph.csr().heavy_triangle_mask(threshold)
    key_space, reported = _keyed_union(result.output, graph)
    keys = triangle_keys(triangles[:, 0], triangles[:, 1], triangles[:, 2], key_space)
    hit = np.isin(keys, reported, assume_unique=True)
    return {
        "heavy": _fraction(hit[heavy]),
        "light": _fraction(hit[~heavy]),
    }


def _fraction(hit: np.ndarray) -> float:
    """Share of ``True`` in ``hit`` (1.0 when empty: nothing to miss)."""
    if not hit.shape[0]:
        return 1.0
    return int(np.count_nonzero(hit)) / hit.shape[0]


def local_listing_complete(result: AlgorithmResult, graph: Graph) -> bool:
    """Return ``True`` when every node output all the triangles containing it.

    This is the success criterion of the Proposition-5 (local listing)
    setting, satisfied by the naive baseline but *not* required of the
    paper's sublinear algorithms (whose whole point is that a triangle may
    be output by a node not contained in it).
    """
    for node in graph.nodes():
        required = set(triangles_through_node(graph, node))
        if not required <= set(result.output.node_output(node)):
            return False
    return True


def nodes_reporting_foreign_triangles(
    result: AlgorithmResult, graph: Graph
) -> List[int]:
    """Return the nodes that reported a triangle not containing themselves.

    The discussion after Proposition 5 points out that any sublinear listing
    algorithm *must* let some node output a triangle it does not belong to;
    this helper makes that mechanism observable in experiments.
    """
    offenders: List[int] = []
    for node, triples in result.output.per_node.items():
        for triangle in triples:
            if node not in triangle:
                offenders.append(node)
                break
    return sorted(offenders)


def duplication_factor(result: AlgorithmResult) -> float:
    """Return the average number of nodes reporting each distinct triangle.

    The output model allows duplicates (the ``T_i`` need not be disjoint);
    the duplication factor quantifies the redundancy of a run.  Returns 0.0
    when nothing was reported.
    """
    distinct = result.output.union_keys().shape[0]
    if not distinct:
        return 0.0
    return result.output.total_reported() / distinct
