"""Closed-form round-complexity predictions for every row of Table 1.

The reproduction's central artifact is Table 1 of the paper, which compares
the round complexity of prior work and the new results.  This module encodes
each row as a named prediction: a closed-form function of ``n`` (base-2
logarithms, constants dropped) plus metadata about the problem variant and
communication model.  Benchmarks place measured round counts next to these
curves; the scaling analysis fits measured exponents and compares them to
the predicted ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


def _log2(num_nodes: int) -> float:
    return math.log2(max(2.0, float(num_nodes)))


def dolev_listing_clique(num_nodes: int) -> float:
    """Dolev et al. [8] listing on the clique: ``n^{1/3} (log n)^{2/3}``."""
    n = float(max(2, num_nodes))
    return n ** (1.0 / 3.0) * _log2(num_nodes) ** (2.0 / 3.0)


def censor_hillel_finding_clique(num_nodes: int) -> float:
    """Censor-Hillel et al. [6] finding on the clique: ``n^{0.1572}``.

    This row is reported as a closed-form reference only; the algebraic
    algorithm itself is out of scope (see DESIGN.md, Non-goals).
    """
    return float(max(2, num_nodes)) ** 0.1572


def this_paper_finding_congest(num_nodes: int) -> float:
    """Theorem 1: finding in CONGEST, ``n^{2/3} (log n)^{2/3}``."""
    n = float(max(2, num_nodes))
    return n ** (2.0 / 3.0) * _log2(num_nodes) ** (2.0 / 3.0)


def this_paper_listing_congest(num_nodes: int) -> float:
    """Theorem 2: listing in CONGEST, ``n^{3/4} log n``."""
    n = float(max(2, num_nodes))
    return n ** (3.0 / 4.0) * _log2(num_nodes)


def drucker_finding_broadcast_lower(num_nodes: int) -> float:
    """Drucker et al. [9] conditional lower bound: ``n / (e^{sqrt(log n)} log n)``."""
    n = float(max(2, num_nodes))
    return n / (math.exp(math.sqrt(math.log(n))) * _log2(num_nodes))


def pandurangan_listing_clique_lower(num_nodes: int) -> float:
    """Pandurangan et al. [29] lower bound: ``n^{1/3} / (log n)^3``."""
    n = float(max(2, num_nodes))
    return n ** (1.0 / 3.0) / _log2(num_nodes) ** 3


def this_paper_listing_lower(num_nodes: int) -> float:
    """Theorem 3: listing lower bound ``n^{1/3} / log n`` (clique and CONGEST)."""
    n = float(max(2, num_nodes))
    return n ** (1.0 / 3.0) / _log2(num_nodes)


def naive_two_hop_upper(num_nodes: int, max_degree: Optional[int] = None) -> float:
    """Folklore upper bound ``d_max`` (``= Θ(n)`` on dense graphs)."""
    if max_degree is not None:
        return float(max_degree)
    return float(num_nodes)


@dataclass(frozen=True)
class ComplexityRow:
    """One row of Table 1 (or an auxiliary reference bound)."""

    key: str
    reference: str
    bound_kind: str  # "upper" or "lower"
    problem: str  # "finding" or "listing"
    model: str  # "CONGEST", "CONGEST clique", "CONGEST broadcast"
    formula: str
    predict: Callable[[int], float]
    implemented: bool
    notes: str = ""

    def predicted(self, num_nodes: int) -> float:
        """Evaluate the closed-form prediction at ``num_nodes``."""
        return self.predict(num_nodes)


def table1_rows() -> List[ComplexityRow]:
    """Return the rows of Table 1 (plus the folklore baseline) in paper order."""
    return [
        ComplexityRow(
            key="dolev-listing-clique",
            reference="Dolev et al. [8]",
            bound_kind="upper",
            problem="listing",
            model="CONGEST clique",
            formula="O(n^{1/3} (log n)^{2/3})",
            predict=dolev_listing_clique,
            implemented=True,
            notes="reproduced by repro.core.clique_dolev",
        ),
        ComplexityRow(
            key="censor-hillel-finding-clique",
            reference="Censor-Hillel et al. [6]",
            bound_kind="upper",
            problem="finding",
            model="CONGEST clique",
            formula="O(n^{0.1572})",
            predict=censor_hillel_finding_clique,
            implemented=False,
            notes="closed-form reference only (algebraic algorithm out of scope)",
        ),
        ComplexityRow(
            key="theorem1-finding-congest",
            reference="This paper (Theorem 1)",
            bound_kind="upper",
            problem="finding",
            model="CONGEST",
            formula="O(n^{2/3} (log n)^{2/3})",
            predict=this_paper_finding_congest,
            implemented=True,
            notes="reproduced by repro.core.finding",
        ),
        ComplexityRow(
            key="theorem2-listing-congest",
            reference="This paper (Theorem 2)",
            bound_kind="upper",
            problem="listing",
            model="CONGEST",
            formula="O(n^{3/4} log n)",
            predict=this_paper_listing_congest,
            implemented=True,
            notes="reproduced by repro.core.listing",
        ),
        ComplexityRow(
            key="drucker-finding-broadcast-lower",
            reference="Drucker et al. [9]",
            bound_kind="lower",
            problem="finding",
            model="CONGEST broadcast",
            formula="Omega(n / (e^{sqrt(log n)} log n)) (conditional)",
            predict=drucker_finding_broadcast_lower,
            implemented=False,
            notes="conditional bound in a weaker model; reference only",
        ),
        ComplexityRow(
            key="pandurangan-listing-clique-lower",
            reference="Pandurangan et al. [29]",
            bound_kind="lower",
            problem="listing",
            model="CONGEST clique",
            formula="Omega(n^{1/3} / log^3 n)",
            predict=pandurangan_listing_clique_lower,
            implemented=False,
            notes="superseded by Theorem 3; reference only",
        ),
        ComplexityRow(
            key="theorem3-listing-lower",
            reference="This paper (Theorem 3)",
            bound_kind="lower",
            problem="listing",
            model="CONGEST clique",
            formula="Omega(n^{1/3} / log n)",
            predict=this_paper_listing_lower,
            implemented=True,
            notes="reproduced by repro.core.lower_bounds",
        ),
        ComplexityRow(
            key="naive-two-hop",
            reference="folklore (introduction)",
            bound_kind="upper",
            problem="listing",
            model="CONGEST",
            formula="O(d_max) = O(n) on dense graphs",
            predict=naive_two_hop_upper,
            implemented=True,
            notes="reproduced by repro.core.baselines; also Proposition 5 witness",
        ),
    ]


def predicted_round_complexities(num_nodes: int) -> Dict[str, float]:
    """Return the predicted rounds of every Table-1 row at a given ``n``."""
    return {row.key: row.predicted(num_nodes) for row in table1_rows()}
