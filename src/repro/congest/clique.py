"""The CONGEST clique model: all-to-all communication topology.

Section 2 of the paper: "the CONGEST clique model ... allows an algorithm to
transfer a O(log n)-bit message per round between any two nodes not
necessarily adjacent in G".  The input graph ``G`` is still the problem
instance (each node initially knows its incident edges), but the
communication topology is the complete graph ``K_n``.

The clique simulator reuses the phase-based accounting of
:class:`~repro.congest.simulator.CongestSimulator`; only the communication
targets differ.  It is used by the Dolev et al. baseline (Table 1, row 1)
and by the lower-bound experiments (Theorem 3 is proved against the clique,
which makes the bound stronger).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .simulator import CongestSimulator


class CliqueSimulator(CongestSimulator):
    """Phase-based simulator for the CONGEST clique model.

    The constructor signature is identical to
    :class:`~repro.congest.simulator.CongestSimulator`; the only difference
    is that every node may address every other node directly, so per-phase
    round accounting runs over all ``n(n-1)`` directed node pairs instead of
    only the edges of ``G``.
    """

    @staticmethod
    def _communication_targets(neighbor_row: np.ndarray) -> Optional[np.ndarray]:
        """All other nodes: the communication topology is the complete graph.

        Returns the runtime kernel's ``None`` sentinel, which the
        :class:`~repro.congest.node.NodeContext` interprets as "every node
        but myself" without materialising ``n - 1`` identifiers per node —
        keeping clique construction O(n) instead of O(n²).
        """
        return None

    @property
    def model_name(self) -> str:
        """Human-readable name of the communication model."""
        return "CONGEST clique"
