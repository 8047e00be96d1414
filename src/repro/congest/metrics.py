"""Execution metrics collected by the CONGEST simulator.

The quantity the paper's theorems bound is the *round complexity*, so the
simulator's first-class metric is the number of synchronous rounds.  The
metrics object additionally tracks message and bit counts (useful for the
lower-bound experiments, which reason about the number of bits received by a
single node) and a per-phase breakdown so component costs (e.g. "Step 2 of
Algorithm A(X, r)") can be attributed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class PhaseReport:
    """The cost of one phase of a phase-structured protocol."""

    name: str
    rounds: int
    messages: int
    bits: int
    max_link_bits: int

    def __str__(self) -> str:
        return (
            f"{self.name}: rounds={self.rounds} messages={self.messages} "
            f"bits={self.bits} max_link_bits={self.max_link_bits}"
        )

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-ready dictionary (inverse of :meth:`from_dict`).

        The field set is derived from the dataclass itself (as is
        :meth:`from_dict`'s), so adding a field cannot desynchronise
        writer and reader.
        """
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PhaseReport":
        """Rebuild a phase report from :meth:`to_dict` output."""
        return cls(**{name: payload[name] for name in cls.__dataclass_fields__})


@dataclass
class ExecutionMetrics:
    """Aggregate metrics for a full protocol execution."""

    total_rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    phases: List[PhaseReport] = field(default_factory=list)
    bits_received_per_node: Dict[int, int] = field(default_factory=dict)
    messages_received_per_node: Dict[int, int] = field(default_factory=dict)

    def record_phase(self, report: PhaseReport) -> None:
        """Append a phase report and fold its totals into the aggregates."""
        self.phases.append(report)
        self.total_rounds += report.rounds
        self.total_messages += report.messages
        self.total_bits += report.bits

    def record_delivery(self, node: int, bits: int, messages: int = 1) -> None:
        """Account bits/messages received by ``node`` (lower-bound accounting)."""
        self.bits_received_per_node[node] = (
            self.bits_received_per_node.get(node, 0) + bits
        )
        self.messages_received_per_node[node] = (
            self.messages_received_per_node.get(node, 0) + messages
        )

    def record_deliveries_bulk(
        self, nodes: "Sequence[int]", bits_per_node, messages_per_node
    ) -> None:
        """Account a whole phase's deliveries at once.

        ``bits_per_node`` / ``messages_per_node`` are indexable by node
        identifier (typically ``np.bincount`` outputs); only the listed
        ``nodes`` are folded in, so nodes that received nothing never gain a
        spurious zero entry.
        """
        bits_map = self.bits_received_per_node
        msgs_map = self.messages_received_per_node
        # One conversion to Python ints per phase, not one per node.
        bits = np.asarray(bits_per_node)[nodes].astype(np.int64).tolist()
        messages = np.asarray(messages_per_node)[nodes].astype(np.int64).tolist()
        for node, node_bits, node_messages in zip(nodes, bits, messages):
            bits_map[node] = bits_map.get(node, 0) + node_bits
            msgs_map[node] = msgs_map.get(node, 0) + node_messages

    def max_bits_received(self) -> int:
        """Return the maximum number of bits received by any single node.

        Theorem 3's argument bounds the information a single node can
        receive (``O(n log n)`` bits per round), so this is the measured
        counterpart of the transcript length ``H(π_i)``.
        """
        if not self.bits_received_per_node:
            return 0
        return max(self.bits_received_per_node.values())

    def rounds_by_phase_name(self) -> Dict[str, int]:
        """Return total rounds grouped by phase name."""
        grouped: Dict[str, int] = {}
        for report in self.phases:
            grouped[report.name] = grouped.get(report.name, 0) + report.rounds
        return grouped

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold another execution's metrics into this one.

        Used when an algorithm is a sequential composition of sub-algorithms
        (e.g. Theorem 1 = A1 then A3): the composite round count is the sum
        of the parts.
        """
        for report in other.phases:
            self.record_phase(report)
        for node, bits in other.bits_received_per_node.items():
            self.bits_received_per_node[node] = (
                self.bits_received_per_node.get(node, 0) + bits
            )
        for node, count in other.messages_received_per_node.items():
            self.messages_received_per_node[node] = (
                self.messages_received_per_node.get(node, 0) + count
            )

    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-ready dictionary (inverse of :meth:`from_dict`).

        Per-node maps are keyed by the node identifier rendered as a
        string (JSON objects only allow string keys); :meth:`from_dict`
        converts them back to integers.
        """
        return {
            "total_rounds": self.total_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "phases": [phase.to_dict() for phase in self.phases],
            "bits_received_per_node": {
                str(node): bits
                for node, bits in sorted(self.bits_received_per_node.items())
            },
            "messages_received_per_node": {
                str(node): count
                for node, count in sorted(self.messages_received_per_node.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExecutionMetrics":
        """Rebuild execution metrics from :meth:`to_dict` output.

        Every field written by :meth:`to_dict` is required — a payload
        missing one raises ``KeyError`` instead of silently defaulting,
        preserving the store's lossless round-trip contract.
        """
        return cls(
            total_rounds=int(payload["total_rounds"]),  # type: ignore[arg-type]
            total_messages=int(payload["total_messages"]),  # type: ignore[arg-type]
            total_bits=int(payload["total_bits"]),  # type: ignore[arg-type]
            phases=[
                PhaseReport.from_dict(phase)
                for phase in payload["phases"]  # type: ignore[union-attr]
            ],
            bits_received_per_node={
                int(node): int(bits)
                for node, bits in payload["bits_received_per_node"].items()  # type: ignore[union-attr]
            },
            messages_received_per_node={
                int(node): int(count)
                for node, count in payload["messages_received_per_node"].items()  # type: ignore[union-attr]
            },
        )

    def summary(self) -> str:
        """Return a human-readable multi-line summary."""
        lines = [
            f"total rounds:   {self.total_rounds}",
            f"total messages: {self.total_messages}",
            f"total bits:     {self.total_bits}",
            f"phases:         {len(self.phases)}",
        ]
        for name, rounds in sorted(self.rounds_by_phase_name().items()):
            lines.append(f"  {name}: {rounds} rounds")
        return "\n".join(lines)


@dataclass(frozen=True)
class AlgorithmCost:
    """A compact, immutable cost record attached to algorithm results."""

    rounds: int
    messages: int
    bits: int
    max_bits_received: int

    @classmethod
    def from_metrics(cls, metrics: ExecutionMetrics) -> "AlgorithmCost":
        """Build a cost record from execution metrics."""
        return cls(
            rounds=metrics.total_rounds,
            messages=metrics.total_messages,
            bits=metrics.total_bits,
            max_bits_received=metrics.max_bits_received(),
        )

    def __str__(self) -> str:
        return (
            f"rounds={self.rounds} messages={self.messages} "
            f"bits={self.bits} max_bits_received={self.max_bits_received}"
        )

    def to_dict(self) -> Dict[str, int]:
        """Return a JSON-ready dictionary (inverse of :meth:`from_dict`).

        The field set is derived from the dataclass itself (as is
        :meth:`from_dict`'s), so adding a field cannot desynchronise
        writer and reader.
        """
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: Dict[str, int]) -> "AlgorithmCost":
        """Rebuild a cost record from :meth:`to_dict` output."""
        return cls(**{name: int(payload[name]) for name in cls.__dataclass_fields__})
