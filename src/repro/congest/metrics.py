"""Execution metrics collected by the CONGEST simulator.

The quantity the paper's theorems bound is the *round complexity*, so the
simulator's first-class metric is the number of synchronous rounds.  The
metrics object additionally tracks message and bit counts (useful for the
lower-bound experiments, which reason about the number of bits received by a
single node) and a per-phase breakdown so component costs (e.g. "Step 2 of
Algorithm A(X, r)") can be attributed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

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


class _NodeTally:
    """A per-node int64 tally, indexed by node id and grown on demand.

    ``credited`` marks the nodes ever credited, so a node credited with
    zero keeps its entry and a node never credited has none, exactly as
    in the dictionary the tally is read as (:meth:`as_dict`).
    """

    __slots__ = ("values", "credited")

    def __init__(self, mapping: Optional[Mapping[int, int]] = None) -> None:
        self.values = np.zeros(0, dtype=np.int64)
        self.credited = np.zeros(0, dtype=bool)
        if mapping:
            count = len(mapping)
            nodes = np.fromiter(mapping.keys(), dtype=np.int64, count=count)
            amounts = np.fromiter(mapping.values(), dtype=np.int64, count=count)
            self.add(nodes, amounts)

    def _grow(self, size: int) -> None:
        extra = size - self.values.shape[0]
        if extra > 0:
            self.values = np.concatenate((self.values, np.zeros(extra, dtype=np.int64)))
            self.credited = np.concatenate((self.credited, np.zeros(extra, dtype=bool)))

    def add(self, nodes: np.ndarray, amounts: np.ndarray) -> None:
        """Credit ``amounts[i]`` to the distinct nodes ``nodes[i]``."""
        if nodes.shape[0]:
            self._grow(int(nodes.max()) + 1)
            self.values[nodes] += amounts
            self.credited[nodes] = True

    def add_arrays(self, amounts: np.ndarray, credited: np.ndarray) -> None:
        """Credit ``amounts[v]`` to every node ``v`` with ``credited[v]``."""
        size = credited.shape[0]
        self._grow(size)
        self.values[:size] += np.where(credited, amounts, 0)
        self.credited[:size] |= credited

    def add_tally(self, other: "_NodeTally") -> None:
        """Fold ``other`` in, node by node."""
        self.add_arrays(other.values, other.credited)

    def as_dict(self) -> Dict[int, int]:
        """The credited nodes and their values, node-ascending."""
        nodes = np.flatnonzero(self.credited)
        return dict(zip(nodes.tolist(), self.values[nodes].tolist()))

    def maximum(self) -> int:
        """The largest credited value (0 when no node is credited)."""
        values = self.values[self.credited]
        return int(values.max()) if values.shape[0] else 0


class ExecutionMetrics:
    """Aggregate metrics for a full protocol execution.

    The per-node delivery tallies accumulate in int64 arrays indexed by
    node id, one whole-network addition per phase; the
    ``bits_received_per_node`` / ``messages_received_per_node``
    dictionaries are built from them on every read (writes go through the
    ``record_*`` methods and :meth:`merge`).  A node has an entry once it
    has been credited — for the simulator, once it received a message.
    """

    def __init__(
        self,
        total_rounds: int = 0,
        total_messages: int = 0,
        total_bits: int = 0,
        phases: Optional[List[PhaseReport]] = None,
        bits_received_per_node: Optional[Mapping[int, int]] = None,
        messages_received_per_node: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.total_rounds = total_rounds
        self.total_messages = total_messages
        self.total_bits = total_bits
        self.phases: List[PhaseReport] = [] if phases is None else phases
        self._bits = _NodeTally(bits_received_per_node)
        self._messages = _NodeTally(messages_received_per_node)

    @property
    def bits_received_per_node(self) -> Dict[int, int]:
        """Bits received by each credited node (a fresh dictionary)."""
        return self._bits.as_dict()

    @property
    def messages_received_per_node(self) -> Dict[int, int]:
        """Messages received by each credited node (a fresh dictionary)."""
        return self._messages.as_dict()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExecutionMetrics):
            return NotImplemented
        return (
            self.total_rounds == other.total_rounds
            and self.total_messages == other.total_messages
            and self.total_bits == other.total_bits
            and self.phases == other.phases
            and self.bits_received_per_node == other.bits_received_per_node
            and self.messages_received_per_node == other.messages_received_per_node
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ExecutionMetrics(total_rounds={self.total_rounds}, "
            f"total_messages={self.total_messages}, total_bits={self.total_bits}, "
            f"phases={len(self.phases)})"
        )

    def record_phase(self, report: PhaseReport) -> None:
        """Append a phase report and fold its totals into the aggregates."""
        self.phases.append(report)
        self.total_rounds += report.rounds
        self.total_messages += report.messages
        self.total_bits += report.bits

    def record_delivery(self, node: int, bits: int, messages: int = 1) -> None:
        """Account bits/messages received by ``node`` (lower-bound accounting)."""
        nodes = np.array([node], dtype=np.int64)
        self._bits.add(nodes, np.array([bits], dtype=np.int64))
        self._messages.add(nodes, np.array([messages], dtype=np.int64))

    def record_deliveries_bulk(
        self, bits_per_node: np.ndarray, messages_per_node: np.ndarray
    ) -> None:
        """Account a whole phase's deliveries at once.

        ``bits_per_node`` / ``messages_per_node`` are int64 arrays indexed
        by node id (typically ``np.bincount`` outputs).  Only nodes that
        received at least one message are credited, so a node that
        received nothing never gains a spurious zero entry.
        """
        received = messages_per_node > 0
        self._bits.add_arrays(bits_per_node, received)
        self._messages.add_arrays(messages_per_node, received)

    def max_bits_received(self) -> int:
        """Return the maximum number of bits received by any single node.

        Theorem 3's argument bounds the information a single node can
        receive (``O(n log n)`` bits per round), so this is the measured
        counterpart of the transcript length ``H(π_i)``.
        """
        return self._bits.maximum()

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
        self._bits.add_tally(other._bits)
        self._messages.add_tally(other._messages)

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
