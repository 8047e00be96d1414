"""Algorithm output and result structures.

Section 2 of the paper describes the output of a finding/listing algorithm
as an n-tuple ``T = (T_0, ..., T_{n-1})`` where ``T_i`` is the set of
triples output by node ``i``.  The algorithm *solves finding* when the union
intersects ``T(G)`` (and ``T(G)`` is non-empty), and *solves listing* when
the union equals ``T(G)``.  Outputs must be one-sided: every reported triple
must actually be a triangle of ``G``.

:class:`TriangleOutput` captures the tuple; :class:`AlgorithmResult` bundles
it with the execution cost and parameters so experiments can report both
correctness and round complexity from a single object.

The output tuple is stored as **int64 triangle keys only**
(:func:`repro.types.triangle_keys`): every node's reports, scalar or bulk,
arrive as key chunks, and the per-node frozensets of canonical tuples —
millions of Python objects on dense workloads — are only decoded for the
nodes a consumer actually reads.  Counts, the union and node-wise merging
all run as numpy key reductions, so an end-to-end run never builds a tuple
it does not return.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from ..congest.metrics import AlgorithmCost, ExecutionMetrics
from ..errors import VerificationError
from ..graphs.graph import Graph
from ..types import NodeId, Triangle, decode_triangle_keys, sorted_unique, triangle_keys


def _decode_keys(keys: np.ndarray, num_nodes: int) -> FrozenSet[Triangle]:
    """Decode unique triangle keys into a frozenset of canonical tuples."""
    a, b, c = decode_triangle_keys(keys, num_nodes)
    return frozenset(zip(a.tolist(), b.tolist(), c.tolist()))


class _LazyNodeSets(Mapping):
    """Read-only mapping view over a :class:`TriangleOutput`'s node sets.

    Keeps the ``output.per_node`` contract (a mapping of node id to
    frozenset) while decoding each node's tuple set only on access.
    """

    __slots__ = ("_output",)

    def __init__(self, output: "TriangleOutput") -> None:
        self._output = output

    def __getitem__(self, node: NodeId) -> FrozenSet[Triangle]:
        if node not in self._output._nodes:
            raise KeyError(node)
        return self._output.node_output(node)

    def __iter__(self):
        return iter(sorted(self._output._nodes))

    def __len__(self) -> int:
        return len(self._output._nodes)


class TriangleOutput:
    """The per-node output tuple ``(T_0, ..., T_{n-1})``, as int64 key chunks.

    Construct from a mapping of node id to triples (hand-written tests and
    probes), which is encoded once with ``n`` = largest vertex + 1, or
    through :meth:`from_contexts`, which adopts the simulator contexts' key
    chunks without copying or decoding them.
    """

    __slots__ = ("num_nodes", "_nodes", "_chunks", "_node_keys")

    def __init__(
        self, per_node: Optional[Mapping[NodeId, Iterable[Triangle]]] = None
    ) -> None:
        rows = {
            node: np.array(list(triples), dtype=np.int64).reshape(-1, 3)
            for node, triples in (per_node or {}).items()
        }
        #: Network size ``n`` of the key encoding.
        self.num_nodes = 1 + max(
            (int(block.max()) for block in rows.values() if block.shape[0]), default=0
        )
        self._nodes: Set[NodeId] = set(rows)
        # Per-node lists of (possibly duplicated) int64 key chunks; a node
        # that reported nothing has no entry.
        self._chunks: Dict[NodeId, List[np.ndarray]] = {
            node: [triangle_keys(block[:, 0], block[:, 1], block[:, 2], self.num_nodes)]
            for node, block in rows.items()
            if block.shape[0]
        }
        # Per-node deduplicated key arrays (computed on demand).
        self._node_keys: Dict[NodeId, np.ndarray] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_contexts(cls, contexts: Sequence[Any], num_nodes: int) -> "TriangleOutput":
        """Adopt the contexts' output key chunks by reference, without decoding."""
        output = cls()
        output.num_nodes = num_nodes
        for context in contexts:
            output._nodes.add(context.node_id)
            chunks = context.output_state()
            if chunks:
                output._chunks[context.node_id] = list(chunks)
        return output

    # ------------------------------------------------------------------
    # per-node access
    # ------------------------------------------------------------------
    @property
    def per_node(self) -> Mapping[NodeId, FrozenSet[Triangle]]:
        """Mapping view of the tuple (lazy per-node decoding)."""
        return _LazyNodeSets(self)

    def node_keys(self, node: NodeId) -> np.ndarray:
        """Return ``T_i`` as a sorted, deduplicated int64 key array.

        The fast comparison door: differential tests and benchmarks check
        per-node equality over these arrays without building tuples.
        """
        keys = self._node_keys.get(node)
        if keys is None:
            keys = sorted_unique(*self._chunks.get(node, ()))
            self._node_keys[node] = keys
        return keys

    def node_output(self, node: NodeId) -> FrozenSet[Triangle]:
        """Return ``T_i`` for a single node (empty when the node output nothing).

        Decoded on every call and never kept: only the keys stay in memory.
        """
        return _decode_keys(self.node_keys(node), self.num_nodes)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def union_keys(self) -> np.ndarray:
        """Return the union ``T`` as a sorted unique int64 key array.

        Every raw chunk is deduplicated in one pass — never node by node
        first.
        """
        return sorted_unique(*(chunk for chunks in self._chunks.values() for chunk in chunks))

    def union(self) -> FrozenSet[Triangle]:
        """Return ``T``, the union of all per-node outputs."""
        return _decode_keys(self.union_keys(), self.num_nodes)

    def total_reported(self) -> int:
        """Return the total number of (node, triple) report events."""
        return sum(int(self.node_keys(node).shape[0]) for node in self._nodes)

    def busiest_node(self) -> Optional[NodeId]:
        """Return ``w(T)``: the node whose output set is largest (ties: lowest id).

        Returns ``None`` when every node output the empty set.  This is the
        node the lower-bound argument of Theorem 3 focuses on.
        """
        best_node: Optional[NodeId] = None
        best_size = 0
        for node in sorted(self._nodes):
            size = int(self.node_keys(node).shape[0])
            if size > best_size:
                best_size = size
                best_node = node
        return best_node

    def is_empty(self) -> bool:
        """Return ``True`` when no node output any triple."""
        return not self._chunks

    def __eq__(self, other: Any) -> bool:
        """Structural equality: same nodes, same per-node triple sets.

        Two outputs compare equal iff their ``per_node`` mappings would;
        keys are compared in the larger of the two key spaces.
        """
        if not isinstance(other, TriangleOutput):
            return NotImplemented
        if self._nodes != other._nodes:
            return False
        num_nodes = max(self.num_nodes, other.num_nodes)
        return all(
            np.array_equal(
                _recode(self.node_keys(node), self.num_nodes, num_nodes),
                _recode(other.node_keys(node), other.num_nodes, num_nodes),
            )
            for node in self._nodes
        )

    #: Lazily decoded and mutable under the hood, so not hashable.
    __hash__ = None

    def merged_with(self, other: "TriangleOutput") -> "TriangleOutput":
        """Return the node-wise union of two output tuples.

        Used when an algorithm repeats a sub-algorithm several times and the
        final output of each node is the union over repetitions.  Chunk
        lists concatenate by reference; a chunk is re-encoded only when the
        two key spaces differ.
        """
        merged = TriangleOutput()
        merged.num_nodes = max(self.num_nodes, other.num_nodes)
        merged._nodes = self._nodes | other._nodes
        for source in (self, other):
            for node, chunks in source._chunks.items():
                merged._chunks.setdefault(node, []).extend(
                    _recode(chunk, source.num_nodes, merged.num_nodes) for chunk in chunks
                )
        return merged


def _recode(keys: np.ndarray, from_nodes: int, to_nodes: int) -> np.ndarray:
    """Move triangle keys from one key space to another (order is kept)."""
    if from_nodes == to_nodes:
        return keys
    a, b, c = decode_triangle_keys(keys, from_nodes)
    return triangle_keys(a, b, c, to_nodes)


@dataclass(frozen=True)
class _TruthComparison:
    """A reported union set against ``T(G)``, as int64 keys in one key space."""

    #: The ``n`` both sides are keyed with.
    num_nodes: int
    total_truth: int
    #: How many distinct reported triples are triangles of G.
    found: int
    #: Keys of the triangles nobody reported, and of the reported non-triangles.
    missed: np.ndarray
    spurious: np.ndarray

    @property
    def recall(self) -> float:
        if not self.total_truth:
            return 1.0
        return (self.total_truth - self.missed.shape[0]) / self.total_truth

    def decode(self, keys: np.ndarray) -> FrozenSet[Triangle]:
        return _decode_keys(keys, self.num_nodes)


def _keyed_union(output: TriangleOutput, graph: Graph) -> Tuple[int, np.ndarray]:
    """Return ``(n, keys)``: the union of ``output`` keyed for comparison with ``graph``.

    The key space is ``max(graph.num_nodes, output's n)``, so an output
    keyed with a smaller ``n`` is re-encoded and reported ids outside the
    graph stay representable.
    """
    num_nodes = max(graph.num_nodes, output.num_nodes)
    return num_nodes, _recode(output.union_keys(), output.num_nodes, num_nodes)


def _compare_with_truth(output: TriangleOutput, graph: Graph) -> _TruthComparison:
    """Compare ``output``'s union with the triangle oracle of ``graph``.

    No tuple is built: only the (usually empty) missed and spurious key
    arrays are ever decoded, by the caller.
    """
    num_nodes, reported = _keyed_union(output, graph)
    rows = graph.csr().triangles()
    truth = triangle_keys(rows[:, 0], rows[:, 1], rows[:, 2], num_nodes)
    hit = np.isin(reported, truth, assume_unique=True)
    missed = truth[~np.isin(truth, reported, assume_unique=True)]
    return _TruthComparison(
        num_nodes=num_nodes,
        total_truth=int(truth.shape[0]),
        found=int(np.count_nonzero(hit)),
        missed=missed,
        spurious=reported[~hit],
    )


@dataclass
class AlgorithmResult:
    """Everything produced by one run of a distributed triangle algorithm."""

    algorithm: str
    model: str
    output: TriangleOutput
    cost: AlgorithmCost
    metrics: ExecutionMetrics
    parameters: Dict[str, Any] = field(default_factory=dict)
    truncated: bool = False

    @property
    def rounds(self) -> int:
        """The measured round complexity of the run."""
        return self.cost.rounds

    def triangles_found(self) -> FrozenSet[Triangle]:
        """Return the union of all reported triples."""
        return self.output.union()

    def found_any(self) -> bool:
        """Return ``True`` when at least one triple was reported."""
        return not self.output.is_empty()

    def check_soundness(self, graph: Graph) -> None:
        """Raise :class:`VerificationError` if any reported triple is not a triangle.

        One-sidedness is an unconditional requirement of the output model
        (Section 2), so a violation is a bug, not a statistical failure.
        """
        self._require_sound(_compare_with_truth(self.output, graph))

    def _require_sound(self, comparison: _TruthComparison) -> None:
        """Raise naming the lowest offending node and its smallest bad triple."""
        if not comparison.spurious.shape[0]:
            return
        key_space = self.output.num_nodes
        spurious = _recode(comparison.spurious, comparison.num_nodes, key_space)
        for node in sorted(self.output._nodes):
            keys = self.output.node_keys(node)
            bad = keys[np.isin(keys, spurious, assume_unique=True)]
            if bad.shape[0]:
                a, b, c = map(int, decode_triangle_keys(bad[0], key_space))
                raise VerificationError(
                    f"node {node} reported ({a}, {b}, {c}) which is not a "
                    f"triangle of the input graph"
                )

    def listing_recall(self, graph: Graph) -> float:
        """Return the fraction of ``T(G)`` present in the reported union.

        1.0 means the run solved the listing problem on this instance;
        recall below 1.0 quantifies how far a single (un-amplified) run is
        from full listing.
        """
        return _compare_with_truth(self.output, graph).recall

    def missed_triangles(self, graph: Graph) -> FrozenSet[Triangle]:
        """Return the triangles of ``G`` absent from the reported union."""
        comparison = _compare_with_truth(self.output, graph)
        return comparison.decode(comparison.missed)

    def solves_finding(self, graph: Graph) -> bool:
        """Return ``True`` when this run solves the finding problem on ``graph``.

        Finding requires a reported triangle when ``T(G)`` is non-empty and
        an empty output otherwise (the "not found" answer).
        """
        comparison = _compare_with_truth(self.output, graph)
        self._require_sound(comparison)
        if comparison.total_truth:
            return self.found_any()
        return not self.found_any()

    def solves_listing(self, graph: Graph) -> bool:
        """Return ``True`` when this run solves the listing problem on ``graph``."""
        comparison = _compare_with_truth(self.output, graph)
        self._require_sound(comparison)
        return not comparison.missed.shape[0]

    def summary(self) -> str:
        """Return a one-line human-readable summary of the run."""
        return (
            f"{self.algorithm} [{self.model}]: rounds={self.cost.rounds}, "
            f"reported={self.output.union_keys().shape[0]} distinct triangles"
            + (", truncated" if self.truncated else "")
        )
