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

The output tuple is **columnar and lazy**: bulk-emitting kernels hand over
per-node int64 triangle-key chunks (:func:`repro.types.triangle_keys`), and
the per-node frozensets of canonical tuples — millions of Python objects on
dense workloads — are only materialised for the nodes a consumer actually
reads.  Counts, the union and node-wise merging all run as numpy key
reductions, so an end-to-end run never builds a tuple it does not return.
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


def _encode_triples(triples: Iterable[Triangle], num_nodes: int) -> np.ndarray:
    """Encode an iterable of canonical tuples into (unsorted) keys."""
    rows = np.array(list(triples), dtype=np.int64).reshape(-1, 3)
    return triangle_keys(rows[:, 0], rows[:, 1], rows[:, 2], num_nodes)


def _decode_keys(keys: np.ndarray, num_nodes: int) -> FrozenSet[Triangle]:
    """Decode unique triangle keys into a frozenset of canonical tuples."""
    a, b, c = decode_triangle_keys(keys, num_nodes)
    return frozenset(zip(a.tolist(), b.tolist(), c.tolist()))


class _LazyNodeSets(Mapping):
    """Read-only mapping view over a :class:`TriangleOutput`'s node sets.

    Keeps the historical ``output.per_node`` contract (a mapping of node id
    to frozenset) while materialising each node's tuple set only on access.
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
    """The per-node output tuple ``(T_0, ..., T_{n-1})``.

    Construct from a mapping of materialised frozensets (the historical
    form, still used by hand-written tests and tiny runs) or through
    :meth:`from_contexts` /  :meth:`from_simulator_outputs`, which capture
    the simulator contexts' columnar key chunks without materialising
    anything.
    """

    __slots__ = ("num_nodes", "_nodes", "_sets", "_chunks", "_node_keys", "_cache")

    def __init__(
        self, per_node: Optional[Mapping[NodeId, FrozenSet[Triangle]]] = None
    ) -> None:
        #: Network size used for key encoding (0 = derive from data).
        self.num_nodes = 0
        self._nodes: Set[NodeId] = set()
        # Per-node materialised tuple sets (legacy form / scalar outputs).
        self._sets: Dict[NodeId, FrozenSet[Triangle]] = {}
        # Per-node lists of (possibly duplicated) int64 key chunks.
        self._chunks: Dict[NodeId, List[np.ndarray]] = {}
        # Per-node deduplicated key arrays (computed on demand).
        self._node_keys: Dict[NodeId, np.ndarray] = {}
        # Per-node materialised frozensets (computed on demand).
        self._cache: Dict[NodeId, FrozenSet[Triangle]] = {}
        if per_node:
            for node, triples in per_node.items():
                frozen = (
                    triples if isinstance(triples, frozenset) else frozenset(triples)
                )
                self._nodes.add(node)
                if frozen:
                    self._sets[node] = frozen
                    self._cache[node] = frozen
            self.num_nodes = _key_space(self._sets.values())

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_simulator_outputs(
        cls, outputs: Mapping[NodeId, Iterable[Triangle]]
    ) -> "TriangleOutput":
        """Build an output tuple from collected (materialised) node outputs."""
        return cls(
            {node: frozenset(triples) for node, triples in outputs.items()}
        )

    @classmethod
    def from_contexts(cls, contexts: Sequence[Any], num_nodes: int) -> "TriangleOutput":
        """Capture the contexts' output accumulators without materialising.

        Each context contributes its scalar tuple set (frozen here — small
        for the bulk-emitting kernels, exactly the old per-node copy for the
        reference closures) and its raw key chunks (adopted by reference, no
        copies, no decoding).
        """
        output = cls()
        output.num_nodes = num_nodes
        for context in contexts:
            scalar, chunks = context.output_state()
            node = context.node_id
            output._nodes.add(node)
            if scalar:
                output._sets[node] = frozenset(scalar)
            if chunks:
                output._chunks[node] = list(chunks)
        return output

    # ------------------------------------------------------------------
    # per-node access
    # ------------------------------------------------------------------
    @property
    def per_node(self) -> Mapping[NodeId, FrozenSet[Triangle]]:
        """Mapping view of the tuple (lazy per-node materialisation)."""
        return _LazyNodeSets(self)

    def node_keys(self, node: NodeId) -> np.ndarray:
        """Return ``T_i`` as a sorted, deduplicated int64 key array.

        The fast comparison door: differential tests and benchmarks check
        per-node equality over these arrays without building tuples.
        """
        keys = self._node_keys.get(node)
        if keys is not None:
            return keys
        pieces = []
        chunks = self._chunks.get(node)
        if chunks:
            pieces.extend(chunks)
        triples = self._sets.get(node)
        if triples:
            pieces.append(_encode_triples(triples, self._key_space()))
        keys = sorted_unique(*pieces)
        self._node_keys[node] = keys
        return keys

    def node_output(self, node: NodeId) -> FrozenSet[Triangle]:
        """Return ``T_i`` for a single node (empty when the node output nothing)."""
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        if node in self._chunks:
            result = _decode_keys(self.node_keys(node), self._key_space())
        else:
            result = self._sets.get(node, frozenset())
        self._cache[node] = result
        return result

    def _key_space(self) -> int:
        """The ``n`` used for key encoding (derived lazily for legacy data)."""
        if self.num_nodes == 0:
            self.num_nodes = _key_space(self._sets.values())
        return self.num_nodes

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def union_keys(self) -> np.ndarray:
        """Return the union ``T`` as a sorted unique int64 key array.

        Every raw chunk and every encoded scalar set is deduplicated in one
        pass — never node by node first.
        """
        pieces = [chunk for chunks in self._chunks.values() for chunk in chunks]
        key_space = self._key_space()
        pieces.extend(
            _encode_triples(triples, key_space) for triples in self._sets.values()
        )
        return sorted_unique(*pieces)

    def union(self) -> FrozenSet[Triangle]:
        """Return ``T``, the union of all per-node outputs."""
        return _decode_keys(self.union_keys(), self._key_space())

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
        return not self._sets and not self._chunks

    def __eq__(self, other: Any) -> bool:
        """Structural equality: same nodes, same per-node triple sets.

        Preserves the semantics of the frozen-dataclass era (two outputs
        compare equal iff their ``per_node`` mappings would) without
        materialising tuples when both sides share a key encoding.
        """
        if not isinstance(other, TriangleOutput):
            return NotImplemented
        if self._nodes != other._nodes:
            return False
        same_key_space = self._key_space() == other._key_space()
        for node in self._nodes:
            if same_key_space:
                if not np.array_equal(self.node_keys(node), other.node_keys(node)):
                    return False
            elif self.node_output(node) != other.node_output(node):
                return False
        return True

    #: Lazily materialised and mutable under the hood, so not hashable.
    __hash__ = None

    def merged_with(self, other: "TriangleOutput") -> "TriangleOutput":
        """Return the node-wise union of two output tuples.

        Used when an algorithm repeats a sub-algorithm several times and the
        final output of each node is the union over repetitions.  Chunk
        lists concatenate by reference — no key array is copied or decoded
        here.
        """
        merged = TriangleOutput()
        merged.num_nodes = max(self._key_space(), other._key_space())
        merged._nodes = self._nodes | other._nodes
        for node in merged._nodes:
            mine, theirs = self._sets.get(node), other._sets.get(node)
            if mine and theirs:
                merged._sets[node] = mine | theirs
            elif mine or theirs:
                merged._sets[node] = mine or theirs
            chunk_lists = (self._chunks.get(node), other._chunks.get(node))
            if chunk_lists[0] or chunk_lists[1]:
                merged._chunks[node] = list(chunk_lists[0] or ()) + list(
                    chunk_lists[1] or ()
                )
        return merged


def _key_space(collections: Iterable[Iterable[Triangle]]) -> int:
    """Smallest ``n`` whose key encoding covers every vertex seen (min 1)."""
    largest = 0
    for triples in collections:
        for triple in triples:
            if triple[2] > largest:
                largest = triple[2]
    return largest + 1


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

    The key space is ``max(graph.num_nodes, output's n)``, so a legacy
    output keyed with a smaller ``n`` is re-encoded and reported ids
    outside the graph stay representable.
    """
    num_nodes = max(graph.num_nodes, output._key_space())
    return num_nodes, _recode(output.union_keys(), output._key_space(), num_nodes)


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
        key_space = self.output._key_space()
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
