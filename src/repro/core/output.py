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

The output tuple is stored as **int64 triangle keys only**, in the
simulator's :class:`~repro.congest.node.OutputTable`: key chunks whose
receivers are stored as runs, plus deferred sources (A2's dense step 3)
that compute their union directly and list per-node chunks only on
demand.  The per-node frozensets of canonical tuples — millions of Python
objects on dense workloads — are only decoded for the nodes a consumer
actually reads, and a node's keys are grouped out of the chunks only
then.  The union, emptiness and node-wise merging never list a deferred
source: the union sorts the sources' undeduplicated key blocks together
with the raw chunks, once, and is kept read-only on the output; merging
carries sources by reference.  A record needs only the union, so an
end-to-end run never lists a per-node copy it does not read and never
builds a tuple it does not return.

Verification (:class:`_TruthComparison`) counts instead of listing:
``|T(G)|`` is the oracle's count, the spurious keys come from adjacency
lookups on the decoded union, and the reported triangles are the union
less those.  ``T(G)`` is listed only for a caller that asks for the
missed triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from ..congest.backends import fused_chunk_rows, sorted_membership
from ..congest.metrics import AlgorithmCost, ExecutionMetrics
from ..congest.node import OutputTable
from ..errors import VerificationError
from ..graphs.csr import CSRGraph
from ..graphs.graph import Graph
from ..types import (
    NodeId,
    Triangle,
    decode_triangle_keys,
    decode_triangle_set,
    sorted_unique,
    triangle_keys,
)


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
    """The per-node output tuple ``(T_0, ..., T_{n-1})``, as an output table.

    Construct from a mapping of node id to triples (hand-written tests and
    probes), which is encoded once with ``n`` = largest vertex + 1, or
    through :meth:`from_table`, which adopts a simulator's output table
    without copying or decoding its chunks.
    """

    __slots__ = ("_nodes", "_table", "_union")

    def __init__(
        self, per_node: Optional[Mapping[NodeId, Iterable[Triangle]]] = None
    ) -> None:
        rows = {
            node: np.array(list(triples), dtype=np.int64).reshape(-1, 3)
            for node, triples in (per_node or {}).items()
        }
        num_nodes = 1 + max(
            (int(block.max()) for block in rows.values() if block.shape[0]), default=0
        )
        # The nodes the tuple covers: a node that reported nothing has an
        # empty set, not a missing one.
        self._nodes: AbstractSet[NodeId] = frozenset(rows)
        self._table = OutputTable(num_nodes)
        self._union: Optional[np.ndarray] = None
        for node, block in rows.items():
            self._table.emit(
                node, triangle_keys(block[:, 0], block[:, 1], block[:, 2], num_nodes)
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_table(cls, table: OutputTable) -> "TriangleOutput":
        """Adopt a table's chunks and sources by reference, covering nodes ``0 .. n-1``."""
        nodes = range(table.num_nodes)
        return cls._of(
            nodes, OutputTable(table.num_nodes, table.raw_chunks, table.sources)
        )

    @classmethod
    def _of(cls, nodes: AbstractSet[NodeId], table: OutputTable) -> "TriangleOutput":
        output = cls.__new__(cls)
        output._nodes = nodes
        output._table = table
        output._union = None
        return output

    @property
    def num_nodes(self) -> int:
        """Network size ``n`` of the key encoding."""
        return self._table.num_nodes

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
        per-node equality over these arrays without building tuples.  The
        first call groups every report by node once.
        """
        return self._table.node_keys(node)

    def node_output(self, node: NodeId) -> FrozenSet[Triangle]:
        """Return ``T_i`` for a single node (empty when the node output nothing).

        Decoded on every call and never kept: only the keys stay in memory.
        """
        return self._table.node_output(node)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def union_keys(self) -> np.ndarray:
        """Return the union ``T`` as a sorted unique, read-only int64 key array.

        Computed on the first call and kept: nothing writes to an output's
        table after construction, so every later reader — verification,
        the soundness and recall checks, ``summary`` — shares one union.
        Every raw chunk and every deferred source's undeduplicated key
        blocks are deduplicated in one pass — never node by node first,
        never a source on its own, and no source lists its per-node chunks.
        """
        if self._union is None:
            table = self._table
            union = sorted_unique(
                *(keys for keys, _, _ in table.raw_chunks),
                *(block for source in table.sources for block in source.key_blocks()),
            )
            union.setflags(write=False)
            self._union = union
        return self._union

    def union(self) -> FrozenSet[Triangle]:
        """Return ``T``, the union of all per-node outputs."""
        return decode_triangle_set(self.union_keys(), self.num_nodes)

    def total_reported(self) -> int:
        """Return the total number of (node, triple) report events."""
        return int(self._table.report_pairs()[0].shape[0])

    def busiest_node(self) -> Optional[NodeId]:
        """Return ``w(T)``: the node whose output set is largest (ties: lowest id).

        Returns ``None`` when every node output the empty set.  This is the
        node the lower-bound argument of Theorem 3 focuses on.
        """
        nodes = self._table.report_pairs()[0]
        if not nodes.shape[0]:
            return None
        return int(np.argmax(np.bincount(nodes)))

    def is_empty(self) -> bool:
        """Return ``True`` when no node output any triple."""
        if self._union is not None:
            return not self._union.shape[0]
        table = self._table
        return not table.raw_chunks and not any(
            block.shape[0] for source in table.sources for block in source.key_blocks()
        )

    def __eq__(self, other: Any) -> bool:
        """Structural equality: same nodes, same per-node triple sets.

        Two outputs compare equal iff their ``per_node`` mappings would;
        keys are compared in the larger of the two key spaces.
        """
        if not isinstance(other, TriangleOutput):
            return NotImplemented
        if frozenset(self._nodes) != frozenset(other._nodes):
            return False
        num_nodes = max(self.num_nodes, other.num_nodes)
        mine = self._table.report_pairs()
        theirs = other._table.report_pairs()
        return np.array_equal(mine[0], theirs[0]) and np.array_equal(
            _recode(mine[1], self.num_nodes, num_nodes),
            _recode(theirs[1], other.num_nodes, num_nodes),
        )

    #: Lazily grouped under the hood, so not hashable.
    __hash__ = None

    def merged_with(self, other: "TriangleOutput") -> "TriangleOutput":
        """Return the node-wise union of two output tuples.

        Used when an algorithm repeats a sub-algorithm several times and the
        final output of each node is the union over repetitions.  The two
        chunk lists and the two source lists concatenate by reference; a
        chunk's keys are re-encoded only when the two key spaces differ,
        and a source is then wrapped to re-encode what it yields.  No loop
        runs over nodes, and no source is listed.
        """
        num_nodes = max(self.num_nodes, other.num_nodes)
        chunks = [
            (_recode(keys, output.num_nodes, num_nodes), run_nodes, run_starts)
            for output in (self, other)
            for keys, run_nodes, run_starts in output._table.raw_chunks
        ]
        sources = [
            source
            if output.num_nodes == num_nodes
            else _RecodedSource(source, output.num_nodes, num_nodes)
            for output in (self, other)
            for source in output._table.sources
        ]
        nodes = (
            self._nodes
            if self._nodes == other._nodes
            else frozenset(self._nodes) | frozenset(other._nodes)
        )
        return TriangleOutput._of(nodes, OutputTable(num_nodes, chunks, sources))


class _RecodedSource:
    """A deferred output source, re-keyed into a larger key space on read."""

    __slots__ = ("_source", "_from_nodes", "_to_nodes")

    def __init__(self, source: Any, from_nodes: int, to_nodes: int) -> None:
        self._source = source
        self._from_nodes = from_nodes
        self._to_nodes = to_nodes

    def key_blocks(self) -> Iterator[np.ndarray]:
        for keys in self._source.key_blocks():
            yield _recode(keys, self._from_nodes, self._to_nodes)

    def chunks(self) -> list:
        return [
            (_recode(keys, self._from_nodes, self._to_nodes), run_nodes, run_starts)
            for keys, run_nodes, run_starts in self._source.chunks()
        ]


def _recode(keys: np.ndarray, from_nodes: int, to_nodes: int) -> np.ndarray:
    """Move triangle keys from one key space to another (order is kept)."""
    if from_nodes == to_nodes:
        return keys
    a, b, c = decode_triangle_keys(keys, from_nodes)
    return triangle_keys(a, b, c, to_nodes)


class _TruthComparison:
    """A reported union against ``T(G)``, verified by counting.

    A record needs three numbers: ``|T(G)|`` (the oracle's count, never a
    listing), how many distinct reported triples are triangles, and which
    reported triples are not.  The triangles nobody reported are listed
    only when someone asks (:meth:`missed_triangles`).
    """

    __slots__ = ("output", "graph", "total_truth", "found", "spurious")

    def __init__(self, output: TriangleOutput, graph: Graph) -> None:
        union = output.union_keys()
        self.output = output
        self.graph = graph
        self.total_truth = graph.csr().count_triangles()
        #: The union's keys that name no triangle of G, ascending, in the
        #: output's key space.
        self.spurious = _spurious_keys(union, output.num_nodes, graph.csr())
        #: How many distinct reported triples are triangles of G.
        self.found = union.shape[0] - self.spurious.shape[0]

    @property
    def complete(self) -> bool:
        """Whether every triangle of G was reported."""
        return self.found == self.total_truth

    @property
    def recall(self) -> float:
        if not self.total_truth:
            return 1.0
        return self.found / self.total_truth

    def spurious_triangles(self) -> FrozenSet[Triangle]:
        return decode_triangle_set(self.spurious, self.output.num_nodes)

    def missed_triangles(self) -> FrozenSet[Triangle]:
        """List the triangles of G absent from the union.

        Streams the oracle's chunks, which come in canonical key order,
        against the union: nothing keeps the whole truth.
        """
        if self.complete:
            return frozenset()
        key_space, reported = _keyed_union(self.output, self.graph)
        missed = [
            rows[~sorted_membership(reported, triangle_keys(*rows.T, key_space))]
            for rows in self.graph.csr().iter_triangle_chunks()
        ]
        a, b, c = np.concatenate(missed).T
        return frozenset(zip(a.tolist(), b.tolist(), c.tolist()))


def _keyed_union(output: TriangleOutput, graph: Graph) -> Tuple[int, np.ndarray]:
    """Return ``(n, keys)``: the union of ``output`` keyed for comparison with ``graph``.

    The key space is ``max(graph.num_nodes, output's n)``, so an output
    keyed with a smaller ``n`` is re-encoded and reported ids outside the
    graph stay representable.  Re-encoding into a larger space keeps the
    keys ascending.
    """
    num_nodes = max(graph.num_nodes, output.num_nodes)
    return num_nodes, _recode(output.union_keys(), output.num_nodes, num_nodes)


def _spurious_keys(keys: np.ndarray, key_space: int, csr: CSRGraph) -> np.ndarray:
    """Return the keys, in order, that name no triangle of ``csr``.

    A key names a triangle exactly when it decodes to a canonical triple
    ``a < b < c`` of ids in ``[0, n)`` whose three pairs are edges.  Keys
    are decoded and checked in blocks of the chunk bound, so no
    full-length decoded column is ever held.
    """
    num_nodes = csr.num_nodes
    step = fused_chunk_rows()
    bad_blocks = [np.empty(0, dtype=np.int64)]
    for start in range(0, keys.shape[0], step):
        block = keys[start : start + step]
        a, b, c = decode_triangle_keys(block, key_space)
        inside = np.flatnonzero((a >= 0) & (a < b) & (b < c) & (c < num_nodes))
        if inside.shape[0] < block.shape[0]:
            a, b, c = a[inside], b[inside], c[inside]
        closed = csr.has_edges(a, b)
        closed &= csr.has_edges(a, c)
        closed &= csr.has_edges(b, c)
        if inside.shape[0] == block.shape[0] and closed.all():
            continue
        bad = np.ones(block.shape[0], dtype=bool)
        bad[inside[closed]] = False
        bad_blocks.append(block[bad])
    return np.concatenate(bad_blocks)


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
        self._require_sound(_TruthComparison(self.output, graph))

    def _require_sound(self, comparison: _TruthComparison) -> None:
        """Raise naming the lowest offending node and its smallest bad triple."""
        spurious = comparison.spurious
        if not spurious.shape[0]:
            return
        for node in sorted(self.output._nodes):
            keys = self.output.node_keys(node)
            bad = keys[sorted_membership(spurious, keys)]
            if bad.shape[0]:
                a, b, c = map(int, decode_triangle_keys(bad[0], self.output.num_nodes))
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
        return _TruthComparison(self.output, graph).recall

    def missed_triangles(self, graph: Graph) -> FrozenSet[Triangle]:
        """Return the triangles of ``G`` absent from the reported union."""
        return _TruthComparison(self.output, graph).missed_triangles()

    def solves_finding(self, graph: Graph) -> bool:
        """Return ``True`` when this run solves the finding problem on ``graph``.

        Finding requires a reported triangle when ``T(G)`` is non-empty and
        an empty output otherwise (the "not found" answer).
        """
        comparison = _TruthComparison(self.output, graph)
        self._require_sound(comparison)
        if comparison.total_truth:
            return self.found_any()
        return not self.found_any()

    def solves_listing(self, graph: Graph) -> bool:
        """Return ``True`` when this run solves the listing problem on ``graph``."""
        comparison = _TruthComparison(self.output, graph)
        self._require_sound(comparison)
        return comparison.complete

    def summary(self) -> str:
        """Return a one-line human-readable summary of the run."""
        return (
            f"{self.algorithm} [{self.model}]: rounds={self.cost.rounds}, "
            f"reported={self.output.union_keys().shape[0]} distinct triangles"
            + (", truncated" if self.truncated else "")
        )
