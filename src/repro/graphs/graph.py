"""Undirected simple graph substrate.

The paper's input is an undirected simple graph ``G = (V, E)`` on
``n = |V|`` vertices identified with ``0 .. n-1``.  This module provides a
small, dependency-free adjacency-set representation with exactly the queries
the algorithms and the simulator need:

* neighbourhood queries (``N(i)`` in the paper's notation),
* degree and maximum degree (``d_max``),
* edge membership,
* induced subgraphs (used by the recursive step of Algorithm ``A(X, r)``
  during verification),
* deterministic iteration orders so experiments are reproducible.

The class is intentionally *not* a re-implementation of :mod:`networkx`:
node programs in the CONGEST simulator are only ever handed their local view
(:class:`repro.congest.node.NodeContext`), never the global ``Graph``.  The
global object exists for graph generation, ground-truth computation and
verification.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import GraphError
from ..types import Edge, NodeId
from .csr import CSRGraph


class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of vertices.  Vertices are always the integers
        ``0 .. num_nodes - 1``; isolated vertices are allowed.
    edges:
        Optional iterable of vertex pairs.  Pairs may be given in any order;
        duplicates are ignored; self-loops raise :class:`GraphError`.
    """

    __slots__ = (
        "_num_nodes",
        "_adjacency",
        "_num_edges",
        "_csr_cache",
        "_lock",
        "__weakref__",
    )

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        self._num_nodes = num_nodes
        self._adjacency: List[Set[NodeId]] = [set() for _ in range(num_nodes)]
        self._num_edges = 0
        self._csr_cache: Optional[CSRGraph] = None
        # Serializes mutation against the lazy CSR build, so a reader
        # thread never snapshots a half-applied edge update (the
        # concurrent reader/ingest pattern of repro.dynamic).
        self._lock = threading.Lock()
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of vertices ``n``."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._num_edges

    def nodes(self) -> range:
        """Return the vertex set as a :class:`range` (always ``0 .. n-1``)."""
        return range(self._num_nodes)

    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is a valid vertex of this graph."""
        return 0 <= node < self._num_nodes

    def _check_node(self, node: NodeId) -> None:
        if not self.has_node(node):
            raise GraphError(
                f"vertex {node} is not in the graph (valid range: 0..{self._num_nodes - 1})"
            )

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` when ``{u, v}`` is an edge of the graph."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        return v in self._adjacency[u]

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return ``N(node)``, the neighbourhood of ``node``, as a frozenset."""
        self._check_node(node)
        return frozenset(self._adjacency[node])

    def sorted_neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the neighbourhood of ``node`` in increasing vertex order."""
        self._check_node(node)
        return sorted(self._adjacency[node])

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        self._check_node(node)
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        """Return ``d_max``, the maximum degree over all vertices (0 if empty)."""
        if self._num_nodes == 0:
            return 0
        return max(len(adj) for adj in self._adjacency)

    def average_degree(self) -> float:
        """Return the average degree ``2m / n`` (0.0 for the empty graph)."""
        if self._num_nodes == 0:
            return 0.0
        return 2.0 * self._num_edges / self._num_nodes

    def density(self) -> float:
        """Return the edge density ``m / C(n, 2)`` (0.0 when ``n < 2``)."""
        if self._num_nodes < 2:
            return 0.0
        possible = self._num_nodes * (self._num_nodes - 1) / 2.0
        return self._num_edges / possible

    def csr(self) -> CSRGraph:
        """Return an immutable CSR view of the current adjacency structure.

        The view is built lazily on first access and cached; any mutation
        (:meth:`add_edge`, :meth:`remove_edge`) invalidates the cache, so a
        returned :class:`~repro.graphs.csr.CSRGraph` is always a consistent
        snapshot and never aliases a graph that has since changed.  All
        read-heavy consumers (the triangle oracle, simulator context
        construction, parameter selection) run on this view.

        Safe under concurrent readers and mutators: the build happens
        under the graph's lock, mutating calls take the same lock, and a
        reader racing a mutation gets either the pre- or post-mutation
        snapshot — never a torn one.
        """
        view = self._csr_cache
        if view is not None:
            return view
        with self._lock:
            if self._csr_cache is None:
                self._csr_cache = CSRGraph.from_graph(self)
            return self._csr_cache

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical ``(min, max)`` order.

        The iteration order is deterministic: edges are emitted grouped by
        their smaller endpoint, each group sorted by the larger endpoint.
        """
        for u in range(self._num_nodes):
            for v in sorted(self._adjacency[u]):
                if u < v:
                    yield (u, v)

    def edge_list(self) -> List[Edge]:
        """Return all edges as a list (canonical order, see :meth:`edges`)."""
        return list(self.edges())

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_edge(self, u: NodeId, v: NodeId) -> bool:
        """Add the edge ``{u, v}``.

        Returns
        -------
        bool
            ``True`` when the edge was newly added, ``False`` when it was
            already present.

        Raises
        ------
        GraphError
            If either endpoint is not a vertex of the graph or ``u == v``.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u})")
        with self._lock:
            if v in self._adjacency[u]:
                return False
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            self._num_edges += 1
            self._csr_cache = None
            return True

    def remove_edge(self, u: NodeId, v: NodeId) -> bool:
        """Remove the edge ``{u, v}`` if present.

        Returns
        -------
        bool
            ``True`` when an edge was removed, ``False`` when it was absent.
        """
        self._check_node(u)
        self._check_node(v)
        with self._lock:
            if u == v or v not in self._adjacency[u]:
                return False
            self._adjacency[u].discard(v)
            self._adjacency[v].discard(u)
            self._num_edges -= 1
            self._csr_cache = None
            return True

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        clone = Graph(self._num_nodes)
        clone._adjacency = [set(adj) for adj in self._adjacency]
        clone._num_edges = self._num_edges
        # The CSR view is immutable, so sharing the snapshot is safe: the
        # clone drops it on its first mutation like any other cache.
        clone._csr_cache = self._csr_cache
        return clone

    def induced_subgraph(self, nodes: Iterable[NodeId]) -> "InducedSubgraph":
        """Return the subgraph induced by ``nodes``.

        The returned object keeps the *original* vertex identifiers (it does
        not relabel), which matches how the recursive step of Algorithm
        ``A(X, r)`` restricts attention to the current node set ``U`` while
        nodes keep their global identifiers.
        """
        return InducedSubgraph(self, nodes)

    def common_neighbors(self, u: NodeId, v: NodeId) -> frozenset[NodeId]:
        """Return the set of vertices adjacent to both ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        return frozenset(self._adjacency[u] & self._adjacency[v])

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if isinstance(item, int):
            return self.has_node(item)
        if isinstance(item, tuple) and len(item) == 2:
            u, v = item
            if isinstance(u, int) and isinstance(v, int):
                if not (self.has_node(u) and self.has_node(v)):
                    return False
                return self.has_edge(u, v)
        return False

    def __len__(self) -> int:
        return self._num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._num_nodes == other._num_nodes
            and self._adjacency == other._adjacency
        )

    def __hash__(self) -> int:  # pragma: no cover - graphs are mutable
        raise TypeError("Graph objects are mutable and therefore unhashable")

    def __getstate__(self):
        # The mutation lock cannot be pickled; a copy gets a fresh one.
        return {
            "_num_nodes": self._num_nodes,
            "_adjacency": self._adjacency,
            "_num_edges": self._num_edges,
            "_csr_cache": self._csr_cache,
        }

    def __setstate__(self, state) -> None:
        for slot in ("_num_nodes", "_adjacency", "_num_edges", "_csr_cache"):
            setattr(self, slot, state[slot])
        self._lock = threading.Lock()

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self._num_edges})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, num_nodes: int, edges: Sequence[Tuple[int, int]]) -> "Graph":
        """Build a graph from an explicit edge list."""
        return cls(num_nodes, edges)

    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        u: np.ndarray | Sequence[int],
        v: np.ndarray | Sequence[int],
        *,
        deduplicate: bool = True,
    ) -> "Graph":
        """Bulk-build a graph from parallel endpoint arrays (the fast path).

        The vectorized generators funnel through here: endpoints are
        canonicalised, optionally deduplicated, and both the adjacency sets
        and the CSR view are constructed in one pass — O(n + m) Python
        operations instead of one :meth:`add_edge` call per edge.

        Parameters
        ----------
        num_nodes:
            Number of vertices.
        u, v:
            Parallel endpoint arrays.  Pairs may be in any order.
        deduplicate:
            Set to ``False`` only when the caller guarantees the canonical
            pairs are distinct (saves the unique pass).

        Raises
        ------
        GraphError
            On self-loops or endpoints outside ``0 .. num_nodes - 1``.
        """
        if num_nodes < 0:
            raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
        src = np.asarray(u, dtype=np.int64).ravel()
        dst = np.asarray(v, dtype=np.int64).ravel()
        if src.shape[0] != dst.shape[0]:
            raise GraphError(
                f"endpoint arrays disagree in length: {src.shape[0]} vs {dst.shape[0]}"
            )
        graph = cls(num_nodes)
        if src.shape[0] == 0:
            return graph
        if src.min() < 0 or dst.min() < 0 or max(int(src.max()), int(dst.max())) >= num_nodes:
            raise GraphError(
                f"endpoints must lie in 0..{num_nodes - 1}"
            )
        if (src == dst).any():
            loop = int(src[np.flatnonzero(src == dst)[0]])
            raise GraphError(f"self-loops are not allowed (vertex {loop})")
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keys = lo * np.int64(num_nodes) + hi
        if deduplicate:
            keys = np.unique(keys)
        else:
            keys = np.sort(keys)
        edge_u = keys // num_nodes
        edge_v = keys % num_nodes
        csr = CSRGraph.from_edge_arrays(num_nodes, edge_u, edge_v)
        indptr, indices = csr.indptr, csr.indices
        graph._adjacency = [
            set(indices[indptr[node] : indptr[node + 1]].tolist())
            for node in range(num_nodes)
        ]
        graph._num_edges = int(edge_u.shape[0])
        graph._csr_cache = csr
        return graph

    @classmethod
    def from_adjacency(cls, adjacency: Dict[int, Iterable[int]], num_nodes: int | None = None) -> "Graph":
        """Build a graph from an adjacency mapping ``{vertex: neighbours}``.

        The mapping does not need to be symmetric; each listed pair is added
        as an undirected edge.
        """
        if num_nodes is None:
            highest = -1
            for u, nbrs in adjacency.items():
                highest = max(highest, u, *list(nbrs) or [-1])
            num_nodes = highest + 1
        graph = cls(num_nodes)
        for u, nbrs in adjacency.items():
            for v in nbrs:
                graph.add_edge(u, v)
        return graph


class InducedSubgraph:
    """A read-only view of the subgraph induced by a vertex subset.

    Vertex identifiers are preserved (not relabelled).  Only the queries
    needed by the verification code are provided.
    """

    __slots__ = ("_parent", "_nodes")

    def __init__(self, parent: Graph, nodes: Iterable[NodeId]) -> None:
        node_set = set(nodes)
        for node in node_set:
            if not parent.has_node(node):
                raise GraphError(f"vertex {node} is not in the parent graph")
        self._parent = parent
        self._nodes = frozenset(node_set)

    @property
    def nodes(self) -> frozenset[NodeId]:
        """The vertex subset defining this view."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        """Number of vertices in the view."""
        return len(self._nodes)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` when both endpoints are in the view and adjacent."""
        return u in self._nodes and v in self._nodes and self._parent.has_edge(u, v)

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return the neighbours of ``node`` restricted to the view."""
        if node not in self._nodes:
            raise GraphError(f"vertex {node} is not in the induced subgraph")
        return frozenset(self._parent.neighbors(node) & self._nodes)

    def edges(self) -> Iterator[Edge]:
        """Iterate over the edges with both endpoints in the view."""
        for u, v in self._parent.edges():
            if u in self._nodes and v in self._nodes:
                yield (u, v)

    def num_edges(self) -> int:
        """Return the number of edges with both endpoints in the view."""
        return sum(1 for _ in self.edges())

    def __repr__(self) -> str:
        return (
            f"InducedSubgraph(num_nodes={len(self._nodes)}, "
            f"parent={self._parent!r})"
        )


def is_connected(graph: Graph) -> bool:
    """Return ``True`` when ``graph`` is connected (vacuously true if empty).

    The CONGEST algorithms themselves do not require connectivity; the
    spanning-tree primitives (:mod:`repro.congest.aggregation`) only reach
    the whole network when it is connected, which is what their tests check.
    """
    n = graph.num_nodes
    if n <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nbr in graph.neighbors(node):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == n
