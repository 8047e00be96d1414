"""Undirected simple graph substrate.

The paper's input is an undirected simple graph ``G = (V, E)`` on
``n = |V|`` vertices identified with ``0 .. n-1``.  In the CONGEST model
the network *is* this graph and it stays fixed for the whole run, so
:class:`Graph` is immutable: a thin wrapper over one
:class:`~repro.graphs.csr.CSRGraph` that answers exactly the queries the
algorithms and the simulator need:

* neighbourhood queries (``N(i)`` in the paper's notation),
* degree and maximum degree (``d_max``),
* edge membership,
* deterministic iteration orders so experiments are reproducible.

Every constructor — ``Graph(n, edges)``, :meth:`Graph.from_edge_arrays`,
the generators, :func:`repro.graphs.io.read_edge_list` and
:meth:`repro.dynamic.delta.DeltaSnapshot.materialize` — runs the one
vectorized build; the evolving-graph design is :mod:`repro.dynamic`.

The class is intentionally *not* a re-implementation of :mod:`networkx`:
node programs in the CONGEST simulator are only ever handed their local view
(:class:`repro.congest.node.NodeContext`), never the global ``Graph``.  The
global object exists for graph generation, ground-truth computation and
verification.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from ..types import Edge, NodeId
from .csr import CSRGraph


def _check_vertex(num_nodes: int, node: NodeId) -> None:
    if not 0 <= node < num_nodes:
        raise GraphError(
            f"vertex {node} is not in the graph (valid range: 0..{num_nodes - 1})"
        )


def _check_pair(num_nodes: int, u: int, v: int) -> None:
    """Raise the :class:`GraphError` an invalid edge ``{u, v}`` earns."""
    _check_vertex(num_nodes, u)
    _check_vertex(num_nodes, v)
    if u == v:
        raise GraphError(f"self-loops are not allowed (vertex {u})")


def _build_csr(
    num_nodes: int,
    u: np.ndarray | Sequence[int],
    v: np.ndarray | Sequence[int],
    deduplicate: bool,
) -> CSRGraph:
    """Validate, canonicalise and (optionally) deduplicate endpoint arrays
    into a :class:`CSRGraph`; the one build every :class:`Graph` runs."""
    if num_nodes < 0:
        raise GraphError(f"num_nodes must be non-negative, got {num_nodes}")
    src = np.asarray(u, dtype=np.int64).ravel()
    dst = np.asarray(v, dtype=np.int64).ravel()
    if src.shape[0] != dst.shape[0]:
        raise GraphError(
            f"endpoint arrays disagree in length: {src.shape[0]} vs {dst.shape[0]}"
        )
    bad = (src < 0) | (src >= num_nodes) | (dst < 0) | (dst >= num_nodes) | (src == dst)
    if bad.any():
        # The first offending pair in input order names the error.
        first = int(np.argmax(bad))
        _check_pair(num_nodes, int(src[first]), int(dst[first]))
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keys = lo * np.int64(num_nodes) + hi
    if deduplicate:
        keys = np.unique(keys)
    else:
        keys = np.sort(keys)
    return CSRGraph.from_edge_arrays(num_nodes, keys // num_nodes, keys % num_nodes)


class Graph:
    """An immutable undirected simple graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    num_nodes:
        Number of vertices.  Vertices are always the integers
        ``0 .. num_nodes - 1``; isolated vertices are allowed.
    edges:
        Optional iterable of vertex pairs.  Pairs may be given in any order;
        duplicates are ignored; self-loops and endpoints outside the vertex
        range raise :class:`GraphError`, naming the first offending pair.
    """

    __slots__ = ("_csr",)

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]] = ()) -> None:
        pairs = np.array(list(edges), dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise GraphError("edges must be (u, v) vertex pairs")
        self._csr = _build_csr(num_nodes, pairs[:, 0], pairs[:, 1], deduplicate=True)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of vertices ``n``."""
        return self._csr.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._csr.num_edges

    def nodes(self) -> range:
        """Return the vertex set as a :class:`range` (always ``0 .. n-1``)."""
        return range(self._csr.num_nodes)

    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is a valid vertex of this graph."""
        return 0 <= node < self._csr.num_nodes

    def _check_node(self, node: NodeId) -> None:
        _check_vertex(self._csr.num_nodes, node)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` when ``{u, v}`` is an edge of the graph."""
        self._check_node(u)
        self._check_node(v)
        return self._csr.has_edge(u, v)

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """Return ``N(node)``, the neighbourhood of ``node``, as a frozenset."""
        return frozenset(self.sorted_neighbors(node))

    def sorted_neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the neighbourhood of ``node`` in increasing vertex order."""
        self._check_node(node)
        return self._csr.neighbor_slice(node).tolist()

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        self._check_node(node)
        return self._csr.degree(node)

    def max_degree(self) -> int:
        """Return ``d_max``, the maximum degree over all vertices (0 if empty)."""
        return self._csr.max_degree()

    def average_degree(self) -> float:
        """Return the average degree ``2m / n`` (0.0 for the empty graph)."""
        if self.num_nodes == 0:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    def density(self) -> float:
        """Return the edge density ``m / C(n, 2)`` (0.0 when ``n < 2``)."""
        if self.num_nodes < 2:
            return 0.0
        possible = self.num_nodes * (self.num_nodes - 1) / 2.0
        return self.num_edges / possible

    def csr(self) -> CSRGraph:
        """Return the graph's CSR core, the one store of its edges.

        All read-heavy consumers (the triangle oracle, simulator context
        construction, parameter selection) run on this object; its arrays
        are read-only, so it can be shared freely across threads.
        """
        return self._csr

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical ``(min, max)`` order.

        The iteration order is deterministic: edges are emitted grouped by
        their smaller endpoint, each group sorted by the larger endpoint.
        """
        return zip(self._csr.edge_u.tolist(), self._csr.edge_v.tolist())

    def edge_list(self) -> List[Edge]:
        """Return all edges as a list (canonical order, see :meth:`edges`)."""
        return list(self.edges())

    def common_neighbors(self, u: NodeId, v: NodeId) -> frozenset[NodeId]:
        """Return the set of vertices adjacent to both ``u`` and ``v``."""
        self._check_node(u)
        self._check_node(v)
        return frozenset(self._csr.common_neighbors(u, v).tolist())

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
        return self.num_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._csr.edge_u, other._csr.edge_u)
            and np.array_equal(self._csr.edge_v, other._csr.edge_v)
        )

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        u: np.ndarray | Sequence[int],
        v: np.ndarray | Sequence[int],
        *,
        deduplicate: bool = True,
    ) -> "Graph":
        """Build a graph from parallel endpoint arrays.

        Endpoints are validated, canonicalised and optionally deduplicated
        in a few array passes, then handed to
        :meth:`CSRGraph.from_edge_arrays` — O(n + m) work with no per-edge
        Python call.

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
            On self-loops or endpoints outside ``0 .. num_nodes - 1``,
            naming the first offending pair.
        """
        graph = cls.__new__(cls)
        graph._csr = _build_csr(num_nodes, u, v, deduplicate)
        return graph


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
