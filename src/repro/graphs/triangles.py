"""Centralized (ground-truth) triangle computations.

The distributed algorithms in the paper are verified against a centralized
oracle.  This module provides that oracle:

* :func:`list_triangles` / :func:`count_triangles` — enumerate ``T(G)``,
* :func:`edge_support` — the quantity ``#(e)`` from Section 2 (the number of
  triangles containing edge ``e``),
* :func:`heavy_triangles` / :func:`light_triangles` — the ε-heavy / non-heavy
  partition of ``T(G)`` that drives the paper's algorithmic decomposition,
* :func:`is_triangle_free` — the predicate motivating the problem in the
  paper's introduction,
* :func:`delta_set_membership` — the ``∆(X)`` filter from Section 3.2.

All functions run on the global :class:`~repro.graphs.graph.Graph`; they are
never used by node programs, only by generators, verification and analysis.

Since the CSR-substrate refactor the heavy lifting happens on the graph's
immutable :meth:`~repro.graphs.graph.Graph.csr` view
(:mod:`repro.graphs.csr`): triangle enumeration, per-edge supports, the
heavy/light partition and the ``∆(X)`` filter are all array reductions.  The
original pure-Python set-intersection loop survives as
:func:`iter_triangles_reference`, the independent implementation the
vectorized oracle is differentially tested against.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Set

from ..types import Edge, NodeId, Triangle, make_edge
from .graph import Graph


def iter_triangles_reference(graph: Graph) -> Iterator[Triangle]:
    """Pure-Python reference enumeration (the oracle's differential witness).

    The standard "forward" strategy: each triangle ``{u, v, w}`` with
    ``u < v < w`` is reported exactly once, by scanning the neighbours of
    ``u`` greater than ``u`` and intersecting adjacency sets.  ``w`` is
    drawn from the higher-neighbour list itself, so (unlike an earlier
    revision of this loop) no redundant membership test against that list
    is needed — only adjacency of ``v`` and ``w`` has to be checked.

    Kept deliberately independent of the vectorized oracle in
    :mod:`repro.graphs.csr` (it reads only neighbour lists): the test
    suite asserts the oracle agrees with this loop on every workload
    family.
    """
    for u in graph.nodes():
        higher = [v for v in graph.sorted_neighbors(u) if v > u]
        for index, v in enumerate(higher):
            v_neighbors = graph.neighbors(v)
            for w in higher[index + 1:]:
                if w in v_neighbors:
                    yield (u, v, w)


def list_triangles(graph: Graph) -> List[Triangle]:
    """Return all triangles of ``graph`` (the set ``T(G)``) as a sorted list."""
    return [tuple(row) for row in graph.csr().triangles().tolist()]  # type: ignore[misc]


def count_triangles(graph: Graph) -> int:
    """Return ``|T(G)|``, the number of triangles of ``graph``.

    Counting runs on per-edge supports (one array reduction) where they
    are cached or cheap, and otherwise counts the enumeration's chunks as
    they stream past; it never materialises the triangle list.
    """
    return graph.csr().count_triangles()


def is_triangle_free(graph: Graph) -> bool:
    """Return ``True`` when ``graph`` contains no triangle (early-exit)."""
    return not graph.csr().has_triangle()


def triangles_through_node(graph: Graph, node: NodeId) -> List[Triangle]:
    """Return all triangles containing ``node``.

    This is the per-node output required from a *local* listing algorithm
    (Proposition 5 setting).
    """
    return [
        tuple(row)  # type: ignore[misc]
        for row in graph.csr().triangles_through(node).tolist()
    ]


def edge_support(graph: Graph, edge: Edge | None = None) -> Dict[Edge, int] | int:
    """Return ``#(e)`` for one edge, or for every edge when ``edge`` is None.

    ``#(e)`` is the number of triangles containing ``e`` (Section 2),
    equivalently the number of common neighbours of its endpoints.

    Parameters
    ----------
    graph:
        The input graph.
    edge:
        When given, return the support of that single edge as an ``int``.
        When omitted, return a dict mapping every edge of the graph to its
        support (computed as one vectorized reduction on the CSR view).
    """
    if edge is not None:
        u, v = make_edge(*edge)
        return len(graph.common_neighbors(u, v))
    csr = graph.csr()
    supports = csr.edge_support()
    return {
        (u, v): s
        for u, v, s in zip(
            csr.edge_u.tolist(), csr.edge_v.tolist(), supports.tolist()
        )
    }


def heaviness_threshold(num_nodes: int, epsilon: float) -> float:
    """Return the ε-heaviness threshold ``n^ε`` used throughout Section 3."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    if num_nodes <= 0:
        return 0.0
    return float(num_nodes) ** epsilon


def heavy_triangles(graph: Graph, epsilon: float) -> List[Triangle]:
    """Return ``T_ε(G)``: all ε-heavy triangles of ``graph``."""
    threshold = heaviness_threshold(graph.num_nodes, epsilon)
    triangles, mask = graph.csr().heavy_triangle_mask(threshold)
    return [tuple(row) for row in triangles[mask].tolist()]  # type: ignore[misc]


def light_triangles(graph: Graph, epsilon: float) -> List[Triangle]:
    """Return ``T(G) \\ T_ε(G)``: all triangles of ``graph`` that are not ε-heavy."""
    threshold = heaviness_threshold(graph.num_nodes, epsilon)
    triangles, mask = graph.csr().heavy_triangle_mask(threshold)
    return [tuple(row) for row in triangles[~mask].tolist()]  # type: ignore[misc]


def delta_set_membership(graph: Graph, landmarks: Iterable[NodeId]) -> Set[Edge]:
    """Return the pairs of the graph's edge set that belong to ``∆(X)``.

    ``∆(X)`` (Section 3.2) is defined over *all* vertex pairs: the pairs with
    no common neighbour in ``X``.  The algorithms only ever query membership
    for pairs that are edges of the graph, so this helper restricts the
    enumeration to ``E`` which keeps it quadratic-free.  Use
    :func:`pair_in_delta` for arbitrary pairs.
    """
    csr = graph.csr()
    mask = csr.delta_edge_mask(landmarks)
    return {
        (u, v)
        for u, v in zip(csr.edge_u[mask].tolist(), csr.edge_v[mask].tolist())
    }


def pair_in_delta(graph: Graph, u: NodeId, v: NodeId, landmarks: Iterable[NodeId]) -> bool:
    """Return ``True`` when the pair ``{u, v}`` belongs to ``∆(X)``.

    The pair does not need to be an edge of the graph; ``∆(X)`` is defined on
    ``E(V)``, all unordered vertex pairs.
    """
    landmark_set = set(landmarks)
    return not (graph.common_neighbors(u, v) & landmark_set)


def local_triangle_count(graph: Graph) -> Dict[NodeId, int]:
    """Return, for every node, the number of triangles containing it.

    Computed from per-edge supports (every triangle through a node
    contributes to exactly two of its incident edges), without listing.
    """
    counts = graph.csr().local_triangle_counts()
    return {node: count for node, count in enumerate(counts.tolist())}


def clustering_coefficient(graph: Graph, node: NodeId) -> float:
    """Return the local clustering coefficient of ``node``.

    Used by the example applications to characterise the synthetic social
    networks; not needed by the paper's algorithms.
    """
    degree = graph.degree(node)
    if degree < 2:
        return 0.0
    possible = degree * (degree - 1) / 2
    closed = len(triangles_through_node(graph, node))
    return closed / possible


def rivin_edge_lower_bound(num_triangles: int) -> float:
    """Return Rivin's lower bound on the number of edges covering ``t`` triangles.

    Lemma 4 of the paper (due to Rivin): a graph containing ``t`` triangles
    has at least ``(sqrt(2)/3) * t^(2/3)`` edges.  The lower-bound experiments
    check measured outputs against this bound.
    """
    if num_triangles < 0:
        raise ValueError(f"num_triangles must be non-negative, got {num_triangles}")
    if num_triangles == 0:
        return 0.0
    return (math.sqrt(2.0) / 3.0) * float(num_triangles) ** (2.0 / 3.0)
