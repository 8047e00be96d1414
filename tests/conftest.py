"""Shared fixtures for the test suite.

Workload graphs are deliberately small (tens of nodes) so the whole suite
runs in well under a minute; the larger sweeps live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    planted_triangle_graph,
    triangle_free_bipartite,
    union_of_cliques,
)


@pytest.fixture
def triangle_graph() -> Graph:
    """The smallest graph with a triangle: K3."""
    return complete_graph(3)


@pytest.fixture
def path_graph() -> Graph:
    """A 4-node path (triangle-free, connected)."""
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def small_dense_graph() -> Graph:
    """A 24-node G(n, 0.4) instance with many triangles."""
    return gnp_random_graph(24, 0.4, seed=42)


@pytest.fixture
def medium_dense_graph() -> Graph:
    """A 40-node G(n, 0.35) instance used by integration tests."""
    return gnp_random_graph(40, 0.35, seed=7)


@pytest.fixture
def bipartite_graph() -> Graph:
    """A 20-node triangle-free bipartite graph."""
    return triangle_free_bipartite(20, 0.5, seed=3)


@pytest.fixture
def planted_graph():
    """A 30-node graph with 4 planted, vertex-disjoint triangles."""
    return planted_triangle_graph(30, 4, seed=11)


@pytest.fixture
def gadget_graph():
    """A heavy-edge gadget: edge (0, 1) shared by 12 triangles on 20 nodes."""
    return heavy_edge_gadget(20, 12, seed=5)


@pytest.fixture
def clique_union_graph() -> Graph:
    """A union of cliques of sizes 6, 4 and 3 (heavy and light triangles)."""
    return union_of_cliques([6, 4, 3])
