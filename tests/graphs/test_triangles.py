"""Unit tests for the centralized triangle ground-truth utilities."""

import math

import pytest

from repro.graphs import (
    Graph,
    clustering_coefficient,
    complete_graph,
    count_triangles,
    cycle_graph,
    delta_set_membership,
    edge_support,
    gnp_random_graph,
    heaviness_threshold,
    heavy_triangles,
    is_triangle_free,
    light_triangles,
    list_triangles,
    local_triangle_count,
    pair_in_delta,
    rivin_edge_lower_bound,
    triangles_through_node,
    union_of_cliques,
)


class TestListingAndCounting:
    def test_k3(self):
        assert list_triangles(complete_graph(3)) == [(0, 1, 2)]

    def test_k4(self):
        triangles = list_triangles(complete_graph(4))
        assert len(triangles) == 4
        assert (0, 1, 2) in triangles and (1, 2, 3) in triangles

    def test_k_n_count_formula(self):
        for n in (3, 5, 7):
            assert count_triangles(complete_graph(n)) == math.comb(n, 3)

    def test_triangle_free_graphs(self):
        assert count_triangles(cycle_graph(6)) == 0
        assert is_triangle_free(cycle_graph(6))
        assert not is_triangle_free(complete_graph(3))

    def test_empty_graph(self):
        assert list_triangles(Graph(5)) == []
        assert is_triangle_free(Graph(0))

    def test_iter_yields_canonical_sorted_triples(self):
        for a, b, c in list_triangles(gnp_random_graph(20, 0.4, seed=1)):
            assert a < b < c

    def test_no_duplicates(self):
        triangles = list_triangles(gnp_random_graph(25, 0.4, seed=2))
        assert len(triangles) == len(set(triangles))

    def test_matches_networkx_reference(self):
        networkx = pytest.importorskip("networkx")
        graph = gnp_random_graph(30, 0.3, seed=3)
        reference = networkx.Graph(list(graph.edges()))
        reference.add_nodes_from(graph.nodes())
        expected = sum(networkx.triangles(reference).values()) // 3
        assert count_triangles(graph) == expected


class TestPerNodeAndPerEdge:
    def test_triangles_through_node(self):
        graph = complete_graph(4)
        assert len(triangles_through_node(graph, 0)) == 3

    def test_triangles_through_isolated_node(self):
        graph = Graph(4, [(1, 2), (2, 3), (1, 3)])
        assert triangles_through_node(graph, 0) == []

    def test_edge_support_single(self):
        graph = complete_graph(4)
        assert edge_support(graph, (0, 1)) == 2

    def test_edge_support_all(self):
        graph = complete_graph(4)
        supports = edge_support(graph)
        assert set(supports.values()) == {2}
        assert len(supports) == 6

    def test_local_triangle_count_consistency(self):
        graph = gnp_random_graph(20, 0.4, seed=5)
        per_node = local_triangle_count(graph)
        assert sum(per_node.values()) == 3 * count_triangles(graph)

    def test_clustering_coefficient_extremes(self):
        assert clustering_coefficient(complete_graph(4), 0) == pytest.approx(1.0)
        assert clustering_coefficient(cycle_graph(5), 0) == pytest.approx(0.0)
        assert clustering_coefficient(Graph(3, [(0, 1)]), 0) == 0.0


class TestHeaviness:
    def test_threshold_formula(self):
        assert heaviness_threshold(16, 0.5) == pytest.approx(4.0)
        assert heaviness_threshold(16, 0.0) == pytest.approx(1.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            heaviness_threshold(16, 1.5)

    def test_clique_union_heavy_light_split(self):
        # Cliques of size 6 and 3: edges of the 6-clique have support 4,
        # edges of the 3-clique have support 1.
        graph = union_of_cliques([6, 3])
        epsilon = math.log(3) / math.log(graph.num_nodes)  # threshold = 3
        heavy = heavy_triangles(graph, epsilon)
        light = light_triangles(graph, epsilon)
        assert len(heavy) == 20
        assert len(light) == 1
        assert len(heavy) + len(light) == count_triangles(graph)


class TestDeltaSet:
    def test_no_landmarks_means_all_edges(self):
        graph = complete_graph(5)
        assert delta_set_membership(graph, []) == set(graph.edges())

    def test_landmark_removes_covered_pairs(self):
        graph = complete_graph(4)
        # With landmark 3, every pair among {0,1,2} has 3 as a common
        # neighbour, so only edges incident to 3 survive (3 itself has no
        # common neighbour *in X* with anyone... it does: e.g. pair (0,3) has
        # common neighbours 1,2 which are not in X, so it survives).
        surviving = delta_set_membership(graph, [3])
        assert (0, 1) not in surviving
        assert (0, 3) in surviving

    def test_pair_in_delta_for_non_edges(self):
        graph = Graph(4, [(0, 2), (1, 2)])
        # Pair (0, 1) is not an edge; common neighbour 2.
        assert pair_in_delta(graph, 0, 1, [])
        assert not pair_in_delta(graph, 0, 1, [2])

    def test_delta_membership_matches_pairwise_checks(self):
        graph = gnp_random_graph(18, 0.4, seed=9)
        landmarks = [0, 5, 9]
        members = delta_set_membership(graph, landmarks)
        for u, v in graph.edges():
            assert ((u, v) in members) == pair_in_delta(graph, u, v, landmarks)


class TestRivinBound:
    def test_zero_triangles(self):
        assert rivin_edge_lower_bound(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rivin_edge_lower_bound(-1)

    def test_bound_holds_on_actual_graphs(self):
        for seed in range(5):
            graph = gnp_random_graph(25, 0.5, seed=seed)
            bound = rivin_edge_lower_bound(count_triangles(graph))
            assert graph.num_edges >= bound

    def test_bound_holds_on_cliques(self):
        for n in (3, 5, 8, 12):
            graph = complete_graph(n)
            assert graph.num_edges >= rivin_edge_lower_bound(count_triangles(graph))

    def test_monotone(self):
        assert rivin_edge_lower_bound(100) > rivin_edge_lower_bound(10)
