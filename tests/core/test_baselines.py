"""Tests for the naive two-hop / local-listing baseline."""

import pytest

from repro.analysis import local_listing_complete
from repro.api.registry import get_algorithm
from repro.core import LocalListing, NaiveTwoHopListing, naive_round_bound
from repro.errors import AnalysisError
from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    list_triangles,
    triangle_free_bipartite,
    triangles_through_node,
)


class TestNaiveCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_lists_every_triangle(self, seed):
        graph = gnp_random_graph(24, 0.4, seed=seed)
        result = NaiveTwoHopListing().run(graph, seed=seed)
        result.check_soundness(graph)
        assert result.solves_listing(graph)

    def test_triangle_free(self):
        graph = triangle_free_bipartite(20, 0.5, seed=1)
        result = NaiveTwoHopListing().run(graph, seed=1)
        assert not result.found_any()

    def test_empty_graph(self):
        result = NaiveTwoHopListing().run(Graph(3), seed=0)
        assert not result.found_any()
        assert result.rounds == 0

    def test_every_node_outputs_exactly_its_own_triangles(self):
        # The naive exchange is a *local* listing algorithm: node i outputs
        # precisely the triangles containing i.
        graph = gnp_random_graph(20, 0.4, seed=2)
        result = NaiveTwoHopListing().run(graph, seed=2)
        for node in graph.nodes():
            assert set(result.output.node_output(node)) == set(
                triangles_through_node(graph, node)
            )
        assert local_listing_complete(result, graph)

    def test_local_listing_alias(self):
        graph = complete_graph(5)
        result = LocalListing().run(graph, seed=0)
        assert result.algorithm == "local-listing"
        assert result.solves_listing(graph)


class TestNaiveCost:
    def test_rounds_equal_max_degree(self):
        # Each node ships its whole neighbourhood (one identifier per round
        # over each link), so the phase cost is exactly d_max.
        graph = gnp_random_graph(30, 0.4, seed=3)
        result = NaiveTwoHopListing().run(graph, seed=3)
        assert result.rounds == graph.max_degree()

    def test_rounds_on_complete_graph_are_linear(self):
        graph = complete_graph(20)
        result = NaiveTwoHopListing().run(graph, seed=0)
        assert result.rounds == 19

    def test_round_bound_helper(self):
        assert naive_round_bound(17) == 17.0

    def test_cost_independent_of_seed(self):
        # The baseline is deterministic: its cost must not vary with the
        # simulator seed.
        graph = gnp_random_graph(25, 0.4, seed=4)
        first = NaiveTwoHopListing().run(graph, seed=1)
        second = NaiveTwoHopListing().run(graph, seed=99)
        assert first.rounds == second.rounds
        assert first.triangles_found() == second.triangles_found()

    def test_parameters_describe_local_output(self):
        result = NaiveTwoHopListing().run(complete_graph(4), seed=0)
        assert result.parameters == {"local_output_only": True}

    @pytest.mark.parametrize("name", ["naive-two-hop", "local-listing"])
    def test_local_output_only_is_not_a_parameter(self, name):
        # The recorded flag states a fact of the algorithm; a spec that
        # tries to set it must be refused, not silently ignored.
        with pytest.raises(AnalysisError, match="does not accept"):
            get_algorithm(name).build({"local_output_only": False})
