"""Tests for Algorithm A1 (Proposition 1): heavy-triangle finding by sampling."""

import math

import pytest

from repro.core import HeavySamplingFinder, a1_sample_cap
from repro.core.a1_sampling import expected_rounds
from repro.graphs import (
    complete_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    list_triangles,
    triangle_free_bipartite,
)


class TestA1Basics:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            HeavySamplingFinder(epsilon=1.5)
        with pytest.raises(ValueError):
            HeavySamplingFinder(epsilon=-0.1)

    def test_invalid_cap_constant(self):
        with pytest.raises(ValueError):
            HeavySamplingFinder(epsilon=0.5, sample_cap_constant=0.0)

    def test_parameters_recorded(self):
        result = HeavySamplingFinder(epsilon=0.25).run(complete_graph(5), seed=1)
        assert result.parameters["epsilon"] == 0.25

    def test_model_and_name(self):
        result = HeavySamplingFinder(epsilon=0.0).run(complete_graph(4), seed=0)
        assert result.model == "CONGEST"
        assert result.algorithm == "A1-heavy-sampling"


class TestA1Soundness:
    @pytest.mark.parametrize("seed", range(5))
    def test_only_real_triangles_reported(self, seed):
        graph = gnp_random_graph(25, 0.4, seed=seed)
        result = HeavySamplingFinder(epsilon=0.3).run(graph, seed=seed)
        result.check_soundness(graph)

    def test_triangle_free_graph_reports_nothing(self, bipartite_graph):
        result = HeavySamplingFinder(epsilon=0.0).run(bipartite_graph, seed=1)
        assert not result.found_any()

    def test_empty_graph(self):
        from repro.graphs import Graph

        result = HeavySamplingFinder(epsilon=0.5).run(Graph(5), seed=1)
        assert not result.found_any()
        assert result.rounds == 0


class TestA1Completeness:
    def test_epsilon_zero_is_exhaustive(self):
        # With epsilon 0 every neighbour is sampled (probability 1) and the
        # cap 4n is never binding, so A1 degenerates to the full 2-hop
        # exchange and finds every triangle.
        graph = gnp_random_graph(20, 0.4, seed=3)
        result = HeavySamplingFinder(epsilon=0.0).run(graph, seed=3)
        assert result.triangles_found() == set(list_triangles(graph))

    def test_finds_heavy_triangle_on_gadget_with_high_probability(self):
        # Edge (0, 1) has support 16 on a 24-node gadget; with epsilon such
        # that n^eps <= 16 the triangle guarantee of Proposition 1 applies.
        graph, _ = heavy_edge_gadget(24, 16, seed=0)
        epsilon = math.log(8) / math.log(24)
        successes = sum(
            1
            for seed in range(20)
            if HeavySamplingFinder(epsilon=epsilon).run(graph, seed=seed).found_any()
        )
        # Single-run success is constant; over 20 seeds we expect a clear
        # majority of successes.
        assert successes >= 12


class TestA1RoundComplexity:
    def test_rounds_bounded_by_cap(self):
        # The per-link payload is capped at 4 n^{1-eps} identifiers, i.e. the
        # phase can cost at most that many rounds (one identifier per round).
        epsilon = 0.5
        graph = gnp_random_graph(36, 0.5, seed=2)
        result = HeavySamplingFinder(epsilon=epsilon).run(graph, seed=2)
        assert result.rounds <= math.ceil(a1_sample_cap(36, epsilon)) + 1

    def test_higher_epsilon_means_fewer_rounds(self):
        graph = gnp_random_graph(40, 0.5, seed=4)
        sparse = HeavySamplingFinder(epsilon=0.8).run(graph, seed=4)
        dense = HeavySamplingFinder(epsilon=0.1).run(graph, seed=4)
        assert sparse.rounds <= dense.rounds

    def test_expected_rounds_helper(self):
        assert expected_rounds(100, 0.5) == pytest.approx(40.0)

    def test_oversized_samples_are_withheld(self):
        # With epsilon 0 on a dense graph every sample is the full
        # neighbourhood; the cap is 4n so nothing is withheld.  With a tiny
        # artificial cap nothing can be sent, so nothing is found.
        graph = complete_graph(12)
        finder = HeavySamplingFinder(epsilon=0.0, sample_cap_constant=0.01)
        result = finder.run(graph, seed=0)
        assert not result.found_any()
        assert result.rounds == 0
