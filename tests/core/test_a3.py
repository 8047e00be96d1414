"""Tests for Algorithm A3 / A(X, r) (Proposition 3, Figure 2)."""

import math

import numpy as np
import pytest

from repro.congest import CongestSimulator
from repro.core import LightTrianglesLister, a3_round_budget, run_axr
from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    light_triangles,
    list_triangles,
    triangle_free_bipartite,
)


class TestAXRDirectly:
    """Tests of the inner A(X, r) procedure with an explicit landmark set."""

    def run_with_landmarks(self, graph, landmarks, threshold, seed=0):
        simulator = CongestSimulator(graph, seed=seed)
        in_x = np.isin(np.arange(graph.num_nodes), list(landmarks))
        run_axr(simulator, in_x, threshold)
        return simulator

    def test_empty_landmarks_full_threshold_lists_everything(self):
        # With X empty, Delta(X) contains every pair, and with r >= n no set
        # is ever withheld: A(X, r) degenerates to a complete exchange of
        # candidate lists and must list every triangle.
        graph = gnp_random_graph(16, 0.4, seed=1)
        simulator = self.run_with_landmarks(graph, set(), threshold=20)
        found = set()
        for output in simulator.collect_outputs().values():
            found |= output
        assert found == set(list_triangles(graph))

    def test_landmark_suppresses_covered_triangles(self):
        # K4 with landmark node 3: every pair of {0,1,2} has common
        # neighbour 3 in X, so the triangle (0,1,2)'s edges are all outside
        # Delta(X)... (0,1) has common neighbours {2,3}; 3 is a landmark so
        # (0,1) not in Delta(X).  Hence (0,1,2) must NOT be guaranteed; but
        # crucially any triangle reported must still be sound.
        graph = complete_graph(4)
        simulator = self.run_with_landmarks(graph, {3}, threshold=10)
        for output in simulator.collect_outputs().values():
            for a, b, c in output:
                assert graph.has_edge(a, b) and graph.has_edge(a, c) and graph.has_edge(b, c)

    def test_triangles_with_all_edges_in_delta_are_listed(self):
        # Two disjoint triangles; making one vertex of the first triangle a
        # landmark leaves the second triangle entirely inside Delta(X), so it
        # must be listed (Proposition 4's completeness guarantee).
        graph = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        simulator = self.run_with_landmarks(graph, {0}, threshold=10)
        found = set()
        for output in simulator.collect_outputs().values():
            found |= output
        assert (3, 4, 5) in found

    def test_zero_threshold_withholds_everything_but_terminates(self):
        # With r = 0 no node can ever be r-good unless it has no active
        # neighbours with large S sets; the procedure must stop on its own
        # (no-progress detection) rather than loop forever.
        graph = complete_graph(6)
        simulator = CongestSimulator(graph, seed=0)
        no_landmarks = np.zeros(graph.num_nodes, dtype=bool)
        stopped_early = run_axr(simulator, no_landmarks, goodness_threshold=0.0)
        assert stopped_early is True

    def test_round_budget_enforced(self):
        graph = complete_graph(10)
        simulator = CongestSimulator(graph, seed=0, round_limit=1)
        no_landmarks = np.zeros(graph.num_nodes, dtype=bool)
        from repro.errors import RoundLimitExceededError

        with pytest.raises(RoundLimitExceededError):
            run_axr(simulator, no_landmarks, goodness_threshold=100.0)


class TestA3Algorithm:
    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LightTrianglesLister(epsilon=-0.5)

    def test_parameters_recorded(self):
        result = LightTrianglesLister(epsilon=0.4).run(complete_graph(5), seed=1)
        assert result.parameters["epsilon"] == 0.4

    @pytest.mark.parametrize("seed", range(5))
    def test_soundness(self, seed):
        graph = gnp_random_graph(22, 0.4, seed=seed)
        result = LightTrianglesLister(epsilon=0.3).run(graph, seed=seed)
        result.check_soundness(graph)

    def test_triangle_free_graph(self):
        graph = triangle_free_bipartite(20, 0.5, seed=4)
        result = LightTrianglesLister(epsilon=0.3).run(graph, seed=4)
        assert not result.found_any()

    def test_light_triangles_found_with_good_rate(self):
        # On a sparse random graph with epsilon = 0.5 most triangles are
        # light; Proposition 3 promises each is listed with constant
        # probability, so across seeds the average per-triangle hit rate is
        # bounded away from zero.
        graph = gnp_random_graph(30, 0.25, seed=9)
        epsilon = 0.5
        light = light_triangles(graph, epsilon)
        assert light
        hits = 0
        trials = 10
        for seed in range(trials):
            found = LightTrianglesLister(epsilon=epsilon).run(graph, seed=seed).triangles_found()
            hits += sum(1 for t in light if t in found)
        assert hits / (trials * len(light)) >= 0.3

    def test_round_budget_respected_or_truncated(self):
        epsilon = 0.5
        for seed in range(3):
            graph = gnp_random_graph(30, 0.5, seed=seed)
            algorithm = LightTrianglesLister(epsilon=epsilon, budget_constant=8.0)
            result = algorithm.run(graph, seed=seed)
            budget = a3_round_budget(30, epsilon, 8.0)
            assert result.rounds <= budget or result.truncated

    def test_budget_can_be_disabled(self):
        graph = gnp_random_graph(20, 0.4, seed=1)
        algorithm = LightTrianglesLister(epsilon=0.5, enforce_budget=False)
        result = algorithm.run(graph, seed=1)
        result.check_soundness(graph)

    def test_explicit_overrides(self):
        graph = gnp_random_graph(20, 0.4, seed=2)
        algorithm = LightTrianglesLister(
            epsilon=0.5, landmark_probability=0.0, goodness_threshold=100.0
        )
        result = algorithm.run(graph, seed=2)
        # With no landmarks and a huge threshold this is the exhaustive case.
        assert result.triangles_found() == set(list_triangles(graph))

    def test_empty_graph(self):
        result = LightTrianglesLister(epsilon=0.5).run(Graph(4), seed=0)
        assert not result.found_any()

    def test_expected_rounds_helper(self):
        from repro.core.a3_light import expected_rounds

        value = expected_rounds(64, 0.5)
        assert value == pytest.approx(64**0.5 + 64**0.75 * 6)
        with pytest.raises(ValueError):
            expected_rounds(64, 1.5)
