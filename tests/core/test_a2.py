"""Tests for Algorithm A2 (Proposition 2, Figure 1): heavy-triangle listing."""

import math

import pytest

from repro.core import HeavyHashingLister, a2_edge_set_cap
from repro.core.a2_heavy import _triangles_in_edge_set, expected_rounds
from repro.graphs import (
    complete_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    heavy_triangles,
    list_triangles,
    triangle_free_bipartite,
)


class TestA2Basics:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HeavyHashingLister(epsilon=2.0)
        with pytest.raises(ValueError):
            HeavyHashingLister(epsilon=0.5, independence=1)

    def test_parameters_recorded(self):
        result = HeavyHashingLister(epsilon=0.5).run(complete_graph(6), seed=1)
        assert result.parameters == {
            "epsilon": 0.5,
            "independence": 3,
            "kernel": "batched",
        }

    def test_name_and_model(self):
        result = HeavyHashingLister(epsilon=0.5).run(complete_graph(4), seed=0)
        assert result.algorithm == "A2-heavy-hashing"
        assert result.model == "CONGEST"


class TestTrianglesInEdgeSet:
    def test_empty(self):
        assert _triangles_in_edge_set(set()) == []

    def test_single_triangle(self):
        assert _triangles_in_edge_set({(0, 1), (1, 2), (0, 2)}) == [(0, 1, 2)]

    def test_missing_edge_no_triangle(self):
        assert _triangles_in_edge_set({(0, 1), (1, 2)}) == []

    def test_two_triangles_sharing_edge(self):
        edges = {(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)}
        assert set(_triangles_in_edge_set(edges)) == {(0, 1, 2), (1, 2, 3)}


class TestA2Soundness:
    @pytest.mark.parametrize("seed", range(5))
    def test_only_real_triangles_reported(self, seed):
        graph = gnp_random_graph(25, 0.4, seed=seed)
        result = HeavyHashingLister(epsilon=0.4).run(graph, seed=seed)
        result.check_soundness(graph)

    def test_triangle_free_graph_reports_nothing(self):
        graph = triangle_free_bipartite(18, 0.6, seed=2)
        result = HeavyHashingLister(epsilon=0.2).run(graph, seed=2)
        assert not result.found_any()


class TestA2Completeness:
    def test_epsilon_zero_lists_everything(self):
        # With epsilon 0 the hash range is a single bucket, so every edge is
        # forwarded to every neighbour (the cap 8 + 4n never binds) and every
        # triangle is seen by each of its vertices.
        graph = gnp_random_graph(18, 0.4, seed=7)
        result = HeavyHashingLister(epsilon=0.0).run(graph, seed=7)
        assert result.triangles_found() == set(list_triangles(graph))

    def test_heavy_gadget_triangles_found_with_good_rate(self):
        # Edge (0, 1) of the gadget has support 20 on 30 nodes.  With
        # n^eps = 9 < 20 the triangles through that edge are eps-heavy, and
        # Proposition 2 promises each is listed with constant probability per
        # run; across seeds the average per-triangle hit rate must be
        # bounded away from zero.
        graph, _ = heavy_edge_gadget(30, 20, seed=0)
        epsilon = math.log(9) / math.log(30)
        heavy = heavy_triangles(graph, epsilon)
        assert heavy  # sanity: the workload does contain heavy triangles
        hits = 0
        trials = 15
        for seed in range(trials):
            found = HeavyHashingLister(epsilon=epsilon).run(graph, seed=seed).triangles_found()
            hits += sum(1 for t in heavy if t in found)
        hit_rate = hits / (trials * len(heavy))
        assert hit_rate >= 0.2


class TestA2RoundComplexity:
    def test_rounds_bounded_by_cap(self):
        # Step 2 ships at most (8 + 4n/range) edges of 2 id_bits each per
        # link; step 1 is a constant number of rounds.
        epsilon = 0.5
        n = 36
        graph = gnp_random_graph(n, 0.5, seed=5)
        result = HeavyHashingLister(epsilon=epsilon).run(graph, seed=5)
        step2_cap_rounds = 2 * math.ceil(a2_edge_set_cap(n, epsilon))
        assert result.rounds <= step2_cap_rounds + 5

    def test_higher_epsilon_means_fewer_rounds_on_dense_graphs(self):
        graph = gnp_random_graph(40, 0.6, seed=6)
        coarse = HeavyHashingLister(epsilon=0.9).run(graph, seed=6)
        fine = HeavyHashingLister(epsilon=0.1).run(graph, seed=6)
        assert coarse.rounds <= fine.rounds

    def test_expected_rounds_helper(self):
        assert expected_rounds(100, 0.5) == pytest.approx(2 * (8 + 400 / 3))

    def test_hash_phase_is_constant_rounds(self):
        # The hash-description phase must not scale with n: its cost is the
        # encoding size over the bandwidth, both Theta(log n).
        for n in (16, 64, 256):
            graph = gnp_random_graph(n, 2.0 / n, seed=n)
            result = HeavyHashingLister(epsilon=0.5).run(graph, seed=n)
            phase_rounds = result.metrics.rounds_by_phase_name()[
                "A2:send-hash-functions"
            ]
            assert phase_rounds <= 4
