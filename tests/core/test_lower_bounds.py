"""Tests for the lower-bound machinery (Theorem 3, Proposition 5, Lemmas 4-5)."""

import math

import pytest

from repro.congest import BandwidthPolicy
from repro.core import (
    DolevCliqueListing,
    NaiveTwoHopListing,
    TriangleListing,
    account_information,
    expected_triangles_gnp_half,
    node_receive_capacity_bits,
    proposition5_information_bound,
    proposition5_round_lower_bound,
    theorem3_information_bound,
    theorem3_round_lower_bound,
)
from repro.core.lower_bounds import (
    PROBABILITY_MARGIN,
    initial_knowledge_bits,
    rivin_edge_lower_bound_float,
)
from repro.graphs import gnp_random_graph


class TestClosedFormFloors:
    def test_expected_triangles_formula(self):
        assert expected_triangles_gnp_half(8) == pytest.approx(8 * 7 * 6 / 6 / 8)

    def test_probability_margin_positive(self):
        assert PROBABILITY_MARGIN == pytest.approx(1 / 15 - 1 / 32)
        assert PROBABILITY_MARGIN > 0

    def test_information_bound_grows_like_n_to_four_thirds(self):
        small = theorem3_information_bound(1000)
        large = theorem3_information_bound(2000)
        # Doubling n should multiply the bound by about 2^{4/3}.
        assert large / small == pytest.approx(2 ** (4 / 3), rel=0.05)

    def test_information_bound_tiny_networks(self):
        assert theorem3_information_bound(2) == 0.0

    def test_proposition5_information_bound(self):
        n = 100
        expected = (n * (n - 1) / 2 / 16) * PROBABILITY_MARGIN
        assert proposition5_information_bound(n) == pytest.approx(expected)
        assert proposition5_information_bound(1) == 0.0

    def test_receive_capacity(self):
        policy = BandwidthPolicy(minimum_bits=1)
        assert node_receive_capacity_bits(101, policy) == 100 * 7
        assert node_receive_capacity_bits(1, policy) >= 1

    def test_initial_knowledge(self):
        assert initial_knowledge_bits(101) == 100.0
        assert initial_knowledge_bits(1) == 0.0

    def test_round_floors_nonnegative_and_eventually_positive(self):
        # With the paper's explicit constants the floors only exceed the
        # initial-knowledge correction at very large n; the asymptotic shape
        # is covered by test_information_bound_grows_like_n_to_four_thirds.
        assert theorem3_round_lower_bound(10) >= 0.0
        assert theorem3_round_lower_bound(10**13) > 0.0
        assert proposition5_round_lower_bound(10) >= 0.0
        assert proposition5_round_lower_bound(10**5) > 1.0

    def test_local_listing_floor_dominates_global_floor(self):
        # Proposition 5 is a strictly stronger requirement, so its floor is
        # higher for every large enough n.
        for n in (10**3, 10**4, 10**5):
            assert proposition5_round_lower_bound(n) >= theorem3_round_lower_bound(n)

    def test_rivin_float_bound(self):
        assert rivin_edge_lower_bound_float(0) == 0.0
        assert rivin_edge_lower_bound_float(8) == pytest.approx(math.sqrt(2) / 3 * 4)


class TestEmpiricalAccounting:
    @pytest.fixture(scope="class")
    def gnp_half_instance(self):
        return gnp_random_graph(28, 0.5, seed=123)

    def test_accounting_on_listing_run(self, gnp_half_instance):
        graph = gnp_half_instance
        result = TriangleListing(repetitions=1, epsilon=0.5).run(graph, seed=1)
        accounting = account_information(result, graph)
        assert accounting.num_nodes == graph.num_nodes
        assert accounting.rivin_holds
        assert accounting.respects_floor
        assert accounting.measured_rounds == result.rounds
        assert accounting.covered_edges <= graph.num_edges

    def test_accounting_on_naive_run(self, gnp_half_instance):
        graph = gnp_half_instance
        result = NaiveTwoHopListing().run(graph, seed=2)
        accounting = account_information(result, graph)
        assert accounting.rivin_holds
        assert accounting.respects_floor
        # The naive baseline's busiest node covers all its incident triangle
        # edges, which is a sizeable fraction of the graph.
        assert accounting.covered_edges > 0

    def test_accounting_on_clique_run(self, gnp_half_instance):
        graph = gnp_half_instance
        result = DolevCliqueListing().run(graph, seed=3)
        accounting = account_information(result, graph)
        assert accounting.rivin_holds
        assert accounting.respects_floor

    def test_accounting_with_empty_output(self):
        graph = gnp_random_graph(10, 0.0, seed=1)
        result = NaiveTwoHopListing().run(graph, seed=1)
        accounting = account_information(result, graph)
        assert accounting.busiest_node is None
        assert accounting.covered_edges == 0
        assert accounting.round_floor == 0.0

    def test_summary_text(self, gnp_half_instance):
        graph = gnp_half_instance
        result = NaiveTwoHopListing().run(graph, seed=4)
        summary = account_information(result, graph).summary()
        assert "busiest node" in summary
        assert "measured rounds" in summary
