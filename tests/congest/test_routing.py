"""Unit tests for the Lenzen routing primitive."""

import numpy as np
import pytest

from repro.congest import CliqueSimulator, CongestSimulator, LenzenRouter, RoutingRequest
from repro.congest.wire import RoutedEdgeSchema
from repro.errors import RoundLimitExceededError, SimulationError, TopologyError
from repro.graphs import Graph, complete_graph


def make_clique(num_nodes: int) -> CliqueSimulator:
    return CliqueSimulator(Graph(num_nodes), seed=0)


class TestRouterConstruction:
    def test_requires_clique_simulator(self):
        with pytest.raises(SimulationError):
            LenzenRouter(CongestSimulator(complete_graph(4)))

    def test_invalid_constant(self):
        with pytest.raises(SimulationError):
            LenzenRouter(make_clique(4), constant_rounds=0)


class TestRouting:
    def test_empty_instance_costs_nothing(self):
        simulator = make_clique(5)
        report = LenzenRouter(simulator).route([])
        assert report.rounds == 0
        assert simulator.total_rounds == 0

    def test_single_message_delivered(self):
        simulator = make_clique(5)
        router = LenzenRouter(simulator)
        router.route([RoutingRequest(0, 3, ("data", 7), bits=8)])
        assert simulator.context(3).received() == [(0, ("data", 7))]

    def test_balanced_instance_costs_constant_rounds(self):
        # Every node sends one message to its successor: loads are 1 << n,
        # so the cost is exactly the constant.
        simulator = make_clique(10)
        router = LenzenRouter(simulator, constant_rounds=2)
        requests = [
            RoutingRequest(i, (i + 1) % 10, ("x", i), bits=8) for i in range(10)
        ]
        report = router.route(requests)
        assert report.rounds == 2

    def test_overloaded_receiver_charges_batches(self):
        # One node receives 3n messages -> ceil(3n/n) = 3 batches.
        num_nodes = 8
        simulator = make_clique(num_nodes)
        router = LenzenRouter(simulator, constant_rounds=1)
        requests = []
        for repeat in range(3 * num_nodes):
            source = 1 + (repeat % (num_nodes - 1))
            requests.append(RoutingRequest(source, 0, ("x", repeat), bits=1))
        report = router.route(requests)
        assert report.rounds == 3
        assert len(simulator.context(0).received()) == 3 * num_nodes

    def test_self_routing_rejected(self):
        router = LenzenRouter(make_clique(4))
        with pytest.raises(TopologyError):
            router.route([RoutingRequest(1, 1, "x", bits=1)])

    def test_out_of_range_nodes_rejected(self):
        router = LenzenRouter(make_clique(4))
        with pytest.raises(TopologyError):
            router.route([RoutingRequest(0, 9, "x", bits=1)])

    def test_metrics_recorded_on_simulator(self):
        simulator = make_clique(6)
        router = LenzenRouter(simulator)
        router.route([RoutingRequest(0, 1, "x", bits=16)])
        assert simulator.metrics.total_messages == 1
        assert simulator.metrics.bits_received_per_node[1] == 16
        assert simulator.total_rounds >= 1

    def test_large_messages_count_as_multiple_units(self):
        # A message needing several bandwidth chunks occupies several units
        # of its endpoints' load.
        num_nodes = 4
        simulator = make_clique(num_nodes)
        per_round = simulator.bandwidth.bits_per_round(num_nodes)
        router = LenzenRouter(simulator, constant_rounds=1)
        report = router.route(
            [RoutingRequest(0, 1, "big", bits=per_round * 2 * num_nodes)]
        )
        assert report.rounds == 2


class TestRoundBudget:
    """A routed phase is held to the clique simulator's round budget, as
    every simulated phase is: recorded first, then checked."""

    def budgeted_router(self):
        simulator = CliqueSimulator(complete_graph(4), seed=0, round_limit=1)
        return simulator, LenzenRouter(simulator)

    def test_route_past_budget_raises_after_recording(self):
        simulator, router = self.budgeted_router()
        with pytest.raises(RoundLimitExceededError):
            router.route([RoutingRequest(0, 1, "x", bits=1)])
        assert simulator.total_rounds == 2
        assert simulator.metrics.total_messages == 1
        assert simulator.context(1).received() == [(0, "x")]

    def test_columnar_route_past_budget_raises_after_recording(self):
        simulator, router = self.budgeted_router()
        one = np.array([1], dtype=np.int64)
        with pytest.raises(RoundLimitExceededError):
            router.route_columns_direct(
                RoutedEdgeSchema(),
                np.array([0], dtype=np.int64),
                one,
                {"u": np.array([0], dtype=np.int64), "v": one, "triple": one},
                bits=1,
            )
        assert simulator.total_rounds == 2

    def test_route_within_budget_passes(self):
        simulator = CliqueSimulator(complete_graph(4), seed=0, round_limit=2)
        LenzenRouter(simulator).route([RoutingRequest(0, 1, "x", bits=1)])
        assert simulator.total_rounds == 2
