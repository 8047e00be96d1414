"""Unit tests for the broadcast CONGEST simulator."""

import pytest

from repro.congest import BroadcastCongestSimulator, CongestSimulator, id_bits
from repro.errors import TopologyError
from repro.graphs import Graph, complete_graph, cycle_graph


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestBroadcastModel:
    def test_model_name(self):
        assert BroadcastCongestSimulator(cycle_graph(4)).model_name == "CONGEST broadcast"

    def test_broadcast_delivered_to_all_neighbors(self):
        simulator = BroadcastCongestSimulator(star_graph(4), seed=0)
        simulator.context(0).broadcast(("hello", 7))
        simulator.run_phase()
        for leaf in range(1, 5):
            assert simulator.context(leaf).received() == [(0, ("hello", 7))]

    def test_point_to_point_rejected(self):
        # Sending to only one of two neighbours is per-link addressing and
        # must be rejected by the broadcast model.
        simulator = BroadcastCongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, "x", bits=2)
        with pytest.raises(TopologyError):
            simulator.run_phase()

    def test_identical_messages_to_all_neighbors_allowed(self):
        # Explicitly enumerating every neighbour with the same payload is
        # equivalent to broadcast() and is accepted.
        simulator = BroadcastCongestSimulator(cycle_graph(4), seed=0)
        context = simulator.context(0)
        for neighbor in context.neighbors:
            context.send(neighbor, ("same", 1), bits=4)
        report = simulator.run_phase()
        assert report.messages == 2

    def test_empty_phase(self):
        simulator = BroadcastCongestSimulator(cycle_graph(4), seed=0)
        assert simulator.run_phase().rounds == 0


class TestBroadcastAccounting:
    def test_rounds_charged_per_node_not_per_link(self):
        # A node broadcasting k identifiers pays k rounds regardless of its
        # degree (the same message goes everywhere).
        simulator = BroadcastCongestSimulator(star_graph(6), seed=0)
        payload = tuple(range(5))
        simulator.context(0).broadcast(payload)
        report = simulator.run_phase()
        expected_bits = 5 * id_bits(7)
        assert report.rounds == simulator.bandwidth.rounds_for_bits(expected_bits, 7)

    def test_cost_matches_standard_congest_for_broadcast_protocols(self):
        # A pure-broadcast protocol costs the same in both models: the
        # standard model's per-link maximum equals the per-node total here.
        graph = complete_graph(5)
        broadcast_sim = BroadcastCongestSimulator(graph, seed=0)
        standard_sim = CongestSimulator(graph, seed=0)
        for simulator in (broadcast_sim, standard_sim):
            for context in simulator.contexts:
                context.broadcast(("bit", True), bits=3)
        assert broadcast_sim.run_phase().rounds == standard_sim.run_phase().rounds

    def test_metrics_account_received_bits(self):
        simulator = BroadcastCongestSimulator(star_graph(3), seed=0)
        simulator.context(1).broadcast(("x", 2), bits=6)
        simulator.run_phase()
        assert simulator.metrics.bits_received_per_node[0] == 6

    def test_round_limit_enforced(self):
        from repro.errors import RoundLimitExceededError

        simulator = BroadcastCongestSimulator(cycle_graph(4), seed=0, round_limit=1)
        simulator.context(0).broadcast(tuple(range(20)))
        with pytest.raises(RoundLimitExceededError):
            simulator.run_phase()


class TestBroadcastWithTypedChannels:
    def test_typed_broadcast_passes_discipline(self):
        import numpy as np

        from repro.congest.wire import A3_IN_X_SCHEMA

        simulator = BroadcastCongestSimulator(complete_graph(4), seed=0)
        csr = simulator.graph.csr()
        degrees = np.diff(csr.indptr)
        src = np.repeat(np.arange(4, dtype=np.int64), degrees)
        simulator.stage_columns(
            A3_IN_X_SCHEMA, src, csr.indices, {"flag": (src % 2).astype(np.int64)}
        )
        report = simulator.run_phase("typed-broadcast")
        assert report.rounds == 1
        assert report.messages == 12
        assert len(simulator.context(0).received()) == 3

    def test_typed_per_link_send_rejected(self):
        import numpy as np

        from repro.congest.wire import A3_IN_X_SCHEMA

        simulator = BroadcastCongestSimulator(complete_graph(4), seed=0)
        simulator.context(0).send_columns(
            A3_IN_X_SCHEMA,
            np.array([1], dtype=np.int64),
            {"flag": np.array([1], dtype=np.int64)},
        )
        with pytest.raises(TopologyError):
            simulator.run_phase()
