"""Unit tests for the phase-based CONGEST simulator and node contexts."""

import itertools

import numpy as np
import pytest

from repro.congest import (
    BandwidthPolicy,
    CliqueSimulator,
    CongestSimulator,
    NodeContext,
    OutputTable,
    id_bits,
)
from repro.congest.node import OUTPUT_FLUSH_KEYS
from repro.congest.runtime import MessagePlane
from repro.core import TriangleOutput
from repro.errors import RoundLimitExceededError, SimulationError, TopologyError
from repro.graphs import Graph, complete_graph, cycle_graph
from repro.types import TRIANGLE_KEY_MAX_NODES, triangle_keys


def star_graph(leaves: int) -> Graph:
    """A star with the centre at node 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestConstruction:
    def test_empty_network_rejected(self):
        with pytest.raises(SimulationError):
            CongestSimulator(Graph(0))

    def test_contexts_expose_local_view_only(self):
        graph = cycle_graph(5)
        simulator = CongestSimulator(graph, seed=1)
        for context in simulator.contexts:
            assert context.num_nodes == 5
            assert context.neighbors == graph.neighbors(context.node_id)
            assert context.communication_targets == graph.neighbors(context.node_id)

    def test_model_name(self):
        assert CongestSimulator(cycle_graph(4)).model_name == "CONGEST"

    def test_per_node_rngs_are_independent_but_reproducible(self):
        graph = cycle_graph(6)
        first = CongestSimulator(graph, seed=5)
        second = CongestSimulator(graph, seed=5)
        draws_first = [ctx.rng.random() for ctx in first.contexts]
        draws_second = [ctx.rng.random() for ctx in second.contexts]
        assert draws_first == draws_second
        assert len(set(draws_first)) == len(draws_first)

    def test_repr(self):
        assert "n=4" in repr(CongestSimulator(cycle_graph(4)))


class TestLazyNeighbours:
    def test_fresh_context_reads_match_the_csr_row(self):
        graph = Graph(7, [(0, 5), (0, 2), (0, 6), (1, 2), (3, 4)])
        simulator = CongestSimulator(graph, seed=0)
        csr = graph.csr()
        for context in simulator.contexts:
            row = csr.neighbor_slice(context.node_id).tolist()
            assert context._neighbor_set is None
            assert context.degree == len(row)
            assert context.sorted_neighbors() == row
            assert context._neighbor_set is None
            assert context.neighbors == frozenset(row)
            assert context.communication_targets is context.neighbors

    def test_sends_to_non_neighbours_raise_before_neighbours_are_read(self):
        simulator = CongestSimulator(cycle_graph(6), seed=0)
        context = simulator.context(0)
        with pytest.raises(TopologyError):
            context.bulk_send([1, 3], ["a", "b"], bits=1)
        assert context._neighbor_set is None
        context.bulk_send([1, 5], ["a", "b"], bits=1)
        assert context._neighbor_set is None
        with pytest.raises(TopologyError):
            simulator.context(1).send(3, "x", bits=1)
        context.send(5, "c", bits=1)
        assert simulator.run_phase().messages == 3
        assert simulator.context(5).received() == [(0, "b"), (0, "c")]

    def test_clique_keeps_its_range_check(self):
        simulator = CliqueSimulator(cycle_graph(6), seed=0)
        context = simulator.context(0)
        context.bulk_send([2, 3], ["a", "b"], bits=1)
        context.send(4, "c", bits=1)
        assert context._comm_targets is None
        assert context._neighbor_set is None
        with pytest.raises(TopologyError):
            context.bulk_send([2, 6], ["a", "b"], bits=1)
        with pytest.raises(TopologyError):
            context.send(-1, "x", bits=1)
        assert context.neighbors == frozenset({1, 5})
        assert context.sorted_neighbors() == [1, 5]

    def test_direct_context_sorts_an_iterable_of_neighbours(self):
        context = NodeContext(
            2, 6, [5, 0, 3, 5], [5, 0, 3], np.random.default_rng(0), MessagePlane(6)
        )
        assert context.sorted_neighbors() == [0, 3, 5]
        assert context.degree == 3
        assert context.communication_targets == frozenset({0, 3, 5})
        with pytest.raises(TopologyError):
            context.bulk_send([1], ["x"], bits=1)


class TestSendValidation:
    def test_send_to_non_neighbor_rejected(self):
        simulator = CongestSimulator(cycle_graph(5), seed=0)
        with pytest.raises(TopologyError):
            simulator.context(0).send(2, "x", bits=1)

    def test_send_to_self_rejected(self):
        simulator = CongestSimulator(cycle_graph(5), seed=0)
        with pytest.raises(TopologyError):
            simulator.context(0).send(0, "x", bits=1)

    def test_negative_bits_rejected(self):
        simulator = CongestSimulator(cycle_graph(5), seed=0)
        simulator.context(0).send(1, "x", bits=-3)
        with pytest.raises(SimulationError):
            simulator.run_phase()


class TestPhaseAccounting:
    def test_empty_phase_costs_zero_rounds(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        report = simulator.run_phase("idle")
        assert report.rounds == 0
        assert simulator.total_rounds == 0

    def test_single_id_costs_one_round(self):
        graph = cycle_graph(8)
        simulator = CongestSimulator(graph, seed=0)
        simulator.context(0).send(1, 7)
        report = simulator.run_phase()
        assert report.rounds == 1
        assert report.messages == 1

    def test_rounds_follow_max_link_load(self):
        # Node 0 sends k identifiers to node 1; with the default bandwidth of
        # max(8, ceil(log2 n)) bits and id_bits(n) bits per identifier the
        # phase must charge ceil(k * id_bits / B) rounds.
        graph = cycle_graph(64)
        policy = BandwidthPolicy(minimum_bits=1)
        simulator = CongestSimulator(graph, bandwidth=policy, seed=0)
        payload = tuple(range(10))
        simulator.context(0).send(1, payload)
        report = simulator.run_phase()
        expected_bits = 10 * id_bits(64)
        assert report.max_link_bits == expected_bits
        assert report.rounds == -(-expected_bits // policy.bits_per_round(64))

    def test_parallel_links_do_not_add_up(self):
        # Different links carry data simultaneously: the phase cost is the
        # max, not the sum.
        graph = star_graph(6)
        simulator = CongestSimulator(graph, seed=0)
        for leaf in range(1, 7):
            simulator.context(leaf).send(0, leaf)
        report = simulator.run_phase()
        assert report.rounds == 1
        assert report.messages == 6

    def test_same_link_loads_accumulate(self):
        graph = cycle_graph(32)
        policy = BandwidthPolicy(minimum_bits=1)
        simulator = CongestSimulator(graph, bandwidth=policy, seed=0)
        context = simulator.context(0)
        for _ in range(4):
            context.send(1, 3)
        report = simulator.run_phase()
        assert report.rounds == -(-4 * id_bits(32) // policy.bits_per_round(32))

    def test_extra_rounds_added(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        report = simulator.run_phase("sync", extra_rounds=3)
        assert report.rounds == 3

    def test_explicit_bits_override_default(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, ("big", (1, 2, 3)), bits=1)
        report = simulator.run_phase()
        assert report.max_link_bits == 1

    def test_metrics_track_received_bits_per_node(self):
        simulator = CongestSimulator(star_graph(3), seed=0)
        for leaf in (1, 2, 3):
            simulator.context(leaf).send(0, leaf, bits=4)
        simulator.run_phase()
        assert simulator.metrics.bits_received_per_node[0] == 12
        assert simulator.metrics.max_bits_received() == 12

    def test_bulk_and_scalar_runs_report_identical_round_counts(self):
        graph = complete_graph(7)
        policy = BandwidthPolicy(minimum_bits=1)

        scalar_sim = CongestSimulator(graph, bandwidth=policy, seed=3)
        bulk_sim = CongestSimulator(graph, bandwidth=policy, seed=3)

        for phase in range(3):
            for ctx in scalar_sim.contexts:
                for neighbor in sorted(ctx.neighbors):
                    ctx.send(neighbor, (phase, ctx.node_id), bits=4)
            for ctx in bulk_sim.contexts:
                targets = sorted(ctx.neighbors)
                ctx.bulk_send(
                    targets, [(phase, ctx.node_id)] * len(targets), bits=4
                )
            scalar_report = scalar_sim.run_phase(f"phase-{phase}")
            bulk_report = bulk_sim.run_phase(f"phase-{phase}")
            assert scalar_report.rounds == bulk_report.rounds
            assert scalar_report.messages == bulk_report.messages
            assert scalar_report.bits == bulk_report.bits
            assert scalar_report.max_link_bits == bulk_report.max_link_bits

        assert scalar_sim.total_rounds == bulk_sim.total_rounds
        for node in range(graph.num_nodes):
            assert sorted(scalar_sim.context(node).received()) == sorted(
                bulk_sim.context(node).received()
            )

    def test_charge_rounds(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.charge_rounds(5, "fixed")
        assert simulator.total_rounds == 5
        with pytest.raises(SimulationError):
            simulator.charge_rounds(-1)


class TestDelivery:
    def test_messages_arrive_with_sender(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, ("hello", 0))
        simulator.run_phase()
        received = simulator.context(1).received()
        assert received == [(0, ("hello", 0))]
        assert simulator.context(1).received_from(0) == [("hello", 0)]
        assert simulator.context(1).received_senders() == {0}

    def test_inbox_replaced_each_phase(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, 1)
        simulator.run_phase()
        simulator.run_phase()
        assert simulator.context(1).received() == []

    def test_broadcast_reaches_all_neighbors(self):
        simulator = CongestSimulator(star_graph(4), seed=0)
        simulator.context(0).broadcast(("ping", True), bits=2)
        simulator.run_phase()
        for leaf in range(1, 5):
            assert simulator.context(leaf).received() == [(0, ("ping", True))]

    def test_for_each_node_runs_in_id_order(self):
        simulator = CongestSimulator(cycle_graph(5), seed=0)
        visited = []
        simulator.for_each_node(lambda ctx: visited.append(ctx.node_id))
        assert visited == [0, 1, 2, 3, 4]


class TestRoundLimit:
    def test_limit_exceeded_raises(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0, round_limit=2)
        simulator.context(0).send(1, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16))
        with pytest.raises(RoundLimitExceededError):
            simulator.run_phase()

    def test_limit_not_exceeded(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0, round_limit=5)
        simulator.context(0).send(1, 1)
        simulator.run_phase()
        assert simulator.total_rounds <= 5
        assert simulator.round_limit == 5

    def test_charge_rounds_respects_limit(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0, round_limit=3)
        with pytest.raises(RoundLimitExceededError):
            simulator.charge_rounds(10)


class TestOutputs:
    def test_output_triangle_collection(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        simulator.context(2).output_triangle(3, 1, 0)
        outputs = simulator.collect_outputs()
        assert outputs[2] == frozenset({(0, 1, 3)})
        assert outputs[0] == frozenset()

    def test_output_deduplicates(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        context = simulator.context(0)
        context.output_triangle(1, 2, 3)
        context.output_triangle(3, 2, 1)
        assert len(context.output) == 1

    def test_scalar_reports_flush_into_int64_chunks(self):
        n = 60
        simulator = CongestSimulator(complete_graph(n), seed=0)
        table = simulator.output_table
        context = simulator.context(0)
        triples = list(
            itertools.islice(itertools.combinations(range(n), 3), 2 * OUTPUT_FLUSH_KEYS + 5)
        )
        for a, b, c in triples:
            context.output_triangle(c, a, b)
            assert len(table._scalar_keys) < OUTPUT_FLUSH_KEYS
        assert [keys.shape[0] for keys, _, _ in table._chunks] == [
            OUTPUT_FLUSH_KEYS,
            OUTPUT_FLUSH_KEYS,
        ]
        assert context.output == frozenset(triples)

    def test_output_table_stores_receivers_as_runs(self):
        table = OutputTable(10)
        table.emit_grouped(np.array([2, 2, 2, 5, 5, 2]), np.array([30, 10, 10, 40, 20, 50]))
        table.emit(5, np.array([20, 60]))
        table.emit_grouped(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        (_, run_nodes, run_starts), (_, one_node, one_start) = table.chunks
        assert run_nodes.tolist() == [2, 5, 2]
        assert run_starts.tolist() == [0, 3, 5]
        assert (one_node.tolist(), one_start.tolist()) == ([5], [0])
        assert table.node_keys(2).tolist() == [10, 30, 50]
        assert table.node_keys(5).tolist() == [20, 40, 60]
        assert table.node_keys(7).tolist() == []
        # A write after a read regroups.
        table.emit_scalar(7, 3)
        assert table.node_keys(7).tolist() == [3]

    def test_contexts_are_built_on_first_read_with_the_node_generators(self):
        simulator = CongestSimulator(cycle_graph(5), seed=4)
        assert simulator.runtime._contexts is None
        first = [rng.random() for rng in simulator.node_rngs]
        simulator.exchange_phase("empty")
        assert simulator.runtime._contexts is None
        contexts = simulator.contexts
        assert all(
            context.rng is rng for context, rng in zip(contexts, simulator.node_rngs)
        )
        # The streams continue where the draws above left them.
        fresh = CongestSimulator(cycle_graph(5), seed=4)
        expected = [(rng.random(), rng.random()) for rng in fresh.node_rngs]
        assert first == [draw for draw, _ in expected]
        assert [context.rng.random() for context in contexts] == [
            draw for _, draw in expected
        ]

    def test_every_output_door_stores_the_same_keys(self):
        n = 6
        simulator = CongestSimulator(complete_graph(n), seed=0)
        context = simulator.context(0)
        context.output_triangle(2, 1, 0)
        context.output_triangle(0, 1, 2)
        context.output_triangle(5, 3, 4)
        context.output_triangles(
            np.array([4, 0, 1]), np.array([3, 2, 2]), np.array([5, 1, 3])
        )
        # A read flushes the scalar keys; later reports still land.
        assert context.output == {(0, 1, 2), (1, 2, 3), (3, 4, 5)}
        context.output_triangle(1, 3, 2)
        context.output_triangles(np.array([2, 0]), np.array([3, 1]), np.array([4, 2]))
        expected = {(0, 1, 2), (1, 2, 3), (3, 4, 5), (2, 3, 4)}
        assert context.output == expected
        output = TriangleOutput.from_table(simulator.output_table)
        assert output.node_output(0) == expected
        rows = np.array(sorted(expected), dtype=np.int64)
        np.testing.assert_array_equal(
            output.node_keys(0), triangle_keys(rows[:, 0], rows[:, 1], rows[:, 2], n)
        )
        assert output.union() == expected

    def test_output_beyond_key_range_raises(self):
        num_nodes = TRIANGLE_KEY_MAX_NODES + 1
        context = NodeContext(
            0, num_nodes, (1, 2), None, np.random.default_rng(0), MessagePlane(num_nodes)
        )
        with pytest.raises(SimulationError):
            context.output_triangle(0, 1, 2)
        with pytest.raises(SimulationError):
            context.output_triangles(np.array([0]), np.array([1]), np.array([2]))
        assert context.output == frozenset()

    def test_context_repr(self):
        simulator = CongestSimulator(cycle_graph(3), seed=0)
        assert "NodeContext" in repr(simulator.context(0))
