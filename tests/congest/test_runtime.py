"""Unit tests for the shared runtime kernel and the vectorized message plane."""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.congest import (
    CliqueSimulator,
    CongestSimulator,
    MessagePlane,
    PhaseTraffic,
    id_bits,
)
from repro.congest.runtime import (
    EMPTY_INBOX,
    InboxSlice,
    deliver_traffic,
    max_link_bits,
    record_deliveries,
    repeated_payload,
    spawn_node_rngs,
)
from repro.congest.seeding import seed_sequence_states
from repro.congest.metrics import ExecutionMetrics
from repro.errors import SimulationError, TopologyError
from repro.graphs import Graph, complete_graph, cycle_graph


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestMessagePlane:
    def test_scalar_and_bulk_appends_preserve_global_order(self):
        plane = MessagePlane(num_nodes=8)
        plane.append(0, 1, "a", 1)
        plane.extend(
            2,
            np.array([3, 4], dtype=np.int64),
            ["b", "c"],
            np.array([2, 2], dtype=np.int64),
        )
        plane.append(5, 6, "d", 1)
        traffic = plane.flush()
        assert traffic.src.tolist() == [0, 2, 2, 5]
        assert traffic.dst.tolist() == [1, 3, 4, 6]
        assert list(traffic.payloads) == ["a", "b", "c", "d"]
        assert plane.is_empty

    def test_flush_resolves_default_bit_sizes(self):
        plane = MessagePlane(num_nodes=16)
        plane.append(0, 1, 7, None)  # an identifier: id_bits(16) = 4
        plane.append(0, 1, True, None)  # a flag: 1 bit
        traffic = plane.flush()
        assert traffic.bits.tolist() == [id_bits(16), 1]

    def test_flush_rejects_negative_sizes(self):
        plane = MessagePlane(num_nodes=4)
        plane.append(0, 1, "x", -3)
        with pytest.raises(SimulationError):
            plane.flush()

    def test_flush_on_empty_plane(self):
        traffic = MessagePlane(num_nodes=4).flush()
        assert traffic.count == 0
        assert traffic.total_bits == 0

    def test_len_counts_queued_messages(self):
        plane = MessagePlane(num_nodes=4)
        plane.append(0, 1, "x", 1)
        plane.extend(
            1,
            np.array([2, 3], dtype=np.int64),
            repeated_payload("y", 2),
            np.array([1, 1], dtype=np.int64),
        )
        assert len(plane) == 3


class TestAggregations:
    def _traffic(self, src, dst, bits):
        count = len(src)
        payloads = np.empty(count, dtype=object)
        payloads[:] = "p"
        return PhaseTraffic(
            src=np.array(src, dtype=np.int64),
            dst=np.array(dst, dtype=np.int64),
            bits=np.array(bits, dtype=np.int64),
            payloads=payloads,
        )

    def test_max_link_bits_accumulates_per_directed_link(self):
        traffic = self._traffic([0, 0, 1], [1, 1, 0], [3, 4, 5])
        assert max_link_bits(traffic, num_nodes=4) == 7

    def test_max_link_bits_dense_and_sorted_paths_agree(self):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 50, size=500).tolist()
        dst = ((np.array(src) + 1 + rng.integers(0, 49, size=500)) % 50).tolist()
        bits = rng.integers(1, 9, size=500).tolist()
        traffic = self._traffic(src, dst, bits)
        # num_nodes=50 keeps the key span dense (bincount path); 300_000
        # blows it past 4x the message count (sort-and-segment fallback).
        # Same traffic, same answer.
        assert max_link_bits(traffic, 50) == max_link_bits(traffic, 300_000)

    def test_record_deliveries_only_touches_receivers(self):
        metrics = ExecutionMetrics()
        traffic = self._traffic([0, 0], [2, 2], [3, 4])
        record_deliveries(metrics, traffic)
        assert metrics.bits_received_per_node == {2: 7}
        assert metrics.messages_received_per_node == {2: 2}


class TestLazyInboxes:
    def test_deliver_traffic_resets_non_receivers(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, "x", bits=1)
        simulator.run_phase()
        assert simulator.context(1).received() == [(0, "x")]
        simulator.run_phase()
        assert simulator.context(1).received() == []

    def test_inbox_slice_materializes_once_and_copies_out(self):
        src = np.array([3, 5], dtype=np.int64)
        payloads = np.empty(2, dtype=object)
        payloads[:] = ["a", "b"]
        inbox = InboxSlice(src, payloads)
        first = inbox.pairs()
        assert first == [(3, "a"), (5, "b")]
        assert inbox.pairs() is first  # cached
        assert len(inbox) == 2
        assert list(inbox) == first

    def test_received_views_are_independent_copies(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, "x", bits=1)
        simulator.run_phase()
        got = simulator.context(1).received()
        got.append(("junk", None))
        assert simulator.context(1).received() == [(0, "x")]

    def test_empty_inbox_constant_is_immutable(self):
        assert EMPTY_INBOX == ()


class TestBulkSend:
    def test_bulk_send_equivalent_to_scalar_sends(self):
        graph = complete_graph(5)
        bulk = CongestSimulator(graph, seed=1)
        scalar = CongestSimulator(graph, seed=1)

        bulk.context(0).bulk_send([1, 2, 3], ["a", "b", "c"], bits=4)
        for destination, payload in zip([1, 2, 3], ["a", "b", "c"]):
            scalar.context(0).send(destination, payload, bits=4)

        bulk_report = bulk.run_phase()
        scalar_report = scalar.run_phase()
        assert bulk_report.rounds == scalar_report.rounds
        assert bulk_report.messages == scalar_report.messages
        assert bulk_report.bits == scalar_report.bits
        for node in (1, 2, 3):
            assert bulk.context(node).received() == scalar.context(node).received()

    def test_bulk_send_per_message_sizes(self):
        simulator = CongestSimulator(star_graph(3), seed=0)
        simulator.context(0).bulk_send([1, 2, 3], ["a", "bb", "ccc"], bits=[1, 2, 3])
        report = simulator.run_phase()
        assert report.bits == 6
        assert report.max_link_bits == 3

    def test_bulk_send_rejects_length_mismatch(self):
        simulator = CongestSimulator(star_graph(3), seed=0)
        with pytest.raises(SimulationError):
            simulator.context(0).bulk_send([1, 2], ["only-one"], bits=1)
        with pytest.raises(SimulationError):
            simulator.context(0).bulk_send([1, 2], ["a", "b"], bits=[1])

    def test_bulk_send_rejects_self_and_non_targets(self):
        simulator = CongestSimulator(cycle_graph(5), seed=0)
        with pytest.raises(TopologyError):
            simulator.context(0).bulk_send([1, 0], ["a", "b"], bits=1)
        with pytest.raises(TopologyError):
            simulator.context(0).bulk_send([1, 2], ["a", "b"], bits=1)
        with pytest.raises(TopologyError):
            simulator.context(0).bulk_send([1, 99], ["a", "b"], bits=1)

    def test_bulk_send_copies_caller_arrays(self):
        # Mutating the caller's arrays after bulk_send must not alter (or
        # un-validate) the queued messages.
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        destinations = np.array([1, 3], dtype=np.int64)
        sizes = np.array([2, 2], dtype=np.int64)
        simulator.context(0).bulk_send(destinations, ["a", "b"], bits=sizes)
        destinations[0] = 2  # not a neighbour of node 0
        sizes[0] = 999
        report = simulator.run_phase()
        assert report.bits == 4
        assert simulator.context(1).received() == [(0, "a")]
        assert simulator.context(2).received() == []

    def test_bulk_send_copies_object_payload_arrays(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        payloads = np.empty(2, dtype=object)
        payloads[:] = [("a",), ("b",)]
        simulator.context(0).bulk_send([1, 3], payloads, bits=4)
        payloads[0] = ("mutated",)
        simulator.run_phase()
        assert simulator.context(1).received() == [(0, ("a",))]

    def test_bulk_send_accepts_zero_dim_bits_array(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).bulk_send([1, 3], ["a", "b"], bits=np.array(4))
        report = simulator.run_phase()
        assert report.bits == 8

    def test_explicit_negative_bits_never_treated_as_default(self):
        # Any negative explicit size must be rejected — including values
        # that could collide with an internal "unset" encoding.
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).send(1, "x", bits=-(2**62))
        with pytest.raises(SimulationError):
            simulator.run_phase()

    def test_bulk_send_empty_is_noop(self):
        simulator = CongestSimulator(cycle_graph(4), seed=0)
        simulator.context(0).bulk_send([], [], bits=1)
        assert simulator.run_phase().messages == 0

    def test_broadcast_bits_equivalent_to_broadcast(self):
        graph = star_graph(4)
        fast = CongestSimulator(graph, seed=2)
        slow = CongestSimulator(graph, seed=2)
        fast.context(0).broadcast_bits(("ping", 1), bits=5)
        slow.context(0).broadcast(("ping", 1), bits=5)
        fast_report = fast.run_phase()
        slow_report = slow.run_phase()
        assert fast_report.rounds == slow_report.rounds
        assert fast_report.messages == slow_report.messages
        for leaf in range(1, 5):
            assert fast.context(leaf).received() == slow.context(leaf).received()

    def test_bulk_send_on_clique_reaches_non_neighbors(self):
        simulator = CliqueSimulator(cycle_graph(6), seed=0)
        simulator.context(0).bulk_send([2, 3, 4], ["x", "y", "z"], bits=3)
        simulator.run_phase()
        assert simulator.context(3).received() == [(0, "y")]


class TestNodeSeeding:
    def test_vectorized_states_match_seed_sequence(self):
        seeds = np.random.default_rng(2024).integers(0, 2**63 - 1, size=1500)
        edges = [0, 1, 2**32 - 1, 2**32, 2**63 - 2]
        seeds = np.concatenate([seeds, np.array(edges, dtype=np.int64)])
        states = seed_sequence_states(seeds)
        assert states.shape == (seeds.shape[0], 4)
        assert states.dtype == np.uint64
        for seed, row in zip(seeds.tolist(), states):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            np.testing.assert_array_equal(row, expected)

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_node_streams_match_default_rng(self, as_generator):
        num_nodes = 40
        seed = np.random.default_rng(17) if as_generator else 17
        child_seeds = np.random.default_rng(17).integers(0, 2**63 - 1, size=num_nodes)
        rngs = spawn_node_rngs(num_nodes, seed)
        assert len(rngs) == num_nodes
        for rng, child_seed in zip(rngs, child_seeds.tolist()):
            reference = np.random.default_rng(child_seed)
            np.testing.assert_array_equal(rng.random(64), reference.random(64))
            assert rng.integers(0, 2**40) == reference.integers(0, 2**40)

    def test_node_generator_pickles_with_its_stream(self):
        rng = spawn_node_rngs(3, 5)[2]
        rng.random(7)
        copy = pickle.loads(pickle.dumps(rng))
        np.testing.assert_array_equal(copy.random(16), rng.random(16))

    def test_seeding_module_is_imported_on_first_use(self):
        # It imports numpy.random, which recent numpy loads lazily.
        code = "import sys, repro.congest; print('repro.congest.seeding' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestCliqueLaziness:
    def test_clique_targets_not_materialized_until_read(self):
        simulator = CliqueSimulator(cycle_graph(6), seed=0)
        context = simulator.context(0)
        assert context._comm_targets is None  # O(n) construction, not O(n²)
        assert context.can_send_to(3)
        assert context._comm_targets is None  # membership check stays lazy
        assert context.communication_targets == frozenset({1, 2, 3, 4, 5})
        # Reading the property must not overwrite the sentinel (that would
        # silently disable the clique range-check fast path).
        assert context._comm_targets is None
        assert context.communication_targets is context.communication_targets


class TestDeliverTraffic:
    def test_grouped_delivery_matches_send_order(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        simulator.context(1).send(0, "first", bits=1)
        simulator.context(2).send(0, "second", bits=1)
        simulator.context(3).send(0, "third", bits=1)
        simulator.run_phase()
        assert simulator.context(0).received() == [
            (1, "first"),
            (2, "second"),
            (3, "third"),
        ]

    def test_deliver_traffic_helper_on_raw_contexts(self):
        simulator = CongestSimulator(cycle_graph(3), seed=0)
        payloads = np.empty(1, dtype=object)
        payloads[:] = ["hello"]
        traffic = PhaseTraffic(
            src=np.array([1], dtype=np.int64),
            dst=np.array([0], dtype=np.int64),
            bits=np.array([2], dtype=np.int64),
            payloads=payloads,
        )
        deliver_traffic(simulator.contexts, traffic)
        assert simulator.context(0).received() == [(1, "hello")]
        assert simulator.context(2).received() == []


class TestColumnarPlane:
    """The typed columnar payload channels (schema path)."""

    def _flag_schema(self):
        from repro.congest.wire import A3_IN_X_SCHEMA

        return A3_IN_X_SCHEMA

    def _list_schema(self):
        from repro.congest.wire import A3_S_SCHEMA

        return A3_S_SCHEMA

    def test_extend_columns_counts_and_sizes(self):
        from repro.congest.wire import A3_S_SCHEMA

        plane = MessagePlane(num_nodes=16)
        plane.extend_columns(
            A3_S_SCHEMA,
            0,
            np.array([1, 2, 3], dtype=np.int64),
            {"member": np.array([4, 5, 6], dtype=np.int64)},
            lengths=np.array([2, 0, 1], dtype=np.int64),
        )
        assert len(plane) == 3
        traffic = plane.flush()
        assert traffic.count == 3
        # id_bits(16) = 4: sizes are max(1, len * 4).
        assert traffic.bits.tolist() == [8, 1, 4]
        assert len(traffic.channels) == 1
        channel = traffic.channels[0]
        assert channel.schema is A3_S_SCHEMA
        assert channel.lengths.tolist() == [2, 0, 1]

    def test_flat_arrays_cover_typed_and_untyped_messages(self):
        from repro.congest.wire import A3_IN_X_SCHEMA

        plane = MessagePlane(num_nodes=8)
        plane.append(0, 1, "scalar", 5)
        plane.extend_columns(
            A3_IN_X_SCHEMA,
            2,
            np.array([3, 4], dtype=np.int64),
            {"flag": np.array([1, 0], dtype=np.int64)},
        )
        traffic = plane.flush()
        assert traffic.count == 3
        assert traffic.total_bits == 5 + 1 + 1
        # The object-payload block keeps global send order; typed messages
        # follow it in the flat accounting arrays.
        assert traffic.payloads.shape[0] == 1
        assert traffic.src.tolist() == [0, 2, 2]

    def test_typed_delivery_decoded_pairs(self):
        from repro.congest.wire import A3_S_SCHEMA

        simulator = CongestSimulator(complete_graph(5), seed=0)
        context = simulator.context(0)
        context.send_columns(
            A3_S_SCHEMA,
            np.array([1, 2], dtype=np.int64),
            {"member": np.array([3, 4, 2], dtype=np.int64)},
            lengths=np.array([2, 1], dtype=np.int64),
        )
        simulator.run_phase("typed")
        # The pair list decodes through the schema codec.
        assert simulator.context(1).received() == [(0, ("S", (3, 4)))]
        assert simulator.context(2).received() == [(0, ("S", (2,)))]
        # Nodes without typed traffic see an empty inbox.
        assert simulator.context(3).received() == []

    def test_interleaved_ragged_batches_group_correctly(self):
        from repro.congest.wire import A3_S_SCHEMA

        simulator = CongestSimulator(complete_graph(6), seed=0)
        # Two senders target the same receiver with different lengths; the
        # element gather must keep each message's block intact.
        simulator.context(1).send_columns(
            A3_S_SCHEMA,
            np.array([0, 2], dtype=np.int64),
            {"member": np.array([5, 4, 3], dtype=np.int64)},
            lengths=np.array([2, 1], dtype=np.int64),
        )
        simulator.context(2).send_columns(
            A3_S_SCHEMA,
            np.array([0], dtype=np.int64),
            {"member": np.array([1, 2, 3], dtype=np.int64)},
            lengths=np.array([3], dtype=np.int64),
        )
        simulator.run_phase("typed")
        assert simulator.context(0).received() == [
            (1, ("S", (5, 4))),
            (2, ("S", (1, 2, 3))),
        ]

    def test_mixed_typed_and_scalar_inbox(self):
        from repro.congest.wire import A3_IN_X_SCHEMA

        simulator = CongestSimulator(complete_graph(4), seed=0)
        simulator.context(1).send(0, ("tag", 3), bits=7)
        simulator.context(2).send_columns(
            A3_IN_X_SCHEMA,
            np.array([0], dtype=np.int64),
            {"flag": np.array([1], dtype=np.int64)},
        )
        report = simulator.run_phase("mixed")
        assert report.messages == 2
        assert report.bits == 8
        inbox = simulator.context(0).received()
        assert (1, ("tag", 3)) in inbox
        assert (2, ("in_X", True)) in inbox
        assert len(simulator.context(0)._inbox) == 2

    def test_send_columns_validates_topology(self):
        from repro.congest.wire import A3_IN_X_SCHEMA

        simulator = CongestSimulator(cycle_graph(5), seed=0)
        context = simulator.context(0)
        with pytest.raises(TopologyError):
            context.send_columns(
                A3_IN_X_SCHEMA,
                np.array([2], dtype=np.int64),  # not a cycle neighbour of 0
                {"flag": np.array([1], dtype=np.int64)},
            )
        with pytest.raises(TopologyError):
            context.send_columns(
                A3_IN_X_SCHEMA,
                np.array([0], dtype=np.int64),
                {"flag": np.array([1], dtype=np.int64)},
            )

    def test_extend_columns_validates_shapes(self):
        from repro.congest.wire import A3_S_SCHEMA

        plane = MessagePlane(num_nodes=8)
        with pytest.raises(SimulationError):
            plane.extend_columns(
                A3_S_SCHEMA,
                0,
                np.array([1, 2], dtype=np.int64),
                {"member": np.array([3], dtype=np.int64)},
                lengths=np.array([1, 1], dtype=np.int64),
            )
        with pytest.raises(SimulationError):
            plane.extend_columns(
                A3_S_SCHEMA,
                0,
                np.array([1], dtype=np.int64),
                {"wrong": np.array([3], dtype=np.int64)},
                lengths=np.array([1], dtype=np.int64),
            )
        with pytest.raises(SimulationError):
            # Ragged schema without lengths.
            plane.extend_columns(
                A3_S_SCHEMA,
                0,
                np.array([1], dtype=np.int64),
                {"member": np.array([3], dtype=np.int64)},
            )

    def test_bulk_output_triangles_matches_scalar(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        scalar = simulator.context(0)
        bulk = simulator.context(1)
        scalar.output_triangle(3, 1, 2)
        scalar.output_triangle(2, 3, 0)
        bulk.output_triangles(
            np.array([3, 2], dtype=np.int64),
            np.array([1, 3], dtype=np.int64),
            np.array([2, 0], dtype=np.int64),
        )
        assert scalar.output == bulk.output
        with pytest.raises(SimulationError):
            bulk.output_triangles(
                np.array([1], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([2], dtype=np.int64),
            )
