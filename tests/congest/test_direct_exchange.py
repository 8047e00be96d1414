"""Tests for the direct-exchange execution path.

``exchange_phase`` must (a) charge byte-identical CONGEST costs to
``run_phase``, (b) hand kernels each typed channel as destination-grouped
arrays, and (c) never materialise per-node delivery objects for typed
traffic — the last point enforced with the runtime's allocation hook.
"""

import numpy as np
import pytest

from repro.congest import (
    CongestSimulator,
    DeliveredChannel,
    group_channel,
    set_allocation_hook,
)
from repro.congest.runtime import build_typed_channel
from repro.congest.wire import A3_S_SCHEMA, A3_V_SCHEMA
from repro.core import TriangleListing
from repro.errors import RoundLimitExceededError, SimulationError
from repro.graphs import Graph, complete_graph, gnp_random_graph


def stage_demo_traffic(simulator):
    """Queue a small ragged typed batch from two senders to two receivers."""
    simulator.stage_columns(
        A3_S_SCHEMA,
        1,
        np.array([0, 2], dtype=np.int64),
        {"member": np.array([5, 4, 3], dtype=np.int64)},
        lengths=np.array([2, 1], dtype=np.int64),
    )
    simulator.stage_columns(
        A3_S_SCHEMA,
        2,
        np.array([0], dtype=np.int64),
        {"member": np.array([1, 2, 3], dtype=np.int64)},
        lengths=np.array([3], dtype=np.int64),
    )


def unsorted_link_batch(graph, count):
    """Real ``(src, dst)`` links, deliberately not destination-sorted so
    delivery takes the grouping-gather path, with ragged A3 ``S`` members."""
    csr = graph.csr()
    src = csr.edge_u[:count].copy()
    dst = csr.edge_v[:count].copy()
    assert not bool((dst[1:] >= dst[:-1]).all())
    rng = np.random.default_rng(5)
    lengths = rng.integers(1, 5, size=count).astype(np.int64)
    members = rng.integers(0, graph.num_nodes, size=int(lengths.sum())).astype(
        np.int64
    )
    return src, dst, members, lengths


def stage_two_segments(simulator, src, dst, members, lengths):
    """Stage one batch as two segments of the same kind, so flushing runs
    the merge concatenations on top of the per-segment staging arrays."""
    half = src.shape[0] // 2
    elements = int(lengths[:half].sum())
    simulator.stage_columns(
        A3_S_SCHEMA, src[:half], dst[:half], {"member": members[:elements]},
        lengths=lengths[:half],
    )
    simulator.stage_columns(
        A3_S_SCHEMA, src[half:], dst[half:], {"member": members[elements:]},
        lengths=lengths[half:],
    )


class TestExchangePhase:
    def test_accounting_identical_to_run_phase(self):
        graph = complete_graph(6)
        inbox_sim = CongestSimulator(graph, seed=0)
        direct_sim = CongestSimulator(graph, seed=0)
        stage_demo_traffic(inbox_sim)
        stage_demo_traffic(direct_sim)
        inbox_report = inbox_sim.run_phase("phase")
        delivered = direct_sim.exchange_phase("phase")
        direct_report = delivered.report
        assert (
            inbox_report.rounds,
            inbox_report.messages,
            inbox_report.bits,
            inbox_report.max_link_bits,
        ) == (
            direct_report.rounds,
            direct_report.messages,
            direct_report.bits,
            direct_report.max_link_bits,
        )
        assert (
            inbox_sim.metrics.bits_received_per_node
            == direct_sim.metrics.bits_received_per_node
        )
        assert (
            inbox_sim.metrics.messages_received_per_node
            == direct_sim.metrics.messages_received_per_node
        )

    def test_grouped_channel_matches_staged_messages(self):
        # Staged: 1 -> 0 [5, 4], 1 -> 2 [3], 2 -> 0 [1, 2, 3].  Grouping
        # orders them by receiver, ties in staged order.
        simulator = CongestSimulator(complete_graph(6), seed=0)
        stage_demo_traffic(simulator)
        channel = simulator.exchange_phase("phase").channel(A3_S_SCHEMA)
        assert channel.receivers.tolist() == [0, 2]
        assert channel.message_bounds.tolist() == [0, 2, 3]
        assert channel.src.tolist() == [1, 2, 1]
        assert channel.dst.tolist() == [0, 0, 2]
        assert channel.offsets.tolist() == [0, 2, 5, 6]
        assert channel.data["member"].tolist() == [5, 4, 1, 2, 3, 3]
        assert channel.element_receivers().tolist() == [0, 0, 0, 0, 0, 2]

    def test_unknown_kind_yields_empty_channel(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        delivered = simulator.exchange_phase("empty")
        channel = delivered.channel(A3_V_SCHEMA)
        assert channel.count == 0
        assert channel.receivers.shape[0] == 0

    def test_channel_is_grouped_once_per_phase(self):
        simulator = CongestSimulator(complete_graph(6), seed=0)
        stage_demo_traffic(simulator)
        delivered = simulator.exchange_phase("phase")
        channel = delivered.channel(A3_S_SCHEMA)
        assert delivered.channel(A3_S_SCHEMA) is channel
        empty = delivered.channel(A3_V_SCHEMA)
        assert delivered.channel(A3_V_SCHEMA) is empty
        assert empty.count == 0

    def test_direct_phase_resets_previous_inboxes(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        simulator.context(1).send(0, "stale", bits=1)
        simulator.run_phase("inbox")
        assert simulator.context(0).received() == [(1, "stale")]
        simulator.exchange_phase("direct")
        assert simulator.context(0).received() == []

    def test_object_payloads_still_delivered_on_direct_path(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        simulator.context(1).send(0, "hello", bits=3)
        delivered = simulator.exchange_phase("mixed")
        assert delivered.report.bits == 3
        assert simulator.context(0).received() == [(1, "hello")]
        simulator.exchange_phase("next")
        assert simulator.context(0).received() == []

    def test_round_limit_enforced_after_recording(self):
        simulator = CongestSimulator(complete_graph(4), seed=0, round_limit=0)
        simulator.context(0).send(1, "x", bits=5)
        with pytest.raises(RoundLimitExceededError):
            simulator.exchange_phase("over-budget")
        # The phase was recorded before the budget fired, as on the inbox
        # path.
        assert simulator.metrics.total_rounds > 0


def stage_link_batch(simulator, sizes_only, segments=2):
    """A ragged ``S`` batch over every directed edge, staged in ``segments``
    calls either with its members or by its sizes alone."""
    csr = simulator.graph.csr()
    src = np.repeat(np.arange(simulator.num_nodes), np.diff(csr.indptr))
    dst = csr.indices
    lengths = (src + 2 * dst) % 4
    members = (3 * np.arange(int(lengths.sum()))) % simulator.num_nodes
    ends = np.cumsum(lengths)
    for block in np.array_split(np.arange(src.shape[0]), segments):
        first, last = int(block[0]), int(block[-1]) + 1
        if sizes_only:
            simulator.stage_sizes(
                A3_S_SCHEMA, src[first:last], dst[first:last], lengths=lengths[first:last]
            )
        else:
            start = int(ends[first - 1]) if first else 0
            simulator.stage_columns(
                A3_S_SCHEMA,
                src[first:last],
                dst[first:last],
                {"member": members[start : int(ends[last - 1])]},
                lengths=lengths[first:last],
            )


class TestSizesOnlyStaging:
    @pytest.mark.parametrize("door", ["run_phase", "exchange_phase"])
    @pytest.mark.parametrize("segments", [1, 3])
    def test_accounting_identical_with_and_without_columns(self, door, segments):
        graph = gnp_random_graph(30, 0.3, seed=6)
        runs = []
        for sizes_only in (False, True):
            simulator = CongestSimulator(graph, seed=0)
            stage_link_batch(simulator, sizes_only, segments)
            if door == "run_phase":
                simulator.run_phase("phase")
            else:
                simulator.exchange_phase("phase")
            runs.append(simulator.metrics)
        with_columns, sizes_only = runs
        assert sizes_only == with_columns
        assert sizes_only.phases[0].messages == 2 * graph.num_edges
        assert sizes_only.max_bits_received() == with_columns.max_bits_received()

    def test_explicit_bits_are_kept(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        simulator.stage_sizes(
            A3_S_SCHEMA,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
            lengths=np.array([5, 0], dtype=np.int64),
            bits=np.array([7, 3], dtype=np.int64),
        )
        report = simulator.exchange_phase("phase").report
        assert (report.messages, report.bits, report.max_link_bits) == (2, 10, 7)

    def test_channel_of_sizes_only_kind_raises(self):
        simulator = CongestSimulator(gnp_random_graph(20, 0.4, seed=2), seed=0)
        stage_link_batch(simulator, sizes_only=True)
        simulator.stage_columns(
            A3_V_SCHEMA,
            3,
            simulator.graph.csr().neighbor_slice(3)[:1],
            {"member": np.array([7], dtype=np.int64)},
            lengths=np.array([1], dtype=np.int64),
        )
        delivered = simulator.exchange_phase("phase")
        with pytest.raises(SimulationError, match="sizes only"):
            delivered.channel(A3_S_SCHEMA)
        # Kinds staged with their columns stay readable in the same phase.
        assert delivered.channel(A3_V_SCHEMA).data["member"].tolist() == [7]

    def test_run_phase_charges_sizes_only_kind_without_inbox_entries(self):
        simulator = CongestSimulator(complete_graph(5), seed=0)
        stage_link_batch(simulator, sizes_only=True)
        report = simulator.run_phase("phase")
        assert report.messages == 20
        for node in range(5):
            assert len(simulator.context(node)._inbox) == 0
            assert simulator.context(node).received() == []
            assert simulator.metrics.messages_received_per_node[node] == 4

    def test_one_kind_cannot_mix_doors_in_a_phase(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        stage_link_batch(simulator, sizes_only=True, segments=1)
        with pytest.raises(SimulationError, match="with and without"):
            stage_link_batch(simulator, sizes_only=False, segments=1)

    def test_sizes_only_batch_is_validated(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        with pytest.raises(SimulationError, match="ragged"):
            simulator.stage_sizes(A3_S_SCHEMA, np.array([0]), np.array([1]))
        with pytest.raises(SimulationError, match="lengths"):
            simulator.stage_sizes(
                A3_S_SCHEMA, np.array([0]), np.array([1]), lengths=np.array([1, 2])
            )


class TestDeliveredOwnership:
    def test_kept_channel_survives_later_phases(self):
        # A delivered channel belongs to the caller: staging and exchanging
        # further phases of the same shape must not overwrite its arrays.
        graph = gnp_random_graph(200, 0.5, seed=42)
        simulator = CongestSimulator(graph, seed=1)
        src, dst, _, lengths = unsorted_link_batch(graph, count=1024)
        elements = int(lengths.sum())
        stage_two_segments(
            simulator, src, dst, np.full(elements, 7, dtype=np.int64), lengths
        )
        kept = simulator.exchange_phase("P").channel(A3_S_SCHEMA)
        snapshot = {
            "src": kept.src.copy(),
            "dst": kept.dst.copy(),
            "offsets": kept.offsets.copy(),
            "member": kept.data["member"].copy(),
        }
        assert (snapshot["member"] == 7).all()
        for value in (8, 9, 9):
            stage_two_segments(
                simulator, src, dst, np.full(elements, value, dtype=np.int64), lengths
            )
            later = simulator.exchange_phase("later").channel(A3_S_SCHEMA)
            assert (later.data["member"] == value).all()
        np.testing.assert_array_equal(kept.src, snapshot["src"])
        np.testing.assert_array_equal(kept.dst, snapshot["dst"])
        np.testing.assert_array_equal(kept.offsets, snapshot["offsets"])
        np.testing.assert_array_equal(kept.data["member"], snapshot["member"])


class TestGroupChannel:
    def test_sorted_destinations_reuse_staged_arrays(self):
        channel = build_typed_channel(
            A3_S_SCHEMA,
            np.array([3, 4, 5], dtype=np.int64),
            np.array([0, 1, 1], dtype=np.int64),
            {"member": np.array([7, 8, 9], dtype=np.int64)},
            np.array([1, 1, 1], dtype=np.int64),
            None,
            num_nodes=6,
        )
        grouped = group_channel(channel)
        assert grouped.data["member"] is channel.data["member"]
        assert grouped.offsets is channel.offsets
        assert grouped.receivers.tolist() == [0, 1]
        assert grouped.message_bounds.tolist() == [0, 1, 3]

    def test_unsorted_destinations_group_correctly(self):
        channel = build_typed_channel(
            A3_S_SCHEMA,
            np.array([3, 4, 5], dtype=np.int64),
            np.array([2, 0, 2], dtype=np.int64),
            {"member": np.array([7, 8, 9, 10], dtype=np.int64)},
            np.array([2, 1, 1], dtype=np.int64),
            None,
            num_nodes=6,
        )
        grouped = group_channel(channel)
        assert grouped.dst.tolist() == [0, 2, 2]
        assert grouped.src.tolist() == [4, 3, 5]
        assert grouped.data["member"].tolist() == [9, 7, 8, 10]
        assert grouped.element_receivers().tolist() == [0, 2, 2, 2]

    def test_empty_channel(self):
        empty = DeliveredChannel.empty(A3_S_SCHEMA)
        assert empty.count == 0
        assert empty.lengths.shape[0] == 0


class TestAllocationRegression:
    """The ISSUE's allocation bar: a batched Theorem-2 run on G(300, 1/2)
    must build no per-node InboxSlice objects."""

    def _count_allocations(self, kernel, num_nodes=300):
        graph = gnp_random_graph(num_nodes, 0.5, seed=42)
        counters = {"InboxSlice": 0}

        def hook(kind):
            counters[kind] = counters.get(kind, 0) + 1

        set_allocation_hook(hook)
        try:
            result = TriangleListing(
                repetitions=1, epsilon=0.6, kernel=kernel
            ).run(graph, seed=7)
        finally:
            set_allocation_hook(None)
        return counters, result

    def test_direct_path_builds_no_inbox_objects(self):
        counters, result = self._count_allocations("batched")
        assert counters["InboxSlice"] == 0
        assert result.cost.rounds > 0

    def test_reference_path_builds_inbox_objects(self):
        # Sanity check that the hook actually observes the inbox path —
        # a tiny reference run must allocate per-receiver objects.
        counters, _ = self._count_allocations("reference", num_nodes=24)
        assert counters["InboxSlice"] > 0

    @pytest.mark.parametrize("algorithm_seed", [0, 3])
    def test_direct_path_clean_across_seeds_small(self, algorithm_seed):
        graph = gnp_random_graph(40, 0.4, seed=11)
        counters = {"InboxSlice": 0}
        set_allocation_hook(
            lambda kind: counters.__setitem__(kind, counters.get(kind, 0) + 1)
        )
        try:
            TriangleListing(repetitions=2, epsilon=0.5, kernel="batched").run(
                graph, seed=algorithm_seed
            )
        finally:
            set_allocation_hook(None)
        assert counters["InboxSlice"] == 0

    def test_steady_two_segment_workload_builds_no_inbox_objects(self):
        graph = gnp_random_graph(600, 0.5, seed=42)
        simulator = CongestSimulator(graph, seed=1)
        src, dst, members, lengths = unsorted_link_batch(graph, count=4096)
        counters = {}
        set_allocation_hook(
            lambda kind: counters.__setitem__(kind, counters.get(kind, 0) + 1)
        )
        try:
            for _ in range(8):
                stage_two_segments(simulator, src, dst, members, lengths)
                channel = simulator.exchange_phase("steady").channel(A3_S_SCHEMA)
                assert channel.count == src.shape[0]
                # Touch the grouped data so the gather path actually runs.
                assert channel.data["member"].shape[0] == members.shape[0]
        finally:
            set_allocation_hook(None)
        assert counters.get("InboxSlice", 0) == 0


class TestDirtyTracking:
    def test_only_touched_contexts_reset(self):
        simulator = CongestSimulator(complete_graph(5), seed=0)
        runtime = simulator.runtime
        assert runtime._dirty == []
        simulator.context(1).send(0, "a", bits=1)
        simulator.run_phase()
        assert [context.node_id for context in runtime._dirty] == [0]
        simulator.context(2).send(3, "b", bits=1)
        simulator.run_phase()
        assert [context.node_id for context in runtime._dirty] == [3]
        assert simulator.context(0).received() == []

    def test_edgeless_graph_direct_phase(self):
        simulator = CongestSimulator(Graph(3, []), seed=0)
        delivered = simulator.exchange_phase("noop")
        assert delivered.report.messages == 0
