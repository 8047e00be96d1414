"""Tests for the direct-exchange execution path.

The direct path must (a) charge byte-identical CONGEST costs to the inbox
path, (b) hand kernels the same destination-grouped data the per-node views
would have carried, and (c) never materialise per-node delivery objects —
the last point enforced with the runtime's allocation hook.
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
from repro.errors import RoundLimitExceededError
from repro.graphs import Graph, complete_graph, gnp_random_graph


def stage_demo_traffic(simulator):
    """Queue a small ragged typed batch from two senders to two receivers."""
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

    def test_grouped_channel_matches_inbox_pairs(self):
        graph = complete_graph(6)
        inbox_sim = CongestSimulator(graph, seed=0)
        direct_sim = CongestSimulator(graph, seed=0)
        stage_demo_traffic(inbox_sim)
        stage_demo_traffic(direct_sim)
        inbox_sim.run_phase("phase")
        channel = direct_sim.exchange_phase("phase").channel(A3_S_SCHEMA)
        assert channel.receivers.tolist() == [0, 2]
        members = channel.data["member"].tolist()
        offsets = channel.offsets.tolist()
        for which, receiver in enumerate(channel.receivers.tolist()):
            start = int(channel.message_bounds[which])
            end = int(channel.message_bounds[which + 1])
            expected = [
                (int(channel.src[i]), ("S", tuple(members[offsets[i] : offsets[i + 1]])))
                for i in range(start, end)
            ]
            assert inbox_sim.context(receiver).received() == expected

    def test_unknown_kind_yields_empty_channel(self):
        simulator = CongestSimulator(complete_graph(4), seed=0)
        delivered = simulator.exchange_phase("empty")
        channel = delivered.channel(A3_V_SCHEMA)
        assert channel.count == 0
        assert channel.receivers.shape[0] == 0

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
        assert grouped.element_senders().tolist() == [4, 3, 3, 5]

    def test_empty_channel(self):
        empty = DeliveredChannel.empty(A3_S_SCHEMA)
        assert empty.count == 0
        assert empty.lengths.shape[0] == 0


class TestAllocationRegression:
    """The ISSUE's allocation bar: a batched Theorem-2 run on G(300, 1/2)
    must build no per-node InboxSlice objects."""

    def _count_allocations(self, kernel, num_nodes=300):
        graph = gnp_random_graph(num_nodes, 0.5, seed=42)
        # Arena growth events ("arena:<name>") are counted too but not
        # asserted here; the steady-state bar lives in TestArenaSteadyState.
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


class TestArenaSteadyState:
    """The ISSUE's arena bar: on a steady workload — identical phase shape
    every phase — the plane's arena stops growing after warm-up, so phases
    lease every derived flat array (offsets, source/size fills, merged
    accounting arrays, grouped gathers) from pooled buffers and perform
    zero fresh arena allocations."""

    def _stage_steady_phase(self, simulator, src, dst, members, lengths):
        # Two segments of the same kind per phase: exercises the merge
        # concatenations on top of the per-segment staging arrays.
        half = src.shape[0] // 2
        elements = int(lengths[:half].sum())
        simulator.stage_columns(
            A3_S_SCHEMA,
            src[:half],
            dst[:half],
            {"member": members[:elements]},
            lengths=lengths[:half],
        )
        simulator.stage_columns(
            A3_S_SCHEMA,
            src[half:],
            dst[half:],
            {"member": members[elements:]},
            lengths=lengths[half:],
        )
        delivered = simulator.exchange_phase("steady")
        channel = delivered.channel(A3_S_SCHEMA)
        assert channel.count == src.shape[0]
        # Touch the grouped data so the gather path actually runs.
        assert channel.data["member"].shape[0] == members.shape[0]

    def test_zero_arena_growth_in_steady_state(self):
        graph = gnp_random_graph(600, 0.5, seed=42)
        simulator = CongestSimulator(graph, seed=1)
        csr = graph.csr()
        count = 4096
        # Real (src, dst) links, deliberately not destination-sorted so
        # delivery takes the grouping-gather path every phase.
        src = csr.edge_u[:count].copy()
        dst = csr.edge_v[:count].copy()
        rng = np.random.default_rng(5)
        lengths = rng.integers(1, 5, size=count).astype(np.int64)
        members = rng.integers(0, 600, size=int(lengths.sum())).astype(np.int64)

        counters = {}
        set_allocation_hook(
            lambda kind: counters.__setitem__(kind, counters.get(kind, 0) + 1)
        )
        try:
            for _ in range(4):
                self._stage_steady_phase(simulator, src, dst, members, lengths)
            warmup_growth = sum(
                events for kind, events in counters.items()
                if kind.startswith("arena:")
            )
            counters.clear()
            for _ in range(4):
                self._stage_steady_phase(simulator, src, dst, members, lengths)
        finally:
            set_allocation_hook(None)
        # The hook does observe arena growth while the pool fills...
        assert warmup_growth > 0
        # ...and a warmed-up arena serves identical phases allocation-free.
        steady_growth = {
            kind: events for kind, events in counters.items()
            if kind.startswith("arena:")
        }
        assert steady_growth == {}
        # The direct path still builds no per-node delivery objects.
        assert counters.get("InboxSlice", 0) == 0

    def test_arena_lease_reuse_and_growth_events(self):
        from repro.congest import PhaseArena
        from repro.congest import runtime as runtime_module

        arena = PhaseArena()
        events = []
        set_allocation_hook(events.append)
        try:
            first = arena.take("offsets", 100)
            assert first.shape == (100,)
            assert events == ["arena:offsets"]
            # Not recycled yet: a same-phase take must grow again.
            arena.take("offsets", 100)
            assert events == ["arena:offsets", "arena:offsets"]
            arena.advance()
            arena.advance()
            # Both leases retired; smaller requests reuse pooled buffers.
            arena.take("offsets", 80)
            arena.take("offsets", 64)
            assert events == ["arena:offsets", "arena:offsets"]
            # Different name or dtype pools separately.
            arena.take("bits", 8)
            assert events[-1] == "arena:bits"
        finally:
            set_allocation_hook(None)
