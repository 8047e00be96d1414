"""A2's dense output stays deferred until a per-node reader asks for it.

A record needs only the union of the node outputs, so a dense A2 pass hands
its output table a deferred source and never lists a receiver's copy on the
record path.  These tests pin that laziness end to end, check that every
per-node reader lists each source exactly once and agrees with the
reference kernel, and that merging outputs keyed with different ``n``
still re-encodes a deferred source's keys.
"""

import pytest

from repro.analysis import duplication_factor, verify_result
from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec
from repro.congest import OutputTable
from repro.core import HeavyHashingLister, TriangleListing, TriangleOutput, a2_heavy
from repro.graphs import gnp_random_graph


@pytest.fixture
def listings(monkeypatch):
    """Spy on the per-receiver enumeration and on deferred sources.

    Returns ``(listed, sources)``: one entry per ``_list_fused_dense`` call
    and one per source handed to an output table.
    """
    listed, sources = [], []
    list_fused_dense = a2_heavy._list_fused_dense
    defer = OutputTable.defer

    def listing_spy(*args):
        listed.append(True)
        return list_fused_dense(*args)

    def defer_spy(self, source):
        sources.append(source)
        return defer(self, source)

    monkeypatch.setattr(a2_heavy, "_list_fused_dense", listing_spy)
    monkeypatch.setattr(OutputTable, "defer", defer_spy)
    return listed, sources


@pytest.mark.parametrize("repetitions", [1, 2])
def test_record_path_never_lists_per_node_output(listings, repetitions):
    listed, sources = listings
    spec = RunSpec(
        algorithm=AlgorithmSpec("theorem2-listing", {"repetitions": repetitions}),
        workload=WorkloadSpec(
            "gnp", {"num_nodes": 200, "edge_probability": 0.5, "seed": 3}
        ),
        seed=3,
    )
    record = spec.run()
    assert record.sound and record.recall == 1.0
    assert len(sources) == repetitions
    assert not listed


@pytest.mark.parametrize("epsilon", [None, 0.8], ids=["default-epsilon", "epsilon-0.8"])
@pytest.mark.parametrize("repetitions", [1, 2])
def test_per_node_readers_list_each_source_once(listings, repetitions, epsilon):
    listed, sources = listings
    graph = gnp_random_graph(48, 0.5, seed=3)
    batched = TriangleListing(repetitions=repetitions, epsilon=epsilon).run(
        graph, seed=5
    )
    assert verify_result(batched, graph).sound
    assert not batched.output.is_empty()
    assert len(sources) == repetitions and not listed

    reference = TriangleListing(
        repetitions=repetitions, epsilon=epsilon, kernel="reference"
    ).run(graph, seed=5)
    assert len(sources) == repetitions
    assert batched.output.busiest_node() == reference.output.busiest_node()
    assert len(listed) == len(sources)
    assert duplication_factor(batched) == duplication_factor(reference)
    assert dict(batched.output.per_node) == dict(reference.output.per_node)
    assert batched.output == reference.output
    assert len(listed) == len(sources)


@pytest.mark.parametrize("deferred_first", [True, False])
def test_merging_across_key_spaces_recodes_a_deferred_source(listings, deferred_first):
    listed, sources = listings
    dense = HeavyHashingLister(epsilon=1.0).run(
        gnp_random_graph(40, 0.4, seed=11), seed=2
    ).output
    other = TriangleOutput({3: [(41, 42, 43)], 44: [(0, 1, 2)]})
    assert dense.num_nodes == 40 and other.num_nodes == 44 and len(sources) == 1

    merged = dense.merged_with(other) if deferred_first else other.merged_with(dense)
    assert merged.num_nodes == 44
    assert merged.union() == dense.union() | other.union()
    assert not listed

    # The same merge over a fully listed copy of the deferred output.
    listed_copy = TriangleOutput(dict(dense.per_node))
    assert len(listed) == 1
    eager = (
        listed_copy.merged_with(other)
        if deferred_first
        else other.merged_with(listed_copy)
    )
    assert merged == eager
    assert merged.union_keys().tolist() == eager.union_keys().tolist()
    for node in (0, 3, 17, 44):
        assert merged.node_output(node) == dense.node_output(node) | other.node_output(
            node
        )
    assert len(listed) == 1
