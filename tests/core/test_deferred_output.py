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
from repro.types import sorted_unique


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


def test_union_is_computed_once_per_output(monkeypatch):
    # Verification and every AlgorithmResult check share one union: a
    # deferred source's blocks are computed once, and the union is kept
    # read-only on the output.
    unions = []
    dense_union = a2_heavy._dense_union

    def union_spy(*args):
        unions.append(True)
        return dense_union(*args)

    monkeypatch.setattr(a2_heavy, "_dense_union", union_spy)
    graph = gnp_random_graph(48, 0.5, seed=3)
    result = TriangleListing(repetitions=2, epsilon=0.8).run(graph, seed=5)
    assert not unions
    report = verify_result(result, graph)
    assert result.solves_listing(graph) == report.solves_listing
    assert result.listing_recall(graph) == report.recall
    assert result.solves_finding(graph) and not result.missed_triangles(graph)
    result.check_soundness(graph)
    assert len(unions) == 2  # one per repetition's source

    union = result.output.union_keys()
    assert union is result.output.union_keys()
    assert not union.flags.writeable
    with pytest.raises(ValueError):
        union[0] = -1
    assert len(unions) == 2


def test_a_merged_output_dedupes_source_blocks_with_raw_chunks():
    # The source hands over its keys undeduplicated (a triangle once per
    # catching edge); the union sorts them once, alone or merged with
    # another output's raw chunks.
    graph = gnp_random_graph(40, 0.5, seed=7)
    dense = HeavyHashingLister(epsilon=1.0).run(graph, seed=2).output
    (source,) = dense._table.sources
    blocks = list(source.key_blocks())
    keys = sorted_unique(*blocks)
    assert sum(block.shape[0] for block in blocks) > keys.shape[0]
    assert dense.union_keys().tolist() == keys.tolist()
    other = TriangleOutput({0: dense.union()})
    merged = dense.merged_with(other)
    assert merged.union_keys().tolist() == keys.tolist()
