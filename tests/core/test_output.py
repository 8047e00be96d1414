"""Unit tests for output structures and result packaging."""

import pytest

from repro.congest import AlgorithmCost, ExecutionMetrics
from repro.core import AlgorithmResult, TriangleOutput
from repro.errors import VerificationError
from repro.graphs import Graph, complete_graph


def make_result(per_node, rounds=5):
    output = TriangleOutput(per_node={k: frozenset(v) for k, v in per_node.items()})
    return AlgorithmResult(
        algorithm="test",
        model="CONGEST",
        output=output,
        cost=AlgorithmCost(rounds=rounds, messages=0, bits=0, max_bits_received=0),
        metrics=ExecutionMetrics(),
    )


class TestTriangleOutput:
    def test_union(self):
        output = TriangleOutput({0: frozenset({(0, 1, 2)}), 1: frozenset({(0, 1, 2), (1, 2, 3)})})
        assert output.union() == {(0, 1, 2), (1, 2, 3)}

    def test_node_output_missing_node_is_empty(self):
        output = TriangleOutput({0: frozenset()})
        assert output.node_output(5) == frozenset()

    def test_total_reported_counts_duplicates(self):
        output = TriangleOutput({0: frozenset({(0, 1, 2)}), 1: frozenset({(0, 1, 2)})})
        assert output.total_reported() == 2

    def test_busiest_node(self):
        output = TriangleOutput(
            {0: frozenset({(0, 1, 2)}), 1: frozenset({(0, 1, 2), (1, 2, 3)}), 2: frozenset()}
        )
        assert output.busiest_node() == 1

    def test_busiest_node_tie_prefers_lowest_id(self):
        output = TriangleOutput({1: frozenset({(0, 1, 2)}), 0: frozenset({(1, 2, 3)})})
        assert output.busiest_node() == 0

    def test_busiest_node_none_when_empty(self):
        assert TriangleOutput({0: frozenset()}).busiest_node() is None

    def test_is_empty(self):
        assert TriangleOutput({0: frozenset()}).is_empty()
        assert not TriangleOutput({0: frozenset({(0, 1, 2)})}).is_empty()

    def test_merged_with(self):
        first = TriangleOutput({0: frozenset({(0, 1, 2)})})
        second = TriangleOutput({0: frozenset({(1, 2, 3)}), 1: frozenset({(0, 1, 2)})})
        merged = first.merged_with(second)
        assert merged.node_output(0) == {(0, 1, 2), (1, 2, 3)}
        assert merged.node_output(1) == {(0, 1, 2)}

    def test_constructor_accepts_list_values(self):
        output = TriangleOutput({0: [(0, 1, 2), (0, 1, 2)], 1: []})
        assert output.node_output(0) == {(0, 1, 2)}
        assert output.node_output(1) == frozenset()
        assert set(output.per_node) == {0, 1}


class TestAlgorithmResult:
    def test_found_any(self):
        assert make_result({0: {(0, 1, 2)}}).found_any()
        assert not make_result({0: set()}).found_any()

    def test_soundness_check_passes_on_real_triangles(self):
        result = make_result({0: {(0, 1, 2)}})
        result.check_soundness(complete_graph(3))

    def test_soundness_check_fails_on_fake_triangle(self):
        result = make_result({0: {(0, 1, 2)}})
        with pytest.raises(VerificationError):
            result.check_soundness(Graph(3, [(0, 1)]))

    def test_listing_recall(self):
        graph = complete_graph(4)  # 4 triangles
        result = make_result({0: {(0, 1, 2), (0, 1, 3)}})
        assert result.listing_recall(graph) == pytest.approx(0.5)

    def test_listing_recall_empty_graph(self):
        assert make_result({0: set()}).listing_recall(Graph(3)) == 1.0

    def test_missed_triangles(self):
        graph = complete_graph(4)
        result = make_result({0: {(0, 1, 2)}})
        assert result.missed_triangles(graph) == {(0, 1, 3), (0, 2, 3), (1, 2, 3)}

    def test_solves_finding_with_triangles(self):
        graph = complete_graph(3)
        assert make_result({0: {(0, 1, 2)}}).solves_finding(graph)
        assert not make_result({0: set()}).solves_finding(graph)

    def test_solves_finding_triangle_free(self):
        graph = Graph(3, [(0, 1)])
        assert make_result({0: set()}).solves_finding(graph)

    def test_solves_listing(self):
        graph = complete_graph(3)
        assert make_result({0: {(0, 1, 2)}}).solves_listing(graph)
        assert not make_result({0: set()}).solves_listing(graph)

    def test_rounds_property_and_summary(self):
        result = make_result({0: {(0, 1, 2)}}, rounds=9)
        assert result.rounds == 9
        assert "rounds=9" in result.summary()

    def test_summary_mentions_truncation(self):
        result = make_result({0: set()})
        result.truncated = True
        assert "truncated" in result.summary()


class TestOutputEquality:
    def test_structural_equality_across_representations(self):
        from repro.core import TriangleListing
        from repro.graphs import gnp_random_graph

        graph = gnp_random_graph(24, 0.4, seed=1)
        columnar = TriangleListing(repetitions=1, epsilon=0.5).run(graph, seed=3)
        materialised = TriangleListing(
            repetitions=1, epsilon=0.5, kernel="reference"
        ).run(graph, seed=3)
        assert columnar.output == materialised.output
        assert columnar.cost == materialised.cost

    def test_legacy_mapping_equality_semantics(self):
        assert TriangleOutput({0: frozenset({(0, 1, 2)})}) == TriangleOutput(
            {0: frozenset({(0, 1, 2)})}
        )
        assert TriangleOutput({0: frozenset({(0, 1, 2)})}) != TriangleOutput(
            {0: frozenset({(0, 1, 3)})}
        )
        # A node that reported nothing is still part of the tuple.
        assert TriangleOutput({0: frozenset()}) != TriangleOutput({})
        assert TriangleOutput({}) != "not-an-output"
