"""Tests for the Theorem-1 triangle-finding algorithm."""

import hashlib
import math

import pytest

from repro.api import AlgorithmSpec, RunSpec, WorkloadSpec, canonical_json

from repro.core import TriangleFinding, finding_epsilon_asymptotic, theorem1_round_bound
from repro.graphs import (
    Graph,
    complete_graph,
    gnp_random_graph,
    planted_triangle_graph,
    triangle_free_bipartite,
)


class TestFindingCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    def test_finds_triangles_in_dense_graphs(self, seed):
        graph = gnp_random_graph(25, 0.4, seed=seed)
        result = TriangleFinding(repetitions=2).run(graph, seed=seed)
        result.check_soundness(graph)
        assert result.solves_finding(graph)

    def test_triangle_free_graph_answers_not_found(self):
        graph = triangle_free_bipartite(24, 0.5, seed=1)
        result = TriangleFinding(repetitions=2).run(graph, seed=1)
        assert not result.found_any()
        assert result.solves_finding(graph)

    def test_finds_planted_needles(self):
        # A nearly triangle-free graph with a handful of planted triangles is
        # the hard case for finding; amplification over the default
        # repetition count must locate one.
        graph, planted = planted_triangle_graph(30, 2, background_probability=0.3, seed=5)
        result = TriangleFinding().run(graph, seed=5)
        assert result.solves_finding(graph)

    def test_single_triangle_graph(self):
        result = TriangleFinding().run(complete_graph(3), seed=0)
        assert result.triangles_found() == {(0, 1, 2)}

    def test_empty_graph(self):
        result = TriangleFinding(repetitions=1).run(Graph(5), seed=0)
        assert not result.found_any()

    def test_stop_on_success_reduces_cost(self):
        graph = gnp_random_graph(25, 0.5, seed=3)
        eager = TriangleFinding(repetitions=4, stop_on_success=True).run(graph, seed=3)
        full = TriangleFinding(repetitions=4, stop_on_success=False).run(graph, seed=3)
        assert eager.found_any() and full.found_any()
        assert eager.rounds <= full.rounds


class TestFindingParameters:
    def test_parameters_for_exposes_epsilon(self):
        graph = gnp_random_graph(30, 0.3, seed=1)
        algorithm = TriangleFinding(epsilon=finding_epsilon_asymptotic())
        params = algorithm.parameters_for(graph)
        assert params.epsilon == pytest.approx(1.0 / 3.0)

    def test_result_records_parameters(self):
        graph = complete_graph(6)
        result = TriangleFinding(repetitions=1).run(graph, seed=0)
        assert "epsilon" in result.parameters
        assert result.parameters["repetitions"] == 1
        assert result.algorithm == "Theorem1-finding"
        assert result.model == "CONGEST"

    def test_round_bound_reference_curve(self):
        assert theorem1_round_bound(64) == pytest.approx(16.0 * 6 ** (2.0 / 3.0))
        assert theorem1_round_bound(1000) > theorem1_round_bound(100)


class TestFindingCost:
    def test_cost_is_sum_of_passes(self):
        graph = gnp_random_graph(20, 0.4, seed=2)
        one = TriangleFinding(repetitions=1).run(graph, seed=2)
        two = TriangleFinding(repetitions=2).run(graph, seed=2)
        assert two.rounds >= one.rounds

    def test_metrics_have_phases_from_both_components(self):
        graph = gnp_random_graph(20, 0.4, seed=2)
        result = TriangleFinding(repetitions=1).run(graph, seed=2)
        phase_names = {report.name for report in result.metrics.phases}
        assert any(name.startswith("A1:") for name in phase_names)
        assert any(name.startswith("A(X,r):") for name in phase_names)


class TestConstructorValidation:
    """Bad public-API arguments fail at construction with ProtocolError."""

    def test_zero_or_negative_repetitions_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match="repetitions"):
            TriangleFinding(repetitions=0)
        with pytest.raises(ProtocolError, match="repetitions"):
            TriangleFinding(repetitions=-3)

    def test_out_of_range_epsilon_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match="epsilon"):
            TriangleFinding(epsilon=-0.1)
        with pytest.raises(ProtocolError, match="epsilon"):
            TriangleFinding(epsilon=1.5)

    def test_non_positive_budget_constant_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError, match="budget_constant"):
            TriangleFinding(budget_constant=0)

    def test_unknown_kernel_still_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            TriangleFinding(kernel="turbo")

    def test_valid_arguments_accepted(self):
        TriangleFinding(repetitions=1, epsilon=0.0)
        TriangleFinding(repetitions=2, epsilon=1.0, budget_constant=0.5)


#: sha256 of the canonical record of Theorem 1 (one pass, the asymptotic ε)
#: on ``gnp(3000, √n/n)`` at each graph seed.  The sparse path (A3's
#: forward listing off the dense strategy, verification's walked count)
#: must reproduce them byte for byte.
SPARSE_RECORD_SHA256 = {
    1: "2a26960812366be7ecdfaf603cdee13bec309491f42cd9a903c67030af52f6ad",
    2: "ff9eafe7d06b5f46a816560316cfc79b22d602153a9b251ff3ab190cd1dc5af1",
    3: "83701424e64797ffd170f782e6a132216055a9fe3f85bb48bde331fd38d53b1e",
}


@pytest.mark.parametrize("seed", sorted(SPARSE_RECORD_SHA256))
def test_sparse_theorem1_records_are_pinned(seed):
    num_nodes = 3000
    spec = RunSpec(
        algorithm=AlgorithmSpec(
            "theorem1-finding", {"repetitions": 1, "epsilon": finding_epsilon_asymptotic()}
        ),
        workload=WorkloadSpec(
            "gnp", {"num_nodes": num_nodes, "edge_probability": math.sqrt(num_nodes) / num_nodes}
        ),
        seed=seed,
    )
    record = canonical_json(spec.run().to_dict()).encode("utf-8")
    assert hashlib.sha256(record).hexdigest() == SPARSE_RECORD_SHA256[seed]
