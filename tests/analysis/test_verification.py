"""Tests for output verification helpers."""

import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    VerificationReport,
    duplication_factor,
    local_listing_complete,
    nodes_reporting_foreign_triangles,
    recall_by_heaviness,
    require_sound,
    verify_result,
)
from repro.api.registry import unregister_algorithm
from repro.congest import AlgorithmCost, ExecutionMetrics
from repro.core import (
    AlgorithmResult,
    NaiveTwoHopListing,
    TriangleFinding,
    TriangleListing,
    TriangleOutput,
)
from repro.errors import VerificationError
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    lollipop_graph,
    planted_triangle_graph,
    random_regular_graph,
    triangle_free_bipartite,
    union_of_cliques,
)
from repro.graphs.triangles import heavy_triangles, light_triangles, list_triangles


def fabricate_result(per_node, rounds=1):
    return AlgorithmResult(
        algorithm="fabricated",
        model="CONGEST",
        output=TriangleOutput({k: frozenset(v) for k, v in per_node.items()}),
        cost=AlgorithmCost(rounds=rounds, messages=0, bits=0, max_bits_received=0),
        metrics=ExecutionMetrics(),
    )


class TestVerifyResult:
    def test_perfect_listing(self):
        graph = complete_graph(4)
        result = fabricate_result({0: {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}})
        report = verify_result(result, graph)
        assert report.sound and report.solves_listing and report.solves_finding
        assert report.recall == 1.0
        assert not report.missed and not report.spurious

    def test_partial_listing(self):
        graph = complete_graph(4)
        result = fabricate_result({0: {(0, 1, 2)}})
        report = verify_result(result, graph)
        assert report.sound
        assert report.solves_finding
        assert not report.solves_listing
        assert report.recall == pytest.approx(0.25)
        assert len(report.missed) == 3

    def test_spurious_triple_detected(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        result = fabricate_result({0: {(0, 1, 2)}})
        report = verify_result(result, graph)
        assert not report.sound
        assert report.spurious == {(0, 1, 2)}
        with pytest.raises(VerificationError):
            require_sound(result, graph)

    def test_triangle_free_graph_with_empty_output(self):
        graph = Graph(4, [(0, 1), (1, 2)])
        report = verify_result(fabricate_result({0: set()}), graph)
        assert report.sound and report.solves_finding and report.solves_listing
        assert report.recall == 1.0

    def test_summary_text(self):
        graph = complete_graph(3)
        report = verify_result(fabricate_result({0: {(0, 1, 2)}}), graph)
        assert "recall=1.000" in report.summary()


class TestHeavinessBreakdown:
    def test_recall_split(self):
        # Union of a 6-clique (heavy triangles at threshold 3) and a
        # 3-clique (light triangle).  Report only the light one.
        graph = union_of_cliques([6, 3])
        import math

        epsilon = math.log(3) / math.log(9)
        result = fabricate_result({0: {(6, 7, 8)}})
        split = recall_by_heaviness(result, graph, epsilon)
        assert split["light"] == 1.0
        assert split["heavy"] == 0.0

    def test_recall_split_no_triangles(self):
        graph = Graph(4, [(0, 1)])
        split = recall_by_heaviness(fabricate_result({0: set()}), graph, 0.5)
        assert split == {"heavy": 1.0, "light": 1.0}


class TestLocalListingAndDuplication:
    def test_local_listing_complete_for_naive(self):
        graph = gnp_random_graph(18, 0.4, seed=1)
        result = NaiveTwoHopListing().run(graph, seed=1)
        assert local_listing_complete(result, graph)

    def test_local_listing_incomplete_when_node_misses_own_triangle(self):
        graph = complete_graph(3)
        result = fabricate_result({0: {(0, 1, 2)}, 1: set(), 2: set()})
        assert not local_listing_complete(result, graph)

    def test_foreign_triangle_reporting_detected(self):
        graph = complete_graph(4)
        result = fabricate_result({3: {(0, 1, 2)}})
        assert nodes_reporting_foreign_triangles(result, graph) == [3]

    def test_no_foreign_reporting_for_naive(self):
        graph = gnp_random_graph(15, 0.4, seed=2)
        result = NaiveTwoHopListing().run(graph, seed=2)
        assert nodes_reporting_foreign_triangles(result, graph) == []

    def test_duplication_factor(self):
        result = fabricate_result({0: {(0, 1, 2)}, 1: {(0, 1, 2)}, 2: {(1, 2, 3)}})
        assert duplication_factor(result) == pytest.approx(1.5)

    def test_duplication_factor_empty(self):
        assert duplication_factor(fabricate_result({0: set()})) == 0.0


# ----------------------------------------------------------------------
# Key-space verification against the tuple-set reference
# ----------------------------------------------------------------------


def reported_tuples(result):
    """The reported union as tuples, read node by node (no key union)."""
    return frozenset().union(*result.output.per_node.values())


def reference_verify(result, graph):
    """The tuple-set ``verify_result`` the key-space comparison replaced."""
    truth = frozenset(list_triangles(graph))
    reported = reported_tuples(result)
    spurious = frozenset(t for t in reported if t not in truth)
    missed = truth - reported
    recall = 1.0 if not truth else (len(truth) - len(missed)) / len(truth)
    sound = not spurious
    solves_finding = bool(reported & truth) if truth else not reported
    return VerificationReport(
        algorithm=result.algorithm,
        sound=sound,
        total_truth=len(truth),
        total_reported=len(reported & truth),
        recall=recall,
        missed=missed,
        spurious=spurious,
        solves_finding=solves_finding,
        solves_listing=sound and not missed,
    )


def reference_heaviness(result, graph, epsilon):
    reported = reported_tuples(result)
    split = {}
    for side, triangles in (
        ("heavy", heavy_triangles(graph, epsilon)),
        ("light", light_triangles(graph, epsilon)),
    ):
        split[side] = (
            1.0
            if not triangles
            else sum(1 for t in triangles if t in reported) / len(triangles)
        )
    return split


def assert_matches_reference(result, graph):
    """Every key-space consumer agrees with the tuple-set reference."""
    expected = reference_verify(result, graph)
    report = verify_result(result, graph)
    assert report == expected
    assert report.to_dict() == expected.to_dict()
    if not isinstance(result, AlgorithmResult):
        return
    assert result.listing_recall(graph) == (
        1.0 if not expected.total_truth else expected.total_reported / expected.total_truth
    )
    assert result.missed_triangles(graph) == expected.missed
    for epsilon in (0.0, 0.3, 0.7):
        assert recall_by_heaviness(result, graph, epsilon) == reference_heaviness(
            result, graph, epsilon
        )
    distinct = len(reported_tuples(result))
    assert duplication_factor(result) == (
        0.0 if not distinct else result.output.total_reported() / distinct
    )
    if expected.sound:
        result.check_soundness(graph)
        assert result.solves_listing(graph) == expected.solves_listing
        assert result.solves_finding(graph) == expected.solves_finding
        return
    offenders = {
        (node, triple)
        for node, triples in result.output.per_node.items()
        for triple in triples
        if triple in expected.spurious
    }
    for check in (result.check_soundness, result.solves_listing, result.solves_finding):
        with pytest.raises(VerificationError) as raised:
            check(graph)
        match = re.match(r"node (\d+) reported \((\d+), (\d+), (\d+)\)", str(raised.value))
        assert match is not None, str(raised.value)
        node, a, b, c = map(int, match.groups())
        assert (node, (a, b, c)) in offenders
        assert node == min(offender for offender, _ in offenders)


GENERATOR_FAMILIES = {
    "empty": lambda: empty_graph(7),
    "complete": lambda: complete_graph(9),
    "gnp": lambda: gnp_random_graph(30, 0.4, seed=3),
    "bipartite": lambda: triangle_free_bipartite(16, 0.5, seed=4),
    "cycle": lambda: cycle_graph(3),
    "planted": lambda: planted_triangle_graph(24, 4, 0.2, seed=5)[0],
    "heavy-gadget": lambda: heavy_edge_gadget(20, 8, 0.1, seed=6)[0],
    "barabasi-albert": lambda: barabasi_albert_graph(30, 3, seed=7),
    "random-regular": lambda: random_regular_graph(20, 4, seed=8),
    "lollipop": lambda: lollipop_graph(6, 4),
    "union-of-cliques": lambda: union_of_cliques([6, 3, 4]),
}


class TestKeySpaceVerification:
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    @pytest.mark.parametrize(
        "algorithm",
        [
            TriangleListing(repetitions=1, epsilon=0.5),
            TriangleFinding(repetitions=1),
            NaiveTwoHopListing(),
        ],
        ids=["listing", "finding", "naive"],
    )
    def test_generator_families_match_reference(self, family, algorithm):
        graph = GENERATOR_FAMILIES[family]()
        result = algorithm.run(graph, seed=11)
        assert_matches_reference(result, graph)

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_spurious_reports_on_generator_families(self, family):
        graph = GENERATOR_FAMILIES[family]()
        n = graph.num_nodes
        truth = list_triangles(graph)
        # One true triangle, one triple outside the graph's id range and,
        # where one exists, an in-range non-triangle.
        per_node = {1: set(truth[:1]), n + 2: {(0, n, n + 1)}}
        if n >= 3 and (0, 1, 2) not in truth:
            per_node[0] = {(0, 1, 2)}
        assert_matches_reference(fabricate_result(per_node), graph)

    def test_smaller_legacy_key_space_is_re_encoded(self):
        graph = complete_graph(12)
        result = fabricate_result({0: {(0, 1, 2), (1, 2, 3)}})
        assert result.output._key_space() == 4
        assert_matches_reference(result, graph)
        report = verify_result(result, graph)
        assert report.total_reported == 2
        assert len(report.missed) == math.comb(12, 3) - 2

    def test_check_soundness_names_node_and_triple(self):
        graph = Graph(5, [(0, 1), (1, 2), (0, 2)])
        result = fabricate_result({4: {(0, 1, 2)}, 3: {(1, 2, 3), (0, 1, 2)}})
        with pytest.raises(
            VerificationError,
            match=r"node 3 reported \(1, 2, 3\) which is not a triangle",
        ):
            result.check_soundness(graph)

    def test_probe_result_duck_type(self, probe_result):
        graph = gnp_random_graph(25, 0.4, seed=9)
        result = probe_result(frozenset(list_triangles(graph)))
        assert isinstance(result.output, TriangleOutput)
        report = verify_result(result, graph)
        assert report == reference_verify(result, graph)
        assert report.solves_listing and report.recall == 1.0

    def test_probe_result_empty(self, probe_result):
        graph = cycle_graph(6)
        result = probe_result(frozenset())
        assert verify_result(result, graph) == reference_verify(result, graph)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_outputs_match_reference(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="n")
        probability = data.draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]), label="p")
        seed = data.draw(st.integers(min_value=0, max_value=10_000), label="seed")
        graph = gnp_random_graph(n, probability, seed=seed)
        truth = list_triangles(graph)
        # Canonical triples over ids 0 .. n+3: in-range non-triangles and
        # ids at or beyond graph.num_nodes are both drawn.
        spurious = st.lists(
            st.integers(min_value=0, max_value=n + 3), min_size=3, max_size=3, unique=True
        ).map(lambda ids: tuple(sorted(ids)))
        triple = st.sampled_from(truth) | spurious if truth else spurious
        per_node = data.draw(
            st.dictionaries(
                st.integers(min_value=0, max_value=n + 3),
                st.sets(triple, max_size=6),
                max_size=5,
            ),
            label="per_node",
        )
        assert_matches_reference(fabricate_result(per_node), graph)


@pytest.fixture
def probe_result():
    """The service probe's duck-typed result, leaving the registry as found.

    Importing the probe module registers ``service-probe``, and only a
    fresh import does.  So a test that imported it first drops both the
    name and the module again, and a later import (the service tests'
    session fixture) registers the probe as usual.
    """
    module = "repro.service.probes"
    imported = module in sys.modules
    from repro.service.probes import PROBE_ALGORITHM, _ProbeResult

    def build(triangles):
        return _ProbeResult(
            algorithm=PROBE_ALGORITHM,
            model="CONGEST",
            cost=AlgorithmCost(rounds=0, messages=0, bits=0, max_bits_received=0),
            truncated=False,
            triangles=triangles,
        )

    yield build
    if not imported:
        unregister_algorithm(PROBE_ALGORITHM)
        del sys.modules[module]
