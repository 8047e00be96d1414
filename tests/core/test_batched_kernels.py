"""Differential tests: batched phase kernels vs the reference closures.

The CONGEST accounting discipline must not drift when a protocol's message
production moves from per-node Python closures to whole-network array
programs over the typed columnar plane.  These tests pin both kernels
together on every workload family — ``reference`` (per-node closures) and
``batched`` (the direct-exchange path with fused whole-network receivers) —
asserting
identical per-phase round counts, link-bit maxima, message counts and bit
totals, and identical per-node triangle output sets, for the same seed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
    TriangleFinding,
    TriangleListing,
)
from repro.core.a3_light import run_axr
from repro.congest import CongestSimulator
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    lollipop_graph,
    planted_triangle_graph,
    random_regular_graph,
    triangle_free_bipartite,
    union_of_cliques,
)

#: Every workload family the generators produce, at differential-test size.
WORKLOADS = [
    pytest.param(lambda: gnp_random_graph(40, 0.4, seed=11), id="gnp-dense"),
    pytest.param(lambda: gnp_random_graph(48, 0.08, seed=12), id="gnp-sparse"),
    pytest.param(lambda: complete_graph(20), id="clique"),
    pytest.param(lambda: barabasi_albert_graph(48, 4, seed=13), id="barabasi-albert"),
    pytest.param(lambda: random_regular_graph(40, 4, seed=14), id="random-regular"),
    pytest.param(lambda: triangle_free_bipartite(36, seed=15), id="triangle-free"),
    pytest.param(lambda: planted_triangle_graph(40, 5, seed=16)[0], id="planted"),
    pytest.param(lambda: heavy_edge_gadget(36, 10)[0], id="heavy-gadget"),
    pytest.param(lambda: lollipop_graph(10, 12), id="lollipop"),
    pytest.param(lambda: union_of_cliques([8, 6, 5]), id="clique-union"),
    pytest.param(lambda: Graph(7, []), id="edgeless"),
]


def phase_rows(result):
    """Per-phase ``(name, rounds, max_link_bits, bits, messages)`` rows."""
    return [
        (phase.name, phase.rounds, phase.max_link_bits, phase.bits, phase.messages)
        for phase in result.metrics.phases
    ]


def assert_identical_execution(make_algorithm, graph, seeds=(0, 3)):
    """Run both kernels and assert the executions are indistinguishable."""
    for seed in seeds:
        reference = make_algorithm("reference").run(graph, seed=seed)
        run = make_algorithm("batched").run(graph, seed=seed)
        assert run.cost == reference.cost
        assert run.truncated == reference.truncated
        assert phase_rows(run) == phase_rows(reference)
        assert run.output.union() == reference.output.union()
        for node in range(graph.num_nodes):
            assert run.output.node_output(node) == reference.output.node_output(node)


@pytest.mark.parametrize("make_graph", WORKLOADS)
class TestKernelEquivalence:
    def test_a1_sampling(self, make_graph):
        assert_identical_execution(
            lambda kernel: HeavySamplingFinder(epsilon=0.3, kernel=kernel),
            make_graph(),
        )

    def test_a2_heavy_hashing(self, make_graph):
        assert_identical_execution(
            lambda kernel: HeavyHashingLister(epsilon=0.4, kernel=kernel),
            make_graph(),
        )

    def test_a3_light_listing(self, make_graph):
        assert_identical_execution(
            lambda kernel: LightTrianglesLister(epsilon=0.3, kernel=kernel),
            make_graph(),
        )

    def test_dolev_clique_baseline(self, make_graph):
        assert_identical_execution(
            lambda kernel: DolevCliqueListing(kernel=kernel), make_graph(), seeds=(0,)
        )

    def test_theorem2_listing(self, make_graph):
        assert_identical_execution(
            lambda kernel: TriangleListing(
                repetitions=2, epsilon=0.5, kernel=kernel
            ),
            make_graph(),
            seeds=(1,),
        )


class TestCompositionsAndEdgeCases:
    def test_theorem1_finding_identical(self):
        graph = gnp_random_graph(36, 0.3, seed=21)
        assert_identical_execution(
            lambda kernel: TriangleFinding(
                repetitions=2, epsilon=0.4, kernel=kernel
            ),
            graph,
            seeds=(2,),
        )

    def test_axr_explicit_landmarks_identical(self):
        # Drive A(X, r) directly with a fixed landmark set on both kernels.
        graph = gnp_random_graph(24, 0.35, seed=8)
        results = {}
        for kernel in ("reference", "batched"):
            simulator = CongestSimulator(graph, seed=5)
            for context in simulator.contexts:
                context.state["in_X"] = context.node_id in {0, 3, 7}
            stopped = run_axr(simulator, goodness_threshold=6.0, kernel=kernel)
            results[kernel] = (
                stopped,
                simulator.total_rounds,
                simulator.collect_outputs(),
            )
        assert results["batched"] == results["reference"]

    def test_axr_zero_threshold_stops_early_on_both_kernels(self):
        graph = complete_graph(6)
        for kernel in ("reference", "batched"):
            simulator = CongestSimulator(graph, seed=0)
            for context in simulator.contexts:
                context.state["in_X"] = False
            assert run_axr(simulator, goodness_threshold=0.0, kernel=kernel) is True

    def test_a3_budget_truncation_identical(self):
        # A tight budget truncates both kernels at the same point.
        graph = complete_graph(14)
        assert_identical_execution(
            lambda kernel: LightTrianglesLister(
                epsilon=0.0, budget_constant=0.05, kernel=kernel
            ),
            graph,
            seeds=(0, 1),
        )

    def test_invalid_kernel_rejected(self):
        with pytest.raises(ValueError):
            HeavyHashingLister(epsilon=0.4, kernel="vectorised")
        with pytest.raises(ValueError):
            TriangleListing(kernel="fast")
        with pytest.raises(ValueError):
            LightTrianglesLister(epsilon=0.3, kernel="pernode")

    def test_a3_sparse_fallback_matches_reference(self):
        # A workload sparse enough that the direct kernel takes the
        # sender-major (no dense matrices) step-4.1 path.
        graph = gnp_random_graph(120, 0.03, seed=9)
        assert_identical_execution(
            lambda kernel: LightTrianglesLister(epsilon=0.2, kernel=kernel),
            graph,
            seeds=(0,),
        )

    def test_a2_sparse_fallback_matches_reference(self):
        graph = gnp_random_graph(120, 0.03, seed=10)
        assert_identical_execution(
            lambda kernel: HeavyHashingLister(epsilon=0.2, kernel=kernel),
            graph,
            seeds=(0,),
        )


#: Every protocol with a ``kernel=`` switch, one repetition each.
DIFFERENTIAL_ALGORITHMS = {
    "a1": lambda epsilon, kernel: HeavySamplingFinder(epsilon=epsilon, kernel=kernel),
    "a2": lambda epsilon, kernel: HeavyHashingLister(epsilon=epsilon, kernel=kernel),
    "a3": lambda epsilon, kernel: LightTrianglesLister(epsilon=epsilon, kernel=kernel),
    "dolev": lambda epsilon, kernel: DolevCliqueListing(kernel=kernel),
    "theorem1": lambda epsilon, kernel: TriangleFinding(
        repetitions=1, epsilon=epsilon, kernel=kernel
    ),
    "theorem2": lambda epsilon, kernel: TriangleListing(
        repetitions=1, epsilon=epsilon, kernel=kernel
    ),
}


@st.composite
def random_graphs(draw) -> Graph:
    """Graphs on up to 24 nodes at any density, edgeless and disconnected
    ones included."""
    num_nodes = draw(st.integers(min_value=1, max_value=24))
    density = draw(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    )
    return gnp_random_graph(num_nodes, density, seed=draw(st.integers(0, 2**16)))


@pytest.mark.parametrize("algorithm", sorted(DIFFERENTIAL_ALGORITHMS))
@given(
    graph=random_graphs(),
    epsilon=st.sampled_from([0.0, 0.2, 0.4, 0.6, 0.8]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=100, deadline=None)
def test_reference_and_batched_agree_on_random_graphs(algorithm, graph, epsilon, seed):
    make = DIFFERENTIAL_ALGORITHMS[algorithm]
    reference = make(epsilon, "reference").run(graph, seed=seed)
    batched = make(epsilon, "batched").run(graph, seed=seed)
    assert batched.cost == reference.cost
    assert phase_rows(batched) == phase_rows(reference)
    assert (
        batched.output.union_keys().tolist() == reference.output.union_keys().tolist()
    )
    # The union hides a triangle dropped at one node but listed by another.
    for node in range(graph.num_nodes):
        assert (
            batched.output.node_keys(node).tolist()
            == reference.output.node_keys(node).tolist()
        )
