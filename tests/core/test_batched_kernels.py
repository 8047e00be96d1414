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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csr_strategies import pinned_strategy

from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
    NaiveTwoHopListing,
    TriangleFinding,
    TriangleListing,
)
from repro.core import a2_heavy, a3_light
from repro.core.a3_light import run_axr
from repro.congest import CongestSimulator, NodeContext, OutputTable
from repro.congest.backends import use_chunk_bytes
from repro.congest.wire import A2_EDGE_SCHEMA
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
from repro.types import sorted_unique

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
        assert (
            run.metrics.bits_received_per_node
            == reference.metrics.bits_received_per_node
        )
        assert (
            run.metrics.messages_received_per_node
            == reference.metrics.messages_received_per_node
        )
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

    def test_naive_two_hop(self, make_graph):
        assert_identical_execution(
            lambda kernel: NaiveTwoHopListing(kernel=kernel), make_graph(), seeds=(0,)
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
            in_x = np.isin(np.arange(graph.num_nodes), [0, 3, 7])
            stopped = run_axr(simulator, in_x, goodness_threshold=6.0, kernel=kernel)
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
            no_landmarks = np.zeros(graph.num_nodes, dtype=bool)
            assert (
                run_axr(simulator, no_landmarks, goodness_threshold=0.0, kernel=kernel)
                is True
            )

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
        # A workload sparse enough that the direct kernel builds step 4.1
        # as the receiver-major edge gather, with no n×n matrix at all.
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


#: The graphs A3's step-4.1 gather meets, as (membership strategy, full
#: ∆(X) matrix worthwhile): thm2-dense's dense graphs, thm1-sparse's
#: sorted-key graphs with the full matrix — real graphs reach it only at
#: n > 1024 for p = √n/n — and pairs tested on demand.  Each is forced.
STEP41_REGIMES = [
    pytest.param("dense", True, id="full-D-dense-csr"),
    pytest.param("sorted-key", True, id="full-D-sorted-key-csr"),
    pytest.param("sorted-key", False, id="D-on-demand"),
]


@pytest.mark.parametrize("strategy, worthwhile", STEP41_REGIMES)
def test_a3_step41_regimes_match_reference(monkeypatch, strategy, worthwhile):
    monkeypatch.setattr(
        a3_light, "dense_pair_matrix_worthwhile", lambda num_nodes, degrees: worthwhile
    )
    built = []
    make_disjointness = a3_light._make_disjointness

    def spy(*args):
        result = make_disjointness(*args)
        built.append(result is not None)
        return result

    monkeypatch.setattr(a3_light, "_make_disjointness", spy)
    graph = gnp_random_graph(150, 0.12, seed=19)
    # A tiny chunk bound makes the ∆(X) build, the gather and the fused
    # receivers cross many chunk boundaries; the small threshold makes
    # nodes withhold S sets, so V(j) is shipped and the loop runs several
    # iterations.
    with use_chunk_bytes(64), pinned_strategy(strategy):
        for make_algorithm in (
            lambda kernel: LightTrianglesLister(epsilon=0.2, kernel=kernel),
            lambda kernel: LightTrianglesLister(
                epsilon=0.2,
                landmark_probability=0.05,
                goodness_threshold=12.0,
                kernel=kernel,
            ),
        ):
            assert_identical_execution(make_algorithm, graph, seeds=(1,))
    assert set(built) == {worthwhile}


def test_disjointness_matches_brute_force_with_many_landmarks(monkeypatch):
    # 320 landmarks, so the packed landmark bits span 40 bytes; nodes 0
    # and 1 share exactly 256 of them, so 256 landmark blocks clear their
    # pair and the packed-bit AND finds it in many bytes at once.
    num_nodes = 400
    rng = np.random.default_rng(7)
    edges = {(hub, x) for hub in (0, 1) for x in range(2, 258)}
    edges |= {
        tuple(sorted(map(int, rng.choice(num_nodes, 2, replace=False))))
        for _ in range(2000)
    }
    csr = Graph(num_nodes, sorted(edges)).csr()
    landmarks = np.arange(2, 322, dtype=np.int64)
    landmark_set = set(landmarks.tolist())
    neighborhoods = [
        set(csr.neighbor_slice(node).tolist()) & landmark_set
        for node in range(num_nodes)
    ]
    expected = np.array(
        [
            [j != l and not (neighborhoods[j] & neighborhoods[l]) for l in range(num_nodes)]
            for j in range(num_nodes)
        ]
    )
    assert not expected[0, 1]
    monkeypatch.setattr(
        a3_light, "dense_pair_matrix_worthwhile", lambda num_nodes, degrees: True
    )
    # Each landmark's rows are cleared two at a time.
    with use_chunk_bytes(2 * num_nodes):
        disjoint = a3_light._make_disjointness(
            csr.indptr, csr.indices, landmarks, np.diff(csr.indptr)
        )
    np.testing.assert_array_equal(disjoint, expected)
    # The packed-bit test of the on-demand regime agrees on every pair.
    pair_test, _ = a3_light._delta_pair_test(None, csr.indptr, csr.indices, landmarks)
    nodes = np.arange(num_nodes, dtype=np.int64)
    got = pair_test(nodes, np.full(num_nodes, num_nodes), np.tile(nodes, num_nodes))
    np.testing.assert_array_equal(got.reshape(num_nodes, num_nodes), expected)


#: A2's dense families, plus the Theorem-2 cell graph of the sweep benchmark.
A2_DENSE_GRAPHS = [
    pytest.param(lambda: gnp_random_graph(40, 0.4, seed=11), id="gnp-dense"),
    pytest.param(lambda: complete_graph(20), id="clique"),
    pytest.param(lambda: heavy_edge_gadget(36, 10)[0], id="heavy-gadget"),
    pytest.param(lambda: union_of_cliques([8, 6, 5]), id="clique-union"),
    pytest.param(lambda: gnp_random_graph(120, 0.1, seed=21), id="gnp-120-0.1"),
    # Degrees near 72 exceed the ε = 1 cap 8 + 4n/⌊√n⌋ = 56, so the cap binds.
    pytest.param(lambda: gnp_random_graph(120, 0.6, seed=22), id="gnp-120-0.6"),
]


def _designed_zero_mask(num_nodes, kind):
    """A hash-zero matrix ``Z`` with chosen rows, or ``None`` for real hashes.

    ``"mixed"`` cycles receivers through no zero vertex, exactly one, all
    of them, and a random third; ``"none"`` has no zero vertex anywhere,
    so nothing ships.
    """
    if kind == "hashes":
        return None
    zero = np.zeros((num_nodes, num_nodes), dtype=bool)
    if kind == "mixed":
        rng = np.random.default_rng(num_nodes)
        for node in range(num_nodes):
            if node % 4 == 1:
                zero[node, (7 * node) % num_nodes] = True
            elif node % 4 == 2:
                zero[node] = True
            elif node % 4 == 3:
                zero[node] = rng.random(num_nodes) < 1 / 3
    return zero


def _a2_path_run(monkeypatch, graph, epsilon, dense, zero_mask, seed=2):
    """A batched A2 run forced down the dense or the on-demand path.

    Returns the staged step-2 columns, the per-node key sets, the output's
    union (read before any per-node read), whether the dense hash-zero
    matrix was built, and the deferred sources the run handed its output
    table.  A designed ``zero_mask`` replaces every
    hash evaluation: each node's coefficient row is swapped for its id
    after step 1 is staged, so the traffic is unchanged, and the hash
    block of rows ``a`` at points ``l`` reads ``zero_mask[a, l]``.
    """
    monkeypatch.setattr(
        a2_heavy, "dense_pair_matrix_worthwhile", lambda num_nodes, degrees: dense
    )
    if zero_mask is not None:
        stage_hashes = HeavyHashingLister._stage_hashes

        def node_ids(self, simulator, family):
            coefficients = stage_hashes(self, simulator, family)
            return np.repeat(
                np.arange(simulator.num_nodes)[:, None], coefficients.shape[1], axis=1
            )

        monkeypatch.setattr(HeavyHashingLister, "_stage_hashes", node_ids)
        monkeypatch.setattr(
            a2_heavy,
            "hash_zero_block",
            lambda rows, points, prime, range_size: zero_mask[np.ix_(rows[:, 0], points)],
        )
    staged = []
    stage_columns = CongestSimulator.stage_columns

    def spy(self, schema, src, dst, data, lengths=None, bits=None):
        if schema is A2_EDGE_SCHEMA:
            staged.append((src, dst, lengths, data["u"], data["v"]))
        return stage_columns(self, schema, src, dst, data, lengths=lengths, bits=bits)

    monkeypatch.setattr(CongestSimulator, "stage_columns", spy)
    dense_chosen = []
    hash_zero_matrix = a2_heavy._hash_zero_matrix

    def dense_spy(*args):
        dense_chosen.append(True)
        return hash_zero_matrix(*args)

    monkeypatch.setattr(a2_heavy, "_hash_zero_matrix", dense_spy)
    sources = []
    defer = OutputTable.defer

    def defer_spy(self, source):
        sources.append(source)
        return defer(self, source)

    monkeypatch.setattr(OutputTable, "defer", defer_spy)
    result = HeavyHashingLister(epsilon=epsilon).run(graph, seed=seed)
    union = result.output.union_keys().tolist()
    keys = [result.output.node_keys(node).tolist() for node in range(graph.num_nodes)]
    monkeypatch.undo()
    return staged, keys, union, bool(dense_chosen), sources


@pytest.mark.parametrize("chunk_bytes", [None, 4096], ids=["default-chunk", "chunk-4096"])
@pytest.mark.parametrize("epsilon", [0.4, 1.0])
@pytest.mark.parametrize("zero_kind", ["hashes", "mixed", "none"])
@pytest.mark.parametrize("make_graph", A2_DENSE_GRAPHS)
def test_a2_dense_path_matches_on_demand_path(
    monkeypatch, make_graph, zero_kind, epsilon, chunk_bytes
):
    # The dense steps 2 and 3 (popcount sizes, block-gathered endpoints,
    # all-receiver zero-pair sweep, direct union over edge blocks) against
    # the on-demand step 2 and the grouped oracle over the delivered
    # channel, for the same seed.  Under the 4096-byte bound the row blocks
    # split inside one receiver's pairs, and the union's edge blocks hold
    # 2 to 12 edges each.
    graph = make_graph()
    zero_mask = _designed_zero_mask(graph.num_nodes, zero_kind)
    with use_chunk_bytes(chunk_bytes):
        dense_staged, dense_keys, dense_union, dense_chosen, sources = _a2_path_run(
            monkeypatch, graph, epsilon, True, zero_mask
        )
        demand_staged, demand_keys, demand_union, demand_chosen, demand_sources = (
            _a2_path_run(monkeypatch, graph, epsilon, False, zero_mask)
        )
        # The direct union against the source's own listed chunks.
        source_unions = [
            sorted_unique(*source.key_blocks()).tolist() for source in sources
        ]
        listed_unions = [
            sorted_unique(*(keys for keys, _, _ in source.chunks())).tolist()
            for source in sources
        ]
    assert dense_chosen and not demand_chosen and not demand_sources
    assert len(dense_staged) == len(demand_staged) == (zero_kind != "none")
    for dense_columns, demand_columns in zip(dense_staged, demand_staged):
        for dense_column, demand_column in zip(dense_columns, demand_columns):
            np.testing.assert_array_equal(dense_column, demand_column)
    assert dense_keys == demand_keys
    # Only a run that shipped something defers a source.
    assert len(sources) == (zero_kind != "none")
    assert source_unions == listed_unions
    assert dense_union == demand_union == (source_unions or [[]])[0]
    if zero_kind == "none":
        assert not any(dense_keys)


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
    "naive": lambda epsilon, kernel: NaiveTwoHopListing(kernel=kernel),
}


@pytest.mark.parametrize("algorithm", sorted(DIFFERENTIAL_ALGORITHMS))
def test_batched_run_builds_no_node_context(monkeypatch, algorithm):
    # The batched kernels read the node generators, the CSR and the output
    # table; a context appears only when a reference closure asks for one.
    built = []
    init = NodeContext.__init__

    def spy(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["node_id"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(NodeContext, "__init__", spy)
    make = DIFFERENTIAL_ALGORITHMS[algorithm]
    for graph in (
        gnp_random_graph(40, 0.4, seed=11),
        gnp_random_graph(48, 0.08, seed=12),
        Graph(5, []),
    ):
        make(0.4, "batched").run(graph, seed=1)
    assert built == []
    make(0.4, "reference").run(complete_graph(6), seed=1)
    assert built


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
