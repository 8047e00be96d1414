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

from csr_strategies import forced_strategy, membership_strategy, pinned_strategy

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
from repro.congest import seeding
from repro.congest.backends import landmark_words, shares_landmark, use_chunk_bytes
from repro.congest.wire import (
    A1_SAMPLE_SCHEMA,
    A2_EDGE_SCHEMA,
    A3_IN_U_SCHEMA,
    A3_IN_X_SCHEMA,
    A3_NX_SCHEMA,
    A3_S_SCHEMA,
    A3_V_SCHEMA,
)
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
from repro.core.parameters import a1_sample_cap, a1_sampling_probability
from repro.errors import SimulationError
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

    def test_a3_sparse_workload_matches_reference(self):
        # A sparse workload: most nodes have no landmark neighbour, so
        # most S(j, k) sizes need no gather at all.
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


def _greedy_total_dominating_set(graph):
    """Landmarks grown greedily until every node neighbours one of them."""
    csr = graph.csr()
    uncovered = set(range(graph.num_nodes))
    chosen = []
    while uncovered:
        best = max(
            range(graph.num_nodes),
            key=lambda v: len(uncovered & set(csr.neighbor_slice(v).tolist())),
        )
        chosen.append(best)
        uncovered -= set(csr.neighbor_slice(best).tolist())
    return chosen


def _landmarks(graph, regime):
    """``(in_X, r)`` forcing one regime of A3's batched step 4.1."""
    num_nodes = graph.num_nodes
    rng = np.random.default_rng(num_nodes)
    in_x = np.zeros(num_nodes, dtype=bool)
    threshold = 1e9
    if regime == "every-node-covered":
        in_x[_greedy_total_dominating_set(graph)] = True
    elif regime == "many-landmark-words":
        in_x[rng.choice(num_nodes, 140, replace=False)] = True
    elif regime == "withheld-s-sets":
        in_x[rng.choice(num_nodes, 8, replace=False)] = True
        threshold = 12.0
    elif regime == "mixed-cover":
        in_x[rng.choice(num_nodes, 4, replace=False)] = True
    return in_x, threshold


#: The regimes of A3's batched step 4.1: no landmark (nothing to gather,
#: every S(j, k) is all of N_a(k) \ {j}), every node covered (every pair
#: gathered), 140 landmarks (three word columns), a few landmarks with a
#: small threshold (withheld S sets, V(j) shipped, several iterations),
#: and a partial cover.
STEP41_REGIMES = [
    "no-landmark",
    "every-node-covered",
    "many-landmark-words",
    "withheld-s-sets",
    "mixed-cover",
]


@pytest.mark.parametrize("strategy", ["dense", "sorted-key"])
@pytest.mark.parametrize("regime", STEP41_REGIMES)
def test_a3_step41_regimes_match_reference(regime, strategy):
    graph = gnp_random_graph(150, 0.12, seed=19)
    in_x, threshold = _landmarks(graph, regime)
    words = -(-int(in_x.sum()) // 64)
    covered = np.bincount(
        np.repeat(np.arange(150), np.diff(graph.csr().indptr))[in_x[graph.csr().indices]],
        minlength=150,
    ) > 0
    assert {
        "no-landmark": words == 0,
        "every-node-covered": covered.all() and words == 1,
        "many-landmark-words": words == 3,
        "withheld-s-sets": 0 < covered.sum() < 150,
        "mixed-cover": 0 < covered.sum() < 150,
    }[regime]
    runs = {}
    # A tiny chunk bound makes the size counts, the edge closures and the
    # V receivers cross many chunk boundaries.
    with use_chunk_bytes(64), pinned_strategy(strategy):
        for kernel in ("reference", "batched"):
            simulator = CongestSimulator(graph, seed=4)
            stopped = run_axr(simulator, in_x, threshold, kernel=kernel)
            table = simulator.output_table
            runs[kernel] = (
                stopped,
                simulator.metrics,
                [table.node_keys(node).tolist() for node in range(150)],
            )
    assert runs["batched"] == runs["reference"]
    names = [phase.name for phase in runs["batched"][1].phases]
    if regime == "withheld-s-sets":
        assert names.count("A(X,r):4.1-send-S") > 1
        assert any(
            phase.messages
            for phase in runs["batched"][1].phases
            if phase.name == "A(X,r):4.3-send-V"
        )
    assert any(runs["batched"][2])


def test_landmark_words_match_brute_force_with_many_landmarks():
    # 320 landmarks, so the landmark words span five columns; nodes 0 and
    # 1 share exactly 256 of them, so every column finds their pair.
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
            [bool(neighborhoods[j] & neighborhoods[l]) for l in range(num_nodes)]
            for j in range(num_nodes)
        ]
    )
    assert expected[0, 1]
    words = landmark_words(csr.indptr, csr.indices, landmarks, num_nodes)
    assert len(words) == 5
    nodes = np.arange(num_nodes, dtype=np.int64)
    got = shares_landmark(words, np.repeat(nodes, num_nodes), np.tile(nodes, num_nodes))
    np.testing.assert_array_equal(got.reshape(num_nodes, num_nodes), expected)
    for column in range(5):
        # Each column alone sees exactly the landmarks it packs.
        packed = set(landmarks[64 * column : 64 * (column + 1)].tolist())
        alone = shares_landmark(words[column : column + 1], nodes[:2], nodes[1::-1])
        assert alone.tolist() == [bool(packed & neighborhoods[0] & neighborhoods[1])] * 2


def _record_doors(monkeypatch):
    """Spy on both staging doors and keep every delivered phase.

    Returns ``(staged, delivered)``: ``(door, kind)`` per staged batch
    (door ``"columns"`` or ``"sizes"``) and, per exchanged phase, the
    kernel's :class:`~repro.congest.runtime.DeliveredPhase` with the
    schemas staged for it.
    """
    staged = []
    pending = set()
    delivered = []
    stage_columns = CongestSimulator.stage_columns
    stage_sizes = CongestSimulator.stage_sizes
    exchange_phase = CongestSimulator.exchange_phase

    def columns_spy(self, schema, src, dst, data, lengths=None, bits=None):
        staged.append(("columns", schema.kind))
        pending.add(schema)
        return stage_columns(self, schema, src, dst, data, lengths=lengths, bits=bits)

    def sizes_spy(self, schema, src, dst, lengths=None, bits=None):
        staged.append(("sizes", schema.kind))
        pending.add(schema)
        return stage_sizes(self, schema, src, dst, lengths=lengths, bits=bits)

    def exchange_spy(self, name="phase", extra_rounds=0):
        phase = exchange_phase(self, name, extra_rounds)
        delivered.append((phase, set(pending)))
        pending.clear()
        return phase

    monkeypatch.setattr(CongestSimulator, "stage_columns", columns_spy)
    monkeypatch.setattr(CongestSimulator, "stage_sizes", sizes_spy)
    monkeypatch.setattr(CongestSimulator, "exchange_phase", exchange_spy)
    return staged, delivered


def _assert_no_payload_readable(delivered):
    """Every delivered phase refuses to hand out the elements of its kinds."""
    for phase, schemas in delivered:
        for schema in schemas:
            with pytest.raises(SimulationError, match="sizes only"):
                phase.channel(schema)


@pytest.mark.parametrize("epsilon", [0.2, 0.6])
def test_batched_a3_builds_no_s_payload(monkeypatch, epsilon):
    # Every phase, S and V sets included, is staged by its sizes alone, so
    # no delivered channel can be read.
    staged, delivered = _record_doors(monkeypatch)
    result = LightTrianglesLister(
        epsilon=epsilon, landmark_probability=0.05, goodness_threshold=12.0
    ).run(gnp_random_graph(150, 0.12, seed=19), seed=1)
    assert result.output.union_keys().shape[0]
    kinds = {
        A3_IN_X_SCHEMA.kind,
        A3_NX_SCHEMA.kind,
        A3_S_SCHEMA.kind,
        A3_V_SCHEMA.kind,
        A3_IN_U_SCHEMA.kind,
    }
    assert {door for door, _ in staged} == {"sizes"}
    assert {kind for _, kind in staged} == kinds
    _assert_no_payload_readable(delivered)


def test_batched_a1_builds_no_sample_payload(monkeypatch):
    # The sample broadcast is staged by its sizes alone; the revealed
    # triangles come from the graph, so no sample element is ever built.
    staged, delivered = _record_doors(monkeypatch)
    result = HeavySamplingFinder(epsilon=0.3).run(
        gnp_random_graph(150, 0.12, seed=19), seed=1
    )
    assert result.output.union_keys().shape[0]
    assert staged == [("sizes", A1_SAMPLE_SCHEMA.kind)]
    assert len(delivered) == 1
    assert delivered[0][0].report.messages
    _assert_no_payload_readable(delivered)


def _a1_samples(graph, epsilon, cap_constant, seed):
    """Every node's A1 sample, drawn as both kernels draw it, and the senders."""
    num_nodes = graph.num_nodes
    probability = a1_sampling_probability(num_nodes, epsilon)
    cap = cap_constant / 4.0 * a1_sample_cap(num_nodes, epsilon)
    rngs = CongestSimulator(graph, seed=seed).node_rngs
    csr = graph.csr()
    samples = {}
    for node in range(num_nodes):
        row = csr.neighbor_slice(node)
        if row.shape[0]:
            samples[node] = set(row[rngs[node].random(row.shape[0]) < probability].tolist())
    senders = {node for node, sample in samples.items() if 0 < len(sample) <= cap}
    return samples, senders


def _with_isolated_nodes(graph, extra):
    """``graph`` plus ``extra`` isolated nodes interleaved among its own."""
    relabel = np.arange(graph.num_nodes) * 2
    csr = graph.csr()
    return Graph.from_edge_arrays(
        graph.num_nodes + extra, relabel[csr.edge_u], relabel[csr.edge_v]
    )


#: A1's regimes: ``(graph, ε, sample_cap_constant)``.  No sender (the cap
#: is below one id), every node a sender (ε = 0 samples whole rows under
#: a cap of 4n), a cap that withholds some non-empty samples, isolated
#: nodes (they draw nothing), and a pair sampled from both ends, whose
#: triangles are emitted twice.
A1_REGIMES = {
    "no-sender": (lambda: gnp_random_graph(60, 0.3, seed=3), 0.3, 1e-9),
    "every-node-a-sender": (lambda: gnp_random_graph(60, 0.3, seed=3), 0.0, 4.0),
    "cap-withheld": (lambda: gnp_random_graph(60, 0.3, seed=3), 0.1, 0.3),
    "isolated-nodes": (
        lambda: _with_isolated_nodes(gnp_random_graph(40, 0.3, seed=3), 40),
        0.2,
        4.0,
    ),
    "sampled-from-both-ends": (lambda: gnp_random_graph(60, 0.5, seed=3), 0.3, 4.0),
}


@pytest.mark.parametrize("regime", sorted(A1_REGIMES))
def test_a1_regimes_match_reference(regime):
    make_graph, epsilon, cap_constant = A1_REGIMES[regime]
    graph = make_graph()
    num_nodes = graph.num_nodes
    samples, senders = _a1_samples(graph, epsilon, cap_constant, seed=4)
    csr = graph.csr()
    both_ends = [
        (j, l)
        for j in senders
        for l in samples[j]
        if l in senders and j in samples[l]
        and np.intersect1d(csr.neighbor_slice(j), csr.neighbor_slice(l)).shape[0]
    ]
    assert {
        "no-sender": not senders,
        "every-node-a-sender": senders == set(range(num_nodes)),
        "cap-withheld": bool(senders)
        and any(sample and node not in senders for node, sample in samples.items()),
        "isolated-nodes": bool(senders) and len(samples) < num_nodes,
        "sampled-from-both-ends": bool(both_ends),
    }[regime]
    runs = {}
    # A tiny chunk bound makes the edge closures cross many block
    # boundaries.
    with use_chunk_bytes(64):
        for kernel in ("reference", "batched"):
            result = HeavySamplingFinder(epsilon, cap_constant, kernel=kernel).run(
                graph, seed=4
            )
            runs[kernel] = (
                result.metrics,
                [result.output.node_output(node) for node in range(num_nodes)],
            )
    assert runs["batched"] == runs["reference"]
    assert runs["batched"][0].phases[0].messages == sum(
        csr.degree(node) for node in senders
    )
    assert any(runs["batched"][1]) == (regime != "no-sender")


#: Forced V-set regimes: ``(graph, landmark probability, r)``.  V sets
#: ship over several iterations, in one iteration, before the loop stalls
#: with no r-good node left, and on a denser graph.
V_SET_REGIMES = {
    "several-iterations": (lambda: gnp_random_graph(120, 0.15, seed=23), 0.02, 12.0),
    "one-iteration": (lambda: gnp_random_graph(120, 0.15, seed=23), 0.05, 20.0),
    "stalls-after-v": (lambda: gnp_random_graph(150, 0.12, seed=23), 0.05, 6.0),
    "denser": (lambda: gnp_random_graph(120, 0.3, seed=23), 0.1, 12.0),
}


@pytest.mark.parametrize("regime", sorted(V_SET_REGIMES))
def test_a3_v_sets_match_reference(monkeypatch, regime):
    # The perfbench graphs ship no V set, so a small goodness threshold
    # forces them: many S sets are withheld, and nodes with at most r
    # withheld pairs turn good while still holding them and ship V(j).
    # The triangles the batched kernel credits right after the V phase
    # are those the V sets reveal.
    make_graph, landmark_probability, threshold = V_SET_REGIMES[regime]
    graph = make_graph()
    emitted = {}
    phases = []
    exchange_phase = CongestSimulator.exchange_phase
    emit_grouped = OutputTable.emit_grouped

    def exchange_spy(self, name="phase", extra_rounds=0):
        phases.append(name)
        return exchange_phase(self, name, extra_rounds)

    def emit_spy(self, receivers, keys):
        emitted[phases[-1]] = emitted.get(phases[-1], 0) + keys.shape[0]
        return emit_grouped(self, receivers, keys)

    runs = {}
    with use_chunk_bytes(64):
        for kernel in ("reference", "batched"):
            if kernel == "batched":
                monkeypatch.setattr(CongestSimulator, "exchange_phase", exchange_spy)
                monkeypatch.setattr(OutputTable, "emit_grouped", emit_spy)
            result = LightTrianglesLister(
                epsilon=0.3,
                landmark_probability=landmark_probability,
                goodness_threshold=threshold,
                enforce_budget=False,
                kernel=kernel,
            ).run(graph, seed=6)
            runs[kernel] = (
                result.truncated,
                result.metrics,
                [result.output.node_output(node) for node in range(graph.num_nodes)],
            )
    assert runs["batched"] == runs["reference"]
    assert any(
        phase.messages
        for phase in runs["batched"][1].phases
        if phase.name == "A(X,r):4.3-send-V"
    )
    assert emitted.get("A(X,r):4.3-send-V", 0)


#: Sparse regimes for A3's first-iteration forward listing:
#: ``(graph, landmark probability, r)``.  Landmarks dense enough that some
#: triangles have both ∆(X)-disjoint edges and edges that share a
#: landmark; and a small r, so that some S sets are withheld in the first
#: iteration and a second iteration runs on the residual active set.
FORWARD_REGIMES = {
    "gnp-shared-landmarks": (lambda: gnp_random_graph(120, 0.1, seed=31), 0.08, None),
    "gnp-withheld-pairs": (lambda: gnp_random_graph(120, 0.1, seed=31), 0.04, 8.0),
    "ba-shared-landmarks": (lambda: barabasi_albert_graph(120, 4, seed=32), 0.08, None),
    "ba-withheld-pairs": (lambda: barabasi_albert_graph(120, 4, seed=32), 0.04, 8.0),
}


def _a3_listing_run(monkeypatch, graph, probability, threshold, kernel, closure=False):
    """One A3 run; for the batched kernel also the (receiver, key) credits
    it emitted, sorted, and the S listing each iteration took."""
    emitted, listings = [], []
    forward = a3_light._emit_forward_revealed
    closed = a3_light._emit_closed_revealed
    emit_grouped = OutputTable.emit_grouped

    def forward_spy(output, csr, words, withheld):
        listings.append(("forward", words, withheld))
        return forward(output, csr, words, withheld)

    def closed_spy(output, csr, pair_j, pair_k, active_indptr, words, withheld):
        listings.append(("closure", words, withheld))
        return closed(output, csr, pair_j, pair_k, active_indptr, words, withheld)

    def emit_spy(self, receivers, keys):
        emitted.extend(zip(receivers.tolist(), keys.tolist()))
        return emit_grouped(self, receivers, keys)

    with monkeypatch.context() as patch:
        if kernel == "batched":
            patch.setattr(a3_light, "_emit_forward_revealed", forward_spy)
            patch.setattr(a3_light, "_emit_closed_revealed", closed_spy)
            patch.setattr(OutputTable, "emit_grouped", emit_spy)
            if closure:
                patch.setattr(a3_light, "_emit_s_revealed", closed_spy)
        result = LightTrianglesLister(
            epsilon=0.3,
            landmark_probability=probability,
            goodness_threshold=threshold,
            enforce_budget=False,
            kernel=kernel,
        ).run(graph, seed=4)
    outputs = [result.output.node_output(node) for node in range(graph.num_nodes)]
    return result, outputs, sorted(emitted), listings


@pytest.mark.parametrize("strategy", ["bitset", "sorted-key"])
@pytest.mark.parametrize("regime", sorted(FORWARD_REGIMES))
def test_a3_forward_listing_matches_closure_and_reference(monkeypatch, regime, strategy):
    # Off the dense strategy, the first iteration of A(X, r) credits the
    # triangles of one forward oracle walk; the closure of every
    # ∆(X)-disjoint edge and the reference closures must give the same
    # per-node sets and metrics, and the closure the same credit multiset.
    make_graph, probability, threshold = FORWARD_REGIMES[regime]
    graph = make_graph()
    with forced_strategy(strategy), use_chunk_bytes(64):
        assert membership_strategy(graph.csr()) == strategy
        forward, forward_sets, forward_credits, listings = _a3_listing_run(
            monkeypatch, graph, probability, threshold, "batched"
        )
        closure, closure_sets, closure_credits, closure_listings = _a3_listing_run(
            monkeypatch, graph, probability, threshold, "batched", closure=True
        )
        reference, reference_sets, _, _ = _a3_listing_run(
            monkeypatch, graph, probability, threshold, "reference"
        )
    assert forward_sets == closure_sets == reference_sets
    assert forward.metrics == closure.metrics == reference.metrics
    assert forward.truncated == closure.truncated == reference.truncated
    assert forward_credits == closure_credits
    assert {kind for kind, _, _ in closure_listings} == {"closure"}
    assert listings[0][0] == "forward"
    assert all(kind == "closure" for kind, _, _ in listings[1:])
    # The regime is the one named: triangles with both disjoint and
    # landmark-sharing edges, or withheld pairs and a second iteration.
    _, words, withheld = listings[0]
    a, b, c = graph.csr().triangles().T
    shared = np.stack(
        [shares_landmark(words, p, q) for p, q in ((a, b), (a, c), (b, c))]
    )
    assert (shared.any(axis=0) & ~shared.all(axis=0)).any()
    if threshold is not None:
        assert withheld.shape[0] and len(listings) > 1
    else:
        assert not withheld.shape[0]


def test_batched_naive_builds_no_generator(monkeypatch):
    # Naive's batched kernel draws nothing, so its simulator's generators
    # are never built; the root generator's child-seed draw still happens
    # when the simulator is built, so a later pass on a shared root
    # generator draws the same streams either way.
    built = []
    generators_from_states = seeding.generators_from_states

    def spy(states):
        built.append(states.shape[0])
        return generators_from_states(states)

    monkeypatch.setattr(seeding, "generators_from_states", spy)
    graph = gnp_random_graph(40, 0.2, seed=3)
    NaiveTwoHopListing(kernel="batched").run(graph, seed=1)
    assert built == []
    unread, read = np.random.default_rng(9), np.random.default_rng(9)
    CongestSimulator(graph, seed=unread)
    [rng.random() for rng in CongestSimulator(graph, seed=read).node_rngs]
    assert built == [graph.num_nodes]
    after_unread = CongestSimulator(graph, seed=unread).node_rngs
    after_read = CongestSimulator(graph, seed=read).node_rngs
    assert [rng.random() for rng in after_unread] == [rng.random() for rng in after_read]


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

    Returns the staged step-2 batches as ``(door, src, dst, lengths)``
    (door ``"sizes"`` or ``"columns"``), the per-node key sets, the output's
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
    stage_sizes = CongestSimulator.stage_sizes

    def columns_spy(self, schema, src, dst, data, lengths=None, bits=None):
        if schema is A2_EDGE_SCHEMA:
            staged.append(("columns", src, dst, lengths))
        return stage_columns(self, schema, src, dst, data, lengths=lengths, bits=bits)

    def sizes_spy(self, schema, src, dst, lengths=None, bits=None):
        if schema is A2_EDGE_SCHEMA:
            staged.append(("sizes", src, dst, lengths))
        return stage_sizes(self, schema, src, dst, lengths=lengths, bits=bits)

    monkeypatch.setattr(CongestSimulator, "stage_columns", columns_spy)
    monkeypatch.setattr(CongestSimulator, "stage_sizes", sizes_spy)
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
    # The dense steps 2 and 3 (popcount sizes staged with no endpoints,
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
    for dense_batch, demand_batch in zip(dense_staged, demand_staged):
        assert (dense_batch[0], demand_batch[0]) == ("sizes", "columns")
        for dense_column, demand_column in zip(dense_batch[1:], demand_batch[1:]):
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
