"""CSR substrate: invariants and differential tests against the reference.

The vectorized oracle (:mod:`repro.graphs.csr`) must be *observationally
identical* to the pure-Python set-intersection reference
(:func:`repro.graphs.triangles.iter_triangles_reference` and friends) on
every workload family the generators produce.  These tests enumerate that
equivalence — triangles, counts, per-edge supports, the heavy/light
partition, and ``∆(X)`` membership — on random G(n, p) (dense and sparse),
Barabási–Albert, random-regular and lollipop graphs, on all three
membership strategies (dense matrix, packed bitset and sorted keys).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.csr as csr_module
from repro.congest.backends import use_chunk_bytes
from repro.graphs import (
    CSRGraph,
    Graph,
    barabasi_albert_graph,
    count_triangles,
    delta_set_membership,
    edge_support,
    gnp_random_graph,
    heaviness_threshold,
    heavy_triangles,
    is_triangle_free,
    iter_triangles_reference,
    light_triangles,
    list_triangles,
    local_triangle_count,
    lollipop_graph,
    random_regular_graph,
    triangle_free_bipartite,
    triangles_through_node,
    union_of_cliques,
)

from csr_strategies import STRATEGIES, forced_strategy, membership_strategy


def workload_graphs():
    """The differential-test corpus: one graph per workload family."""
    return [
        ("gnp-dense", gnp_random_graph(40, 0.5, seed=11)),
        ("gnp-sparse", gnp_random_graph(80, 0.05, seed=12)),
        ("barabasi-albert", barabasi_albert_graph(60, 3, seed=13)),
        ("random-regular", random_regular_graph(40, 4, seed=14)),
        ("lollipop", lollipop_graph(10, 12)),
        ("union-of-cliques", union_of_cliques([5, 4, 3, 2])),
        ("bipartite", triangle_free_bipartite(30, 0.4, seed=15)),
        ("empty", Graph(7)),
    ]


WORKLOADS = workload_graphs()
WORKLOAD_IDS = [name for name, _ in WORKLOADS]


@pytest.fixture(params=STRATEGIES, ids=["dense-path", "bitset-path", "merge-path"])
def strategy_toggle(request):
    """Run each differential test on all three membership strategies (the
    sorted-key path keeps its old test id, ``merge-path``)."""
    with forced_strategy(request.param):
        yield request.param


def fresh_view(graph: Graph) -> CSRGraph:
    """A snapshot built under the current strategy toggle (bypass the cache,
    which may hold a view built under another strategy)."""
    return CSRGraph.from_graph(graph)


class TestDifferentialOracle:
    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_toggle_selects_its_strategy(self, name, graph, strategy_toggle):
        if graph.num_edges:
            assert membership_strategy(fresh_view(graph)) == strategy_toggle

    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_triangles_match_reference(self, name, graph, strategy_toggle):
        expected = list(iter_triangles_reference(graph))
        view = fresh_view(graph)
        assert [tuple(row) for row in view.triangles().tolist()] == expected
        assert view.count_triangles() == len(expected)
        assert view.has_triangle() == bool(expected)

    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_edge_support_matches_reference(self, name, graph, strategy_toggle):
        view = fresh_view(graph)
        supports = view.edge_support()
        assert supports.shape[0] == graph.num_edges
        for u, v, support in zip(
            view.edge_u.tolist(), view.edge_v.tolist(), supports.tolist()
        ):
            assert support == len(graph.neighbors(u) & graph.neighbors(v))

    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_heavy_light_split_matches_reference(self, name, graph, strategy_toggle):
        epsilon = 0.3
        threshold = heaviness_threshold(graph.num_nodes, epsilon)
        reference_heavy = []
        reference_light = []
        for a, b, c in iter_triangles_reference(graph):
            supports = [
                len(graph.neighbors(u) & graph.neighbors(v))
                for u, v in ((a, b), (a, c), (b, c))
            ]
            if max(supports) >= threshold:
                reference_heavy.append((a, b, c))
            else:
                reference_light.append((a, b, c))
        view = fresh_view(graph)
        triangles, mask = view.heavy_triangle_mask(threshold)
        got_heavy = [tuple(row) for row in triangles[mask].tolist()]
        got_light = [tuple(row) for row in triangles[~mask].tolist()]
        assert got_heavy == reference_heavy
        assert got_light == reference_light

    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_delta_membership_matches_reference(self, name, graph, strategy_toggle):
        rng = np.random.default_rng(99)
        landmarks = [
            int(x)
            for x in rng.choice(
                max(graph.num_nodes, 1),
                size=min(5, graph.num_nodes),
                replace=False,
            )
        ] if graph.num_nodes else []
        landmark_set = set(landmarks)
        reference = {
            (u, v)
            for u, v in graph.edges()
            if not (graph.common_neighbors(u, v) & landmark_set)
        }
        view = fresh_view(graph)
        mask = view.delta_edge_mask(landmarks)
        got = {
            (u, v)
            for u, v in zip(view.edge_u[mask].tolist(), view.edge_v[mask].tolist())
        }
        assert got == reference
        # Out-of-range landmark ids are ignored (they can never be a common
        # neighbour), matching pair_in_delta's behaviour.
        lenient = view.delta_edge_mask(list(landmarks) + [graph.num_nodes + 5, -3])
        assert lenient.tolist() == mask.tolist()

    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_local_counts_and_through_node(self, name, graph, strategy_toggle):
        reference = {node: 0 for node in graph.nodes()}
        for a, b, c in iter_triangles_reference(graph):
            reference[a] += 1
            reference[b] += 1
            reference[c] += 1
        view = fresh_view(graph)
        assert dict(enumerate(view.local_triangle_counts().tolist())) == reference
        probe = max(graph.nodes(), key=graph.degree, default=None)
        if probe is not None:
            through = [tuple(row) for row in view.triangles_through(probe).tolist()]
            expected = sorted(
                t for t in iter_triangles_reference(graph) if probe in t
            )
            assert through == expected


@st.composite
def hub_graphs(draw):
    """Stars and lollipops around a hub with a mid-range id, plus random
    chords.  A mid-range hub has many neighbours on both sides, so forward
    enumeration pairs each lower edge into it with every higher neighbour:
    the wedge-heavy worst case of the forward order."""
    num_nodes = draw(st.integers(3, 48))
    hub = draw(st.integers(num_nodes // 4, (3 * num_nodes) // 4))
    others = [node for node in range(num_nodes) if node != hub]
    edges = set()
    if draw(st.booleans()):
        edges.update((hub, node) for node in others)
    else:
        order = draw(st.permutations(others))
        head = draw(st.integers(1, len(order)))
        clique = [hub] + list(order[:head])
        edges.update(
            (a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]
        )
        path = [hub] + list(order[head:])
        edges.update(zip(path, path[1:]))
    pairs = st.tuples(
        st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
    )
    edges.update(
        (a, b) for a, b in draw(st.lists(pairs, max_size=num_nodes)) if a != b
    )
    return Graph(num_nodes, edges), hub


class TestWedgeClosure:
    @settings(max_examples=60, deadline=None)
    @given(
        case=hub_graphs(),
        strategy=st.sampled_from(STRATEGIES),
        chunk_bytes=st.sampled_from([1, 8, 40, 1024]),
    )
    def test_windows_match_reference(self, case, strategy, chunk_bytes):
        graph, hub = case
        expected = list(iter_triangles_reference(graph))
        # Windows as small as one wedge: drop the floor on rows per chunk.
        with forced_strategy(strategy), mock.patch.object(
            csr_module, "_MIN_EDGE_CHUNK", 1
        ), use_chunk_bytes(chunk_bytes):
            view = fresh_view(graph)
            assert membership_strategy(view) == strategy
            chunks = list(view.iter_triangle_chunks())
            listed = np.concatenate(chunks).tolist() if chunks else []
            assert [tuple(row) for row in listed] == expected
            assert view.edge_support().tolist() == [
                len(graph.neighbors(u) & graph.neighbors(v))
                for u, v in zip(view.edge_u.tolist(), view.edge_v.tolist())
            ]
            assert fresh_view(graph).has_triangle() == bool(expected)
            assert [tuple(row) for row in view.triangles_through(hub).tolist()] == [
                t for t in expected if hub in t
            ]


class TestTriangleEnumerationCaching:
    def test_triangles_cached_per_snapshot(self, strategy_toggle):
        view = fresh_view(gnp_random_graph(30, 0.4, seed=21))
        first = view.triangles()
        assert view.triangles() is first
        with pytest.raises(ValueError):
            first[0, 0] = -1

    def test_chunks_match_full_array(self, strategy_toggle):
        view = fresh_view(barabasi_albert_graph(40, 3, seed=22))
        chunks = list(view.iter_triangle_chunks())
        stacked = (
            np.concatenate(chunks, axis=0)
            if chunks
            else np.empty((0, 3), dtype=np.int64)
        )
        assert stacked.tolist() == view.triangles().tolist()

    def test_triangle_chunk_stream_is_lazy(self):
        graph = gnp_random_graph(60, 0.5, seed=23)
        first = tuple(next(graph.csr().iter_triangle_chunks())[0].tolist())
        # Early exit must not have materialised the full triangle cache.
        assert graph.csr()._triangles is None
        assert first == next(iter(iter_triangles_reference(graph)))

    def test_heavy_and_light_share_one_enumeration(self):
        graph = union_of_cliques([6, 3, 3])
        heavy = heavy_triangles(graph, 0.5)
        light = light_triangles(graph, 0.5)
        assert graph.csr()._triangles is not None
        assert sorted(heavy + light) == list_triangles(graph)


class TestPublicOracleAPI:
    """The triangles-module functions ride on the graph's cached CSR view."""

    def test_api_functions_agree_with_reference(self):
        graph = barabasi_albert_graph(50, 4, seed=3)
        expected = list(iter_triangles_reference(graph))
        assert list_triangles(graph) == expected
        assert count_triangles(graph) == len(expected)
        assert not is_triangle_free(graph)
        supports = edge_support(graph)
        assert supports[next(iter(supports))] == len(
            graph.neighbors(next(iter(supports))[0])
            & graph.neighbors(next(iter(supports))[1])
        )
        assert set(heavy_triangles(graph, 0.2)) | set(light_triangles(graph, 0.2)) == set(
            expected
        )
        counts = local_triangle_count(graph)
        assert sum(counts.values()) == 3 * len(expected)
        probe = max(graph.nodes(), key=graph.degree)
        assert triangles_through_node(graph, probe) == sorted(
            t for t in expected if probe in t
        )
        assert delta_set_membership(graph, []) == set(graph.edges())

    def test_returns_python_ints(self):
        graph = gnp_random_graph(20, 0.4, seed=5)
        for triangle in list_triangles(graph):
            assert all(type(x) is int for x in triangle)
        for (u, v), support in edge_support(graph).items():
            assert type(u) is int and type(v) is int and type(support) is int


class TestCSRInvariants:
    def test_lazily_built_and_cached(self):
        graph = gnp_random_graph(25, 0.3, seed=1)
        view = graph.csr()
        assert graph.csr() is view

    def test_mutation_invalidates_view(self):
        graph = Graph(6, [(0, 1), (1, 2)])
        before = graph.csr()
        assert before.num_edges == 2
        graph.add_edge(2, 3)
        after = graph.csr()
        assert after is not before
        assert after.num_edges == 3
        # The old snapshot still describes the pre-mutation graph.
        assert before.num_edges == 2
        graph.remove_edge(0, 1)
        assert graph.csr().num_edges == 2

    def test_arrays_are_immutable(self):
        view = gnp_random_graph(15, 0.4, seed=2).csr()
        for array in (view.indptr, view.indices, view.edge_u, view.edge_v):
            with pytest.raises(ValueError):
                array[0] = 0
        with pytest.raises(ValueError):
            view.edge_support()[0] = 99

    def test_neighbor_rows_sorted_strictly_increasing(self):
        view = barabasi_albert_graph(40, 3, seed=8).csr()
        for node in range(view.num_nodes):
            row = view.neighbor_slice(node)
            assert (np.diff(row) > 0).all()

    def test_canonical_edge_order(self):
        view = gnp_random_graph(30, 0.3, seed=9).csr()
        assert (view.edge_u < view.edge_v).all()
        keys = view.edge_u * view.num_nodes + view.edge_v
        assert (np.diff(keys) > 0).all()

    def test_degrees_and_membership(self):
        graph = random_regular_graph(20, 4, seed=10)
        view = graph.csr()
        assert (view.degrees == 4).all()
        assert view.max_degree() == 4
        for u, v in list(graph.edges())[:10]:
            assert view.has_edge(u, v) and view.has_edge(v, u)
        assert not view.has_edge(0, 0)

    def test_copy_shares_snapshot_until_mutation(self):
        graph = gnp_random_graph(18, 0.4, seed=6)
        view = graph.csr()
        clone = graph.copy()
        assert clone.csr() is view
        clone.add_edge(*next(
            (u, v)
            for u in range(18)
            for v in range(u + 1, 18)
            if not graph.has_edge(u, v)
        ))
        assert clone.csr() is not view
        assert graph.csr() is view


class TestBulkBuilder:
    def test_from_edge_arrays_equals_incremental(self):
        edges = [(0, 3), (3, 1), (1, 0), (2, 4)]
        incremental = Graph(5, edges)
        u = np.array([e[0] for e in edges])
        v = np.array([e[1] for e in edges])
        assert Graph.from_edge_arrays(5, u, v) == incremental

    def test_deduplicates_and_canonicalises(self):
        graph = Graph.from_edge_arrays(4, [1, 0, 1], [0, 1, 2])
        assert graph.num_edges == 2
        assert graph.edge_list() == [(0, 1), (1, 2)]

    def test_rejects_self_loops_and_out_of_range(self):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            Graph.from_edge_arrays(4, [1], [1])
        with pytest.raises(GraphError):
            Graph.from_edge_arrays(4, [0], [4])
        with pytest.raises(GraphError):
            Graph.from_edge_arrays(4, [-1], [2])

    def test_prebuilds_csr_cache(self):
        graph = Graph.from_edge_arrays(6, [0, 2], [1, 3])
        assert graph._csr_cache is not None
        assert graph.csr().num_edges == 2


class TestBulkEdgeMembership:
    def test_has_edges_matches_scalar_oracle(self):
        graph = gnp_random_graph(50, 0.2, seed=1)
        csr = graph.csr()
        rng = np.random.default_rng(5)
        u = rng.integers(0, 50, size=400)
        v = rng.integers(0, 50, size=400)
        expected = np.array(
            [csr.has_edge(int(a), int(b)) for a, b in zip(u, v)]
        )
        assert np.array_equal(csr.has_edges(u, v), expected)

    def test_has_edges_sparse_path_matches_dense(self):
        # Force the sorted-key search branch by shrinking the dense budget.
        from repro.graphs import csr as csr_module

        graph = gnp_random_graph(60, 0.15, seed=2)
        dense_view = graph.csr()
        rng = np.random.default_rng(6)
        u = rng.integers(0, 60, size=300)
        v = rng.integers(0, 60, size=300)
        dense_answer = dense_view.has_edges(u, v)
        sparse_view = graph.copy().csr()
        original = csr_module.DENSE_ADJACENCY_MAX_BYTES
        csr_module.DENSE_ADJACENCY_MAX_BYTES = 0
        try:
            assert not sparse_view._use_dense()
            assert np.array_equal(sparse_view.has_edges(u, v), dense_answer)
        finally:
            csr_module.DENSE_ADJACENCY_MAX_BYTES = original

    def test_self_pairs_are_false(self):
        csr = gnp_random_graph(6, 1.0, seed=0).csr()
        nodes = np.arange(6)
        assert not csr.has_edges(nodes, nodes).any()

    def test_out_of_range_ids_raise(self, strategy_toggle):
        # Key 0 * 8 + 10 equals the key of edge (1, 2): without the range
        # check the sorted-key path would report (0, 10) as an edge.
        view = fresh_view(Graph(8, [(1, 2), (3, 4)]))
        assert membership_strategy(view) == strategy_toggle
        with pytest.raises(ValueError, match=r"node id 10 outside \[0, 8\)"):
            view.has_edges([0], [10])
        with pytest.raises(ValueError, match="node id -1 outside"):
            view.has_edges([1, 2], [2, -1])
        # The first offending pair is named, its u before its v.
        with pytest.raises(ValueError, match="node id 9 outside"):
            view.has_edges([0, 9, 3], [1, -5, 4])
        assert view.has_edges([1, 4, 0], [2, 3, 7]).tolist() == [True, True, False]

    def test_sparse_alias_from_the_bug_report(self):
        csr = Graph(100, [(1, 2), (3, 4)]).csr()
        assert membership_strategy(csr) == "sorted-key"
        assert not csr.has_edge(0, 102)
        with pytest.raises(ValueError, match="node id 102"):
            csr.has_edges([0], [102])


class TestTrianglesByGroup:
    def _reference(self, group, u, v, num_nodes):
        from repro.types import decode_triangle_keys

        expected = set()
        for g in np.unique(group).tolist():
            member = group == g
            uu = np.minimum(u[member], v[member])
            vv = np.maximum(u[member], v[member])
            keys = np.unique(uu * num_nodes + vv)
            eu, ev = keys // num_nodes, keys % num_nodes
            vertices = np.unique(np.concatenate((eu, ev)))
            local = CSRGraph.from_edge_arrays(
                int(vertices.shape[0]),
                np.searchsorted(vertices, eu),
                np.searchsorted(vertices, ev),
            )
            for row in local.triangles():
                expected.add(
                    (g, int(vertices[row[0]]), int(vertices[row[1]]), int(vertices[row[2]]))
                )
        return expected

    def _listed(self, group, u, v, num_nodes):
        from repro.graphs.csr import triangles_by_group
        from repro.types import decode_triangle_keys

        tri_group, tri_keys = triangles_by_group(group, u, v, num_nodes)
        assert np.all(tri_group[:-1] <= tri_group[1:])
        a, b, c = decode_triangle_keys(tri_keys, num_nodes)
        return set(zip(tri_group.tolist(), a.tolist(), b.tolist(), c.tolist()))

    def _random_instance(self, rng, num_nodes):
        groups = []
        us = []
        vs = []
        for g in sorted(rng.integers(0, 5, size=int(rng.integers(1, 5))).tolist()):
            k = int(rng.integers(1, 80))
            a = rng.integers(0, num_nodes, size=k)
            b = rng.integers(0, num_nodes, size=k)
            keep = a != b
            groups.extend([g] * int(keep.sum()))
            us.append(a[keep])
            vs.append(b[keep])
        return (
            np.asarray(groups, dtype=np.int64),
            np.concatenate(us) if us else np.empty(0, dtype=np.int64),
            np.concatenate(vs) if vs else np.empty(0, dtype=np.int64),
        )

    def test_differential_against_per_group_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            num_nodes = int(rng.integers(5, 40))
            group, u, v = self._random_instance(rng, num_nodes)
            assert self._listed(group, u, v, num_nodes) == self._reference(
                group, u, v, num_nodes
            )

    def test_compact_fallback_matches_dense_scratch(self):
        from repro.graphs import csr as csr_module

        rng = np.random.default_rng(13)
        num_nodes = 60
        group, u, v = self._random_instance(rng, num_nodes)
        dense = self._listed(group, u, v, num_nodes)
        original = csr_module.GROUPED_DENSE_MAX_NODES
        csr_module.GROUPED_DENSE_MAX_NODES = 0
        try:
            compact = self._listed(group, u, v, num_nodes)
        finally:
            csr_module.GROUPED_DENSE_MAX_NODES = original
        assert compact == dense

    def test_rejects_self_loops(self):
        from repro.graphs.csr import triangles_by_group

        with pytest.raises(ValueError):
            triangles_by_group(
                np.array([0]), np.array([2]), np.array([2]), num_nodes=4
            )

    def test_empty_input(self):
        from repro.graphs.csr import triangles_by_group

        empty = np.empty(0, dtype=np.int64)
        tri_group, tri_keys = triangles_by_group(empty, empty, empty, 5)
        assert tri_group.shape[0] == 0
        assert tri_keys.shape[0] == 0


class TestDenseCrossover:
    """The dense-oracle strategy must weigh fill, not just the byte cap.

    A 10k-node sparse graph's bool matrix (100 MB) squeezes under
    ``DENSE_ADJACENCY_MAX_BYTES``, but building O(n²) state for a graph
    with ~1 edge per thousand slots is strictly worse than the sorted-merge
    membership path — the regression that motivated the density floor."""

    def _sparse_10k(self):
        # A 10 000-node path plus one chord: 10 000 edges, one triangle.
        edges = [(i, i + 1) for i in range(9_999)] + [(0, 2)]
        return Graph(10_000, edges).csr()

    def test_sparse_10k_stays_on_merge_path(self):
        csr = self._sparse_10k()
        assert csr.num_nodes * csr.num_nodes <= csr_module.DENSE_ADJACENCY_MAX_BYTES
        assert csr._use_dense() is False
        hits = csr.has_edges(
            np.array([0, 0, 5, 9_998], dtype=np.int64),
            np.array([2, 3, 500, 9_999], dtype=np.int64),
        )
        assert hits.tolist() == [True, False, False, True]
        # No dense state was materialised along the way.
        assert csr._dense_bool is None
        assert csr._dense_packed is None
        assert csr.edge_support().sum() == 3  # the single triangle's edges
        assert csr._dense_bool is None

    def test_dense_fill_floor_scales_with_size(self):
        # Same byte budget, adequate fill: a small dense graph still takes
        # the dense path.
        dense = gnp_random_graph(64, 0.5, seed=1).csr()
        assert dense._use_dense() is True
        # An equally small but near-empty graph does not.
        sparse = Graph(64, [(0, 1), (2, 3)]).csr()
        assert sparse._use_dense() is False

    @pytest.mark.parametrize("name,graph", WORKLOADS, ids=WORKLOAD_IDS)
    def test_corpus_graphs_pick_dense_unforced(self, name, graph):
        if graph.num_edges:
            assert membership_strategy(fresh_view(graph)) == "dense"

    @pytest.mark.parametrize(
        "num_edges,expected",
        [(64, "dense"), (63, "bitset"), (8, "bitset"), (7, "sorted-key")],
    )
    def test_fill_floor_boundaries_unforced(self, num_edges, expected):
        # 64 nodes: 4096 cells.  The dense floor is 4096 / 64 = 64 edges,
        # the bitset floor 4096 / (8 * 64) = 8 edges.
        edges = [(i, j) for i in range(64) for j in range(i + 1, 64)][:num_edges]
        assert membership_strategy(Graph(64, edges).csr()) == expected
