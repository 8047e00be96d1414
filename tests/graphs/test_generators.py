"""Unit tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graphs import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    count_triangles,
    cycle_graph,
    edge_support,
    empty_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    is_triangle_free,
    lollipop_graph,
    planted_triangle_graph,
    random_regular_graph,
    triangle_free_bipartite,
    union_of_cliques,
)


class TestBasicGenerators:
    def test_empty_graph(self):
        graph = empty_graph(6)
        assert graph.num_nodes == 6
        assert graph.num_edges == 0

    def test_complete_graph_edge_count(self):
        graph = complete_graph(6)
        assert graph.num_edges == 15
        assert graph.max_degree() == 5

    def test_complete_graph_triangle_count(self):
        assert count_triangles(complete_graph(6)) == 20

    def test_cycle_graph_is_triangle_free_for_large_n(self):
        assert is_triangle_free(cycle_graph(8))

    def test_cycle_of_three_is_a_triangle(self):
        assert count_triangles(cycle_graph(3)) == 1

    def test_cycle_tiny_cases(self):
        assert cycle_graph(1).num_edges == 0
        assert cycle_graph(2).num_edges == 1


class TestGnp:
    def test_probability_zero_gives_empty(self):
        assert gnp_random_graph(10, 0.0, seed=1).num_edges == 0

    def test_probability_one_gives_complete(self):
        graph = gnp_random_graph(8, 1.0, seed=1)
        assert graph.num_edges == 28

    def test_invalid_probability_rejected(self):
        with pytest.raises(GraphError):
            gnp_random_graph(5, 1.5)
        with pytest.raises(GraphError):
            gnp_random_graph(5, -0.1)

    def test_seed_reproducibility(self):
        a = gnp_random_graph(20, 0.3, seed=9)
        b = gnp_random_graph(20, 0.3, seed=9)
        assert a == b

    def test_different_seeds_differ(self):
        a = gnp_random_graph(30, 0.3, seed=1)
        b = gnp_random_graph(30, 0.3, seed=2)
        assert a != b

    def test_accepts_generator_instance(self):
        rng = np.random.default_rng(4)
        graph = gnp_random_graph(10, 0.5, seed=rng)
        assert graph.num_nodes == 10

    def test_edge_count_near_expectation(self):
        graph = gnp_random_graph(60, 0.5, seed=3)
        expected = 0.5 * 60 * 59 / 2
        assert abs(graph.num_edges - expected) < 0.2 * expected

    def test_single_node(self):
        assert gnp_random_graph(1, 0.7, seed=0).num_edges == 0


class TestTriangleFreeBipartite:
    def test_is_triangle_free(self):
        graph = triangle_free_bipartite(16, 0.6, seed=2)
        assert is_triangle_free(graph)

    def test_edges_cross_partition_only(self):
        graph = triangle_free_bipartite(10, 1.0, seed=2)
        split = 5
        for u, v in graph.edges():
            assert (u < split) != (v < split)

    def test_invalid_probability(self):
        with pytest.raises(GraphError):
            triangle_free_bipartite(10, 2.0)


class TestPlantedTriangles:
    def test_planted_triangles_present(self):
        graph, planted = planted_triangle_graph(24, 3, seed=1)
        triangles = set()
        from repro.graphs import list_triangles

        triangles = set(list_triangles(graph))
        for t in planted:
            assert t in triangles

    def test_no_background_means_only_planted(self):
        graph, planted = planted_triangle_graph(24, 3, background_probability=0.0, seed=1)
        assert count_triangles(graph) == len(planted) == 3

    def test_zero_planted(self):
        graph, planted = planted_triangle_graph(12, 0, seed=1)
        assert planted == []
        assert is_triangle_free(graph)

    def test_too_many_planted_rejected(self):
        with pytest.raises(GraphError):
            planted_triangle_graph(8, 3)

    def test_negative_planted_rejected(self):
        with pytest.raises(GraphError):
            planted_triangle_graph(8, -1)

    def test_planted_are_disjoint(self):
        _, planted = planted_triangle_graph(30, 5, seed=8)
        used = [v for t in planted for v in t]
        assert len(used) == len(set(used))


class TestHeavyEdgeGadget:
    def test_designated_edge_support(self):
        graph, heavy_edge = heavy_edge_gadget(20, 10, seed=0)
        assert heavy_edge == (0, 1)
        assert edge_support(graph, heavy_edge) == 10

    def test_triangle_count_without_background(self):
        graph, _ = heavy_edge_gadget(20, 10, seed=0)
        assert count_triangles(graph) == 10

    def test_background_adds_edges(self):
        sparse, _ = heavy_edge_gadget(20, 5, background_probability=0.0, seed=1)
        dense, _ = heavy_edge_gadget(20, 5, background_probability=0.5, seed=1)
        assert dense.num_edges > sparse.num_edges

    def test_invalid_support_rejected(self):
        with pytest.raises(GraphError):
            heavy_edge_gadget(10, 9)
        with pytest.raises(GraphError):
            heavy_edge_gadget(10, -1)
        with pytest.raises(GraphError):
            heavy_edge_gadget(1, 0)


class TestBarabasiAlbert:
    def test_sizes(self):
        graph = barabasi_albert_graph(30, 3, seed=5)
        assert graph.num_nodes == 30
        # seed clique C(4,2)=6 edges plus 3 per additional vertex.
        assert graph.num_edges == 6 + 3 * 26

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            barabasi_albert_graph(5, 0)
        with pytest.raises(GraphError):
            barabasi_albert_graph(3, 3)

    def test_reproducible(self):
        a = barabasi_albert_graph(25, 2, seed=3)
        b = barabasi_albert_graph(25, 2, seed=3)
        assert a == b

    def test_contains_triangles(self):
        graph = barabasi_albert_graph(30, 3, seed=5)
        assert count_triangles(graph) > 0


class TestRandomRegular:
    def test_regularity(self):
        graph = random_regular_graph(12, 4, seed=1)
        assert all(graph.degree(v) == 4 for v in graph.nodes())

    def test_zero_degree(self):
        graph = random_regular_graph(5, 0, seed=1)
        assert graph.num_edges == 0

    def test_odd_product_rejected(self):
        with pytest.raises(GraphError):
            random_regular_graph(5, 3)

    def test_degree_too_large_rejected(self):
        with pytest.raises(GraphError):
            random_regular_graph(4, 4)

    def test_reproducible(self):
        a = random_regular_graph(14, 3, seed=2)
        b = random_regular_graph(14, 3, seed=2)
        assert a == b


class TestLollipopAndCliqueUnion:
    def test_lollipop_structure(self):
        graph = lollipop_graph(5, 4)
        assert graph.num_nodes == 9
        assert graph.num_edges == 10 + 4
        assert count_triangles(graph) == 10

    def test_lollipop_invalid(self):
        with pytest.raises(GraphError):
            lollipop_graph(0, 3)
        with pytest.raises(GraphError):
            lollipop_graph(3, -1)

    def test_union_of_cliques_triangles(self):
        graph = union_of_cliques([5, 4, 3])
        assert graph.num_nodes == 12
        assert count_triangles(graph) == 10 + 4 + 1

    def test_union_of_cliques_invalid(self):
        with pytest.raises(GraphError):
            union_of_cliques([3, 0])

    def test_union_of_cliques_isolated_vertices(self):
        graph = union_of_cliques([1, 1, 2])
        assert graph.num_nodes == 4
        assert graph.num_edges == 1


_CANONICAL_CASES = {
    "complete": lambda: complete_graph(7),
    "gnp": lambda: gnp_random_graph(40, 0.3, seed=2),
    "bipartite": lambda: triangle_free_bipartite(30, 0.4, seed=1),
    "cycle": lambda: cycle_graph(9),
    "cycle-of-two": lambda: cycle_graph(2),
    "planted": lambda: planted_triangle_graph(30, 4, background_probability=0.3, seed=3)[0],
    "heavy-edge": lambda: heavy_edge_gadget(20, 8, background_probability=0.3, seed=1)[0],
    "barabasi-albert": lambda: barabasi_albert_graph(30, 3, seed=5),
    "random-regular": lambda: random_regular_graph(14, 3, seed=2),
    "lollipop": lambda: lollipop_graph(5, 4),
    "clique-union": lambda: union_of_cliques([5, 4, 3]),
}


class TestCanonicalCores:
    """Several generators skip the deduplicating pass; the cores they build
    must still be canonical, i.e. what the deduplicating build gives."""

    @pytest.mark.parametrize("name", sorted(_CANONICAL_CASES))
    def test_core_equals_the_deduplicating_build(self, name):
        graph = _CANONICAL_CASES[name]()
        core = graph.csr()
        keys = core.edge_u * graph.num_nodes + core.edge_v
        assert (core.edge_u < core.edge_v).all()
        assert (np.diff(keys) > 0).all()
        rebuilt = Graph.from_edge_arrays(
            graph.num_nodes, core.edge_v[::-1], core.edge_u[::-1]
        ).csr()
        for field in ("indptr", "indices", "edge_u", "edge_v"):
            assert getattr(rebuilt, field).tobytes() == getattr(core, field).tobytes()


#: Every family above, plus graphs off the dense oracle path: the bitset
#: and sorted-key membership strategies, where the count streams the
#: enumeration instead of reducing supports.
_COUNT_CASES = {
    **_CANONICAL_CASES,
    "no-nodes": lambda: empty_graph(0),
    "edgeless": lambda: empty_graph(6),
    "gnp-bitset": lambda: gnp_random_graph(600, 0.01, seed=4),
    "gnp-sorted-key": lambda: gnp_random_graph(2000, 0.002, seed=5),
    "planted-sparse": lambda: planted_triangle_graph(
        1500, 20, background_probability=0.001, seed=6
    )[0],
    "barabasi-albert-sparse": lambda: barabasi_albert_graph(1500, 2, seed=7),
}


class TestCountTriangles:
    """``CSRGraph.count_triangles`` counts without listing; it must agree
    with the listing whatever the snapshot already caches."""

    @pytest.mark.parametrize("cached", ["nothing", "support", "listing"])
    @pytest.mark.parametrize("name", sorted(_COUNT_CASES))
    def test_count_equals_listing(self, name, cached):
        core = _COUNT_CASES[name]().csr()
        if cached == "support":
            core.edge_support()
        elif cached == "listing":
            core.triangles()
        count = core.count_triangles()
        if cached == "nothing" and not core._use_dense():
            # Off the dense path the count neither keeps a listing nor
            # builds the supports.
            assert core._triangles is None and core._support is None
        assert count == core.triangles().shape[0]
        # The module-level wrapper, on a fresh snapshot of the same edges.
        rebuilt = Graph.from_edge_arrays(core.num_nodes, core.edge_u, core.edge_v)
        assert count_triangles(rebuilt) == count

    def test_cases_cover_both_oracle_paths(self):
        dense = {
            name: build().csr()._use_dense() for name, build in _COUNT_CASES.items()
        }
        assert any(dense.values()) and not all(dense.values())
