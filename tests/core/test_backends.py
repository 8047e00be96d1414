"""Tests of the inner-loop kernels and the ``chunk_bytes`` bound.

``chunk_bytes`` (:mod:`repro.congest.backends`) must be a pure performance
knob: shrinking it to force many tiny evaluation blocks must leave every
ExperimentRecord byte-identical.  These tests pin that contract over every
workload family, and pin each of the four inner-loop functions against a
naive evaluation.
"""

import json

import numpy as np
import pytest

from repro.analysis.experiments import run_single
from repro.congest.backends import (
    DEFAULT_CHUNK_BYTES,
    active_chunk_bytes,
    chunk_rows,
    edge_support_chunk,
    hash_zero_block,
    landmark_incidence,
    sorted_membership,
    use_chunk_bytes,
    validate_chunk_bytes,
)
from repro.core import (
    DolevCliqueListing,
    HeavyHashingLister,
    HeavySamplingFinder,
    LightTrianglesLister,
    TriangleFinding,
    TriangleListing,
)
from repro.errors import HashingError
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
from repro.hashing import KWiseIndependentFamily

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


def record_bytes(make_algorithm, graph, seed, **tuning):
    """Run once and serialize the full ExperimentRecord deterministically."""
    record = run_single(
        "chunk-differential",
        make_algorithm(**tuning),
        graph,
        seed=seed,
    )
    return json.dumps(record.to_dict(), sort_keys=True).encode()


def assert_chunk_identical(make_algorithm, graph, seeds=(0, 3)):
    """Byte-identical records at the default and a tiny chunk size."""
    for seed in seeds:
        baseline = record_bytes(make_algorithm, graph, seed)
        # A pathologically small budget forces many tiny evaluation blocks.
        assert record_bytes(make_algorithm, graph, seed, chunk_bytes=4096) == baseline


@pytest.mark.parametrize("make_graph", WORKLOADS)
class TestBackendEquivalence:
    def test_a1_sampling(self, make_graph):
        assert_chunk_identical(
            lambda **tuning: HeavySamplingFinder(epsilon=0.3, **tuning),
            make_graph(),
        )

    def test_a2_heavy_hashing(self, make_graph):
        assert_chunk_identical(
            lambda **tuning: HeavyHashingLister(epsilon=0.4, **tuning),
            make_graph(),
        )

    def test_a3_light_listing(self, make_graph):
        assert_chunk_identical(
            lambda **tuning: LightTrianglesLister(epsilon=0.3, **tuning),
            make_graph(),
        )

    def test_dolev_clique_baseline(self, make_graph):
        assert_chunk_identical(
            lambda **tuning: DolevCliqueListing(**tuning), make_graph(), seeds=(0,)
        )

    def test_theorem2_listing(self, make_graph):
        assert_chunk_identical(
            lambda **tuning: TriangleListing(repetitions=2, epsilon=0.5, **tuning),
            make_graph(),
            seeds=(1,),
        )


class TestCompositions:
    def test_theorem1_finding_identical(self):
        graph = gnp_random_graph(36, 0.3, seed=21)
        assert_chunk_identical(
            lambda **tuning: TriangleFinding(repetitions=2, epsilon=0.4, **tuning),
            graph,
            seeds=(2,),
        )

    def test_sparse_fallback_paths_identical(self):
        # Sparse enough that CSR membership takes the sorted-merge path.
        graph = gnp_random_graph(120, 0.03, seed=9)
        assert_chunk_identical(
            lambda **tuning: LightTrianglesLister(epsilon=0.2, **tuning),
            graph,
            seeds=(0,),
        )


class TestChunkBound:
    def test_default_chunk_bytes(self):
        assert active_chunk_bytes() == DEFAULT_CHUNK_BYTES

    def test_validate_chunk_bytes(self):
        assert validate_chunk_bytes(None) is None
        assert validate_chunk_bytes(4096) == 4096
        for bad in (0, -1, 2.5, "big"):
            with pytest.raises(ValueError):
                validate_chunk_bytes(bad)

    def test_invalid_tuning_rejected_by_algorithms(self):
        with pytest.raises(TypeError):
            HeavySamplingFinder(epsilon=0.3, backend="numpy")
        with pytest.raises(TypeError):
            TriangleListing(backend="numpy")
        with pytest.raises(TypeError):
            DolevCliqueListing(backend="numpy")
        with pytest.raises(ValueError, match="backend"):
            TriangleFinding(backend="numba")
        with pytest.raises(ValueError):
            HeavyHashingLister(epsilon=0.4, chunk_bytes=0)

    def test_use_chunk_bytes_restores_state(self):
        with use_chunk_bytes(1 << 12):
            assert active_chunk_bytes() == 1 << 12
            assert chunk_rows(1 << 10) == 4
        assert active_chunk_bytes() == DEFAULT_CHUNK_BYTES

    def test_chunk_rows_minimum(self):
        with use_chunk_bytes(16):
            assert chunk_rows(1 << 20) == 1
            assert chunk_rows(1 << 20, minimum=64) == 64


class TestKernelOps:
    """Unit-level pins of each inner-loop function against naive evaluations."""

    def test_sorted_membership(self):
        rng = np.random.default_rng(0)
        keys = np.unique(rng.integers(0, 500, size=64))
        queries = rng.integers(-5, 510, size=256)
        expected = np.isin(queries, keys)
        got = sorted_membership(keys, queries)
        assert got.dtype == np.bool_
        np.testing.assert_array_equal(got, expected)

    def test_sorted_membership_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert sorted_membership(empty, np.array([3, 4])).sum() == 0
        assert sorted_membership(np.array([1, 2]), empty).shape == (0,)

    def test_hash_zero_block_matches_scalar_functions(self):
        family = KWiseIndependentFamily(domain_size=97, range_size=9, independence=3)
        rng = np.random.default_rng(1)
        functions = [family.sample(rng) for _ in range(8)]
        rows = np.array([f.coefficients for f in functions], dtype=np.int64)
        points = np.arange(97, dtype=np.int64)
        expected = np.array(
            [[f(int(x)) == 0 for x in points] for f in functions], dtype=bool
        )
        got = hash_zero_block(rows, points, family.prime, family.range_size)
        np.testing.assert_array_equal(got, expected)

    def test_family_zero_block_dispatches(self):
        family = KWiseIndependentFamily(domain_size=50, range_size=5, independence=3)
        rng = np.random.default_rng(2)
        function = family.sample(rng)
        rows = np.array([function.coefficients], dtype=np.int64)
        points = np.arange(50, dtype=np.int64)
        expected = np.array([[function(int(x)) == 0 for x in points]])
        np.testing.assert_array_equal(family.zero_block(rows, points), expected)
        with pytest.raises(HashingError):
            family.zero_block(rows[:, :2], points)

    def test_landmark_incidence(self):
        graph = gnp_random_graph(30, 0.2, seed=5)
        csr = graph.csr()
        landmarks = np.array([2, 7, 19], dtype=np.int64)
        # Node-major orientation: incidence[v, j] == (v adjacent to X[j]).
        expected = np.zeros((30, 3), dtype=bool)
        for column, landmark in enumerate(landmarks):
            start, end = csr.indptr[landmark], csr.indptr[landmark + 1]
            expected[csr.indices[start:end], column] = True
        got = landmark_incidence(csr.indptr, csr.indices, landmarks, 30)
        np.testing.assert_array_equal(got, expected)

    def test_edge_support_chunk(self):
        graph = gnp_random_graph(24, 0.5, seed=6)
        csr = graph.csr()
        expected = csr.edge_support()
        packed = csr._packed_matrix()
        got = edge_support_chunk(packed, csr.edge_u, csr.edge_v)
        np.testing.assert_array_equal(got, expected)
