"""Tests of the inner-loop kernels and the chunk bound.

The chunk bound (:mod:`repro.congest.backends`) must be a pure performance
constant: shrinking it with ``use_chunk_bytes`` to force many tiny
evaluation blocks must leave every ExperimentRecord byte-identical.  These tests pin that contract over every
workload family, and pin each of the five inner-loop functions against a
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
    gather_spans,
    hash_zero_block,
    landmark_words,
    shares_landmark,
    sorted_membership,
    use_chunk_bytes,
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


def record_bytes(make_algorithm, graph, seed, chunk_bytes=None):
    """Run once under ``chunk_bytes`` (``None`` = the default bound) and
    serialize the full ExperimentRecord deterministically."""
    with use_chunk_bytes(chunk_bytes):
        record = run_single(
            "chunk-differential",
            make_algorithm(),
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
            lambda: HeavySamplingFinder(epsilon=0.3),
            make_graph(),
        )

    def test_a2_heavy_hashing(self, make_graph):
        assert_chunk_identical(
            lambda: HeavyHashingLister(epsilon=0.4),
            make_graph(),
        )

    def test_a3_light_listing(self, make_graph):
        assert_chunk_identical(
            lambda: LightTrianglesLister(epsilon=0.3),
            make_graph(),
        )

    def test_dolev_clique_baseline(self, make_graph):
        assert_chunk_identical(
            DolevCliqueListing, make_graph(), seeds=(0,)
        )

    def test_theorem2_listing(self, make_graph):
        assert_chunk_identical(
            lambda: TriangleListing(repetitions=2, epsilon=0.5),
            make_graph(),
            seeds=(1,),
        )


class TestCompositions:
    def test_theorem1_finding_identical(self):
        graph = gnp_random_graph(36, 0.3, seed=21)
        assert_chunk_identical(
            lambda: TriangleFinding(repetitions=2, epsilon=0.4),
            graph,
            seeds=(2,),
        )

    def test_sparse_fallback_paths_identical(self):
        # Sparse enough that CSR membership takes the sorted-merge path.
        graph = gnp_random_graph(120, 0.03, seed=9)
        assert_chunk_identical(
            lambda: LightTrianglesLister(epsilon=0.2),
            graph,
            seeds=(0,),
        )


class TestChunkBound:
    def test_default_chunk_bytes(self):
        assert active_chunk_bytes() == DEFAULT_CHUNK_BYTES

    def test_invalid_tuning_rejected_by_algorithms(self):
        with pytest.raises(TypeError):
            HeavySamplingFinder(epsilon=0.3, backend="numpy")
        with pytest.raises(TypeError):
            TriangleListing(backend="numpy")
        with pytest.raises(TypeError):
            DolevCliqueListing(backend="numpy")
        with pytest.raises(ValueError, match="backend"):
            TriangleFinding(backend="numba")
        with pytest.raises(TypeError):
            HeavyHashingLister(epsilon=0.4, chunk_bytes=4096)

    def test_use_chunk_bytes_restores_state(self):
        with use_chunk_bytes(1 << 12):
            assert active_chunk_bytes() == 1 << 12
            assert chunk_rows(1 << 10) == 4
            with use_chunk_bytes(None):
                assert active_chunk_bytes() == 1 << 12
        assert active_chunk_bytes() == DEFAULT_CHUNK_BYTES
        with pytest.raises(RuntimeError), use_chunk_bytes(64):
            raise RuntimeError("restored on the way out")
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

    @pytest.mark.parametrize("num_landmarks", [0, 3, 64, 65, 150])
    def test_landmark_words(self, num_landmarks):
        # Up to 64 landmarks fit one word column; 65 and 150 need two and
        # three, and landmark 64 is bit 0 of the second column.
        graph = gnp_random_graph(160, 0.1, seed=5)
        csr = graph.csr()
        landmarks = np.sort(
            np.random.default_rng(num_landmarks).choice(160, num_landmarks, replace=False)
        ).astype(np.int64)
        words = landmark_words(csr.indptr, csr.indices, landmarks, 160)
        assert len(words) == -(-num_landmarks // 64)
        assert all(column.dtype == np.uint64 for column in words)
        for node in range(160):
            bits = [
                (int(words[position // 64][node]) >> (position % 64)) & 1
                for position in range(num_landmarks)
            ]
            expected = [
                int(csr.has_edge(node, int(landmark))) for landmark in landmarks
            ]
            assert bits == expected
        neighborhoods = [
            set(csr.neighbor_slice(node).tolist()) & set(landmarks.tolist())
            for node in range(160)
        ]
        a, b = np.meshgrid(np.arange(160), np.arange(160), indexing="ij")
        expected = np.array(
            [[bool(neighborhoods[j] & neighborhoods[l]) for l in range(160)] for j in range(160)]
        )
        np.testing.assert_array_equal(
            shares_landmark(words, a.ravel(), b.ravel()).reshape(160, 160), expected
        )

    def test_gather_spans(self):
        graph = gnp_random_graph(12, 0.3, seed=4)
        csr = graph.csr()
        degrees = np.diff(csr.indptr)
        # Rows in any order, with repeats.
        rows = np.array([3, 3, 0, 11, 5], dtype=np.int64)
        got = csr.indices[gather_spans(csr.indptr[rows], degrees[rows])]
        expected = [
            neighbor for row in rows.tolist() for neighbor in csr.neighbor_slice(row)
        ]
        assert got.tolist() == expected

    def test_gather_spans_empty_rows(self):
        starts = np.array([4, 0, 9, 2], dtype=np.int64)
        lengths = np.array([0, 3, 0, 1], dtype=np.int64)
        assert gather_spans(starts, lengths).tolist() == [0, 1, 2, 2]
        # All rows empty, and no rows at all.
        assert gather_spans(starts, np.zeros(4, dtype=np.int64)).shape == (0,)
        empty = np.empty(0, dtype=np.int64)
        assert gather_spans(empty, empty).shape == (0,)

    def test_gather_spans_single_row(self):
        got = gather_spans(np.array([5], dtype=np.int64), np.array([3], dtype=np.int64))
        assert got.tolist() == [5, 6, 7]

    def test_edge_support_chunk(self):
        graph = gnp_random_graph(24, 0.5, seed=6)
        csr = graph.csr()
        expected = csr.edge_support()
        packed = csr._packed_matrix()
        got = edge_support_chunk(packed, csr.edge_u, csr.edge_v)
        np.testing.assert_array_equal(got, expected)
