"""Tests for the fundamental value types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.types import (
    edges_of_triangles,
    make_edge,
    make_triangle,
    sorted_unique,
    triangle_edges,
)


class TestMakeEdge:
    def test_canonical_order(self):
        assert make_edge(3, 1) == (1, 3)
        assert make_edge(1, 3) == (1, 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_edge(2, 2)


class TestMakeTriangle:
    def test_canonical_order(self):
        assert make_triangle(5, 1, 3) == (1, 3, 5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_triangle(1, 1, 2)
        with pytest.raises(ValueError):
            make_triangle(1, 2, 2)
        with pytest.raises(ValueError):
            make_triangle(3, 2, 3)


class TestTriangleEdges:
    def test_three_edges(self):
        assert triangle_edges((1, 3, 5)) == ((1, 3), (1, 5), (3, 5))

    def test_edges_of_triangles_union(self):
        cover = edges_of_triangles([(0, 1, 2), (1, 2, 3)])
        assert cover == {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}

    def test_edges_of_triangles_empty(self):
        assert edges_of_triangles([]) == set()


def assert_same_as_np_unique(keys):
    expected = np.unique(keys)
    got = sorted_unique(keys)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, expected)


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.array([-3], dtype=np.int64),
            np.array([2**62], dtype=np.int64),
            np.full(50, 4, dtype=np.int64),
            np.full(50, -9, dtype=np.int64),
            np.full(50, 10**15, dtype=np.int64),
        ],
        ids=["empty", "one", "one-negative", "one-huge", "all-dup", "all-dup-negative", "all-dup-huge"],
    )
    def test_edge_cases(self, keys):
        assert_same_as_np_unique(keys)

    @pytest.mark.parametrize("high", [4, 1_000, 10**12, 2**62])
    @pytest.mark.parametrize("low", [0, -(10**6)])
    def test_random_arrays(self, low, high):
        # Small ranges take the presence-table path, wide or negative
        # ones the sort path; both must agree with np.unique.
        rng = np.random.default_rng(0)
        for size in (2, 3, 100, 5_000):
            assert_same_as_np_unique(rng.integers(low, high, size=size, dtype=np.int64))

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, st.integers(min_value=0, max_value=60)))
    def test_matches_np_unique(self, keys):
        assert_same_as_np_unique(keys)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            arrays(
                np.int64,
                st.integers(min_value=0, max_value=20),
                elements=st.integers(min_value=-5, max_value=200),
            ),
            max_size=5,
        )
    )
    def test_chunks_equal_their_concatenation(self, chunks):
        joined = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(sorted_unique(*chunks), np.unique(joined))

    def test_input_is_not_modified(self):
        keys = np.array([5, 1, 5, 3], dtype=np.int64)
        sorted_unique(keys)
        np.testing.assert_array_equal(keys, [5, 1, 5, 3])


class TestPackageSurface:
    def test_version_exposed(self):
        import repro

        assert repro.__version__
        assert isinstance(repro.__version__, str)

    def test_error_hierarchy(self):
        import repro

        assert issubclass(repro.GraphError, repro.ReproError)
        assert issubclass(repro.BandwidthExceededError, repro.SimulationError)
        assert issubclass(repro.RoundLimitExceededError, repro.SimulationError)
        assert issubclass(repro.SimulationError, repro.ReproError)
