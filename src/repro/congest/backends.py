"""The hot inner loops of the batched kernels, and their chunk bound.

The batched phase kernels funnel their innermost array programs through
four operations — sorted-key membership (``CSRGraph.has_edges`` on graphs
too large or too sparse for its dense-matrix and packed-bitset paths),
packed-row popcount reductions (the chunked triangle-matrix rows of the
dense oracle), Horner evaluation of k-wise hash descriptors (A2), and the
Δ(X) landmark-incidence build (A3).  Each has exactly one numpy
implementation here, called directly from its call sites.

The module also owns the ``chunk_bytes`` knob: the bound on the working-set
size of the streamed row blocks used by the chunked phase evaluators (dense
Δ(X) disjointness, fused ``has_edges`` receiver sweeps, packed popcount
reductions, the triangle oracle's wedge-closure windows).  The default is
sized to stay L2/L3-resident on current cores.  Algorithms take a
``chunk_bytes=`` constructor parameter (validated by
:func:`validate_chunk_bytes`) and wrap their execution in
:func:`use_chunk_bytes`.  The bound is thread-local, so sweep workers with
different settings never interfere.

This module must not import anything from :mod:`repro` — it sits below both
``repro.graphs`` and ``repro.core`` in the import graph.
"""

from __future__ import annotations

import contextlib
import operator
import threading
from typing import Iterator, Optional

import numpy as np

#: Default bound (bytes) on the per-block working set of chunked phase
#: evaluation.  2 MiB keeps a row block plus its outputs L2-resident on
#: current cores while amortising the per-block numpy dispatch overhead.
DEFAULT_CHUNK_BYTES = 2 * 1024 * 1024

#: Popcount lookup table for packed-``uint8`` adjacency rows.
_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)


def sorted_membership(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``bool[queries]``: membership of each query in an ascending int64 key
    array (binary search)."""
    positions = np.searchsorted(sorted_keys, queries)
    found = np.zeros(queries.shape, dtype=bool)
    in_range = positions < sorted_keys.shape[0]
    found[in_range] = sorted_keys[positions[in_range]] == queries[in_range]
    return found


def hash_zero_block(
    coefficient_rows: np.ndarray, points: np.ndarray, prime: int, range_size: int
) -> np.ndarray:
    """``bool[rows, points]``: Horner evaluation of each descriptor row at
    each point over GF(prime), testing ``h(x) % range_size == 0`` (A2's
    bucket-zero test).

    Intermediate products stay below ``prime²`` (< 2⁶³ for every realistic
    ``n``), so plain int64 arithmetic is exact.
    """
    reduced_points = (points % prime)[None, :]
    accumulator = np.zeros(
        (coefficient_rows.shape[0], points.shape[0]), dtype=np.int64
    )
    for index in range(coefficient_rows.shape[1] - 1, -1, -1):
        accumulator *= reduced_points
        accumulator += coefficient_rows[:, index : index + 1]
        accumulator %= prime
    return (accumulator % range_size) == 0


def landmark_incidence(
    indptr: np.ndarray, indices: np.ndarray, landmarks: np.ndarray, num_nodes: int
) -> np.ndarray:
    """``int64[num_nodes, len(landmarks)]``: the Δ(X) landmark-incidence
    matrix — entry ``(v, j)`` is 1 iff vertex ``v`` is adjacent to landmark
    ``landmarks[j]``."""
    incidence = np.zeros((num_nodes, landmarks.shape[0]), dtype=np.int64)
    for column, landmark in enumerate(landmarks.tolist()):
        incidence[indices[indptr[landmark] : indptr[landmark + 1]], column] = 1
    return incidence


def edge_support_chunk(
    packed: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray
) -> np.ndarray:
    """``int64[edges]``: per-edge common neighbourhood sizes from bit-packed
    adjacency rows (AND + popcount)."""
    both = packed[edge_u] & packed[edge_v]
    return _POPCOUNT[both].sum(axis=1)


def validate_chunk_bytes(chunk_bytes: Optional[int]) -> Optional[int]:
    """Validate a ``chunk_bytes=`` constructor argument (``None`` = default)."""
    if chunk_bytes is None:
        return None
    try:
        value = operator.index(chunk_bytes)
    except TypeError:
        raise ValueError(
            f"chunk_bytes must be a positive integer, got {chunk_bytes!r}"
        ) from None
    if value < 1:
        raise ValueError(f"chunk_bytes must be positive, got {chunk_bytes}")
    return value


class _ActiveState(threading.local):
    chunk_bytes: int

    def __init__(self) -> None:  # called once per thread
        self.chunk_bytes = DEFAULT_CHUNK_BYTES


_ACTIVE = _ActiveState()


def active_chunk_bytes() -> int:
    """The current thread's bound on chunked-evaluation working sets."""
    return _ACTIVE.chunk_bytes


def chunk_rows(row_bytes: int, minimum: int = 1) -> int:
    """Rows per block so a block of ``row_bytes``-wide rows fits the bound."""
    return max(minimum, active_chunk_bytes() // max(int(row_bytes), 1))


@contextlib.contextmanager
def use_chunk_bytes(chunk_bytes: Optional[int] = None) -> Iterator[None]:
    """Set the chunk bound for the duration of a ``with`` block.

    ``None`` leaves the current bound untouched.  The setting is
    thread-local and restored on exit even when the block raises.
    """
    previous_chunk = _ACTIVE.chunk_bytes
    if chunk_bytes is not None:
        _ACTIVE.chunk_bytes = validate_chunk_bytes(chunk_bytes)
    try:
        yield
    finally:
        _ACTIVE.chunk_bytes = previous_chunk
