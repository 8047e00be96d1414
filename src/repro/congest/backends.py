"""The hot inner loops of the batched kernels, and their chunk bound.

The batched phase kernels funnel their innermost array programs through
five operations — sorted-key membership (``CSRGraph.has_edges`` on graphs
too large or too sparse for its dense-matrix and packed-bitset paths),
packed-row popcount reductions (the chunked triangle-matrix rows of the
dense oracle, A2's dense step-2 edge-set sizes), Horner evaluation of
k-wise hash descriptors (A2), the Δ(X) landmark-incidence build (A3), and
the gather of many CSR rows end to end (A3's step-2 and step-4.1 staging,
the dynamic overlay's rows).  Each has exactly one numpy implementation
here, called directly from its call sites.

The module also owns the chunk bound: the limit on the working-set size of
the streamed row blocks used by the chunked phase evaluators (dense Δ(X)
disjointness, fused ``has_edges`` receiver sweeps, packed popcount
reductions, A2's dense step-2 and step-3 row blocks, the triangle
oracle's wedge-closure windows).  It is the constant
:data:`DEFAULT_CHUNK_BYTES`, sized to stay L2/L3-resident on current
cores; call sites read it only through :func:`chunk_rows` and
:func:`active_chunk_bytes`.  The bound never changes a result, only how
the work is blocked, so no algorithm takes it as a parameter.  The fused
receiver sweeps size their blocks by one shared rule on top of it,
:func:`fused_chunk_rows` (:data:`FUSED_BYTES_PER_ELEMENT` bytes per
element).  :func:`use_chunk_bytes` is the one seam that lowers the bound,
so tests can force many small blocks through every chunked path.

This module must not import anything from :mod:`repro` — it sits below both
``repro.graphs`` and ``repro.core`` in the import graph.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

import numpy as np

#: Default bound (bytes) on the per-block working set of chunked phase
#: evaluation.  2 MiB keeps a row block plus its outputs L2-resident on
#: current cores while amortising the per-block numpy dispatch overhead.
DEFAULT_CHUNK_BYTES = 2 * 1024 * 1024

#: Approximate bytes of intermediates per element of a fused sweep (the
#: int64 index and key columns plus the hit masks one element carries):
#: :func:`fused_chunk_rows` divides the chunk bound by this.  On the dense
#: workloads a phase carries tens of millions of elements, and streaming
#: ten full-size temporaries through DRAM measures ~5x slower than the
#: same arithmetic over cache-sized blocks.
FUSED_BYTES_PER_ELEMENT = 16

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
    """``bool[num_nodes, len(landmarks)]``: the Δ(X) landmark-incidence
    matrix — entry ``(v, j)`` is set iff vertex ``v`` is adjacent to
    landmark ``landmarks[j]``."""
    incidence = np.zeros((num_nodes, landmarks.shape[0]), dtype=bool)
    for column, landmark in enumerate(landmarks.tolist()):
        incidence[indices[indptr[landmark] : indptr[landmark + 1]], column] = True
    return incidence


def gather_spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Positions ``starts[i] + j`` for ``j < lengths[i]``, laid end to end
    in ``i`` order.

    With ``starts = indptr[rows]`` and ``lengths = degrees[rows]``,
    ``values[gather_spans(starts, lengths)]`` is the CSR rows ``rows``
    concatenated (repeats allowed).
    """
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.arange(total) + np.repeat(starts - ends + lengths, lengths)


def packed_popcount(rows: np.ndarray) -> np.ndarray:
    """``int64[rows]``: the number of set bits in each packed ``uint8`` row."""
    return _POPCOUNT[rows].sum(axis=1)


def edge_support_chunk(
    packed: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray
) -> np.ndarray:
    """``int64[edges]``: per-edge common neighbourhood sizes from bit-packed
    adjacency rows (AND + popcount)."""
    return packed_popcount(packed[edge_u] & packed[edge_v])


_active_chunk_bytes = DEFAULT_CHUNK_BYTES


def active_chunk_bytes() -> int:
    """The bound on chunked-evaluation working sets."""
    return _active_chunk_bytes


def chunk_rows(row_bytes: int, minimum: int = 1) -> int:
    """Rows per block so a block of ``row_bytes``-wide rows fits the bound."""
    return max(minimum, active_chunk_bytes() // max(int(row_bytes), 1))


def fused_chunk_rows(row_elements: int = 1, minimum: int = 1) -> int:
    """Rows per block of a fused sweep whose rows hold ``row_elements``
    elements each, at :data:`FUSED_BYTES_PER_ELEMENT` bytes per element.

    With the default ``row_elements=1`` a "row" is one element, so this is
    the element budget of a flat sweep (A1 detection, A3's S/V and step-4.1
    sweeps); A2's dense steps pass their row width.
    """
    return chunk_rows(FUSED_BYTES_PER_ELEMENT * row_elements, minimum)


@contextlib.contextmanager
def use_chunk_bytes(chunk_bytes: Optional[int] = None) -> Iterator[None]:
    """Set the chunk bound for the duration of a ``with`` block.

    ``None`` leaves the current bound untouched.  The previous bound is
    restored on exit even when the block raises.
    """
    global _active_chunk_bytes
    previous = _active_chunk_bytes
    if chunk_bytes is not None:
        _active_chunk_bytes = chunk_bytes
    try:
        yield
    finally:
        _active_chunk_bytes = previous
