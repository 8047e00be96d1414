"""Fundamental value types shared across the library.

The paper works with an n-node network whose vertices are identified with the
integers ``0 .. n-1`` (Section 2).  We mirror that convention: a *node id* is
a plain ``int``, an *edge* is an unordered pair of node ids, and a *triangle*
is an unordered triple.  To make unordered pairs and triples hashable and
directly comparable we canonicalise them into sorted tuples.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

NodeId = int
Edge = Tuple[int, int]
Triangle = Tuple[int, int, int]

#: Largest network size for which canonical triples fit losslessly into
#: int64 triangle keys (``n³ < 2⁶³``).  Beyond it a node cannot store any
#: output: :class:`~repro.congest.node.NodeContext` raises instead.
TRIANGLE_KEY_MAX_NODES = 1 << 21


def triangle_keys(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Encode canonical triples ``a < b < c`` into int64 keys.

    The key of ``(a, b, c)`` is ``(a·n + b)·n + c`` — a bijection onto
    integers below ``n³``, so key equality is triple equality and sorted
    keys enumerate triples in canonical lexicographic order.  Callers
    guarantee canonical rows and ``num_nodes <=``
    :data:`TRIANGLE_KEY_MAX_NODES`.
    """
    n = np.int64(num_nodes)
    return (a * n + b) * n + c


def triangle_key(a: int, b: int, c: int, num_nodes: int) -> int:
    """Scalar :func:`triangle_keys`: the key of one canonical triple."""
    return (a * num_nodes + b) * num_nodes + c


def sorted_unique(*chunks: np.ndarray) -> np.ndarray:
    """Return the distinct values across int64 key arrays in ascending order.

    ``sorted_unique(keys)`` equals ``np.unique(keys)`` without calling it:
    from numpy 2.3 on, ``np.unique`` on integers deduplicates through a
    hash table before sorting, which on multi-million-key triangle unions
    is many times slower than the two order-based paths here.  When every
    key lies in ``[0, 8·total)`` — dense listing outputs, where each
    triangle is reported many times — a presence table no larger than the
    keys themselves marks each chunk in place and is read back in order,
    so the chunks are never concatenated.  Otherwise the concatenated keys
    are sorted and each value that differs from its predecessor is kept.
    """
    chunks = tuple(chunk for chunk in chunks if chunk.shape[0])
    total = sum(chunk.shape[0] for chunk in chunks)
    if not total:
        return np.empty(0, dtype=np.int64)
    largest = max(int(chunk.max()) for chunk in chunks)
    if largest < 8 * total and min(int(chunk.min()) for chunk in chunks) >= 0:
        seen = np.zeros(largest + 1, dtype=bool)
        for chunk in chunks:
            seen[chunk] = True
        return np.flatnonzero(seen).astype(np.int64, copy=False)
    ordered = np.concatenate(chunks)
    ordered.sort()
    keep = np.empty(total, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def decode_triangle_keys(
    keys: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode int64 triangle keys back into canonical vertex columns."""
    n = np.int64(num_nodes)
    c = keys % n
    rest = keys // n
    return rest // n, rest % n, c


def make_edge(u: NodeId, v: NodeId) -> Edge:
    """Return the canonical (sorted) representation of the edge ``{u, v}``.

    Raises
    ------
    ValueError
        If ``u == v`` (the graphs in the paper are simple, without
        self-loops).
    """
    if u == v:
        raise ValueError(f"an edge must join two distinct vertices, got ({u}, {v})")
    return (u, v) if u < v else (v, u)


def make_triangle(u: NodeId, v: NodeId, w: NodeId) -> Triangle:
    """Return the canonical (sorted) representation of the triple ``{u, v, w}``.

    Raises
    ------
    ValueError
        If the three vertices are not pairwise distinct.
    """
    if u == v or v == w or u == w:
        raise ValueError(
            f"a triangle must contain three distinct vertices, got ({u}, {v}, {w})"
        )
    # Three compare-and-swaps: several times faster than ``sorted`` on the
    # reference closures' per-triangle output path.
    if u > v:
        u, v = v, u
    if v > w:
        v, w = w, v
    if u > v:
        u, v = v, u
    return (u, v, w)


def triangle_edges(triangle: Triangle) -> Tuple[Edge, Edge, Edge]:
    """Return the three edges of ``triangle`` in canonical form.

    This is the membership relation ``e ∈ t`` from Section 2 of the paper,
    materialised as a tuple.
    """
    a, b, c = triangle
    return (make_edge(a, b), make_edge(a, c), make_edge(b, c))


def edges_of_triangles(triangles: Iterable[Triangle]) -> set[Edge]:
    """Return ``P(R)``: the set of edges covered by a set ``R`` of triples.

    This is the operator ``P`` from Section 2 of the paper, used by the
    lower-bound argument (Lemma 5): the set of edges ``e`` such that ``e ∈ t``
    for some triple ``t`` in ``R``.
    """
    covered: set[Edge] = set()
    for triangle in triangles:
        covered.update(triangle_edges(triangle))
    return covered
