"""Synthetic graph generators used as workloads.

The paper's statements are either worst-case (Theorems 1 and 2 hold for every
input graph) or random-graph based (Theorem 3 and Proposition 5 are proved on
``G(n, 1/2)``).  The experiment harness therefore needs generators that cover
the regimes the analysis distinguishes:

* dense and sparse Erdős–Rényi graphs (:func:`gnp_random_graph`) —
  the lower-bound distribution and the generic listing workload,
* graphs with *planted* triangles (:func:`planted_triangle_graph`) — the
  finding workload where a handful of triangles hide in an otherwise
  triangle-free graph,
* *heavy-edge gadgets* (:func:`heavy_edge_gadget`) — graphs where one edge is
  shared by many triangles, exercising the ε-heavy code path (Algorithms A1
  and A2),
* triangle-free graphs (:func:`triangle_free_bipartite`,
  :func:`cycle_graph`) — the "not found" branch of triangle finding and the
  triangle-freeness certification example,
* skewed-degree graphs (:func:`barabasi_albert_graph`) and regular graphs
  (:func:`random_regular_graph`) — realistic and adversarial degree
  distributions for the baselines whose cost is governed by ``d_max``.

Every generator takes an explicit ``seed`` (or ``rng``) so that experiments
are reproducible.

Every generator builds its edge set as numpy arrays and constructs the
graph in one :meth:`~repro.graphs.graph.Graph.from_edge_arrays` bulk pass,
so generation cost is dominated by sampling, not per-edge Python calls.
``G(n, p)`` picks between direct upper-triangle masking (small instances,
bit-for-bit the sampling order of the original implementation) and
geometric gap skipping (large sparse instances, expected ``O(m)`` draws
instead of ``O(n²)``).  Direct masking draws its uniforms in fixed-size
blocks (:func:`_bernoulli_positions`): successive ``rng.random`` calls
continue one stream, so the graph is the one a single whole-array draw
gives, without that draw's ``8 C(n, 2)``-byte transient.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GraphError
from .graph import Graph

#: Largest number of candidate pairs for which ``G(n, p)`` samples the whole
#: upper triangle directly (one uniform per pair); beyond this, geometric
#: gap skipping keeps memory and draws proportional to the edge count.
_GNP_DIRECT_MAX_PAIRS = 1 << 24

#: Uniforms drawn per block by :func:`_bernoulli_positions` (2 MB of
#: float64): the direct samplers' transient stays flat however many
#: candidate pairs a graph has.
_BERNOULLI_BLOCK = 1 << 18


def _resolve_rng(seed: Optional[int | np.random.Generator]) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _complete_block_edges(start: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return the edge arrays of a clique on vertices ``start .. start+size-1``."""
    upper_u, upper_v = np.triu_indices(size, k=1)
    return upper_u + start, upper_v + start


def empty_graph(num_nodes: int) -> Graph:
    """Return the graph on ``num_nodes`` vertices with no edges."""
    return Graph(num_nodes)


def complete_graph(num_nodes: int) -> Graph:
    """Return the complete graph ``K_n``.

    ``K_n`` maximises both the triangle count (every triple is a triangle)
    and ``d_max``; it is the worst case for the naive 2-hop baseline.
    """
    if num_nodes < 2:
        return Graph(num_nodes)
    u, v = _complete_block_edges(0, num_nodes)
    return Graph.from_edge_arrays(num_nodes, u, v, deduplicate=False)


def _linear_index_to_pair(
    positions: np.ndarray, num_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode row-major upper-triangle linear indices into ``(u, v)`` pairs."""
    row_lengths = np.arange(num_nodes - 1, 0, -1, dtype=np.int64)
    row_starts = np.zeros(num_nodes, dtype=np.int64)
    np.cumsum(row_lengths, out=row_starts[1:])
    u = np.searchsorted(row_starts, positions, side="right") - 1
    v = u + 1 + (positions - row_starts[u])
    return u, v


def _bernoulli_positions(
    total: int, probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Return ``np.flatnonzero(rng.random(total) < probability)``, drawn in blocks.

    ``rng.random(a)`` followed by ``rng.random(b)`` yields exactly the
    values of ``rng.random(a + b)``, so filling one reused block buffer
    ``_BERNOULLI_BLOCK`` uniforms at a time consumes the same stream and
    keeps the same positions, leaving ``rng`` in the same state.  The hits
    go straight into one output buffer sized six standard deviations above
    the expected count (a binomial's deviation is at most the square root
    of its mean); in the rare run that overflows it, the buffer grows once
    to the most the remaining blocks can hold.
    """
    expected = total * probability
    capacity = min(total, int(expected + 6.0 * expected**0.5) + 64)
    positions = np.empty(capacity, dtype=np.int64)
    block = max(1, min(total, _BERNOULLI_BLOCK))
    uniforms = np.empty(block)
    mask = np.empty(block, dtype=bool)
    found = 0
    for start in range(0, total, block):
        size = min(block, total - start)
        rng.random(out=uniforms[:size])
        np.less(uniforms[:size], probability, out=mask[:size])
        hits = np.flatnonzero(mask[:size])
        if found + hits.shape[0] > positions.shape[0]:
            grown = np.empty(found + total - start, dtype=np.int64)
            grown[:found] = positions[:found]
            positions = grown
        np.add(hits, start, out=positions[found : found + hits.shape[0]])
        found += hits.shape[0]
    return positions[:found]


def _gnp_positions_by_skipping(
    total: int, edge_probability: float, rng: np.random.Generator
) -> np.ndarray:
    """Sample the included upper-triangle positions by geometric gaps.

    Standard sparse-G(n, p) trick: the gap to the next included pair is
    geometric with parameter ``p``, so only ``~ total * p`` draws are needed.
    """
    log_skip = np.log1p(-edge_probability)
    pieces: List[np.ndarray] = []
    current = -1
    while current < total:
        remaining = total - current
        batch = max(1024, int(remaining * edge_probability * 1.2) + 16)
        uniforms = np.maximum(rng.random(batch), 1e-300)
        gaps = (np.log(uniforms) // log_skip).astype(np.int64) + 1
        steps = np.cumsum(gaps) + current
        pieces.append(steps[steps < total])
        current = int(steps[-1])
    return np.concatenate(pieces)


def gnp_random_graph(
    num_nodes: int,
    edge_probability: float,
    seed: Optional[int | np.random.Generator] = None,
) -> Graph:
    """Return an Erdős–Rényi graph ``G(n, p)``.

    Each of the ``C(n, 2)`` possible edges is included independently with
    probability ``edge_probability``.  ``G(n, 1/2)`` is exactly the input
    distribution of the paper's lower-bound argument (Section 4).
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(
            f"edge_probability must lie in [0, 1], got {edge_probability}"
        )
    rng = _resolve_rng(seed)
    if num_nodes < 2 or edge_probability == 0.0:
        return Graph(num_nodes)
    if edge_probability == 1.0:
        return complete_graph(num_nodes)
    total = num_nodes * (num_nodes - 1) // 2
    if total <= _GNP_DIRECT_MAX_PAIRS:
        positions = _bernoulli_positions(total, edge_probability, rng)
    else:
        positions = _gnp_positions_by_skipping(total, edge_probability, rng)
    u, v = _linear_index_to_pair(positions, num_nodes)
    return Graph.from_edge_arrays(num_nodes, u, v, deduplicate=False)


def _bipartite_edges(
    num_nodes: int, edge_probability: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample the edge arrays of :func:`triangle_free_bipartite`."""
    if not 0.0 <= edge_probability <= 1.0:
        raise GraphError(
            f"edge_probability must lie in [0, 1], got {edge_probability}"
        )
    split = (num_nodes + 1) // 2
    other = num_nodes - split
    if split == 0 or other == 0 or edge_probability == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Row-major positions of the ``split × other`` pair grid.
    u, col = np.divmod(_bernoulli_positions(split * other, edge_probability, rng), other)
    return u, col + split


def triangle_free_bipartite(
    num_nodes: int,
    edge_probability: float = 0.5,
    seed: Optional[int | np.random.Generator] = None,
) -> Graph:
    """Return a random bipartite (hence triangle-free) graph.

    Vertices ``0 .. ⌈n/2⌉-1`` form one side and the rest the other; each
    cross pair becomes an edge independently with probability
    ``edge_probability``.  Used for the "not found" branch of triangle
    finding and for the triangle-freeness certification example.
    """
    u, v = _bipartite_edges(num_nodes, edge_probability, _resolve_rng(seed))
    return Graph.from_edge_arrays(num_nodes, u, v, deduplicate=False)


def cycle_graph(num_nodes: int) -> Graph:
    """Return the cycle ``C_n`` (triangle-free for ``n != 3``)."""
    if num_nodes < 3:
        return Graph(num_nodes, [(0, 1)] if num_nodes == 2 else ())
    u = np.arange(num_nodes, dtype=np.int64)
    return Graph.from_edge_arrays(num_nodes, u, (u + 1) % num_nodes, deduplicate=False)


def planted_triangle_graph(
    num_nodes: int,
    num_planted: int,
    background_probability: float = 0.0,
    seed: Optional[int | np.random.Generator] = None,
) -> Tuple[Graph, List[Tuple[int, int, int]]]:
    """Return a graph with ``num_planted`` vertex-disjoint planted triangles.

    The background is a triangle-free bipartite random graph over the
    remaining structure (edges inside each planted triple are always added).
    When ``background_probability`` is zero the planted triangles are exactly
    the triangles of the graph, which gives the finding experiments a sparse
    needle-in-a-haystack workload.

    Returns
    -------
    (graph, planted):
        The graph and the list of planted triangles in canonical order.
    """
    if num_planted < 0:
        raise GraphError(f"num_planted must be non-negative, got {num_planted}")
    if 3 * num_planted > num_nodes:
        raise GraphError(
            f"cannot plant {num_planted} vertex-disjoint triangles in "
            f"{num_nodes} vertices"
        )
    rng = _resolve_rng(seed)
    background_u, background_v = _bipartite_edges(num_nodes, background_probability, rng)
    vertices = rng.permutation(num_nodes)
    triples = np.sort(vertices[: 3 * num_planted].reshape(num_planted, 3), axis=1)
    a, b, c = triples.T
    # A planted edge may repeat a background edge, so deduplicate.
    graph = Graph.from_edge_arrays(
        num_nodes,
        np.concatenate((background_u, a, a, b)),
        np.concatenate((background_v, b, c, c)),
    )
    return graph, sorted(map(tuple, triples.tolist()))


def heavy_edge_gadget(
    num_nodes: int,
    support: int,
    background_probability: float = 0.0,
    seed: Optional[int | np.random.Generator] = None,
) -> Tuple[Graph, Tuple[int, int]]:
    """Return a graph in which one designated edge has support ``support``.

    Vertices 0 and 1 are joined by an edge, and ``support`` further vertices
    are adjacent to both — so the edge ``{0, 1}`` lies in exactly ``support``
    triangles (plus any created by the optional random background).  This is
    the canonical ε-heavy workload for Algorithms A1 and A2: the edge is
    ε-heavy whenever ``support >= n^ε``.

    Returns
    -------
    (graph, heavy_edge):
        The gadget graph and the designated heavy edge ``(0, 1)``.
    """
    if num_nodes < 2:
        raise GraphError("heavy_edge_gadget needs at least two vertices")
    if support < 0 or support > num_nodes - 2:
        raise GraphError(
            f"support must lie in [0, {num_nodes - 2}], got {support}"
        )
    rng = _resolve_rng(seed)
    apexes = np.arange(2, 2 + support, dtype=np.int64)
    u_parts = [np.array([0], dtype=np.int64), np.zeros(support, dtype=np.int64),
               np.ones(support, dtype=np.int64)]
    v_parts = [np.array([1], dtype=np.int64), apexes, apexes]
    if background_probability > 0.0 and num_nodes > 3:
        rest = num_nodes - 2
        positions = _bernoulli_positions(
            rest * (rest - 1) // 2, background_probability, rng
        )
        if positions.shape[0]:
            bu, bv = _linear_index_to_pair(positions, rest)
            u_parts.append(bu + 2)
            v_parts.append(bv + 2)
    graph = Graph.from_edge_arrays(
        num_nodes, np.concatenate(u_parts), np.concatenate(v_parts)
    )
    return graph, (0, 1)


def barabasi_albert_graph(
    num_nodes: int,
    attachment: int,
    seed: Optional[int | np.random.Generator] = None,
) -> Graph:
    """Return a preferential-attachment (Barabási–Albert style) graph.

    Starting from a clique on ``attachment + 1`` vertices, each new vertex
    attaches to ``attachment`` distinct existing vertices chosen with
    probability proportional to their degree.  The resulting skewed degree
    distribution and naturally occurring triangles make this the "synthetic
    social network" workload for the motif-census example.

    The repeated-endpoint list implementing preferential attachment lives in
    one pre-sized numpy buffer; each arriving vertex draws candidate batches
    from the filled prefix until it holds ``attachment`` distinct targets
    (first-drawn order, as in the sequential formulation).
    """
    if attachment < 1:
        raise GraphError(f"attachment must be at least 1, got {attachment}")
    if num_nodes < attachment + 1:
        raise GraphError(
            f"num_nodes must be at least attachment + 1 = {attachment + 1}, "
            f"got {num_nodes}"
        )
    rng = _resolve_rng(seed)
    clique_size = attachment + 1
    clique_u, clique_v = _complete_block_edges(0, clique_size)
    num_new = num_nodes - clique_size
    total_edges = clique_u.shape[0] + num_new * attachment
    endpoints = np.empty(2 * total_edges, dtype=np.int64)
    filled = 2 * clique_u.shape[0]
    endpoints[0 : filled : 2] = clique_u
    endpoints[1 : filled : 2] = clique_v
    new_sources = np.repeat(
        np.arange(clique_size, num_nodes, dtype=np.int64), attachment
    )
    new_targets = np.empty(num_new * attachment, dtype=np.int64)
    write = 0
    for new_vertex in range(clique_size, num_nodes):
        chosen: List[int] = []
        while len(chosen) < attachment:
            draws = endpoints[
                rng.integers(0, filled, size=max(2 * attachment, 8))
            ]
            # np.unique sorts, so recover first-drawn order via the index of
            # each value's first occurrence.
            _, first_positions = np.unique(draws, return_index=True)
            fresh = draws[np.sort(first_positions)]
            if chosen:
                fresh = fresh[~np.isin(fresh, np.array(chosen, dtype=np.int64))]
            chosen.extend(fresh.tolist()[: attachment - len(chosen)])
        targets = np.array(chosen, dtype=np.int64)
        new_targets[write : write + attachment] = targets
        endpoints[filled : filled + 2 * attachment : 2] = targets
        endpoints[filled + 1 : filled + 2 * attachment : 2] = new_vertex
        filled += 2 * attachment
        write += attachment
    return Graph.from_edge_arrays(
        num_nodes,
        np.concatenate((clique_u, new_sources)),
        np.concatenate((clique_v, new_targets)),
        deduplicate=False,
    )


def random_regular_graph(
    num_nodes: int,
    degree: int,
    seed: Optional[int | np.random.Generator] = None,
    max_attempts: int = 200,
) -> Graph:
    """Return a random ``degree``-regular graph via the pairing model.

    The pairing (configuration) model is retried until it produces a simple
    graph; for the moderate degrees used in experiments this succeeds within
    a few attempts.  Validity of a pairing (no self-loops, no parallel
    edges) is checked with array reductions on the whole stub permutation.

    Raises
    ------
    GraphError
        If ``num_nodes * degree`` is odd, ``degree >= num_nodes``, or no
        simple pairing is found within ``max_attempts`` attempts.
    """
    if degree < 0 or degree >= num_nodes:
        raise GraphError(
            f"degree must lie in [0, num_nodes), got degree={degree}, "
            f"num_nodes={num_nodes}"
        )
    if (num_nodes * degree) % 2 != 0:
        raise GraphError("num_nodes * degree must be even for a regular graph")
    rng = _resolve_rng(seed)
    if degree == 0:
        return Graph(num_nodes)
    stubs = np.repeat(np.arange(num_nodes), degree)
    for _ in range(max_attempts):
        permuted = rng.permutation(stubs)
        u = permuted[0::2]
        v = permuted[1::2]
        if (u == v).any():
            continue
        keys = np.minimum(u, v) * np.int64(num_nodes) + np.maximum(u, v)
        if np.unique(keys).shape[0] != keys.shape[0]:
            continue
        return Graph.from_edge_arrays(num_nodes, u, v, deduplicate=False)
    raise GraphError(
        f"failed to generate a simple {degree}-regular graph on "
        f"{num_nodes} vertices in {max_attempts} attempts"
    )


def lollipop_graph(clique_size: int, path_length: int) -> Graph:
    """Return a lollipop graph: a clique with a path attached.

    The clique supplies ``C(clique_size, 3)`` triangles concentrated in one
    region while the path keeps the diameter large — a useful sanity
    workload showing that the algorithms' cost is governed by congestion,
    not diameter.
    """
    if clique_size < 1 or path_length < 0:
        raise GraphError(
            "clique_size must be >= 1 and path_length >= 0, got "
            f"clique_size={clique_size}, path_length={path_length}"
        )
    num_nodes = clique_size + path_length
    clique_u, clique_v = _complete_block_edges(0, clique_size)
    path_u = np.arange(clique_size - 1, num_nodes - 1, dtype=np.int64)
    return Graph.from_edge_arrays(
        num_nodes,
        np.concatenate((clique_u, path_u)),
        np.concatenate((clique_v, path_u + 1)),
        deduplicate=False,
    )


def union_of_cliques(
    clique_sizes: Sequence[int],
) -> Graph:
    """Return a disjoint union of cliques of the given sizes.

    Every edge inside a clique of size ``s`` has support ``s - 2``, so by
    picking the sizes this generator produces graphs whose triangles are all
    heavy, all light, or a controlled mixture — the workload used by the
    heavy/light decomposition example and the ε ablation.
    """
    if any(size < 1 for size in clique_sizes):
        raise GraphError("all clique sizes must be positive")
    num_nodes = sum(clique_sizes)
    u_parts: List[np.ndarray] = []
    v_parts: List[np.ndarray] = []
    offset = 0
    for size in clique_sizes:
        if size >= 2:
            block_u, block_v = _complete_block_edges(offset, size)
            u_parts.append(block_u)
            v_parts.append(block_v)
        offset += size
    if not u_parts:
        return Graph(num_nodes)
    return Graph.from_edge_arrays(
        num_nodes,
        np.concatenate(u_parts),
        np.concatenate(v_parts),
        deduplicate=False,
    )
