"""Property-based differential suite for the dynamic layer.

Drives random insert/delete batch sequences through ``DeltaGraph`` and
``IncrementalTriangleOracle`` and, after *every* batch, pins the
incremental answers exactly against from-scratch recomputation on the
compacted graph: triangle count, per-node counts, the full edge_support
index, and the listed created/destroyed triangle sets.  The vectorized
wedge closure is pinned against the per-edge loop it replaced, and the
snapshot's row, degree and membership reads against the reference edge
set.

Every example runs under all three base membership strategies in turn
(dense matrix, packed bitset, sorted keys); graphs of up to 30 nodes
leave room for the sparse draws the larger serving workloads produce.  A tiny compaction
threshold makes sequences routinely cross compaction boundaries, the
batch generator deliberately re-inserts recently deleted edges, and it
plants and removes triangles two or three edges at a time so one batch
often holds several edges of one triangle.
"""

from hypothesis import given, settings, strategies as st
import numpy as np

from csr_strategies import STRATEGIES, membership_strategy, pinned_strategy
from repro.congest.backends import use_chunk_bytes
from repro.dynamic import DeltaGraph, IncrementalTriangleOracle
from repro.dynamic.oracle import _affected_triangles
from repro.graphs import Graph

MAX_NODES = 30


def _pick_triangle_edges(draw, triangle):
    a, b, c = triangle
    edges = [(a, b), (a, c), (b, c)]
    return draw(st.sampled_from([edges, edges[:2], edges[1:], [edges[0], edges[2]]]))


@st.composite
def batch_sequences(draw, max_nodes=MAX_NODES):
    """A start graph plus a sequence of insert/delete batches over it."""
    num_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    possible = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    start = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=min(len(possible), 150))
        if possible
        else st.just([])
    )
    edges = set(start)
    planted = []
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        if not possible:
            batches.append(([], []))
            continue
        insert = set(draw(st.lists(st.sampled_from(possible), unique=True, max_size=6)))
        delete = set()
        if num_nodes >= 3 and draw(st.booleans()):
            triangle = tuple(
                sorted(draw(st.lists(st.integers(0, num_nodes - 1), min_size=3, max_size=3, unique=True)))
            )
            insert |= set(_pick_triangle_edges(draw, triangle))
            planted.append(triangle)
        if planted and draw(st.booleans()):
            delete |= set(_pick_triangle_edges(draw, draw(st.sampled_from(planted))))
        present = sorted(edges)
        if present:
            delete |= set(draw(st.lists(st.sampled_from(present), unique=True, max_size=6)))
        delete -= insert
        edges = (edges | insert) - delete
        batches.append((sorted(insert), sorted(delete)))
    return num_nodes, start, batches


def reference_state(num_nodes, edge_set):
    graph = Graph(num_nodes, sorted(edge_set))
    csr = graph.csr()
    keys = csr._edge_key_array()
    return (
        csr.count_triangles(),
        csr.local_triangle_counts().astype(np.int64),
        dict(zip(keys.tolist(), csr.edge_support().tolist())),
        {tuple(t) for t in csr.triangles()},
    )


def reference_affected_triangles(snapshot, keys, num_nodes):
    """The per-edge loop the vectorized closure replaced: common neighbours
    of each batch edge, with the min-index rule by dict lookup."""
    n = max(num_nodes, 1)
    key_list = keys.tolist()
    index = {key: i for i, key in enumerate(key_list)}
    out = []
    for i, key in enumerate(key_list):
        u, v = key // n, key % n
        for w in snapshot.common_neighbors(u, v).tolist():
            lo_uw, hi_uw = (u, w) if u < w else (w, u)
            lo_vw, hi_vw = (v, w) if v < w else (w, v)
            j = index.get(lo_uw * n + hi_uw)
            if j is not None and j < i:
                continue
            j = index.get(lo_vw * n + hi_vw)
            if j is not None and j < i:
                continue
            a, b, c = sorted((u, v, w))
            out.append((a, b, c))
    out.sort()
    return out


def edge_keys(edges, num_nodes):
    n = max(num_nodes, 1)
    return np.array(sorted(u * n + v for u, v in edges), dtype=np.int64)


def assert_reads_match(snapshot, edge_set, strategy):
    """Rows, degrees and membership of ``snapshot`` equal the edge set's."""
    num_nodes = snapshot.num_nodes
    if snapshot.base.num_edges:
        assert membership_strategy(snapshot.base) == strategy
    rows = {node: [] for node in range(num_nodes)}
    for u, v in sorted(edge_set):
        rows[u].append(v)
        rows[v].append(u)
    nodes = np.arange(num_nodes, dtype=np.int64)
    for node in range(num_nodes):
        assert snapshot.neighbors(node).tolist() == sorted(rows[node])
        assert snapshot.degree(node) == len(rows[node])
    assert snapshot.degrees(nodes).tolist() == [len(rows[node]) for node in range(num_nodes)]
    item, other = snapshot.gather_neighbors(nodes[::-1])
    gathered = {node: [] for node in range(num_nodes)}
    for i, w in zip(item.tolist(), other.tolist()):
        gathered[num_nodes - 1 - i].append(w)
    assert {node: sorted(ws) for node, ws in gathered.items()} == {
        node: sorted(ws) for node, ws in rows.items()
    }
    u, v = np.meshgrid(nodes, nodes, indexing="ij")
    expected = np.zeros((num_nodes, num_nodes), dtype=bool)
    for a, b in edge_set:
        expected[a, b] = expected[b, a] = True
    assert np.array_equal(snapshot.has_edges(u, v), expected)


@given(
    case=batch_sequences(),
    compact_threshold=st.sampled_from([2, 4, 1_000_000]),
    # 1 byte closes one batch edge per window; None keeps the default bound.
    chunk_bytes=st.sampled_from([None, 1, 640]),
)
@settings(max_examples=120, deadline=None)
def test_oracle_matches_recompute_after_every_batch(case, compact_threshold, chunk_bytes):
    for strategy in STRATEGIES:
        with pinned_strategy(strategy), use_chunk_bytes(chunk_bytes):
            check_oracle_against_recompute(case, compact_threshold, strategy)


def check_oracle_against_recompute(case, compact_threshold, strategy):
    num_nodes, start, batches = case
    oracle = IncrementalTriangleOracle(Graph(num_nodes, start), compact_threshold=compact_threshold)
    edge_set = set(start)
    n = max(num_nodes, 1)
    triangles = reference_state(num_nodes, edge_set)[3]

    for insert, delete in batches:
        before = oracle.snapshot
        delta = oracle.apply_batch(insert=insert, delete=delete)
        after = oracle.snapshot
        edge_set |= set(insert)
        edge_set -= set(delete)

        total, node_counts, support, new_triangles = reference_state(num_nodes, edge_set)

        # Counts and indexes, exactly.
        assert oracle.total_triangles == total
        assert np.array_equal(oracle.node_counts(), node_counts)
        assert {lo * n + hi: s for (lo, hi), s in oracle.support_map().items()} == support

        # The streamed listing is exactly the symmetric difference.
        assert set(delta.created) == new_triangles - triangles
        assert set(delta.destroyed) == triangles - new_triangles
        triangles = new_triangles

        # The one-pass closure equals the per-edge loop, order included.
        for snapshot, edges, listed in (
            (before, delta.deleted, delta.destroyed),
            (after, delta.inserted, delta.created),
        ):
            keys = edge_keys(edges, num_nodes)
            expected = reference_affected_triangles(snapshot, keys, num_nodes)
            closed = _affected_triangles(snapshot, keys, num_nodes)
            assert [tuple(row) for row in closed.tolist()] == expected
            assert list(listed) == expected

        assert_reads_match(after, edge_set, strategy)

        # Effective edges recorded in the delta match the set evolution.
        assert set(delta.inserted) <= set(insert)
        assert set(delta.deleted) <= set(delete)

    # Terminal cross-check: the snapshot compacts to the reference CSR.
    final = oracle.snapshot.compact()
    ref = Graph(num_nodes, sorted(edge_set)).csr()
    assert final.indices.tobytes() == ref.indices.tobytes()
    assert final.indptr.tobytes() == ref.indptr.tobytes()


@given(case=batch_sequences())
@settings(max_examples=80, deadline=None)
def test_delta_graph_matches_set_semantics(case):
    num_nodes, start, batches = case
    for strategy in STRATEGIES:
        with pinned_strategy(strategy):
            delta = DeltaGraph(Graph(num_nodes, start), compact_threshold=3)
            edge_set = set(start)
            for version, (insert, delete) in enumerate(batches, start=1):
                snap, _, _ = delta.apply_batch(insert=insert, delete=delete)
                edge_set |= set(insert)
                edge_set -= set(delete)
                assert snap.version == version
                assert snap.num_edges == len(edge_set)
                assert snap.edge_keys().tolist() == edge_keys(edge_set, num_nodes).tolist()
                assert_reads_match(snap, edge_set, strategy)
