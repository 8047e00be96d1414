"""The Dolev–Lenzen–Peled triangle-listing baseline for the CONGEST clique.

Table 1's first row: "Tri, tri again" (Dolev et al., DISC 2012) lists all
triangles on the congested clique deterministically in
``O(n^{1/3} (log n)^{2/3})`` rounds.  The algorithm:

1. Partition the vertex set into ``k = ⌈n^{1/3}⌉`` groups of (almost) equal
   size, by identifier ranges (every node can compute the partition locally
   from ``n``).
2. Assign to each node one (or a few) of the ``C(k+2, 3)`` unordered group
   triples ``{A, B, C}`` (with repetition), again by a fixed rule computable
   from identifiers alone.
3. Every node forwards each of its incident edges to every node responsible
   for a triple containing both endpoint groups, using Lenzen's routing
   primitive (each message is one edge = ``O(log n)`` bits).
4. Each responsible node locally lists the triangles whose three edges it
   received and whose vertex-group multiset equals its assigned triple.

With ``k = n^{1/3}`` there are about ``n/6`` triples, each node receives
``O(n^{4/3})`` bits of edges, and Lenzen routing delivers the whole exchange
in ``O(n^{1/3})`` rounds — sublinear, and strictly cheaper than what any
CONGEST (non-clique) algorithm can do for listing given the paper's
``Ω(n^{1/3}/log n)`` clique lower bound (Theorem 3).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..congest.backends import use_chunk_bytes, validate_chunk_bytes
from ..congest.clique import CliqueSimulator
from ..congest.metrics import AlgorithmCost
from ..congest.node import emit_grouped_keys
from ..congest.routing import LenzenRouter, RoutingRequest
from ..congest.wire import RoutedEdgeSchema, edge_bits
from ..errors import ProtocolError
from ..graphs.csr import triangles_by_group
from ..graphs.graph import Graph
from ..types import Edge, Triangle, decode_triangle_keys, make_edge, make_triangle
from .base import validate_kernel
from .output import AlgorithmResult, TriangleOutput


def partition_into_groups(num_nodes: int, num_groups: int) -> List[int]:
    """Return the group index of every node under the balanced id-range partition.

    Node ``v`` belongs to group ``⌊v · num_groups / n⌋`` (clamped), which
    every node can evaluate locally — no communication is needed to agree on
    the partition.
    """
    if num_groups < 1:
        raise ValueError(f"num_groups must be positive, got {num_groups}")
    return [
        min(num_groups - 1, (node * num_groups) // max(1, num_nodes))
        for node in range(num_nodes)
    ]


def group_triples(num_groups: int) -> List[Tuple[int, int, int]]:
    """Return all unordered group triples (with repetition), sorted.

    A triangle whose vertices lie in groups ``a <= b <= c`` is the
    responsibility of the node assigned the triple ``(a, b, c)``; allowing
    repetition covers triangles with two or three vertices in one group.
    """
    return list(combinations_with_replacement(range(num_groups), 3))


def responsible_node(triple_index: int, num_nodes: int) -> int:
    """Return the node responsible for the ``triple_index``-th group triple.

    Triples are assigned round-robin by index; with ``k = ⌈n^{1/3}⌉`` there
    are at most ``(k+2)^3/6 ≈ n/6`` triples so each node is responsible for
    O(1) triples.
    """
    return triple_index % num_nodes


class DolevCliqueListing:
    """Deterministic triangle listing on the congested clique (Dolev et al.).

    Parameters
    ----------
    group_count:
        Number of groups ``k``; ``None`` selects ``⌈n^{1/3}⌉`` as the
        original analysis does.
    routing_constant:
        Constant-round factor of the Lenzen routing primitive.
    kernel:
        ``"batched"`` (default) builds the routing instance as array
        programs over the canonical CSR edge arrays, routes it through the
        typed columnar plane on the direct-exchange path, and lists every
        responsible node's edges with one grouped oracle call over the
        delivered channel columns; ``"reference"`` builds per-message
        :class:`~repro.congest.routing.RoutingRequest` objects.  Identical
        executions on both paths.
    """

    name = "Dolev-clique-listing"
    model = "CONGEST clique"

    def __init__(
        self,
        group_count: Optional[int] = None,
        routing_constant: int = 2,
        kernel: str = "batched",
        chunk_bytes: Optional[int] = None,
    ) -> None:
        if group_count is not None and group_count < 1:
            raise ProtocolError(
                f"group_count must be at least 1 (or None for the "
                f"⌈n^(1/3)⌉ choice), got {group_count}"
            )
        if routing_constant < 1:
            raise ProtocolError(
                f"routing_constant must be at least 1, got {routing_constant}"
            )
        self._group_count = group_count
        self._routing_constant = routing_constant
        self._kernel = validate_kernel(kernel)
        self._chunk_bytes = validate_chunk_bytes(chunk_bytes)

    def describe_parameters(self) -> Dict[str, Any]:
        return {
            "group_count": self._group_count,
            "routing_constant": self._routing_constant,
            "kernel": self._kernel,
            "chunk_bytes": self._chunk_bytes,
        }

    def run(
        self, graph: Graph, seed: Optional[int | np.random.Generator] = None
    ) -> AlgorithmResult:
        """Run the clique listing algorithm and return the packaged result."""
        with use_chunk_bytes(self._chunk_bytes):
            return self._run(graph, seed)

    def _run(
        self, graph: Graph, seed: Optional[int | np.random.Generator] = None
    ) -> AlgorithmResult:
        num_nodes = graph.num_nodes
        simulator = CliqueSimulator(graph, seed=seed)
        router = LenzenRouter(simulator, constant_rounds=self._routing_constant)

        group_count = (
            self._group_count
            if self._group_count is not None
            else max(1, math.ceil(num_nodes ** (1.0 / 3.0)))
        )
        groups = partition_into_groups(num_nodes, group_count)
        triples = group_triples(group_count)
        triple_owner = {
            triple: responsible_node(index, num_nodes)
            for index, triple in enumerate(triples)
        }
        # Pre-index: for every unordered pair of groups, the triples that
        # contain both (as a multiset).  An edge between those groups must be
        # routed to each owner of such a triple.
        pair_to_triples: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
        for triple in triples:
            for first in range(3):
                for second in range(first + 1, 3):
                    pair = tuple(sorted((triple[first], triple[second])))
                    bucket = pair_to_triples.setdefault(pair, [])
                    if triple not in bucket:
                        bucket.append(triple)

        if self._kernel == "batched":
            self._execute_direct(
                graph, simulator, router, groups, triples, triple_owner, pair_to_triples
            )
        else:
            self._route_reference(
                graph, simulator, router, groups, triple_owner, pair_to_triples
            )
            self._list_reference(simulator, groups)

        output = TriangleOutput.from_contexts(simulator.contexts, simulator.num_nodes)
        return AlgorithmResult(
            algorithm=self.name,
            model=simulator.model_name,
            output=output,
            cost=AlgorithmCost.from_metrics(simulator.metrics),
            metrics=simulator.metrics,
            parameters={
                "group_count": group_count,
                "num_triples": len(triples),
                "routing_constant": self._routing_constant,
                "kernel": self._kernel,
            },
        )

    def _route_reference(
        self, graph, simulator, router, groups, triple_owner, pair_to_triples
    ) -> None:
        """Build the routing instance as per-message request objects."""
        # The lower-id endpoint of every edge forwards it to each
        # responsible node (one copy per triple).
        requests: List[RoutingRequest] = []
        per_edge_bits = edge_bits(graph.num_nodes)
        for u, v in graph.edges():
            pair = tuple(sorted((groups[u], groups[v])))
            for triple in pair_to_triples.get(pair, []):
                owner = triple_owner[triple]
                if owner == u:
                    # The owner already knows its incident edges; no routing
                    # message is needed for them.
                    simulator.context(owner).state.setdefault("edges", set()).add(
                        (make_edge(u, v), triple)
                    )
                    continue
                requests.append(
                    RoutingRequest(
                        source=u,
                        destination=owner,
                        payload=("edge", make_edge(u, v), triple),
                        bits=per_edge_bits,
                    )
                )
        router.route(requests, name="dolev:route-edges")

    def _list_reference(self, simulator, groups) -> None:
        """Local listing at every responsible node (pair-list inboxes)."""
        for context in simulator.contexts:
            edges_by_triple: Dict[Tuple[int, int, int], Set[Edge]] = {}
            for stored_edge, triple in context.state.get("edges", set()):
                edges_by_triple.setdefault(triple, set()).add(stored_edge)
            for _, payload in context.received():
                _, received_edge, triple = payload
                edges_by_triple.setdefault(triple, set()).add(received_edge)
            for triple, edge_set in edges_by_triple.items():
                for triangle in _triangles_with_group_signature(
                    edge_set, groups, triple
                ):
                    context.output_triangle(*triangle)

    def _execute_direct(
        self, graph, simulator, router, groups, triples, triple_owner, pair_to_triples
    ) -> None:
        """The direct-exchange kernel: grouped routing, fused listing.

        Identical routed instance (and therefore identical Lenzen round
        accounting) to the reference kernel, but the delivery comes back as
        destination-grouped channel arrays and the owners' local listing
        runs as one grouped oracle call keyed by (owner, triple) — no
        per-node inboxes, edge sets or Python listing walks.  The owners'
        own incident edges, which skip routing in both kernels, ride along
        as arrays instead of per-context state.
        """
        num_nodes = graph.num_nodes
        csr = graph.csr()
        edge_u, edge_v = csr.edges_array()
        groups_arr = np.asarray(groups, dtype=np.int64)
        pair_low = np.minimum(groups_arr[edge_u], groups_arr[edge_v])
        pair_high = np.maximum(groups_arr[edge_u], groups_arr[edge_v])
        triple_index = {triple: index for index, triple in enumerate(triples)}

        src_chunks: List[np.ndarray] = []
        owner_list: List[int] = []
        owner_counts: List[int] = []
        u_chunks: List[np.ndarray] = []
        v_chunks: List[np.ndarray] = []
        t_list: List[int] = []
        own_owner: List[int] = []
        own_triple: List[int] = []
        own_counts: List[int] = []
        own_u_chunks: List[np.ndarray] = []
        own_v_chunks: List[np.ndarray] = []
        for (low, high), bucket in pair_to_triples.items():
            selected = np.flatnonzero((pair_low == low) & (pair_high == high))
            if selected.shape[0] == 0:
                continue
            pair_u = edge_u[selected]
            pair_v = edge_v[selected]
            for triple in bucket:
                owner = triple_owner[triple]
                own = pair_u == owner
                own_count = int(own.sum())
                if own_count:
                    # The owner already knows its incident edges; no routing
                    # message is needed for them.
                    own_owner.append(owner)
                    own_triple.append(triple_index[triple])
                    own_counts.append(own_count)
                    own_u_chunks.append(pair_u[own])
                    own_v_chunks.append(pair_v[own])
                routed = ~own
                count = int(routed.sum())
                if count == 0:
                    continue
                src_chunks.append(pair_u[routed])
                owner_list.append(owner)
                owner_counts.append(count)
                u_chunks.append(pair_u[routed])
                v_chunks.append(pair_v[routed])
                t_list.append(triple_index[triple])
        schema = RoutedEdgeSchema(triples)
        channel = None
        if src_chunks:
            counts = np.asarray(owner_counts, dtype=np.int64)
            delivered = router.route_columns_direct(
                schema,
                np.concatenate(src_chunks),
                np.repeat(np.asarray(owner_list, dtype=np.int64), counts),
                {
                    "u": np.concatenate(u_chunks),
                    "v": np.concatenate(v_chunks),
                    "triple": np.repeat(np.asarray(t_list, dtype=np.int64), counts),
                },
                bits=edge_bits(num_nodes),
                name="dolev:route-edges",
            )
            channel = delivered.channel(schema)
        else:
            router.route([], name="dolev:route-edges")

        # Fused listing: every (owner, triple) bucket is one group of the
        # grouped oracle.  Composite group ids ``owner · |triples| + triple``
        # keep buckets disjoint and owner-ascending.
        num_triples = len(triples)
        gid_pieces: List[np.ndarray] = []
        gu_pieces: List[np.ndarray] = []
        gv_pieces: List[np.ndarray] = []
        if channel is not None and channel.count:
            gid_pieces.append(
                channel.dst * np.int64(num_triples) + channel.data["triple"]
            )
            gu_pieces.append(channel.data["u"])
            gv_pieces.append(channel.data["v"])
        if own_owner:
            repeats = np.asarray(own_counts, dtype=np.int64)
            gid_pieces.append(
                np.repeat(
                    np.asarray(own_owner, dtype=np.int64) * np.int64(num_triples)
                    + np.asarray(own_triple, dtype=np.int64),
                    repeats,
                )
            )
            gu_pieces.append(np.concatenate(own_u_chunks))
            gv_pieces.append(np.concatenate(own_v_chunks))
        if not gid_pieces:
            return
        gid = np.concatenate(gid_pieces)
        all_u = np.concatenate(gu_pieces)
        all_v = np.concatenate(gv_pieces)
        order = np.argsort(gid, kind="stable")
        tri_gids, tri_keys = triangles_by_group(
            gid[order], all_u[order], all_v[order], num_nodes
        )
        if tri_keys.shape[0] == 0:
            return
        # Keep only triangles whose vertex-group multiset equals the
        # bucket's assigned triple (the signature rule that makes every
        # triangle the responsibility of exactly one owner).
        a, b, c = decode_triangle_keys(tri_keys, num_nodes)
        signatures = np.stack(
            (groups_arr[a], groups_arr[b], groups_arr[c]), axis=1
        )
        signatures.sort(axis=1)
        triples_arr = np.asarray(triples, dtype=np.int64)
        expected = triples_arr[tri_gids % num_triples]
        keep = (signatures == expected).all(axis=1)
        if not keep.any():
            return
        kept_gids = tri_gids[keep]
        kept_keys = tri_keys[keep]
        emit_grouped_keys(
            simulator.contexts, kept_gids // num_triples, kept_keys
        )


def _triangles_with_group_signature(
    edges: Set[Edge], groups: Sequence[int], triple: Tuple[int, int, int]
) -> List[Triangle]:
    """List triangles of ``edges`` whose vertex groups form exactly ``triple``.

    Restricting to the exact group signature keeps every triangle the
    responsibility of exactly one triple owner, so the global output contains
    no systematic duplication (beyond what the paper's model permits anyway).
    """
    adjacency: Dict[int, Set[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    found: List[Triangle] = []
    vertices = sorted(adjacency)
    expected = tuple(sorted(triple))
    for u in vertices:
        higher = sorted(w for w in adjacency[u] if w > u)
        for index, v in enumerate(higher):
            for w in higher[index + 1:]:
                if w in adjacency[v]:
                    signature = tuple(sorted((groups[u], groups[v], groups[w])))
                    if signature == expected:
                        found.append(make_triangle(u, v, w))
    return found


def dolev_round_bound(num_nodes: int) -> float:
    """Return the Dolev et al. closed-form bound ``n^{1/3} (log n)^{2/3}``."""
    n = float(max(2, num_nodes))
    return n ** (1.0 / 3.0) * math.log2(n) ** (2.0 / 3.0)
