"""Graph substrate: representation, generators, ground truth and IO.

This package provides everything the reproduction needs about graphs *as
global objects*: construction, synthetic workload generation, centralized
triangle ground truth, and serialisation.  Node programs running inside the
CONGEST simulator never see these objects — they only receive their local
view through :class:`repro.congest.node.NodeContext`.
"""

from .csr import CSRGraph
from .graph import Graph, InducedSubgraph, is_connected
from .generators import (
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_random_graph,
    heavy_edge_gadget,
    lollipop_graph,
    planted_triangle_graph,
    random_regular_graph,
    triangle_free_bipartite,
    union_of_cliques,
)
from .triangles import (
    clustering_coefficient,
    count_triangles,
    delta_set_membership,
    edge_support,
    heaviness_threshold,
    heavy_triangles,
    is_triangle_free,
    iter_triangles_reference,
    light_triangles,
    list_triangles,
    local_triangle_count,
    pair_in_delta,
    rivin_edge_lower_bound,
    triangles_through_node,
)
from .io import (
    from_edge_list_string,
    read_edge_list,
    read_edge_stream,
    to_edge_list_string,
    write_edge_list,
)

__all__ = [
    "CSRGraph",
    "Graph",
    "InducedSubgraph",
    "is_connected",
    "barabasi_albert_graph",
    "complete_graph",
    "cycle_graph",
    "empty_graph",
    "gnp_random_graph",
    "heavy_edge_gadget",
    "lollipop_graph",
    "planted_triangle_graph",
    "random_regular_graph",
    "triangle_free_bipartite",
    "union_of_cliques",
    "clustering_coefficient",
    "count_triangles",
    "delta_set_membership",
    "edge_support",
    "heaviness_threshold",
    "heavy_triangles",
    "is_triangle_free",
    "iter_triangles_reference",
    "light_triangles",
    "list_triangles",
    "local_triangle_count",
    "pair_in_delta",
    "rivin_edge_lower_bound",
    "triangles_through_node",
    "from_edge_list_string",
    "read_edge_list",
    "read_edge_stream",
    "to_edge_list_string",
    "write_edge_list",
]
