"""prect: finite projective rectangles and exact certification of their graph of lines.

Subpackages follow the pipeline: gf (field arithmetic), incidence (axioms),
construct (the two families), linegraph (strong regularity), cliques (the
point/plane census), bilinear (the matrix-graph isomorphism), geometry (the
partial geometries), analysis (coloring, cycles, Krein), export and cli.
"""

__version__ = "0.1.0"

from .analysis import (chromatic_analysis, chromatic_index_bracket,
                       eulerian_verdict, hamiltonian_search, krein_check,
                       planarity_verdict, validate_cycle)
from .bilinear import build_hq2k, certify_isomorphism, line_matrix_map, map_line_to_matrix, rank2xk
from .cliques import (classify_census, clique_intersections,
                      enumerate_maximal_cliques, extract_plane)
from .construct import build_l2k, build_plane, build_subplane_rect, common_point
from .geometry import build_plane_clique_structure, build_point_clique_geometry
from .gf import FieldCtx, embed_subfield, field_make
from .incidence import (IncidenceStructure, check_axioms, elementary_counts,
                        find_isomorphism, order_of)
from .linegraph import (LineGraph, build_line_graph, certify_srg, diameter,
                        factorization_check, vertex_connectivity)

__all__ = [
    "FieldCtx", "field_make", "embed_subfield",
    "IncidenceStructure", "check_axioms", "order_of", "elementary_counts",
    "find_isomorphism",
    "build_l2k", "build_subplane_rect", "build_plane", "common_point",
    "LineGraph", "build_line_graph", "certify_srg", "diameter",
    "factorization_check", "vertex_connectivity",
    "enumerate_maximal_cliques", "classify_census", "clique_intersections",
    "extract_plane",
    "build_hq2k", "rank2xk", "map_line_to_matrix", "line_matrix_map",
    "certify_isomorphism",
    "build_point_clique_geometry", "build_plane_clique_structure",
    "planarity_verdict", "eulerian_verdict", "hamiltonian_search",
    "validate_cycle", "chromatic_analysis", "chromatic_index_bracket",
    "krein_check",
]
