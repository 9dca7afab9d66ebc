"""prect: finite projective rectangles and exact certification of their graph of lines.

Subpackages follow the pipeline: gf (field arithmetic), incidence (axioms),
construct (the two families), linegraph (strong regularity), cliques (the
point/plane census), bilinear (the matrix-graph isomorphism), geometry (the
partial geometries), analysis (coloring, cycles, Krein), export and cli.
"""

__version__ = "0.1.0"

from .analysis import (chromatic_analysis, chromatic_by_construction,
                       chromatic_index_bracket, chromatic_index_by_construction,
                       eulerian_verdict, hamiltonian_by_construction, hamiltonian_search,
                       krein_check, planarity_verdict, validate_cycle)
from .bilinear import build_hq2k, certify_isomorphism, line_matrix_map, map_line_to_matrix
from .cliques import (classify_census, clique_intersections,
                      enumerate_maximal_cliques, extract_plane)
from .construct import build_l2k, build_plane, build_subplane_rect
from .geometry import build_plane_clique_structure, build_point_clique_geometry
from .gf import FieldCtx, embed_subfield, field_make
from .incidence import IncidenceStructure, check_axioms, elementary_counts, order_of
from .linegraph import (LineGraph, build_line_graph, certify_srg, diameter,
                        factorization_check, vertex_connectivity)

__all__ = [
    "FieldCtx", "field_make", "embed_subfield",
    "IncidenceStructure", "check_axioms", "order_of", "elementary_counts",
    "build_l2k", "build_subplane_rect", "build_plane",
    "LineGraph", "build_line_graph", "certify_srg", "diameter",
    "factorization_check", "vertex_connectivity",
    "enumerate_maximal_cliques", "classify_census", "clique_intersections",
    "extract_plane",
    "build_hq2k", "map_line_to_matrix", "line_matrix_map",
    "certify_isomorphism",
    "build_point_clique_geometry", "build_plane_clique_structure",
    "planarity_verdict", "eulerian_verdict", "hamiltonian_search",
    "hamiltonian_by_construction", "validate_cycle", "chromatic_analysis",
    "chromatic_by_construction", "chromatic_index_bracket",
    "chromatic_index_by_construction", "krein_check",
]
