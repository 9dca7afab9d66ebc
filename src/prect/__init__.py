"""prect: finite projective rectangles and exact certification of their graph of lines.

Modules follow the pipeline; each is compiled only by the `prect`
subcommands named here.

  cli, _util   every subcommand: the parser, build, and shared helpers
  structure    every subcommand: incidence structures, models, A1's walk
  export       every subcommand: model JSON, written by build, read by the rest
  construct    build: the two families
  gf           build of a coordinatized model, analyze, iso, verify --profile
               full of a subplane model, export --what model of a
               coordinatized one: field arithmetic
  pipeline     every subcommand but build: the runs that read a model
  incidence    verify: the axioms A1-A6 and the elementary counts
  linegraph    verify, cliques, iso, geometry, analyze, export of a graph or a
               census: the graph of lines, srg, planarity, Euler tours, Krein
  cliques      verify, cliques, geometry, export --what census: the census
  geometry     verify --profile full, geometry: the partial geometries
  bilinear     verify --profile full of a subplane model, iso: H_q(2,k)
  analysis     analyze: coloring, cycles

The names in __all__ are loaded from their home module on first use
(PEP 562), so importing prect, or one `prect` subcommand, loads only the
modules that it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "gf": ("FieldCtx", "field_make", "embed_subfield"),
    "structure": ("IncidenceStructure", "order_of"),
    "incidence": ("check_axioms", "elementary_counts"),
    "construct": ("build_l2k", "build_subplane_rect", "build_plane"),
    "linegraph": ("LineGraph", "build_line_graph", "certify_srg", "planarity_verdict",
                  "eulerian_verdict", "krein_check"),
    "cliques": ("enumerate_maximal_cliques", "classify_census", "clique_intersections",
                "extract_plane"),
    "bilinear": ("build_hq2k", "map_line_to_matrix", "line_matrix_map",
                 "certify_isomorphism"),
    "geometry": ("build_point_clique_geometry", "build_plane_clique_structure"),
    "analysis": ("hamiltonian_search", "hamiltonian_by_construction", "validate_cycle",
                 "chromatic_analysis", "chromatic_by_construction", "chromatic_index_bracket",
                 "chromatic_index_by_construction"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
