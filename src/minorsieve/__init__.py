"""Graph-minor toolkit for planarity-adjacent properties.

Exhaustive, isomorphism-free search for minor-minimal graphs of eight
properties built from planarity and the three single-step minor
operations, plus the catalog of known minimal graphs the searches are
validated against.
"""

__version__ = "0.1.0"

from .errors import CatalogError, EdgeListParseError, Graph6ParseError, \
    ResourceLimitError
from .graphs import Graph, disjoint_union, one_vertex_union, two_vertex_union
from .canon import canonical_graph, canonical_key, is_isomorphic
from .planarity import is_planar
from .properties import Property, UPWARD_CLOSED, Witness, check, \
    check_with_witness, find_apex_edge, find_apex_vertex, \
    find_contraction_apex
from .minimality import is_minor_minimal, is_minor_minimal_exhaustive, \
    is_minor_minimal_upclosed, is_mmnc, is_mmne, mmne_structure_violations, \
    one_step_minors
from .generate import EnumFilter, SearchReport, count_graphs, \
    enumerate_graphs, enumerate_partition, generate_graphs, \
    search_minor_minimal
from .catalog import CatalogEntry, all_entries, appendix_graphs, \
    build_mmna_family, build_named, counterexample, mm_catalog, \
    verify_catalog, verify_entries
from .moves import explore_family, ne_preserved_after_ty, star_to_triangle, \
    triangle_to_star, triangles
from .formats import emit_edge_list, emit_graph6, parse_edge_list, \
    parse_graph6, read_graphs

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "EdgeListParseError",
    "EnumFilter",
    "Graph",
    "Graph6ParseError",
    "Property",
    "ResourceLimitError",
    "SearchReport",
    "UPWARD_CLOSED",
    "Witness",
    "__version__",
    "all_entries",
    "appendix_graphs",
    "build_mmna_family",
    "build_named",
    "canonical_graph",
    "canonical_key",
    "check",
    "check_with_witness",
    "count_graphs",
    "counterexample",
    "disjoint_union",
    "emit_edge_list",
    "emit_graph6",
    "enumerate_graphs",
    "enumerate_partition",
    "explore_family",
    "find_apex_edge",
    "find_apex_vertex",
    "find_contraction_apex",
    "generate_graphs",
    "is_isomorphic",
    "is_minor_minimal",
    "is_minor_minimal_exhaustive",
    "is_minor_minimal_upclosed",
    "is_mmnc",
    "is_mmne",
    "is_planar",
    "mm_catalog",
    "mmne_structure_violations",
    "ne_preserved_after_ty",
    "one_step_minors",
    "one_vertex_union",
    "parse_edge_list",
    "parse_graph6",
    "read_graphs",
    "search_minor_minimal",
    "star_to_triangle",
    "triangle_to_star",
    "triangles",
    "two_vertex_union",
    "verify_catalog",
    "verify_entries",
]
