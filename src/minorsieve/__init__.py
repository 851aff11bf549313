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
from .canon import canonical_graph, canonical_key
from .planarity import is_planar
from .properties import Property, UPWARD_CLOSED, Witness, check, \
    check_with_witness, find_apex_vertex
from .minimality import is_minor_minimal, is_minor_minimal_exhaustive, \
    is_minor_minimal_upclosed, is_mmnc, is_mmne, mmne_structure_violations
from .generate import EnumFilter, SearchReport, count_graphs, \
    enumerate_partition, generate_graphs, search_minor_minimal
from .catalog import CatalogEntry, all_entries, appendix_graphs, \
    build_mmna_family, build_named, counterexample, mm_catalog, \
    verify_catalog, verify_entries
from .moves import explore_family, star_to_triangle, triangle_to_star, \
    triangles
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
    "enumerate_partition",
    "explore_family",
    "find_apex_vertex",
    "generate_graphs",
    "is_minor_minimal",
    "is_minor_minimal_exhaustive",
    "is_minor_minimal_upclosed",
    "is_mmnc",
    "is_mmne",
    "is_planar",
    "mm_catalog",
    "mmne_structure_violations",
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
