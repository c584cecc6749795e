"""Finite n-graphs and the n-category structures they admit.

Carriers live in :mod:`ncats.graphs`, composition tables and axiom checkers
in :mod:`ncats.structures`, exact structure counting in
:mod:`ncats.enumeration`, maps between carriers in :mod:`ncats.morphisms`,
worked families of examples in :mod:`ncats.cobordism`, and the JSON file
format plus command line front end in :mod:`ncats.io` and :mod:`ncats.cli`.
"""

from .graphs import (
    BadLevel,
    CellId,
    DimensionMismatch,
    DimensionTooHigh,
    GraphAutomorphism,
    GraphError,
    GraphValidationError,
    HomSet,
    NGraph,
    SpaceTooLarge,
    StructureTail,
    ValidationIssue,
    ValidationReport,
    automorphisms,
    cell_type,
    graph_maps,
    hom_graph,
    hom_set,
    is_monoidal_carrier,
    is_skeletal,
    iterated_boundary,
    opposite,
    skeletal_graph,
    validate_graph,
)
from .structures import (
    AxiomCheck,
    AxiomFlags,
    AxiomReport,
    CategoryStructure,
    CocompTable,
    CompTable,
    Counterexample,
    HCompTable,
    StructureError,
    check_associativity,
    check_category,
    check_cocategory,
    check_global,
    check_groupoid,
    check_interchange,
    check_typing,
    check_units,
    compose,
    composable,
    composable_pairs,
    h_composable_pairs,
)
from .enumeration import (
    EnumLimits,
    EnumResult,
    EnumSpec,
    NotSkeletal,
    SkeletalCertificate,
    brute_force_oracle,
    canonical_form,
    enumerate_structures,
    verify_skeletal_uniqueness,
)
from .morphisms import (
    GraphMorphism,
    Modification,
    Transformation,
    VarianceSpec,
    build_cat_of_cats,
    check_contravariant,
    check_functor,
    check_graph_morphism,
    check_modification,
    check_transformation,
    compose_morphisms,
    enumerate_functors,
    enumerate_transformations,
    identity_morphism,
)
from .cobordism import (
    BoundaryMismatch,
    MatchDiagram,
    all_diagrams,
    build_cob_truncation,
    disjoint_union,
    gen_sets_graph,
    glue,
    make_cylinder,
    parse_signs,
    reverse_orientation,
)
from .io import (
    DanglingReference,
    GraphDocument,
    ParseError,
    UnknownVersion,
    build_document,
    document_from_graph,
    document_from_structure,
    load_document,
    parse,
    report_document,
    serialize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
