"""Finite n-graphs and the n-category structures they admit.

Carriers live in :mod:`ncats.graphs`, composition tables and axiom checkers
in :mod:`ncats.structures`, exact structure counting in
:mod:`ncats.enumeration`, maps between carriers in :mod:`ncats.morphisms`,
worked families of examples in :mod:`ncats.cobordism`, and the JSON file
format plus command line front end in :mod:`ncats.io` and :mod:`ncats.cli`.

Importing the package runs none of them: a submodule, and each public name
it exports here, is loaded on first use (PEP 562), so a program pays only
for the modules it touches.
"""

import importlib

# each public name of the package, by the submodule that defines it
_EXPORTS = {
    "graphs": (
        "BadLevel", "CellId", "DimensionMismatch", "DimensionTooHigh",
        "GraphAutomorphism", "GraphError", "GraphValidationError", "HomSet",
        "NGraph", "SpaceTooLarge", "StructureTail", "ValidationIssue",
        "ValidationReport", "automorphisms", "cell_type", "graph_maps",
        "hom_graph", "hom_set", "is_monoidal_carrier", "is_skeletal",
        "iterated_boundary", "opposite", "skeletal_graph", "validate_graph",
    ),
    "structures": (
        "AxiomCheck", "AxiomFlags", "AxiomReport", "CategoryStructure",
        "CocompTable", "Counterexample", "StructureError",
        "check_associativity", "check_category", "check_cocategory",
        "check_global", "check_groupoid", "check_interchange",
        "check_typing", "check_units", "compose", "composable",
        "composable_pairs", "h_composable_pairs",
    ),
    "enumeration": (
        "EnumLimits", "EnumResult", "EnumSpec", "NotSkeletal",
        "SkeletalCertificate", "brute_force_oracle", "canonical_form",
        "enumerate_structures", "verify_skeletal_uniqueness",
    ),
    "morphisms": (
        "GraphMorphism", "Modification", "Transformation", "VarianceSpec",
        "build_cat_of_cats", "check_contravariant", "check_functor",
        "check_graph_morphism", "check_modification", "check_transformation",
        "compose_morphisms", "enumerate_functors", "enumerate_transformations",
        "identity_morphism",
    ),
    "cobordism": (
        "BoundaryMismatch", "MatchDiagram", "all_diagrams",
        "build_cob_truncation", "disjoint_union", "gen_sets_graph", "glue",
        "make_cylinder", "parse_signs", "reverse_orientation",
    ),
    "io": (
        "DanglingReference", "GraphDocument", "ParseError", "UnknownVersion",
        "build_document", "document_from_graph", "document_from_structure",
        "load_document", "parse", "report_document", "serialize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the command line front end is a submodule, but exports nothing here
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _SUBMODULES:
        # importing binds the submodule on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
