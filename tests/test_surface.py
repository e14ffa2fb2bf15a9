"""The public surface, pinned name by name: adding a method, a forwarding
wrapper or a package export, or dropping one, fails here until the list
below is changed with it."""

import inspect

import spectop
from spectop import FinitePoset


def test_finite_poset_public_names():
    assert sorted(name for name in dir(FinitePoset) if not name.startswith("_")) == [
        "closure", "covers", "derivative_in", "dual", "elements", "from_json", "height",
        "is_open", "isolated_in", "rank_int", "scattered_via_closed_subsets", "to_json",
    ]


def test_package_public_names():
    names = sorted(name for name, value in vars(spectop).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == [
        "Analysis", "ArityError", "BenchResult", "CANTOR", "COFAN", "Cantor", "CoFan", "Con",
        "ConflictError", "CycleError", "Dual", "EmptySpaceError", "ExplicitTopology", "FAN", "Fan",
        "FieldsGenerate", "Fin", "FinitePoset", "KnownTruth", "Ltg", "OMEGA", "OMEGA_PLUS_ONE",
        "OmegaPlusOne", "Ordinal", "ParseError", "RingEntry", "RingMeta", "SizeError", "SpaceExpr",
        "SpectopError", "SuiteConfig", "SuiteReport", "Sum", "Tower", "UnknownLabelError", "Verdict",
        "ZERO", "analyze", "catalog", "cb_layering", "construct_poset",
        "count_posets_by_relation_filter", "disjoint_union", "downset_topology",
        "enumerate_labeled_posets", "evaluate", "export", "get_entry", "is_normal", "leaves",
        "normalize", "oracle_rank", "oracle_scattered", "parse_cnf",
        "parse_expr", "print_expr", "random_expr", "random_poset", "run_bench",
        "run_property_suite",
    ]
