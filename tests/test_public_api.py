"""The package's public surface: exactly the names its CLI, its benchmark
and library callers use.  Helpers that only tests use live in
tests/_oracles.py."""

import ast
import inspect

import chevkit
from chevkit import chevalley, experiments, jets, linalg, staircase, wedge
from chevkit.poly import Poly, TruncatedSeries

PUBLIC = [
    "AtLeast", "is_censored",
    "HEURISTIC", "INCONCLUSIVE", "STABILIZED", "VERIFIED",
    "ChevalleyEngine", "ChevalleyEntry", "Leaf", "LeafSample",
    "RelationJets", "sample_leaf_chevalley", "validate_relations",
    "ChevkitError", "ConsistencyError", "InputError",
    "RelationsMismatchError", "WedgeCapError",
    "ConsistencyReport", "GrowthReport", "LinearBound", "OrderProbe",
    "ProductProbe", "TableRun", "fit_linear_bound", "product_order_probe",
    "residual_order_probe", "run_table", "taylor_growth_estimate",
    "verify_consistency",
    "degree", "dominates", "index_count", "indices_of_degree",
    "indices_up_to", "mono_key",
    "FibredTuple", "JetMatrix", "JetSystem", "PolyMap", "jet_blocks",
    "jet_matrix",
    "Matrix", "Subspace", "staged_elimination",
    "Poly", "TruncatedSeries", "format_poly", "parse_poly",
    "parse_rational",
    "Scenario", "load_scenario", "parse_scenario", "point_key",
    "relations_for", "scenario_tuples", "tuple_key",
    "Diagram", "IdealPresentation", "diagram_from_generators",
    "hilbert_samuel_count", "ideal_jet_space", "normal_form",
    "residual_order",
    "DEFAULT_WEDGE_CAP", "MembershipResult", "membership_kernel",
    "membership_operator",
]

# package-level names that moved to tests/_oracles.py or were deleted
REMOVED = [
    "jet_kernel", "projected_jet_kernel", "jet_quotient_dim",
    "column_span", "image_kernel_check", "wedge_operator",
    "diagram_threshold_test", "mono_cmp", "position_map",
    "initial_exponent", "TruncationError",
]

# (owner, attribute) pairs that only tests used, or that were deleted
REMOVED_ATTRIBUTES = [
    (linalg.Matrix, name) for name in (
        "apply", "__matmul__", "transpose", "zero", "kernel", "rank",
        "elimination", "row", "is_zero", "identity", "submatrix",
    )
] + [
    (linalg.Subspace, name) for name in (
        "intersect", "sum_with", "full_space", "zero_space",
    )
] + [
    (Poly, "scaled_derivative"), (Poly, "coeff"), (Poly, "support"),
    (Poly, "scale"), (Poly, "monomial"), (Poly, "variable"), (TruncatedSeries, "coeff"),
    (TruncatedSeries, "coeff_vector"), (TruncatedSeries, "__rmul__"),
    (jets.JetSystem, "membership_residual"),
    (linalg.Subspace, "integer_basis"), (jets, "component_series"),
    (linalg.Subspace, "basis"), (linalg.Subspace, "integer_rows"),
    (linalg.Subspace, "reduce_vector"), (linalg.Subspace, "contains_vector"),
    (chevalley.ChevalleyEngine, "chevalley_threshold"),
    (chevalley.ChevalleyEngine, "hilbert_samuel"),
    (staircase.IdealPresentation, "recentered_generators"),
    (chevalley.RelationJets, "subspace"), (chevalley, "KernelChain"),
    (jets, "jet_kernel"), (jets, "projected_jet_kernel"),
    (jets, "jet_quotient_dim"),
    (wedge, "column_span"), (wedge, "image_kernel_check"),
    (wedge, "wedge_operator"),
    (linalg.Matrix, "rows"), (jets.JetMatrix, "rows"),
    (linalg, "_integer_row"),
]


def test_all_is_pinned():
    assert chevkit.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in chevkit.__all__:
        assert getattr(chevkit, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(chevkit, name), name
    for owner, name in REMOVED_ATTRIBUTES:
        assert not hasattr(owner, name), (owner, name)


def test_linalg_has_no_fraction_zero():
    # canonical subspaces keep integer rows, so no shared Fraction zero
    # cell is left to test identity against
    assert not hasattr(linalg, "_ZERO")


def test_linalg_takes_no_fractions():
    # only sparse integer rows enter the kernel; Fraction rows are scaled
    # to integers where they are made
    assert not hasattr(linalg, "Fraction")


def test_signatures_carry_no_single_value_knobs():
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(experiments.verify_consistency) == ["scenario"]
    assert params(experiments.taylor_growth_estimate) == \
        ["f", "phi", "a", "ls", "seed"]
    assert params(chevalley.sample_leaf_chevalley) == \
        ["phi", "leaf", "ks", "seed", "l_max", "window", "relations"]
    assert params(jets.JetSystem) == ["phi", "tup"]


def test_experiments_imports_no_private_chevalley_name():
    tree = ast.parse(inspect.getsource(experiments))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "chevalley"
             for alias in node.names]
    assert names and not any(name.startswith("_") for name in names)


def test_single_value_knobs_are_constants():
    assert (experiments.MEMBERSHIP_L_CAP, experiments.DENSE_CELL_CAP) == \
        (6, 2000)
    assert (experiments.GROWTH_TOL, experiments.GROWTH_BOX,
            experiments.GROWTH_SHRINK, experiments.GROWTH_SCALES,
            experiments.GROWTH_SAMPLES) == (0.15, 0.5, 0.5, 6, 40)
