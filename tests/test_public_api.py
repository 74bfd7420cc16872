"""The package's public surface: exactly the names its CLI, its benchmark
and library callers use.  Helpers that only tests use live in
tests/_oracles.py."""

import ast
import dataclasses
import inspect

import chevkit
from chevkit import chevalley, experiments, jets, linalg, staircase, wedge
from chevkit.poly import Poly, TruncatedSeries, parse_poly

PUBLIC = [
    "AtLeast", "is_censored",
    "HEURISTIC", "INCONCLUSIVE", "STABILIZED", "VERIFIED",
    "ChevalleyEngine", "ChevalleyEntry", "Leaf", "LeafSample",
    "RelationJets", "sample_leaf_chevalley", "validate_relations",
    "ChevkitError", "ConsistencyError", "InputError",
    "RelationsMismatchError", "WedgeCapError",
    "GrowthReport", "LinearBound", "ProductProbe",
    "TableRun", "fit_linear_bound", "product_order_probe",
    "residual_order_probe", "run_table", "taylor_growth_estimate",
    "verify_consistency",
    "degree", "dominates", "index_count", "indices_of_degree",
    "indices_up_to", "mono_key",
    "FibredTuple", "JetMatrix", "JetSystem", "PolyMap", "jet_matrix",
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
    "initial_exponent", "TruncationError", "ConsistencyReport",
    "OrderProbe", "jet_blocks",
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
    (linalg, "_integer_row"), (experiments, "OrderProbe"),
    (jets, "jet_blocks"), (jets.JetMatrix, "prefix"),
    (jets.JetSystem, "_prefix"), (TruncatedSeries, "to_poly"),
    (chevalley.RelationJets, "target"),
    (chevalley.ChevalleyEngine, "_hs_crosscheck"),
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


def test_result_records_carry_no_unread_fields():
    # no echo of an input (a probe's center, point, image, truncation,
    # trials or seed, a climb's k), no field that always holds one module
    # constant (every leaf row is HEURISTIC over LEAF_TRIALS draws), no
    # field another one determines (a row's l_stab column is read off its
    # status and l_value), and no count that the kernel already gives
    # (residual rank = ncols - kernel.dim)
    def names(record):
        return [f.name for f in dataclasses.fields(record)]

    assert names(experiments.TableRun) == ["entries", "leaf_samples"]
    assert names(chevalley.LeafSample) == [
        "leaf_name", "k", "l_generic", "rank_profile", "samples", "mismatch"]
    assert names(experiments.OrderEntry) == ["value", "normal_form"]
    assert names(wedge.MembershipResult) == ["kernel", "absorbed_rank"]
    assert names(chevalley.RelationJets) == [
        "status", "l_value", "chain", "codim"]
    assert names(chevalley.ChevalleyEntry) == [
        "map_name", "tuple_id", "k", "l_value", "h_value", "status"]
    assert names(experiments.ProductProbe) == [
        "triples", "excluded", "envelope"]
    assert names(experiments.GrowthReport) == [
        "entries", "warnings", "heuristic"]
    assert names(experiments.GrowthEntry) == [
        "l", "slope", "bounded", "certified"]
    assert names(experiments.LinearBound) == ["alpha", "beta", "witnesses"]
    # provisional is read off the vertices
    assert names(staircase.Diagram) == [
        "arity", "trunc_degree", "vertices", "span"]
    assert not hasattr(experiments, "ConsistencyReport")


def test_no_cache_without_a_second_reader():
    # no run asks one engine for the same climb twice, only the jet verb's
    # dump reads a jet matrix's exact entries, once, and an order-l jet
    # matrix is one list of the build's rows, cheap to make again
    phi = jets.PolyMap("square", [parse_poly("x1^2", 1)])
    tup = jets.FibredTuple.make(phi, [(0,)])
    engine = chevalley.ChevalleyEngine(phi, tup, relations=[], l_max=4)
    engine.relation_jets(1)
    jm = jets.jet_matrix(phi, tup, 2)
    jm.matrix
    assert not hasattr(engine, "_relation_jets")
    assert not hasattr(jm, "_matrix")
    assert not hasattr(jm, "_integer")
    assert not hasattr(engine.jets, "_jets")


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


def test_membership_routes_take_one_matrix_and_a_column_split():
    # the kept block is the columns before cut, the absorbed block the
    # columns at and past it
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(wedge.membership_kernel) == ["matrix", "cut"]
    assert params(wedge.membership_operator) == ["matrix", "cut", "r"]
    assert params(linalg.Elimination.kernel) == ["self", "stop"]


def test_jet_reads_take_an_order_and_no_window():
    # the order-l jet matrix is read off the one build by l, and the guard
    # always tests every order-l guard row: the projected kernels are nested
    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(jets.JetSystem.kernel_contains) == \
        ["self", "l", "k", "vectors"]
    assert params(jets.JetMatrix.integer_matrix) == ["self", "l"]
    assert params(chevalley.diagram_threshold_test) == \
        ["phi", "tup", "k", "l", "diagram"]
    assert not hasattr(jets, "copy")


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
