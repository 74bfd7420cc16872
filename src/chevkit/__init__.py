"""Exact jet, staircase, and threshold computations for polynomial maps."""

from .censored import AtLeast, is_censored
from .chevalley import (
    HEURISTIC,
    INCONCLUSIVE,
    STABILIZED,
    VERIFIED,
    ChevalleyEngine,
    ChevalleyEntry,
    Leaf,
    LeafSample,
    RelationJets,
    sample_leaf_chevalley,
    validate_relations,
)
from .errors import (
    ChevkitError,
    ConsistencyError,
    InputError,
    RelationsMismatchError,
    WedgeCapError,
)
from .experiments import (
    CompositeOrder,
    LinearBound,
    ProductProbe,
    TableRun,
    composite_order_probe,
    fit_linear_bound,
    product_order_probe,
    residual_order_probe,
    run_table,
    verify_consistency,
)
from .indices import (
    degree,
    dominates,
    index_count,
    indices_of_degree,
    indices_up_to,
    mono_key,
)
from .jets import (
    FibredTuple,
    JetMatrix,
    JetSystem,
    PolyMap,
    jet_matrix,
)
from .linalg import Matrix, Subspace, staged_elimination
from .poly import (
    Poly,
    TruncatedSeries,
    format_poly,
    parse_poly,
    parse_rational,
)
from .scenario import (
    Scenario,
    load_scenario,
    parse_scenario,
    point_key,
    relations_for,
    scenario_tuples,
    tuple_key,
)
from .staircase import (
    Diagram,
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_jet_space,
    normal_form,
    residual_order,
)
from .wedge import (
    DEFAULT_WEDGE_CAP,
    MembershipResult,
    membership_kernel,
    membership_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AtLeast", "is_censored",
    "HEURISTIC", "INCONCLUSIVE", "STABILIZED", "VERIFIED",
    "ChevalleyEngine", "ChevalleyEntry", "Leaf", "LeafSample",
    "RelationJets", "sample_leaf_chevalley", "validate_relations",
    "ChevkitError", "ConsistencyError", "InputError",
    "RelationsMismatchError", "WedgeCapError",
    "CompositeOrder", "LinearBound", "ProductProbe",
    "TableRun", "composite_order_probe", "fit_linear_bound",
    "product_order_probe", "residual_order_probe", "run_table",
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
