"""One refusal rule for orders, degrees and counts: errors.check_int.

Every entry point that takes an order, degree, count or column split
refuses a bool, a float, a str, a value below its floor and one past its
upper end with the same InputError text, naming the argument, and never
with a TypeError from a later comparison or index.
"""

import pytest

from chevkit.chevalley import (
    ChevalleyEngine,
    Leaf,
    diagram_threshold_test,
    sample_leaf_chevalley,
)
from chevkit.errors import InputError, check_int
from chevkit.experiments import product_order_probe, residual_order_probe
from chevkit.indices import index_count, indices_of_degree, indices_up_to
from chevkit.jets import FibredTuple, JetSystem, PolyMap, jet_matrix
from chevkit.linalg import Matrix, Subspace, staged_elimination
from chevkit.poly import Poly, TruncatedSeries, parse_poly
from chevkit.staircase import (
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_jet_space,
)
from chevkit.wedge import membership_kernel, membership_operator

Y2 = ["y1", "y2"]


def cusp():
    return PolyMap("cusp", [parse_poly("x1^2", 1), parse_poly("x1^3", 1)])


def cusp_tuple():
    return FibredTuple.make(cusp(), [(0,)])


def cusp_relations():
    return [parse_poly("y1^3 - y2^2", 2, names=Y2)]


def cusp_presentation():
    return IdealPresentation.make(cusp_relations(), (0, 0))


def zero_ideal():
    # no generator degree, so every truncation from 0 up is allowed
    return IdealPresentation.make([], (0, 0))


def pair_leaf():
    pe = lambda s: parse_poly(s, 1, names=["t"])
    return Leaf.make("pair", ["t"], [[pe("t")], [pe("-t")]])


def squaring():
    return PolyMap("squaring", [parse_poly("x1^2", 1)])


def matrix():
    return Matrix([{0: 1}, {1: 2, 2: 1}], 3)


def engine():
    return ChevalleyEngine(cusp(), cusp_tuple(), relations=cusp_relations(),
                           l_max=6)


# (entry point, what the message names, low, high, call with the value)
ENTRY_POINTS = [
    ("Matrix", "column count", 0, None, lambda v: Matrix([], v)),
    ("staged_elimination", "column count", 0, None,
     lambda v: staged_elimination([], v, [])),
    ("Subspace.from_vectors", "ambient dimension", 0, None,
     lambda v: Subspace.from_vectors([], v)),
    ("Elimination.kernel", "kernel stop", 0, 3,
     lambda v: staged_elimination([{0: 1}], 3, [range(3)]).kernel(v)),
    ("Subspace.project", "projection dimension", 0, 2,
     lambda v: Subspace.from_vectors([{0: 1}], 2).project(v)),
    ("membership_kernel", "column split", 0, 3,
     lambda v: membership_kernel(matrix(), v)),
    ("membership_operator.cut", "column split", 0, 3,
     lambda v: membership_operator(matrix(), v, 1)),
    ("membership_operator.r", "wedge order", 0, None,
     lambda v: membership_operator(matrix(), 1, v)),
    ("jet_matrix", "jet order", 0, None,
     lambda v: jet_matrix(cusp(), cusp_tuple(), v)),
    ("JetMatrix.grow", "jet order", 0, None,
     lambda v: jet_matrix(cusp(), cusp_tuple(), 1).grow(v)),
    ("JetMatrix.layer", "jet order", 0, 2,
     lambda v: jet_matrix(cusp(), cusp_tuple(), 2).layer(v)),
    ("JetMatrix.integer_matrix", "jet order", 0, 2,
     lambda v: jet_matrix(cusp(), cusp_tuple(), 2).integer_matrix(v)),
    ("JetSystem.quotient_dim.l", "jet order", 0, None,
     lambda v: JetSystem(cusp(), cusp_tuple()).quotient_dim(v, 0)),
    ("JetSystem.quotient_dim.k", "block degree", 0, 3,
     lambda v: JetSystem(cusp(), cusp_tuple()).quotient_dim(3, v)),
    ("JetSystem.projected_kernel.l", "jet order", 0, None,
     lambda v: JetSystem(cusp(), cusp_tuple()).projected_kernel(v, 0)),
    ("JetSystem.projected_kernel.k", "block degree", 0, 3,
     lambda v: JetSystem(cusp(), cusp_tuple()).projected_kernel(3, v)),
    ("JetSystem.kernel_contains.l", "jet order", 0, None,
     lambda v: JetSystem(cusp(), cusp_tuple()).kernel_contains(v, 0, [])),
    ("JetSystem.kernel_contains.k", "block degree", 0, 3,
     lambda v: JetSystem(cusp(), cusp_tuple()).kernel_contains(3, v, [])),
    ("ChevalleyEngine.l_max", "l_max", 0, None,
     lambda v: ChevalleyEngine(cusp(), cusp_tuple(), l_max=v)),
    ("ChevalleyEngine.window", "stabilization window", 1, None,
     lambda v: ChevalleyEngine(cusp(), cusp_tuple(), window=v)),
    ("relation_jets", "degree k", 0, 6, lambda v: engine().relation_jets(v)),
    ("ChevalleyEngine.diagram", "truncation degree", 0, None,
     lambda v: engine().diagram(v)),
    ("ChevalleyEngine.relation_space", "degree k", 0, None,
     lambda v: engine().relation_space(v)),
    ("diagram_threshold.k", "degree k", 0, 3,
     lambda v: engine().diagram_threshold(v, 3)),
    ("diagram_threshold.l", "jet order l", 0, 6,
     lambda v: engine().diagram_threshold(0, v)),
    ("diagram_threshold_test.k", "degree k", 0, 3,
     lambda v: diagram_threshold_test(
         cusp(), cusp_tuple(), v, 3,
         diagram_from_generators(cusp_presentation(), 8))),
    ("diagram_threshold_test.l", "jet order l", 0, None,
     lambda v: diagram_threshold_test(
         cusp(), cusp_tuple(), 0, v,
         diagram_from_generators(cusp_presentation(), 8))),
    ("sample_leaf_chevalley", "degree k", 0, 6,
     lambda v: sample_leaf_chevalley(squaring(), pair_leaf(), [v], l_max=6)),
    ("sample_leaf_chevalley.l_max", "l_max", 0, None,
     lambda v: sample_leaf_chevalley(squaring(), pair_leaf(), [], l_max=v)),
    ("diagram_from_generators", "truncation degree", 0, None,
     lambda v: diagram_from_generators(zero_ideal(), v)),
    ("hilbert_samuel_count", "degree k", 0, 8,
     lambda v: hilbert_samuel_count(
         diagram_from_generators(cusp_presentation(), 8), v)),
    ("ideal_jet_space", "degree k", 0, None,
     lambda v: ideal_jet_space(cusp_presentation(), v)),
    ("product_order_probe.trials", "trials", 1, None,
     lambda v: product_order_probe(cusp_presentation(), trials=v, trunc=4)),
    ("product_order_probe.trunc", "product probe truncation degree", 2, None,
     lambda v: product_order_probe(zero_ideal(), trials=1, trunc=v)),
    ("residual_order_probe.trunc", "probe truncation degree", 0, None,
     lambda v: residual_order_probe(zero_ideal(), [], trunc=v)),
    ("TruncatedSeries", "truncation degree", 0, None,
     lambda v: TruncatedSeries(1, {}, v)),
    ("Poly.truncate", "truncation degree", 0, None,
     lambda v: parse_poly("x1^2", 1).truncate(v)),
    ("Poly.taylor", "truncation degree", 0, None,
     lambda v: parse_poly("x1^2", 1).taylor((1,), v)),
    ("Poly", "arity", 1, None, lambda v: Poly(v)),
    ("parse_poly", "arity", 1, None, lambda v: parse_poly("x1", v)),
    ("indices_of_degree.arity", "arity", 1, None,
     lambda v: indices_of_degree(v, 2)),
    ("indices_of_degree.d", "degree", 0, None,
     lambda v: indices_of_degree(2, v)),
    ("indices_up_to.arity", "arity", 1, None, lambda v: indices_up_to(v, 2)),
    ("index_count.arity", "arity", 1, None, lambda v: index_count(v, 2)),
    # the jet build's count below degree 0
    ("index_count.d", "degree", -1, None, lambda v: index_count(2, v)),
]


def _refusals():
    for name, what, low, high, call in ENTRY_POINTS:
        bad = [True, 2.0, "1", low - 1] + ([] if high is None else [high + 1])
        span = f">= {low}" if high is None else f"in {low}..{high}"
        for value in bad:
            yield pytest.param(
                call, value, f"{what} must be an int {span}, got {value!r}",
                id=f"{name}-{value!r}")


@pytest.mark.parametrize("call, value, message", _refusals())
def test_every_entry_point_refuses_through_one_rule(call, value, message):
    # an InputError with the one message form; a TypeError fails the test
    with pytest.raises(InputError) as err:
        call(value)
    assert str(err.value) == message


@pytest.mark.parametrize("name, what, low, high, call", [
    pytest.param(*entry, id=entry[0]) for entry in ENTRY_POINTS])
def test_every_entry_point_takes_its_ends(name, what, low, high, call):
    # the same entry points accept both ends of the range they name
    call(low)
    if high is not None:
        call(high)


@pytest.mark.parametrize("ks", [[True], [2.0], [-1], [7], [1, 2.0]])
@pytest.mark.parametrize("relations", [None, []])
def test_leaf_ks_refused_before_any_engine(ks, relations, monkeypatch):
    built = []
    init = ChevalleyEngine.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChevalleyEngine, "__init__", counting)
    with pytest.raises(InputError, match="degree k must be an int in 0..6"):
        sample_leaf_chevalley(squaring(), pair_leaf(), ks, l_max=6,
                              relations=relations)
    assert built == []


@pytest.mark.parametrize("value", [True, False, 2.0, "1", None])
def test_indices_up_to_degree_must_be_an_int(value):
    # any int degree is allowed, an empty enumeration below 0
    with pytest.raises(InputError) as err:
        indices_up_to(2, value)
    assert str(err.value) == f"degree must be an int, got {value!r}"
    assert indices_up_to(2, -3) == ()


@pytest.mark.parametrize("cached", [indices_of_degree, indices_up_to])
def test_a_bool_never_reads_the_entry_of_its_int(cached):
    # the caches key by type, so the check runs on the bool's own miss
    # after 1 and 0 are cached
    cached(2, 1)
    cached(1, 0)
    for value in (True, False):
        with pytest.raises(InputError, match="degree must be an int"):
            cached(2, value)
    with pytest.raises(InputError, match="arity must be an int >= 1"):
        cached(True, 0)


def test_check_int_bounds_are_inclusive():
    assert check_int(0, "n") is None
    assert check_int(3, "n", 3, 3) is None
    assert check_int(10**30, "n") is None
    with pytest.raises(InputError) as err:
        check_int(4, "n", 3, 3)
    assert str(err.value) == "n must be an int in 3..3, got 4"
    assert check_int(-10**30, "n", None) is None
    with pytest.raises(InputError) as err:
        check_int(2.0, "n", None)
    assert str(err.value) == "n must be an int, got 2.0"
    with pytest.raises(InputError) as err:
        check_int(False, "n", 1)
    assert str(err.value) == "n must be an int >= 1, got False"
