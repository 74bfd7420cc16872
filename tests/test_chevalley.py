import copy
import gc
import re
import weakref
from fractions import Fraction
from math import comb

import pytest

import _oracles as oracles
from chevkit.censored import AtLeast, is_censored
from chevkit.chevalley import (
    HEURISTIC,
    INCONCLUSIVE,
    LEAF_TRIALS,
    STABILIZED,
    VERIFIED,
    ChevalleyEngine,
    Leaf,
    diagram_threshold_test,
    sample_leaf_chevalley,
    validate_relations,
)
from hypothesis import given, settings, strategies as st

from chevkit import chevalley as chevalley_module
from chevkit import staircase as staircase_module
from chevkit.errors import ConsistencyError, InputError, RelationsMismatchError
from chevkit.experiments import DENSE_CELL_CAP, run_table
from chevkit.indices import index_count, indices_up_to
from chevkit.jets import (
    FibredTuple,
    JetSystem,
    PolyMap,
)
from chevkit.linalg import Subspace
from chevkit.poly import Poly, parse_poly
from chevkit.scenario import parse_scenario
from chevkit.staircase import (
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_jet_space,
    ideal_multiples,
    normal_form,
    residual_order,
)
from chevkit.wedge import membership_kernel, membership_operator

Y2 = ["y1", "y2"]
Y3 = ["y1", "y2", "y3"]


def squaring():
    return PolyMap("squaring", [parse_poly("x1^2", 1)])


def cusp():
    return PolyMap("cusp", [parse_poly("x1^2", 1), parse_poly("x1^3", 1)])


def cone():
    comps = [parse_poly(t, 2) for t in ("x1", "x1 x2", "x1 x2^2")]
    return PolyMap("cone", comps)


def cusp_engine(l_max=12, window=3, gens=("y1^3 - y2^2",), point=(0,)):
    phi = cusp()
    tup = FibredTuple.make(phi, [point])
    relations = [parse_poly(g, 2, names=Y2) for g in gens]
    return ChevalleyEngine(phi, tup, relations=relations, l_max=l_max,
                           window=window)


class TestValidation:
    def test_good_generator_passes(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1^3 - y2^2", 2, names=Y2)
        assert validate_relations(phi, tup, [g]) == (g,)

    def test_arity_mismatch(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1^2", 3, names=Y3)
        with pytest.raises(InputError, match="arity"):
            validate_relations(phi, tup, [g])

    def test_nonvanishing_generator_is_unit_ideal(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1 + 1", 2, names=Y2)
        with pytest.raises(InputError, match="unit ideal"):
            validate_relations(phi, tup, [g])

    def test_non_relation_rejected(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = parse_poly("y1", 2, names=Y2)
        with pytest.raises(InputError, match="compose to zero"):
            validate_relations(phi, tup, [g])

    def test_engine_parameter_bounds(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        with pytest.raises(InputError):
            ChevalleyEngine(phi, tup, l_max=-1)
        with pytest.raises(InputError):
            ChevalleyEngine(phi, tup, window=0)
        # a float failed late with a TypeError, and True ran as l_max 1
        for bad in (3.0, 2.5, True, False, "4", None):
            with pytest.raises(InputError, match="l_max must be an int"):
                ChevalleyEngine(phi, tup, l_max=bad)
            with pytest.raises(InputError, match="window must be an int"):
                ChevalleyEngine(phi, tup, window=bad)
        eng = ChevalleyEngine(phi, tup, l_max=4)
        with pytest.raises(InputError):
            eng.relation_jets(5)
        with pytest.raises(InputError):
            eng.relation_jets(-1)


class TestVerifiedThresholds:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_cusp_origin(self, k):
        eng = cusp_engine()
        rj = eng.relation_jets(k)
        assert rj.status == VERIFIED
        assert rj.l_value == 2 * k + 1
        assert eng.relation_jets(k).codim == 2 * k + 1
        assert oracles.relation_subspace(eng, rj) == eng.relation_space(k)
        assert eng.relation_space(k) == eng.jets.projected_kernel(
            rj.l_value, k)

    @pytest.mark.parametrize("k", range(1, 5))
    def test_squaring_origin_zero_ideal(self, k):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, relations=[], l_max=10)
        rj = eng.relation_jets(k)
        assert rj.status == VERIFIED
        assert rj.l_value == 2 * k
        assert oracles.relation_subspace(eng, rj).is_zero()
        assert eng.relation_jets(k).codim == k + 1

    @pytest.mark.parametrize("k", range(1, 4))
    def test_squaring_pair(self, k):
        phi = squaring()
        tup = FibredTuple.make(phi, [(1,), (-1,)])
        eng = ChevalleyEngine(phi, tup, relations=[], l_max=8)
        rj = eng.relation_jets(k)
        assert rj.status == VERIFIED
        assert rj.l_value == k
        assert eng.relation_jets(k).codim == k + 1

    def test_cone_thresholds(self):
        phi = cone()
        g = [parse_poly("y2^2 - y1 y3", 3, names=Y3)]
        origin = ChevalleyEngine(
            phi, FibredTuple.make(phi, [(0, 0)]), relations=g, l_max=8
        )
        assert origin.relation_jets(1).l_value == 3
        assert origin.relation_jets(1).codim == 4
        assert origin.relation_jets(2).codim == 9
        off = ChevalleyEngine(
            phi, FibredTuple.make(phi, [(0, 1)]), relations=g, l_max=8
        )
        assert off.relation_jets(1).l_value == 3
        assert off.relation_jets(2).codim == 9
        smooth = ChevalleyEngine(
            phi, FibredTuple.make(phi, [(1, 1)]), relations=g, l_max=8
        )
        assert smooth.relation_jets(2).l_value == 2
        assert smooth.relation_jets(2).codim == 6

    def test_threshold_matches_brute_force_search(self):
        # the chains settle well inside the cap, so the sympy dimension
        # scan is an independent route to the same thresholds
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        eng = cusp_engine()
        for k in (1, 2):
            expected = oracles.threshold_by_stabilization(
                phi.components, tup.points, tup.image, k, 10
            )
            assert eng.relation_jets(k).l_value == expected
        sq = squaring()
        sq_tup = FibredTuple.make(sq, [(0,)])
        sq_eng = ChevalleyEngine(sq, sq_tup, relations=[], l_max=10)
        for k in (1, 2, 3):
            expected = oracles.threshold_by_search(
                sq.components, sq_tup.points, sq_tup.image, k, 10
            )
            assert sq_eng.relation_jets(k).l_value == expected

    def test_mid_chain_plateau_is_tolerated(self):
        # the dimension chain pauses twice on its way down; only the final
        # value matters in verified mode
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, relations=[], l_max=14, window=3)
        rj = eng.relation_jets(6)
        dims = [eng.jets.projected_kernel(l, 6).dim for l in rj.chain]
        assert dims == [3, 3, 2, 2, 1, 1, 0]
        assert rj.status == VERIFIED
        assert rj.l_value == 12

    def test_chain_is_nested(self):
        eng = cusp_engine()
        chain = [eng.jets.projected_kernel(l, 2)
                 for l in eng.relation_jets(2).chain]
        for prev, cur in zip(chain, chain[1:]):
            assert prev.contains(cur)

    def test_relation_jets_compare_by_value(self):
        eng = cusp_engine()
        a, b = eng.relation_jets(2), cusp_engine().relation_jets(2)
        assert a == b and hash(a) == hash(b)
        last = a.chain[-1]
        assert ((last, eng.jets.projected_kernel(last, 2))
                == (a.l_value, oracles.relation_subspace(eng, a)))

    def test_chain_is_the_range_of_orders_read(self, monkeypatch):
        a, b = cusp_engine().relation_jets(2), cusp_engine().relation_jets(2)
        assert type(a.chain) is range and a.chain == range(2, 6)

        # comparing and hashing results builds no projected kernel
        def refuse(self, l, k):
            raise AssertionError("projected kernel built")
        monkeypatch.setattr(JetSystem, "projected_kernel", refuse)
        assert a == b and hash(a) == hash(b)

    def test_censored_when_range_too_short(self):
        eng = cusp_engine(l_max=5)
        rj = eng.relation_jets(3)
        assert rj.status == VERIFIED
        assert rj.l_value == AtLeast(6)
        # the exact subspace is still reported
        assert oracles.relation_subspace(eng, rj) == eng.relation_space(3)
        assert rj.codim == eng.relation_space(3).codim

    def test_incomplete_generators_detected(self):
        # y1 * (y1^3 - y2^2) composes to zero but generates a smaller ideal
        eng = cusp_engine(gens=("y1^4 - y1 y2^2",))
        eng.relation_jets(1)  # too coarse to notice at k=1
        with pytest.raises(RelationsMismatchError):
            eng.relation_jets(2)


class TestWindowMode:
    def test_squaring_stabilizes(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, l_max=6, window=2)
        rj = eng.relation_jets(1)
        assert rj.status == STABILIZED
        assert rj.l_value == 2
        assert [eng.jets.projected_kernel(l, 1).dim
                for l in rj.chain] == [1, 0, 0]

    def test_inconclusive_when_window_never_fills(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup, l_max=3, window=3)
        rj = eng.relation_jets(2)
        assert rj.status == INCONCLUSIVE
        assert rj.l_value == AtLeast(2)
        assert is_censored(rj.l_value)

    def test_window_matches_verified_on_stable_case(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        heuristic = ChevalleyEngine(phi, tup, l_max=12, window=3)
        certified = cusp_engine()
        for k in (1, 2, 3):
            assert (oracles.relation_subspace(
                        heuristic, heuristic.relation_jets(k))
                    == oracles.relation_subspace(
                        certified, certified.relation_jets(k)))
            assert (heuristic.relation_jets(k).l_value
                    == certified.relation_jets(k).l_value)


class TestDiagramRoute:
    def test_engine_route_agrees(self):
        eng = cusp_engine()
        for k in (1, 2):
            lv = eng.relation_jets(k).l_value
            for l in range(k, 9):
                assert eng.diagram_threshold(k, l) == (l >= lv)

    @pytest.mark.parametrize("phi, point, gen", [
        (cusp(), (0,), "y1^3 - y2^2"),
        (cone(), (1, 1), "y2^2 - y1 y3"),
    ])
    def test_reads_enumerate_no_index_prefix(self, phi, point, gen):
        # the staircase route takes its column exponents from the
        # diagram's own enumeration and the membership routes their split
        # from index_count, so no order leaves an indices_up_to cache entry
        n = phi.target_arity
        eng = ChevalleyEngine(
            phi, FibredTuple.make(phi, [point]),
            relations=[parse_poly(gen, n, names=Y3[:n])], l_max=8)
        eng.diagram(eng.l_max)
        size = indices_up_to.cache_info().currsize
        for l in range(eng.l_max + 1):
            for k in range(l + 1):
                eng.diagram_threshold(k, l)
                membership_kernel(eng.jets.jet(l), index_count(n, k))
        assert indices_up_to.cache_info().currsize == size

    @pytest.mark.parametrize("point", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("l", [6, 7, 8])
    def test_order_past_l_max_refused(self, point, l):
        # the engine's staircase is exact only through l_max here; past it
        # the staircase route dropped columns and answered True, where an
        # engine with a deeper staircase answers False
        phi = cone()
        tup = FibredTuple.make(phi, [point])
        g = [parse_poly("y2^2 - y1*y3", 3, names=Y3)]
        shallow = ChevalleyEngine(phi, tup, relations=g, l_max=2)
        with pytest.raises(InputError, match=re.escape(
                f"jet order l must be an int in 0..2, got {l}")):
            shallow.diagram_threshold(3, l)
        deep = ChevalleyEngine(phi, tup, relations=g, l_max=10)
        assert deep.diagram_threshold(3, l) is False

    def test_negative_degree_refused(self):
        # the staircase routes refuse k < 0 as the chain route does, in
        # place of answering True
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        g = [parse_poly("y1^3 - y2^2", 2, names=Y2)]
        engine = ChevalleyEngine(phi, tup, relations=g, l_max=6)
        with pytest.raises(InputError, match=re.escape(
                "degree k must be an int in 0..6, got -1")):
            engine.relation_jets(-1)
        with pytest.raises(InputError, match=re.escape(
                "degree k must be an int in 0..3, got -1")):
            engine.diagram_threshold(-1, 3)
        with pytest.raises(InputError, match=re.escape(
                "degree k must be an int in 0..3, got -1")):
            diagram_threshold_test(phi, tup, -1, 3, engine.diagram(6))

    def test_no_relations_refused_after_the_range_checks(self):
        # an engine told nothing of the relation ideal has no staircase, so
        # every staircase read refuses it, once k and l have passed their
        # checks, with the text diagram() has always given
        phi = cusp()
        engine = ChevalleyEngine(phi, FibredTuple.make(phi, [(0,)]),
                                 l_max=6)
        engine.relation_jets(2)
        for read in (lambda: engine.diagram_threshold(2, 4),
                     lambda: engine.fresh_diagram_thresholds(4),
                     lambda: engine.diagram(3),
                     lambda: engine.relation_space(3)):
            with pytest.raises(InputError) as exc:
                read()
            assert str(exc.value) == "no relation generators were supplied"
        for read, text in [
                (lambda: engine.diagram_threshold(2, 7),
                 "jet order l must be an int in 0..6, got 7"),
                (lambda: engine.diagram_threshold(5, 4),
                 "degree k must be an int in 0..4, got 5"),
                (lambda: engine.fresh_diagram_thresholds(-1),
                 "jet order l must be an int in 0..6, got -1"),
                (lambda: engine.diagram(-1),
                 "truncation degree must be an int >= 0, got -1"),
                (lambda: engine.relation_space(True),
                 "degree k must be an int >= 0, got True")]:
            with pytest.raises(InputError) as exc:
                read()
            assert str(exc.value) == text

    def test_standalone_frozen(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], tup.image
        )
        diag = diagram_from_generators(pres, 8)
        assert diagram_threshold_test(phi, tup, 1, 3, diag) is True
        assert diagram_threshold_test(phi, tup, 1, 2, diag) is False

    def test_standalone_input_checks(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], tup.image
        )
        shallow = diagram_from_generators(pres, 4)
        with pytest.raises(InputError, match="exact through"):
            diagram_threshold_test(phi, tup, 2, 6, shallow)
        with pytest.raises(InputError, match=re.escape(
                "degree k must be an int in 0..2, got 3")):
            diagram_threshold_test(phi, tup, 3, 2, shallow)
        wrong_arity = diagram_from_generators(
            IdealPresentation.make([], (0, 0, 0)), 4
        )
        with pytest.raises(InputError, match="arity"):
            diagram_threshold_test(phi, tup, 1, 2, wrong_arity)

    def test_standalone_agrees_with_the_engine_route(self):
        # the standalone test makes its own build; the engine reads its
        # one build, grown once, at every order
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y2)], tup.image
        )
        diag = diagram_from_generators(pres, 6)
        assert diagram_threshold_test(phi, tup, 2, 5, diag) is True
        engine = cusp_engine(l_max=6)
        for l in range(2, 7):
            assert diagram_threshold_test(phi, tup, 2, l, diag) == \
                engine.diagram_threshold(2, l) == (l >= 5)


def _vanishing_at(p, center):
    return p - p.eval(center)


@st.composite
def presentations_at_centres(draw):
    """(engine, presentation) for 1-2 random generators in arity 1-3 at a
    random rational centre.  The map is constant at the centre, so every
    generator vanishing there is a relation.  Two generators share a
    factor, which makes their monomial multiples dependent."""
    n = draw(st.integers(1, 3))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exps = st.tuples(*([st.integers(0, 2)] * n)).filter(
        lambda b: 0 < sum(b) <= 2)
    poly = st.dictionaries(exps, coeff, min_size=1, max_size=3).map(
        lambda t: Poly(n, t)).filter(lambda p: not p.is_zero())
    center = draw(st.tuples(*([st.fractions(
        min_value=-2, max_value=2, max_denominator=3)] * n)))
    if draw(st.booleans()):
        gens = [_vanishing_at(draw(poly), center)]
    else:
        factor = _vanishing_at(draw(poly), center)
        gens = [factor * draw(poly), factor * draw(poly)]
    gens = [g for g in gens if not g.is_zero()]
    phi = PolyMap("constant", [Poly.constant(1, c) for c in center])
    tup = FibredTuple.make(phi, [(0,)])
    eng = ChevalleyEngine(phi, tup, relations=gens, l_max=6)
    return eng, IdealPresentation.make(gens, center)


# (map components, source arity, relations, points) of maps whose relation
# ideals are known; a combination of the relations is again one
RELATION_MAPS = [
    (("x1^2", "x1^3"), 1, ("y1^3 - y2^2",),
     [(0,), (1,), (-1,), (Fraction(1, 2),)]),
    (("x1", "x1 x2", "x1 x2^2"), 2, ("y2^2 - y1 y3",),
     [(0, 0), (0, 1), (1, 1)]),
    (("x1^3", "x1^4", "x1^5"), 1,
     ("y2^2 - y1 y3", "y1^3 - y2 y3", "y3^2 - y1^2 y2"),
     [(0,), (1,), (Fraction(1, 2),)]),
]


@st.composite
def relation_engines(draw):
    """An engine with 1-3 generators, each a relation of its map or a
    combination of them with small constant or linear multipliers, at one
    of the map's points, with l_max 8 and a window of 1-3.  The generated
    ideal may be smaller than the relation ideal, which the climb reports
    as a mismatch or a censored row."""
    comps, m, relations, points = draw(st.sampled_from(RELATION_MAPS))
    n = len(comps)
    names = [f"y{i + 1}" for i in range(n)]
    phi = PolyMap("map", [parse_poly(c, m) for c in comps])
    rels = [parse_poly(r, n, names=names) for r in relations]
    multipliers = st.sampled_from(
        ["1", "-1", "2", "0"] + names + [f"{y} - 3" for y in names])
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(draw(st.sampled_from(rels)))
            continue
        g = Poly(n, {})
        for r in rels:
            g = g + parse_poly(draw(multipliers), n, names=names) * r
        gens.append(g)
    tup = FibredTuple.make(phi, [draw(st.sampled_from(points))])
    return ChevalleyEngine(phi, tup, relations=gens, l_max=8,
                           window=draw(st.integers(1, 3)))


def _outcome(climb, k):
    try:
        return climb(k)
    except (RelationsMismatchError, ConsistencyError) as exc:
        return type(exc), str(exc)


class TestAgainstTheRrefClimb:
    """relation_jets row for row against the climb on the canonical
    echelon of the generators' multiples: status, l_value, chain, codim,
    or the error and its text."""

    @given(relation_engines())
    @settings(max_examples=40, deadline=None)
    def test_rows_match(self, eng):
        for k in range(0, 4):
            assert _outcome(eng.relation_jets, k) == _outcome(
                lambda k: oracles.relation_jets_by_rref(eng, k), k)

    @pytest.mark.parametrize("case, gens, point, rows", [
        # the whole relation ideal of the cusp, and a multiple of it that
        # reads as a mismatch at k=2 and is censored at k=3
        (0, ("y1^3 - y2^2",), (0,), 4),
        (0, ("y1^4 - y1 y2^2",), (0,), 3),
        # mono345's three generators at the singular point (the row at
        # k=3 censored) and at a smooth one, then two of them
        (2, ("y2^2 - y1 y3", "y1^3 - y2 y3", "y3^2 - y1^2 y2"), (0,), 4),
        (2, ("y2^2 - y1 y3", "y1^3 - y2 y3", "y3^2 - y1^2 y2"), (1,), 4),
        (2, ("y2^2 - y1 y3", "y1^3 - y2 y3"), (Fraction(1, 2),), 4),
    ])
    def test_named_presentations(self, case, gens, point, rows):
        comps, m, _, _ = RELATION_MAPS[case]
        n = len(comps)
        names = [f"y{i + 1}" for i in range(n)]
        phi = PolyMap("map", [parse_poly(c, m) for c in comps])
        eng = ChevalleyEngine(
            phi, FibredTuple.make(phi, [point]),
            relations=[parse_poly(g, n, names=names) for g in gens],
            l_max=8)
        got = [_outcome(eng.relation_jets, k) for k in range(0, 4)]
        want = [_outcome(lambda k: oracles.relation_jets_by_rref(eng, k), k)
                for k in range(0, 4)]
        assert got == want
        # rows returned; the rest are errors
        assert sum(type(o) is not tuple for o in got) == rows


def _even_in_x1(p):
    """p with x1 -> x1^2, so that it takes one value at (a, b) and (-a, b)."""
    m = p.arity
    args = [Poly(m, {(2,) + (0,) * (m - 1): Fraction(1)})] + [
        Poly(m, {tuple(int(i == j) for i in range(m)): Fraction(1)})
        for j in range(1, m)]
    return p.compose(args)


@st.composite
def staircase_engines(draw):
    """(engine, diagram, orders): an engine with l_max 1-5 and the RREF
    staircase of its generators, exact through l_max, then the orders
    0..l_max in a random order.

    Either a random map with m <= 2 and n <= 3 at 1-2 points, or mono345
    at one of its points with 1-3 of its three generators.  The random
    map's last component is P(the others), for a random P, so y_n - P is a
    relation: the presentation is the zero ideal, y_n - P times a
    multiplier (principal), or y_n - P with y1 (y_n - P) (two generators,
    read off the echelon).  Two points are (a, b) and (-a, b) of a map
    even in x1."""
    if draw(st.booleans()):
        comps, m, relations, points = RELATION_MAPS[2]
        n = len(comps)
        phi = PolyMap("mono345", [parse_poly(c, m) for c in comps])
        gens = [parse_poly(r, n, names=Y3)
                for r in draw(st.lists(st.sampled_from(relations),
                                       min_size=1, max_size=3,
                                       unique=True))]
        tup = FibredTuple.make(phi, [draw(st.sampled_from(points))])
    else:
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        pair = draw(st.booleans())
        coeff = st.integers(-3, 3).filter(bool).map(Fraction)

        def polys(arity, low, high):
            exps = st.tuples(*([st.integers(0, high)] * arity)).filter(
                lambda b: low <= sum(b) <= high)
            return st.dictionaries(exps, coeff, min_size=1, max_size=3).map(
                lambda t: Poly(arity, t))

        free = [draw(polys(m, 1, 3)) for _ in range(max(n - 1, 1))]
        if pair:
            free = [_even_in_x1(f) for f in free]
        if n == 1:
            comps, gens = free, []
        else:
            p = draw(polys(n - 1, 0, 2))
            comps = free + [p.compose(free)]
            y = [Poly(n, {tuple(int(i == j) for i in range(n)): Fraction(1)})
                 for j in range(n)]
            g = y[-1] - p.compose(y[:-1])
            kind = draw(st.sampled_from(["zero", "principal", "several"]))
            if kind == "zero":
                gens = []
            elif kind == "principal":
                gens = [draw(st.sampled_from(
                    [Poly.constant(n, 2), y[0], y[0] - Poly.constant(n, 1),
                     Poly.constant(n, 1)])) * g]
            else:
                gens = [g, y[0] * g]
        phi = PolyMap("random", comps, source_arity=m)
        coord = st.fractions(min_value=-2, max_value=2, max_denominator=2)
        point = draw(st.tuples(*([coord] * m)))
        if pair:
            point = (draw(coord.filter(bool)),) + point[1:]
            points = [point, (-point[0],) + point[1:]]
        else:
            points = [point]
        tup = FibredTuple.make(phi, points)
    l_max = draw(st.integers(1, 5))
    eng = ChevalleyEngine(phi, tup, relations=gens, l_max=l_max)
    pres = IdealPresentation.make(gens, tup.image)
    diagram = diagram_from_generators(
        pres, max(l_max, pres.generator_degree))
    orders = draw(st.permutations(range(l_max + 1)))
    return eng, diagram, orders


class TestRestrictedEchelon:
    """The staircase route's incremental counts against fresh kernels of
    the staircase-restricted jet matrix, at every (k, l <= l_max)."""

    @given(staircase_engines())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_fresh_kernels(self, case):
        eng, diagram, orders = case
        betas = indices_up_to(diagram.arity, diagram.trunc_degree)
        for l in orders:
            kernel, kept = chevalley_module._staircase_free_kernel(
                eng.jets.jet(l), betas, diagram.vertices)
            fresh = [chevalley_module._projects_to_zero(kernel, kept, k)
                     for k in range(l + 1)]
            assert [eng.diagram_threshold(k, l)
                    for k in range(l + 1)] == fresh
            assert list(eng.fresh_diagram_thresholds(l)) == fresh

    def test_kept_columns_are_counted(self):
        # the cusp's staircase at 0 is y2^2 + N^2: of the C(2+k, 2)
        # columns of degree <= k, C(k, 2) lie in it, so 2k + 1 are kept
        eng = cusp_engine(l_max=8)
        jets = eng.jets.restricted(eng.presentation.principal_vertices)
        assert [jets.column_count(k) for k in range(9)] == [
            index_count(2, k) - comb(k, 2) for k in range(9)] == [
            2 * k + 1 for k in range(9)]
        assert eng.jets.restricted(()) is eng.jets
        assert [eng.jets.column_count(k) for k in range(9)] == [
            index_count(2, k) for k in range(9)]

    def test_no_cycle_back_to_the_engine(self):
        # the restricted system closes over the staircase's vertices, so
        # dropping the engine frees it without a garbage-collection pass
        eng = cusp_engine(l_max=6)
        eng.diagram_threshold(2, 6)
        ref = weakref.ref(eng)
        gc.disable()
        try:
            del eng
            assert ref() is None
        finally:
            gc.enable()


class TestRelationEchelon:
    @given(presentations_at_centres(),
           st.lists(st.integers(0, 5), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_slices_match_fresh_builds(self, case, requests):
        # requests in any order: the one echelon grows and is sliced
        eng, pres = case
        deg = max((g.total_degree() for g in pres.generators), default=0)
        for k in requests:
            space = eng.relation_space(k)
            fresh = ideal_jet_space(pres, k)
            assert space == fresh and space.pivots == fresh.pivots
            assert hilbert_samuel_count(eng.diagram(k), k) == \
                hilbert_samuel_count(
                    diagram_from_generators(pres, max(k, deg)), k)

    def test_cusp_builds_one_diagram_per_new_level(self, monkeypatch):
        levels = []
        inside = []
        build = diagram_from_generators
        jets = staircase_module.ideal_jet_space

        def counting_build(presentation, d):
            levels.append(d)
            inside.append(True)
            try:
                return build(presentation, d)
            finally:
                inside.pop()

        def guarded_jets(presentation, k):
            assert inside, "ideal_jet_space reached outside a diagram build"
            return jets(presentation, k)

        monkeypatch.setattr(chevalley_module, "diagram_from_generators",
                            counting_build)
        monkeypatch.setattr(staircase_module, "ideal_jet_space",
                            guarded_jets)
        eng = cusp_engine(l_max=16)
        for k in range(1, 9):
            eng.relation_space(k)
        assert levels == [3, 4, 5, 6, 7, 8]
        assert eng.diagram(2).trunc_degree == 8
        assert levels == [3, 4, 5, 6, 7, 8]

    def test_a_built_diagram_refuses_a_degree_it_cannot_use(self):
        # unchecked, each of these read the diagram already built, and
        # relation_space(-1) gave a subspace of Q^0
        eng = cusp_engine()
        eng.diagram(4)
        for bad in (-1, True, 2.0):
            with pytest.raises(InputError, match="truncation degree must"):
                eng.diagram(bad)
            with pytest.raises(InputError, match="degree k must"):
                eng.relation_space(bad)
        assert eng.diagram(0).trunc_degree == 4
        assert eng.relation_space(0).ambient_dim == 1

    def test_diagram_may_be_exact_past_the_request(self):
        eng = cusp_engine()
        assert eng.diagram(7).trunc_degree == 7
        assert eng.diagram(5).trunc_degree == 7
        assert eng.diagram(9).trunc_degree == 9


def _faked_engine(monkeypatch, mono, eng, k=2):
    """eng whose guard at degree k is handed one monomial's vector in
    place of the generators' multiples, as many vectors as the true ones;
    H(k) is counted as before."""
    betas = indices_up_to(2, k)
    fake = [{betas.index(mono): 1}]
    assert len(fake) == len(ideal_multiples(eng.presentation, k))
    monkeypatch.setattr(chevalley_module, "ideal_multiples",
                        lambda presentation, degree: fake)
    return eng


class TestConsistencyGuards:
    def test_guard_reads_the_multiples_on_every_verified_climb(
            self, monkeypatch):
        # one guard per climb, at the stop order, handed the generators'
        # multiples, which span the relation jets; a passing run is the
        # evidence that the guard holds (a failure raises ConsistencyError)
        eng = cusp_engine()
        handed = []
        contains = JetSystem.kernel_contains

        def spying(self, l, k, vectors):
            handed.append((l, k, vectors))
            return contains(self, l, k, vectors)

        monkeypatch.setattr(JetSystem, "kernel_contains", spying)
        for k in range(0, 5):
            rj = eng.relation_jets(k)
            (l, kk, vectors), = handed
            handed.clear()
            assert (l, kk) == (rj.chain[-1], k)
            n = index_count(2, k)
            assert Subspace.from_vectors(vectors, n) == eng.relation_space(k)

    @pytest.mark.parametrize("mono, l", [((1, 0), 2), ((0, 1), 3),
                                         ((0, 0), 2), ((2, 0), 4),
                                         ((1, 1), 5)])
    def test_escaped_relation_jets_raise(self, mono, l, monkeypatch):
        # a vector in place of the true multiples, H(k) counted as before,
        # that is not inside the chain: y1 = x^2 is already outside
        # the projected kernel at l=2, y2 = x^3 leaves it at l=3, y1^2 = x^4
        # at l=4 and y1*y2 = x^5 at l=5, the true threshold.  The chain is
        # nested, so the one guard, at the order the climb stops at, the
        # threshold, catches each of them
        k = 2
        eng = _faked_engine(monkeypatch, mono, cusp_engine())
        fake = chevalley_module.ideal_multiples(eng.presentation, k)
        assert all(eng.jets.kernel_contains(below, k, fake)
                   for below in range(k, l))
        assert not eng.jets.kernel_contains(l, k, fake)
        with pytest.raises(ConsistencyError,
                           match="escaped a projected kernel at l=5, k=2"):
            eng.relation_jets(k)

    @pytest.mark.parametrize("mono", [(1, 0), (0, 1), (0, 0), (2, 0)])
    def test_escape_caught_at_the_end_of_the_range(self, mono, monkeypatch):
        # l_max = 4 stops the climb below the threshold; the guard at the
        # last order climbed catches every monomial that has left by then
        eng = _faked_engine(monkeypatch, mono, cusp_engine(l_max=4))
        with pytest.raises(ConsistencyError,
                           match="escaped a projected kernel at l=4, k=2"):
            eng.relation_jets(2)

    def test_escape_takes_precedence_over_a_mismatch(self, monkeypatch):
        # a window of 1 holds at once, so a range ending below the
        # threshold reports the true relations as a mismatch; an escaping
        # target is reported as the escape
        with pytest.raises(RelationsMismatchError):
            cusp_engine(l_max=4, window=1).relation_jets(2)
        eng = _faked_engine(monkeypatch, (1, 0),
                            cusp_engine(l_max=4, window=1))
        with pytest.raises(ConsistencyError,
                           match="escaped a projected kernel at l=4, k=2"):
            eng.relation_jets(2)

    def test_relation_space_requires_generators(self):
        phi = squaring()
        tup = FibredTuple.make(phi, [(0,)])
        eng = ChevalleyEngine(phi, tup)
        with pytest.raises(InputError):
            eng.relation_space(2)
        with pytest.raises(InputError):
            eng.diagram(4)


class TestSharedRows:
    """A Subspace hands its canonical rows out shared: every reader leaves
    them as they were."""

    def test_readers_leave_the_rows_unchanged(self):
        eng = cusp_engine(l_max=10)
        pres = eng.presentation
        diag = eng.diagram(8)
        span_rows = copy.deepcopy(diag.span.rows)

        # relation_space slices the diagram, and relation_jets reads it not
        for k in range(1, 5):
            eng.relation_jets(k)
            assert eng.relation_space(k).rows == ideal_jet_space(pres, k).rows
            assert diag.span.rows == span_rows

        # below the threshold the kernel is strictly larger than the target
        k, l = 3, 3
        target = eng.relation_space(k)
        kernel = eng.jets.projected_kernel(l, k)
        target_rows = copy.deepcopy(target.rows)
        kernel_rows = copy.deepcopy(kernel.rows)
        assert eng.jets.kernel_contains(l, k, target.rows.values())
        assert target.rows == target_rows
        assert kernel.dim > target.dim and kernel.contains(target)
        assert target.rows == target_rows and kernel.rows == kernel_rows
        assert not target.contains(kernel)
        assert target.rows == target_rows and kernel.rows == kernel_rows

        f = parse_poly("y1^4 + 3 y1^2 y2 - y2^3 + 2", 2, names=Y2)
        shifted = f.shift(pres.center)
        series = [shifted, shifted.truncate(8), shifted.truncate(5)]
        for g in series:
            normal_form(g, diag)
            residual_order(g, diag)
            assert diag.span.rows == span_rows

    def test_jet_routes_leave_the_build_rows_unchanged(self):
        # the jet matrices, their column blocks and the projected kernels
        # hand the kernel the build's layer rows and the echelon's guard
        # rows without copying them; every route copies before it reduces
        eng = cusp_engine(l_max=8, point=(Fraction(1, 2),))
        jets, top = eng.jets, 6
        jets.analysis(top)
        build = jets._grow(top)
        layers = copy.deepcopy([build.layer(d) for d in range(top + 1)])
        guards = {(l, k): copy.deepcopy(jets._guard_rows(l, k))
                  for l in range(top + 1) for k in range(l + 1)}

        def assert_unchanged():
            assert [build.layer(d) for d in range(top + 1)] == layers
            assert {key: jets._guard_rows(*key) for key in guards} == guards

        dense = 0
        for l in range(top + 1):
            jets.kernel(l)
            assert_unchanged()
            for k in range(l + 1):
                jets.projected_kernel(l, k)
                assert_unchanged()
                whole, cut = jets.jet(l), index_count(2, k)
                rows = copy.deepcopy(whole.sparse_rows)
                r = membership_kernel(whole, cut).absorbed_rank
                if (comb(whole.ncols - cut, r) * comb(whole.nrows, r + 1)
                        <= DENSE_CELL_CAP):
                    membership_operator(whole, cut, r).rank_kernel()
                    dense += 1
                assert whole.sparse_rows == rows
                eng.diagram_threshold(k, l)
                assert_unchanged()
        assert dense


def pair_leaf():
    pe = lambda s: parse_poly(s, 1, names=["t"])
    return Leaf.make("pair", ["t"], [[pe("t")], [pe("-t")]])


def point_leaf():
    return Leaf.make("point", ["t"], [[parse_poly("t", 1, names=["t"])]])


def pair_scenario(k, l_max, seed, **extra):
    """squaring() with pair_leaf() and no tuples: a table of leaf rows."""
    return parse_scenario({
        "map": {"name": "squaring", "m": 1, "n": 1, "components": ["x^2"]},
        "leaves": [{"name": "pair", "params": ["t"],
                    "points": [["t"], ["-t"]]}],
        "k_range": [k, k], "l_max": l_max, "seed": seed, **extra,
    })


class TestLeaves:
    def test_validate_accepts_identical_images(self):
        pair_leaf().validate(squaring())

    def test_validate_rejects_generic_mismatch(self):
        pe = lambda s: parse_poly(s, 1, names=["t"])
        bad = Leaf.make("shifted", ["t"], [[pe("t")], [pe("t + 1")]])
        with pytest.raises(InputError, match="share an image"):
            bad.validate(squaring())

    def test_tuple_at(self):
        tup = pair_leaf().tuple_at(squaring(), [Fraction(1, 2)])
        assert tup.points == ((Fraction(1, 2),), (Fraction(-1, 2),))
        assert tup.image == (Fraction(1, 4),)

    def test_draws_skip_colliding_points(self):
        # at seed 2 the stream draws t = 0, where t and -t are one point
        for samp in sample_leaf_chevalley(
            squaring(), pair_leaf(), [1, 2, 3], seed=2, l_max=8
        ):
            assert len(samp.samples) == LEAF_TRIALS
            assert all(t != (0,) for t, _, _ in samp.samples)
            assert [lv for _, lv, _ in samp.samples] == [samp.k] * 5

    def test_leaf_whose_points_always_collide_is_refused(self):
        pe = lambda s: parse_poly(s, 1, names=["t"])
        same = Leaf.make("same", ["t"], [[pe("t")], [pe("t")]])
        with pytest.raises(InputError, match="distinct points"):
            sample_leaf_chevalley(squaring(), same, [1], l_max=4)

    def test_make_needs_params_and_points(self):
        pe = lambda s: parse_poly(s, 1, names=["t"])
        with pytest.raises(InputError):
            Leaf.make("no_params", [], [[pe("t")]])
        with pytest.raises(InputError):
            Leaf.make("no_points", ["t"], [])

    def test_sampling_is_heuristic_and_deterministic(self):
        (samp,) = sample_leaf_chevalley(
            squaring(), pair_leaf(), [2], seed=1, l_max=10
        )
        # a sample carries no status: its table row is HEURISTIC
        (entry,) = run_table(pair_scenario(k=2, l_max=10, seed=1)).entries
        assert (entry.status, entry.l_value) == (HEURISTIC, samp.l_generic)
        assert samp.l_generic == 2
        assert samp.mismatch is False
        assert len(samp.samples) == LEAF_TRIALS == 5
        assert samp.rank_profile[10] == 3
        (again,) = sample_leaf_chevalley(
            squaring(), pair_leaf(), [2], seed=1, l_max=10
        )
        assert again.samples == samp.samples

    def test_sampling_with_relations(self):
        (samp,) = sample_leaf_chevalley(
            squaring(), pair_leaf(), [1], seed=0, l_max=8, relations=[],
        )
        # certified generators at every draw still give a HEURISTIC row
        (entry,) = run_table(pair_scenario(
            k=1, l_max=8, seed=0, relations={"leaf:pair": []})).entries
        assert (entry.status, entry.l_value) == (HEURISTIC, samp.l_generic)
        assert samp.l_generic == 1

    @pytest.mark.parametrize("phi, leaf, relations, ks, l_max", [
        (squaring(), pair_leaf(), [], [1, 2, 3], 9),
        (squaring(), pair_leaf(), None, [1, 2, 3], 9),
        (squaring(), pair_leaf(), None, [3, 1, 4], 6),
        (cusp(), point_leaf(), [parse_poly("y1^3 - y2^2", 2, names=Y2)],
         [1, 2, 4], 10),
        (cusp(), point_leaf(), [parse_poly("y1^3 - y2^2", 2, names=Y2)],
         [4], 5),
        (cusp(), point_leaf(), None, [2, 1], 7),
        (cusp(), point_leaf(), None, [3], 6),
    ])
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_profiles_match_every_order(self, phi, leaf, relations, ks,
                                        l_max, seed):
        # past a certified threshold the profile is written, not read: it
        # must equal a fresh engine's codimension at every order
        samples = sample_leaf_chevalley(phi, leaf, ks, seed=seed,
                                        l_max=l_max, relations=relations)
        for samp, k in zip(samples, ks):
            want = []
            for t, _, _ in samp.samples:
                engine = ChevalleyEngine(phi, leaf.tuple_at(phi, t),
                                         relations=relations, l_max=l_max)
                rj = engine.relation_jets(k)
                want.append((t, rj.l_value, {
                    l: engine.jets.quotient_dim(l, k)
                    for l in range(k, l_max + 1)}))
            assert list(samp.samples) == want
            assert samp.rank_profile == {
                l: max(prof[l] for _, _, prof in want)
                for l in range(k, l_max + 1)}

    @pytest.mark.parametrize("relations, top", [([], 3), (None, 9)])
    def test_draws_stop_at_their_largest_threshold(self, relations, top,
                                                    monkeypatch):
        # with [] every draw is VERIFIED at l = k, so its echelon stops at
        # max(ks) = 3; a heuristic draw reads its profile through l_max
        engines = []
        init = ChevalleyEngine.__init__

        def keeping(self, *args, **kwargs):
            engines.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChevalleyEngine, "__init__", keeping)
        samples = sample_leaf_chevalley(squaring(), pair_leaf(), [1, 2, 3],
                                        seed=0, l_max=9, relations=relations)
        assert [lv for samp in samples for _, lv, _ in samp.samples] == \
            [k for k in (1, 2, 3) for _ in range(LEAF_TRIALS)]
        assert len(engines) == LEAF_TRIALS
        for engine in engines:
            assert len(engine.jets._counts) == top + 1
            assert engine.jets._build.level == top

    @pytest.mark.parametrize("relations", [None, []])
    def test_ks_may_be_any_iterable(self, relations):
        # ks is checked before the draws and read again after them, so a
        # generator gives the samples its list gives
        want = sample_leaf_chevalley(squaring(), pair_leaf(), [1, 2], seed=2,
                                     l_max=6, relations=relations)
        got = sample_leaf_chevalley(squaring(), pair_leaf(),
                                    (k for k in (1, 2)), seed=2, l_max=6,
                                    relations=relations)
        assert got == want and len(got) == 2

    @pytest.mark.parametrize("ks", [[], [1], [1, 2, 3], [3, 1, 3]])
    @pytest.mark.parametrize("relations", [None, []])
    def test_one_draw_serves_every_k(self, ks, relations, monkeypatch):
        built = []
        init = ChevalleyEngine.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ChevalleyEngine, "__init__", counting)
        samples = sample_leaf_chevalley(
            squaring(), pair_leaf(), ks, seed=2, l_max=8, relations=relations
        )
        assert len(built) == LEAF_TRIALS
        assert [s.k for s in samples] == ks
        monkeypatch.undo()
        for s, k in zip(samples, ks):
            (alone,) = sample_leaf_chevalley(
                squaring(), pair_leaf(), [k], seed=2, l_max=8,
                relations=relations,
            )
            assert s == alone
