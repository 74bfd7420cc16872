from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import _oracles as oracles
import chevkit.staircase as staircase_module
from chevkit.errors import ConsistencyError, InputError
from chevkit.indices import index_count, indices_of_degree, indices_up_to
from chevkit.linalg import Subspace
from chevkit.poly import Poly, TruncatedSeries, parse_poly
from chevkit.staircase import (
    IdealPresentation,
    diagram_from_generators,
    hilbert_samuel_count,
    ideal_jet_space,
    ideal_multiples,
    normal_form,
    principal_count,
    residual_order,
)
from chevkit.censored import AtLeast

Y = ["y1", "y2"]


def cusp_presentation(center=(0, 0)):
    g = parse_poly("y1^3 - y2^2", 2, names=Y)
    return IdealPresentation.make([g], center)


@pytest.fixture(scope="module")
def cusp_diagram():
    return diagram_from_generators(cusp_presentation(), 8)


class TestInitialExponent:
    def test_plain(self):
        p = parse_poly("y1^3 - y2^2", 2, names=Y)
        assert oracles.initial_exponent(p) == (0, 2)

    def test_degree_tie_breaks_lexicographically(self):
        # after recentering at a smooth point both degree-1 terms survive;
        # (0, 1) sorts before (1, 0) in the shared order
        pres = cusp_presentation(center=(1, 1))
        (g_loc,) = pres.recentered
        assert oracles.initial_exponent(g_loc) == (0, 1)

    def test_zero(self):
        assert oracles.initial_exponent(Poly.zero(2)) is None


class TestDiagram:
    def test_cusp_staircase(self, cusp_diagram):
        assert cusp_diagram.vertices == ((0, 2),)
        assert cusp_diagram.provisional is True
        assert cusp_diagram.trunc_degree == 8
        assert cusp_diagram.contains((0, 2))
        assert cusp_diagram.contains((3, 5))
        assert not cusp_diagram.contains((4, 1))
        assert not cusp_diagram.contains((0, 1))

    def test_truncation_must_cover_generators(self):
        with pytest.raises(InputError):
            diagram_from_generators(cusp_presentation(), 2)

    def test_vertices_stable_across_truncations(self, cusp_diagram):
        small = diagram_from_generators(cusp_presentation(), 4)
        assert small.vertices == cusp_diagram.vertices

    def test_smooth_point_staircase(self):
        pres = cusp_presentation(center=(1, 1))
        diag = diagram_from_generators(pres, 6)
        assert diag.vertices == ((0, 1),)

    @pytest.mark.parametrize("gens, provisional", [
        ([], False), (["0"], False), (["y1 - y1"], False),
        (["y1^3 - y2^2"], True), (["2"], True),
    ])
    def test_provisional_is_read_off_the_staircase(self, gens, provisional):
        # a nonzero recentred generator puts its initial exponent in the
        # staircase at any truncation the diagram takes
        pres = IdealPresentation.make(
            [parse_poly(g, 2, names=["y1", "y2"]) for g in gens], (0, 0))
        diag = diagram_from_generators(pres, max(pres.generator_degree, 1))
        assert diag.provisional is provisional
        assert bool(diag.vertices) is provisional

    def test_zero_ideal(self):
        pres = IdealPresentation.make([], (0, 0))
        diag = diagram_from_generators(pres, 5)
        assert diag.vertices == ()
        assert diag.provisional is False
        assert hilbert_samuel_count(diag, 3) == index_count(2, 3)


class TestCounts:
    @pytest.mark.parametrize("k", range(0, 7))
    def test_cusp_count_is_2k_plus_1(self, cusp_diagram, k):
        assert hilbert_samuel_count(cusp_diagram, k) == 2 * k + 1

    def test_count_needs_exactness(self, cusp_diagram):
        with pytest.raises(InputError):
            hilbert_samuel_count(cusp_diagram, 9)

    def test_smooth_count_is_k_plus_1(self):
        diag = diagram_from_generators(cusp_presentation((1, 1)), 6)
        for k in range(0, 6):
            assert hilbert_samuel_count(diag, k) == k + 1


class TestNormalForm:
    def test_frozen_orders(self, cusp_diagram):
        cases = [
            ("y2^2", 3, "y1^3"),
            ("y1 + y2^2", 1, None),
            ("y2^4", 6, "y1^6"),
        ]
        for text, order, nf_text in cases:
            f = parse_poly(text, 2, names=Y)
            assert residual_order(f, cusp_diagram) == order
            if nf_text is not None:
                nf = normal_form(f, cusp_diagram)
                assert oracles.to_poly(nf) == parse_poly(nf_text, 2, names=Y)

    def test_generator_reduces_to_zero_and_is_censored(self, cusp_diagram):
        g = parse_poly("y1^3 - y2^2", 2, names=Y)
        assert oracles.to_poly(normal_form(g, cusp_diagram)).is_zero()
        assert residual_order(g, cusp_diagram) == AtLeast(8)

    def test_order_censored_at_truncation(self, cusp_diagram):
        f = parse_poly("y2^8", 2, names=Y)
        # reduces to y1^12, past the truncation degree
        assert residual_order(f, cusp_diagram) == AtLeast(8)

    def test_poly_deeper_than_truncation_rejected(self, cusp_diagram):
        with pytest.raises(InputError):
            normal_form(parse_poly("y2^9", 2, names=Y), cusp_diagram)

    def test_support_avoids_staircase(self, cusp_diagram):
        f = parse_poly("y2^3 + y1 y2^2 - 2y1^2", 2, names=Y)
        nf = normal_form(f, cusp_diagram)
        assert all(
            not cusp_diagram.contains(b) for b in nf.terms
        )

    @given(st.lists(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=2),
        ),
        max_size=5,
    ))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_and_linear(self, raw):
        diag = diagram_from_generators(cusp_presentation(), 6)
        f = Poly.zero(2)
        for e1, e2, c in raw:
            f = f + oracles.monomial((e1, e2), c)
        nf = normal_form(f, diag)
        again = normal_form(oracles.to_poly(nf), diag)
        assert again == nf
        double = normal_form(f + f, diag)
        assert double == nf + nf

    def test_order_never_decreases(self, cusp_diagram):
        for text in ("y2^2", "y1 y2^2", "y1^2 + y2^3", "y2^2 - y1^2"):
            f = parse_poly(text, 2, names=Y)
            nf = normal_form(f, cusp_diagram)
            if not oracles.to_poly(nf).is_zero():
                assert nf.order() >= f.order()


@st.composite
def ideal_cases(draw):
    """(presentation, truncation degree): up to two generators in 1 to 3
    variables with non-monic rational coefficients, at a rational centre,
    truncated at or up to two degrees past the largest generator."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 3)] * n)).filter(
        lambda b: sum(b) <= 3)
    coeffs = st.fractions(min_value=-3, max_value=3,
                          max_denominator=3).filter(bool)
    gens = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1,
                                         max_size=3),
                         min_size=0, max_size=2))
    center = draw(st.tuples(*([st.fractions(
        min_value=-2, max_value=2, max_denominator=3)] * n)))
    pres = IdealPresentation.make([Poly(n, g) for g in gens], center)
    return pres, pres.generator_degree + draw(st.integers(0, 2))


@st.composite
def probe_inputs(draw, n, d):
    """A Poly of degree <= d, or a series truncated at some t <= d, with
    int or Fraction coefficients."""
    t = draw(st.integers(0, d))
    exps = st.tuples(*([st.integers(0, t)] * n)).filter(
        lambda b: sum(b) <= t)
    coeffs = st.one_of(
        st.integers(-4, 4),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ).filter(bool)
    terms = draw(st.dictionaries(exps, coeffs, max_size=6))
    if t == d and draw(st.booleans()):
        return Poly(n, terms)
    return TruncatedSeries(n, terms, t, _exact=True)


@st.composite
def centred_ideal_cases(draw):
    """(presentation, truncation degree): one or two generators in 1 to 3
    variables, each vanishing at a nonzero rational centre, truncated at or
    up to two degrees past the largest generator."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*([st.integers(0, 3)] * n)).filter(
        lambda b: 0 < sum(b) <= 3)
    coeffs = st.fractions(min_value=-3, max_value=3,
                          max_denominator=3).filter(bool)
    center = draw(st.tuples(*([st.fractions(
        min_value=-2, max_value=2, max_denominator=3)] * n)).filter(any))
    gens = []
    for terms in draw(st.lists(st.dictionaries(exps, coeffs, min_size=1,
                                               max_size=3),
                               min_size=1, max_size=2)):
        g = Poly(n, terms)
        gens.append(g - g.eval(center))
    pres = IdealPresentation.make(gens, center)
    return pres, pres.generator_degree + draw(st.integers(0, 2))


class TestVertices:
    @given(ideal_cases())
    @settings(max_examples=80, deadline=None)
    def test_lower_neighbours_match_domination(self, case):
        pres, d = case
        diag = diagram_from_generators(pres, d)
        assert diag.vertices == oracles.staircase_vertices_by_domination(diag)


class TestIntegerNormalForm:
    """normal_form and residual_order reduce one integer row; the Fraction
    division pass they replaced is the reference."""

    @given(ideal_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_division(self, case, data):
        pres, d = case
        diag = diagram_from_generators(pres, d)
        for _ in range(3):
            f = data.draw(probe_inputs(pres.arity, d))
            assert normal_form(f, diag) == \
                oracles.normal_form_by_fractions(f, diag)
            assert residual_order(f, diag) == \
                oracles.residual_order_by_fractions(f, diag)

    @given(centred_ideal_cases(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_own_rows_match_the_projected_span(self, case, data):
        # below a series' cut the diagram's own rows do the projection's
        # work: the same terms in the same order, at every cut t <= d
        pres, d = case
        diag = diagram_from_generators(pres, d)
        coeffs = st.fractions(min_value=-3, max_value=3,
                              max_denominator=4).filter(bool)
        for t in range(d + 1):
            exps = st.tuples(*([st.integers(0, t)] * pres.arity)).filter(
                lambda b: sum(b) <= t)
            f = TruncatedSeries(
                pres.arity, data.draw(st.dictionaries(exps, coeffs,
                                                      max_size=6)),
                t, _exact=True)
            nf = normal_form(f, diag)
            ref = oracles.normal_form_by_projection(f, diag)
            assert list(nf.terms.items()) == list(ref.terms.items())
            assert nf.trunc_degree == ref.trunc_degree == t

    def test_non_monic_generator(self):
        # the pivot row of y2^2 is 2y2^2 - 3y1^3, so the scale matters
        pres = IdealPresentation.make(
            [parse_poly("2y2^2 - 3y1^3", 2, names=Y)], (0, 0))
        diag = diagram_from_generators(pres, 6)
        f = parse_poly("1/5 y2^2 + y1 y2^2 - 7", 2, names=Y)
        assert oracles.to_poly(normal_form(f, diag)) == \
            parse_poly("-7 + 3/10 y1^3 + 3/2 y1^4", 2, names=Y)
        assert residual_order(f, diag) == 0
        assert residual_order(f + 7, diag) == 3

    def test_series_truncated_below_the_diagram(self):
        # y2^3 reduces to y1^3 y2, which a degree-3 series cannot see
        diag = diagram_from_generators(cusp_presentation(), 8)
        f = TruncatedSeries(2, {(0, 3): Fraction(1, 2), (2, 0): 1}, 3,
                            _exact=True)
        nf = normal_form(f, diag)
        assert nf == TruncatedSeries(2, {(2, 0): 1}, 3, _exact=True)
        assert residual_order(f - TruncatedSeries(2, {(2, 0): 1}, 3),
                              diag) == AtLeast(3)

    def test_truncated_series_whose_cut_terms_reduce_away(self,
                                                          cusp_diagram):
        # below the cut each term reduces away, against the diagram's full
        # rows; what they bring in (y1^3, y1^4, y1^3 y2) lies past it
        for terms, t in [({(0, 2): Fraction(1, 2)}, 2),
                         ({(1, 2): 3, (0, 3): Fraction(-1, 2)}, 3),
                         ({(0, 2): 1, (3, 0): -1}, 3)]:
            f = TruncatedSeries(2, terms, t, _exact=True)
            assert residual_order(f, cusp_diagram) == AtLeast(t)
            assert normal_form(f, cusp_diagram) == \
                TruncatedSeries(2, {}, t, _exact=True)

    def test_stops_at_the_first_surviving_term(self, monkeypatch,
                                               cusp_diagram):
        cleared = []
        reduce = staircase_module._reduce

        def counting(row, prow, c):
            cleared.append(indices_up_to(2, 8)[c])
            reduce(row, prow, c)

        monkeypatch.setattr(staircase_module, "_reduce", counting)
        # y1 is no staircase monomial: nothing is reduced
        f = parse_poly("y1 + y2^2 + y1 y2^2", 2, names=Y)
        assert residual_order(f, cusp_diagram) == 1
        assert cleared == []
        # y2^2 and y2^3 clear to y1^3 y2 of degree 4, and y2^5 past it
        # stays as it is
        g = parse_poly("y2^2 - y1^3 + y2^3 + y2^5", 2, names=Y)
        assert residual_order(g, cusp_diagram) == 4
        assert cleared == [(0, 2), (0, 3)]

    @pytest.mark.parametrize("route", [normal_form, residual_order])
    def test_input_checks(self, route, cusp_diagram):
        for f, message in [
            (parse_poly("y2^9", 2, names=Y),
             "polynomial degree 9 exceeds diagram truncation 8"),
            (TruncatedSeries(3, {}, 4), "series arity 3 does not match"),
            (TruncatedSeries(2, {}, 9), "series truncated at 9 exceeds"),
        ]:
            with pytest.raises(InputError, match=message):
                route(f, cusp_diagram)


class TestLazyDiagram:
    def test_reduced_basis_is_built_on_first_read(self):
        diag = diagram_from_generators(cusp_presentation((1, 1)), 5)
        assert "reduced_basis" not in vars(diag)
        basis = diag.reduced_basis
        assert basis is diag.reduced_basis
        monomials = indices_up_to(2, 5)
        for series, row, p in zip(basis, oracles.dense_basis(diag.span),
                                  diag.span.pivots):
            assert series.terms == {monomials[j]: v
                                    for j, v in enumerate(row) if v}
            assert series.terms[monomials[p]] == 1
            assert all(not diag.contains(b) for b in series.terms
                       if b != monomials[p])

    def test_equality_compares_the_span(self):
        def diagram(text):
            pres = IdealPresentation.make([parse_poly(text, 2, names=Y)],
                                          (0, 0))
            return diagram_from_generators(pres, 6)

        plus, minus = diagram("y1^3 + y2^2"), diagram("y1^3 - y2^2")
        assert plus.vertices == minus.vertices
        assert plus != minus
        assert minus == diagram("2y1^3 - 2y2^2")
        assert hash(minus) == hash(diagram("2y1^3 - 2y2^2"))


class TestIdealJets:
    def test_cusp_jet_dimensions(self):
        pres = cusp_presentation()
        for k in range(0, 6):
            space = ideal_jet_space(pres, k)
            assert space.ambient_dim == index_count(2, k)
            assert index_count(2, k) - space.dim == 2 * k + 1

    def test_zero_ideal_jets(self):
        pres = IdealPresentation.make([], (0, 0))
        assert ideal_jet_space(pres, 4).is_zero()

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.dictionaries(
            st.tuples(*([st.integers(0, 3)] * n)).filter(
                lambda b: sum(b) <= 3),
            st.fractions(min_value=-3, max_value=3, max_denominator=3),
            min_size=1, max_size=3,
        ), min_size=0, max_size=2),
        st.tuples(*([st.fractions(min_value=-2, max_value=2,
                                  max_denominator=2)] * n)),
        st.integers(0, 4),
    )))
    @settings(max_examples=60, deadline=None)
    def test_jets_match_explicit_multiples(self, case):
        # each multiple x^gamma * g, formed by Poly arithmetic and cut at k
        term_dicts, center, k = case
        n = len(center)
        pres = IdealPresentation.make(
            [Poly(n, t) for t in term_dicts], center)
        monomials = indices_up_to(n, k)
        vectors = []
        for g in pres.recentered:
            for gamma in indices_up_to(n, k - g.order()):
                prod = oracles.monomial(gamma) * g
                vectors.append([oracles.coeff(prod, b) for b in monomials])
        assert ideal_jet_space(pres, k) == \
            Subspace.from_vectors(oracles.integer_rows(vectors),
                                  len(monomials))

    def test_diagram_span_slices_to_every_lower_degree(self):
        pres = cusp_presentation((1, 1))
        diag = diagram_from_generators(pres, 6)
        assert diag.span == ideal_jet_space(pres, 6)
        for k in range(0, 7):
            sliced = diag.span.project(index_count(2, k))
            fresh = ideal_jet_space(pres, k)
            assert sliced == fresh and sliced.pivots == fresh.pivots

    def test_recentering_is_computed_once(self):
        pres = cusp_presentation((1, 1))
        assert pres.recentered is pres.recentered

    def test_count_routes_agree_at_smooth_point(self):
        pres = cusp_presentation((1, 1))
        diag = diagram_from_generators(pres, 6)
        for k in range(0, 6):
            via_jets = index_count(2, k) - ideal_jet_space(pres, k).dim
            assert via_jets == hilbert_samuel_count(diag, k)


class TestIntegerIdealRows:
    """ideal_jet_space scales each generator to integers once; the rows
    of the Fraction multiples, scaled one by one, span the same space."""

    @given(ideal_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_fraction_route(self, case, data):
        pres, d = case
        assume(any(c.__class__ is not int and c.denominator > 1
                   for g in pres.recentered for c in g.terms.values()))
        k = data.draw(st.integers(0, d))
        got = ideal_jet_space(pres, k)
        want = oracles.ideal_jet_space_by_fractions(pres, k)
        assert got == want and got.rows == want.rows

    def test_a_truncated_multiple_keeps_a_common_factor(self):
        # g = 2 y1 + 4 y2^2 + 3 y1^3 is an integer row, but cut at k = 2 it
        # is (2, 4) at (y1, y2^2), which the elimination makes primitive
        pres = IdealPresentation.make(
            [parse_poly("2*y1 + 4*y2^2 + 3*y1^3", 2, names=["y1", "y2"])],
            (0, 0))
        space = ideal_jet_space(pres, 2)
        assert space.rows == {2: {2: 1, 3: 2}, 4: {4: 1}, 5: {5: 1}}
        assert space == oracles.ideal_jet_space_by_fractions(pres, 2)
        assert diagram_from_generators(pres, 3).span == \
            oracles.ideal_jet_space_by_fractions(pres, 3)


class TestGeneratorDegree:
    @pytest.mark.parametrize("gens, center, deg", [
        (["y1^3 - y2^2"], (0, 0), 3),
        (["y1^3 - y2^2"], (1, 1), 3),
        (["y1 - 1", "y2^2 - y1^2"], (1, 1), 2),
        (["0", "y2 - 2"], (0, 2), 1),
        (["0"], (0, 0), 0),
        ([], (3, 4), 0),
    ])
    def test_largest_nonzero_total_degree(self, gens, center, deg):
        pres = IdealPresentation.make(
            [parse_poly(g, 2, names=Y) for g in gens], center
        )
        assert pres.generator_degree == deg
        # the recentred generators have the same degrees
        assert deg == max((g.total_degree()
                           for g in pres.recentered), default=0)

    def test_truncation_below_it_is_refused(self):
        pres = IdealPresentation.make(
            [parse_poly("y1^3 - y2^2", 2, names=Y)], (0, 0)
        )
        with pytest.raises(InputError,
                           match="truncation degree 2 is below a generator"
                                 " degree 3"):
            diagram_from_generators(pres, 2)
        assert diagram_from_generators(pres, 3).trunc_degree == 3

    def test_zero_ideal_builds_at_every_truncation(self):
        pres = IdealPresentation.make([], (0, 0))
        assert pres.generator_degree == 0
        diagram = diagram_from_generators(pres, 0)
        assert diagram.vertices == () and not diagram.provisional


@st.composite
def one_generator_presentations(draw):
    """A presentation of one generator in arity 1-3, of order 1-4 at a
    random rational centre, written in the global coordinates: in the
    centred ones it has a term of degree exactly its order and up to three
    more of degree at most two past it."""
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-3, max_value=3,
                         max_denominator=4).filter(bool)
    centre = tuple(draw(st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        min_size=n, max_size=n)))
    terms = {draw(st.sampled_from(indices_of_degree(n, order))): draw(coeff)}
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(order, order + 2))
        terms[draw(st.sampled_from(indices_of_degree(n, d)))] = draw(coeff)
    local = Poly(n, {b: c for b, c in terms.items() if c})
    g = local.shift(tuple(-c for c in centre))
    return IdealPresentation.make([g], centre)


class TestPrincipalStaircase:
    """One generator's staircase is in(g) + N^n, its smallest term by
    mono_key, and H(k) is counted in closed form; both equal the RREF's."""

    @given(one_generator_presentations())
    @settings(max_examples=60, deadline=None)
    def test_vertex_and_count_match_the_rref(self, pres):
        deg = pres.generator_degree
        order = pres.recentered[0].order()
        assert 1 <= order <= 4
        for k in range(0, 9):
            diagram = diagram_from_generators(pres, max(k, deg))
            assert pres.principal_vertices == diagram.vertices
            assert principal_count(pres, k) == \
                hilbert_samuel_count(diagram, k)

    def test_the_vertex_is_the_smallest_term(self):
        # y2^2 - y1^3 at the origin: degree 2 comes first, so in = (0, 2)
        pres = cusp_presentation()
        assert pres.principal_vertices == ((0, 2),)
        assert [principal_count(pres, k) for k in range(6)] == \
            [1, 3, 5, 7, 9, 11]
        # at (1, 1) the linear part 3 y1 - 2 y2 leads at y2 = (0, 1)
        pres = cusp_presentation((1, 1))
        assert pres.principal_vertices == ((0, 1),)
        assert [principal_count(pres, k) for k in range(6)] == \
            [1, 2, 3, 4, 5, 6]

    def test_zero_ideal_has_no_vertex(self):
        for gens in ([], [parse_poly("0", 2, names=Y)]):
            pres = IdealPresentation.make(gens, (1, 2))
            assert pres.principal_vertices == ()
            assert [principal_count(pres, k) for k in range(5)] == \
                [index_count(2, k) for k in range(5)]

    def test_several_generators_have_no_closed_form(self):
        gens = [parse_poly(g, 2, names=Y) for g in ("y1^2", "y2^2", "0")]
        pres = IdealPresentation.make(gens, (0, 0))
        assert pres.principal_vertices is None
        # one nonzero generator next to a zero one still has it
        pres = IdealPresentation.make(gens[1:], (0, 0))
        assert pres.principal_vertices == ((0, 2),)

    @pytest.mark.parametrize("center", [(0, 0), (1, 1), (4, 8)])
    def test_the_multiples_span_the_ideal_jets(self, center):
        pres = cusp_presentation(center)
        for k in range(0, 7):
            vectors = ideal_multiples(pres, k)
            assert all(vectors)
            assert Subspace.from_vectors(vectors, index_count(2, k)) == \
                ideal_jet_space(pres, k)
