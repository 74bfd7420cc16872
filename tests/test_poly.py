from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    TruncationError,
    coeff,
    coeff_vector,
    map_power,
    parse_poly_by_poly_arithmetic,
    power_by_squaring,
    scaled_derivative,
    shift_by_compose,
    tokenize_by_match_loop,
)
from chevkit.errors import InputError
from chevkit.poly import (
    Poly,
    TruncatedSeries,
    _tokenize,
    format_poly,
    parse_poly,
    parse_rational,
)

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


def poly_strategy(arity, max_degree=3, max_terms=4):
    exps = st.tuples(*([st.integers(0, max_degree)] * arity)).filter(
        lambda b: sum(b) <= max_degree
    )
    return st.dictionaries(exps, rationals, max_size=max_terms).map(
        lambda terms: Poly(
            arity, {b: Fraction(c) for b, c in terms.items() if c}
        )
    )


points2 = st.tuples(rationals, rationals)

# (polynomial, point) in 1 to 3 variables
shift_cases = st.integers(1, 3).flatmap(lambda n: st.tuples(
    poly_strategy(n, max_degree=4, max_terms=6),
    st.tuples(*([rationals] * n)),
))


class TestParseRational:
    def test_integer(self):
        assert parse_rational("7") == Fraction(7)

    def test_fraction(self):
        assert parse_rational("-3/2") == Fraction(-3, 2)

    def test_rejects_float_text(self):
        with pytest.raises(InputError):
            parse_rational("0.5")

    def test_rejects_zero_denominator(self):
        with pytest.raises(InputError):
            parse_rational("5/0")


class TestParse:
    def test_round_trip(self):
        p = parse_poly("2x1^2 - x1 x2 + 1/2", 2)
        assert format_poly(p) == "1/2 - x1*x2 + 2*x1^2"

    def test_double_star_power(self):
        assert parse_poly("x1**3", 2) == parse_poly("x1^3", 2)

    def test_implicit_product(self):
        assert parse_poly("3 x1 x2", 2) == parse_poly("3*x1*x2", 2)

    def test_alias(self):
        p = parse_poly("x^2", 1, aliases={"x": "x1"})
        assert p == parse_poly("x1^2", 1)

    def test_custom_names(self):
        p = parse_poly("y1^3 - y2^2", 2, names=["y1", "y2"])
        assert coeff(p, (3, 0)) == 1
        assert coeff(p, (0, 2)) == -1

    def test_unknown_variable(self):
        with pytest.raises(InputError):
            parse_poly("z", 2)

    def test_name_refusals_word_for_word(self):
        with pytest.raises(InputError) as err:
            parse_poly("x1 + z", 2, aliases={"x": "x1"})
        assert str(err.value) == "unknown variable 'z'"
        with pytest.raises(InputError) as err:
            parse_poly("x", 2, aliases={"x": "x3"})
        assert str(err.value) == "alias target 'x3' is not a variable name"

    def test_unbalanced_paren(self):
        with pytest.raises(InputError):
            parse_poly("(x1 + 1", 2)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(InputError):
            parse_poly("x1^(1/2)", 2)

    def test_zero_denominator_constant(self):
        with pytest.raises(InputError):
            parse_poly("1/0", 1)

    def test_parenthesized_arithmetic(self):
        p = parse_poly("(x1 + x2)^2", 2)
        assert p == parse_poly("x1^2 + 2x1 x2 + x2^2", 2)

    @pytest.mark.parametrize("text", [5, None, ["x1"], b"x1"])
    def test_text_that_is_not_a_str(self, text):
        with pytest.raises(InputError, match="must be a string"):
            parse_poly(text, 1)

    @pytest.mark.parametrize("text", [
        "(" * 400 + "x1" + ")" * 400,
        "2*" + "-" * 4000 + "x1",
    ], ids=["parentheses", "unary-minus"])
    def test_deep_nesting_is_input_error(self, text):
        with pytest.raises(InputError, match="nested too deeply"):
            parse_poly(text, 1)

    def test_moderate_nesting_parses(self):
        assert parse_poly("(" * 50 + "x1" + ")" * 50, 1) == parse_poly("x1", 1)


# polynomial texts in x1, x2 and the alias x: p/q literals, unary minus,
# parentheses, powers of sums and implicit products
_atoms = st.one_of(
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(1, 4)).map(
        lambda t: f"{t[0]}/{t[1]}"),
    st.sampled_from(["x1", "x2", "x"]),
)


def _compound(inner):
    return st.one_of(
        inner.map(lambda a: f"({a})"),
        inner.map(lambda a: f"-{a}"),
        inner.map(lambda a: f"- -({a})"),
        st.tuples(inner, st.sampled_from(["^", "**"]),
                  st.integers(0, 3)).map(lambda t: f"({t[0]}){t[1]}{t[2]}"),
        st.tuples(st.sampled_from(["x1", "x2", "3", "2/3"]),
                  st.integers(0, 4)).map(lambda t: f"{t[0]}^{t[1]}"),
        st.tuples(inner, st.sampled_from([" + ", " - ", "*", " ", ""]),
                  inner).map("".join),
    )


expression_texts = st.recursive(_atoms, _compound, max_leaves=10)

# token soup: every token the grammar knows, plus unknown names
token_soup = st.lists(st.sampled_from(
    ["x1", "x2", "y", "2", "1/2", "0", "3/0", "+", "-", "*", "^", "**",
     "(", ")", " ", "1.5"]), max_size=8).map("".join)


def _outcome(parse, text):
    try:
        p = parse(text, 2, aliases={"x": "x1"})
    except InputError as exc:
        return ("error", str(exc))
    return ("poly", list(p.terms.items()),
            [type(c) for c in p.terms.values()])


def _tokens(tokenize, text):
    try:
        return tokenize(text)
    except InputError as exc:
        return ("error", str(exc))


class TestParserParity:
    """parse_poly combines term dicts; the parser that built every literal,
    variable and power as a Poly, on the tokens of the match-loop
    tokenizer, is the reference, down to term order and coefficient
    types."""

    @given(st.one_of(token_soup, expression_texts, st.text(max_size=12)))
    @settings(max_examples=300, deadline=None)
    def test_tokens_match_the_match_loop(self, text):
        # any text at all, other whitespace and other digits included
        assert _tokens(_tokenize, text) == \
            _tokens(tokenize_by_match_loop, text)

    @given(expression_texts)
    @settings(max_examples=300, deadline=None)
    def test_expressions(self, text):
        assert _outcome(parse_poly, text) == \
            _outcome(parse_poly_by_poly_arithmetic, text)

    @given(token_soup)
    @settings(max_examples=300, deadline=None)
    def test_token_soup_and_error_messages(self, text):
        assert _outcome(parse_poly, text) == \
            _outcome(parse_poly_by_poly_arithmetic, text)

    @pytest.mark.parametrize("text", [
        "", "x1^", "x1^x2", "x1^1/2", "(x1 + 1", "3/0 x1", "x1 y", ")",
        "x1 +", "2 ** -1", "x1 $ 2", "(x1 - x2)^0", "0^0", "(0)^2",
        "-(x1 - x2)^3 x2 - 1/2", "x^2 x1", "+-+x1",
    ])
    def test_frozen_texts(self, text):
        assert _outcome(parse_poly, text) == \
            _outcome(parse_poly_by_poly_arithmetic, text)


class TestArithmetic:
    @given(poly_strategy(2), poly_strategy(2), points2)
    def test_product_evaluates_pointwise(self, p, q, a):
        assert (p * q).eval(a) == p.eval(a) * q.eval(a)

    @given(poly_strategy(2), poly_strategy(2), points2)
    def test_sum_evaluates_pointwise(self, p, q, a):
        assert (p + q).eval(a) == p.eval(a) + q.eval(a)

    @given(poly_strategy(2), st.integers(0, 4), points2)
    @settings(max_examples=40)
    def test_power_matches_repeated_product(self, p, e, a):
        assert (p ** e).eval(a) == p.eval(a) ** e

    @given(poly_strategy(2, max_terms=3), st.integers(0, 5))
    @settings(max_examples=60)
    def test_power_matches_squaring_by_poly_products(self, p, e):
        # term order included: a power of a monomial is taken directly
        q = p ** e
        assert list(q.terms.items()) == \
            list(power_by_squaring(p, e).terms.items())
        assert all(type(c) is Fraction for c in q.terms.values())

    @given(poly_strategy(2), points2, points2)
    def test_shift_recenters(self, p, a, x):
        shifted = p.shift(a)
        moved = tuple(xi + ai for xi, ai in zip(x, a))
        assert shifted.eval(x) == p.eval(moved)

    @given(shift_cases)
    @settings(max_examples=60)
    def test_shift_matches_substitution(self, case):
        # same terms, same values, and the same term order as substituting
        # x_i + a_i, so anything that iterates the terms sees no change
        p, a = case
        shifted = p.shift(a)
        reference = shift_by_compose(p, a)
        assert shifted == reference
        assert list(shifted.terms.items()) == list(reference.terms.items())
        assert all(type(c) is Fraction for c in shifted.terms.values())

    @given(poly_strategy(3),
           st.sampled_from([(0, 0, 0), (Fraction(0),) * 3,
                            (0, Fraction(0), 0)]))
    def test_shift_at_the_origin_copies_the_terms(self, p, origin):
        shifted = p.shift(origin)
        reference = shift_by_compose(p, origin)
        assert shifted == reference
        assert list(shifted.terms.items()) == list(reference.terms.items())
        assert all(type(c) is Fraction for c in shifted.terms.values())
        before = list(p.terms.items())
        shifted.terms.clear()
        shifted.terms[(9, 9, 9)] = Fraction(1)
        assert list(p.terms.items()) == before

    @given(shift_cases)
    @settings(max_examples=60)
    def test_shift_round_trip(self, case):
        p, a = case
        assert p.shift(a).shift(tuple(-x for x in a)) == p

    def test_shift_frozen_example(self):
        p = parse_poly("x1^2 x2 - 3x2", 2)
        q = p.shift((Fraction(1), Fraction(-1, 2)))
        # (x1 + 1)^2 (x2 - 1/2) - 3(x2 - 1/2)
        assert q == parse_poly(
            "x1^2 x2 - 1/2 x1^2 + 2x1 x2 - x1 - 2x2 + 1", 2
        )

    def test_shift_rejects_wrong_point_length(self):
        with pytest.raises(InputError):
            parse_poly("x1", 2).shift((1,))

    def test_compose(self):
        f = parse_poly("y1^2 + y2", 2, names=["y1", "y2"])
        args = [parse_poly("x1 + 1", 1), parse_poly("x1^3", 1)]
        assert f.compose(args) == parse_poly("x1^2 + 2x1 + 1 + x1^3", 1)

    def test_total_degree_and_order(self):
        p = parse_poly("x1^2 x2 + x2^2", 2)
        assert p.total_degree() == 3
        assert p.order() == 2
        assert Poly.zero(2).total_degree() == -1
        assert Poly.zero(2).order() is None

    def test_scaled_derivative_extracts_taylor_coefficients(self):
        p = parse_poly("x1^3", 1)
        # expansion at a: sum_j C(3, j) a^(3-j) (x - a)^j
        a = (Fraction(2),)
        assert scaled_derivative(p, (0,)).eval(a) == 8
        assert scaled_derivative(p, (1,)).eval(a) == 12
        assert scaled_derivative(p, (2,)).eval(a) == 6
        assert scaled_derivative(p, (3,)).eval(a) == 1


class TestSeries:
    def test_taylor_frozen_example(self):
        p = parse_poly("x1^2", 1)
        s = p.taylor((Fraction(1),), 1)
        # (x + 1)^2 = 1 + 2x + x^2, truncated at degree 1
        assert coeff(s, (0,)) == 1
        assert coeff(s, (1,)) == 2
        assert s.trunc_degree == 1

    def test_coeff_past_truncation_raises(self):
        s = parse_poly("x1", 1).truncate(2)
        with pytest.raises(TruncationError):
            coeff(s, (3,))

    @given(poly_strategy(2), poly_strategy(2))
    @settings(max_examples=40)
    def test_series_product_matches_truncated_poly_product(self, p, q):
        d = 3
        sp = (p * q).truncate(d)
        assert p.truncate(d) * q.truncate(d) == sp

    @given(poly_strategy(2), poly_strategy(2), st.integers(0, 4))
    @settings(max_examples=40)
    def test_products_keep_their_coefficient_type(self, p, q, d):
        # Poly arithmetic stays in Fractions; series of ints multiply to ints
        for r in (p * q, p + q, p - q, p * 3):
            assert all(type(c) is Fraction for c in r.terms.values())

        def ints(f):
            terms = {b: int(c * 12) for b, c in f.terms.items()}
            return TruncatedSeries(2, terms, d, _exact=True)

        got = ints(p) * ints(q)
        assert all(type(c) is int for c in got.terms.values())
        want = (p * q).truncate(d)
        assert got.terms == {b: c * 144 for b, c in want.terms.items()}

    def test_map_power_matches_direct_expansion(self):
        d = 4
        comps = [parse_poly("x1^2", 1), parse_poly("x1^3", 1)]
        series = [c.truncate(d) for c in comps]
        direct = (comps[0] ** 2 * comps[1]).truncate(d)
        assert map_power(series, (2, 1), d) == direct

    def test_coeff_vector_follows_shared_order(self):
        s = parse_poly("x1 + 2x2^2", 2).truncate(2)
        assert coeff_vector(s, 2) == [
            Fraction(0), Fraction(0), Fraction(1),
            Fraction(2), Fraction(0), Fraction(0),
        ]


def test_format_zero():
    assert format_poly(Poly.zero(3)) == "0"


@given(poly_strategy(2))
def test_parse_format_round_trip(p):
    assert parse_poly(format_poly(p), 2) == p
