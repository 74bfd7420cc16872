import gc
import math
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import _oracles as oracles
import chevkit.jets
import chevkit.linalg
from chevkit.chevalley import ChevalleyEngine
from chevkit.errors import InputError
from chevkit.experiments import DENSE_CELL_CAP
from chevkit.indices import degree, index_count, indices_up_to
from chevkit.jets import (
    FibredTuple,
    JetSystem,
    PolyMap,
    jet_blocks,
    jet_matrix,
)
from chevkit.censored import AtLeast
from chevkit.linalg import _dense, staged_elimination
from chevkit.poly import Poly, parse_poly
from chevkit.scenario import load_scenario, scenario_tuples
from chevkit.wedge import membership_kernel, membership_operator

ROOT = Path(__file__).resolve().parent.parent


def squaring():
    return PolyMap("squaring", [parse_poly("x1^2", 1)])


def cusp():
    return PolyMap("cusp", [parse_poly("x1^2", 1), parse_poly("x1^3", 1)])


def cone():
    comps = [parse_poly(t, 2) for t in ("x1", "x1 x2", "x1 x2^2")]
    return PolyMap("cone", comps)


class TestFibredTuple:
    def test_shared_image_required(self):
        with pytest.raises(InputError, match="share an image"):
            FibredTuple.make(squaring(), [(1,), (2,)])

    def test_opposite_points_share_square(self):
        tup = FibredTuple.make(squaring(), [(1,), (-1,)])
        assert tup.image == (Fraction(1),)
        assert tup.size == 2

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            FibredTuple.make(squaring(), [])


class TestJetMatrix:
    def test_squaring_at_origin_order_2(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        jm = jet_matrix(squaring(), tup, 2)
        assert jm.shape == (3, 3)
        assert jm.col_labels == ((0,), (1,), (2,))
        assert jm.row_labels == ((0, (0,)), (0, (1,)), (0, (2,)))
        expected = [
            [1, 0, 0],
            [0, 0, 0],
            [0, 1, 0],
        ]
        assert jm.matrix == [[Fraction(v) for v in r] for r in expected]

    def test_squaring_pair_order_1(self):
        tup = FibredTuple.make(squaring(), [(1,), (-1,)])
        jm = jet_matrix(squaring(), tup, 1)
        expected = [
            [1, 0],
            [0, 2],
            [1, 0],
            [0, -2],
        ]
        assert jm.matrix == [[Fraction(v) for v in r] for r in expected]

    def test_constant_column_is_indicator(self):
        tup = FibredTuple.make(cusp(), [(2,)])
        jm = jet_matrix(cusp(), tup, 3)
        col0 = [r[0] for r in jm.matrix]
        for (pi, alpha), v in zip(jm.row_labels, col0):
            assert v == (1 if degree(alpha) == 0 else 0)

    def test_triangular_shape(self):
        # rows of source degree <= k are zero in columns of target degree > k
        tup = FibredTuple.make(cone(), [(1, 1)])
        jm = jet_matrix(cone(), tup, 3)
        for i, (pi, alpha) in enumerate(jm.row_labels):
            for j, beta in enumerate(jm.col_labels):
                if degree(beta) > degree(alpha):
                    assert jm.matrix[i][j] == 0

    @pytest.mark.parametrize("mk,pts,l", [
        (squaring, [(0,)], 3),
        (squaring, [(1,), (-1,)], 3),
        (cusp, [(Fraction(1, 2),)], 3),
        (cone, [(1, 1)], 2),
        (cone, [(0, 1)], 3),
    ])
    def test_matches_composition_oracle(self, mk, pts, l):
        phi = mk()
        tup = FibredTuple.make(phi, pts)
        jm = jet_matrix(phi, tup, l)
        expected = oracles.jet_matrix_by_composition(
            phi.components, tup.points, tup.image, l
        )
        assert jm.matrix == expected

    def test_negative_order_rejected(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        with pytest.raises(InputError):
            jet_matrix(squaring(), tup, -1)


@st.composite
def _rational_map_tuples(draw):
    """(map, tuple, order): 1-2 components in 1-2 source variables with
    small rational coefficients, at a random rational point; an even
    one-variable map is also taken at the opposite point."""
    m = draw(st.integers(1, 2))
    even = m == 1 and draw(st.booleans())
    step = 2 if even else 1
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    exps = st.tuples(*[st.integers(0, 2).map(lambda e: step * e)] * m)
    comps = [Poly(m, draw(st.dictionaries(exps, coeff, min_size=1,
                                          max_size=3)))
             for _ in range(draw(st.integers(1, 2)))]
    phi = PolyMap("rational", comps, source_arity=m)
    point = tuple(draw(st.fractions(min_value=-2, max_value=2,
                                    max_denominator=4)) for _ in range(m))
    points = [point, tuple(-c for c in point)] if even and any(point) \
        else [point]
    return phi, FibredTuple.make(phi, points), draw(st.integers(0, 3))


def _assert_positive_multiples(got_rows, want_rows):
    """Each row of got_rows is a positive multiple of its row in want_rows."""
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        lead = next((j for j, x in enumerate(want) if x), None)
        if lead is None:
            assert not any(got)
            continue
        ratio = Fraction(got[lead]) / want[lead]
        assert ratio > 0
        assert got == [ratio * x for x in want]


class TestIntegerRows:
    """jet_matrix keeps integer rows, each a positive multiple of the exact
    row; the exact Fraction view is built only when read."""

    @given(_rational_map_tuples())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_positive_multiples_of_the_exact_rows(self, case):
        phi, tup, l = case
        jm = jet_matrix(phi, tup, l)
        want = oracles.jet_matrix_by_composition(
            phi.components, tup.points, tup.image, l
        )
        rows = oracles.dense_rows(jm.integer_matrix())
        assert all(type(v) is int for row in rows for v in row)
        _assert_positive_multiples(rows, want)
        assert jm.matrix == want
        assert all(type(v) is Fraction for row in jm.matrix for v in row)

    def test_reads_off_the_integer_rows_never_build_the_exact_view(
            self, monkeypatch):
        def refuse(jm):
            raise AssertionError("exact view built")

        monkeypatch.setattr(chevkit.jets.JetMatrix, "matrix",
                            property(refuse))
        phi = cusp()
        tup = FibredTuple.make(phi, [(Fraction(1, 2),)])
        sys = JetSystem(phi, tup)
        assert sys.jet(6).shape == (7, index_count(2, 6))
        for l in range(7):
            sys.analysis(l)
            sys.kernel(l)
            for k in range(l + 1):
                sys.projected_kernel(l, k)
                sys.quotient_dim(l, k)
                sys.kernel_contains(l, k, [])
                jet_blocks(sys.jet(l), k)
        engine = ChevalleyEngine(phi, tup, relations=[
            parse_poly("y1^3 - y2^2", 2, names=["y1", "y2"])], l_max=6)
        engine.relation_jets(2)
        assert engine.diagram_threshold(2, 6) in (True, False)


@st.composite
def _grow_cases(draw):
    """(map, points, orders): cusp, cone or squaring at a random rational
    point, squaring at a pair +-c, or 2-3 points on the cone's fibre
    x1 = 0; then 1-5 orders to grow a build to, in any order."""
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    kind = draw(st.sampled_from(["cusp", "cone", "squaring", "pair",
                                 "fibre"]))
    if kind == "pair":
        c = draw(coord.filter(bool))
        phi, points = squaring(), [(c,), (-c,)]
    elif kind == "fibre":
        ts = draw(st.lists(coord, min_size=2, max_size=3, unique=True))
        phi, points = cone(), [(0, t) for t in ts]
    else:
        phi = {"cusp": cusp, "cone": cone, "squaring": squaring}[kind]()
        points = [tuple(draw(coord) for _ in range(phi.source_arity))]
    orders = draw(st.lists(st.integers(0, 6 if kind in ("cone", "fibre")
                                       else 9), min_size=1, max_size=5))
    return phi, points, orders


class TestGrownBuild:
    """A build grown one x-degree at a time is the one-shot build, and each
    of its rows a positive multiple of the dense build's row."""

    @given(_grow_cases())
    @settings(max_examples=60, deadline=None)
    def test_grown_build_equals_one_shot_and_dense_builds(self, case):
        phi, points, orders = case
        tup = FibredTuple.make(phi, points)
        grown = jet_matrix(phi, tup, orders[0])
        for l in orders[1:]:
            grown.grow(l)
        top = max(orders)
        once = jet_matrix(phi, tup, top)
        assert grown.level == once.level == top
        assert grown.scales == once.scales
        assert grown.integer_matrix() == once.integer_matrix()
        for d in range(top + 1):
            assert grown.layer(d) == once.layer(d)
            assert grown.prefix(d).integer_matrix() == \
                jet_matrix(phi, tup, d).integer_matrix()
        rows, _, col_labels, row_labels = oracles.dense_jet_matrix(phi, tup,
                                                                   top)
        assert (grown.col_labels, grown.row_labels) == (col_labels,
                                                        row_labels)
        assert grown.shape == (len(rows), len(col_labels))
        _assert_positive_multiples(
            oracles.dense_rows(grown.integer_matrix()), rows)

    def test_layers_are_the_new_rows_of_each_order(self):
        # layer(d) is the rows of x-degree d, point by point, cut to the
        # columns of degree <= d, where the dense rows end in zeros
        phi = cone()
        tup = FibredTuple.make(phi, [(0, 1), (0, -1)])
        jm = jet_matrix(phi, tup, 4)
        dense = dict(zip(jm.row_labels,
                         oracles.dense_rows(jm.integer_matrix())))
        for d in range(5):
            labels = [(p, a) for p, a in jm.row_labels if degree(a) == d]
            assert [_dense(row, len(jm.col_labels)) for row in jm.layer(d)] \
                == [dense[label] for label in labels]
            assert all(c < index_count(3, d) for row in jm.layer(d)
                       for c in row)
        with pytest.raises(InputError):
            jm.layer(5)
        with pytest.raises(InputError):
            jm.prefix(5)


class TestJetBlocks:
    def test_split_shapes(self):
        tup = FibredTuple.make(cusp(), [(1,)])
        jm = jet_matrix(cusp(), tup, 4)
        low, high = jet_blocks(jm, 2)
        assert low.ncols == index_count(2, 2)
        assert high.ncols == jm.shape[1] - low.ncols
        assert low.nrows == high.nrows == jm.shape[0] == len(jm.matrix)

    def test_split_degree_bounds(self):
        tup = FibredTuple.make(cusp(), [(1,)])
        jm = jet_matrix(cusp(), tup, 2)
        with pytest.raises(InputError):
            jet_blocks(jm, 3)
        with pytest.raises(InputError):
            jet_blocks(jm, -1)


class TestKernels:
    def test_squaring_order_2_kernel(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        kern = JetSystem(squaring(), tup).kernel(2)
        assert kern.dim == 1
        assert list(oracles.dense_basis(kern)[0]) == [0, 0, 1]

    def test_kernel_annihilated(self):
        tup = FibredTuple.make(cusp(), [(Fraction(1, 2),)])
        jm = jet_matrix(cusp(), tup, 4)
        kern = JetSystem(cusp(), tup).kernel(4)
        for v in oracles.dense_basis(kern):
            image = oracles.apply(jm.matrix, list(v))
            assert all(c == 0 for c in image)

    @pytest.mark.parametrize("mk,pts", [
        (squaring, [(0,)]),
        (squaring, [(1,), (-1,)]),
        (cusp, [(0,)]),
        (cone, [(0, 1)]),
    ])
    def test_dims_match_sympy(self, mk, pts):
        phi = mk()
        tup = FibredTuple.make(phi, pts)
        l = 4
        jm = jet_matrix(phi, tup, l)
        rank = oracles.sympy_rank(jm.matrix)
        assert JetSystem(phi, tup).kernel(l).dim == \
            jm.shape[1] - rank
        for k in range(0, l + 1):
            expected = oracles.projected_kernel_dim(
                phi.components, tup.points, tup.image, l, k
            )
            assert JetSystem(phi, tup).projected_kernel(l, k).dim \
                == expected

    def test_projection_routes_agree(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        sys = JetSystem(phi, tup)
        for l in range(1, 6):
            full = sys.kernel(l)
            for k in range(0, l + 1):
                cut = index_count(phi.target_arity, k)
                assert sys.projected_kernel(l, k) == full.project(cut)

    def test_quotient_dim_is_codimension(self):
        phi = cone()
        tup = FibredTuple.make(phi, [(1, 1)])
        sys = JetSystem(phi, tup)
        for l in range(0, 4):
            for k in range(0, l + 1):
                total = index_count(phi.target_arity, k)
                proj = sys.projected_kernel(l, k).dim
                assert sys.quotient_dim(l, k) == total - proj

    @pytest.mark.parametrize("name", ["cone", "cusp", "identity", "squaring"])
    def test_rank_only_codim_on_shipped_maps(self, name):
        # quotient_dim reads ranks only; it must match the codimension of
        # the canonicalised projected kernel everywhere on the chain
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        for _, tup in scenario_tuples(scenario):
            sys = JetSystem(scenario.phi, tup)
            for l in range(scenario.l_max + 1):
                for k in range(l + 1):
                    assert sys.quotient_dim(l, k) == \
                        sys.projected_kernel(l, k).codim, (tup, l, k)

    @given(st.sampled_from([cusp, cone]),
           st.lists(st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4), min_size=2, max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_rank_only_codim_at_random_points(self, mk, coords):
        phi = mk()
        tup = FibredTuple.make(phi, [tuple(coords[:phi.source_arity])])
        sys = JetSystem(phi, tup)
        for l in range(5):
            for k in range(l + 1):
                assert sys.quotient_dim(l, k) == \
                    sys.projected_kernel(l, k).codim

    @given(st.sampled_from([cusp, cone]), st.integers(0, 5), st.data())
    @settings(max_examples=40, deadline=None)
    def test_kernel_contains_matches_canonical_membership(self, mk, l, data):
        # the kernel's canonical rows and random sparse vectors, in one call
        # and one at a time, against the dense Fraction membership oracle
        phi = mk()
        tup = FibredTuple.make(phi, [(0,) * phi.source_arity])
        sys = JetSystem(phi, tup)
        k = data.draw(st.integers(0, l))
        width = index_count(phi.target_arity, k)
        proj = sys.projected_kernel(l, k)
        vectors = list(proj.rows.values()) + data.draw(st.lists(
            st.dictionaries(st.integers(0, width - 1),
                            st.sampled_from([1, -2, 3])), max_size=3))
        member = [oracles.contains_vector(proj, _dense(v, width))
                  for v in vectors]
        for v, inside in zip(vectors, member):
            assert sys.kernel_contains(l, k, [v]) == inside
        assert sys.kernel_contains(l, k, vectors) == all(member)

    @given(st.sampled_from([cusp, cone]), st.integers(0, 5), st.data())
    @settings(max_examples=30, deadline=None)
    def test_kernel_contains_takes_sparse_vectors(self, mk, l, data):
        # sparse {index: x} vectors: the whole guard answers as the oracle
        # does, and a guard cut to the rows made since an order passes
        # every member and answers for a batch as for each vector
        phi = mk()
        tup = FibredTuple.make(phi, [(0,) * phi.source_arity])
        sys = JetSystem(phi, tup)
        k = data.draw(st.integers(0, l))
        width = index_count(phi.target_arity, k)
        proj = sys.projected_kernel(l, k)
        rows = list(proj.rows.values())
        assert rows == oracles.integer_rows(oracles.dense_basis(proj))
        sparse = rows + data.draw(st.lists(
            st.dictionaries(st.integers(0, width - 1),
                            st.sampled_from([1, -2, 3])), max_size=3))
        for since in range(l + 1):
            single = [sys.kernel_contains(l, k, [v], since) for v in sparse]
            for v, got in zip(sparse, single):
                if oracles.contains_vector(proj, _dense(v, width)):
                    assert got
                elif since == 0:
                    assert not got
            assert sys.kernel_contains(l, k, sparse, since) == all(single)

    def test_projection_degree_bound(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        with pytest.raises(InputError):
            JetSystem(squaring(), tup).projected_kernel(2, 3)
        with pytest.raises(InputError):
            JetSystem(squaring(), tup).quotient_dim(2, 3)

    def test_negative_projection_degree(self):
        tup = FibredTuple.make(squaring(), [(0,)])
        with pytest.raises(InputError):
            JetSystem(squaring(), tup).projected_kernel(2, -1)
        with pytest.raises(InputError):
            JetSystem(squaring(), tup).quotient_dim(2, -1)
        with pytest.raises(InputError):
            JetSystem(squaring(), tup).kernel_contains(2, -1, [])

    def test_membership_residual_kernel(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        sys = JetSystem(phi, tup)
        l, k = 5, 2
        low, high = jet_blocks(sys.jet(l), k)
        # the guard rows' kernel is the kernel of the membership system
        # (low)u in the column span of (high); the pivots they leave out of
        # rank J_l count the rank of the high block
        assert membership_kernel(low, high).kernel == \
            sys.projected_kernel(l, k)
        assert sys.analysis(l) - sys.quotient_dim(l, k) == \
            oracles.sympy_rank(oracles.dense_rows(high))


def _count_builds(monkeypatch):
    """Record the order of every jet_matrix build a JetSystem makes."""
    levels = []
    build = chevkit.jets.jet_matrix

    def counting(phi, tup, l):
        levels.append(l)
        return build(phi, tup, l)

    monkeypatch.setattr(chevkit.jets, "jet_matrix", counting)
    return levels


def _count_orders(monkeypatch):
    """Record the x-degree of every order any build makes."""
    made = []
    add = chevkit.jets.JetMatrix._add_order

    def adding(jm):
        made.append(len(jm._layers))
        add(jm)

    monkeypatch.setattr(chevkit.jets.JetMatrix, "_add_order", adding)
    return made


def _assert_leading_blocks(phi, tup, top):
    sys = JetSystem(phi, tup)
    sys.analysis(top)
    for l in range(top + 1):
        got, want = sys.jet(l), jet_matrix(phi, tup, l)
        assert got.level == l
        assert got.matrix == want.matrix, (tup, l)
        assert got.col_labels == want.col_labels
        assert got.row_labels == want.row_labels


class TestSingleBuild:
    """One jet_matrix build per system, made at the first order asked and
    grown in place; every lower order is its leading block of rows (per
    point) and columns."""

    @pytest.mark.parametrize("name", ["cone", "cusp", "identity", "squaring"])
    def test_slices_equal_fresh_builds_on_shipped_maps(self, name):
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        for _, tup in scenario_tuples(scenario):
            _assert_leading_blocks(scenario.phi, tup, scenario.l_max)

    @given(st.sampled_from([cusp, cone]),
           st.lists(st.fractions(min_value=-3, max_value=3,
                                 max_denominator=4), min_size=2, max_size=2),
           st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_slices_equal_fresh_builds_at_random_points(self, mk, coords,
                                                        top):
        phi = mk()
        tup = FibredTuple.make(phi, [tuple(coords[:phi.source_arity])])
        _assert_leading_blocks(phi, tup, top)

    @pytest.mark.parametrize("mk,pts", [
        (cusp, [(Fraction(1, 2),)]),
        (cone, [(1, 1)]),
        (squaring, [(1,), (-1,)]),
    ])
    def test_out_of_order_analyses_match_single_order_systems(self, mk, pts):
        phi = mk()
        tup = FibredTuple.make(phi, pts)
        sys = JetSystem(phi, tup)
        for l in (5, 2, 9, 1):
            got = sys.analysis(l)
            fresh = JetSystem(phi, tup)
            assert got == fresh.analysis(l)
            for k in range(l + 1):
                assert sys.quotient_dim(l, k) == fresh.quotient_dim(l, k)
                assert sys._guard_rows(l, k) == fresh._guard_rows(l, k), \
                    (l, k)

    def test_engine_climb_makes_one_build(self, monkeypatch):
        # the climb's first request makes the build; every later order grows
        # it, and every order's rows are made once
        levels = _count_builds(monkeypatch)
        made = _count_orders(monkeypatch)
        phi = cusp()
        tup = FibredTuple.make(phi, [(0,)])
        rel = parse_poly("y1^3 - y2^2", 2, names=["y1", "y2"])
        engine = ChevalleyEngine(phi, tup, relations=[rel], l_max=16)
        assert [engine.relation_jets(k).l_value for k in range(1, 9)] == \
            [3, 5, 7, 9, 11, 13, 15, AtLeast(17)]
        assert levels == [1]
        assert made == list(range(17))

    @given(st.lists(st.tuples(st.sampled_from(["analysis", "jet"]),
                              st.integers(0, 12)), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_requests_in_any_order_grow_one_build(self, requests):
        # hypothesis cannot share the monkeypatch fixture across examples
        levels, made = [], []
        build, add = chevkit.jets.jet_matrix, chevkit.jets.JetMatrix._add_order

        def counting(phi, tup, l):
            levels.append(l)
            return build(phi, tup, l)

        def adding(jm):
            made.append(len(jm._layers))
            add(jm)

        phi = squaring()
        tup = FibredTuple.make(phi, [(1,), (-1,)])
        sys = JetSystem(phi, tup)
        chevkit.jets.jet_matrix = counting
        chevkit.jets.JetMatrix._add_order = adding
        try:
            for verb, l in requests:
                getattr(sys, verb)(l)
                if verb == "jet":
                    assert sys.jet(l).level == l
        finally:
            chevkit.jets.jet_matrix = build
            chevkit.jets.JetMatrix._add_order = add
        top = max(l for _, l in requests)
        assert levels == [requests[0][1]]
        assert made == list(range(top + 1))
        assert sys._build.level == top

    def test_first_build_is_grown_in_place(self, monkeypatch):
        # the first request builds exactly its order, lower orders are read
        # off that build, and a higher one grows the same build
        levels = _count_builds(monkeypatch)
        made = _count_orders(monkeypatch)
        tup = FibredTuple.make(cusp(), [(0,)])
        sys = JetSystem(cusp(), tup)
        sys.quotient_dim(7, 2)
        build = sys._build
        assert (levels, made) == ([7], list(range(8)))
        for l in (1, 2, 3, 6):
            sys.analysis(l)
            sys.jet(l)
        assert made == list(range(8))
        sys.analysis(9)
        sys.jet(12)
        assert (levels, made) == ([7], list(range(13)))
        assert sys._build is build and build.level == 12
        assert sys.jet(7).level == 7

    def test_threshold_reads_build_no_dense_rows(self, monkeypatch):
        # every route reads the sparse rows of the build and the echelon;
        # only a read of the exact view, as jet --dump-matrix makes, or of
        # an elimination's rows, as the benchmark's tracer makes, builds
        # them dense
        def refuse(*args):
            raise AssertionError("dense rows built")

        monkeypatch.setattr(chevkit.jets.JetMatrix, "matrix",
                            property(refuse))
        monkeypatch.setattr(chevkit.linalg, "_dense", refuse)
        phi = cone()
        tup = FibredTuple.make(phi, [(1, 1)])
        rel = parse_poly("y2^2 - y1 y3", 3, names=["y1", "y2", "y3"])
        engine = ChevalleyEngine(phi, tup, relations=[rel], l_max=8)
        for k in (1, 2):
            engine.relation_jets(k)
        sys = engine.jets
        dense = 0
        for l in range(9):
            for k in range(l + 1):
                sys.quotient_dim(l, k)
                sys.projected_kernel(l, k)
                sys.kernel_contains(l, k, [])
                engine.diagram_threshold(k, l)
                # verify runs the membership routes on low orders only,
                # and the dense wedge route under its cell cap
                if l > 4:
                    continue
                low, high = jet_blocks(sys.jet(l), k)
                r = membership_kernel(low, high).absorbed_rank
                if math.comb(high.ncols, r) * math.comb(
                        high.nrows, r + 1) <= DENSE_CELL_CAP:
                    membership_operator(low, high, r).rank_kernel()
                    dense += 1
        assert dense
        assert sys.jet(8).shape == (index_count(2, 8), index_count(3, 8))
        sys.kernel(8)
        with pytest.raises(AssertionError, match="dense rows built"):
            sys.jet(8).matrix
        with pytest.raises(AssertionError, match="dense rows built"):
            staged_elimination(sys.jet(8).integer_matrix().sparse_rows,
                               index_count(3, 8),
                               [range(index_count(3, 8))]).rows

    def test_no_reference_cycle(self):
        # a reference cycle through the system keeps every engine's matrices
        # alive until the cyclic collector runs, which shows in peak memory
        phi = cone()
        tup = FibredTuple.make(phi, [(1, 1)])
        gc.disable()
        try:
            sys = JetSystem(phi, tup)
            for l in (2, 6, 3):
                sys.analysis(l)
                sys.jet(l)
                sys.projected_kernel(l, 1)
                sys.kernel_contains(l, 1, [])
            sys.kernel(3)
            dead_sys = weakref.ref(sys)
            dead_jet = weakref.ref(sys.jet(3))
            del sys
            assert dead_sys() is None
            assert dead_jet() is None
        finally:
            gc.enable()


def _fresh_splits(phi, tup, l):
    """{k: (rank J_l, quotient_dim, projected kernel)} from one fresh
    two-stage staged elimination of the order-l jet matrix per k:
    degree-> k columns first; the rows left without a pivot there, cut to
    the degree-<= k columns, have the projected kernel as their kernel."""
    rows = oracles.integer_rows(jet_matrix(phi, tup, l).matrix)
    ncols = index_count(phi.target_arity, l)
    splits = {}
    for k in range(l + 1):
        cut = index_count(phi.target_arity, k)
        elim = staged_elimination(rows, ncols,
                                  [list(range(cut, ncols)), list(range(cut))])
        high = {r for r, c in elim.pivots if c >= cut}
        residual = oracles.int_matrix([row[:cut] for i, row
                                       in enumerate(elim.rows)
                                       if i not in high], cut)
        splits[k] = (elim.rank, elim.rank - len(high),
                     residual.rank_kernel()[1])
    return splits


def _assert_prefix_reads(phi, tup, orders):
    sys = JetSystem(phi, tup)
    for l in orders:
        rank = sys.analysis(l)
        for k, (want_rank, want_codim, want_kernel) in \
                _fresh_splits(phi, tup, l).items():
            assert rank == want_rank, (tup, l)
            assert sys.quotient_dim(l, k) == want_codim, (tup, l, k)
            assert sys.projected_kernel(l, k) == want_kernel, (tup, l, k)


@st.composite
def _random_tuples(draw):
    """(map, points): one cusp or cone point, or 2-3 points on the cone's
    singular fibre x1 = 0, where new rows must be reduced against old
    pivots before they are pivoted."""
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    kind = draw(st.sampled_from(["cusp", "cone", "fibre"]))
    if kind == "fibre":
        ts = draw(st.lists(coord, min_size=2, max_size=3, unique=True))
        return cone(), [(0, t) for t in ts]
    phi = cusp() if kind == "cusp" else cone()
    return phi, [tuple(draw(coord) for _ in range(phi.source_arity))]


class TestEchelon:
    """The append-only echelon: every (l, k) read off its order-l prefix
    equals a fresh staged elimination of the order-l jet matrix."""

    @given(_random_tuples(), st.permutations(range(6)))
    @settings(max_examples=25, deadline=None)
    def test_prefix_reads_match_fresh_eliminations_at_random_points(
            self, case, orders):
        phi, pts = case
        _assert_prefix_reads(phi, FibredTuple.make(phi, pts), orders)

    @pytest.mark.parametrize("comps,m,pts,top", [
        (["x1^3 - x1"], 1, [(0,), (1,), (-1,)], 8),
        (["x1", "x2^3 - x2"], 2, [(0, 1), (0, -1), (0, 0)], 5),
        # reducing against the old pivots lowest degree first, instead of
        # in the staged order, miscounts here at order 4
        (["x2 + x1^3", "x2^2 + x1^2 x2"], 2, [(0, 0)], 5),
    ])
    def test_prefix_reads_match_fresh_eliminations_on_folds(
            self, comps, m, pts, top):
        phi = PolyMap("fold", [parse_poly(c, m) for c in comps])
        orders = list(range(top + 1))
        random.Random(top).shuffle(orders)
        _assert_prefix_reads(phi, FibredTuple.make(phi, pts), orders)

    @pytest.mark.parametrize("name", ["cone", "cusp", "identity", "squaring"])
    def test_prefix_reads_match_fresh_eliminations_on_shipped_tuples(
            self, name):
        # orders shuffled by a fixed seed; cone stops at 7 for time
        scenario = load_scenario(ROOT / "scenarios" / f"{name}.json")
        top = min(scenario.l_max, 7 if name == "cone" else 12)
        rng = random.Random(name)
        for _, tup in scenario_tuples(scenario):
            orders = list(range(top + 1))
            rng.shuffle(orders)
            _assert_prefix_reads(scenario.phi, tup, orders)

    def test_one_elimination_per_new_order(self, monkeypatch):
        calls = []
        elim = chevkit.jets.staged_elimination

        def counting(rows, ncols, stages):
            calls.append(ncols)
            return elim(rows, ncols, stages)

        monkeypatch.setattr(chevkit.jets, "staged_elimination", counting)
        phi = cone()
        sys = JetSystem(phi, FibredTuple.make(phi, [(1, 1)]))
        for l in (6, 3, 8):
            sys.jet(l)
        assert calls == []
        sys.analysis(4)
        assert len(calls) == 5
        sys.quotient_dim(3, 2)
        sys.kernel_contains(4, 1, [{0: 1}])
        sys.projected_kernel(2, 2)
        assert len(calls) == 5
        sys.quotient_dim(7, 7)
        assert len(calls) == 8
        sys.jet(5)
        assert len(calls) == 8

    @pytest.mark.parametrize("phi, point", [
        (cone(), (0, 0)), (cusp(), (0,)), (cone(), (1, 1)),
    ])
    def test_growth_enumerates_no_index_prefix(self, phi, point):
        # each order reads the indices of its own degree and the one below
        # it, so the cached full enumerations do not pile up one per order
        indices_up_to.cache_clear()
        JetSystem(phi, FibredTuple.make(phi, [point])).analysis(12)
        assert indices_up_to.cache_info().currsize == 0


class TestDefiningProperty:
    """J^l(phi) applied to the coefficients of F equals the Taylor
    coefficients of F composed with the recentered map, at every point."""

    def run_case(self, phi, pts, f_local, l):
        tup = FibredTuple.make(phi, pts)
        jm = jet_matrix(phi, tup, l)
        origin = (0,) * phi.target_arity
        vec = oracles.coeff_vector(f_local.taylor(origin, l), l)
        image = oracles.apply(jm.matrix, vec)
        per_point = len(indices_up_to(phi.source_arity, l))
        for pi, a in enumerate(tup.points):
            expected = oracles.composition_taylor_vector(
                f_local, phi.components, tup.image, a, l
            )
            got = image[pi * per_point:(pi + 1) * per_point]
            assert got == expected

    def test_cusp_case(self):
        f = parse_poly("y1^3 - y2^2 + 2y2", 2, names=["y1", "y2"])
        self.run_case(cusp(), [(1,)], f, 4)
        self.run_case(cusp(), [(Fraction(1, 2),)], f, 5)

    def test_random_cases(self):
        rng = random.Random(7)
        names = ["y1", "y2", "y3"]
        for _ in range(20):
            phi = cone()
            a = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            l = rng.randint(1, 3)
            f = Poly.zero(3)
            for _ in range(rng.randint(1, 3)):
                beta = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + oracles.monomial(beta, Fraction(rng.randint(-3, 3)))
            if f.is_zero():
                continue
            self.run_case(phi, [a], f, l)


class TestComponentSeries:
    def test_centering(self):
        phi = cusp()
        tup = FibredTuple.make(phi, [(1,)])
        series = oracles.component_series(phi, tup, 0, 3)
        # components minus image values vanish at the point
        for s in series:
            assert s.terms.get((0,), Fraction(0)) == 0
